//go:build linux

package rt

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// kick wakes the Go runtime on time for a thread's Sleep. When every P is
// idle the runtime blocks in epoll_wait, whose timeout is whole
// milliseconds, so a due Go timer can fire up to 1 ms late. A timerfd
// registered in that same netpoller and armed to the sleep's deadline makes
// epoll_wait return on time; the runtime then runs its due timers. The fd
// is never read: its readiness is the whole message.
type kick struct {
	f      *os.File // owns fd and keeps it registered with the netpoller
	fd     uintptr  // raw descriptor: File.Fd would make it blocking
	failed bool     // creation failed once: Sleep uses the plain timer
}

// itimerspec mirrors struct itimerspec (interval, then value).
type itimerspec struct {
	interval, value syscall.Timespec
}

// arm sets the kick to fire d from now; d <= 0 disarms it. The first arm
// with d > 0 creates the timerfd.
func (k *kick) arm(d time.Duration) {
	if k.f == nil {
		if d <= 0 || k.failed {
			return
		}
		fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE,
			1, // CLOCK_MONOTONIC, the clock of the runtime's timers
			syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
		if errno != 0 {
			k.failed = true
			return
		}
		k.f, k.fd = os.NewFile(fd, "yasmin-kick"), fd
	}
	var its itimerspec
	if d > 0 {
		its.value = syscall.NsecToTimespec(int64(d))
	}
	// A failed settime only leaves the plain Go timer in charge.
	syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, k.fd, 0,
		uintptr(unsafe.Pointer(&its)), 0, 0, 0)
}

// close releases the timerfd, if one was created.
func (k *kick) close() {
	if k.f != nil {
		k.f.Close()
		k.f = nil
	}
}
