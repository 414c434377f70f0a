//go:build linux

package rt

import (
	"os"
	"slices"
	"testing"
	"time"
)

// With every P idle the runtime waits in epoll_wait, whose timeout is whole
// milliseconds; without the kick a 300µs sleep overshoots by ≈800µs.
func TestOSEnvSleepOvershootUnderAMillisecond(t *testing.T) {
	const d = 300 * time.Microsecond
	env := NewOSEnv()
	env.Spin = false
	over := make([]time.Duration, 50)
	env.RunMain(func(c Ctx) {
		for i := range over {
			t0 := c.Now()
			c.Sleep(d)
			over[i] = c.Now() - t0 - d
		}
	})
	slices.Sort(over)
	if p50 := over[len(over)/2]; p50 >= d {
		t.Errorf("median overshoot of Sleep(%v) = %v, want under %v", d, p50, d)
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	return len(ents)
}

// Each sleeping thread holds one timerfd while it lives and releases it
// when it returns.
func TestOSEnvKickFDsReleasedWithThreads(t *testing.T) {
	const n = 200
	openFDs(t) // the first directory read starts the netpoller's own fds
	before := openFDs(t)
	env := NewOSEnv()
	env.Spin = false
	slept := make(chan struct{}, n)
	threads := make([]Thread, n)
	for i := range threads {
		threads[i] = env.Spawn("s", UnpinnedCore, func(c Ctx) {
			c.Sleep(100 * time.Microsecond)
			slept <- struct{}{}
			c.Park()
		})
	}
	for range threads {
		<-slept
	}
	if during := openFDs(t); during < before+n {
		t.Errorf("%d fds open with %d sleepers parked, want at least %d", during, n, before+n)
	}
	for _, th := range threads {
		th.Unpark()
	}
	env.Wait()
	if after := openFDs(t); after != before {
		t.Errorf("%d fds open after the threads returned, want %d as before", after, before)
	}
}
