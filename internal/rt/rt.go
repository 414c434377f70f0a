// Package rt abstracts the execution environment underneath the YASMIN
// middleware. The middleware code (internal/core) is written once against
// the Env/Ctx/Thread interfaces and runs on two backends:
//
//   - SimEnv executes threads as deterministic discrete-event simulation
//     processes in virtual time, charging platform cost-model prices for
//     middleware operations. All paper experiments use this backend: Go's
//     garbage collector and goroutine scheduler never touch the measured
//     timings (the repro gate called out for this paper).
//   - OSEnv executes threads as goroutines (optionally wired to OS threads)
//     in wall-clock time. It makes the middleware usable as a real, albeit
//     soft-real-time, Go library.
//
// Time is represented as time.Duration since environment start, so the
// middleware never handles wall-clock instants directly.
package rt

import (
	"time"

	"github.com/yasmin-rt/yasmin/internal/platform"
)

// UnpinnedCore marks a thread not bound to any core (e.g. the scheduler
// without a configured core, or a program's main thread).
const UnpinnedCore = -1

// LockKind selects the lock implementation, mirroring the paper's
// compile-time choice between POSIX (futex) locks and lock-free spinlocks
// (Section 3.5 "Locking").
type LockKind int

// Lock kinds.
const (
	// LockOS models a POSIX mutex: blocked threads sleep in the kernel.
	LockOS LockKind = iota + 1
	// LockSpin models a test-and-set spinlock: blocked threads burn CPU,
	// which is visible in overhead measurements but analysable.
	LockSpin
)

func (k LockKind) String() string {
	switch k {
	case LockOS:
		return "os"
	case LockSpin:
		return "spin"
	default:
		return "unknown"
	}
}

// Env is an execution environment.
type Env interface {
	// Now returns the time elapsed since environment start.
	//yasmin:noalloc
	Now() time.Duration
	// Spawn creates a thread pinned to the given core (or UnpinnedCore)
	// running fn. The thread starts immediately.
	Spawn(name string, core int, fn func(Ctx)) Thread
	// NewLock creates a lock of the requested kind.
	NewLock(kind LockKind) Lock
	// Costs returns the cost model threads should charge for middleware
	// operations. The OS backend returns zeros (real time accrues
	// naturally).
	//yasmin:noalloc
	Costs() *platform.CostModel
	// Platform returns the hardware description, or nil for the OS backend.
	//yasmin:noalloc
	Platform() *platform.Platform
}

// Thread is a handle on a spawned thread, usable from any other thread of
// the same environment.
type Thread interface {
	Name() string
	// Unpark wakes the thread from Park. A token is buffered if the thread
	// is not parked, preventing lost wakeups.
	//yasmin:noalloc
	Unpark()
	// Interrupt delivers an asynchronous interrupt (the preemption signal):
	// an ongoing Sleep/Compute/Park returns with interrupted=true.
	//yasmin:noalloc
	Interrupt()
	// Done reports whether the thread function has returned.
	Done() bool
}

// Ctx is the view a thread has of itself; all blocking primitives live here
// and must only be called from the owning thread.
type Ctx interface {
	Env() Env
	Self() Thread
	//yasmin:noalloc
	Now() time.Duration
	// Sleep blocks for d; returns true when interrupted early.
	//yasmin:blocking
	Sleep(d time.Duration) (interrupted bool)
	// SleepUntil blocks until the given instant; returns true on interrupt.
	//yasmin:blocking
	SleepUntil(t time.Duration) (interrupted bool)
	// Park blocks until Unpark or Interrupt; returns true on interrupt.
	// It models an in-process context handoff (the paper's swapcontext):
	// no kernel wake-up latency applies.
	//yasmin:blocking
	Park() (interrupted bool)
	// ParkIdle blocks like Park but models a kernel-level wait (futex):
	// the simulation backend charges the kernel model's futex wake-up
	// latency on resume. Idle workers use this; fiber handoffs use Park.
	//yasmin:blocking
	ParkIdle() (interrupted bool)
	// Yield lets same-instant work run first. Blocking: same-instant peers
	// may run arbitrarily long before this thread resumes.
	//yasmin:blocking
	Yield()
	// Compute consumes d of nominal CPU work (scaled by the bound core's
	// speed). Returns the unconsumed nominal work and whether an interrupt
	// cut it short.
	//yasmin:blocking
	Compute(d time.Duration) (remaining time.Duration, interrupted bool)
	// Charge consumes CPU time non-interruptibly (middleware bookkeeping):
	// it never deschedules the caller and is safe under the App lock.
	//yasmin:nonblocking
	//yasmin:noalloc
	Charge(d time.Duration)
	// ChargeLazy records d of bookkeeping cost without consuming it yet.
	// The accumulated cost is folded into the thread's next timed primitive
	// (Sleep/SleepUntil/Compute/Charge) or flushed as a plain Charge before
	// the next Park/ParkIdle/Yield, so dense bookkeeping sequences cost one
	// engine event instead of one per call. Pending cost folded into an
	// interruptible Compute is consumed before the nominal work: on an early
	// interrupt the remaining time is clamped to the nominal amount and the
	// pending bookkeeping is considered absorbed.
	//yasmin:nonblocking
	//yasmin:noalloc
	ChargeLazy(d time.Duration)
}

// Lock is a mutual-exclusion lock usable from thread context. Acquiring a
// lock may of course wait, but that is the lockorder analyzer's domain;
// for lockedblock/noalloc purposes the operations themselves are
// bookkeeping: they neither perform I/O nor heap-allocate (both backends
// park through preallocated waiter structures).
type Lock interface {
	//yasmin:nonblocking
	//yasmin:noalloc
	Lock(c Ctx)
	//yasmin:nonblocking
	//yasmin:noalloc
	Unlock(c Ctx)
}
