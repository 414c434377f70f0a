package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/yasmin-rt/yasmin/internal/lockfree"
	"github.com/yasmin-rt/yasmin/internal/platform"
)

// OSEnv is the wall-clock environment: threads are goroutines, optionally
// wired to OS threads and pinned to CPUs (Linux). It provides best-effort
// (soft) real-time behaviour: Go's garbage collector and scheduler can still
// interfere, which is precisely why the paper experiments run on SimEnv.
type OSEnv struct {
	start time.Time
	costs platform.CostModel // zeros: real time accrues by itself
	// PinThreads wires each spawned thread with a core >= 0 to an OS thread
	// (runtime.LockOSThread) and attempts a sched_setaffinity to that CPU.
	PinThreads bool
	// ComputeSlice is the polling granularity of Compute's interrupt checks
	// (default 50µs): the cooperative analogue of the paper's
	// signal-based preemption.
	ComputeSlice time.Duration
	// Spin selects busy-wait Compute (true, default: synthetic load really
	// burns CPU like the paper's benchmark tasks) versus sleeping Compute
	// (false: models the work without heating the machine).
	Spin bool

	wg sync.WaitGroup
}

// NewOSEnv creates a wall-clock environment starting "now".
func NewOSEnv() *OSEnv {
	return &OSEnv{start: time.Now(), ComputeSlice: 50 * time.Microsecond, Spin: true}
}

// Now returns the time elapsed since environment creation.
func (e *OSEnv) Now() time.Duration { return time.Since(e.start) }

// Costs returns an all-zero cost model: on real hardware the operations cost
// what they cost.
func (e *OSEnv) Costs() *platform.CostModel { return &e.costs }

// Platform returns nil: the OS backend runs on whatever hardware it runs on.
func (e *OSEnv) Platform() *platform.Platform { return nil }

// Wait blocks until every spawned thread has returned.
func (e *OSEnv) Wait() { e.wg.Wait() }

// Spawn starts a goroutine-backed thread.
func (e *OSEnv) Spawn(name string, core int, fn func(Ctx)) Thread {
	t := &osThread{env: e, name: name}
	t.unpark = make(chan struct{}, 1)
	t.intr = make(chan struct{}, 1)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer t.done.Store(true)
		defer t.kick.close()
		if e.PinThreads && core >= 0 {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			_ = setAffinity(core) // best effort; unsupported platforms ignore
		}
		fn(&osCtx{env: e, th: t})
	}()
	return t
}

// NewLock creates a lock of the requested kind.
func (e *OSEnv) NewLock(kind LockKind) Lock {
	if kind == LockSpin {
		return &osSpinLock{}
	}
	return &osMutexLock{}
}

// RunMain runs fn as a thread on the calling goroutine and returns when it
// finishes — the convenience entry point for programs using the middleware
// directly.
func (e *OSEnv) RunMain(fn func(Ctx)) {
	t := &osThread{env: e, name: "main"}
	t.unpark = make(chan struct{}, 1)
	t.intr = make(chan struct{}, 1)
	fn(&osCtx{env: e, th: t})
	t.kick.close()
	t.done.Store(true)
}

type osThread struct {
	env    *OSEnv
	name   string
	unpark chan struct{}
	intr   chan struct{}
	done   atomic.Bool
	// timer is Sleep's, created on first use and re-armed after: only the
	// owning thread sleeps, and a scheduler tick must not allocate.
	timer *time.Timer
	// kick wakes an idle runtime when timer is due (kick_linux.go).
	kick kick
}

func (t *osThread) Name() string { return t.name }
func (t *osThread) Done() bool   { return t.done.Load() }

func (t *osThread) Unpark() {
	select {
	case t.unpark <- struct{}{}:
	default: // token already buffered
	}
}

func (t *osThread) Interrupt() {
	select {
	case t.intr <- struct{}{}:
	default: // interrupt already pending; coalesce
	}
}

type osCtx struct {
	env *OSEnv
	th  *osThread
}

func (c *osCtx) Env() Env           { return c.env }
func (c *osCtx) Self() Thread       { return c.th }
func (c *osCtx) Now() time.Duration { return c.env.Now() }

func (c *osCtx) Sleep(d time.Duration) bool {
	if d <= 0 {
		runtime.Gosched()
		return c.pollInterrupt()
	}
	// Since Go 1.23 Reset and Stop discard an expired, unreceived tick, so
	// a re-armed timer never fires early.
	timer := c.th.timer
	if timer == nil {
		timer = time.NewTimer(d)
		c.th.timer = timer
	} else {
		timer.Reset(d)
	}
	// Armed after the timer, so the kick never lands before it is due.
	c.th.kick.arm(d)
	select {
	case <-timer.C:
		return false
	case <-c.th.intr:
		timer.Stop()
		c.th.kick.arm(0)
		return true
	}
}

func (c *osCtx) SleepUntil(t time.Duration) bool {
	return c.Sleep(t - c.Now())
}

func (c *osCtx) Park() bool {
	select {
	case <-c.th.unpark:
		return false
	case <-c.th.intr:
		return true
	}
}

func (c *osCtx) ParkIdle() bool { return c.Park() }

func (c *osCtx) Yield() { runtime.Gosched() }

func (c *osCtx) pollInterrupt() bool {
	select {
	case <-c.th.intr:
		return true
	default:
		return false
	}
}

// Compute burns (or models) CPU time in slices, checking for the preemption
// interrupt at every slice boundary — the cooperative analogue of signal
// + swapcontext. A sleeping Compute (Spin off) sleeps each slice through
// Sleep, so it also sees an interrupt within a slice. Remaining work is
// returned on interrupt.
func (c *osCtx) Compute(d time.Duration) (time.Duration, bool) {
	slice := c.env.ComputeSlice
	if slice <= 0 {
		slice = 50 * time.Microsecond
	}
	deadline := time.Now().Add(d)
	for {
		now := time.Now()
		if !now.Before(deadline) {
			return 0, false
		}
		if c.pollInterrupt() {
			return deadline.Sub(now), true
		}
		step := deadline.Sub(now)
		if step > slice {
			step = slice
		}
		if c.env.Spin {
			spinFor(step)
		} else if c.Sleep(step) {
			return max(time.Until(deadline), 0), true
		}
	}
}

// spinFor busy-waits for roughly d, touching the clock sparingly.
func spinFor(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		for i := 0; i < 64; i++ {
			spinSink++
		}
	}
}

// spinSink defeats dead-code elimination of the spin loop.
var spinSink uint64

func (c *osCtx) Charge(time.Duration) {
	// Real operations already cost real time.
}

func (c *osCtx) ChargeLazy(time.Duration) {
	// Real operations already cost real time.
}

type osMutexLock struct{ mu sync.Mutex }

func (l *osMutexLock) Lock(Ctx)   { l.mu.Lock() }
func (l *osMutexLock) Unlock(Ctx) { l.mu.Unlock() }

type osSpinLock struct{ mu lockfree.TASLock }

func (l *osSpinLock) Lock(Ctx)   { l.mu.Lock() }
func (l *osSpinLock) Unlock(Ctx) { l.mu.Unlock() }
