package rt

import (
	"fmt"
	"time"

	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/sim"
)

// WakeReason tells a kernel latency model why a thread woke up.
type WakeReason int

// Wake reasons.
const (
	// WakeTimer: a timed sleep expired (timer interrupt -> wakeup path).
	WakeTimer WakeReason = iota + 1
	// WakeUnpark: another thread unparked this one (futex wake path).
	WakeUnpark
)

// WakeLatencyFunc samples the OS-induced latency between the nominal wake
// instant and the thread actually running. Kernel models provide this.
type WakeLatencyFunc func(reason WakeReason, core int) time.Duration

// SimEnv is the virtual-time environment: every Thread is a deterministic
// simulation process and every timing is derived from the platform cost
// model plus an optional kernel wake-latency model.
type SimEnv struct {
	eng   *sim.Engine
	plat  *platform.Platform
	wake  WakeLatencyFunc
	costs platform.CostModel
}

// NewSimEnv creates a simulation environment on the given engine and
// platform. wake may be nil (no OS-induced wake latency: an idealised
// kernel).
func NewSimEnv(eng *sim.Engine, plat *platform.Platform, wake WakeLatencyFunc) (*SimEnv, error) {
	if eng == nil || plat == nil {
		return nil, fmt.Errorf("rt: SimEnv needs an engine and a platform")
	}
	if err := plat.Validate(); err != nil {
		return nil, fmt.Errorf("rt: SimEnv platform: %w", err)
	}
	return &SimEnv{eng: eng, plat: plat, wake: wake, costs: plat.Costs}, nil
}

// Engine exposes the underlying simulation engine (experiment harness use).
func (e *SimEnv) Engine() *sim.Engine { return e.eng }

// Now returns the current virtual time.
func (e *SimEnv) Now() time.Duration { return e.eng.Now().Duration() }

// Costs returns the platform cost model.
func (e *SimEnv) Costs() *platform.CostModel { return &e.costs }

// Platform returns the hardware description.
func (e *SimEnv) Platform() *platform.Platform { return e.plat }

// Spawn creates a simulated thread.
func (e *SimEnv) Spawn(name string, core int, fn func(Ctx)) Thread {
	t := &simThread{env: e, core: core}
	t.proc = e.eng.Spawn(name, func(*sim.Proc) { fn(t) })
	return t
}

// NewLock creates a lock of the requested kind.
func (e *SimEnv) NewLock(kind LockKind) Lock {
	switch kind {
	case LockSpin:
		return &simSpinLock{
			env: e,
			mu: sim.SpinMutex{
				RetryCost:   e.costs.SpinRetry,
				AcquireCost: e.costs.LockUncontended,
			},
		}
	default:
		return &simOSLock{env: e}
	}
}

// simThread is both the Thread handle and the Ctx its body runs with: the
// two interfaces share no method name, and one struct saves an allocation
// and a back-pointer per thread.
type simThread struct {
	env  *SimEnv
	proc *sim.Proc
	core int
	// pending is bookkeeping cost recorded by ChargeLazy but not yet
	// consumed; it is folded into the next timed primitive or flushed as a
	// Charge before the thread blocks, so virtual time never runs ahead of
	// the work already accounted to this thread.
	pending time.Duration
}

func (t *simThread) Name() string { return t.proc.Name() }
func (t *simThread) Unpark()      { t.env.eng.Unpark(t.proc) }
func (t *simThread) Interrupt()   { t.env.eng.Interrupt(t.proc) }
func (t *simThread) Done() bool   { return t.proc.Done() }

// speed returns the execution speed of the thread's core (1.0 when
// unpinned).
func (t *simThread) speed() float64 {
	if t.core < 0 || t.core >= len(t.env.plat.Cores) {
		return 1.0
	}
	s := t.env.plat.Cores[t.core].Speed
	if s <= 0 {
		return 1.0
	}
	return s
}

func (t *simThread) Env() Env           { return t.env }
func (t *simThread) Self() Thread       { return t }
func (t *simThread) Now() time.Duration { return t.env.Now() }

func (t *simThread) Sleep(d time.Duration) bool {
	return t.SleepUntil(t.Now() + d)
}

func (t *simThread) SleepUntil(at time.Duration) bool {
	t.flushLazy()
	intr, _ := t.proc.SleepUntil(sim.Time(at))
	if !intr {
		t.chargeWake(WakeTimer)
	}
	return intr
}

func (t *simThread) Park() bool {
	t.flushLazy()
	return t.proc.Park()
}

func (t *simThread) ParkIdle() bool {
	t.flushLazy()
	intr := t.proc.Park()
	if !intr {
		t.chargeWake(WakeUnpark)
	}
	return intr
}

func (t *simThread) Yield() {
	t.flushLazy()
	t.proc.Yield()
}

func (t *simThread) Compute(d time.Duration) (time.Duration, bool) {
	if d <= 0 && t.pending <= 0 {
		return 0, false
	}
	// Pending bookkeeping is consumed ahead of the nominal work inside one
	// engine event; on an early interrupt the remainder is clamped to the
	// nominal amount (the bookkeeping counts as absorbed).
	pend := t.pending
	t.pending = 0
	speed := t.speed()
	scaled := time.Duration(float64(pend+d) / speed)
	intr, remScaled := t.proc.Compute(scaled)
	if !intr {
		return 0, false
	}
	remNominal := time.Duration(float64(remScaled) * speed)
	if remNominal > d {
		remNominal = d
	}
	return remNominal, true
}

func (t *simThread) Charge(d time.Duration) {
	d += t.pending
	t.pending = 0
	if d <= 0 {
		return
	}
	t.proc.Charge(time.Duration(float64(d) / t.speed()))
}

func (t *simThread) ChargeLazy(d time.Duration) {
	if d > 0 {
		t.pending += d
	}
}

// flushLazy converts accumulated lazy cost into a real charge before the
// thread blocks.
func (t *simThread) flushLazy() {
	if t.pending > 0 {
		d := t.pending
		t.pending = 0
		t.proc.Charge(time.Duration(float64(d) / t.speed()))
	}
}

// chargeWake applies the kernel model's wakeup latency after a normal wake.
func (t *simThread) chargeWake(reason WakeReason) {
	if t.env.wake == nil {
		return
	}
	if lat := t.env.wake(reason, t.core); lat > 0 {
		t.proc.Charge(lat)
	}
}

// simOSLock models a POSIX mutex: an uncontended acquisition pays the
// user-space fast path; a contended one pays the futex round trip and sleeps
// until handoff.
type simOSLock struct {
	env *SimEnv
	mu  sim.Mutex
}

func (l *simOSLock) Lock(c Ctx) {
	t := c.(*simThread)
	if l.mu.TryLock(t.proc) {
		t.Charge(l.env.costs.LockUncontended)
		return
	}
	t.Charge(l.env.costs.FutexWait)
	l.mu.Lock(t.proc)
}

func (l *simOSLock) Unlock(c Ctx) {
	l.mu.Unlock(c.(*simThread).proc)
}

// simSpinLock models a test-and-set spinlock with CPU burn under contention.
type simSpinLock struct {
	env *SimEnv
	mu  sim.SpinMutex
}

func (l *simSpinLock) Lock(c Ctx) {
	l.mu.Lock(c.(*simThread).proc)
}

func (l *simSpinLock) Unlock(c Ctx) {
	l.mu.Unlock(c.(*simThread).proc)
}
