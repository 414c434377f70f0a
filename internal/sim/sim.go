// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine executes simulated processes in lock-step: exactly one process
// runs at any instant, and virtual time only advances when every process is
// blocked in a simulation primitive (Sleep, Park, Compute, ...). Each
// process runs on a coroutine (iter.Pull): the engine resumes it with the
// coroutine's next and the process blocks by calling its yield, so a handoff
// is a direct runtime.coroswitch with no trip through the Go scheduler and no
// channel. Exactly one of the engine loop and its processes runs at a time,
// so code running inside processes needs no synchronisation and every run
// with the same seed is bit-for-bit reproducible.
//
// A process body that calls runtime.Goexit (as t.Fatal does) ends the
// goroutine that called Run: iter.Pull propagates the Goexit out of next.
//
// The engine is the substrate for all virtual-time experiments in this
// repository: the YASMIN middleware, the Mollison & Anderson baseline, the
// kernel latency models, cyclictest and the SAR drone application all run as
// sim processes.
//yasmin:deterministic package

package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"time"
)

// Time is a virtual-time instant in nanoseconds since the start of the
// simulation. It is distinct from time.Time on purpose: virtual instants are
// unrelated to the wall clock.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts the instant into the duration elapsed since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the instant as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Infinity is a time later than any reachable simulation instant.
const Infinity Time = 1<<63 - 1

type resumeKind uint8

const (
	resumeNormal resumeKind = iota + 1
	resumeInterrupt
)

// event is a scheduled occurrence in the event heap. Exactly one of proc or
// fn is set: proc events resume a blocked process, fn events run a callback
// inline on the engine loop.
type event struct {
	at    Time
	seq   uint64 // tie-break: FIFO among same-instant events
	proc  *Proc
	fn    func()
	index int // heap index, -1 when popped
	kind  resumeKind
	dead  bool // cancelled
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is a discrete-event simulation engine. The zero value is not usable;
// create engines with NewEngine.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	rng     *rand.Rand
	live    int
	failure error
	nsteps  uint64
	maxStep uint64
	running bool
	stopped bool
	tracer  func(t Time, format string, args ...any)

	// until is the bound of the Run call in progress; Charge may advance
	// e.now inline (no event) up to this instant when the heap cannot
	// observe the skip. fastCharges counts those inline advances so the
	// step limit still bounds total work.
	until       Time
	fastCharges uint64

	// free recycles event structs. An event leaves all reachable references
	// when it is popped from the heap (step) or removed by cancel — the
	// engine is single-threaded, and the only external holder, Proc.wake,
	// is cleared or overwritten before the next schedule call can reuse the
	// struct — so recycling there makes the event path allocation-free in
	// steady state.
	free []*event
}

// NewEngine creates an engine with a deterministic random source derived from
// seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:     rand.New(rand.NewSource(seed)),
		maxStep: 1 << 40,
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only be used
// from process context or between runs, never concurrently.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Steps returns the number of events dispatched so far.
func (e *Engine) Steps() uint64 { return e.nsteps }

// FastCharges returns the number of Charge calls that advanced virtual time
// inline without dispatching an event.
func (e *Engine) FastCharges() uint64 { return e.fastCharges }

// SetTracer installs a debug tracer invoked on engine-level events.
func (e *Engine) SetTracer(fn func(t Time, format string, args ...any)) { e.tracer = fn }

// Tracef emits a debug trace line if a tracer is installed.
func (e *Engine) Tracef(format string, args ...any) {
	if e.tracer != nil {
		e.tracer(e.now, format, args...)
	}
}

// SetStepLimit bounds the number of dispatched events; exceeding the bound
// makes Run return ErrStepLimit. It guards against runaway simulations.
func (e *Engine) SetStepLimit(n uint64) { e.maxStep = n }

func (e *Engine) schedule(at Time, p *Proc, kind resumeKind, fn func()) *event {
	if at < e.now {
		at = e.now
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = event{at: at, seq: e.seq, proc: p, kind: kind, fn: fn}
	} else {
		ev = &event{at: at, seq: e.seq, proc: p, kind: kind, fn: fn}
	}
	heap.Push(&e.events, ev)
	return ev
}

// recycle returns an event no longer referenced by the heap to the free
// list. Callers must guarantee the event was just popped or removed.
func (e *Engine) recycle(ev *event) {
	ev.proc = nil
	ev.fn = nil
	e.free = append(e.free, ev)
}

func (e *Engine) cancel(ev *event) {
	if ev == nil || ev.dead {
		return
	}
	ev.dead = true
	if ev.index >= 0 {
		heap.Remove(&e.events, ev.index)
		e.recycle(ev)
	}
}

// At schedules fn to run on the engine loop at instant t. fn runs outside any
// process; it must not block.
func (e *Engine) At(t Time, fn func()) { e.schedule(t, nil, resumeNormal, fn) }

// After schedules fn to run d after the current instant.
func (e *Engine) After(d time.Duration, fn func()) { e.At(e.now.Add(d), fn) }

// ProcState describes what a process is currently doing.
type ProcState uint8

// Process states.
const (
	StateNew ProcState = iota + 1
	StateRunning
	StateSleeping
	StateParked
	StateComputing
	StateDone
)

var procStateNames = map[ProcState]string{
	StateNew:       "new",
	StateRunning:   "running",
	StateSleeping:  "sleeping",
	StateParked:    "parked",
	StateComputing: "computing",
	StateDone:      "done",
}

func (s ProcState) String() string {
	if n, ok := procStateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("ProcState(%d)", int(s))
}

// Proc is a simulated process. Blocking methods (Sleep, Park, Compute, Yield)
// must be called from the process's own coroutine, i.e. from inside the
// function passed to Spawn. Name, State, Done, Unpark and Interrupt may be
// called from any simulation context (another process or an engine callback);
// nothing in this package may be called from goroutines outside the engine.
//
// The fields are packed so that a Proc fits the 64-byte size class (see
// TestProcFitsSizeClass).
type Proc struct {
	eng        *Engine
	name       string
	wake       *event                  // the sole event allowed to resume this process
	next       func() (struct{}, bool) // engine -> process: resume the coroutine
	yield      func(struct{}) bool     // process -> engine: "I am blocked again"
	interrupts int32                   // pending interrupt count
	state      ProcState
	kind       resumeKind // how the engine resumed the process, read by block
	intrMasked bool       // set while Charge runs: interrupts stay pending
	unparked   bool       // sticky unpark token
	done       bool
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// ErrStepLimit is returned by Run when the configured step limit is exceeded.
var ErrStepLimit = errors.New("sim: step limit exceeded")

// ErrDeadlock is returned by RunUntilIdle when live processes remain but no
// events are pending (every process is parked forever).
var ErrDeadlock = errors.New("sim: deadlock: live processes but no pending events")

// Spawn creates a process starting at the current instant.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt creates a process that begins execution at instant t.
func (e *Engine) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:   e,
		name:  name,
		state: StateNew,
	}
	e.live++
	// The coroutine is created here rather than on the first step so that
	// its allocations are paid at spawn time. The closure captures only p
	// and fn to keep its own allocation small.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			// Runs on return, panic and Goexit alike. A recovered panic
			// ends the coroutine normally, so next returns to step.
			if r := recover(); r != nil && p.eng.failure == nil {
				p.eng.failure = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
			}
			p.state = StateDone
			p.done = true
			p.eng.live--
		}()
		p.state = StateRunning
		fn(p)
	})
	p.wake = e.schedule(t, p, resumeNormal, nil)
	return p
}

// step dispatches a single event. Returns false when the heap is empty.
func (e *Engine) step() (bool, error) {
	if e.failure != nil {
		return false, e.failure
	}
	if len(e.events) == 0 {
		return false, nil
	}
	e.nsteps++
	if e.nsteps > e.maxStep {
		return false, ErrStepLimit
	}
	ev := heap.Pop(&e.events).(*event)
	if ev.dead {
		// Cancelled events are removed (and recycled) by cancel itself, so a
		// dead event cannot reach here; do not recycle it twice.
		return true, nil
	}
	if ev.at > e.now {
		e.now = ev.at
	}
	if ev.fn != nil {
		fn := ev.fn
		e.recycle(ev)
		fn()
		return true, e.failure
	}
	p := ev.proc
	if p == nil || p.done || p.wake != ev {
		// Stale resume: the process has since blocked on something else
		// (or finished). Drop it.
		e.recycle(ev)
		return true, nil
	}
	p.wake = nil
	p.kind = ev.kind
	e.recycle(ev)
	p.next()
	return true, e.failure
}

// Run executes events until the given instant (inclusive), until no events
// remain, or until Stop is called. It returns the first process failure, if
// any.
func (e *Engine) Run(until Time) error {
	if e.running {
		return errors.New("sim: Run called re-entrantly")
	}
	e.running = true
	e.stopped = false
	e.until = until
	defer func() { e.running = false }()
	for {
		if e.stopped {
			return e.failure
		}
		if len(e.events) == 0 {
			return e.failure
		}
		if e.events[0].at > until {
			if until != Infinity {
				e.now = until
			}
			return e.failure
		}
		ok, err := e.step()
		if err != nil {
			return err
		}
		if !ok {
			return e.failure
		}
	}
}

// RunUntilIdle executes events until none remain. If live processes remain
// parked with no pending events, it returns ErrDeadlock.
func (e *Engine) RunUntilIdle() error {
	if err := e.Run(Infinity); err != nil {
		return err
	}
	if e.live > 0 {
		return fmt.Errorf("%w (%d live)", ErrDeadlock, e.live)
	}
	return nil
}

// Stop makes Run return after the current event completes. Safe to call from
// process context.
func (e *Engine) Stop() { e.stopped = true }

// block suspends the calling process's coroutine and hands control back to
// the engine loop; it returns the resume kind delivered by the engine.
func (p *Proc) block() resumeKind {
	// yield reports false only once the coroutine's stop has been called,
	// and the engine never calls it.
	p.yield(struct{}{})
	return p.kind
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// checkPending consumes a pending interrupt, if any. Returns true when an
// interrupt was pending.
func (p *Proc) checkPending() bool {
	if p.interrupts > 0 && !p.intrMasked {
		p.interrupts--
		return true
	}
	return false
}

// Sleep suspends the process for d of virtual time, modelling an idle wait.
// It returns interrupted=true if the sleep was cut short by an interrupt,
// with the remaining duration.
func (p *Proc) Sleep(d time.Duration) (interrupted bool, remaining time.Duration) {
	return p.sleepUntil(p.eng.now.Add(d), StateSleeping)
}

// SleepUntil suspends the process until instant t or until interrupted.
func (p *Proc) SleepUntil(t Time) (interrupted bool, remaining time.Duration) {
	return p.sleepUntil(t, StateSleeping)
}

// Compute consumes d of CPU time. It is interruptible exactly like Sleep but
// marks the process as computing (busy) rather than idle, which observers use
// for utilisation accounting and preemption decisions.
func (p *Proc) Compute(d time.Duration) (interrupted bool, remaining time.Duration) {
	return p.sleepUntil(p.eng.now.Add(d), StateComputing)
}

// Charge consumes d of CPU time non-interruptibly. Interrupts arriving during
// the charge stay pending and are observed by the next interruptible
// primitive. It models short critical sections of middleware code.
//
// When no other event could run before the charge completes — the heap is
// empty or its head is strictly later than the charge end, and the end is
// within the current Run bound — the engine advances virtual time inline
// without scheduling an event. The skip is unobservable: no process could
// have executed in the skipped window, interrupts stay pending exactly as
// in the event-based path, and same-instant FIFO is preserved because the
// heap head must be strictly later. This makes dense sequences of
// bookkeeping charges O(1) engine work instead of one dispatch each.
func (p *Proc) Charge(d time.Duration) {
	if d <= 0 {
		return
	}
	e := p.eng
	t := e.now.Add(d)
	if e.running && !e.stopped && e.tracer == nil && t <= e.until &&
		(len(e.events) == 0 || e.events[0].at > t) &&
		e.nsteps+e.fastCharges < e.maxStep {
		e.fastCharges++
		e.now = t
		return
	}
	p.intrMasked = true
	p.sleepUntil(t, StateComputing)
	p.intrMasked = false
}

func (p *Proc) sleepUntil(t Time, st ProcState) (interrupted bool, remaining time.Duration) {
	if p.checkPending() {
		rem := t.Sub(p.eng.now)
		if rem < 0 {
			rem = 0
		}
		return true, rem
	}
	if t <= p.eng.now {
		// Yield even for zero-length waits so same-instant events run FIFO.
		p.Yield()
		return false, 0
	}
	p.state = st
	p.wake = p.eng.schedule(t, p, resumeNormal, nil)
	kind := p.block()
	p.state = StateRunning
	if kind == resumeInterrupt {
		rem := t.Sub(p.eng.now)
		if rem < 0 {
			rem = 0
		}
		return true, rem
	}
	return false, 0
}

// Yield reschedules the process at the current instant behind already-queued
// same-instant events.
func (p *Proc) Yield() {
	p.state = StateSleeping
	p.wake = p.eng.schedule(p.eng.now, p, resumeNormal, nil)
	kind := p.block()
	if kind == resumeInterrupt {
		// An interrupt raced with the yield; record it for the next wait.
		p.interrupts++
	}
	p.state = StateRunning
}

// Park suspends the process until Unpark or Interrupt. Returns true when
// resumed by an interrupt rather than an unpark. A sticky unpark token
// (delivered while the process was running) makes Park return immediately.
func (p *Proc) Park() (interrupted bool) {
	if p.checkPending() {
		return true
	}
	if p.unparked {
		p.unparked = false
		p.Yield()
		return false
	}
	p.state = StateParked
	kind := p.block()
	p.state = StateRunning
	return kind == resumeInterrupt
}

// Unpark makes target runnable at the current instant. Calling Unpark on a
// process that is not parked sets a sticky token consumed by its next Park,
// preventing lost wakeups. Process-side variant of Engine.Unpark.
func (p *Proc) Unpark(target *Proc) { p.eng.Unpark(target) }

// Unpark makes target runnable at the current instant.
func (e *Engine) Unpark(target *Proc) {
	if target == nil || target.done {
		return
	}
	if target.state == StateParked && target.wake == nil {
		target.wake = e.schedule(e.now, target, resumeNormal, nil)
		return
	}
	target.unparked = true
}

// Interrupt delivers an asynchronous interrupt to target, modelling a POSIX
// signal. A sleeping, computing or parked target wakes immediately with the
// interrupted flag; a running target observes the interrupt at its next
// blocking primitive. Masked interrupts stay pending.
func (e *Engine) Interrupt(target *Proc) {
	if target == nil || target.done {
		return
	}
	if target.intrMasked {
		target.interrupts++
		return
	}
	switch target.state {
	case StateSleeping, StateComputing, StateParked:
		if target.wake != nil && target.wake.kind == resumeInterrupt {
			// Already being interrupted at this instant; coalesce.
			target.interrupts++
			return
		}
		if target.wake != nil && target.wake.at <= e.now {
			// The process is already waking at this very instant (timer
			// expiry, park grant): the interrupt cannot beat the wake.
			// Cancelling the wake here would swallow a resume (and, for
			// waits queued behind a WaitQ, leak a sticky token); deliver
			// the interrupt as pending instead — it is observed at the
			// next interruptible primitive.
			target.interrupts++
			return
		}
		e.cancel(target.wake)
		target.wake = e.schedule(e.now, target, resumeInterrupt, nil)
	default:
		target.interrupts++
	}
}

// unparkNoToken wakes target only if it is parked and not already being
// resumed; otherwise the wake is dropped (no sticky token). WaitQ grants use
// this: a waiter that is concurrently interrupted re-checks its condition
// anyway, and a leaked token would poison unrelated later parks.
func (e *Engine) unparkNoToken(target *Proc) {
	if target == nil || target.done {
		return
	}
	if target.state == StateParked && target.wake == nil {
		target.wake = e.schedule(e.now, target, resumeNormal, nil)
	}
}
