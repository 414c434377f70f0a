package core

import (
	"fmt"
	"time"

	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// ExecCtx is the execution context handed to task version functions. It is
// the only sanctioned interface between user code and the middleware: time,
// modelled computation, FIFO channels, accelerator sections and mode
// queries all go through it. An ExecCtx is valid only for the duration of
// the job it was created for.
type ExecCtx struct {
	app *App
	j   *job
	c   rt.Ctx
}

// Now returns the current time (virtual or wall-clock, per environment).
func (x *ExecCtx) Now() time.Duration { return x.c.Now() }

// App returns the owning middleware instance (e.g. to switch execution
// modes from task code, as the SAR application's detector does).
func (x *ExecCtx) App() *App { return x.app }

// Task returns the executing task's ID.
func (x *ExecCtx) Task() TID { return x.j.t.id }

// TaskName returns the executing task's name.
func (x *ExecCtx) TaskName() string { return x.j.name }

// Version returns the selected version's ID.
func (x *ExecCtx) Version() VID { return x.j.version }

// JobIndex returns the job's index within its task (1-based).
func (x *ExecCtx) JobIndex() int64 { return x.j.taskSeq }

// Release returns the job's release instant.
func (x *ExecCtx) Release() time.Duration { return x.j.release }

// AbsoluteDeadline returns the job's absolute deadline.
func (x *ExecCtx) AbsoluteDeadline() time.Duration { return x.j.absDL }

// Mode returns the application's current execution mode.
func (x *ExecCtx) Mode() uint32 { return x.app.Mode() }

// Battery returns the battery level in percent, or -1 without a battery.
func (x *ExecCtx) Battery() float64 {
	if x.app.battery == nil {
		return -1
	}
	return x.app.battery.Level()
}

// Compute consumes d of CPU work on the job's virtual CPU. It is the
// preemption point: when the scheduler signals the worker (a higher-priority
// job became ready), Compute suspends the job mid-way, lets the worker run
// the urgent job, and transparently resumes the remainder afterwards.
// It returns ErrTerminated when the middleware is shutting down.
func (x *ExecCtx) Compute(d time.Duration) error {
	rem := d
	for rem > 0 {
		consumedStart := rem
		r, intr := x.c.Compute(rem)
		x.j.computed += consumedStart - r
		rem = r
		if !intr {
			return nil
		}
		cont := x.suspendForPreemption()
		if !cont {
			return ErrTerminated
		}
	}
	return nil
}

// suspendForPreemption is called when the fiber received the preemption
// signal mid-Compute. Under the worker's shard lock it re-checks that a
// more urgent job is actually waiting at the head of the worker's queue
// (the signal may be stale); if so it suspends the job and returns when
// the worker resumes it. Returns false on termination.
func (x *ExecCtx) suspendForPreemption() bool {
	a := x.app
	if a.terminating.Load() {
		return false
	}
	j := x.j
	w := a.workers[j.worker.Load()]
	sh := w.shard
	sh.mu.Lock()
	head := sh.q.peek()
	if head == nil || !head.before(j) || !a.cfg.Preemption {
		// Spurious or stale signal: keep running.
		sh.mu.Unlock()
		return true
	}
	j.preempts++
	w.stackLocked(j, jobPreempted)
	sh.mu.Unlock()
	x.c.Charge(a.env.Costs().ContextSwitch)
	return x.handOff(w)
}

// handOff passes the suspended job's worker to a spare fiber and parks the
// job's own fiber until a worker resumes the job. The caller stacked the
// job (stackLocked) and charged any switch cost. False on termination.
func (x *ExecCtx) handOff(w *workerState) bool {
	a := x.app
	f := x.j.fib
	a.handTo(w, a.spare(w))
	return a.awaitResume(x.c, f)
}

// AccelSection executes the accelerator-bound part of the version: d of
// work on the accelerator declared via HwAccelUse. In the paper's default
// (synchronous) model the CPU worker stays occupied for the whole section
// (the Section 3.2 "Limitation"); with Config.AsyncAccel the worker is
// released to run other jobs and this job re-acquires a CPU afterwards —
// the paper's announced future-work extension.
func (x *ExecCtx) AccelSection(d time.Duration) error {
	if x.j.accel == NoAccel {
		// Version has no accelerator: it is CPU work.
		return x.Compute(d)
	}
	scaled := x.accelScaled(d)
	if !x.app.cfg.AsyncAccel || x.app.cfg.Mapping == MappingOffline {
		// Synchronous: the worker is pinned down; the section is not
		// preemptible (a signal cannot stop a running GPU kernel). The
		// offline dispatcher has no detach/rejoin handshake, so it is
		// always synchronous — the table accounts for the section anyway.
		x.c.Charge(scaled)
		x.j.computed += d
		return nil
	}
	return x.asyncAccelSection(scaled, d)
}

// accelScaled converts nominal accelerator work to the speed of the
// version-bound instance.
func (x *ExecCtx) accelScaled(d time.Duration) time.Duration {
	return x.app.accelScaledOn(x.j.accel, d)
}

// accelScaledOn converts nominal accelerator work to instance h's speed.
func (a *App) accelScaledOn(h HID, d time.Duration) time.Duration {
	pl := a.env.Platform()
	if pl == nil {
		return d
	}
	pi := a.accels[h].platIdx
	if pi < 0 || pi >= len(pl.Accels) {
		return d
	}
	if s := pl.Accels[pi].Speed; s > 0 {
		return time.Duration(float64(d) / s)
	}
	return d
}

// AccelSectionOn executes d of work on an explicitly named accelerator
// pool — in addition to (and possibly while holding) the version-bound
// accelerator of AccelSection. When every instance of the pool is busy the
// job parks on the pool's waiter list mid-execution: the CPU worker is
// released to run other jobs (the detach/rejoin handshake of asynchronous
// sections), the holders inherit the waiter's priority transitively along
// the holder chain, and the freed instance is granted directly to the most
// urgent waiter. Because the calling job may already hold its version-bound
// accelerator, nested sections form holder chains; keeping a global
// acquisition order across pools is the application's responsibility, as
// with any nested locking.
func (x *ExecCtx) AccelSectionOn(h HID, d time.Duration) error {
	a := x.app
	j := x.j
	if int(h) < 0 || int(h) >= a.naccels {
		return fmt.Errorf("core: no accelerator %d", h)
	}
	if d <= 0 {
		return nil
	}
	if a.cfg.Mapping == MappingOffline {
		// The off-line table accounts for explicit sections like any other
		// work; the dispatcher has no park/grant handshake.
		x.c.Charge(a.accelScaledOn(h, d))
		j.computed += d
		return nil
	}
	a.mu.Lock(x.c)
	head := a.poolHead(h)
	if j.nested != NoAccel {
		a.mu.Unlock(x.c)
		return fmt.Errorf("core: task %s: nested AccelSectionOn sections cannot themselves nest", j.name)
	}
	var inst HID
	if j.accel != NoAccel && a.poolHead(j.accel) == head {
		// Re-entering the pool whose instance the job already holds: run the
		// section on it.
		inst = j.accel
		a.mu.Unlock(x.c)
	} else if inst = a.poolAvailableForLocked(j, head); inst != NoAccel {
		a.acquireInstanceLocked(x.c, inst, j)
		j.nested = inst
		a.mu.Unlock(x.c)
	} else {
		// Park mid-job: hand the worker on (it runs other jobs meanwhile)
		// and wait for a direct grant from a releasing holder. The state
		// flip and the stack push go under the shard lock (App.mu is held
		// too — rank 2 -> 3): preemption scans read cur.state under the
		// shard lock alone, and a releasing holder's direct grant flips
		// jobAccelWait -> jobAccelResumed under the same pair.
		w := a.workers[j.worker.Load()]
		sh := w.shard
		sh.mu.Lock()
		w.stackLocked(j, jobAccelWait)
		sh.mu.Unlock()
		j.waitingOn = head
		j.midWait = true
		a.insertWaiterLocked(head, j)
		a.recordAccel(x.c, trace.AccelPark, head, j)
		a.boostChainLocked(x.c, head, j.effPrio.Load())
		a.mu.Unlock(x.c)
		x.c.Charge(a.env.Costs().ContextSwitch)
		// A worker resumes us after the grant.
		if !x.handOff(w) {
			return ErrTerminated
		}
		inst = j.nested
	}
	// The section itself: not preemptible (a signal cannot stop a running
	// kernel), charged at the instance's speed.
	x.c.Charge(a.accelScaledOn(inst, d))
	j.computed += d
	if inst != j.accel {
		a.mu.Lock(x.c)
		j.nested = NoAccel
		a.releaseInstanceLocked(x.c, inst, j)
		if a.cfg.Preemption {
			// The restored (lower) priority may no longer beat the queue
			// head; let the dispatcher raise the preemption signal now
			// rather than at the next release tick.
			a.dispatch(x.c)
		}
		a.mu.Unlock(x.c)
	}
	return nil
}

// asyncAccelSection releases the CPU worker, waits out the accelerator time
// off-CPU, then rejoins the worker through its resume stack.
func (x *ExecCtx) asyncAccelSection(scaled, nominal time.Duration) error {
	if err := x.detachedWait(scaled); err != nil {
		return err
	}
	x.j.computed += nominal
	return x.rejoinWorker()
}

// detachedWait hands the CPU worker to a spare fiber and waits out d on the
// job's own fiber, off any CPU. Stale preemption interrupts must not
// shorten the wait: the sleep is re-armed until the full duration elapsed.
// The caller must rejoinWorker() before touching middleware state again.
func (x *ExecCtx) detachedWait(d time.Duration) error {
	a := x.app
	j := x.j
	w := a.workers[j.worker.Load()]
	sh := w.shard
	sh.mu.Lock()
	w.stackLocked(j, jobAccelAsync)
	sh.mu.Unlock()
	a.handTo(w, a.spare(w))

	until := x.c.Now() + d
	for x.c.Now() < until {
		if intr := x.c.SleepUntil(until); intr && a.terminating.Load() {
			return ErrTerminated
		}
	}
	return nil
}

// rejoinWorker re-acquires a CPU after detachedWait: the job becomes
// resumable on its worker's stack, competing on priority with the queue —
// an idle worker is woken, a less urgent running job is preempted.
func (x *ExecCtx) rejoinWorker() error {
	a := x.app
	j := x.j
	w := a.workers[j.worker.Load()]
	sh := w.shard
	sh.mu.Lock()
	// Become resumable BEFORE probing the idle list: if the claim below
	// loses to the worker's self-claim, the worker's pre-park re-check
	// (workVisible, under this shard lock) is guaranteed to see the
	// resumed state on its stack.
	j.state.Store(jobAccelResumed)
	cur := w.current
	preemptCurrent := a.cfg.Preemption &&
		cur != nil && cur.state.Load() == jobRunning && j.before(cur)
	var preemptFiber *fiber
	if preemptCurrent {
		preemptFiber = cur.fib
	}
	sh.mu.Unlock()
	if a.claimIdle(w) {
		w.wake()
	} else if preemptFiber != nil {
		a.signalFiber(x.c, preemptFiber)
	}
	if !a.awaitResume(x.c, j.fib) {
		return ErrTerminated
	}
	return nil
}

// Sleep suspends the job for at least d of virtual or wall-clock time
// WITHOUT consuming modelled CPU work (contrast Compute) and WITHOUT
// holding the CPU: the worker is released for the duration (the same
// detach/rejoin path as asynchronous accelerator sections), so any other
// ready job — more or less urgent — runs meanwhile. On wake the job
// re-acquires a CPU by priority, so the actual suspension can exceed d
// under load. Returns ErrTerminated on shutdown. Aperiodic servers and
// polling subscribers idle with Sleep so waiting burns neither budget nor
// a core.
func (x *ExecCtx) Sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	if x.app.cfg.Mapping == MappingOffline {
		// Time-triggered dispatch has no suspended stack to rejoin, and
		// the table slot belongs to this job anyway: wait in place.
		until := x.c.Now() + d
		for x.c.Now() < until {
			if intr := x.c.SleepUntil(until); intr && x.app.terminating.Load() {
				return ErrTerminated
			}
		}
		return nil
	}
	if err := x.detachedWait(d); err != nil {
		return err
	}
	return x.rejoinWorker()
}

// Reconfigure runs a live reconfiguration transaction from task code —
// e.g. a detector task retiring the search pipeline when the mission phase
// changes. The calling job keeps running; removing the calling task itself
// is legal (it drains once this job completes).
func (x *ExecCtx) Reconfigure(fn func(tx *Reconfig) error) error {
	return x.app.Reconfigure(x.c, fn)
}

// SwitchMode switches to a named mode preset from task code.
func (x *ExecCtx) SwitchMode(name string) error { return x.app.SwitchMode(x.c, name) }

// Publish appends a value to a topic under its overflow policy — the
// pub-sub generalisation of the channel_push macro. One buffered entry
// serves every subscriber (per-subscriber cursors; no per-subscriber
// copies). Under Reject a full buffer fails the publish (the Table-1
// semantics); DropOldest and Latest never fail.
//
// On a topic with registered publishers, only those tasks may Publish. On
// the wall-clock backend a multi-publisher topic is staged through a
// lock-free MPSC ring, so concurrent publishers never serialise on the
// middleware lock (the staging ring may transiently hold up to one extra
// Capacity of entries).
//
//yasmin:noalloc
func (x *ExecCtx) Publish(c CID, v any) error {
	a := x.app
	if int(c) < 0 || int(c) >= int(a.ntopicsA.Load()) {
		return fmt.Errorf("core: no channel %d", c) //yasmin:alloc-ok cold error path
	}
	tp := &a.topics[c]
	// Endpoint discipline and the staging fast path go through the atomic
	// snapshot: a concurrent reconfiguration swaps in a new consistent view
	// under the lock, so no field read here can tear.
	vw := tp.view.Load()
	if vw == nil || vw.dead {
		return fmt.Errorf("core: channel %d was removed", c) //yasmin:alloc-ok cold error path
	}
	if len(vw.pubs) > 0 && !vw.isPub(x.j.t.id) {
		return fmt.Errorf("core: task %s does not publish on topic %s", x.j.name, vw.name) //yasmin:alloc-ok cold error path
	}
	costs := a.env.Costs()
	opCost := costs.ChannelOp + time.Duration(vw.nsubs)*costs.TopicFanoutPerSub
	if vw.staging != nil {
		// Wall-clock fan-in fast path: no middleware lock.
		x.c.Charge(opCost)
		if vw.staging.Push(v) {
			if vw.fwd != nil {
				vw.fwd(x.j.t.id, v) //yasmin:alloc-ok cluster egress hook owns its buffers
			}
			return nil
		}
		// Staging full: drain it under the lock, then retry the ring. The
		// entry must go BEHIND anything still staged (our own earlier
		// publishes may sit there — possibly stuck behind another
		// producer's claimed-but-unwritten slot, which the drain cannot
		// pass), so never publish directly into the buffer from here.
		// Under Reject one drain+retry decides: still full means reject.
		// DropOldest/Latest never fail: keep draining until the ring
		// accepts — each round either the drain frees slots or the
		// mid-write producer finishes, so this terminates.
		for {
			a.mu.Lock(x.c)
			tp.drainStaging()
			a.mu.Unlock(x.c)
			if vw.staging.Push(v) {
				if vw.fwd != nil {
					vw.fwd(x.j.t.id, v) //yasmin:alloc-ok cluster egress hook owns its buffers
				}
				return nil
			}
			if vw.policy == Reject {
				return fmt.Errorf("core: channel %s full (%d)", vw.name, vw.capacity) //yasmin:alloc-ok cold error path
			}
			x.c.Yield() //yasmin:alloc-ok contended slow path
		}
	}
	a.mu.Lock(x.c)
	x.c.Charge(opCost)
	if tp.dead { // removed between the snapshot read and the lock
		a.mu.Unlock(x.c)
		return fmt.Errorf("core: channel %d was removed", c) //yasmin:alloc-ok cold error path
	}
	ok := tp.publish(v)
	a.mu.Unlock(x.c)
	if !ok {
		return fmt.Errorf("core: channel %s full (%d)", vw.name, vw.capacity) //yasmin:alloc-ok cold error path
	}
	// Remote fan-out rides the publisher's thread, outside the App lock
	// and only after the local buffer accepted the value — local and
	// remote subscribers see the same per-publisher prefix.
	if vw.fwd != nil {
		vw.fwd(x.j.t.id, v) //yasmin:alloc-ok cluster egress hook owns its buffers
	}
	return nil
}

// cursorFor resolves which cursor a consuming call uses: the calling
// task's subscription on a topic with registered subscribers, the shared
// anonymous cursor otherwise (legacy channels). Caller holds the lock.
func (x *ExecCtx) cursorFor(tp *topic) (*uint64, error) {
	if len(tp.subs) == 0 {
		return &tp.anon, nil
	}
	if s := tp.subFor(x.j.t.id); s != nil {
		return &s.cursor, nil
	}
	return nil, fmt.Errorf("core: task %s does not subscribe to topic %s", x.j.name, tp.name)
}

// Take removes the next value the calling task has not consumed from a
// topic; ok is false when nothing is pending (no error — polling an empty
// sensor stream is normal). Under Latest it returns the newest value and
// skips everything older (conflation).
func (x *ExecCtx) Take(c CID) (v any, ok bool, err error) {
	a := x.app
	if int(c) < 0 || int(c) >= int(a.ntopicsA.Load()) {
		return nil, false, fmt.Errorf("core: no channel %d", c)
	}
	a.mu.Lock(x.c)
	x.c.Charge(a.env.Costs().ChannelOp)
	tp := &a.topics[c]
	if tp.dead {
		a.mu.Unlock(x.c)
		return nil, false, fmt.Errorf("core: channel %d was removed", c)
	}
	tp.drainStaging()
	cur, err := x.cursorFor(tp)
	if err == nil {
		v, ok = tp.take(cur)
	}
	a.mu.Unlock(x.c)
	return v, ok, err
}

// TakeAny takes from the most urgent non-empty topic among cs — or, with no
// arguments, among all topics the calling task subscribes to — in topic
// priority order (lower Priority first, declaration order breaking ties).
// This is consumer-side channel prioritization: an aggregator drains its
// alarm stream before its bulk stream. Returns the topic the value came
// from; ok is false when every topic is empty.
func (x *ExecCtx) TakeAny(cs ...CID) (from CID, v any, ok bool, err error) {
	a := x.app
	a.mu.Lock(x.c)
	x.c.Charge(a.env.Costs().ChannelOp)
	if len(cs) == 0 {
		cs = x.j.t.subTopics
	}
	for _, c := range cs {
		if int(c) < 0 || int(c) >= a.ntopics {
			a.mu.Unlock(x.c)
			return -1, nil, false, fmt.Errorf("core: no channel %d", c)
		}
		tp := &a.topics[c]
		if tp.dead {
			a.mu.Unlock(x.c)
			return -1, nil, false, fmt.Errorf("core: channel %d was removed", c)
		}
		tp.drainStaging()
		cur, cerr := x.cursorFor(tp)
		if cerr != nil {
			a.mu.Unlock(x.c)
			return -1, nil, false, cerr
		}
		if v, ok = tp.take(cur); ok {
			a.mu.Unlock(x.c)
			return c, v, true, nil
		}
	}
	a.mu.Unlock(x.c)
	return -1, nil, false, nil
}

// Push appends a value to a FIFO channel — the channel_push macro. It fails
// when the channel is full (static capacity, Table 1). Push is Publish by
// its Table-1 name; both work on any CID.
func (x *ExecCtx) Push(c CID, v any) error { return x.Publish(c, v) }

// Pop removes the oldest value from a FIFO channel — the channel_pop macro.
// It fails when the channel is empty: with graph activation semantics the
// scheduler guarantees inputs are present, so an empty pop is a programming
// error, not a blocking condition. (Take is the polling variant that treats
// empty as a normal outcome.)
func (x *ExecCtx) Pop(c CID) (any, error) {
	v, ok, err := x.Take(c)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: channel %s empty", x.app.topics[c].name)
	}
	return v, nil
}

// ChannelLen returns the number of values buffered for the calling task on
// a channel or topic (its unconsumed backlog).
func (x *ExecCtx) ChannelLen(c CID) (int, error) {
	a := x.app
	if int(c) < 0 || int(c) >= int(a.ntopicsA.Load()) {
		return 0, fmt.Errorf("core: no channel %d", c)
	}
	a.mu.Lock(x.c)
	tp := &a.topics[c]
	if tp.dead {
		a.mu.Unlock(x.c)
		return 0, fmt.Errorf("core: channel %d was removed", c)
	}
	tp.drainStaging()
	cur, err := x.cursorFor(tp)
	var n int
	if err == nil {
		n = tp.backlog(*cur)
	}
	a.mu.Unlock(x.c)
	return n, err
}
