package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// workerWake tells a worker why its fiber woke it.
type workerWake int

const (
	wakeNone workerWake = iota
	wakeCompleted
	wakeSuspended // preemption signal accepted: job parked on the fiber
	wakeAsyncFree // job entered an asynchronous accelerator section
)

// workerState is one virtual CPU (Figure 1): a thread pinned to a shielded
// core executing jobs, with a stack of preempted jobs. Worker i owns release
// shard i; the handshake fields (current, preempted, wakeReason, wakeJob,
// lastSignalTick) are guarded by that shard's lock, the idle-list links by
// idleMu, and pendingCost is worker-thread private.
type workerState struct {
	idx        int
	core       int
	th         rt.Thread
	current    *job
	preempted  []*job // LIFO of suspended jobs (incl. async-resumed ones)
	wakeReason workerWake
	wakeJob    *job // the job the notification refers to (debug invariant)

	// Intrusive idle-list links (guarded by idleMu). List membership is the
	// single source of truth for idleness; see enqueueIdle/claimIdle.
	onIdle   bool
	idlePrev *workerState
	idleNext *workerState

	// pendingCost accumulates modelled queue-op cost incurred under the
	// shard lock; it is folded into the next job's start charge (or flushed
	// before parking) so the lock itself never pays a timing event.
	pendingCost time.Duration

	// lastSignalTick dedups preemption signals per dispatch pass (guarded by
	// the worker's own shard lock).
	lastSignalTick int64

	// curPrio/curSeq mirror the running job's priority key for the lock-free
	// preemption victim scan; noRunPrio when not running. They may tear
	// relative to each other — decisions are re-validated under the shard
	// lock.
	curPrio atomic.Int64
	curSeq  atomic.Int64

	// vselOrder/vselRest are the worker-private version-selection scratch
	// slices used by the lock-free selection fast path (selectVersionFast).
	vselOrder []VID
	vselRest  []VID
}

// stackTop returns the most urgent resumable job on the worker's stack
// (the stack is LIFO but async-resumed jobs make priorities non-monotonic,
// so scan). Only jobs not still inside their accelerator section count.
// Caller holds the worker's shard lock.
func (w *workerState) stackTop() (int, *job) {
	bestIdx := -1
	var best *job
	for i, j := range w.preempted {
		if st := j.state.Load(); st == jobAccelAsync || st == jobAccelWait {
			// Still on the accelerator, or parked mid-job on a busy pool's
			// waiter list (AccelSectionOn); not resumable until the section
			// ends / the instance is granted.
			continue
		}
		if best == nil || j.before(best) {
			best, bestIdx = j, i
		}
	}
	return bestIdx, best
}

func (w *workerState) removeStack(i int) {
	w.preempted = append(w.preempted[:i], w.preempted[i+1:]...)
}

// workerLoop is the online-scheduling worker body: pick the most urgent of
// (own shard head, preempted stack), steal from a loaded sibling when both
// are empty (global mapping), run or resume the job, handle
// completion/suspension, park when idle. App.mu never appears on this loop's
// steady path — only the worker's own shard lock (and a victim's, one at a
// time, while stealing).
func (a *App) workerLoop(c rt.Ctx, w *workerState) {
	defer a.threadExit()
	costs := a.env.Costs()
	sh := a.shards[w.idx]
	for {
		if a.terminating.Load() {
			return
		}
		j, fresh := a.takeWork(w, sh)
		if j == nil && a.cfg.Mapping != MappingPartitioned {
			j, fresh = a.trySteal(w)
		}
		if j == nil {
			if w.pendingCost > 0 {
				c.Charge(w.pendingCost)
				w.pendingCost = 0
			}
			// Retire protocol: only when the whole system is drained —
			// another worker's running job can still release DAG successors.
			// The tick seqlock closes the race against an in-flight release
			// pass: jobsLive must read zero with the SAME even ticking value
			// on both sides.
			if a.stopping.Load() {
				tk := a.ticking.Load()
				if tk%2 == 0 && a.jobsLive.Load() == 0 && a.ticking.Load() == tk {
					a.wakeAllWorkers()
					return
				}
			}
			// Publish idleness, then re-check for work that raced the
			// enqueue: a dispatcher that missed us on the list owns no wake.
			a.enqueueIdle(w)
			if !a.workVisible(w, sh) {
				// Idle wait: a real kernel-level wait under WaitSleep;
				// WaitSpin wakes instantly at the cost of burning the core
				// (the paper's predictability/energy trade-off, Section 3.5).
				var intr bool
				if a.cfg.Wait == WaitSpin {
					intr = c.Park()
				} else {
					intr = c.ParkIdle()
				}
				if intr && a.terminating.Load() {
					a.claimIdle(w)
					return
				}
			}
			// Self-claim on any wake: exactly one of (dispatch, self) wins
			// the claim, so a consumed wake token always maps to a worker
			// that actually rechecks its queues.
			a.claimIdle(w)
			continue
		}
		// Fresh jobs need version selection and accelerator acquisition;
		// both can park the job on an accelerator waitlist.
		if fresh && !a.prepareRun(c, w, j) {
			continue
		}
		// Run handshake under the own shard lock: state, owner, mirrors.
		sh.mu.Lock()
		newRun := j.state.Load() == jobReady
		j.worker.Store(int32(w.idx))
		j.state.Store(jobRunning)
		w.current = j
		w.curPrio.Store(j.effPrio.Load())
		w.curSeq.Store(j.seq)
		sh.mu.Unlock()
		fib := j.fib

		// Context switch to the job's fiber (swapcontext analogue). For a
		// fresh run the switch cost (plus any accumulated queue-op cost)
		// rides lazily on the fiber's first Compute; resumes charge inline
		// (the fiber re-enters mid-body, not at its loop top).
		if newRun {
			j.pendingCharge = w.pendingCost + costs.ContextSwitch
			w.pendingCost = 0
		} else {
			cost := costs.ContextSwitch + w.pendingCost
			w.pendingCost = 0
			c.Charge(cost)
		}
		fib.th.SetCore(w.core)
		fib.th.Unpark()
		// Wait for the fiber's notification; tolerate spurious unparks
		// (they would otherwise corrupt the completion handshake).
		var reason workerWake
		for {
			intr := c.Park()
			if intr && a.terminating.Load() {
				return
			}
			sh.mu.Lock()
			reason = w.wakeReason
			if reason != wakeNone {
				break // handle below, still holding sh.mu
			}
			sh.mu.Unlock()
			if a.terminating.Load() {
				return
			}
		}
		w.wakeReason = wakeNone
		if w.wakeJob != j {
			wj := "<nil>"
			if w.wakeJob != nil {
				wj = fmt.Sprintf("%s(seq %d, state %d, fnDone %v)", w.wakeJob.name, w.wakeJob.seq, w.wakeJob.state.Load(), w.wakeJob.fnDone)
			}
			panic(fmt.Sprintf("worker %d: notification for %s but dispatched %s(seq %d) reason=%d",
				w.idx, wj, j.name, j.seq, reason))
		}
		w.wakeJob = nil
		switch reason {
		case wakeCompleted:
			w.current = nil
			w.curPrio.Store(noRunPrio)
			w.curSeq.Store(0)
			sh.mu.Unlock()
			// Completion bookkeeping runs with no shard lock held: the fast
			// path is lock-free, the slow path takes App.mu (rank 2 < 3).
			a.completeJob(c, w, j)
		case wakeSuspended:
			j.state.Store(jobPreempted)
			j.preempts++
			w.preempted = append(w.preempted, j)
			w.current = nil
			w.curPrio.Store(noRunPrio)
			w.curSeq.Store(0)
			sh.mu.Unlock()
		case wakeAsyncFree:
			// Job computes on the accelerator; the worker is free. The
			// fiber re-attaches through the preempted stack when done.
			w.preempted = append(w.preempted, j)
			w.current = nil
			w.curPrio.Store(noRunPrio)
			w.curSeq.Store(0)
			sh.mu.Unlock()
		default:
			sh.mu.Unlock()
			panic(fmt.Sprintf("worker %d: unknown wake reason %d", w.idx, reason))
		}
	}
}

// takeWork pops the most urgent of (own shard head, preempted stack) under
// the worker's own shard lock. fresh reports that the job came off the queue
// and still needs prepareRun (version selection / accelerator acquisition).
//
//yasmin:noalloc
func (a *App) takeWork(w *workerState, sh *releaseShard) (j *job, fresh bool) {
	sh.mu.Lock()
	head := sh.q.peek()
	si, st := w.stackTop()
	switch {
	case head == nil && st == nil:
		sh.mu.Unlock()
		return nil, false
	case head == nil:
		j = st
		w.removeStack(si)
	case st == nil || head.before(st):
		j = sh.q.pop()
		j.shardIdx.Store(-1)
		sh.nready.Add(-1)
		sh.updateHeadLocked()
		w.pendingCost += queueOpCost(a.env.Costs(), sh.q)
		fresh = true
	default:
		j = st
		w.removeStack(si)
	}
	sh.mu.Unlock()
	return j, fresh
}

// trySteal claims the head of the most loaded sibling shard (global mapping
// only; partitioned placements are fixed by definition). Victim selection
// reads the lock-free nready mirrors; exactly one shard lock is held at a
// time, and the pop re-validates under it.
//
//yasmin:noalloc
func (a *App) trySteal(w *workerState) (*job, bool) {
	best, bestLoad := -1, int32(0)
	for i, sh := range a.shards {
		if i == w.idx {
			continue
		}
		if n := sh.nready.Load(); n > bestLoad {
			best, bestLoad = i, n
		}
	}
	if best < 0 {
		return nil, false
	}
	sh := a.shards[best]
	sh.mu.Lock()
	j := sh.q.peek()
	if j == nil {
		sh.mu.Unlock()
		a.stealMisses.Add(1)
		return nil, false
	}
	sh.q.pop()
	j.shardIdx.Store(-1)
	sh.nready.Add(-1)
	sh.updateHeadLocked()
	w.pendingCost += queueOpCost(a.env.Costs(), sh.q)
	sh.mu.Unlock()
	a.steals.Add(1)
	return j, true
}

// workVisible re-checks for work after enqueueIdle and before parking — the
// idle-list analogue of the classic re-check-after-subscribe pattern. The
// happens-before chain through idleMu (a dispatcher's failed claim orders
// after our enqueue, which orders after this check's loads) guarantees that
// work enqueued concurrently is seen either here or by a dispatcher that
// then finds us on the list.
//
//yasmin:noalloc
func (a *App) workVisible(w *workerState, sh *releaseShard) bool {
	// Note: stopping alone must NOT short-circuit to true — the retire check
	// runs before every park, and freeJob wakes all workers when the last
	// live job frees during a stop, so parking here is wake-safe. Returning
	// true on stopping would spin the worker (never parking, never charging)
	// while another worker's in-flight job keeps jobsLive above zero.
	if a.terminating.Load() {
		return true
	}
	sh.mu.Lock()
	_, st := w.stackTop()
	sh.mu.Unlock()
	if st != nil || sh.nready.Load() > 0 {
		return true
	}
	if a.cfg.Mapping != MappingPartitioned {
		for _, osh := range a.shards {
			if osh.nready.Load() > 0 {
				return true
			}
		}
	}
	return false
}

// prepareRun selects the version, acquires the accelerator (possibly parking
// the job on its waitlist with PIP) and binds a fiber. Returns false when
// the job was parked (or dropped) instead of made runnable. Runs with no
// locks held: the selection fast path (no accelerator-bound versions,
// non-user policy) stays lock-free; everything else takes App.mu.
func (a *App) prepareRun(c rt.Ctx, w *workerState, j *job) bool {
	if st := j.state.Load(); st == jobAccelResumed || st == jobPreempted {
		return true // resuming: version and fiber already bound
	}
	if j.fastSel {
		j.version = a.selectVersionFast(c, w, j)
		return a.bindFiber(c, j)
	}
	a.mu.Lock(c)
	vid, blockedOn := a.selectVersion(c, j)
	if blockedOn != NoAccel {
		a.parkOnAccel(c, j, blockedOn)
		a.mu.Unlock(c)
		return false
	}
	j.version = vid
	v := &j.t.versions[vid]
	if v.accel != NoAccel {
		inst := a.poolAvailableForLocked(j, v.accel)
		if inst == NoAccel {
			// The pool filled (or a more urgent waiter holds the admission
			// slot) since selection looked: park like any other contender.
			a.parkOnAccel(c, j, v.accel)
			a.mu.Unlock(c)
			return false
		}
		a.acquireInstanceLocked(c, inst, j)
		j.accel = inst
	}
	a.mu.Unlock(c)
	return a.bindFiber(c, j)
}

// bindFiber attaches a free execution context to a fresh job — lock-free
// (Treiber pool). Returns false when the pool is exhausted, which is
// structurally impossible (pool >= workers + jobs); dropped defensively.
func (a *App) bindFiber(c rt.Ctx, j *job) bool {
	f := a.allocFib()
	if f == nil {
		a.overruns.Add(1)
		a.freeJob(c, j)
		return false
	}
	f.job = j
	j.fib = f
	if !j.started {
		j.started = true
		j.start = c.Now()
	}
	return true
}

// completeJob performs completion bookkeeping: accelerator release,
// successor activation, recording, energy accounting, pool recycling.
// Called with no locks held. Isolated jobs (no graph edges, no accelerator)
// take the lock-free fast path; everything else takes App.mu.
func (a *App) completeJob(c rt.Ctx, w *workerState, j *job) {
	if !j.fnDone || j.state.Load() != jobRunning || (j.fib != nil && j.fib.job != j) {
		panic(fmt.Sprintf("completeJob: job %q fnDone=%v state=%d fib-job-match=%v worker=%d/%d",
			j.name, j.fnDone, j.state.Load(), j.fib == nil || j.fib.job == j, j.worker.Load(), w.idx))
	}
	if j.fastPath && j.accel == NoAccel && j.nested == NoAccel {
		a.completeJobFast(c, w, j)
		return
	}
	now := c.Now()
	costs := a.env.Costs()
	a.recordTaskError(j.err)
	a.mu.Lock(c)
	heldInst := j.accel
	accelName := ""
	if heldInst != NoAccel {
		accelName = a.accels[heldInst].name
	}
	// Release held accelerators and reschedule their waiters. A nested
	// instance (AccelSectionOn) is normally released by the section itself;
	// an error return from inside the section must not leak it.
	if j.nested != NoAccel {
		inst := j.nested
		j.nested = NoAccel
		a.releaseInstanceLocked(c, inst, j)
	}
	if j.accel != NoAccel {
		a.releaseAccel(c, j)
	}
	j.effPrio.Store(j.basePrio)
	// Activate successors whose inputs are all present.
	moreWork := false
	for _, e := range j.t.outEdges {
		if !e.pushStamp(j.stamp) {
			a.overruns.Add(1)
			continue
		}
		dst := &a.tasks[e.dst]
		// Periodic/sporadic roots are released by the scheduler (or
		// TaskActivate); a token arriving on their feedback edge only
		// enables the next timed release. Draining successors get no new
		// activations: their in-flight jobs finish, nothing more.
		if !dst.root && dst.state == taskRunning && a.allInputsReady(dst) {
			stamp := a.consumeInputs(dst)
			c.Charge(costs.QueueOpBase)
			if a.releaseJobApp(c, dst, now, stamp) != nil {
				moreWork = true
			}
		}
	}
	a.recordCompletion(j, w, now, accelName,
		len(j.t.inEdges) > 0 && len(j.t.outEdges) == 0)
	a.accountEnergy(j, heldInst)
	// Recycle fiber and job.
	if f := j.fib; f != nil {
		j.fib = nil
		f.job = nil
		a.pushFreeFib(f)
	}
	a.freeJobLocked(c, j)
	a.mu.Unlock(c)
	if moreWork {
		a.dispatch(c)
	}
}

// completeJobFast retires an isolated job without App.mu: recording, energy
// accounting and pool recycling all run on lock-free or leaf-locked
// structures. Eligibility (fastPath) is derived at release time: the task
// has no in- or out-edges, so no successor activation and no graph record.
func (a *App) completeJobFast(c rt.Ctx, w *workerState, j *job) {
	now := c.Now()
	a.recordTaskError(j.err)
	j.effPrio.Store(j.basePrio)
	a.recordCompletion(j, w, now, "", false)
	a.accountEnergy(j, NoAccel)
	if f := j.fib; f != nil {
		j.fib = nil
		f.job = nil
		a.pushFreeFib(f)
	}
	a.freeJob(c, j)
}

// recordCompletion emits the job record (and, when sink is set, the
// end-to-end graph record). Safe with or without App.mu: the recorder has
// its own leaf lock, and sink is the caller's fact — the slow path derives
// it from the adjacency lists it already holds App.mu for, the fast path is
// structurally edge-free. recordCompletion must not touch the lists itself:
// reconfiguration commits rebuild them while lock-free completions run.
func (a *App) recordCompletion(j *job, w *workerState, now time.Duration, accelName string, sink bool) {
	rec := trace.JobRecord{
		Task:     j.name,
		TaskID:   int(j.t.id),
		Job:      int64(j.taskSeq),
		Version:  int(j.version),
		Core:     w.core,
		Accel:    accelName,
		Release:  j.release,
		Start:    j.start,
		Finish:   now,
		Deadline: j.absDL,
		Missed:   now > j.absDL,
		Preempts: j.preempts,
	}
	a.rec.Record(rec)
	// Sink nodes additionally record the end-to-end graph metric.
	if sink {
		graphDL := j.stamp + j.t.effDeadline
		a.rec.Record(trace.JobRecord{
			Task:     "graph:" + j.name,
			TaskID:   int(j.t.id),
			Job:      int64(j.taskSeq),
			Version:  int(j.version),
			Core:     w.core,
			Release:  j.stamp,
			Start:    j.start,
			Finish:   now,
			Deadline: graphDL,
			Missed:   now > graphDL,
			Preempts: j.preempts,
		})
	}
}

// allInputsReady reports whether every input edge of t has a pending token.
// Caller holds App.mu.
func (a *App) allInputsReady(t *task) bool {
	for _, e := range t.inEdges {
		if e.count == 0 {
			return false
		}
	}
	return len(t.inEdges) > 0
}

// consumeInputs pops one token per input edge and returns the newest stamp
// (the graph-instance root release). Caller holds App.mu.
func (a *App) consumeInputs(t *task) time.Duration {
	var stamp time.Duration
	for _, e := range t.inEdges {
		if s, ok := e.popStamp(); ok && s > stamp {
			stamp = s
		}
	}
	return stamp
}

// accountEnergy drains the battery for the finished job. accel is the
// instance the job held while executing (already released by the caller,
// so it is passed explicitly).
func (a *App) accountEnergy(j *job, accel HID) {
	if a.battery == nil {
		return
	}
	var powerMW float64 = 1000
	if pl := a.env.Platform(); pl != nil {
		w := a.workers[j.worker.Load()]
		if w != nil && w.core >= 0 && w.core < len(pl.Cores) {
			powerMW = pl.Cores[w.core].PowerActive
		}
		if accel != NoAccel {
			ai := a.accels[accel].platIdx
			if ai >= 0 && ai < len(pl.Accels) {
				powerMW += pl.Accels[ai].PowerActive
			}
		}
	}
	a.battery.Drain(powerMW, j.computed)
	// Explicit per-version budgets drain in addition, if declared.
	if b := j.t.versions[j.version].props.EnergyBudget; b > 0 {
		a.battery.DrainMJ(b)
	}
}

// fiber is a preallocated execution context for one job at a time — the
// analogue of the paper's swapcontext stacks. The fiber thread parks until a
// worker hands it a job, runs the selected version function, then notifies
// the worker. Fibers recycle through the same lock-free Treiber freelist
// scheme as jobs.
type fiber struct {
	idx      int
	app      *App
	th       rt.Thread
	job      *job
	nextFree atomic.Int32
	// ectx is the reusable execution context handed to version functions:
	// one fiber runs one job at a time, so reusing it keeps the dispatch
	// path allocation-free even though the pointer escapes into user code.
	ectx ExecCtx
}

// pushFreeFib returns a fiber to the lock-free pool freelist.
//
//yasmin:noalloc
func (a *App) pushFreeFib(f *fiber) {
	idx := uint64(uint32(f.idx + 1))
	for {
		h := a.freeFibHead.Load()
		f.nextFree.Store(int32(uint32(h)) - 1)
		nh := (h>>32+1)<<32 | idx
		if a.freeFibHead.CompareAndSwap(h, nh) {
			return
		}
	}
}

// allocFib pops a free fiber lock-free; nil when exhausted (structurally
// impossible: the pool is sized workers + jobs).
//
//yasmin:noalloc
func (a *App) allocFib() *fiber {
	for {
		h := a.freeFibHead.Load()
		idx := int(int32(uint32(h))) - 1
		if idx < 0 {
			return nil
		}
		f := a.fibers[idx]
		next := uint64(uint32(f.nextFree.Load() + 1))
		nh := (h>>32+1)<<32 | next
		if a.freeFibHead.CompareAndSwap(h, nh) {
			return f
		}
	}
}

// loop is the fiber thread body.
func (f *fiber) loop(c rt.Ctx) {
	a := f.app
	defer a.threadExit()
	for {
		if intr := c.Park(); intr || a.terminating.Load() {
			if a.terminating.Load() {
				return
			}
			continue
		}
		// Plain reads: the dispatching worker wrote job/state/pendingCharge
		// before its Unpark, which orders the handoff.
		j := f.job
		if j == nil {
			continue // spurious wake
		}
		if j.state.Load() != jobRunning || j.fib != f {
			panic(fmt.Sprintf("fiber %d woke with job %q state=%d fib-match=%v worker=%d",
				f.idx, j.name, j.state.Load(), j.fib == f, j.worker.Load()))
		}
		// The context-switch (and any queue-op) cost rides lazily on the
		// job's first Compute instead of paying a timing event here.
		c.ChargeLazy(j.pendingCharge)
		j.pendingCharge = 0
		v := &j.t.versions[j.version]
		f.ectx = ExecCtx{app: a, j: j, c: c, f: f}
		j.err = v.fn(&f.ectx, v.args)
		// Notify the owning worker under its shard lock.
		w := a.workers[j.worker.Load()]
		sh := a.shards[w.idx]
		sh.mu.Lock()
		j.fnDone = true
		w.wakeReason = wakeCompleted
		w.wakeJob = j
		sh.mu.Unlock()
		w.th.Unpark()
		// Park until reused; the completion path recycles f lock-free.
	}
}
