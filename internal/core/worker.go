package core

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// workerState is one virtual CPU (Figure 1): a worker pinned to a shielded
// core executing jobs, with a stack of suspended jobs. The worker is carried
// by one fiber at a time (fib): a thread pinned to the worker's core that
// runs the worker loop and each fresh job's body inline. A job that
// suspends keeps its fiber and hands the worker to a spare; resuming it
// hands the worker back (see fiber). The worker pops its ready queue from
// shard: the one shared shard under the global mapping, its own under
// partitioned and offline. current, preempted and lastSignalTick are
// guarded by that shard's lock, the idle-list links by idleMu; pendingCost,
// spares and fibers belong to the fiber carrying the worker.
type workerState struct {
	idx       int
	core      int
	shard     *releaseShard
	current   *job
	preempted []*job // suspended jobs (incl. async-resumed ones)

	// fib is the fiber carrying the worker; nil between runs. spares are
	// this worker's parked spare fibers, fibers every fiber spawned for it
	// (Cleanup terminates them).
	fib    atomic.Pointer[fiber]
	spares []*fiber
	fibers []*fiber

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
	// the worker's shard lock).
	lastSignalTick int64

	// vselOrder/vselRest are the worker-private version-selection scratch
	// slices (versionOrder): selection runs on the worker's own fiber, with
	// or without App.mu, and never allocates.
	vselOrder []VID
	vselRest  []VID
}

// wake unparks the fiber carrying w (idle-list claims, stop, drain). A
// token that lands on a fiber which has since handed the worker on is a
// stray wake: awaitResume re-checks and parks again.
func (w *workerState) wake() {
	if f := w.fib.Load(); f != nil {
		f.th.Unpark()
	}
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

// stackLocked suspends j off the CPU in state st: it joins the worker's
// stack and stops being the current job. The caller holds w's shard lock
// and then hands the worker to a spare fiber.
func (w *workerState) stackLocked(j *job, st jobState) {
	j.state.Store(st)
	w.preempted = append(w.preempted, j)
	w.current = nil
}

func (w *workerState) removeStack(i int) {
	w.preempted = append(w.preempted[:i], w.preempted[i+1:]...)
}

// workerLoop is the online-scheduling worker body, run by the fiber f
// carrying the worker: pick the most urgent of (queue head, suspended
// stack), run a fresh job's body right here or hand the worker to a
// suspended job's own fiber, park when idle. It returns true when it handed
// the worker on (f then parks as a spare), false when the worker retired
// or the App terminates. App.mu never appears on this loop's steady path —
// only the worker's shard lock.
func (a *App) workerLoop(c rt.Ctx, f *fiber) bool {
	w := f.w
	costs := a.env.Costs()
	sh := w.shard
	for {
		if a.terminating.Load() {
			return false
		}
		j, fresh := a.takeWork(w, sh)
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
					return false
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
					return false
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
		// Run handshake under the shard lock: state and owner. A fresh job
		// starts now, on this fiber, so preemption signals target it here.
		sh.mu.Lock()
		j.worker.Store(int32(w.idx))
		j.state.Store(jobRunning)
		w.current = j
		if fresh {
			j.fib = f
			j.start = c.Now()
		}
		sh.mu.Unlock()
		// The context switch (swapcontext analogue) plus any accumulated
		// queue-op cost: a fresh run's rides lazily on the body's first
		// Compute; a resume pays it inline, before the handover.
		cost := costs.ContextSwitch + w.pendingCost
		w.pendingCost = 0
		if fresh {
			c.ChargeLazy(cost)
			a.runJob(c, f, j)
			continue
		}
		c.Charge(cost)
		w.spares = append(w.spares, f)
		a.handTo(w, j.fib)
		return true
	}
}

// runJob runs a fresh job's body on fiber f and completes it. The body may
// suspend (then f parks inside it while a spare carries the worker); by the
// time it returns, f carries the worker again.
func (a *App) runJob(c rt.Ctx, f *fiber, j *job) {
	w := f.w
	f.ectx = ExecCtx{app: a, j: j, c: c}
	j.err = runBody(&f.ectx, &j.t.versions[j.version])
	sh := w.shard
	sh.mu.Lock()
	w.current = nil
	sh.mu.Unlock()
	// Completion bookkeeping runs with no shard lock held: it may take
	// App.mu (rank 2 < 3).
	if t := a.completeJob(c, w, j); t != nil {
		// An isolated job was its draining task's last: retire the task.
		a.mu.Lock(c)
		a.retireDrainedLocked(t, c.Now())
		a.mu.Unlock(c)
	}
}

// runBody calls version v's function for x's job. A panic in the body costs
// that job only: it becomes the job's error, counted like any other task
// error, and the job completes through the normal path (held accelerators
// released, PIP boosts restored). The online loop and the offline
// dispatcher are the only two places a body runs.
func runBody(x *ExecCtx, v *version) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: task %s panicked: %v", x.j.name, r)
		}
	}()
	return v.fn(x, v.args)
}

// takeWork pops the most urgent of (queue head, preempted stack) under the
// worker's shard lock. fresh reports that the job came off the queue
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
		w.pendingCost += queueOpCost(a.env.Costs(), sh.q)
		fresh = true
	default:
		j = st
		w.removeStack(si)
	}
	sh.mu.Unlock()
	return j, fresh
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
	return st != nil || sh.nready.Load() > 0
}

// prepareRun selects the version of a fresh job and acquires its
// accelerator (possibly parking the job on its waitlist with PIP). Returns
// false when the job was parked instead of made runnable. Called with no
// locks held. A fastSel job (no accelerator-bound version, no user policy)
// selects without App.mu: its choice reads only the task's version table,
// the mode/mask atomics and the battery.
func (a *App) prepareRun(c rt.Ctx, w *workerState, j *job) bool {
	locked := !j.fastSel
	if locked {
		a.mu.Lock(c)
	}
	vid, blockedOn := a.selectVersion(c, w, j)
	if blockedOn == NoAccel {
		j.version = vid
		if h := j.t.versions[vid].accel; h != NoAccel {
			if inst := a.poolAvailableForLocked(j, h); inst != NoAccel {
				a.acquireInstanceLocked(c, inst, j)
				j.accel = inst
			} else {
				// The pool filled (or a more urgent waiter holds the
				// admission slot) since selection looked: park like any
				// other contender.
				blockedOn = h
			}
		}
	}
	if blockedOn != NoAccel {
		a.parkOnAccel(c, j, blockedOn)
	}
	if locked {
		a.mu.Unlock(c)
	}
	return blockedOn == NoAccel
}

// completeJob performs completion bookkeeping: accelerator release,
// successor activation, recording, energy accounting, pool recycling.
// Called with no locks held. App.mu is taken only for a job that touches
// shared graph or accelerator state: one with graph edges (isolated unset
// at release) or holding an accelerator instance. An isolated job
// completes on lock-free and leaf-locked structures alone; when it was the
// last job of a draining task, completeJob returns that task for the caller
// to retire under App.mu.
//
//yasmin:noalloc
func (a *App) completeJob(c rt.Ctx, w *workerState, j *job) *task {
	now := c.Now()
	a.recordTaskError(j.err)
	locked := !j.isolated || j.accel != NoAccel || j.nested != NoAccel
	if locked {
		a.mu.Lock(c)
	}
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
	moreWork, sink := false, false
	if locked {
		// Activate successors whose inputs are all present. The adjacency
		// lists are App.mu state: a commit rebuilds them while lock-free
		// completions run, so only the locked path reads them.
		for _, e := range j.t.outEdges {
			if !e.pushStamp(j.stamp) {
				a.overruns.Add(1)
				continue
			}
			dst := &a.tasks[e.dst]
			// Periodic/sporadic roots are released by the scheduler (or
			// TaskActivate); a token arriving on their feedback edge only
			// enables the next timed release. Draining successors get no
			// new activations: their in-flight jobs finish, nothing more.
			if !dst.root && dst.state == taskRunning && a.allInputsReady(dst) {
				stamp := a.consumeInputs(dst)
				c.Charge(a.env.Costs().QueueOpBase)
				if a.releaseJob(c, dst, now, stamp) != nil {
					moreWork = true
				}
			}
		}
		sink = len(j.t.inEdges) > 0 && len(j.t.outEdges) == 0
	}
	a.recordCompletion(j, w, now, accelName, sink)
	a.accountEnergy(j, heldInst)
	drained := a.freeJob(c, j, locked)
	if locked {
		a.mu.Unlock(c)
	}
	if moreWork {
		a.dispatch(c)
	}
	return drained
}

// recordCompletion emits the job record (and, when sink is set, the
// end-to-end graph record under the task's cached graph name). Safe with or
// without App.mu: the recorder has its own leaf lock, and sink is the
// caller's fact — derived from the adjacency lists only when App.mu is
// held, false for an isolated job. recordCompletion must not touch the
// lists itself: reconfiguration commits rebuild them while lock-free
// completions run.
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
		a.rec.RecordGraph(trace.JobRecord{
			Task:     j.t.graphName,
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

// fiber is an execution context bound to one worker — the analogue of the
// paper's swapcontext stacks, except that a goroutine already is a stack,
// so fibers are spawned on need rather than preallocated. The fiber
// carrying its worker (w.fib == f) runs the worker loop and each fresh
// job's body inline. A job that suspends (preemption, a mid-job accelerator
// park, an asynchronous section or Sleep) stays on its fiber and hands the
// worker to one of the worker's parked spares, spawned on first need;
// resuming the job hands the worker back, and the handing fiber parks as a
// spare. Spares survive Stop/Start; Cleanup terminates them. Without
// suspensions a worker runs on exactly one fiber.
type fiber struct {
	app *App
	w   *workerState
	th  rt.Thread
	// ectx is the reusable execution context handed to version functions:
	// one fiber runs one job at a time, so reusing it keeps the dispatch
	// path allocation-free even though the pointer escapes into user code.
	ectx ExecCtx
}

// run is the fiber thread body: wait until the fiber carries its worker,
// run the worker loop, and park as a spare again once the loop hands the
// worker on or the worker retires.
func (f *fiber) run(c rt.Ctx) {
	a := f.app
	w := f.w
	defer a.threadExit()
	for a.awaitResume(c, f) {
		if a.cfg.Mapping == MappingOffline {
			a.offlineWorkerLoop(c, f)
		} else if a.workerLoop(c, f) {
			continue
		}
		// The run is over for this worker: park as its spare until the
		// next Start.
		w.spares = append(w.spares, f)
		w.fib.Store(nil)
		a.runLive.Add(-1)
	}
}

// awaitResume parks f until it carries its worker (w.fib == f): a spare
// until Start or a suspending job hands it the worker, a suspended job's
// fiber until a worker resumes the job. The ownership check, not the wake,
// decides: a stray Unpark or a stale preemption Interrupt only re-checks,
// so nothing can restart a suspended job but its resumption. False on
// termination.
func (a *App) awaitResume(c rt.Ctx, f *fiber) bool {
	for {
		if a.terminating.Load() {
			return false
		}
		if f.w.fib.Load() == f {
			return true
		}
		c.Park()
	}
}

// handTo passes worker w to fiber f. Called by the fiber carrying w, which
// must not touch the worker afterwards.
func (a *App) handTo(w *workerState, f *fiber) {
	w.fib.Store(f)
	f.th.Unpark()
}

// spare returns one of w's parked spare fibers, spawning one pinned to
// w.core on first need. Called by the fiber carrying w (or by Start).
func (a *App) spare(w *workerState) *fiber {
	if n := len(w.spares); n > 0 {
		f := w.spares[n-1]
		w.spares = w.spares[:n-1]
		return f
	}
	f := &fiber{app: a, w: w}
	name := "yas-worker-" + strconv.Itoa(w.idx)
	if n := len(w.fibers); n > 0 {
		name += "." + strconv.Itoa(n)
	}
	w.fibers = append(w.fibers, f)
	a.liveThreads.Add(1)
	f.th = a.env.Spawn(name, w.core, f.run)
	return f
}
