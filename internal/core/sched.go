package core

import (
	"fmt"
	"time"

	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// slowRelease is one feedback-root release instance deferred from the
// shard-locked phase of the tick to the App.mu phase (its delay-token state
// is graph state).
type slowRelease struct {
	t   *task
	rel time.Duration
}

// Start begins executing the task set — yas_start. It spawns the worker
// threads (and, for online mappings, the dedicated scheduler thread) and
// returns immediately; call it from a thread context (ctx) of the same
// environment. A stopped App can be started again after altering the task
// set (multi-mode scheduling).
func (a *App) Start(c rt.Ctx) error {
	if a.started.Load() {
		return ErrStarted
	}
	// Serialise against live-reconfiguration transactions: a Reconfigure
	// racing Start must observe either the stopped or the fully started
	// application, never the half-initialised tables.
	a.reconfigMu.Lock(c)
	defer a.reconfigMu.Unlock(c)
	// A previous run's threads may still be draining; wait them out before
	// mutating shared state and so the stopping flag can be reset safely.
	for a.workersLive.Load() > 0 || a.schedLive.Load() > 0 {
		c.Sleep(100 * time.Microsecond)
	}
	if err := a.resolve(); err != nil {
		return err
	}
	if a.cfg.Mapping == MappingOffline && a.offTable == nil {
		return fmt.Errorf("core: MappingOffline needs SetOfflineTable before Start")
	}
	a.stopping.Store(false)
	a.terminating.Store(false)
	a.startTime = c.Now()
	if a.cfg.SchedulerPeriod != 0 {
		a.schedPeriodNs.Store(int64(a.cfg.SchedulerPeriod))
	} else {
		a.schedPeriodNs.Store(int64(a.schedGCD()))
	}
	// Fresh release shards for this run. Everything here runs quiescent (no
	// worker/scheduler threads yet), so no shard locks are needed.
	for _, sh := range a.shards {
		sh.rel.reset()
		for sh.q.len() > 0 {
			sh.q.pop()
		}
		sh.nready.Store(0)
		sh.headPrio.Store(noRunPrio)
		sh.headSeq.Store(0)
	}
	a.slowDue = a.slowDue[:0]
	a.dataPending = a.dataPending[:0]
	a.dataPendingN.Store(0)
	a.ticking.Store(0)
	a.tickSeq.Store(0)
	a.jobsLive.Store(0)
	for i := 0; i < a.ntasks; i++ {
		t := &a.tasks[i]
		t.pendingData = false
		if t.state == taskRetired {
			continue
		}
		t.state = taskRunning
		t.nextRelease = a.startTime + t.d.ReleaseOffset
		t.lastActivation = 0
		t.everActivated = false
		if t.periodicRoot() {
			a.shards[t.shard.Load()].rel.arm(t)
		}
	}
	// Reset graph edges and pre-seed delay tokens (feedback loops fire
	// their first `initial` iterations on the seeds).
	for i := 0; i < a.nedges; i++ {
		e := &a.edges[i]
		if e.dead {
			continue
		}
		e.head, e.count, e.tokens = 0, 0, 0
		for k := 0; k < e.initial; k++ {
			e.pushStamp(a.startTime)
		}
	}
	// Data-activated tasks whose seeded delay tokens already satisfy every
	// input fire on the first tick via the catch-up queue.
	for i := 0; i < a.ntasks; i++ {
		a.noteDataReadyLocked(&a.tasks[i])
	}
	for i := 0; i < a.naccels; i++ {
		a.accels[i].busy = false
		a.accels[i].holder = nil
		a.accels[i].waiters = a.accels[i].waiters[:0]
	}
	a.idleHead = nil
	for _, w := range a.workers {
		w.current = nil
		w.preempted = w.preempted[:0]
		w.wakeReason = wakeNone
		w.wakeJob = nil
		w.onIdle = false
		w.idlePrev, w.idleNext = nil, nil
		w.pendingCost = 0
		w.lastSignalTick = 0
		w.curPrio.Store(noRunPrio)
		w.curSeq.Store(0)
	}
	a.started.Store(true)
	// Publish the epoch-0 scheduling snapshot for lock-free readers.
	a.publishViewLocked()

	// Spawn fibers (execution contexts, preallocated as the paper's
	// swapcontext stacks are). Fibers survive Stop/Start cycles; Cleanup
	// terminates them. The freelist is rebuilt each run: all fibers idle.
	a.freeFibHead.Store(0)
	if !a.fibersSpawned {
		a.fibersSpawned = true
		for i := len(a.fibers) - 1; i >= 0; i-- {
			f := &fiber{idx: i, app: a}
			a.fibers[i] = f
			a.liveThreads.Add(1)
			f.th = a.env.Spawn(fmt.Sprintf("yas-fiber-%d", i), rt.UnpinnedCore, f.loop)
			a.pushFreeFib(f)
		}
	} else {
		for i := len(a.fibers) - 1; i >= 0; i-- {
			a.pushFreeFib(a.fibers[i])
		}
	}
	// Spawn workers.
	for _, w := range a.workers {
		w := w
		a.liveThreads.Add(1)
		a.workersLive.Add(1)
		if a.cfg.Mapping == MappingOffline {
			w.th = a.env.Spawn(fmt.Sprintf("yas-worker-%d", w.idx), w.core, func(tc rt.Ctx) {
				defer a.workersLive.Add(-1)
				a.offlineWorkerLoop(tc, w)
			})
		} else {
			w.th = a.env.Spawn(fmt.Sprintf("yas-worker-%d", w.idx), w.core, func(tc rt.Ctx) {
				defer a.workersLive.Add(-1)
				a.workerLoop(tc, w)
			})
		}
	}
	// Spawn the scheduler thread on its private core (online mappings).
	if a.cfg.Mapping != MappingOffline {
		a.liveThreads.Add(1)
		a.schedLive.Add(1)
		a.schedTh = a.env.Spawn("yas-sched", a.cfg.SchedulerCore, func(tc rt.Ctx) {
			defer a.schedLive.Add(-1)
			a.schedulerLoop(tc)
		})
	}
	return nil
}

// Stop stops releasing new jobs — yas_stop. Jobs already released are still
// executed; workers then become idle. The App can be re-started. Stop is
// lock-free: it nudges the scheduler and wakes every worker (a token
// buffered on a busy worker surfaces as one benign spurious wake).
func (a *App) Stop(c rt.Ctx) {
	if !a.started.Load() {
		return
	}
	a.stopping.Store(true)
	if a.schedTh != nil {
		a.schedTh.Interrupt()
	}
	a.wakeAllWorkers()
}

// Cleanup waits for all middleware threads to finish and shuts the instance
// down — yas_cleanup. Call after Stop. The App may be re-initialised with
// Init and reused.
func (a *App) Cleanup(c rt.Ctx) {
	if !a.started.Load() {
		return
	}
	a.stopping.Store(true)
	// Let in-flight jobs drain: wait until every released job has completed,
	// then terminate. Poll at tick granularity but no slower than a
	// millisecond — an application of hour-long periods (or one retuned to
	// them) must not stall its own teardown by a scheduler period.
	drainPoll := a.schedPeriodOr(time.Millisecond)
	if drainPoll > time.Millisecond {
		drainPoll = time.Millisecond
	}
	for !a.drained() {
		c.Sleep(drainPoll)
	}
	a.terminating.Store(true)
	for _, w := range a.workers {
		if w.th != nil {
			w.th.Interrupt()
			w.th.Unpark()
		}
	}
	for _, f := range a.fibers {
		if f != nil && f.th != nil {
			f.th.Interrupt()
			f.th.Unpark()
		}
	}
	for a.liveThreads.Load() > 0 {
		c.Sleep(100 * time.Microsecond)
	}
	// Every middleware thread is gone; serialise the final teardown against
	// reconfiguration transactions (which read schedTh to nudge the
	// scheduler).
	a.reconfigMu.Lock(c)
	a.started.Store(false)
	a.fibersSpawned = false
	a.schedTh = nil
	a.reconfigMu.Unlock(c)
}

// schedPeriodNow returns the current scheduler tick period; a committed
// reconfiguration may retune it while the scheduler loop runs.
func (a *App) schedPeriodNow() time.Duration {
	return time.Duration(a.schedPeriodNs.Load())
}

func (a *App) schedPeriodOr(d time.Duration) time.Duration {
	if p := a.schedPeriodNow(); p > 0 {
		return p
	}
	return d
}

// drained reports whether every released job has completed and no release
// pass is in flight — pure atomics, no locks. Ready queues, worker stacks
// and accelerator waiter lists all hold live (allocated) jobs, so jobsLive
// covers every place a job can hide; the tick seqlock covers releases still
// being pushed.
//
//yasmin:noalloc
func (a *App) drained() bool {
	if a.ticking.Load()%2 != 0 {
		return false
	}
	return a.jobsLive.Load() == 0
}

func (a *App) threadExit() { a.liveThreads.Add(-1) }

// schedulerLoop is the dedicated scheduler thread (Section 3.3): it wakes on
// the activation grid (the GCD of all task periods), releases due jobs,
// dispatches them to worker queues, wakes idle workers and sends preemption
// signals. Between ticks it sleeps (WaitSleep) — unlike Mollison & Anderson,
// it never contends with workers for CPU time. Grid points before the
// earliest armed release are skipped entirely: the thread sleeps straight to
// the first grid point at or after it, so an idle or sparse schedule costs
// nothing per empty tick.
//
// The loop never takes App.mu in steady state: releases run per shard under
// the leaf locks (phase 1), and only feedback roots or pending data
// activations open an App.mu phase 2. Release-vs-retire atomicity — a Stop
// racing a release must not strand a job with no worker left to run it — is
// the tick seqlock's job: ticking goes odd before the stopping re-check, and
// workers refuse to retire while it is odd (see workerLoop).
func (a *App) schedulerLoop(c rt.Ctx) {
	defer a.threadExit()
	costs := a.env.Costs()
	for {
		if a.stopping.Load() || a.terminating.Load() {
			a.wakeAllWorkers()
			return
		}
		t0 := c.Now()
		c.Charge(costs.ClockRead)
		a.ticking.Add(1) // open the tick window (odd)
		if a.stopping.Load() || a.terminating.Load() {
			a.ticking.Add(1)
			a.wakeAllWorkers()
			return
		}
		released, due, armed := a.releaseDue(c, t0)
		a.ticking.Add(1) // close the window (even)
		if released > 0 {
			a.dispatch(c)
		}
		a.ovh.Add(trace.OverheadSchedule, c.Now()-t0)
		// Next grid point, recomputed from the activation grid every tick:
		// a reconfiguration commit may retune the period (it interrupts the
		// sleep below so a shorter grid takes effect immediately), and an
		// overrun snaps forward to the next point without drifting.
		period := a.schedPeriodNow()
		next := a.startTime + ((c.Now()-a.startTime)/period+1)*period
		if armed && due > next {
			// Nothing can fire before due: snap it up to the grid and sleep
			// through the empty ticks. Commits that admit or retune tasks
			// interrupt the sleep, so a new earlier release is never missed.
			k := (due - a.startTime + period - 1) / period
			next = a.startTime + k*period
		}
		c.Charge(costs.TimerProgram)
		if interrupted := c.SleepUntil(next); interrupted {
			if a.terminating.Load() {
				return
			}
		}
	}
}

// releaseDue runs the two-phase release pass. Phase 1 visits each shard
// under its own leaf lock: the release heap's due heads pop, pure periodic
// roots release inline into the shard's queue and re-arm for their next
// period, feedback roots (in-edges = graph state) defer to phase 2, and the
// earliest still-armed release across shards is folded into (due, armed) for
// the scheduler's sleep computation. Modelled bookkeeping cost accumulates
// per shard and is charged after the lock drops. Phase 2 runs under App.mu
// only when feedback roots or pending data activations exist — the steady
// state skips it entirely, keeping App.mu off the release path.
func (a *App) releaseDue(c rt.Ctx, now time.Duration) (released int, due time.Duration, armed bool) {
	costs := a.env.Costs()
	a.slowDue = a.slowDue[:0]
	for si, sh := range a.shards {
		var cost time.Duration
		sh.mu.Lock()
		t := sh.rel.peek()
		for ; t != nil && t.nextRelease <= now; t = sh.rel.peek() {
			// The modelled scan prices exactly the entries touched.
			cost += costs.StaticScanPerItem
			if !t.periodicRoot() {
				sh.rel.disarm(t)
				continue
			}
			for t.nextRelease <= now {
				rel := t.nextRelease
				t.nextRelease += t.d.Period
				if t.hasIns {
					// A periodic root with (delayed) feedback in-edges only
					// fires when every feedback token is present — token
					// state is graph state, so defer to phase 2.
					a.slowDue = append(a.slowDue, slowRelease{t: t, rel: rel})
					continue
				}
				cost += costs.QueueOpBase
				if a.releaseJobShardLocked(sh, si, t, rel, rel) != nil {
					cost += queueOpCost(costs, sh.q)
					released++
				}
			}
			sh.rel.arm(t) // re-key the head in place for the next period
		}
		if t != nil && (!armed || t.nextRelease < due) {
			due, armed = t.nextRelease, true
		}
		sh.mu.Unlock()
		if cost > 0 {
			c.Charge(cost)
		}
	}
	if len(a.slowDue) > 0 || a.dataPendingN.Load() > 0 {
		a.mu.Lock(c)
		for _, sr := range a.slowDue {
			t := sr.t
			if t.state != taskRunning {
				continue
			}
			if !a.allInputsReady(t) {
				// The previous loop iteration has not completed: the
				// activation is dropped (counted as an overrun).
				a.overruns.Add(1)
				continue
			}
			a.consumeInputs(t)
			c.Charge(costs.QueueOpBase)
			if a.releaseJobApp(c, t, sr.rel, sr.rel) != nil {
				released++
			}
		}
		released += a.releasePendingDataLocked(c, now)
		a.mu.Unlock(c)
	}
	return released, due, armed
}

// releasePendingDataLocked fires queued data-activated tasks whose inputs
// are complete (seeded delay tokens at Start, input backlogs exposed by a
// reconfiguration commit). The common case — a producer completing — still
// releases successors inline; this queue only catches activations that have
// no future producer completion to ride on. Caller holds App.mu.
func (a *App) releasePendingDataLocked(c rt.Ctx, now time.Duration) int {
	costs := a.env.Costs()
	released := 0
	for len(a.dataPending) > 0 {
		n := len(a.dataPending) - 1
		t := a.dataPending[n]
		a.dataPending = a.dataPending[:n]
		a.dataPendingN.Store(int32(n))
		t.pendingData = false
		if t.state != taskRunning || t.root {
			continue
		}
		for a.allInputsReady(t) {
			stamp := a.consumeInputs(t)
			c.Charge(costs.QueueOpBase)
			if a.releaseJobApp(c, t, now, stamp) == nil {
				break
			}
			released++
		}
	}
	return released
}

// noteDataReadyLocked queues a data-activated task on the scheduler's
// catch-up list if its inputs are complete. Caller holds App.mu (or runs
// during a quiescent Start).
func (a *App) noteDataReadyLocked(t *task) {
	if t.pendingData || t.root || t.state != taskRunning || !a.allInputsReady(t) {
		return
	}
	t.pendingData = true
	a.dataPending = append(a.dataPending, t)
	a.dataPendingN.Store(int32(len(a.dataPending)))
}

// fillJob initialises a freshly allocated job of t. Caller holds the sync
// domain guarding t's scheduling fields: the home shard lock (phase 1,
// TaskActivate) or App.mu (phase 2, successor releases — commits write
// those tasks' fields under App.mu too).
//
//yasmin:noalloc
func (a *App) fillJob(j *job, t *task, release, stamp time.Duration) {
	j.t = t
	j.name = t.d.Name
	j.seq = a.jobSeq.Add(1)
	t.jobSeq++
	j.taskSeq = t.jobSeq
	j.release = release
	j.stamp = stamp
	j.absDL = stamp + t.effDeadline
	if t.hasIns && t.d.Deadline > 0 {
		// Data-activated node with its own deadline: relative to activation.
		j.absDL = release + t.d.Deadline
	}
	if a.cfg.Priority == PriorityEDF {
		j.basePrio = int64(j.absDL)
	} else {
		j.basePrio = t.staticPrio
	}
	j.effPrio.Store(j.basePrio)
	j.state.Store(jobReady)
	j.fastSel = t.fastSel
	j.fastPath = t.fastDone
}

// releaseJobShardLocked creates and enqueues one job of t directly on sh.
// Caller holds sh.mu with si == t.shard.
//
//yasmin:noalloc
func (a *App) releaseJobShardLocked(sh *releaseShard, si int, t *task, release, stamp time.Duration) *job {
	j := a.allocJob()
	if j == nil {
		a.overruns.Add(1)
		return nil
	}
	a.fillJob(j, t, release, stamp)
	t.live.Add(1)
	if err := sh.q.push(j); err != nil {
		t.live.Add(-1)
		a.overruns.Add(1)
		a.recycleJobUnreleased(j)
		return nil
	}
	j.shardIdx.Store(int32(si))
	sh.nready.Add(1)
	sh.updateHeadLocked()
	return j
}

// releaseJobApp creates one job of t and routes it to the home shard.
// Caller holds App.mu (and no shard lock).
func (a *App) releaseJobApp(c rt.Ctx, t *task, release, stamp time.Duration) *job {
	j := a.allocJob()
	if j == nil {
		a.overruns.Add(1)
		return nil
	}
	a.fillJob(j, t, release, stamp)
	t.live.Add(1)
	if !a.pushReady(c, j) {
		t.live.Add(-1)
		a.overruns.Add(1)
		a.recycleJobUnreleased(j) //yasmin:alloc-ok overrun recovery, a reconfiguration-scale event
		return nil
	}
	return j
}

// queueOpCost prices one ready-queue operation by current heap depth.
//
//yasmin:noalloc
func queueOpCost(costs *platform.CostModel, q *readyQueue) time.Duration {
	return costs.QueueOpBase + time.Duration(q.opCost())*costs.QueueOpPerItem
}

// dispatch wakes idle workers for ready jobs and raises preemption signals —
// the scheduler-side half of Figure 1a/1b. It takes only shard locks and
// idleMu, so it is callable with or without App.mu held. Idle workers come
// off the intrusive idle list: waking is O(jobs dispatched), never a scan of
// all workers.
func (a *App) dispatch(c rt.Ctx) {
	costs := a.env.Costs()
	t0 := c.Now()
	tick := a.tickSeq.Add(1)
	if a.cfg.Mapping == MappingPartitioned {
		for i, sh := range a.shards {
			if sh.nready.Load() == 0 {
				continue
			}
			w := a.workers[i]
			if a.claimIdle(w) {
				a.idleWakes.Add(1)
				c.Charge(costs.DispatchIPI)
				w.th.Unpark()
			} else if a.cfg.Preemption {
				a.preemptShard(c, i, tick)
			}
		}
	} else {
		// Wake one idle worker per ready job; any still-unserved surplus is
		// the preemption pass's problem.
		want := 0
		for _, sh := range a.shards {
			want += int(sh.nready.Load())
		}
		if want == 0 {
			a.ovh.Add(trace.OverheadDispatch, c.Now()-t0)
			return
		}
		woken := 0
		for want > 0 {
			w := a.popIdle()
			if w == nil {
				break
			}
			woken++
			want--
			a.idleWakes.Add(1)
			w.th.Unpark()
		}
		if woken > 0 {
			c.Charge(time.Duration(woken) * costs.DispatchIPI)
		}
		if want > 0 && a.cfg.Preemption {
			a.signalPreemptions(c, tick)
		}
	}
	a.ovh.Add(trace.OverheadDispatch, c.Now()-t0)
}

// preemptShard checks one partitioned worker's shard: if the queue head
// beats the running job, the worker's fiber is signalled (deduped per
// dispatch pass). Returns true when a fresh signal was sent.
func (a *App) preemptShard(c rt.Ctx, i int, tick int64) bool {
	sh := a.shards[i]
	w := a.workers[i]
	var fib *fiber
	deduped := false
	sh.mu.Lock()
	head := sh.q.peek()
	cur := w.current
	if head != nil && cur != nil && cur.state.Load() == jobRunning && head.before(cur) && cur.fib != nil {
		if w.lastSignalTick == tick {
			deduped = true
		} else {
			w.lastSignalTick = tick
			fib = cur.fib
		}
	}
	sh.mu.Unlock()
	if deduped {
		a.signalsDeduped.Add(1)
		return false
	}
	if fib == nil {
		return false
	}
	a.signalFiber(c, fib)
	return true
}

// signalPreemptions closes cross-shard priority inversions under the global
// mapping (Section 3.5 "Pre-emption", sharded): while the most urgent queued
// head beats the least urgent running job, the head MIGRATES to the victim
// worker's shard and that worker is signalled — preserving the old global
// semantics (the queue head beats any lower-priority runner) without a
// global queue. The scans read lock-free mirrors that may tear; every
// decision is re-validated under the one shard lock it commits on, and the
// pass is bounded by the worker count.
func (a *App) signalPreemptions(c rt.Ctx, tick int64) {
	for round := 0; round < len(a.workers); round++ {
		// Most urgent queued head across shards (mirror scan).
		hs := -1
		var hp, hseq int64
		for i, sh := range a.shards {
			p := sh.headPrio.Load()
			if p == noRunPrio {
				continue
			}
			s := sh.headSeq.Load()
			if hs < 0 || p < hp || (p == hp && s < hseq) {
				hs, hp, hseq = i, p, s
			}
		}
		if hs < 0 {
			return
		}
		// Least urgent running job (mirror scan).
		li := -1
		var lp, lseq int64
		for i, w := range a.workers {
			p := w.curPrio.Load()
			if p == noRunPrio {
				continue
			}
			s := w.curSeq.Load()
			if li < 0 || p > lp || (p == lp && s > lseq) {
				li, lp, lseq = i, p, s
			}
		}
		if li < 0 {
			return
		}
		if !(hp < lp || (hp == lp && hseq < lseq)) {
			return
		}
		if li == hs {
			// The urgent head already sits on the victim's own shard.
			if !a.preemptShard(c, li, tick) {
				return // dedup or stale mirrors: no progress possible
			}
			continue
		}
		// Migrate the head into the victim's shard, one lock at a time.
		src := a.shards[hs]
		src.mu.Lock()
		j := src.q.peek()
		if j == nil || j.effPrio.Load() != hp || j.seq != hseq {
			src.mu.Unlock()
			continue // head changed under us; rescan
		}
		src.q.pop()
		j.shardIdx.Store(-1)
		src.nready.Add(-1)
		src.updateHeadLocked()
		src.mu.Unlock()
		dst := a.shards[li]
		w := a.workers[li]
		var fib *fiber
		dst.mu.Lock()
		if err := dst.q.push(j); err != nil {
			// Structurally impossible: every queue holds the whole pool.
			dst.mu.Unlock()
			panic(fmt.Sprintf("core: migration push failed: %v", err))
		}
		j.shardIdx.Store(int32(li))
		dst.nready.Add(1)
		dst.updateHeadLocked()
		cur := w.current
		if cur != nil && cur.state.Load() == jobRunning && j.before(cur) && cur.fib != nil {
			if w.lastSignalTick == tick {
				a.signalsDeduped.Add(1)
			} else {
				w.lastSignalTick = tick
				fib = cur.fib
			}
		}
		dst.mu.Unlock()
		a.migrations.Add(1)
		if fib != nil {
			a.signalFiber(c, fib)
		}
	}
}

// signalFiber delivers the preemption signal to a running job's fiber.
func (a *App) signalFiber(c rt.Ctx, fib *fiber) {
	costs := a.env.Costs()
	t0 := c.Now()
	c.Charge(costs.SignalDeliver)
	fib.th.Interrupt()
	a.signalsSent.Add(1)
	a.ovh.Add(trace.OverheadPreempt, c.Now()-t0)
}

// TaskActivate activates a non-recurring task for immediate scheduling —
// yas_task_activate. For sporadic tasks the minimum inter-arrival time is
// enforced. Unlike periodic releases, activation bypasses the scheduler
// tick: the job is pushed and dispatched from the caller's context — and
// since the sharded core it never takes App.mu: the schedView snapshot
// pre-validates the slot lock-free, then the home shard lock is the
// authority for the shard-guarded task fields.
func (a *App) TaskActivate(c rt.Ctx, id TID) error {
	if !a.started.Load() || a.stopping.Load() {
		return fmt.Errorf("core: TaskActivate outside a running schedule")
	}
	v := a.view.Load()
	if v == nil {
		return fmt.Errorf("core: TaskActivate outside a running schedule")
	}
	if int(id) < 0 || int(id) >= int(v.ntasks) {
		return fmt.Errorf("core: no task %d", id)
	}
	if !v.liveBit(int(id)) {
		// Retired/staged in this epoch (or racing a commit): take App.mu for
		// the precise legacy diagnosis.
		a.mu.Lock(c)
		_, err := a.taskByID(id)
		a.mu.Unlock(c)
		if err == nil {
			err = fmt.Errorf("core: task %d changed state; retry", id)
		}
		return err
	}
	t := &a.tasks[id]
	// Home shard lock via load/lock/re-validate (a commit may move the task).
	var sh *releaseShard
	var si int32
	for {
		si = t.shard.Load()
		sh = a.shards[si]
		sh.mu.Lock()
		if t.shard.Load() == si {
			break
		}
		sh.mu.Unlock()
	}
	if t.state != taskRunning {
		st := t.state
		name := t.d.Name
		sh.mu.Unlock()
		return fmt.Errorf("core: task %s is %s; cannot TaskActivate", name, st)
	}
	if t.hasIns {
		name := t.d.Name
		sh.mu.Unlock()
		return fmt.Errorf("core: task %s is data-activated; cannot TaskActivate", name)
	}
	if t.d.Period > 0 && !t.d.Sporadic {
		name := t.d.Name
		sh.mu.Unlock()
		return fmt.Errorf("core: task %s is periodic; the scheduler activates it", name)
	}
	now := c.Now()
	if t.d.Sporadic && t.everActivated && now-t.lastActivation < t.d.Period {
		name := t.d.Name
		since := now - t.lastActivation
		sh.mu.Unlock()
		return fmt.Errorf("%w: task %s, %v since last", ErrMinInterarrival, name, since)
	}
	t.lastActivation = now
	t.everActivated = true
	costs := a.env.Costs()
	j := a.releaseJobShardLocked(sh, int(si), t, now, now)
	cost := costs.QueueOpBase
	if j != nil {
		cost += queueOpCost(costs, sh.q)
	}
	name := t.d.Name
	sh.mu.Unlock()
	c.Charge(cost)
	if j == nil {
		return fmt.Errorf("core: task %s activation dropped (pool exhausted)", name)
	}
	a.dispatch(c)
	return nil
}
