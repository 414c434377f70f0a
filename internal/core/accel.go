// Accelerator arbitration (Section 3.2): shared accelerators with the
// Priority Inheritance Protocol. Accelerators declared together form a
// pool of interchangeable instances; version bindings reference the pool,
// acquisition takes any free instance, and contention parks the job on the
// pool's priority-ordered waiter list while the holders inherit the
// waiter's priority — transitively along holder chains (a job can hold one
// accelerator and wait for another via ExecCtx.AccelSectionOn).

package core

import (
	"fmt"

	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/taskset"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// poolHead normalises an instance HID to its pool head.
func (a *App) poolHead(h HID) HID { return a.accels[h].group }

// poolMembers returns the instance HIDs of the pool containing h.
func (a *App) poolMembers(h HID) []HID {
	head := &a.accels[a.accels[h].group]
	if len(head.members) == 0 {
		// Defensive: a head always carries its member list; treat a bare
		// slot as a single-instance pool.
		return []HID{head.id}
	}
	return head.members
}

// poolFreeInstanceLocked returns a free instance of h's pool, or NoAccel
// when every instance is held. Caller holds the lock.
func (a *App) poolFreeInstanceLocked(h HID) HID {
	for _, m := range a.poolMembers(h) {
		if !a.accels[m].busy {
			return m
		}
	}
	return NoAccel
}

// poolAvailableForLocked returns a free instance j may take, or NoAccel.
// Beyond raw occupancy it enforces priority-ordered admission: while a
// strictly more urgent job is parked on the pool, a free instance is
// reserved for it — a less urgent job must park behind rather than overtake
// (the inversion PIP exists to bound must not be re-introduced by the
// acquisition path). Caller holds the lock.
func (a *App) poolAvailableForLocked(j *job, h HID) HID {
	head := a.poolHead(h)
	for _, w := range a.accels[head].waiters {
		if w != j && w.before(j) {
			return NoAccel
		}
	}
	return a.poolFreeInstanceLocked(head)
}

// acquireInstanceLocked marks instance inst held by j and records the
// acquisition. Caller holds the lock; inst is free.
func (a *App) acquireInstanceLocked(c rt.Ctx, inst HID, j *job) {
	ac := &a.accels[inst]
	if ac.busy {
		panic(fmt.Sprintf("core: acquiring busy accelerator %s", ac.name))
	}
	ac.busy = true
	ac.holder = j
	a.recordAccel(c, trace.AccelAcquire, inst, j)
}

// recordAccel emits one arbitration event to the recorder. Gated on
// Config.RecordAccel so the default arbitration path neither allocates nor
// touches the recorder mutex.
func (a *App) recordAccel(c rt.Ctx, kind trace.AccelEventKind, inst HID, j *job) {
	if !a.cfg.RecordAccel {
		return
	}
	a.rec.RecordAccel(trace.AccelEvent{
		Kind:  kind,
		Accel: a.accels[inst].name,
		Pool:  a.accels[a.accels[inst].group].name,
		Task:  j.name,
		Job:   j.taskSeq,
		Prio:  j.effPrio.Load(),
		At:    c.Now(),
	})
}

// insertWaiterLocked places j on the pool head's waiter list, priority
// ordered (most urgent first). Caller holds the lock.
func (a *App) insertWaiterLocked(head HID, j *job) {
	ac := &a.accels[head]
	pos := len(ac.waiters)
	for i, wjob := range ac.waiters {
		if j.before(wjob) {
			pos = i
			break
		}
	}
	ac.waiters = append(ac.waiters, nil)
	copy(ac.waiters[pos+1:], ac.waiters[pos:])
	ac.waiters[pos] = j
}

// resortWaiter is the re-sort boostPoolLocked applies to a boosted holder
// parked on a second pool: resortWaiterLocked, unless
// TestingSetStaleWaiterResortBug swapped in the historical stale-waiter
// defect (stale waiter slots after a chain boost), which skips the re-sort,
// so the holder keeps its park-time position and less urgent waiters can be
// granted ahead of it. The swap exists solely so the scenario fuzzer's
// self-test can prove the generator + checker rediscover a real bug.
var resortWaiter = (*App).resortWaiterLocked

// TestingSetStaleWaiterResortBug toggles the seeded stale-waiter regression
// (see resortWaiter). Test-only: call it only while no App runs.
func TestingSetStaleWaiterResortBug(on bool) {
	resortWaiter = (*App).resortWaiterLocked
	if on {
		resortWaiter = func(*App, HID, *job) {}
	}
}

// resortWaiterLocked re-inserts a parked job whose effective priority just
// changed: a waiter's slot is assigned at park time, so a later PIP boost
// along a holder chain must re-order the list or the most urgent waiter is
// no longer genuinely first. Caller holds the lock.
func (a *App) resortWaiterLocked(head HID, j *job) {
	ac := &a.accels[head]
	for i, wjob := range ac.waiters {
		if wjob == j {
			copy(ac.waiters[i:], ac.waiters[i+1:])
			ac.waiters = ac.waiters[:len(ac.waiters)-1]
			a.insertWaiterLocked(head, j)
			return
		}
	}
}

// parkOnAccel parks a job on a busy pool's waiter list and applies the
// Priority Inheritance Protocol: every holder of the pool less urgent than
// the waiter inherits its priority, transitively along holder chains.
// Caller holds the lock; h may be any instance of the pool.
func (a *App) parkOnAccel(c rt.Ctx, j *job, h HID) {
	head := a.poolHead(h)
	// A pre-run waiter is owned by no shard queue and no worker yet, so the
	// lifecycle store has no concurrent reader to synchronise with.
	j.state.Store(jobAccelWait)
	j.waitingOn = head
	a.insertWaiterLocked(head, j)
	a.recordAccel(c, trace.AccelPark, head, j)
	a.boostChainLocked(c, head, j.effPrio.Load())
}

// boostChainLocked raises every holder of pool head (and, transitively, of
// any pool a boosted holder is itself waiting on) to at least prio. The
// seen scratch guards against cycles in the wait-for graph: a deadlocked
// hold cycle must not turn the boost walk into an infinite recursion (the
// deadlock itself is the application's lock-ordering bug, not ours to
// mask). Caller holds the lock.
func (a *App) boostChainLocked(c rt.Ctx, head HID, prio int64) {
	for i := range a.boostSeen[:a.naccels] {
		a.boostSeen[i] = false
	}
	a.boostPoolLocked(c, head, prio)
}

func (a *App) boostPoolLocked(c rt.Ctx, head HID, prio int64) {
	if a.boostSeen[head] {
		return
	}
	a.boostSeen[head] = true
	for _, m := range a.poolMembers(head) {
		holder := a.accels[m].holder
		if holder == nil || holder.effPrio.Load() <= prio {
			continue
		}
		// PIP boost: the holder inherits the waiter's priority. setEffPrio
		// publishes it where the holder currently lives — heap re-fix if
		// queued, a store under the worker's shard lock if attached to one
		// (a suspended stack job is picked up by the next stackTop scan),
		// a plain store otherwise.
		a.setEffPrio(holder, prio)
		a.recordAccel(c, trace.AccelBoost, m, holder)
		if holder.state.Load() == jobAccelWait && holder.waitingOn != NoAccel {
			// The holder is itself parked on another pool: fix its now-stale
			// waiter slot and push the boost one hop further down the chain.
			resortWaiter(a, holder.waitingOn, holder)
			a.boostPoolLocked(c, holder.waitingOn, prio)
		}
	}
}

// setEffPrio publishes an effective-priority change on a job that may
// concurrently sit in a shard's ready queue (its heap position must be
// fixed under that shard's lock) or run on a worker (whose shard lock
// guards the running job). Caller holds App.mu; the shard lock is taken
// inside (rank 2 -> 3), resolved with the usual load/lock/re-validate loop.
func (a *App) setEffPrio(j *job, prio int64) {
	for {
		if si := j.shardIdx.Load(); si >= 0 {
			sh := a.shards[si]
			sh.mu.Lock()
			if j.shardIdx.Load() != si {
				sh.mu.Unlock()
				continue
			}
			j.effPrio.Store(prio)
			if j.heapIdx >= 0 {
				sh.q.fix(j)
			}
			sh.mu.Unlock()
			return
		}
		if wi := j.worker.Load(); wi >= 0 {
			sh := a.workers[wi].shard
			sh.mu.Lock()
			j.effPrio.Store(prio)
			sh.mu.Unlock()
			return
		}
		// Neither queued nor worker-attached (pre-run accel waiter): no
		// concurrent heap to maintain.
		j.effPrio.Store(prio)
		return
	}
}

// restoreBoostLocked recomputes a job's effective priority after it
// released an instance: the base priority, lowered to the most urgent
// waiter of any pool whose instance the job STILL holds (releasing one of
// two held accelerators must not drop an inheritance the other still
// warrants). Caller holds the lock.
func (a *App) restoreBoostLocked(j *job) {
	prio := j.basePrio
	for _, held := range [2]HID{j.accel, j.nested} {
		if held == NoAccel {
			continue
		}
		head := &a.accels[a.poolHead(held)]
		if len(head.waiters) > 0 && head.waiters[0].effPrio.Load() < prio {
			prio = head.waiters[0].effPrio.Load()
		}
	}
	a.setEffPrio(j, prio)
}

// releaseInstanceLocked frees instance inst (held by j), restores j's
// inherited priority and arbitrates the pool's waiters:
//
//   - a mid-job waiter at the head of the list is granted the instance
//     directly (its fiber is blocked inside AccelSectionOn; it cannot
//     re-run version selection) and woken through its worker;
//   - pre-run waiters are requeued for a fresh scheduling pass — the paper
//     "reschedules the task", which re-runs version selection and may now
//     pick the freed accelerator or a CPU version. Mid-job waiters behind
//     them stay parked; priority-ordered admission (poolAvailableForLocked)
//     keeps requeued jobs from overtaking them.
//
// Caller holds the lock.
func (a *App) releaseInstanceLocked(c rt.Ctx, inst HID, j *job) {
	ac := &a.accels[inst]
	ac.busy = false
	ac.holder = nil
	a.recordAccel(c, trace.AccelRelease, inst, j)
	a.restoreBoostLocked(j)
	head := &a.accels[ac.group]
	if len(head.waiters) == 0 {
		return
	}
	t0 := c.Now()
	requeued := false
	if !head.waiters[0].midWait {
		// The most urgent waiter is a pre-run one: requeue every pre-run
		// waiter for a fresh scheduling pass; mid-job waiters stay parked.
		kept := head.waiters[:0]
		for _, wjob := range head.waiters {
			if wjob.midWait {
				kept = append(kept, wjob)
				continue
			}
			wjob.state.Store(jobReady)
			wjob.waitingOn = NoAccel
			a.recordAccel(c, trace.AccelRequeue, head.id, wjob)
			if !a.pushReady(c, wjob) {
				a.overruns.Add(1)
				a.freeJob(c, wjob, true)
			}
		}
		for i := len(kept); i < len(head.waiters); i++ {
			head.waiters[i] = nil
		}
		head.waiters = kept
		requeued = true
	}
	if len(head.waiters) > 0 && head.waiters[0].midWait {
		// Direct grant to the most urgent (now necessarily mid-job) waiter.
		// This also runs after a requeue pass: a requeued job may re-select
		// a CPU version and never come back for the instance, so leaving it
		// free while a mid-job waiter stays parked could strand that waiter
		// forever. Granting eagerly keeps it live; a re-parking requeued job
		// boosts the new holder, bounding the inversion by one section.
		w := head.waiters[0]
		copy(head.waiters, head.waiters[1:])
		head.waiters[len(head.waiters)-1] = nil
		head.waiters = head.waiters[:len(head.waiters)-1]
		w.waitingOn = NoAccel
		w.midWait = false
		w.nested = inst
		ac.busy = true
		ac.holder = w
		a.recordAccel(c, trace.AccelGrant, inst, w)
		// Re-attach the waiter to a CPU, mirroring rejoinWorker: flip it
		// resumable under its worker's shard lock (rank 2 -> 3) so the
		// worker's stackTop scan sees it, then wake the idle worker or
		// preempt the worker's less urgent current job.
		ww := a.workers[w.worker.Load()]
		wsh := ww.shard
		wsh.mu.Lock()
		w.state.Store(jobAccelResumed)
		cur := ww.current
		var preemptFib *fiber
		if a.cfg.Preemption && cur != nil &&
			cur.state.Load() == jobRunning && w.before(cur) && cur.fib != nil {
			preemptFib = cur.fib
		}
		wsh.mu.Unlock()
		if a.claimIdle(ww) {
			c.Charge(a.env.Costs().DispatchIPI)
			ww.wake()
		} else if preemptFib != nil {
			a.signalFiber(c, preemptFib)
		}
	}
	a.ovh.Add(trace.OverheadDispatch, c.Now()-t0)
	if requeued {
		a.dispatch(c)
	}
}

// releaseAccel releases j's version-bound accelerator instance at job
// completion. Caller holds the lock.
func (a *App) releaseAccel(c rt.Ctx, j *job) {
	inst := j.accel
	j.accel = NoAccel
	a.releaseInstanceLocked(c, inst, j)
}

// AccelBusy reports whether every instance of h's pool is currently held
// (for tests and user selection callbacks running outside the lock it is
// advisory).
func (a *App) AccelBusy(h HID) bool {
	if int(h) < 0 || int(h) >= a.naccels {
		return false
	}
	return a.poolFreeInstanceLocked(h) == NoAccel
}

// AccelIDByName returns the pool head HID of the named accelerator, or
// NoAccel. Like the other declaration-surface accessors it must not race a
// concurrent declaration; call it from declaration time or task code.
func (a *App) AccelIDByName(name string) HID {
	for i := 0; i < a.naccels; i++ {
		if a.accels[i].name == name && a.accels[i].group == HID(i) {
			return HID(i)
		}
	}
	return NoAccel
}

// AccelPoolSize returns the number of instances in h's pool (0 for an
// unknown HID).
func (a *App) AccelPoolSize(h HID) int {
	if int(h) < 0 || int(h) >= a.naccels {
		return 0
	}
	return len(a.poolMembers(h))
}

// accelUsesLocked returns a task's worst-case critical section on EVERY
// pool its versions can run on, for the blocking-aware admission test
// (VSelect.AccelCS; the whole version WCET when undeclared —
// conservative). Version selection is dynamic, so omitting any pool would
// make the analysis unsound. Caller holds the lock.
func (a *App) accelUsesLocked(t *task) []taskset.AccelUse {
	var uses []taskset.AccelUse
	for vi := range t.versions {
		v := &t.versions[vi]
		if v.accel == NoAccel {
			continue
		}
		c := v.props.AccelCS
		if c <= 0 {
			c = v.props.WCET
		}
		if v.props.WCET > 0 && c > v.props.WCET {
			c = v.props.WCET
		}
		if c <= 0 {
			continue
		}
		head := a.poolHead(v.accel)
		name := a.accels[head].name
		found := false
		for i := range uses {
			if uses[i].Pool == name {
				if c > uses[i].CS {
					uses[i].CS = c
				}
				found = true
				break
			}
		}
		if !found {
			uses = append(uses, taskset.AccelUse{Pool: name, CS: c, Count: len(a.poolMembers(head))})
		}
	}
	return uses
}
