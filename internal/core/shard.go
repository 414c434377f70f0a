package core

// Sharded scheduler support: the release shard (ready queue + release heap
// behind one leaf lock), the epoch-published scheduling snapshot
// (schedView), the intrusive idle-worker list, and the shard-targeted
// enqueue helper shared by the scheduler tick, the workers, and the
// accelerator arbitration paths.
//
// Lock hierarchy (outermost first), enforced by yasmin-vet's lockorder
// analyzer via the lockrank annotations on each lock:
//
//	reconfigMu(1) -> App.mu(2) -> shard.mu(3) -> idleMu(4)
//	              -> {Recorder, Overheads}(5) -> {Stat, Battery}(6)
//
// All shard locks share one rank (and one analyzer identity), so no code
// path holds two shard locks at once. No path needs to: a queued job is
// popped only by a worker whose shard holds it, and no job moves from one
// shard's queue to another's.

import (
	"sync"
	"sync/atomic"

	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// releaseShard is one leaf of the scheduler core: a ready queue and the
// release heap holding the shard's armed periodic roots, guarded by one
// leaf lock. The global mapping has exactly one shard, the one ready queue
// every worker shares (Section 3.3); partitioned and offline have one per
// worker, routed by VirtCore. Each worker reaches its shard through
// workerState.shard and pops it under the shard lock; App.mu is never
// required on this path.
//
// Lock discipline: shard.mu ranks BELOW App.mu, so commit paths holding
// App.mu may take a shard lock, but never two shard locks at once (see the
// hierarchy above).
type releaseShard struct {
	//yasmin:lockrank 3 nosleep
	mu  sync.Mutex
	q   *readyQueue
	rel releaseHeap
	// nready mirrors q.len() for lock-free load probing (dispatch wake
	// counts, idle workers' pre-park re-check).
	nready atomic.Int32
}

// schedView is the immutable scheduling snapshot published at Start and at
// every reconfiguration commit. Readers load it through App.view with a
// single atomic pointer load — no lock, no epoch counter handshake: a
// snapshot is never mutated after publication, so a reader can use a stale
// one safely and re-validate against shard-guarded state once it holds the
// relevant leaf lock. It generalises the topicView pattern to the scheduler
// core: task-slot liveness becomes a lock-free read.
//
//yasmin:immutable
type schedView struct {
	ntasks int32
	// live is a bitmap over task slots: bit set = the slot holds a Running
	// or Admitted task in this epoch.
	live []uint64
}

// liveBit reports whether task slot id was live when the view was taken.
//
//yasmin:noalloc
func (v *schedView) liveBit(id int) bool {
	if id < 0 || id >= int(v.ntasks) {
		return false
	}
	return v.live[id>>6]&(1<<(uint(id)&63)) != 0
}

// publishViewLocked rebuilds and publishes the schedView. Caller holds
// App.mu (Start and reconfiguration commits only — this is off the steady
// hot path, so the snapshot allocation is fine).
func (a *App) publishViewLocked() {
	nt := a.ntasks
	v := &schedView{
		ntasks: int32(nt),
		live:   make([]uint64, (nt+63)/64),
	}
	for i := 0; i < nt; i++ {
		t := &a.tasks[i]
		if t.state == taskRunning || t.state == taskAdmitted {
			v.live[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	a.view.Store(v)
	a.viewPublishes.Add(1)
}

// setTaskStateLocked writes a task's lifecycle state under its home shard
// lock (rank 2 -> 3; shard-locked readers like TaskActivate and the release
// tick must never see a torn state). Caller holds App.mu, so t.shard cannot
// move concurrently — only commits move tasks, and commits hold App.mu.
func (a *App) setTaskStateLocked(t *task, st taskState) {
	sh := a.shards[t.shard.Load()]
	sh.mu.Lock()
	t.state = st
	sh.mu.Unlock()
}

// enqueueIdle pushes w onto the idle list. List membership is the single
// source of truth for idleness: a worker is wakeable-for-work exactly while
// linked, and whoever unlinks it (claimIdle/popIdle) owns waking it.
//
//yasmin:noalloc
func (a *App) enqueueIdle(w *workerState) {
	a.idleMu.Lock()
	if !w.onIdle {
		w.onIdle = true
		w.idlePrev = nil
		w.idleNext = a.idleHead
		if a.idleHead != nil {
			a.idleHead.idlePrev = w
		}
		a.idleHead = w
	}
	a.idleMu.Unlock()
}

// claimIdle removes w from the idle list if present; true when this caller
// won the claim. Workers self-claim on every wake-up, so a dispatch claim
// that races a self-claim resolves to exactly one winner.
//
//yasmin:noalloc
func (a *App) claimIdle(w *workerState) bool {
	a.idleMu.Lock()
	ok := w.onIdle
	if ok {
		a.unlinkIdleLocked(w)
	}
	a.idleMu.Unlock()
	return ok
}

// popIdle claims any idle worker, or nil when all are busy.
//
//yasmin:noalloc
func (a *App) popIdle() *workerState {
	a.idleMu.Lock()
	w := a.idleHead
	if w != nil {
		a.unlinkIdleLocked(w)
	}
	a.idleMu.Unlock()
	return w
}

//yasmin:noalloc
func (a *App) unlinkIdleLocked(w *workerState) {
	if w.idlePrev != nil {
		w.idlePrev.idleNext = w.idleNext
	} else {
		a.idleHead = w.idleNext
	}
	if w.idleNext != nil {
		w.idleNext.idlePrev = w.idlePrev
	}
	w.idlePrev, w.idleNext = nil, nil
	w.onIdle = false
}

// wakeAllWorkers unconditionally unparks every worker (stop, drain-to-zero,
// terminate). A token buffered on a busy worker surfaces as one benign
// spurious wake — the park loops tolerate it. Lock-free: safe from any
// context, including under a shard lock.
func (a *App) wakeAllWorkers() {
	for _, w := range a.workers {
		if w.th != nil {
			w.th.Unpark()
		}
	}
}

// pushReady enqueues an already-allocated ready job on its task's home
// shard, resolving the home lock with a load/lock/re-validate loop (a
// commit may move the task between shards concurrently). Caller may hold
// App.mu (rank 2 -> 3 is legal) but no shard lock. Returns false on queue
// overflow — structurally impossible since every queue holds the whole job
// pool, but kept defensive.
func (a *App) pushReady(c rt.Ctx, j *job) bool {
	t := j.t
	for {
		si := t.shard.Load()
		sh := a.shards[si]
		sh.mu.Lock()
		if t.shard.Load() != si {
			sh.mu.Unlock()
			continue
		}
		err := sh.q.push(j)
		if err == nil {
			j.shardIdx.Store(si)
			sh.nready.Add(1)
		}
		cost := queueOpCost(a.env.Costs(), sh.q)
		sh.mu.Unlock()
		c.Charge(cost)
		return err == nil
	}
}

// SchedStats returns the scheduler counters for the current run: idle-list
// wakes, preemption signals and their dedup hits, and schedView
// publications. Steals, StealMisses and Migrations stay 0: no job moves
// between shards.
func (a *App) SchedStats() trace.SchedStats {
	return trace.SchedStats{
		IdleWakes:      a.idleWakes.Load(),
		Signals:        a.signalsSent.Load(),
		SignalsDeduped: a.signalsDeduped.Load(),
		ViewPublishes:  a.viewPublishes.Load(),
	}
}
