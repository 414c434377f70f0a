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
//	reconfigMu(1) -> App.mu(2) -> shard.mu[i](3) -> idleMu(4)
//	              -> {Recorder, Overheads, EnergyMeter}(5) -> {Stat, Battery}(6)
//
// All shard locks share one rank (and one analyzer identity), so no code
// path may hold two shard locks at once: stealing and migration lock the
// source and destination shards strictly in sequence, re-validating after
// each acquisition instead of nesting.

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// releaseShard is one leaf of the sharded scheduler core: a ready queue and
// the release heap holding the shard's armed periodic roots, guarded by one
// leaf lock. There is one shard per worker under both mappings (global
// routes tasks by id modulo shard count, partitioned by VirtCore). Worker i
// owns shard i: it pops its own queue under the shard lock and, under the
// global mapping, steals from a sibling's shard by taking only that
// sibling's lock. App.mu is never required on this path.
//
// Lock discipline: shard.mu ranks BELOW App.mu, so commit paths holding
// App.mu may take a shard lock, but never two shard locks at once (see the
// hierarchy above).
type releaseShard struct {
	//yasmin:lockrank 3 nosleep
	mu  sync.Mutex
	q   *readyQueue
	rel releaseHeap
	// nready mirrors q.len() for lock-free load probing (steal victim
	// selection, dispatch wake counts, idle workers' pre-park re-check).
	nready atomic.Int32
	// headPrio/headSeq mirror the queue head's priority key for the lock-free
	// preemption scan; they may tear relative to each other, so decisions
	// based on them are re-validated under the shard lock.
	headPrio atomic.Int64
	headSeq  atomic.Int64
}

// noRunPrio is the head/current mirror sentinel for "nothing here".
const noRunPrio = int64(math.MaxInt64)

// updateHeadLocked refreshes the head mirrors; caller holds sh.mu.
//
//yasmin:noalloc
func (sh *releaseShard) updateHeadLocked() {
	if h := sh.q.peek(); h != nil {
		sh.headPrio.Store(h.effPrio.Load())
		sh.headSeq.Store(h.seq)
	} else {
		sh.headPrio.Store(noRunPrio)
		sh.headSeq.Store(0)
	}
}

// schedView is the immutable scheduling snapshot published at Start and at
// every reconfiguration commit. Readers load it through App.view with a
// single atomic pointer load — no lock, no epoch counter handshake: a
// snapshot is never mutated after publication, so a reader can use a stale
// one safely and re-validate against shard-guarded state once it holds the
// relevant leaf lock. It generalises the topicView pattern to the scheduler
// core: task-slot liveness, queue routing and the priority configuration
// become lock-free reads.
//
//yasmin:immutable
type schedView struct {
	epoch   int64
	ntasks  int32
	nq      int32
	mapping MappingScheme
	prio    PriorityAssignment
	// live is a bitmap over task slots: bit set = the slot holds a Running
	// or Admitted task in this epoch.
	live []uint64
	// shard is the home shard per task slot at publication time.
	shard []int32
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
		epoch:   a.epoch.Load(),
		ntasks:  int32(nt),
		nq:      int32(len(a.shards)),
		mapping: a.cfg.Mapping,
		prio:    a.cfg.Priority,
		live:    make([]uint64, (nt+63)/64),
		shard:   make([]int32, nt),
	}
	for i := 0; i < nt; i++ {
		t := &a.tasks[i]
		v.shard[i] = t.shard.Load()
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
			sh.updateHeadLocked()
		}
		cost := queueOpCost(a.env.Costs(), sh.q)
		sh.mu.Unlock()
		c.Charge(cost)
		return err == nil
	}
}

// SchedStats returns the sharded-scheduler counters for the current run:
// work-stealing traffic, cross-shard preemption migrations, idle-list
// wakes, preemption-signal dedup hits and schedView publications.
func (a *App) SchedStats() trace.SchedStats {
	return trace.SchedStats{
		Steals:         a.steals.Load(),
		StealMisses:    a.stealMisses.Load(),
		Migrations:     a.migrations.Load(),
		IdleWakes:      a.idleWakes.Load(),
		Signals:        a.signalsSent.Load(),
		SignalsDeduped: a.signalsDeduped.Load(),
		ViewPublishes:  a.viewPublishes.Load(),
	}
}
