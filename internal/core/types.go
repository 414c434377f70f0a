package core

import (
	"fmt"
	"sync/atomic"
	"time"
)

// TID identifies a declared task.
type TID int

// VID identifies a version within its task.
type VID int

// HID identifies a declared hardware accelerator.
type HID int

// CID identifies a declared communication endpoint: a FIFO channel or a
// pub-sub topic. Channels and topics share one ID space (and the
// Config.MaxChannels budget); a legacy channel IS a 1-publisher/1-subscriber
// Reject topic under the hood.
type CID int

// NoAccel marks a version that runs purely on the CPU.
const NoAccel HID = -1

// NoCore marks a task not bound to a virtual core (global mapping).
const NoCore = -1

// TData describes a task at declaration time — the paper's struct TData
// (Table 1). Some fields are optional depending on the configured policy.
type TData struct {
	Name string
	// Period is the minimal inter-arrival time T. Zero makes the task
	// non-recurring: it is either data-activated (a non-root graph node) or
	// aperiodic (activated via TaskActivate).
	Period time.Duration
	// Deadline is the relative deadline D; zero means implicit (D = T for
	// periodic tasks, the graph deadline for data-activated nodes).
	Deadline time.Duration
	// VirtCore binds the task to a worker under MappingPartitioned
	// (the paper's virt_core_id); NoCore (or 0..Workers-1) otherwise.
	VirtCore int
	// ReleaseOffset delays the first periodic release.
	ReleaseOffset time.Duration
	// Priority is the static priority under PriorityUser (lower = more
	// urgent).
	Priority int
	// Sporadic marks tasks released by TaskActivate with Period acting as
	// the minimum inter-arrival time enforced by the runtime.
	Sporadic bool
}

// TaskFunc is a task version's entry point. It runs on a job fiber; all
// interaction with time, channels and accelerators goes through the ExecCtx.
// args carries the static argument registered at VersionDecl.
type TaskFunc func(x *ExecCtx, args any) error

// VSelect carries a version's extra-functional properties; which fields
// matter depends on Config.VersionSelect (the paper morphs the structure per
// method; Go lets us keep a single struct).
type VSelect struct {
	// WCET is the version's worst-case execution time (informative; used by
	// SelectTradeoff and the off-line scheduler).
	WCET time.Duration
	// AccelCS is the worst-case length of the version's accelerator
	// critical section (the AccelSection part of WCET). The blocking-aware
	// admission test derives priority-inversion bounds from it; zero on an
	// accelerator-bound version falls back to the full WCET (conservative).
	AccelCS time.Duration
	// EnergyBudget is the version's per-job energy in millijoules
	// (SelectEnergy, SelectTradeoff).
	EnergyBudget float64
	// GetBatteryStatus returns the platform battery level in percent
	// (SelectEnergy). Tasks sharing a battery share the callback.
	GetBatteryStatus func() float64
	// MinBattery is the battery percentage below which this version is not
	// affordable (SelectEnergy); 0 means always affordable.
	MinBattery float64
	// Quality ranks functionally-equivalent versions (SelectEnergy prefers
	// the highest affordable quality).
	Quality int
	// Modes is the bitmask of execution modes this version serves
	// (SelectMode).
	Modes uint32
	// Mask is the permission bitmask (SelectBitmask).
	Mask uint32
}

// VersionInfo is the read-only view handed to user selection callbacks.
type VersionInfo struct {
	ID         VID
	Props      VSelect
	Accel      HID
	AccelBusy  bool
	AccelOwner TID // valid when AccelBusy
}

// SelectState is the runtime context for user selection callbacks.
type SelectState struct {
	Now     time.Duration
	Mode    uint32
	Mask    uint32
	Battery float64 // percent, -1 when no battery is attached
}

// SelectFunc is the SelectUser callback: return the version to run, or a
// negative VID to defer (the job is rescheduled when an accelerator frees
// up).
type SelectFunc func(t TID, versions []VersionInfo, st SelectState) VID

// taskState tracks a task through the live-reconfiguration lifecycle
// (Admitted -> Running -> Draining -> Retired). The zero value is Admitted:
// every Table-1 declaration starts there and Start promotes it to Running.
// Staged marks a slot reserved by an open Reconfig transaction — invisible
// to the scheduler until the transaction commits (or rolled back on abort).
type taskState int

const (
	taskAdmitted taskState = iota // declared; not yet released by a schedule
	taskRunning                   // eligible for job releases
	taskStaged                    // reserved by an uncommitted transaction
	taskDraining                  // removed; in-flight jobs finish, no new releases
	taskRetired                   // fully drained; slot reusable
)

func (s taskState) String() string {
	switch s {
	case taskAdmitted:
		return "admitted"
	case taskRunning:
		return "running"
	case taskStaged:
		return "staged"
	case taskDraining:
		return "draining"
	case taskRetired:
		return "retired"
	default:
		return fmt.Sprintf("taskState(%d)", int(s))
	}
}

// version is a registered implementation of a task.
type version struct {
	fn    TaskFunc
	args  any
	props VSelect
	accel HID
}

// task is the runtime task record.
//
// Locking: the scheduling-hot fields (state, nextRelease, lastActivation,
// everActivated, jobSeq, effDeadline, staticPrio, root, hasIns, fastSel,
// fastDone, relIdx and d itself) are guarded by the task's HOME SHARD lock
// (shards[t.shard].mu): the scheduler tick and TaskActivate
// read and write them under the shard lock alone, and a reconfiguration
// commit — which holds App.mu — additionally takes the home shard lock
// around every write. Graph fields (outEdges/inEdges, pendingData) remain
// pure App.mu state.
type task struct {
	id       TID
	d        TData
	versions []version // len grows to cfg.MaxVersionsPerTask
	// state is the reconfiguration lifecycle state; written under App.mu
	// plus the task's home shard lock, read under either.
	state taskState
	// shard is the task's home release shard (queue + release heap). Readers
	// resolve the home lock with a load/lock/re-validate loop: a commit
	// moving the task (partitioned retune) stores the new index under the
	// OLD shard's lock, so a reader that re-reads the same index after
	// locking holds the task's current home lock.
	shard atomic.Int32
	// live counts in-flight jobs (ready + running + suspended); a Draining
	// task retires when it reaches zero. Atomic: the lock-free completion
	// path decrements it without App.mu.
	live atomic.Int32
	// draining mirrors state == taskDraining for the lock-free completion
	// path: only when it is set does freeJob take App.mu to retire.
	draining atomic.Bool
	// retireEpoch is the reconfiguration epoch whose transaction started
	// this task's drain.
	retireEpoch int
	// Graph links derived from ChannelConnect.
	outEdges []*edge
	inEdges  []*edge
	// effDeadline is the effective relative deadline (implicit resolved).
	effDeadline time.Duration
	// root marks periodic or sporadic tasks (released by the scheduler /
	// TaskActivate); non-roots are data-activated.
	root bool
	// nextRelease is the next periodic release instant — the release-heap
	// key while armed: change it only together with arm (see releaseHeap).
	nextRelease time.Duration
	// lastActivation enforces sporadic minimum inter-arrival.
	lastActivation time.Duration
	everActivated  bool
	jobSeq         int64
	// staticPrio caches the RM/DM/user priority key.
	staticPrio int64
	// subTopics lists the topics this task subscribes to, sorted by topic
	// priority then declaration order (maintained incrementally and rebuilt
	// at Start; drives TakeAny).
	subTopics []CID
	// pubTopics lists the topics this task publishes on. Together with
	// subTopics it lets retirement scrub exactly the task's own endpoints
	// instead of scanning every declared topic.
	pubTopics []CID

	// hasIns mirrors len(inEdges) > 0 so the release path can classify
	// feedback roots without reading graph state (shard-guarded).
	hasIns bool
	// fastSel marks tasks whose version selection never consults accelerator
	// or user-callback state (no accelerator-bound versions, not SelectUser):
	// workers select their version lock-free.
	fastSel bool
	// fastDone marks graph-isolated tasks (no in or out edges): completion
	// has no successors to release or tokens to consume, so the worker
	// finishes the job without App.mu.
	fastDone bool

	// relIdx is the task's slot in its home shard's release heap, -1 while
	// not armed (periodic roots only; see release.go).
	relIdx int32
	// pendingData marks a data-activated task queued on the scheduler's
	// catch-up list (seeded delay tokens, post-commit input backlogs).
	// Guarded by App.mu (graph state).
	pendingData bool
}

// periodicRoot reports whether the scheduler releases t on its period — the
// tasks that belong on a release heap. Caller holds t's home shard lock.
//
//yasmin:noalloc
func (t *task) periodicRoot() bool {
	return t.state == taskRunning && t.root && t.d.Period > 0 && !t.d.Sporadic
}

// edge is a producer->consumer dependency created by ChannelConnect. The
// stamps FIFO carries the root-release instant of each in-flight graph
// activation (bounded by GraphInstanceCap). Edges with initial (delay)
// tokens — the paper's announced future-work extension — start pre-seeded,
// which both breaks cycles and lets a consumer fire ahead of its producer.
type edge struct {
	src, dst TID
	ch       CID
	initial  int             // delay tokens pre-seeded at Start
	stamps   []time.Duration // ring buffer, preallocated
	head     int
	count    int
	// dead marks an edge severed by a reconfiguration (its endpoint was
	// removed or it was explicitly disconnected); the slot is recycled.
	dead bool
}

func (e *edge) pushStamp(t time.Duration) bool {
	if e.count == len(e.stamps) {
		return false
	}
	e.stamps[(e.head+e.count)%len(e.stamps)] = t
	e.count++
	return true
}

func (e *edge) popStamp() (time.Duration, bool) {
	if e.count == 0 {
		return 0, false
	}
	s := e.stamps[e.head]
	e.head = (e.head + 1) % len(e.stamps)
	e.count--
	return s, true
}

// jobState tracks a job through its life cycle. It is an int32 alias so the
// constants feed job.state's atomic accessors directly.
type jobState = int32

const (
	jobFree jobState = iota
	jobReady
	jobRunning
	jobPreempted    // suspended by a preemption signal, on a worker's stack
	jobAccelWait    // parked on a busy accelerator's waiter list
	jobAccelAsync   // executing its accelerator section without a CPU worker
	jobAccelResumed // accelerator section done, waiting for a CPU worker
)

// job is one activation of a task. Jobs live in a fixed pool allocated at
// New and recycle through a lock-free Treiber freelist; the scheduling path
// never allocates.
//
// Locking: heap position (heapIdx) and state transitions of queued or
// stack-resident jobs are guarded by the shard lock that currently holds the
// job (shardIdx while queued, the owning worker's shard while on a stack).
// effPrio, worker and shardIdx are atomics so readers without that lock
// (PIP boosts locating the job, accelerator arbitration) never tear; their
// writers still follow the shard-lock discipline so heap invariants hold.
type job struct {
	t *task
	// name snapshots t.d.Name at fill time: Retune rewrites t.d under
	// App.mu plus the home shard lock, while completion records, energy
	// accounting and ExecCtx read the running job's name with neither.
	name    string
	seq     int64 // global FIFO tie-breaker
	taskSeq int64 // job index within the task
	// state is atomic because writers hold whichever shard lock owns the
	// job's current home (run handshake, suspension, accelerator rejoin)
	// while the accelerator arbitration paths read it under App.mu alone.
	state    atomic.Int32
	release  time.Duration
	stamp    time.Duration // root release of the graph activation
	absDL    time.Duration
	basePrio int64
	effPrio  atomic.Int64 // may be boosted by PIP
	version  VID
	accel    HID // version-bound accelerator instance held, NoAccel otherwise
	// nested is the instance held by an in-flight ExecCtx.AccelSectionOn
	// (explicit mid-job section on a second accelerator), NoAccel otherwise.
	// A job holds at most one version-bound and one nested instance; holder
	// chains of arbitrary depth form across jobs (A holds X and waits for Y,
	// B holds Y and waits for Z, ...).
	nested HID
	// waitingOn is the pool head this job is parked on while jobAccelWait
	// (NoAccel otherwise); midWait distinguishes a mid-job waiter (bound
	// fiber, granted the freed instance directly) from a pre-run waiter
	// (requeued for a fresh version-selection pass on release).
	waitingOn HID
	midWait   bool
	fib       *fiber
	worker    atomic.Int32 // executing worker index, -1 otherwise
	preempts  int
	started   bool
	fnDone    bool // version function returned (set by the fiber)
	start     time.Duration
	computed  time.Duration // accumulated Compute time (energy accounting)
	err       error
	poolIdx   int
	// heapIdx is the job's slot in its ready queue's heap, -1 while not
	// enqueued (intrusive index: no per-queue position map on the hot path).
	heapIdx int
	// shardIdx is the shard whose ready queue holds the job, -1 otherwise
	// (a boosted job is re-located with a load/lock/re-validate loop on
	// this field).
	shardIdx atomic.Int32
	// fastSel / fastPath capture the task's fastSel / fastDone flags at
	// release time (stable for the job's lifetime without further locking).
	fastSel  bool
	fastPath bool
	// pendingCharge is dispatch bookkeeping cost (context switch, queue ops)
	// the worker defers to the fiber, which lazily folds it into the job
	// body's first timed primitive.
	pendingCharge time.Duration
	// nextFree links the job into the lock-free pool freelist; atomic so a
	// racing allocator's stale read of a just-pushed slot is well-defined
	// (the CAS generation check discards the value).
	nextFree atomic.Int32
}

// before orders jobs by effective priority then FIFO.
func (j *job) before(k *job) bool {
	jp, kp := j.effPrio.Load(), k.effPrio.Load()
	if jp != kp {
		return jp < kp
	}
	return j.seq < k.seq
}

// accel is one declared hardware accelerator INSTANCE and its PIP state.
// Instances declared together (HwAccelDeclPool with Count > 1) form a pool:
// version bindings reference the pool head, acquisition takes any free
// instance, and waiters park on the head's list only.
type accel struct {
	id      HID
	name    string
	platIdx int // index into platform.Accels, -1 when simulated generically
	busy    bool
	holder  *job
	group   HID    // pool head HID (== id for the head / single accelerators)
	members []HID  // pool head only: every instance HID, head first
	waiters []*job // pool head only: priority-ordered, preallocated capacity
}

// The channel FIFO of Table 1 lives on as the degenerate topic: see
// topic.go. ChannelDecl declares a topic with Reject overflow and a single
// anonymous cursor, which behaves exactly like the paper's bounded FIFO.
