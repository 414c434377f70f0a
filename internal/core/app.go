package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// Common errors.
var (
	// ErrStarted is returned by declaration calls while the schedule runs:
	// the paper only allows altering the task set while stopped.
	ErrStarted = errors.New("core: schedule is running; stop it first")
	// ErrTerminated is returned from ExecCtx methods when the middleware is
	// cleaning up; task functions must propagate it.
	ErrTerminated = errors.New("core: middleware terminated")
	// ErrTooMany is returned when a static size limit is exceeded.
	ErrTooMany = errors.New("core: static size limit exceeded")
	// ErrMinInterarrival is returned by TaskActivate when a sporadic task is
	// activated faster than its declared minimum inter-arrival time.
	ErrMinInterarrival = errors.New("core: sporadic activation before minimum inter-arrival")
)

// App is one YASMIN middleware instance: the Go analogue of the library
// linked into the end-user program. All declaration methods must run before
// Start (or between Stop and a new Start, enabling the paper's multi-mode
// scheduling); Start spawns the scheduler and worker threads on the
// configured cores.
type App struct {
	cfg Config
	env rt.Env

	// mu protects the reconfiguration surface, the task graph (edges,
	// pending-data backlog), and accelerator arbitration. It is OFF the
	// steady-state scheduling path: releases, dispatch, execution and
	// isolated-task completion run under the per-shard leaf locks alone.
	// Scheduling-critical, so no blocking operation may run while it is held
	// (enforced by yasmin-vet's lockedblock analyzer).
	//yasmin:lockrank 2 nosleep
	mu rt.Lock

	tasks   []task
	ntasks  int
	accels  []accel
	naccels int
	topics  []topic // channels and pub-sub topics; one CID space
	ntopics int
	edges   []edge
	nedges  int

	// byName indexes every non-retired task slot that carries a name
	// (admitted, running, draining or staged) under that name, so a name
	// lookup costs O(incarnations of the name), not O(task table). It is
	// read and written under mu, and changes only where a slot gains or
	// loses a name: TaskDecl and Reconfig.AddTask append, finishRetireLocked
	// and Reconfig.rollback remove (Retune cannot rename). A staged slot in
	// a list always belongs to the open transaction: reconfigMu admits one
	// transaction at a time and no slot outlives it in taskStaged (commit
	// admits every staged slot, rollback retires it), so state == taskStaged
	// means "staged by this transaction" without scanning its added list.
	byName map[string][]TID

	// jobPool recycles through a lock-free Treiber freelist: freeJobHead
	// packs (generation<<32 | poolIdx+1), jobs link via job.nextFree, and
	// the generation counter defeats ABA. jobsLive counts in-flight jobs;
	// the drain and retire protocols poll it instead of scanning queues.
	jobPool     []job
	freeJobHead atomic.Uint64
	jobsLive    atomic.Int64

	workers []*workerState

	// Release shards (ready queue + release heap behind one leaf lock; see
	// releaseShard): one shared by every worker under the global mapping,
	// one per worker otherwise. dataPending queues data-activated tasks
	// whose inputs became ready outside the inline producer-completion
	// path; it is App.mu state, with dataPendingN mirroring its length so
	// the tick skips the App.mu phase when empty.
	shards       []*releaseShard
	dataPending  []*task
	dataPendingN atomic.Int32
	// slowDue is the scheduler's scratch for feedback-root releases (roots
	// with in-edges consume delay tokens, which is graph state) deferred to
	// the App.mu phase of the tick.
	slowDue []slowRelease

	// ticking is the tick seqlock: odd while a release pass is in flight.
	// A worker may retire only when stopping is set and it observes the
	// same even ticking value around a zero jobsLive load — that closes the
	// release-vs-retire race without App.mu. tickSeq numbers dispatch
	// passes for preemption-signal dedup.
	ticking atomic.Int64
	tickSeq atomic.Int64

	// Intrusive doubly-linked idle-worker list: dispatch pops exactly the
	// workers it wakes, O(jobs dispatched), instead of scanning all workers.
	// List membership under idleMu is the single source of truth for
	// idleness (there is no per-worker idle flag).
	//yasmin:lockrank 4 nosleep
	idleMu   sync.Mutex
	idleHead *workerState

	// view is the epoch-published immutable scheduling snapshot (schedView),
	// rebuilt at Start and at every reconfiguration commit; lock-free
	// readers (TaskActivate) load it to pre-validate before touching any
	// lock.
	view atomic.Pointer[schedView]

	// Scheduler counters (exported via SchedStats).
	idleWakes      atomic.Int64
	signalsSent    atomic.Int64
	signalsDeduped atomic.Int64
	viewPublishes  atomic.Int64

	started     atomic.Bool
	stopping    atomic.Bool
	terminating atomic.Bool
	liveThreads atomic.Int64
	runLive     atomic.Int64 // threads still in the run: workers and the scheduler
	schedTh     rt.Thread

	// Live-reconfiguration state. Slot freelists recycle the fixed tables
	// across retire/admit cycles so mode ping-pong never exhausts the
	// static budgets; reconfigMu serialises whole transactions (declaration
	// tables are only mutated by a transaction holding it, plus a.mu for
	// the commit itself).
	// reconfigMu ranks strictly outside mu: a transaction may take mu while
	// holding reconfigMu (the commit), never the reverse (enforced by
	// yasmin-vet's lockorder analyzer).
	//yasmin:lockrank 1
	reconfigMu        rt.Lock
	epoch             atomic.Int64
	freeTaskSlots     []int
	freeEdgeSlots     []int
	freeTopicSlots    []int
	pendingDeadTopics []CID
	ntopicsA          atomic.Int32 // mirror of ntopics for lock-free bounds checks
	modes             map[string]ModePreset
	modeName          atomic.Pointer[string]

	mode    atomic.Uint32
	maskBit atomic.Uint32

	// boostSeen marks pool heads visited by one PIP chain-boost walk (cycle
	// guard), reused under the App lock so the PIP path never allocates.
	boostSeen []bool

	battery *platform.Battery

	rec *trace.Recorder
	ovh *trace.Overheads

	overruns   atomic.Int64
	taskErrors atomic.Int64
	firstError atomic.Pointer[error] // first task-function error; read lock-free by FirstError

	startTime time.Duration
	// jobSeq numbers releases globally; atomic because phase-1 ticks,
	// TaskActivate and App.mu release paths allocate concurrently.
	jobSeq atomic.Int64

	offTable *OfflineTable
}

// New builds an App for the given configuration and environment. Everything
// the scheduling path touches is allocated here.
func New(cfg Config, env rt.Env) (*App, error) {
	if env == nil {
		return nil, fmt.Errorf("core: nil environment")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &App{cfg: cfg, env: env}
	a.mu = env.NewLock(cfg.Lock.rtKind())
	a.reconfigMu = env.NewLock(cfg.Lock.rtKind())
	a.tasks = make([]task, cfg.MaxTasks)
	for i := range a.tasks {
		a.tasks[i].versions = make([]version, 0, cfg.MaxVersionsPerTask)
	}
	a.accels = make([]accel, cfg.MaxAccels)
	for i := range a.accels {
		a.accels[i].waiters = make([]*job, 0, cfg.MaxPendingJobs)
	}
	a.boostSeen = make([]bool, cfg.MaxAccels)
	a.topics = make([]topic, cfg.MaxChannels)
	a.edges = make([]edge, cfg.MaxChannels)
	a.jobPool = make([]job, cfg.MaxPendingJobs)
	// Shards (ready queue + release heap + leaf lock): the global mapping
	// has one, the ready queue all workers share (Section 3.3); partitioned
	// routes tasks by VirtCore to one shard per worker, and offline keeps
	// the same per-worker layout. Each queue holds the whole pool and each
	// release heap the whole task table, so neither push nor arming ever
	// fails or allocates.
	nq := cfg.Workers
	if cfg.Mapping == MappingGlobal {
		nq = 1
	}
	a.shards = make([]*releaseShard, nq)
	for i := range a.shards {
		a.shards[i] = &releaseShard{
			q:   newReadyQueue(cfg.MaxPendingJobs),
			rel: releaseHeap{h: make([]*task, 0, cfg.MaxTasks)},
		}
	}
	a.slowDue = make([]slowRelease, 0, cfg.MaxTasks)
	a.dataPending = make([]*task, 0, cfg.MaxTasks)
	a.workers = make([]*workerState, cfg.Workers)
	for i := range a.workers {
		a.workers[i] = &workerState{
			idx:       i,
			core:      cfg.WorkerCores[i],
			preempted: make([]*job, 0, cfg.MaxPendingJobs),
			vselOrder: make([]VID, 0, cfg.MaxVersionsPerTask),
			vselRest:  make([]VID, 0, cfg.MaxVersionsPerTask),
			shard:     a.shards[i%nq],
		}
	}
	a.Init()
	return a, nil
}

// Init (re)initialises the middleware structures — the paper's yas_init().
// It clears all declarations; it must not be called while started.
func (a *App) Init() {
	a.ntasks = 0
	a.byName = make(map[string][]TID, len(a.tasks))
	a.naccels = 0
	a.ntopics = 0
	a.ntopicsA.Store(0)
	a.nedges = 0
	a.freeJobHead.Store(0)
	for i := len(a.jobPool) - 1; i >= 0; i-- {
		resetJob(&a.jobPool[i], i)
		a.pushFreeJob(&a.jobPool[i])
	}
	a.jobsLive.Store(0)
	a.epoch.Store(0)
	a.freeTaskSlots = a.freeTaskSlots[:0]
	a.freeEdgeSlots = a.freeEdgeSlots[:0]
	a.freeTopicSlots = a.freeTopicSlots[:0]
	a.pendingDeadTopics = a.pendingDeadTopics[:0]
	a.modes = nil
	a.modeName.Store(nil)
	a.mode.Store(0)
	a.maskBit.Store(^uint32(0))
	a.rec = trace.NewRecorder(a.cfg.RecordJobs)
	a.rec.Reserve(a.cfg.MaxTasks, a.cfg.MaxVersionsPerTask)
	if a.cfg.Telemetry != nil {
		// Stream every record (job completions, reconfig commits,
		// retirements, accel arbitration) into the telemetry pipeline;
		// the forward happens lock-free on the record paths.
		a.rec.SetStream(a.cfg.Telemetry)
	}
	a.ovh = trace.NewOverheads()
	a.overruns.Store(0)
	a.taskErrors.Store(0)
	a.firstError.Store(nil)
	a.ticking.Store(0)
	a.tickSeq.Store(0)
	a.dataPendingN.Store(0)
	a.view.Store(nil)
	a.idleWakes.Store(0)
	a.signalsSent.Store(0)
	a.signalsDeduped.Store(0)
	a.viewPublishes.Store(0)
}

// Env returns the execution environment.
func (a *App) Env() rt.Env { return a.env }

// Started reports whether the schedule is currently running: Start has
// been called and the run has not ended. A run ends once Stop has been
// called and no worker or scheduler thread is left; the App then accepts
// declarations and a new Start, as after Cleanup.
func (a *App) Started() bool {
	if !a.started.Load() {
		return false
	}
	return !a.stopping.Load() || a.runLive.Load() > 0
}

// NumTasks returns the number of declared tasks.
func (a *App) NumTasks() int { return a.ntasks }

// NumChannels returns the number of declared channels and topics.
func (a *App) NumChannels() int { return a.ntopics }

// NumAccels returns the number of declared accelerators.
func (a *App) NumAccels() int { return a.naccels }

// Config returns a copy of the effective configuration.
func (a *App) Config() Config { return a.cfg }

// Recorder returns the job/metric recorder of the current run.
func (a *App) Recorder() *trace.Recorder { return a.rec }

// Overheads returns the middleware-overhead samples of the current run.
func (a *App) Overheads() *trace.Overheads { return a.ovh }

// Overruns returns the number of dropped activations (pool or queue
// exhaustion, graph backlog overflow).
func (a *App) Overruns() int64 { return a.overruns.Load() }

// TaskErrors returns the number of task-function errors observed.
func (a *App) TaskErrors() int64 { return a.taskErrors.Load() }

// FirstError returns the first task-function error, if any.
func (a *App) FirstError() error {
	if p := a.firstError.Load(); p != nil {
		return *p
	}
	return nil
}

// recordTaskError counts a task-function failure and keeps the first one;
// termination sentinels are not failures. Shared by the online and offline
// completion paths. Every job passes through here, so only the failure path
// may allocate: taking the parameter's address would move it to the heap on
// every call.
func (a *App) recordTaskError(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, ErrTerminated) { //yasmin:alloc-ok a failed job only
		return
	}
	a.taskErrors.Add(1)
	first := err
	a.firstError.CompareAndSwap(nil, &first)
}

// SetBattery attaches a battery model used by SelectEnergy and drained by
// job execution.
func (a *App) SetBattery(b *platform.Battery) { a.battery = b }

// SetMode switches the execution mode (SelectMode); mode is a small integer
// < 32 matched against VSelect.Modes bitmasks. Callable at runtime: the
// paper's multi-security-mode example switches modes while running.
func (a *App) SetMode(mode uint32) { a.mode.Store(mode) }

// Mode returns the current execution mode.
func (a *App) Mode() uint32 { return a.mode.Load() }

// SetPermissionMask sets the bitmask for SelectBitmask.
func (a *App) SetPermissionMask(mask uint32) { a.maskBit.Store(mask) }

// validateTData checks declaration-time task parameters (shared by TaskDecl
// and the reconfiguration transaction).
func validateTData(d TData) error {
	if d.Name == "" {
		return fmt.Errorf("core: task needs a name")
	}
	if d.Period < 0 || d.Deadline < 0 || d.ReleaseOffset < 0 {
		return fmt.Errorf("core: task %s: negative timing parameter", d.Name)
	}
	return nil
}

// allocTaskSlot reserves a task slot, recycling retired slots before growing
// the high-water mark. Caller holds a.mu when the schedule may be running.
func (a *App) allocTaskSlot() (*task, TID, error) {
	if n := len(a.freeTaskSlots); n > 0 {
		idx := a.freeTaskSlots[n-1]
		a.freeTaskSlots = a.freeTaskSlots[:n-1]
		t := &a.tasks[idx]
		resetTaskSlot(t, TID(idx))
		return t, TID(idx), nil
	}
	if a.ntasks == len(a.tasks) {
		return nil, -1, fmt.Errorf("%w: MaxTasks=%d", ErrTooMany, len(a.tasks))
	}
	id := TID(a.ntasks)
	t := &a.tasks[a.ntasks]
	resetTaskSlot(t, id)
	a.ntasks++
	return t, id, nil
}

// resetTaskSlot wipes a task slot for a new incarnation, keeping slice
// capacity. The slot is never armed here: removal disarms a task before it
// drains, long before its slot recycles.
func resetTaskSlot(t *task, id TID) {
	// Field-wise reset: the struct carries atomics and cannot be copied.
	t.id = id
	t.d = TData{}
	t.versions = t.versions[:0]
	t.state = taskAdmitted
	t.shard.Store(0)
	t.live.Store(0)
	t.draining.Store(false)
	t.retireEpoch = 0
	t.outEdges = t.outEdges[:0]
	t.inEdges = t.inEdges[:0]
	t.effDeadline = 0
	t.root = false
	t.nextRelease = 0
	t.lastActivation = 0
	t.everActivated = false
	t.jobSeq = 0
	t.staticPrio = 0
	t.subTopics = t.subTopics[:0]
	t.pubTopics = t.pubTopics[:0]
	t.hasIns = false
	t.fastSel = false
	t.isolated = false
	t.graphName = ""
	t.relIdx = -1
	t.pendingData = false
}

// resetRun readies t for a run or a new incarnation: its first release falls
// at now plus its offset, and it has no job or activation yet. Shared by
// Start and the commit that admits a staged task. Caller holds t's home
// shard lock, or the App is quiescent.
func (t *task) resetRun(now time.Duration) {
	t.nextRelease = now + t.d.ReleaseOffset
	t.lastActivation = 0
	t.everActivated = false
	t.jobSeq = 0
	t.live.Store(0)
	t.draining.Store(false)
}

// TaskDecl declares a task — the paper's yas_task_decl. The task has no
// versions yet; add at least one with VersionDecl before Start.
func (a *App) TaskDecl(d TData) (TID, error) {
	if a.Started() {
		return -1, ErrStarted
	}
	if err := validateTData(d); err != nil {
		return -1, err
	}
	t, id, err := a.allocTaskSlot()
	if err != nil {
		return -1, err
	}
	t.d = d
	a.indexTaskName(t)
	return id, nil
}

// VersionDecl adds an implementation to a task — yas_version_decl. args is
// passed to fn on every job (the C API's f_static_args).
func (a *App) VersionDecl(t TID, fn TaskFunc, args any, props VSelect) (VID, error) {
	if a.Started() {
		return -1, ErrStarted
	}
	tk, err := a.taskByID(t)
	if err != nil {
		return -1, err
	}
	return tk.addVersion(fn, args, props)
}

// addVersion checks and appends one implementation of t: the shared half of
// VersionDecl and Reconfig.AddVersion.
func (t *task) addVersion(fn TaskFunc, args any, props VSelect) (VID, error) {
	if fn == nil {
		return -1, fmt.Errorf("core: task %s: nil version function", t.d.Name)
	}
	if len(t.versions) == cap(t.versions) {
		return -1, fmt.Errorf("%w: MaxVersionsPerTask=%d", ErrTooMany, cap(t.versions))
	}
	id := VID(len(t.versions))
	t.versions = append(t.versions, version{fn: fn, args: args, props: props, accel: NoAccel})
	return id, nil
}

// HwAccelDecl declares a hardware accelerator — yas_hwaccel_decl. If the
// platform knows an accelerator with this name its speed/power are used.
func (a *App) HwAccelDecl(name string) (HID, error) {
	return a.HwAccelDeclPool(name, 1)
}

// HwAccelDeclPool declares a pool of count interchangeable accelerator
// instances (e.g. two identical DSP cores). The returned HID is the pool
// head: version bindings (HwAccelUse) reference it, version selection takes
// any free instance, and contention parks jobs on one pool-wide
// priority-ordered waiter list. Instances beyond the head are named
// "name#1", "name#2", ... and each consumes one MaxAccels slot.
func (a *App) HwAccelDeclPool(name string, count int) (HID, error) {
	if a.Started() {
		return -1, ErrStarted
	}
	if name == "" {
		return -1, fmt.Errorf("core: accelerator needs a name")
	}
	if count < 1 {
		return -1, fmt.Errorf("core: accelerator pool %s needs count >= 1, got %d", name, count)
	}
	if a.naccels+count > len(a.accels) {
		return -1, fmt.Errorf("%w: MaxAccels=%d", ErrTooMany, len(a.accels))
	}
	platIdx := -1
	if pl := a.env.Platform(); pl != nil {
		if acc, err := pl.AccelByName(name); err == nil {
			platIdx = acc.ID
		}
	}
	head := HID(a.naccels)
	for k := 0; k < count; k++ {
		ac := &a.accels[a.naccels]
		ac.id = HID(a.naccels)
		ac.name = name
		if k > 0 {
			ac.name = fmt.Sprintf("%s#%d", name, k)
		}
		ac.platIdx = platIdx
		ac.busy = false
		ac.holder = nil
		ac.group = head
		ac.members = nil
		ac.waiters = ac.waiters[:0]
		a.naccels++
	}
	hd := &a.accels[head]
	hd.members = hd.members[:0]
	for k := 0; k < count; k++ {
		hd.members = append(hd.members, head+HID(k))
	}
	return head, nil
}

// HwAccelUse declares that version v of task t uses accelerator h —
// yas_hwaccel_use. The scheduler uses this to steer version selection and
// apply PIP on contention.
func (a *App) HwAccelUse(t TID, v VID, h HID) error {
	if a.Started() {
		return ErrStarted
	}
	tk, err := a.taskByID(t)
	if err != nil {
		return err
	}
	return a.bindAccel(tk, v, h)
}

// bindAccel checks and records that version v of t uses accelerator h: the
// shared half of HwAccelUse and Reconfig.UseAccel.
func (a *App) bindAccel(t *task, v VID, h HID) error {
	if int(v) < 0 || int(v) >= len(t.versions) {
		return fmt.Errorf("core: task %s has no version %d", t.d.Name, v)
	}
	if int(h) < 0 || int(h) >= a.naccels {
		return fmt.Errorf("core: no accelerator %d", h)
	}
	// Bindings are normalised to the pool head: acquisition then takes any
	// free instance of the pool.
	t.versions[v].accel = a.poolHead(h)
	return nil
}

// ChannelDecl declares a FIFO channel of the given capacity —
// yas_channel_decl. Capacity zero declares a pure precedence channel (the
// paper's size-0 fork->left channel): it carries activation tokens only.
// A channel is implemented as a Reject-policy topic with a single anonymous
// cursor, so Push/Pop and Publish/Take interoperate on the same CID.
func (a *App) ChannelDecl(name string, capacity int) (CID, error) {
	if a.Started() {
		return -1, ErrStarted
	}
	opts, err := channelOpts(name, capacity)
	if err != nil {
		return -1, err
	}
	return a.declTopic(name, opts)
}

// channelOpts checks a channel declaration and returns the topic options
// that implement it: the shared check of ChannelDecl and
// Reconfig.AddChannel.
func channelOpts(name string, capacity int) (TopicOpts, error) {
	if capacity < 0 {
		return TopicOpts{}, fmt.Errorf("core: channel %s: negative capacity", name)
	}
	return TopicOpts{Capacity: capacity, Policy: Reject}, nil
}

// ChannelConnect connects src to dst through channel c —
// yas_channel_connect. The connection is also a precedence edge: dst (if
// non-periodic) is activated by the scheduler once every input edge has
// data.
func (a *App) ChannelConnect(src, dst TID, c CID) error {
	return a.ChannelConnectDelayed(src, dst, c, 0)
}

// ChannelConnectDelayed connects src to dst with `delay` initial tokens on
// the edge — the paper's future-work "delay tokens mechanism, thus relaxing
// the acyclic constraint in graph-based task models" (Section 7). A
// consumer can fire `delay` times before its producer ever completes, and
// back edges carrying at least one delay token are permitted: the classic
// SDF feedback-loop construction.
func (a *App) ChannelConnectDelayed(src, dst TID, c CID, delay int) error {
	if a.Started() {
		return ErrStarted
	}
	if err := a.checkEdge(src, dst, delay); err != nil {
		return err
	}
	if _, err := a.taskByID(src); err != nil {
		return err
	}
	if _, err := a.taskByID(dst); err != nil {
		return err
	}
	if int(c) < 0 || int(c) >= a.ntopics {
		return fmt.Errorf("core: no channel %d", c)
	}
	if len(a.freeEdgeSlots) == 0 && a.nedges == len(a.edges) {
		return fmt.Errorf("%w: MaxChannels=%d edges", ErrTooMany, len(a.edges))
	}
	a.newEdge(src, dst, c, delay)
	return nil
}

// checkEdge checks an edge's shape — its delay-token count and that it is
// no self-loop: the shared check of ChannelConnectDelayed and
// Reconfig.ConnectDelayed.
func (a *App) checkEdge(src, dst TID, delay int) error {
	if delay < 0 {
		return fmt.Errorf("core: negative delay token count %d", delay)
	}
	if delay >= a.cfg.GraphInstanceCap {
		return fmt.Errorf("%w: %d delay tokens with GraphInstanceCap=%d",
			ErrTooMany, delay, a.cfg.GraphInstanceCap)
	}
	if src == dst {
		return fmt.Errorf("core: channel self-loop on task %d", src)
	}
	return nil
}

// newEdge takes an edge slot (recycling severed ones first) and initialises
// it as src->dst through c carrying delay initial tokens, with an empty
// stamp ring of GraphInstanceCap entries. Caller holds the lock (or the App
// is quiescent); capacity was checked.
func (a *App) newEdge(src, dst TID, c CID, delay int) *edge {
	var e *edge
	if n := len(a.freeEdgeSlots); n > 0 {
		e = &a.edges[a.freeEdgeSlots[n-1]]
		a.freeEdgeSlots = a.freeEdgeSlots[:n-1]
	} else {
		e = &a.edges[a.nedges]
		a.nedges++
	}
	stamps := e.stamps
	if cap(stamps) < a.cfg.GraphInstanceCap {
		stamps = make([]time.Duration, a.cfg.GraphInstanceCap)
	}
	*e = edge{src: src, dst: dst, ch: c, initial: delay, stamps: stamps[:a.cfg.GraphInstanceCap]}
	return e
}

// SetOfflineTable installs the pre-computed dispatch table for
// MappingOffline.
func (a *App) SetOfflineTable(t *OfflineTable) error {
	if a.Started() {
		return ErrStarted
	}
	if a.cfg.Mapping != MappingOffline {
		return fmt.Errorf("core: offline table requires MappingOffline")
	}
	if err := t.validate(a); err != nil {
		return err
	}
	a.offTable = t
	return nil
}

func (a *App) taskByID(t TID) (*task, error) {
	if int(t) < 0 || int(t) >= a.ntasks {
		return nil, fmt.Errorf("core: no task %d", t)
	}
	tk := &a.tasks[t]
	if tk.state == taskRetired || tk.state == taskStaged {
		return nil, fmt.Errorf("core: no task %d (slot %s)", t, tk.state)
	}
	return tk, nil
}

// indexTaskName adds a slot that just gained its name to byName. Caller
// holds the lock (or the App is quiescent).
func (a *App) indexTaskName(t *task) {
	a.byName[t.d.Name] = append(a.byName[t.d.Name], t.id)
}

// unindexTaskName drops a slot that is losing its name from byName,
// deleting the key with its last slot so the index never outgrows the live
// names. Caller holds the lock (or the App is quiescent).
func (a *App) unindexTaskName(t *task) {
	ids := a.byName[t.d.Name]
	for i, id := range ids {
		if id == t.id {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			break
		}
	}
	if len(ids) == 0 {
		delete(a.byName, t.d.Name)
	} else {
		a.byName[t.d.Name] = ids
	}
}

// taskIDByName returns the highest admitted/running TID with the given
// name, else the lowest draining one (name reuse across a drain), else -1;
// staged slots are ignored. Caller holds the lock (or the App is quiescent).
func (a *App) taskIDByName(name string) TID {
	live, draining := TID(-1), TID(-1)
	for _, id := range a.byName[name] {
		switch a.tasks[id].state {
		case taskAdmitted, taskRunning:
			live = max(live, id)
		case taskDraining:
			if draining < 0 || id < draining {
				draining = id
			}
		}
	}
	if live >= 0 {
		return live
	}
	return draining
}

// stagedTaskByName returns the slot the open transaction staged under name,
// or -1 (see byName for why taskStaged identifies it). Caller holds the lock.
func (a *App) stagedTaskByName(name string) TID {
	for _, id := range a.byName[name] {
		if a.tasks[id].state == taskStaged {
			return id
		}
	}
	return -1
}

// TaskIDByName returns the TID of the named live task, or -1. It reads the
// name index without the App lock, which a concurrent retirement writes, so
// call it only at declaration time or after Cleanup; inside a transaction
// use Reconfig.TaskID.
func (a *App) TaskIDByName(name string) TID { return a.taskIDByName(name) }

// Epoch returns the number of committed reconfiguration transactions.
func (a *App) Epoch() int { return int(a.epoch.Load()) }

// ModeName returns the name of the last mode preset switched to ("" before
// any SwitchMode).
func (a *App) ModeName() string {
	if p := a.modeName.Load(); p != nil {
		return *p
	}
	return ""
}

// prioKeyOf computes the static part of a task's priority key.
func (a *App) prioKeyOf(t *task) int64 {
	switch a.cfg.Priority {
	case PriorityRM:
		return int64(t.d.Period)
	case PriorityDM:
		return int64(t.effDeadline)
	case PriorityUser:
		return int64(t.d.Priority)
	default: // EDF: dynamic, computed at release
		return 0
	}
}

// resolve finishes the declaration phase: structural validation, adjacency
// lists, effective deadlines, root flags and static priorities. Called by
// Start. Tasks left draining by a reconfiguration whose jobs a previous
// Cleanup abandoned are force-retired here (their threads are gone);
// retired slots are skipped. The declared tables are checked as the target
// of an empty transaction, with the transaction's own rules: cycles first,
// then each task by TID, which is derived once it passed. Start is
// quiescent, so the check takes no lock and charges no cost.
func (a *App) resolve() error {
	for i := 0; i < a.ntasks; i++ {
		t := &a.tasks[i]
		if t.state == taskDraining {
			t.live.Store(0)
			a.finishRetireLocked(t, a.env.Now())
		}
	}
	tx := &Reconfig{a: a}
	tx.g = tx.graph()
	if err := tx.checkCycles(tx.g); err != nil {
		return err
	}
	a.rebuildGraphLocked()
	for t, d := range tx.targetTasks() {
		if err := tx.checkTask(tx.g, t, d); err != nil {
			return err
		}
		a.deriveTaskLocked(tx, t)
	}
	a.resolveTopics()
	return nil
}

// rebuildGraphLocked rebuilds the adjacency lists over alive edges. Shared
// by resolve (Start) and reconfiguration commits, both of which have
// checked the graph already.
func (a *App) rebuildGraphLocked() {
	for i := 0; i < a.ntasks; i++ {
		t := &a.tasks[i]
		t.outEdges = t.outEdges[:0]
		t.inEdges = t.inEdges[:0]
	}
	for i := 0; i < a.nedges; i++ {
		e := &a.edges[i]
		if e.dead {
			continue
		}
		a.tasks[e.src].outEdges = append(a.tasks[e.src].outEdges, e)
		a.tasks[e.dst].inEdges = append(a.tasks[e.dst].inEdges, e)
	}
}

// deriveTaskLocked computes one task's derived scheduling state (root flag,
// effective deadline, static priority, home shard). The adjacency lists
// must be current, tx.g must hold the same edges, and the task must have
// passed Reconfig.checkTask, so derivation cannot fail.
func (a *App) deriveTaskLocked(tx *Reconfig, t *task) {
	// Derived fields are shard-guarded (the release tick reads them under
	// the home shard lock, without App.mu), so rewriting them for a new
	// epoch takes that lock on top of App.mu (rank 2 -> 3). A home move
	// (partitioned retune changing VirtCore) is published under the OLD
	// home's lock, after disarming any release still pending there — the
	// commit's re-arm pass arms it under the new home.
	sh := a.shards[t.shard.Load()]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t.root = t.d.Period > 0 || t.d.Sporadic || len(t.inEdges) == 0
	t.effDeadline = t.d.Deadline
	if t.effDeadline == 0 {
		switch {
		case t.d.Period > 0:
			t.effDeadline = t.d.Period // implicit
		case len(t.inEdges) > 0:
			// Inherited from the graph roots, as admission tested it; 1 s
			// when no root has a deadline.
			if _, t.effDeadline = tx.g.rootTiming(tx, t.id); t.effDeadline == 0 {
				t.effDeadline = time.Second
			}
		default:
			// checkTask leaves only a table-driven task here: it falls back
			// to the table cycle, since the off-line synthesiser already
			// proved its placements meet the real deadlines.
			t.effDeadline = a.offTable.Cycle
		}
	}
	t.staticPrio = a.prioKeyOf(t)
	t.hasIns = len(t.inEdges) > 0
	if t.hasIns && t.graphName == "" {
		// Built once per slot incarnation (a task keeps its name): a
		// draining task is not re-derived, but may become a sink when its
		// successors leave, so every data-activated task gets one.
		t.graphName = "graph:" + t.d.Name
	}
	t.isolated = len(t.inEdges) == 0 && len(t.outEdges) == 0
	t.fastSel = a.cfg.VersionSelect != SelectUser
	for i := range t.versions {
		if t.versions[i].accel != NoAccel {
			t.fastSel = false
			break
		}
	}
	if nsi := int32(a.homeShardOf(t)); nsi != t.shard.Load() {
		sh.rel.disarm(t)
		t.shard.Store(nsi)
	}
}

// homeShardOf routes a task to its home release shard: its virtual core
// under the partitioned mapping, id modulo shard count otherwise (always
// the one shared shard under global).
func (a *App) homeShardOf(t *task) int {
	if a.cfg.Mapping == MappingPartitioned {
		if t.d.VirtCore >= 0 && t.d.VirtCore < len(a.shards) {
			return t.d.VirtCore
		}
		return 0
	}
	return int(t.id) % len(a.shards)
}

// Colours of the depth-first cycle search over zero-delay edges
// (txGraph.cycle).
const (
	white = iota
	grey
	black
)

// resetJob wipes a job slot for a new incarnation. Field-wise: the struct
// carries atomics and cannot be copied.
func resetJob(j *job, idx int) {
	j.t = nil
	j.seq, j.taskSeq = 0, 0
	j.state.Store(jobFree)
	j.release, j.stamp, j.absDL = 0, 0, 0
	j.basePrio = 0
	j.effPrio.Store(0)
	j.version = 0
	j.accel, j.nested, j.waitingOn = NoAccel, NoAccel, NoAccel
	j.midWait = false
	j.fib = nil
	j.worker.Store(-1)
	j.preempts = 0
	j.start, j.computed = 0, 0
	j.err = nil
	j.poolIdx = idx
	j.heapIdx = -1
	j.shardIdx.Store(-1)
	j.fastSel, j.isolated = false, false
}

// pushFreeJob returns a job slot to the lock-free pool freelist. The slot
// must not be touched after the CAS succeeds: it may be re-allocated
// immediately by another thread.
//
//yasmin:noalloc
func (a *App) pushFreeJob(j *job) {
	idx := uint64(uint32(j.poolIdx + 1))
	for {
		h := a.freeJobHead.Load()
		j.nextFree.Store(int32(uint32(h)) - 1)
		nh := (h>>32+1)<<32 | idx
		if a.freeJobHead.CompareAndSwap(h, nh) {
			return
		}
	}
}

// allocJob pops a job from the pool freelist lock-free; nil when exhausted
// (counted by caller). The generation counter in the packed head defeats
// ABA on concurrent pop/push/pop interleavings.
//
//yasmin:noalloc
func (a *App) allocJob() *job {
	for {
		h := a.freeJobHead.Load()
		idx := int(int32(uint32(h))) - 1
		if idx < 0 {
			return nil
		}
		j := &a.jobPool[idx]
		next := uint64(uint32(j.nextFree.Load() + 1))
		nh := (h>>32+1)<<32 | next
		if !a.freeJobHead.CompareAndSwap(h, nh) {
			continue
		}
		if j.state.Load() != jobFree {
			panic(fmt.Sprintf("core: allocJob handing out live job %d (state=%d, task=%v)",
				idx, j.state.Load(), j.t != nil))
		}
		resetJob(j, idx)
		a.jobsLive.Add(1)
		return j
	}
}

// recycleJobUnreleased returns a just-allocated job that never became
// visible to any scheduler structure (ready-queue overflow). Safe under any
// lock: touches only atomics.
//
//yasmin:noalloc
func (a *App) recycleJobUnreleased(j *job) {
	j.state.Store(jobFree)
	j.t = nil
	a.pushFreeJob(j)
	if a.jobsLive.Add(-1) == 0 && a.stopping.Load() {
		a.wakeAllWorkers() //yasmin:alloc-ok stop-drain wake, only on the last-job edge of a stop
	}
}

// freeJob recycles a finished (or never-run) job. locked reports whether
// the caller holds App.mu. When j was the last live job of a draining task,
// the task retires: inline when locked, else freeJob returns the task and
// the caller retires it once it has taken App.mu (retireDrainedLocked).
//
//yasmin:noalloc
func (a *App) freeJob(c rt.Ctx, j *job, locked bool) *task {
	if j.state.Load() == jobFree {
		panic(fmt.Sprintf("core: double free of job %d", j.poolIdx))
	}
	t := j.t
	j.state.Store(jobFree)
	j.t = nil
	j.fib = nil
	a.pushFreeJob(j)
	live := t.live.Add(-1)
	if a.jobsLive.Add(-1) == 0 && a.stopping.Load() {
		a.wakeAllWorkers()
	}
	if live != 0 || !t.draining.Load() {
		return nil
	}
	if !locked {
		return t
	}
	a.retireDrainedLocked(t, c.Now()) //yasmin:alloc-ok retirement ends a reconfiguration, once per removed task
	return nil
}

// retireDrainedLocked retires t if it is still draining with no live job:
// a commit or another completion may have retired it first. Caller holds
// App.mu.
func (a *App) retireDrainedLocked(t *task, now time.Duration) {
	if t.state == taskDraining && t.live.Load() == 0 {
		a.finishRetireLocked(t, now)
	}
}

// finishRetireLocked completes a draining task's retirement: the last
// in-flight job finished, so the task's topic endpoints are scrubbed (its
// cursors no longer hold back the shared buffers), its slot returns to the
// freelist, and topics waiting on it may die. Only the task's own endpoint
// lists (pubTopics/subTopics) are visited — retirement cost is O(endpoints
// of the retiring task), not O(topics declared), keeping cursor scans off
// the reconfiguration hot path. Caller holds the lock.
func (a *App) finishRetireLocked(t *task, now time.Duration) {
	a.setTaskStateLocked(t, taskRetired)
	a.unindexTaskName(t)
	t.draining.Store(false)
	for _, c := range t.pubTopics {
		tp := &a.topics[c]
		if tp.dead {
			continue
		}
		changed := false
		for k := len(tp.pubs) - 1; k >= 0; k-- {
			if tp.pubs[k] == t.id {
				tp.pubs = append(tp.pubs[:k], tp.pubs[k+1:]...)
				changed = true
			}
		}
		if changed {
			tp.publishView()
		}
	}
	for _, c := range t.subTopics {
		tp := &a.topics[c]
		if tp.dead {
			continue
		}
		changed := false
		for k := len(tp.subs) - 1; k >= 0; k-- {
			if tp.subs[k].task == t.id {
				tp.subs = append(tp.subs[:k], tp.subs[k+1:]...)
				changed = true
			}
		}
		if !changed {
			continue
		}
		if len(tp.subs) == 0 {
			// The last registered subscriber is gone: its unconsumed
			// backlog is unclaimable, so discard it and park the
			// anonymous cursor at the tail — a stale cursor must not
			// block surviving publishers forever.
			tp.anon = tp.tail
		}
		if tp.buf != nil {
			tp.gc() // retired cursors no longer hold entries back
		}
		tp.publishView()
	}
	t.subTopics = t.subTopics[:0]
	t.pubTopics = t.pubTopics[:0]
	a.freeTaskSlots = append(a.freeTaskSlots, int(t.id))
	a.rec.RecordRetire(trace.RetireEvent{Task: t.d.Name, Epoch: t.retireEpoch, At: now})
	a.reapDeadTopicsLocked()
}

// reapDeadTopicsLocked kills pending-removal topics whose endpoints have all
// retired. Caller holds the lock.
func (a *App) reapDeadTopicsLocked() {
	kept := a.pendingDeadTopics[:0]
	for _, c := range a.pendingDeadTopics {
		tp := &a.topics[c]
		if len(tp.pubs) == 0 && len(tp.subs) == 0 {
			a.killTopicLocked(tp)
		} else {
			kept = append(kept, c)
		}
	}
	a.pendingDeadTopics = kept
}
