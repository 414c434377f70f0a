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
	fibers  []*fiber
	// Fiber recycling uses the same lock-free freelist scheme as jobs.
	freeFibHead atomic.Uint64

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

	started       atomic.Bool
	stopping      atomic.Bool
	terminating   atomic.Bool
	liveThreads   atomic.Int64
	workersLive   atomic.Int64
	schedLive     atomic.Int64
	fibersSpawned bool
	schedTh       rt.Thread

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
	// guard); vselRest is the version-selection scratch for unaffordable
	// versions (orderByEnergy). Both are reused under the App lock so the
	// scheduling hot path never allocates.
	boostSeen []bool
	vselRest  []VID

	battery *platform.Battery

	rec *trace.Recorder
	ovh *trace.Overheads

	overruns   atomic.Int64
	taskErrors atomic.Int64
	firstError atomic.Pointer[error] // first task-function error; read lock-free by FirstError

	// schedPeriodNs is the scheduler tick period in nanoseconds; atomic
	// because a committed reconfiguration retunes it while the scheduler
	// loop reads it every tick.
	schedPeriodNs atomic.Int64
	startTime     time.Duration
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
	a.vselRest = make([]VID, 0, cfg.MaxVersionsPerTask)
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
	nfib := cfg.Workers + cfg.MaxPendingJobs
	a.fibers = make([]*fiber, nfib)
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

// Started reports whether the schedule is currently running.
func (a *App) Started() bool { return a.started.Load() }

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
	if err == nil || errors.Is(err, ErrTerminated) {
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
	t.fastDone = false
	t.relIdx = -1
	t.pendingData = false
}

// TaskDecl declares a task — the paper's yas_task_decl. The task has no
// versions yet; add at least one with VersionDecl before Start.
func (a *App) TaskDecl(d TData) (TID, error) {
	if a.started.Load() {
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
	if a.started.Load() {
		return -1, ErrStarted
	}
	tk, err := a.taskByID(t)
	if err != nil {
		return -1, err
	}
	if fn == nil {
		return -1, fmt.Errorf("core: task %s: nil version function", tk.d.Name)
	}
	if len(tk.versions) == cap(tk.versions) {
		return -1, fmt.Errorf("%w: MaxVersionsPerTask=%d", ErrTooMany, cap(tk.versions))
	}
	id := VID(len(tk.versions))
	tk.versions = append(tk.versions, version{fn: fn, args: args, props: props, accel: NoAccel})
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
	if a.started.Load() {
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
	if a.started.Load() {
		return ErrStarted
	}
	tk, err := a.taskByID(t)
	if err != nil {
		return err
	}
	if int(v) < 0 || int(v) >= len(tk.versions) {
		return fmt.Errorf("core: task %s has no version %d", tk.d.Name, v)
	}
	if int(h) < 0 || int(h) >= a.naccels {
		return fmt.Errorf("core: no accelerator %d", h)
	}
	// Bindings are normalised to the pool head: acquisition then takes any
	// free instance of the pool.
	tk.versions[v].accel = a.poolHead(h)
	return nil
}

// ChannelDecl declares a FIFO channel of the given capacity —
// yas_channel_decl. Capacity zero declares a pure precedence channel (the
// paper's size-0 fork->left channel): it carries activation tokens only.
// A channel is implemented as a Reject-policy topic with a single anonymous
// cursor, so Push/Pop and Publish/Take interoperate on the same CID.
func (a *App) ChannelDecl(name string, capacity int) (CID, error) {
	if a.started.Load() {
		return -1, ErrStarted
	}
	if capacity < 0 {
		return -1, fmt.Errorf("core: channel %s: negative capacity", name)
	}
	return a.declTopic(name, TopicOpts{Capacity: capacity, Policy: Reject})
}

// ChannelConnect connects src to dst through channel c —
// yas_channel_connect. The connection is also a precedence edge: dst (if
// non-periodic) is activated by the scheduler once every input edge has
// data.
func (a *App) ChannelConnect(src, dst TID, c CID) error {
	return a.connect(src, dst, c, 0)
}

// ChannelConnectDelayed connects src to dst with `delay` initial tokens on
// the edge — the paper's future-work "delay tokens mechanism, thus relaxing
// the acyclic constraint in graph-based task models" (Section 7). A
// consumer can fire `delay` times before its producer ever completes, and
// back edges carrying at least one delay token are permitted: the classic
// SDF feedback-loop construction.
func (a *App) ChannelConnectDelayed(src, dst TID, c CID, delay int) error {
	if delay < 0 {
		return fmt.Errorf("core: negative delay token count %d", delay)
	}
	if delay >= a.cfg.GraphInstanceCap {
		return fmt.Errorf("%w: %d delay tokens with GraphInstanceCap=%d",
			ErrTooMany, delay, a.cfg.GraphInstanceCap)
	}
	return a.connect(src, dst, c, delay)
}

func (a *App) connect(src, dst TID, c CID, delay int) error {
	if a.started.Load() {
		return ErrStarted
	}
	if _, err := a.taskByID(src); err != nil {
		return err
	}
	if _, err := a.taskByID(dst); err != nil {
		return err
	}
	if src == dst {
		return fmt.Errorf("core: channel self-loop on task %d", src)
	}
	if int(c) < 0 || int(c) >= a.ntopics {
		return fmt.Errorf("core: no channel %d", c)
	}
	if len(a.freeEdgeSlots) == 0 && a.nedges == len(a.edges) {
		return fmt.Errorf("%w: MaxChannels=%d edges", ErrTooMany, len(a.edges))
	}
	e := a.allocEdgeSlot()
	*e = edge{src: src, dst: dst, ch: c, initial: delay, stamps: e.stamps}
	if cap(e.stamps) < a.cfg.GraphInstanceCap {
		e.stamps = make([]time.Duration, a.cfg.GraphInstanceCap)
	} else {
		e.stamps = e.stamps[:a.cfg.GraphInstanceCap]
	}
	e.head, e.count = 0, 0
	return nil
}

// SetOfflineTable installs the pre-computed dispatch table for
// MappingOffline.
func (a *App) SetOfflineTable(t *OfflineTable) error {
	if a.started.Load() {
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

// resolve finishes the declaration phase: effective deadlines, root flags,
// static priorities, and structural validation. Called by Start. Tasks left
// draining by a reconfiguration whose jobs a previous Cleanup abandoned are
// force-retired here (their threads are gone); retired slots are skipped.
func (a *App) resolve() error {
	for i := 0; i < a.ntasks; i++ {
		t := &a.tasks[i]
		if t.state == taskDraining {
			t.live.Store(0)
			a.finishRetireLocked(t, a.env.Now())
		}
	}
	if err := a.rebuildGraphLocked(); err != nil {
		return err
	}
	for i := 0; i < a.ntasks; i++ {
		t := &a.tasks[i]
		if t.state == taskRetired {
			continue
		}
		if err := a.deriveTaskLocked(t); err != nil {
			return err
		}
		// nextRelease is left alone: the task may still sit in the previous
		// run's release heap, and Start re-keys every task after resetting it.
		t.lastActivation = 0
		t.everActivated = false
		t.jobSeq = 0
		t.live.Store(0)
		t.draining.Store(false)
	}
	a.resolveTopics()
	return nil
}

// rebuildGraphLocked rebuilds the adjacency lists over alive edges and
// re-checks acyclicity. Shared by resolve (Start) and reconfiguration
// commits.
func (a *App) rebuildGraphLocked() error {
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
	// Cycle check over the edge relation.
	return a.checkAcyclic()
}

// deriveTaskLocked computes one task's derived scheduling state (root flag,
// effective deadline, static priority) and validates its structure. The
// adjacency lists must be current.
func (a *App) deriveTaskLocked(t *task) error {
	if len(t.versions) == 0 {
		return fmt.Errorf("core: task %s has no version", t.d.Name)
	}
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
	for _, e := range t.inEdges {
		if t.d.Period > 0 && e.initial == 0 {
			return fmt.Errorf("core: task %s is data-activated but has a period; only root nodes carry periods (feedback into a periodic root needs delay tokens)", t.d.Name)
		}
	}
	t.effDeadline = t.d.Deadline
	if t.effDeadline == 0 {
		switch {
		case t.d.Period > 0:
			t.effDeadline = t.d.Period // implicit
		case len(t.inEdges) > 0:
			t.effDeadline = a.graphDeadlineFor(t) // inherit from graph roots
		case a.cfg.Mapping == MappingOffline && a.offTable != nil:
			// Table-driven tasks fall back to the table cycle: the
			// off-line synthesiser already proved their placements meet
			// the real deadlines.
			t.effDeadline = a.offTable.Cycle
		default:
			return fmt.Errorf("core: aperiodic task %s needs an explicit deadline", t.d.Name)
		}
	}
	if a.cfg.Mapping == MappingPartitioned {
		if t.d.VirtCore < 0 || t.d.VirtCore >= a.cfg.Workers {
			return fmt.Errorf("core: task %s: VirtCore %d out of [0,%d) for partitioned mapping",
				t.d.Name, t.d.VirtCore, a.cfg.Workers)
		}
	}
	t.staticPrio = a.prioKeyOf(t)
	t.hasIns = len(t.inEdges) > 0
	t.fastDone = len(t.inEdges) == 0 && len(t.outEdges) == 0
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
	return nil
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

// graphDeadlineFor walks back to the graph roots and returns the smallest
// root relative deadline (conservative). A root is what deriveTaskLocked
// calls one — periodic, sporadic or without in-edges — so the walk stops at
// a periodic root even when a delayed feedback edge leads into it.
func (a *App) graphDeadlineFor(t *task) time.Duration {
	best := time.Duration(0)
	seen := make(map[TID]bool)
	var walk func(x *task)
	walk = func(x *task) {
		if seen[x.id] {
			return
		}
		seen[x.id] = true
		if x.d.Period > 0 || x.d.Sporadic || len(x.inEdges) == 0 {
			d := x.d.Deadline
			if d == 0 {
				d = x.d.Period
			}
			if d > 0 && (best == 0 || d < best) {
				best = d
			}
			return
		}
		for _, e := range x.inEdges {
			walk(&a.tasks[e.src])
		}
	}
	walk(t)
	if best == 0 {
		best = time.Second // degenerate: no rooted period found
	}
	return best
}

// Colours of the depth-first cycle searches over zero-delay edges.
const (
	white = iota
	grey
	black
)

// checkAcyclic rejects a cycle over zero-delay edges. Without such an edge
// no cycle is possible, and the search allocates nothing.
func (a *App) checkAcyclic() error {
	zeroDelay := false
	for i := 0; i < a.nedges && !zeroDelay; i++ {
		zeroDelay = !a.edges[i].dead && a.edges[i].initial == 0
	}
	if !zeroDelay {
		return nil
	}
	color := make([]uint8, a.ntasks)
	var visit func(i int) error
	visit = func(i int) error {
		color[i] = grey
		for _, e := range a.tasks[i].outEdges {
			if e.initial > 0 {
				// Delay tokens break the cycle: the edge does not
				// constrain the first e.initial activations.
				continue
			}
			switch color[e.dst] {
			case grey:
				return fmt.Errorf("core: channel graph has a cycle through task %s", a.tasks[e.dst].d.Name)
			case white:
				if err := visit(int(e.dst)); err != nil {
					return err
				}
			}
		}
		color[i] = black
		return nil
	}
	for i := 0; i < a.ntasks; i++ {
		if color[i] == white {
			if err := visit(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// schedGCD derives the scheduler thread period: the GCD of all declared
// periods (Section 3.3). Non-zero release offsets join the GCD so that
// offset releases also fall on the scheduler's activation grid.
func (a *App) schedGCD() time.Duration {
	var g time.Duration
	acc := func(d time.Duration) {
		if d <= 0 {
			return
		}
		if g == 0 {
			g = d
		} else {
			g = gcdDur(g, d)
		}
	}
	for i := 0; i < a.ntasks; i++ {
		t := &a.tasks[i]
		if t.d.Sporadic || !(t.state == taskAdmitted || t.state == taskRunning) {
			continue
		}
		acc(t.d.Period)
		acc(t.d.ReleaseOffset)
	}
	if g == 0 {
		g = time.Millisecond
	}
	return g
}

func gcdDur(x, y time.Duration) time.Duration {
	for y != 0 {
		x, y = y, x%y
	}
	return x
}

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
	j.started, j.fnDone = false, false
	j.start, j.computed = 0, 0
	j.err = nil
	j.poolIdx = idx
	j.heapIdx = -1
	j.shardIdx.Store(-1)
	j.fastSel, j.fastPath = false, false
	j.pendingCharge = 0
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

// freeJobLocked recycles a finished (or never-run) job; caller holds App.mu.
// The slow completion paths, accelerator requeue overflow and the offline
// dispatcher use this variant so draining tasks retire inline.
func (a *App) freeJobLocked(c rt.Ctx, j *job) {
	if j.state.Load() == jobFree {
		panic(fmt.Sprintf("core: double free of job %d", j.poolIdx))
	}
	t := j.t
	j.state.Store(jobFree)
	j.t = nil
	j.fib = nil
	a.pushFreeJob(j)
	var live int32
	if t != nil {
		live = t.live.Add(-1)
	}
	if a.jobsLive.Add(-1) == 0 && a.stopping.Load() {
		a.wakeAllWorkers()
	}
	if t != nil && live == 0 && t.state == taskDraining {
		a.finishRetireLocked(t, c.Now())
	}
}

// freeJob recycles a finished job on the lock-free completion path: the
// caller holds NO locks, and only when the task is draining does retirement
// fall back to App.mu (with a re-check under the lock).
func (a *App) freeJob(c rt.Ctx, j *job) {
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
	if live == 0 && t.draining.Load() {
		a.mu.Lock(c)
		if t.state == taskDraining && t.live.Load() == 0 {
			a.finishRetireLocked(t, c.Now())
		}
		a.mu.Unlock(c)
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
