package core

import (
	"fmt"

	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// MappingScheme selects where ready jobs live (paper Section 3.3/3.4).
type MappingScheme int

// Mapping schemes.
const (
	// MappingGlobal shares one ready queue among all worker threads.
	MappingGlobal MappingScheme = iota + 1
	// MappingPartitioned gives each worker thread its own ready queue; every
	// task is bound to a virtual core (TData.VirtCore).
	MappingPartitioned
	// MappingOffline runs a pre-computed time-triggered table per worker
	// (Section 3.4); no scheduler thread is spawned.
	MappingOffline
)

func (m MappingScheme) String() string {
	switch m {
	case MappingGlobal:
		return "global"
	case MappingPartitioned:
		return "partitioned"
	case MappingOffline:
		return "offline"
	default:
		return fmt.Sprintf("MappingScheme(%d)", int(m))
	}
}

// PriorityAssignment selects the priority ordering of the ready queues.
type PriorityAssignment int

// Priority assignments (Section 3.3).
const (
	// PriorityRM orders by period (rate monotonic, static).
	PriorityRM PriorityAssignment = iota + 1
	// PriorityDM orders by relative deadline (deadline monotonic, static).
	PriorityDM
	// PriorityEDF orders by absolute deadline (dynamic).
	PriorityEDF
	// PriorityUser orders by TData.Priority (static, user-defined).
	PriorityUser
)

func (p PriorityAssignment) String() string {
	switch p {
	case PriorityRM:
		return "RM"
	case PriorityDM:
		return "DM"
	case PriorityEDF:
		return "EDF"
	case PriorityUser:
		return "user"
	default:
		return fmt.Sprintf("PriorityAssignment(%d)", int(p))
	}
}

// VersionSelectMethod selects how the runtime picks among a task's versions
// (Section 3.2: five options, chosen at compile time).
type VersionSelectMethod int

// Version-selection methods.
const (
	// SelectFirst always picks the first declared runnable version (the
	// degenerate single-version behaviour).
	SelectFirst VersionSelectMethod = iota + 1
	// SelectEnergy picks the best-quality version whose energy budget the
	// current battery level affords.
	SelectEnergy
	// SelectTradeoff minimises alpha*WCET + (1-alpha)*energy.
	SelectTradeoff
	// SelectMode picks the first version whose mode mask matches the
	// application's current execution mode.
	SelectMode
	// SelectBitmask picks the first version whose permission mask intersects
	// the application's current permission mask.
	SelectBitmask
	// SelectUser delegates to a user callback.
	SelectUser
)

func (v VersionSelectMethod) String() string {
	switch v {
	case SelectFirst:
		return "first"
	case SelectEnergy:
		return "energy"
	case SelectTradeoff:
		return "tradeoff"
	case SelectMode:
		return "mode"
	case SelectBitmask:
		return "bitmask"
	case SelectUser:
		return "user"
	default:
		return fmt.Sprintf("VersionSelectMethod(%d)", int(v))
	}
}

// WaitStrategy selects how idle threads wait (Section 3.5 "Waiting"):
// sleeping enters the (hard to analyse) kernel, spinning wastes energy but
// wakes instantly.
type WaitStrategy int

// Wait strategies.
const (
	WaitSleep WaitStrategy = iota + 1
	WaitSpin
)

func (w WaitStrategy) String() string {
	switch w {
	case WaitSleep:
		return "sleep"
	case WaitSpin:
		return "spin"
	default:
		return fmt.Sprintf("WaitStrategy(%d)", int(w))
	}
}

// LockChoice selects the internal lock implementation (Section 3.5
// "Locking"): POSIX mutexes or lock-free/spin algorithms.
type LockChoice int

// Lock choices.
const (
	LockPOSIX LockChoice = iota + 1
	LockFree
)

func (l LockChoice) String() string {
	switch l {
	case LockPOSIX:
		return "posix"
	case LockFree:
		return "lockfree"
	default:
		return fmt.Sprintf("LockChoice(%d)", int(l))
	}
}

func (l LockChoice) rtKind() rt.LockKind {
	if l == LockFree {
		return rt.LockSpin
	}
	return rt.LockOS
}

// Config is the static middleware configuration — the Go analogue of the
// paper's config.h (Listing 1). One policy per App; switching policies means
// building a new App, as recompilation does in C.
type Config struct {
	Mapping       MappingScheme
	Priority      PriorityAssignment
	VersionSelect VersionSelectMethod
	Wait          WaitStrategy
	Lock          LockChoice

	// Workers is the number of worker threads (virtual CPUs); THREADS_SIZE.
	Workers int
	// WorkerCores pins each worker to a platform core; len == Workers.
	// Leave nil to pin workers to cores 1..Workers with the scheduler on 0.
	WorkerCores []int
	// SchedulerCore pins the scheduler thread (online mappings only).
	SchedulerCore int

	// Static sizes, mirroring *_SIZE macros.
	MaxTasks           int // PERIODIC_TASK_SIZE + NONPERIODIC_TASK_SIZE
	MaxVersionsPerTask int // VERSION_MAX_SIZE
	MaxChannels        int // CHANNEL_SIZE
	MaxAccels          int // HWACCEL_SIZE
	// MaxPendingJobs bounds simultaneously live jobs (ready + running +
	// preempted). Releases beyond it are dropped and counted as overruns.
	MaxPendingJobs int
	// GraphInstanceCap bounds in-flight activations per graph edge.
	GraphInstanceCap int

	// TradeoffAlpha weights WCET vs energy for SelectTradeoff, in [0,1].
	TradeoffAlpha float64
	// UserSelect is the SelectUser callback.
	UserSelect SelectFunc
	// Preemption enables signal-based preemption (online mappings).
	Preemption bool
	// AsyncAccel enables the asynchronous-accelerator extension (the
	// paper's "future work" in Section 3.2): while a job's accelerator
	// section runs, the CPU worker is released to execute other jobs.
	AsyncAccel bool
	// RecordAccel retains every accelerator-arbitration event
	// (acquire/park/boost/grant/requeue/release; memory grows with run
	// length). The scenario checker, yasmin-sim's per-pool report and the
	// contention benchmarks need it; steady production runs leave it off so
	// the arbitration path stays allocation-free.
	RecordAccel bool
	// RecordJobs retains every job record (memory grows with run length);
	// per-task aggregates are always kept.
	RecordJobs bool
	// Telemetry, when set, streams every trace record (jobs, reconfig
	// epochs, retirements, accel events — the latter still gated on
	// RecordAccel) into the given consumer as it is produced, without
	// taking the recorder mutex. Wire a *telemetry.Pipeline here for
	// batched JSONL export with backpressure; retention flags above are
	// unaffected (streaming replaces retention only if you turn retention
	// off). The consumer must not block: it runs on the record hot path.
	Telemetry trace.Stream
}

// Validate checks the configuration and fills defaulted fields in place.
func (c *Config) Validate() error {
	if c.Mapping == 0 {
		c.Mapping = MappingGlobal
	}
	if c.Priority == 0 {
		c.Priority = PriorityEDF
	}
	if c.VersionSelect == 0 {
		c.VersionSelect = SelectFirst
	}
	if c.Wait == 0 {
		c.Wait = WaitSleep
	}
	if c.Lock == 0 {
		c.Lock = LockPOSIX
	}
	if c.Workers <= 0 {
		return fmt.Errorf("core: config needs Workers >= 1, got %d", c.Workers)
	}
	if c.WorkerCores == nil {
		c.WorkerCores = make([]int, c.Workers)
		for i := range c.WorkerCores {
			c.WorkerCores[i] = i + 1
		}
		c.SchedulerCore = 0
	}
	if len(c.WorkerCores) != c.Workers {
		return fmt.Errorf("core: WorkerCores has %d entries for %d workers",
			len(c.WorkerCores), c.Workers)
	}
	if c.MaxTasks <= 0 {
		c.MaxTasks = 64
	}
	if c.MaxVersionsPerTask <= 0 {
		c.MaxVersionsPerTask = 4
	}
	if c.MaxChannels < 0 {
		return fmt.Errorf("core: negative MaxChannels")
	}
	if c.MaxChannels == 0 {
		c.MaxChannels = 64
	}
	if c.MaxAccels < 0 {
		return fmt.Errorf("core: negative MaxAccels")
	}
	if c.MaxAccels == 0 {
		c.MaxAccels = 4
	}
	if c.MaxPendingJobs <= 0 {
		c.MaxPendingJobs = 4 * c.MaxTasks
	}
	if c.GraphInstanceCap <= 0 {
		c.GraphInstanceCap = 16
	}
	if c.TradeoffAlpha < 0 || c.TradeoffAlpha > 1 {
		return fmt.Errorf("core: TradeoffAlpha %g out of [0,1]", c.TradeoffAlpha)
	}
	if c.VersionSelect == SelectUser && c.UserSelect == nil {
		return fmt.Errorf("core: SelectUser requires a UserSelect callback")
	}
	switch c.Mapping {
	case MappingGlobal, MappingPartitioned, MappingOffline:
	default:
		return fmt.Errorf("core: unknown mapping scheme %v", c.Mapping)
	}
	switch c.Priority {
	case PriorityRM, PriorityDM, PriorityEDF, PriorityUser:
	default:
		return fmt.Errorf("core: unknown priority assignment %v", c.Priority)
	}
	return nil
}
