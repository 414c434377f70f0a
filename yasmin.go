// Package yasmin is a Go reproduction of "YASMIN: a Real-time Middleware for
// COTS Heterogeneous Platforms" (Rouxel, Altmeyer, Grelck — MIDDLEWARE 2021):
// user-space real-time scheduling of multi-version task sets, with global,
// partitioned and off-line (table-driven) policies, DAG task graphs over
// FIFO channels, accelerator-aware version selection and priority
// inheritance.
//
// The facade re-exports the stable surface of the implementation packages:
//
//   - the middleware itself (App, Config, TData, VSelect, ExecCtx, ...),
//   - the execution environments (deterministic virtual-time simulation and
//     the best-effort wall-clock backend),
//   - platform models (Odroid-XU4, Apalis TK1) and kernel latency models,
//   - the off-line schedule synthesiser.
//
// Quick start (wall clock, fluent builder):
//
//	env := yasmin.NewOSEnv()
//	app, err := yasmin.NewApp("ticker").
//		Task("tick").Period(20*time.Millisecond).
//		Version(func(x *yasmin.ExecCtx, _ any) error {
//			return x.Compute(time.Millisecond)
//		}, yasmin.VSelect{}).
//		Build(yasmin.Config{Workers: 2}, env)
//	env.RunMain(func(c yasmin.Ctx) {
//		app.Start(c)
//		c.Sleep(time.Second)
//		app.Stop(c)
//		app.Cleanup(c)
//	})
//
// # Communication: topics and typed ports
//
// Tasks communicate through topics: named pub-sub channels connecting N
// publishers to M subscribers over ONE shared buffer (per-subscriber
// cursors — no per-subscriber copies), with a per-topic priority, capacity
// and overflow policy (Reject: publish fails when full, the paper's
// Table-1 semantics; DropOldest: bounded-lag streaming; Latest: conflation
// for sensor streams). Typed ports pin the element type and direction at
// compile time:
//
//	tele := b.Topic("telemetry", yasmin.TopicOpts{Capacity: 1, Policy: yasmin.Latest})
//	out := yasmin.PubOf[Reading](tele) // in the sensor task:  yasmin.Send(x, out, r)
//	in := yasmin.SubOf[Reading](tele)  // in a monitor task:   yasmin.Recv(x, in)
//
// On the wall-clock backend, multi-publisher topics fan in through a
// lock-free MPSC ring, so publishers never serialise on the middleware
// lock. The paper's point-to-point FIFO API (ChannelDecl / Push / Pop) is
// the degenerate case — a 1-publisher/1-subscriber Reject topic — and keeps
// working unchanged.
//
// Applications can equally be loaded from declarative JSON spec files —
// tasks, versions (with WCETs, energy budgets, accelerator bindings),
// channels and topics — and instantiated on any environment:
//
//	s, _ := yasmin.LoadSpecFile("app.json")
//	app, _ := s.Build(yasmin.Config{Workers: 2}, env)
//
// The imperative Table-1 calls (TaskDecl, VersionDecl, ChannelDecl,
// ChannelConnect, and the topic extensions TopicDecl/TopicPub/TopicSub)
// remain available on App for fine-grained control; the spec layer performs
// exactly those calls.
//
// # Live reconfiguration
//
// The Table-1 lifecycle freezes declarations at Start; YASMIN instead
// reconfigures running applications transactionally. App.Reconfigure
// batches add/remove/retune operations, validates them, runs an online
// admission test (response-time / demand-bound / density analysis matching
// the configured mapping and priority policy) and commits at a quiescent
// point: removed tasks drain at job boundaries, surviving tasks — and their
// in-flight topic state — are untouched. Infeasible transactions are
// rejected with ErrNotSchedulable naming the offending task while the
// application keeps running. Declaratively, Diff computes the transaction
// between two AppSpecs, SwitchSpec applies it, and AppSpec.Modes +
// App.SwitchMode drive named mission phases (see examples/mode-switch).
//
// # Accelerators
//
// Shared accelerators (Section 3.2) are declared as pools of
// interchangeable instances (App.HwAccelDeclPool, AccelSpec.Count,
// Builder.AccelPool); version selection takes any free instance and
// contention is arbitrated with the Priority Inheritance Protocol —
// transitively along holder chains, since ExecCtx.AccelSectionOn lets a
// job run a section on a second accelerator while still holding its
// version-bound one. Admission prices the contention: per-task PIP
// blocking bounds (declare section lengths with VSelect.AccelCS) join the
// schedulability tests, so a Reconfigure transaction that only fits by
// ignoring priority inversion is rejected with the blocking term named.
// See examples/accel-pool.
//
// See examples/ for the paper's diamond-graph listing, the Search & Rescue
// drone application, off-line scheduling, design-space exploration, and the
// telemetry-fanout pub-sub demo; see cmd/ for the tools that regenerate the
// paper's Fig. 2, Table 2 and Fig. 4.
package yasmin

import (
	"time"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/kernel"
	"github.com/yasmin-rt/yasmin/internal/offline"
	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/sim"
	"github.com/yasmin-rt/yasmin/internal/spec"
	"github.com/yasmin-rt/yasmin/internal/taskset"
)

// Middleware types (paper Table 1 API).
type (
	// App is a YASMIN middleware instance.
	App = core.App
	// Config is the static configuration (the paper's config.h).
	Config = core.Config
	// TData describes a task at declaration.
	TData = core.TData
	// VSelect carries a version's extra-functional properties.
	VSelect = core.VSelect
	// ExecCtx is the execution context passed to task functions.
	ExecCtx = core.ExecCtx
	// TaskFunc is a task version entry point.
	TaskFunc = core.TaskFunc
	// SelectFunc is the user version-selection callback.
	SelectFunc = core.SelectFunc
	// VersionInfo is the per-version view given to SelectFunc.
	VersionInfo = core.VersionInfo
	// SelectState is the runtime state given to SelectFunc.
	SelectState = core.SelectState
	// OfflineTable is a pre-computed dispatch table.
	OfflineTable = core.OfflineTable
	// TableEntry is one off-line dispatch slot.
	TableEntry = core.TableEntry
	// TID, VID, HID and CID identify tasks, versions, accelerators and
	// channels/topics.
	TID = core.TID
	VID = core.VID
	HID = core.HID
	CID = core.CID
)

// Pub-sub messaging layer: topics connect N publishers to M subscribers
// over one shared buffer; typed Ports make the endpoints compile-time safe.
type (
	// TopicOpts configures a topic (capacity, overflow policy, priority).
	TopicOpts = core.TopicOpts
	// OverflowPolicy selects what a full topic does on publish.
	OverflowPolicy = core.OverflowPolicy
	// Port is a typed, directional topic endpoint (see PubOf/SubOf).
	Port[T any] = core.Port[T]
	// PortDir distinguishes publish from subscribe ports.
	PortDir = core.PortDir
)

// Overflow policies and port directions.
const (
	// Reject fails the publish when the slowest subscriber's backlog is at
	// capacity — the Table-1 push-fails-when-full semantics.
	Reject = core.Reject
	// DropOldest overwrites the oldest retained entry when full.
	DropOldest = core.DropOldest
	// Latest conflates: a take returns only the newest published value.
	Latest = core.Latest

	// PubPort marks a typed port as a publish endpoint.
	PubPort = core.PubPort
	// SubPort marks a typed port as a subscribe endpoint.
	SubPort = core.SubPort
)

// PubOf wraps topic c as a typed publish endpoint.
func PubOf[T any](c CID) Port[T] { return core.PubOf[T](c) }

// SubOf wraps topic c as a typed subscribe endpoint.
func SubOf[T any](c CID) Port[T] { return core.SubOf[T](c) }

// Send publishes v through a typed publish port.
func Send[T any](x *ExecCtx, p Port[T], v T) error { return core.Send(x, p, v) }

// Recv takes the next pending value through a typed subscribe port; ok is
// false when nothing is pending.
func Recv[T any](x *ExecCtx, p Port[T]) (v T, ok bool, err error) { return core.Recv(x, p) }

// Configuration enums.
const (
	// MappingGlobal shares one ready queue among all worker threads.
	MappingGlobal = core.MappingGlobal
	// MappingPartitioned gives each worker its own ready queue; every task
	// is bound to a virtual core.
	MappingPartitioned = core.MappingPartitioned
	// MappingOffline runs a pre-computed time-triggered dispatch table.
	MappingOffline = core.MappingOffline

	// PriorityRM orders ready jobs by period (rate monotonic).
	PriorityRM = core.PriorityRM
	// PriorityDM orders ready jobs by relative deadline (deadline
	// monotonic).
	PriorityDM = core.PriorityDM
	// PriorityEDF orders ready jobs by absolute deadline.
	PriorityEDF = core.PriorityEDF
	// PriorityUser orders ready jobs by the user-assigned static priority.
	PriorityUser = core.PriorityUser

	// SelectFirst always runs the first declared runnable version.
	SelectFirst = core.SelectFirst
	// SelectEnergy runs the best-quality version the battery affords.
	SelectEnergy = core.SelectEnergy
	// SelectTradeoff minimises alpha*WCET + (1-alpha)*energy.
	SelectTradeoff = core.SelectTradeoff
	// SelectMode runs the first version matching the execution mode.
	SelectMode = core.SelectMode
	// SelectBitmask runs the first version whose permission mask matches.
	SelectBitmask = core.SelectBitmask
	// SelectUser delegates version selection to a user callback.
	SelectUser = core.SelectUser

	// WaitSleep parks idle workers in the kernel (energy over latency).
	WaitSleep = core.WaitSleep
	// WaitSpin busy-waits idle workers (latency over energy).
	WaitSpin = core.WaitSpin

	// LockPOSIX uses POSIX-style mutexes for the internal locks.
	LockPOSIX = core.LockPOSIX
	// LockFree uses spin/lock-free algorithms for the internal locks.
	LockFree = core.LockFree

	// NoAccel marks CPU-only versions.
	NoAccel = core.NoAccel

	// UnpinnedCore spawns environment threads without core affinity.
	UnpinnedCore = rt.UnpinnedCore
)

// New creates a middleware instance on the given environment.
func New(cfg Config, env Env) (*App, error) { return core.New(cfg, env) }

// Live reconfiguration: App.Reconfigure batches add/remove/retune of tasks,
// topics and edges into one transaction, validates it, runs the online
// admission test (internal/analysis keyed on Config.Mapping+Priority) and
// commits at a quiescent point — removed tasks drain at job boundaries,
// unaffected tasks never stop. Declaratively, Diff computes the same
// transaction from two AppSpecs and SwitchSpec applies it; AppSpec.Modes
// plus App.SwitchMode drive named mission phases.
type (
	// Reconfig is a live reconfiguration transaction (see App.Reconfigure).
	Reconfig = core.Reconfig
	// ModePreset is a named reconfiguration recipe (App.InstallMode).
	ModePreset = core.ModePreset
	// NotSchedulableError carries the task an admission rejection pins the
	// violation on; it matches ErrNotSchedulable via errors.Is.
	NotSchedulableError = core.NotSchedulableError
	// ModeSpec declares a named mode (active task subset) in an AppSpec.
	ModeSpec = spec.ModeSpec
	// Plan is the transaction Diff derives from two AppSpecs.
	Plan = spec.Plan
	// PlanChannel identifies a channel a Plan removes.
	PlanChannel = spec.PlanChannel
)

// Sentinel errors.
var (
	// ErrNotSchedulable matches every admission rejection (errors.Is); the
	// concrete value is a *NotSchedulableError naming the offending task.
	ErrNotSchedulable = core.ErrNotSchedulable
	// ErrStarted is returned by declaration calls while the schedule runs;
	// use Reconfigure/SwitchMode/SwitchSpec for live changes instead.
	ErrStarted = core.ErrStarted
)

// Diff computes the reconfiguration Plan turning one AppSpec into another.
var Diff = spec.Diff

// SwitchSpec diffs two AppSpecs and applies the plan to a (running or
// stopped) App in one admitted, quiescent transaction.
var SwitchSpec = spec.SwitchSpec

// Declarative application descriptions (the spec layer): a serializable
// AppSpec mirrors the whole Table-1 construction surface, and the fluent
// Builder constructs one from code with accumulated (not per-call) errors.
type (
	// AppSpec is a complete, JSON-(de)serializable application description.
	AppSpec = spec.Spec
	// TaskSpec describes one task and its versions.
	TaskSpec = spec.TaskSpec
	// VersionSpec describes one implementation of a task.
	VersionSpec = spec.VersionSpec
	// ChannelSpec describes one FIFO channel and its endpoints.
	ChannelSpec = spec.ChannelSpec
	// TopicSpec describes one pub-sub topic and its endpoints.
	TopicSpec = spec.TopicSpec
	// AccelSpec describes one hardware accelerator.
	AccelSpec = spec.AccelSpec
	// Builder is the fluent, error-accumulating application constructor.
	Builder = spec.Builder
	// TaskBuilder is the task-scoped part of a Builder chain.
	TaskBuilder = spec.TaskBuilder
	// Duration is a human-readable JSON duration ("250ms") used in specs.
	Duration = spec.Duration
	// TaskSet is the flat descriptive task model used by the analyses and
	// generators (bridged from specs via AppSpec.TaskSet).
	TaskSet = taskset.Set
)

// Spec-layer constructors.
var (
	// NewApp starts a fluent application description.
	NewApp = spec.NewApp
	// LoadSpec parses and validates an application spec from JSON.
	LoadSpec = spec.Load
	// LoadSpecFile reads and validates an application spec file.
	LoadSpecFile = spec.LoadFile
	// FromTaskSet lifts a flat task set into an application spec.
	FromTaskSet = spec.FromTaskSet
)

// Execution environments.
type (
	// Env abstracts the execution substrate.
	Env = rt.Env
	// Ctx is a thread's view of its environment.
	Ctx = rt.Ctx
	// Thread is a handle on a spawned thread.
	Thread = rt.Thread
	// SimEnv runs in deterministic virtual time.
	SimEnv = rt.SimEnv
	// OSEnv runs on goroutines in wall-clock time (soft real time: the Go
	// garbage collector and scheduler still interfere — the reason the
	// paper experiments use SimEnv).
	OSEnv = rt.OSEnv
	// Engine is the discrete-event simulation engine under SimEnv.
	Engine = sim.Engine
)

// NewOSEnv creates the wall-clock environment.
func NewOSEnv() *OSEnv { return rt.NewOSEnv() }

// NewEngine creates a deterministic simulation engine.
func NewEngine(seed int64) *Engine { return sim.NewEngine(seed) }

// SimTime converts a duration into the engine's virtual-time unit (for
// Engine.Run horizons).
func SimTime(d time.Duration) sim.Time { return sim.Time(d) }

// NewSimEnv creates a virtual-time environment on an engine and platform;
// wake may be nil for an idealised kernel or kernel.WakeFunc(model, rng)
// for a realistic one.
func NewSimEnv(eng *Engine, pl *Platform, wake rt.WakeLatencyFunc) (*SimEnv, error) {
	return rt.NewSimEnv(eng, pl, wake)
}

// Platform models.
type (
	// Platform describes a target board.
	Platform = platform.Platform
	// Battery models the energy source for SelectEnergy.
	Battery = platform.Battery
	// CostModel prices middleware primitives in virtual time.
	CostModel = platform.CostModel
)

// Platform presets.
var (
	// OdroidXU4 is the paper's Section 4 evaluation board.
	OdroidXU4 = platform.OdroidXU4
	// ApalisTK1 is the paper's Section 5 drone payload board.
	ApalisTK1 = platform.ApalisTK1
	// NewBattery creates a battery with the given capacity (mJ).
	NewBattery = platform.NewBattery
)

// KernelModel is a kernel substrate model (PREEMPT_RT, LitmusRT GSN-EDF
// or P-RES, ...) for Table 2-style latency studies.
type KernelModel = kernel.Model

// Kernel model constructors.
var (
	// WakeFunc adapts a kernel model to SimEnv.
	WakeFunc = kernel.WakeFunc
)

// Off-line schedule synthesis (Section 3.4).
type (
	// OfflineTaskSpec describes a task to the synthesiser.
	OfflineTaskSpec = offline.TaskSpec
	// OfflineVersionSpec describes one version to the synthesiser.
	OfflineVersionSpec = offline.VersionSpec
	// OfflineSchedule is a synthesis result.
	OfflineSchedule = offline.Schedule
)

// Synthesize computes a time-triggered table for the given specs.
var Synthesize = offline.Synthesize
