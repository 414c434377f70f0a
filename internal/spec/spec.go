package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/rt"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("250ms") and unmarshals from either a string or a nanosecond number, so
// spec files stay hand-writable.
type Duration time.Duration

// Std returns the standard-library duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// MarshalJSON encodes the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "33ms"-style strings or raw nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("spec: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("spec: bad duration %s", string(b))
	}
	*d = Duration(n)
	return nil
}

// Spec is a complete declarative application description. Identifier
// assignment is positional and deterministic: task i gets TID i, channel i
// gets CID i, accelerator i gets HID i, version j of a task gets VID j —
// the same IDs an imperative program declaring in the same order would get.
type Spec struct {
	// Name labels the application (reports, scenario libraries).
	Name string `json:"name,omitempty"`
	// Nodes is the cluster size this application is placed over; zero or
	// one describes the ordinary single-node application. With Nodes > 1
	// every task carries a Node placement and ForNode projects the
	// per-node sub-application (see internal/cluster for the data plane
	// that stitches the projections together).
	Nodes int `json:"nodes,omitempty"`
	// Accels declares hardware accelerators; names matching a platform
	// accelerator (e.g. "kepler-gk20a") inherit its speed and power.
	Accels []AccelSpec `json:"accels,omitempty"`
	// Channels declares the FIFO channels and, through their Src/Dst
	// endpoints, the precedence edges of the task graph.
	Channels []ChannelSpec `json:"channels,omitempty"`
	// Topics declares the pub-sub topics: N publishers to M subscribers
	// over one shared buffer with an overflow policy. Topics share the CID
	// space with channels — channels take the first IDs, topics follow.
	Topics []TopicSpec `json:"topics,omitempty"`
	// Tasks declares the tasks with their versions.
	Tasks []TaskSpec `json:"tasks"`
	// Modes declares named mode presets for live reconfiguration: each mode
	// activates a subset of the tasks and installs an execution-mode word.
	// Build installs them on the App; App.SwitchMode(name) computes the
	// task-set diff from the current state and applies it as an admitted,
	// quiescent reconfiguration transaction.
	Modes []ModeSpec `json:"modes,omitempty"`

	// projected marks a ForNode projection: its topics may keep only the
	// endpoints local to that node (the missing side lives on other nodes
	// and reaches the topic over the cluster data plane), which relaxes
	// the needs-a-publisher/needs-a-subscriber validation.
	projected bool
}

// ModeSpec names one application mode: the set of active tasks (empty =
// all) and the execution-mode word installed for SelectMode version
// selection. Topics and accelerators are mode-independent; channels follow
// their endpoints (an edge exists in a mode iff both its tasks are active).
type ModeSpec struct {
	Name string `json:"name"`
	// Mode is the execution-mode word (matched against VSelect.Modes).
	Mode uint32 `json:"mode,omitempty"`
	// Tasks lists the active tasks; empty activates every task.
	Tasks []string `json:"tasks,omitempty"`
}

// activeSet resolves the mode's active task-name set.
func (m *ModeSpec) activeSet(s *Spec) map[string]bool {
	out := make(map[string]bool, len(s.Tasks))
	if len(m.Tasks) == 0 {
		for i := range s.Tasks {
			out[s.Tasks[i].Name] = true
		}
		return out
	}
	for _, n := range m.Tasks {
		out[n] = true
	}
	return out
}

// TaskSpec describes one task — the declarative form of core.TData plus its
// versions.
type TaskSpec struct {
	Name string `json:"name"`
	// Period is the minimal inter-arrival time; zero makes the task
	// data-activated (a non-root graph node) or aperiodic.
	Period Duration `json:"period,omitempty"`
	// Deadline is the relative deadline; zero means implicit.
	Deadline Duration `json:"deadline,omitempty"`
	// Offset delays the first periodic release.
	Offset Duration `json:"offset,omitempty"`
	// Core binds the task to a worker under partitioned mapping.
	Core int `json:"core,omitempty"`
	// Node places the task on a cluster node (Spec.Nodes > 1); the zero
	// value is node 0, which is also every single-node task's placement.
	Node int `json:"node,omitempty"`
	// Priority is the static priority under PriorityUser.
	Priority int `json:"priority,omitempty"`
	// Sporadic marks tasks released by TaskActivate.
	Sporadic bool `json:"sporadic,omitempty"`
	// Versions lists the task's implementations, in declaration order.
	Versions []VersionSpec `json:"versions"`
}

// data is the task's core declaration, the one TaskSpec-to-core.TData
// conversion: Table-1 declaration and a transaction's AddTask and Retune
// all use it.
func (t *TaskSpec) data() core.TData {
	return core.TData{
		Name:          t.Name,
		Period:        t.Period.Std(),
		Deadline:      t.Deadline.Std(),
		ReleaseOffset: t.Offset.Std(),
		VirtCore:      t.Core,
		Priority:      t.Priority,
		Sporadic:      t.Sporadic,
	}
}

// VersionSpec describes one implementation of a task: its extra-functional
// properties (core.VSelect) plus the accelerator binding by name. The entry
// point Fn is code and is not serialized; a nil Fn gets a synthesized body
// at Build (pop inputs, compute WCET, push outputs).
type VersionSpec struct {
	// Name optionally labels the version ("gpu", "aes", ...).
	Name string `json:"name,omitempty"`
	// WCET is the worst-case execution time; it also sizes the synthesized
	// body of function-less versions.
	WCET Duration `json:"wcet,omitempty"`
	// AccelCS is the worst-case length of the version's accelerator
	// critical section (the AccelSection part of WCET). Blocking-aware
	// admission derives priority-inversion bounds from it; zero on an
	// accelerator version falls back to the whole WCET (conservative). It
	// also sizes the accelerator section of synthesized bodies.
	AccelCS Duration `json:"accel_cs,omitempty"`
	// Energy is the per-job energy budget in millijoules.
	Energy float64 `json:"energy,omitempty"`
	// MinBattery is the battery percentage below which this version is not
	// affordable (SelectEnergy).
	MinBattery float64 `json:"min_battery,omitempty"`
	// Quality ranks functionally-equivalent versions.
	Quality int `json:"quality,omitempty"`
	// Modes is the execution-mode bitmask (SelectMode).
	Modes uint32 `json:"modes,omitempty"`
	// Mask is the permission bitmask (SelectBitmask).
	Mask uint32 `json:"mask,omitempty"`
	// Accel names the accelerator this version uses; empty means CPU-only.
	Accel string `json:"accel,omitempty"`

	// Fn is the version entry point (code; not serialized).
	Fn core.TaskFunc `json:"-"`
	// Args is the static argument passed to Fn (not serialized).
	Args any `json:"-"`
	// GetBattery is the battery-status callback (SelectEnergy; not
	// serialized — Build falls back to the App battery when nil).
	GetBattery func() float64 `json:"-"`
}

// props is the version's core selection properties, the one
// VersionSpec-to-core.VSelect conversion of VersionDecl and a transaction's
// AddVersion.
func (v *VersionSpec) props() core.VSelect {
	return core.VSelect{
		WCET:             v.WCET.Std(),
		AccelCS:          v.AccelCS.Std(),
		EnergyBudget:     v.Energy,
		GetBatteryStatus: v.GetBattery,
		MinBattery:       v.MinBattery,
		Quality:          v.Quality,
		Modes:            v.Modes,
		Mask:             v.Mask,
	}
}

// ChannelSpec describes one FIFO channel and its (optional) endpoints. A
// channel with both endpoints set is also a precedence edge; a channel with
// neither is a free-standing FIFO the tasks use directly.
type ChannelSpec struct {
	Name string `json:"name"`
	// Capacity is the FIFO depth; zero declares a pure precedence channel.
	Capacity int `json:"capacity"`
	// Src and Dst name the producer and consumer tasks.
	Src string `json:"src,omitempty"`
	Dst string `json:"dst,omitempty"`
	// Delay pre-seeds the edge with initial tokens (SDF delay tokens),
	// permitting feedback cycles.
	Delay int `json:"delay,omitempty"`
}

// TopicSpec describes one pub-sub topic: the declarative form of
// core.TopicOpts plus its endpoints by task name. Unlike a channel, a topic
// is pure data plane — it never creates precedence edges; subscribers poll
// (periodically or opportunistically) with Take/Recv.
type TopicSpec struct {
	Name string `json:"name"`
	// Capacity is the shared buffer depth (>= 1): the maximum backlog of
	// the slowest subscriber. One buffered entry serves every subscriber.
	Capacity int `json:"capacity"`
	// Policy is the overflow behaviour: "reject" (default; publish fails
	// when full, the Table-1 channel semantics), "drop_oldest", or "latest"
	// (conflation: a take returns only the newest value).
	Policy string `json:"policy,omitempty"`
	// Priority ranks the topic against other topics (lower = more urgent);
	// consumers draining several subscriptions (TakeAny) honour it.
	Priority int `json:"priority,omitempty"`
	// Pubs and Subs name the publisher and subscriber tasks (>= 1 each).
	Pubs []string `json:"pubs"`
	Subs []string `json:"subs"`
}

// AccelSpec describes one hardware accelerator pool. Count > 1 declares
// that many interchangeable instances (e.g. two identical DSP cores):
// version bindings reference the pool by name, the runtime takes any free
// instance, and contention parks jobs on one pool-wide priority-ordered
// waiter list. Every instance consumes one MaxAccels slot.
type AccelSpec struct {
	Name  string `json:"name"`
	Count int    `json:"count,omitempty"` // instances; 0 reads as 1
}

// instances returns the pool's instance count (Count, at least 1).
func (a *AccelSpec) instances() int {
	if a.Count > 1 {
		return a.Count
	}
	return 1
}

// TaskID returns the TID task `name` will get at Build, or -1.
func (s *Spec) TaskID(name string) core.TID {
	for i := range s.Tasks {
		if s.Tasks[i].Name == name {
			return core.TID(i)
		}
	}
	return -1
}

// ChannelID returns the CID channel `name` will get at Build, or -1.
func (s *Spec) ChannelID(name string) core.CID {
	for i := range s.Channels {
		if s.Channels[i].Name == name {
			return core.CID(i)
		}
	}
	return -1
}

// TopicID returns the CID topic `name` will get at Build, or -1. Channels
// occupy the first IDs, topics follow in declaration order.
func (s *Spec) TopicID(name string) core.CID {
	for i := range s.Topics {
		if s.Topics[i].Name == name {
			return core.CID(len(s.Channels) + i)
		}
	}
	return -1
}

// AccelID returns the pool-head HID accelerator `name` will get at Build,
// or core.NoAccel. Assignment stays positional, but a pool occupies Count
// consecutive instance slots, so later pools' heads shift accordingly.
func (s *Spec) AccelID(name string) core.HID {
	id := 0
	for i := range s.Accels {
		if s.Accels[i].Name == name {
			return core.HID(id)
		}
		id += s.Accels[i].instances()
	}
	return core.NoAccel
}

// accelInstances returns the total instance count across all pools (the
// MaxAccels demand).
func (s *Spec) accelInstances() int {
	n := 0
	for i := range s.Accels {
		n += s.Accels[i].instances()
	}
	return n
}

// Validate checks the whole description and reports every problem it finds
// as one joined error (errors.Join), not just the first: duplicate or empty
// names, dangling channel endpoints, self-loops, negative timing
// parameters, version-less tasks, unknown accelerator references,
// periodic tasks with undelayed input edges, and zero-delay cycles in the
// channel graph.
func (s *Spec) Validate() error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("spec: "+format, args...))
	}

	if len(s.Tasks) == 0 {
		bad("no tasks declared")
	}
	if s.Nodes < 0 {
		bad("negative node count %d", s.Nodes)
	}
	nodeCount := s.Nodes
	if nodeCount < 1 {
		nodeCount = 1
	}

	accels := make(map[string]bool, len(s.Accels))
	for i, a := range s.Accels {
		if a.Name == "" {
			bad("accelerator %d has no name", i)
			continue
		}
		if accels[a.Name] {
			bad("duplicate accelerator name %q", a.Name)
		}
		if a.Count < 0 {
			bad("accelerator %q: negative instance count %d", a.Name, a.Count)
		}
		accels[a.Name] = true
	}

	tasks := make(map[string]int, len(s.Tasks))
	for i := range s.Tasks {
		t := &s.Tasks[i]
		if t.Name == "" {
			bad("task %d has no name", i)
		} else if _, dup := tasks[t.Name]; dup {
			bad("duplicate task name %q", t.Name)
		} else {
			tasks[t.Name] = i
		}
		if t.Period < 0 {
			bad("task %q: negative period %v", t.Name, t.Period.Std())
		}
		if t.Deadline < 0 {
			bad("task %q: negative deadline %v", t.Name, t.Deadline.Std())
		}
		if t.Offset < 0 {
			bad("task %q: negative offset %v", t.Name, t.Offset.Std())
		}
		if t.Core < 0 {
			bad("task %q: negative core %d", t.Name, t.Core)
		}
		if t.Node < 0 || t.Node >= nodeCount {
			bad("task %q: node %d out of range [0,%d)", t.Name, t.Node, nodeCount)
		}
		if len(t.Versions) == 0 {
			bad("task %q has no versions", t.Name)
		}
		for vi := range t.Versions {
			v := &t.Versions[vi]
			if v.WCET < 0 {
				bad("task %q version %d: negative WCET %v", t.Name, vi, v.WCET.Std())
			}
			if v.Accel != "" && !accels[v.Accel] {
				bad("task %q version %d: unknown accelerator %q", t.Name, vi, v.Accel)
			}
			if v.AccelCS < 0 {
				bad("task %q version %d: negative accelerator critical section %v", t.Name, vi, v.AccelCS.Std())
			}
			if v.AccelCS > 0 && v.Accel == "" {
				bad("task %q version %d: accel_cs without an accelerator binding", t.Name, vi)
			}
			if v.AccelCS > 0 && v.WCET > 0 && v.AccelCS > v.WCET {
				bad("task %q version %d: accelerator critical section %v exceeds WCET %v",
					t.Name, vi, v.AccelCS.Std(), v.WCET.Std())
			}
			if v.Fn == nil && v.WCET == 0 {
				bad("task %q version %d: needs a function or a WCET to synthesize one", t.Name, vi)
			}
		}
	}

	chans := make(map[string]bool, len(s.Channels))
	for i := range s.Channels {
		c := &s.Channels[i]
		if c.Name == "" {
			bad("channel %d has no name", i)
		} else if chans[c.Name] {
			bad("duplicate channel name %q", c.Name)
		} else {
			chans[c.Name] = true
		}
		if c.Capacity < 0 {
			bad("channel %q: negative capacity %d", c.Name, c.Capacity)
		}
		if c.Delay < 0 {
			bad("channel %q: negative delay token count %d", c.Name, c.Delay)
		}
		if (c.Src == "") != (c.Dst == "") {
			bad("channel %q: endpoint dangling (src=%q dst=%q); set both or neither", c.Name, c.Src, c.Dst)
			continue
		}
		if c.Src == "" {
			continue // free-standing FIFO
		}
		si, sok := tasks[c.Src]
		if !sok {
			bad("channel %q: unknown source task %q", c.Name, c.Src)
		}
		di, dok := tasks[c.Dst]
		if !dok {
			bad("channel %q: unknown destination task %q", c.Name, c.Dst)
		}
		if sok && dok && si == di {
			bad("channel %q: self-loop on task %q", c.Name, c.Src)
		}
		if sok && dok && s.Tasks[si].Node != s.Tasks[di].Node {
			bad("channel %q: crosses nodes %d and %d (precedence edges are node-local; cross-node data flows over a topic and the cluster data plane)",
				c.Name, s.Tasks[si].Node, s.Tasks[di].Node)
		}
		if dok && c.Delay == 0 && s.Tasks[di].Period > 0 {
			bad("channel %q: destination %q is data-activated but has a period; only root nodes carry periods (feedback into a periodic root needs delay tokens)", c.Name, c.Dst)
		}
	}

	for i := range s.Topics {
		tp := &s.Topics[i]
		if tp.Name == "" {
			bad("topic %d has no name", i)
		} else if chans[tp.Name] {
			bad("topic %q collides with a channel name (channels and topics share one ID space)", tp.Name)
		} else if s.TopicID(tp.Name) != core.CID(len(s.Channels)+i) {
			bad("duplicate topic name %q", tp.Name)
		}
		if tp.Capacity < 1 {
			bad("topic %q: capacity must be >= 1, got %d", tp.Name, tp.Capacity)
		}
		if _, err := core.ParsePolicy(tp.Policy); err != nil {
			bad("topic %q: %v", tp.Name, err)
		}
		// A ForNode projection legitimately keeps only one side of a topic
		// (the other side lives on other nodes); a full spec needs both.
		if len(tp.Pubs) == 0 && !s.projected {
			bad("topic %q has no publishers", tp.Name)
		}
		if len(tp.Subs) == 0 && !s.projected {
			bad("topic %q has no subscribers", tp.Name)
		}
		if len(tp.Pubs)+len(tp.Subs) == 0 {
			bad("topic %q has no endpoints at all", tp.Name)
		}
		seenPub := make(map[string]bool, len(tp.Pubs))
		for _, p := range tp.Pubs {
			if _, ok := tasks[p]; !ok {
				bad("topic %q: unknown publisher task %q", tp.Name, p)
			}
			if seenPub[p] {
				bad("topic %q: duplicate publisher %q", tp.Name, p)
			}
			seenPub[p] = true
		}
		seenSub := make(map[string]bool, len(tp.Subs))
		for _, sb := range tp.Subs {
			if _, ok := tasks[sb]; !ok {
				bad("topic %q: unknown subscriber task %q", tp.Name, sb)
			}
			if seenSub[sb] {
				bad("topic %q: duplicate subscriber %q", tp.Name, sb)
			}
			seenSub[sb] = true
		}
	}

	seenMode := make(map[string]bool, len(s.Modes))
	for i := range s.Modes {
		m := &s.Modes[i]
		if m.Name == "" {
			bad("mode %d has no name", i)
			continue
		}
		if seenMode[m.Name] {
			bad("duplicate mode name %q", m.Name)
		}
		seenMode[m.Name] = true
		for _, tn := range m.Tasks {
			if _, ok := tasks[tn]; !ok {
				bad("mode %q: unknown task %q", m.Name, tn)
			}
		}
		// A data-activated task active in this mode needs an active
		// producer (or an explicit deadline): otherwise switching to the
		// mode would orphan it and the transaction would be rejected.
		active := m.activeSet(s)
		for ti := range s.Tasks {
			t := &s.Tasks[ti]
			if !active[t.Name] || t.Period > 0 || t.Sporadic || t.Deadline > 0 {
				continue
			}
			fed := false
			for ci := range s.Channels {
				c := &s.Channels[ci]
				if c.Dst == t.Name && c.Src != "" && active[c.Src] {
					fed = true
					break
				}
			}
			if !fed {
				bad("mode %q: data-activated task %q has no active producer and no explicit deadline", m.Name, t.Name)
			}
		}
	}

	if err := s.checkAcyclic(tasks); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// checkAcyclic rejects cycles over zero-delay edges (edges carrying delay
// tokens are legitimate feedback, as in core's Reconfig.checkCycles, which
// Start and every transaction run).
func (s *Spec) checkAcyclic(tasks map[string]int) error {
	succ := make([][]int, len(s.Tasks))
	for i := range s.Channels {
		c := &s.Channels[i]
		if c.Src == "" || c.Dst == "" || c.Delay > 0 {
			continue
		}
		si, sok := tasks[c.Src]
		di, dok := tasks[c.Dst]
		if !sok || !dok || si == di {
			continue // reported by Validate already
		}
		succ[si] = append(succ[si], di)
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(s.Tasks))
	var visit func(i int) error
	visit = func(i int) error {
		color[i] = grey
		for _, d := range succ[i] {
			switch color[d] {
			case grey:
				return fmt.Errorf("spec: channel graph has a cycle through task %q", s.Tasks[d].Name)
			case white:
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		color[i] = black
		return nil
	}
	for i := range s.Tasks {
		if color[i] == white {
			if err := visit(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// ForNode projects the per-node sub-application of a clustered spec: the
// tasks placed on `node` (declaration order preserved), the channels whose
// endpoints are both local (plus free-standing FIFOs, replicated
// everywhere), and the topics with at least one local endpoint — keeping
// only the local side of their Pubs/Subs lists. A topic that loses a side
// this way is exactly a cross-node topic: the missing publishers or
// subscribers live on other nodes and reach it over the cluster data plane
// (cluster.Node.Topic wires the forwarding), so the projection is marked
// `projected` to relax the both-sides validation.
//
// Modes are dropped from projections: a mode's task list filtered down to
// one node could become empty, which ModeSpec reads as "all tasks active" —
// silently inverting the mode's meaning. Cluster-wide mode switches are the
// control plane's job (cluster.Reconfigure), not a per-node preset's.
//
// The projection is a deep-enough copy: mutating its slices does not alias
// the parent spec.
func (s *Spec) ForNode(node int) *Spec {
	out := &Spec{
		Name:      fmt.Sprintf("%s@node%d", s.Name, node),
		Accels:    append([]AccelSpec(nil), s.Accels...),
		projected: true,
	}
	local := make(map[string]bool, len(s.Tasks))
	for i := range s.Tasks {
		if s.Tasks[i].Node == node {
			t := s.Tasks[i]
			t.Node = 0 // placement is resolved; the projection is single-node
			t.Versions = append([]VersionSpec(nil), s.Tasks[i].Versions...)
			out.Tasks = append(out.Tasks, t)
			local[t.Name] = true
		}
	}
	for i := range s.Channels {
		c := s.Channels[i]
		free := c.Src == "" && c.Dst == ""
		if free || (local[c.Src] && local[c.Dst]) {
			out.Channels = append(out.Channels, c)
		}
	}
	for i := range s.Topics {
		tp := s.Topics[i]
		var pubs, subs []string
		for _, p := range tp.Pubs {
			if local[p] {
				pubs = append(pubs, p)
			}
		}
		for _, sb := range tp.Subs {
			if local[sb] {
				subs = append(subs, sb)
			}
		}
		if len(pubs)+len(subs) == 0 {
			continue // no local endpoint: the topic does not exist here
		}
		tp.Pubs, tp.Subs = pubs, subs
		out.Topics = append(out.Topics, tp)
	}
	return out
}

// Build validates the spec, sizes the configuration to fit it (only zero
// limits are filled in), creates an App on env and performs every
// declaration call. It is the declarative equivalent of the whole Table-1
// construction sequence.
func (s *Spec) Build(cfg core.Config, env rt.Env) (*core.App, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.build(cfg, env)
}

// build instantiates an already-validated spec.
func (s *Spec) build(cfg core.Config, env rt.Env) (*core.App, error) {
	s.sizeConfig(&cfg)
	app, err := core.New(cfg, env)
	if err != nil {
		return nil, err
	}
	if err := s.apply(app); err != nil {
		return nil, err
	}
	if err := s.installModes(app); err != nil {
		return nil, err
	}
	return app, nil
}

// Apply validates the spec and performs its declarations on an existing,
// freshly initialized App, for callers that configure the App themselves.
// The App must hold no declarations yet: the spec layer's ID assignment is
// positional (task i == TID i), which only holds from a clean slate.
//
// Apply is all-or-nothing: the spec is pre-validated against the target App
// (running schedule, capacity limits) before the first declaration call, so
// a failure can never leave a half-declared App behind.
func (s *Spec) Apply(app *core.App) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := s.preflight(app); err != nil {
		return err
	}
	if err := s.apply(app); err != nil {
		return err
	}
	return s.installModes(app)
}

// preflight checks everything a declaration call could reject — the running
// schedule and the static capacity limits — so apply's declaration sequence
// cannot fail partway through.
func (s *Spec) preflight(app *core.App) error {
	if app.Started() {
		return fmt.Errorf("spec: Apply on a running App: %w (use Reconfigure/SwitchSpec for live changes)", core.ErrStarted)
	}
	if app.NumTasks() != 0 || app.NumChannels() != 0 || app.NumAccels() != 0 {
		return fmt.Errorf("spec: Apply needs a freshly initialized App (IDs are positional); call App.Init first")
	}
	cfg := app.Config()
	if len(s.Tasks) > cfg.MaxTasks {
		return fmt.Errorf("spec: %d tasks exceed MaxTasks=%d", len(s.Tasks), cfg.MaxTasks)
	}
	if len(s.Channels)+len(s.Topics) > cfg.MaxChannels {
		return fmt.Errorf("spec: %d channels+topics exceed MaxChannels=%d",
			len(s.Channels)+len(s.Topics), cfg.MaxChannels)
	}
	if s.accelInstances() > cfg.MaxAccels {
		return fmt.Errorf("spec: %d accelerator instances exceed MaxAccels=%d", s.accelInstances(), cfg.MaxAccels)
	}
	for i := range s.Tasks {
		if n := len(s.Tasks[i].Versions); n > cfg.MaxVersionsPerTask {
			return fmt.Errorf("spec: task %q has %d versions, MaxVersionsPerTask=%d",
				s.Tasks[i].Name, n, cfg.MaxVersionsPerTask)
		}
	}
	return nil
}

// sizeConfig raises unset static limits to fit the spec.
func (s *Spec) sizeConfig(cfg *core.Config) {
	if cfg.MaxTasks == 0 && len(s.Tasks) > 0 {
		cfg.MaxTasks = len(s.Tasks)
	}
	if cfg.MaxChannels == 0 && len(s.Channels)+len(s.Topics) > 0 {
		cfg.MaxChannels = len(s.Channels) + len(s.Topics)
	}
	if cfg.MaxAccels == 0 && len(s.Accels) > 0 {
		cfg.MaxAccels = s.accelInstances()
	}
	if cfg.MaxVersionsPerTask == 0 {
		for i := range s.Tasks {
			if n := len(s.Tasks[i].Versions); n > cfg.MaxVersionsPerTask {
				cfg.MaxVersionsPerTask = n
			}
		}
	}
}

// apply performs the declaration calls; the spec is already validated.
// Name resolution is done once up front (maps and per-task channel lists),
// keeping instantiation linear in the spec size.
func (s *Spec) apply(app *core.App) error {
	if app.NumTasks() != 0 || app.NumChannels() != 0 || app.NumAccels() != 0 {
		return fmt.Errorf("spec: Apply needs a freshly initialized App (IDs are positional); call App.Init first")
	}
	taskIdx := make(map[string]core.TID, len(s.Tasks))
	for i := range s.Tasks {
		taskIdx[s.Tasks[i].Name] = core.TID(i)
	}
	accelIdx := make(map[string]core.HID, len(s.Accels))
	for i := range s.Accels {
		accelIdx[s.Accels[i].Name] = core.HID(i)
	}
	ins := make([][]core.CID, len(s.Tasks))
	outs := make([][]core.CID, len(s.Tasks))
	for i := range s.Channels {
		c := &s.Channels[i]
		if c.Src == "" {
			continue
		}
		if c.Capacity > 0 {
			di := taskIdx[c.Dst]
			ins[di] = append(ins[di], core.CID(i))
		}
		si := taskIdx[c.Src]
		outs[si] = append(outs[si], core.CID(i))
	}
	// Topic endpoints, for the synthesized bodies: publishers publish the
	// job index, subscribers drain their backlog.
	tins := make([][]core.CID, len(s.Tasks))
	touts := make([][]core.CID, len(s.Tasks))
	for i := range s.Topics {
		tp := &s.Topics[i]
		id := core.CID(len(s.Channels) + i)
		for _, p := range tp.Pubs {
			touts[taskIdx[p]] = append(touts[taskIdx[p]], id)
		}
		for _, sb := range tp.Subs {
			tins[taskIdx[sb]] = append(tins[taskIdx[sb]], id)
		}
	}

	for i := range s.Accels {
		a := &s.Accels[i]
		if _, err := app.HwAccelDeclPool(a.Name, a.instances()); err != nil {
			return fmt.Errorf("spec: accel %q: %w", a.Name, err)
		}
	}
	for i := range s.Channels {
		c := &s.Channels[i]
		if _, err := app.ChannelDecl(c.Name, c.Capacity); err != nil {
			return fmt.Errorf("spec: channel %q: %w", c.Name, err)
		}
	}
	for i := range s.Topics {
		tp := &s.Topics[i]
		pol, _ := core.ParsePolicy(tp.Policy) // validated already
		opts := core.TopicOpts{Capacity: tp.Capacity, Policy: pol, Priority: tp.Priority}
		if _, err := app.TopicDecl(tp.Name, opts); err != nil {
			return fmt.Errorf("spec: topic %q: %w", tp.Name, err)
		}
	}
	for i := range s.Tasks {
		t := &s.Tasks[i]
		tid, err := app.TaskDecl(t.data())
		if err != nil {
			return fmt.Errorf("spec: task %q: %w", t.Name, err)
		}
		for vi := range t.Versions {
			v := &t.Versions[vi]
			fn := v.Fn
			if fn == nil {
				fn = synthBody(ins[i], outs[i], tins[i], touts[i], v)
			}
			vid, err := app.VersionDecl(tid, fn, v.Args, v.props())
			if err != nil {
				return fmt.Errorf("spec: task %q version %d: %w", t.Name, vi, err)
			}
			if v.Accel != "" {
				if err := app.HwAccelUse(tid, vid, accelIdx[v.Accel]); err != nil {
					return fmt.Errorf("spec: task %q version %d: %w", t.Name, vi, err)
				}
			}
		}
	}
	for i := range s.Channels {
		c := &s.Channels[i]
		if c.Src == "" {
			continue
		}
		src, dst := taskIdx[c.Src], taskIdx[c.Dst]
		var err error
		if c.Delay > 0 {
			err = app.ChannelConnectDelayed(src, dst, core.CID(i), c.Delay)
		} else {
			err = app.ChannelConnect(src, dst, core.CID(i))
		}
		if err != nil {
			return fmt.Errorf("spec: channel %q: %w", c.Name, err)
		}
	}
	for i := range s.Topics {
		tp := &s.Topics[i]
		id := core.CID(len(s.Channels) + i)
		for _, p := range tp.Pubs {
			if err := app.TopicPub(taskIdx[p], id); err != nil {
				return fmt.Errorf("spec: topic %q: %w", tp.Name, err)
			}
		}
		for _, sb := range tp.Subs {
			if err := app.TopicSub(taskIdx[sb], id); err != nil {
				return fmt.Errorf("spec: topic %q: %w", tp.Name, err)
			}
		}
	}
	return nil
}

// synthBody generates the body of a function-less version: pop one value
// from every data-carrying input channel, take the pending backlog of every
// subscribed topic, model the WCET as computation (an explicit AccelCS —
// defaulting to 90% of the WCET — framed by equal CPU halves for
// accelerator versions), and push/publish the job index to every output
// channel and topic — the standard workload stand-in simulation tools use.
// Pops are guarded by ChannelLen: an activation fired by a delay token
// finds the edge seeded but the FIFO empty (only real producer completions
// buffer values).
func synthBody(ins, outs, tins, touts []core.CID, v *VersionSpec) core.TaskFunc {
	wcet := v.WCET.Std()
	accelCS := v.AccelCS.Std()
	onAccel := v.Accel != ""
	return func(x *core.ExecCtx, _ any) error {
		for _, c := range ins {
			n, err := x.ChannelLen(c)
			if err != nil {
				return err
			}
			if n == 0 {
				continue
			}
			if _, err := x.Pop(c); err != nil {
				return err
			}
		}
		for _, c := range tins {
			for { // drain the whole backlog, like a real inbox consumer
				_, ok, err := x.Take(c)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
			}
		}
		if onAccel {
			// Default split 5%/90%/5%; an explicit AccelCS sizes the
			// section, framed by equal CPU halves.
			pre := wcet / 20
			post := wcet / 20
			cs := wcet - pre - post
			if accelCS > 0 && accelCS <= wcet {
				cs = accelCS
				pre = (wcet - cs) / 2
				post = wcet - cs - pre
			}
			if err := x.Compute(pre); err != nil {
				return err
			}
			if err := x.AccelSection(cs); err != nil {
				return err
			}
			if err := x.Compute(post); err != nil {
				return err
			}
		} else if err := x.Compute(wcet); err != nil {
			return err
		}
		for _, c := range outs {
			if err := x.Push(c, x.JobIndex()); err != nil {
				return err
			}
		}
		for _, c := range touts {
			if err := x.Publish(c, x.JobIndex()); err != nil {
				return err
			}
		}
		return nil
	}
}

// WriteJSON serialises the spec with indentation.
func (s *Spec) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("spec: encode: %w", err)
	}
	return nil
}

// Load parses a spec from JSON and validates it.
func Load(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads and validates a spec file.
func LoadFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
