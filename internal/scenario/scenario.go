package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/yasmin-rt/yasmin/internal/spec"
)

// Scenario is a complete stress-scenario description. All durations accept
// human-readable strings ("250ms") in both YAML and JSON.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Seed drives every random choice; equal seeds reproduce runs exactly.
	Seed int64 `json:"seed,omitempty"`
	// Duration is the simulated run length.
	Duration spec.Duration `json:"duration"`
	// Workers is the number of worker threads (virtual CPUs).
	Workers int `json:"workers"`
	// Mapping selects the ready-queue scheme: "global" (default) or
	// "partitioned" (tasks are spread round-robin over the workers).
	Mapping string `json:"mapping,omitempty"`
	// Priority selects the priority assignment: "edf" (default), "rm",
	// "dm".
	Priority string `json:"priority,omitempty"`
	// MaxPendingJobs bounds simultaneously live jobs; zero derives a bound
	// from the task count.
	MaxPendingJobs int `json:"max_pending_jobs,omitempty"`

	// Nodes switches the scenario to cluster mode: Count co-simulated YASMIN
	// instances stitched together by the internal/cluster data plane, each
	// with its own Workers-wide core set. Task groups and topic endpoints
	// then carry node placements, and churn is cluster-wide two-phase.
	Nodes *NodesSpec `json:"nodes,omitempty"`

	// Accels declares shared accelerator pools; accel-bound task groups and
	// churn phases reference them by name and contend under PIP.
	Accels []AccelDecl `json:"accels,omitempty"`
	// AccelWaitBound, when positive, arms the checker's inversion-duration
	// invariant: no job may wait longer than this between parking on a pool
	// and being granted (or taking) an instance. Pick it from the workload
	// (longest critical section × chain depth plus scheduling slack); zero
	// disables the bound while the structural PIP checks stay on.
	AccelWaitBound spec.Duration `json:"accel_wait_bound,omitempty"`
	// Groups generate plain periodic compute tasks.
	Groups []TaskGroup `json:"groups,omitempty"`
	// Topics generate pub-sub meshes with instrumented endpoint tasks the
	// invariant checker observes.
	Topics []TopicShape `json:"topics,omitempty"`
	// Churn schedules live-reconfiguration phases.
	Churn []ChurnPhase `json:"churn,omitempty"`
	// Failures injects task-function errors.
	Failures Failures `json:"failures,omitempty"`
}

// NodesSpec configures a cluster scenario: the node count plus the fault
// injection and clock discipline of the simulated data plane.
type NodesSpec struct {
	// Count is the cluster size (>= 2; single-node scenarios omit the
	// nodes section entirely).
	Count int `json:"count"`
	// LossRate / ReorderRate inject datagram faults into the in-memory
	// transport (probabilities in [0,1); reordering is one-slot holdback).
	// Cross-node topics are then checked under the lossy relaxation: FIFO
	// must still hold per publisher, but gaps are legal.
	LossRate    float64 `json:"loss_rate,omitempty"`
	ReorderRate float64 `json:"reorder_rate,omitempty"`
	// SyncInterval turns on PTP-style clock sync against node 0 at this
	// period (zero = off).
	SyncInterval spec.Duration `json:"sync_interval,omitempty"`
	// ClockSkew offsets each node's local clock (index = node id; shorter
	// lists leave the remaining nodes unskewed). Node 0 is the reference.
	ClockSkew []spec.Duration `json:"clock_skew,omitempty"`
}

func (ns *NodesSpec) validate() error {
	if ns.Count < 2 {
		return fmt.Errorf("scenario: nodes: count must be >= 2, got %d (omit the nodes section for single-node runs)", ns.Count)
	}
	if ns.LossRate < 0 || ns.LossRate >= 1 {
		return fmt.Errorf("scenario: nodes: loss rate %g out of [0,1)", ns.LossRate)
	}
	if ns.ReorderRate < 0 || ns.ReorderRate >= 1 {
		return fmt.Errorf("scenario: nodes: reorder rate %g out of [0,1)", ns.ReorderRate)
	}
	if ns.SyncInterval < 0 {
		return fmt.Errorf("scenario: nodes: negative sync interval")
	}
	if len(ns.ClockSkew) > ns.Count {
		return fmt.Errorf("scenario: nodes: %d clock skews for %d nodes", len(ns.ClockSkew), ns.Count)
	}
	return nil
}

// lossy reports whether the data plane may legitimately lose or reorder
// frames (which relaxes the cross-node topic invariants).
func (ns *NodesSpec) lossy() bool {
	return ns != nil && (ns.LossRate > 0 || ns.ReorderRate > 0)
}

// nodeCount is the number of applications the scenario runs: Nodes.Count,
// or 1 without a nodes section.
func (sc *Scenario) nodeCount() int {
	if sc.Nodes == nil {
		return 1
	}
	return sc.Nodes.Count
}

// Dist describes a duration distribution: either explicit Choices or a
// log-uniform range [Min, Max].
type Dist struct {
	Min     spec.Duration   `json:"min,omitempty"`
	Max     spec.Duration   `json:"max,omitempty"`
	Choices []spec.Duration `json:"choices,omitempty"`
}

// sample draws one duration.
func (d *Dist) sample(rng *rand.Rand) time.Duration {
	if len(d.Choices) > 0 {
		return d.Choices[rng.Intn(len(d.Choices))].Std()
	}
	lo, hi := float64(d.Min.Std()), float64(d.Max.Std())
	if lo >= hi {
		return d.Min.Std()
	}
	// Log-uniform: spreads samples across magnitudes, the standard choice
	// for period generation (harmonic pile-ups at one magnitude are not
	// representative workloads).
	return time.Duration(math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo))))
}

func (d *Dist) validate(what string) error {
	if len(d.Choices) > 0 {
		for _, c := range d.Choices {
			if c <= 0 {
				return fmt.Errorf("scenario: %s: non-positive choice %v", what, c.Std())
			}
		}
		return nil
	}
	if d.Min <= 0 || d.Max <= 0 {
		return fmt.Errorf("scenario: %s: range needs positive min and max (got %v..%v)", what, d.Min.Std(), d.Max.Std())
	}
	if d.Min > d.Max {
		return fmt.Errorf("scenario: %s: impossible range %v..%v (min > max)", what, d.Min.Std(), d.Max.Std())
	}
	return nil
}

// AccelDecl declares one shared accelerator pool.
type AccelDecl struct {
	Name string `json:"name"`
	// Count is the number of interchangeable instances (0 reads as 1).
	Count int `json:"count,omitempty"`
}

func (a *AccelDecl) validate(i int) error {
	if a.Name == "" {
		return fmt.Errorf("scenario: accelerator %d has no name", i)
	}
	if a.Count < 0 {
		return fmt.Errorf("scenario: accelerator %q: negative instance count %d", a.Name, a.Count)
	}
	return nil
}

// TaskGroup generates Count periodic tasks with sampled periods and a fixed
// per-task utilisation (WCET = Utilization × period).
type TaskGroup struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	// Period is the per-task period distribution.
	Period Dist `json:"period"`
	// Utilization is the per-task utilisation in (0, 1].
	Utilization float64 `json:"utilization"`
	// DeadlineRatio sets D = ratio × T; zero keeps the implicit deadline.
	DeadlineRatio float64 `json:"deadline_ratio,omitempty"`
	// OffsetJitter staggers first releases uniformly over one period,
	// avoiding a synchronous release storm at t=0.
	OffsetJitter bool `json:"offset_jitter,omitempty"`
	// Accel binds every task of the group to the named accelerator pool:
	// AccelShare of each WCET runs as the accelerator critical section
	// (default 0.5), so the group contends on the pool under PIP.
	Accel      string  `json:"accel,omitempty"`
	AccelShare float64 `json:"accel_share,omitempty"`
	// Accel2 nests a mid-job section on a SECOND pool (Accel2Share of the
	// WCET) inside the first pool's hold: each job acquires Accel, then
	// parks on Accel2 while still holding Accel — the holder-chain shape
	// whose PIP boost path broke in PR 5. Requires Accel.
	Accel2      string  `json:"accel2,omitempty"`
	Accel2Share float64 `json:"accel2_share,omitempty"`
	// Node places the whole group on one cluster node (cluster mode only;
	// the zero value is node 0).
	Node int `json:"node,omitempty"`
}

func (g *TaskGroup) validate(i int) error {
	if g.Name == "" {
		return fmt.Errorf("scenario: group %d has no name", i)
	}
	if g.Count <= 0 {
		return fmt.Errorf("scenario: group %q: count must be positive, got %d", g.Name, g.Count)
	}
	if err := g.Period.validate("group " + g.Name + " period"); err != nil {
		return err
	}
	if g.Utilization <= 0 || g.Utilization > 1 {
		return fmt.Errorf("scenario: group %q: impossible utilization %g (need 0 < u <= 1)", g.Name, g.Utilization)
	}
	if g.DeadlineRatio < 0 || g.DeadlineRatio > 1 {
		return fmt.Errorf("scenario: group %q: deadline ratio %g out of [0,1]", g.Name, g.DeadlineRatio)
	}
	if g.AccelShare < 0 || g.AccelShare >= 1 {
		return fmt.Errorf("scenario: group %q: accelerator share %g out of [0,1)", g.Name, g.AccelShare)
	}
	if g.AccelShare > 0 && g.Accel == "" {
		return fmt.Errorf("scenario: group %q: accel_share without an accel", g.Name)
	}
	if g.Accel2Share < 0 || g.Accel2Share >= 1 {
		return fmt.Errorf("scenario: group %q: accel2 share %g out of [0,1)", g.Name, g.Accel2Share)
	}
	if g.Accel2 != "" {
		if g.Accel == "" {
			return fmt.Errorf("scenario: group %q: accel2 without an accel (the chain needs an outer hold)", g.Name)
		}
		if g.Accel2 == g.Accel {
			return fmt.Errorf("scenario: group %q: accel2 must name a different pool than accel", g.Name)
		}
		share := g.AccelShare
		if share == 0 {
			share = 0.5
		}
		share2 := g.Accel2Share
		if share2 == 0 {
			share2 = 0.25
		}
		if share+share2 >= 1 {
			return fmt.Errorf("scenario: group %q: accel shares %g + %g leave no compute in the WCET", g.Name, share, share2)
		}
	} else if g.Accel2Share > 0 {
		return fmt.Errorf("scenario: group %q: accel2_share without an accel2", g.Name)
	}
	return nil
}

// TopicShape generates Count topics, each with Pubs publisher tasks and
// Subs subscriber tasks whose bodies are instrumented for the invariant
// checker (sequence-stamped publishes, per-publisher FIFO verification on
// take).
type TopicShape struct {
	Name string `json:"name"`
	// Count is the number of topic instances of this shape.
	Count int `json:"count"`
	// Pubs/Subs are the fan-in and fan-out degrees per instance.
	Pubs int `json:"pubs"`
	Subs int `json:"subs"`
	// Capacity is the shared buffer depth.
	Capacity int `json:"capacity"`
	// Policy is the overflow policy: "reject" (default), "drop_oldest",
	// "latest".
	Policy string `json:"policy,omitempty"`
	// PublishPeriod / ConsumePeriod are the endpoint task periods.
	PublishPeriod spec.Duration `json:"publish_period"`
	ConsumePeriod spec.Duration `json:"consume_period"`
	// PubNodes / SubNodes place the endpoint tasks in cluster mode:
	// publisher p lands on PubNodes[p mod len], subscriber s on
	// SubNodes[s mod len]. Empty lists mean node 0. A topic whose
	// publishers and subscribers land on different nodes becomes a
	// cross-node topic carried by the cluster data plane.
	PubNodes []int `json:"pub_nodes,omitempty"`
	SubNodes []int `json:"sub_nodes,omitempty"`
}

func (tp *TopicShape) validate(i int) error {
	if tp.Name == "" {
		return fmt.Errorf("scenario: topic shape %d has no name", i)
	}
	if tp.Count <= 0 || tp.Pubs <= 0 || tp.Subs <= 0 {
		return fmt.Errorf("scenario: topic %q: count/pubs/subs must be positive", tp.Name)
	}
	if tp.Capacity < 1 {
		return fmt.Errorf("scenario: topic %q: capacity must be >= 1, got %d", tp.Name, tp.Capacity)
	}
	switch tp.Policy {
	case "", "reject", "drop_oldest", "drop-oldest", "latest":
	default:
		return fmt.Errorf("scenario: topic %q: unknown policy %q", tp.Name, tp.Policy)
	}
	if tp.PublishPeriod <= 0 || tp.ConsumePeriod <= 0 {
		return fmt.Errorf("scenario: topic %q: publish_period and consume_period must be positive", tp.Name)
	}
	return nil
}

// pubNode and subNode place publisher p and subscriber s (see PubNodes).
func (tp *TopicShape) pubNode(p int) int { return placeOn(tp.PubNodes, p) }
func (tp *TopicShape) subNode(s int) int { return placeOn(tp.SubNodes, s) }

func placeOn(nodes []int, i int) int {
	if len(nodes) == 0 {
		return 0
	}
	return nodes[i%len(nodes)]
}

// ChurnPhase schedules reconfiguration transactions.
type ChurnPhase struct {
	// At is the first firing instant; Every repeats it until the scenario
	// ends (zero fires once).
	At    spec.Duration `json:"at"`
	Every spec.Duration `json:"every,omitempty"`
	// Action selects the transaction shape:
	//   "ping_pong" — admit Count tasks, remove them at the next firing,
	//                 re-admit at the one after, ... (fresh names per
	//                 incarnation so retirements are uniquely attributable)
	//   "add"       — admit Count tasks (cumulative)
	//   "retune"    — retune Count random churn tasks (period ×2 or ÷2)
	//   "mode"      — cycle through the spec's installed modes
	//   "cluster"   — cluster mode only: admit Count tasks on EVERY node in
	//                 one cluster-wide two-phase transaction (all nodes
	//                 switch at a common cluster epoch, or none do)
	Action string `json:"action"`
	// Count is the number of tasks per transaction (ping_pong/add/retune).
	Count int `json:"count,omitempty"`
	// Period/Utilization describe tasks this phase admits; zero values
	// default to 10–100ms log-uniform at 1% utilisation each.
	Period      Dist    `json:"period,omitempty"`
	Utilization float64 `json:"utilization,omitempty"`
	// Accel binds admitted tasks to the named accelerator pool (AccelShare
	// of each WCET as the critical section, default 0.5): churn then
	// exercises the blocking-aware admission test and PIP arbitration
	// against a live contended pool.
	Accel      string  `json:"accel,omitempty"`
	AccelShare float64 `json:"accel_share,omitempty"`
}

func (cp *ChurnPhase) validate(i int) error {
	switch cp.Action {
	case "ping_pong", "add", "retune", "mode", "cluster":
	default:
		return fmt.Errorf("scenario: churn %d: unknown action %q", i, cp.Action)
	}
	if cp.At < 0 || cp.Every < 0 {
		return fmt.Errorf("scenario: churn %d: negative time", i)
	}
	if cp.Action != "mode" && cp.Count <= 0 {
		return fmt.Errorf("scenario: churn %d (%s): count must be positive", i, cp.Action)
	}
	if cp.Utilization < 0 || cp.Utilization > 1 {
		return fmt.Errorf("scenario: churn %d: impossible utilization %g", i, cp.Utilization)
	}
	if cp.Period.Min != 0 || cp.Period.Max != 0 || len(cp.Period.Choices) > 0 {
		if err := cp.Period.validate(fmt.Sprintf("churn %d period", i)); err != nil {
			return err
		}
	}
	if cp.AccelShare < 0 || cp.AccelShare >= 1 {
		return fmt.Errorf("scenario: churn %d: accelerator share %g out of [0,1)", i, cp.AccelShare)
	}
	if cp.AccelShare > 0 && cp.Accel == "" {
		return fmt.Errorf("scenario: churn %d: accel_share without an accel", i)
	}
	return nil
}

// Failures configures fault injection.
type Failures struct {
	// TaskErrorRate is the probability a churn-task job returns an error
	// (exercising the recordTaskError path under load).
	TaskErrorRate float64 `json:"task_error_rate,omitempty"`
}

// Validate checks the scenario for structural and distributional
// impossibilities. It is called by Load; call it directly on hand-built
// scenarios.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: needs a name")
	}
	if sc.Duration <= 0 {
		return fmt.Errorf("scenario: needs a positive duration, got %v", sc.Duration.Std())
	}
	if sc.Workers <= 0 {
		return fmt.Errorf("scenario: needs workers >= 1, got %d", sc.Workers)
	}
	switch sc.Mapping {
	case "", "global", "partitioned":
	default:
		return fmt.Errorf("scenario: unknown mapping %q", sc.Mapping)
	}
	switch sc.Priority {
	case "", "edf", "rm", "dm":
	default:
		return fmt.Errorf("scenario: unknown priority %q", sc.Priority)
	}
	if len(sc.Groups) == 0 && len(sc.Topics) == 0 {
		return fmt.Errorf("scenario: needs at least one task group or topic shape")
	}
	if sc.AccelWaitBound < 0 {
		return fmt.Errorf("scenario: negative accel_wait_bound")
	}
	accels := map[string]bool{}
	for i := range sc.Accels {
		if err := sc.Accels[i].validate(i); err != nil {
			return err
		}
		if accels[sc.Accels[i].Name] {
			return fmt.Errorf("scenario: duplicate accelerator name %q", sc.Accels[i].Name)
		}
		accels[sc.Accels[i].Name] = true
	}
	names := map[string]bool{}
	for i := range sc.Groups {
		if err := sc.Groups[i].validate(i); err != nil {
			return err
		}
		if names[sc.Groups[i].Name] {
			return fmt.Errorf("scenario: duplicate group name %q", sc.Groups[i].Name)
		}
		if a := sc.Groups[i].Accel; a != "" && !accels[a] {
			return fmt.Errorf("scenario: group %q: unknown accelerator %q", sc.Groups[i].Name, a)
		}
		if a := sc.Groups[i].Accel2; a != "" && !accels[a] {
			return fmt.Errorf("scenario: group %q: unknown accelerator %q", sc.Groups[i].Name, a)
		}
		names[sc.Groups[i].Name] = true
	}
	for i := range sc.Topics {
		if err := sc.Topics[i].validate(i); err != nil {
			return err
		}
		if names[sc.Topics[i].Name] {
			return fmt.Errorf("scenario: duplicate topic shape name %q", sc.Topics[i].Name)
		}
		names[sc.Topics[i].Name] = true
	}
	// Utilisation feasibility is per node: every node has its own Workers
	// cores (single-node scenarios are the one-node special case).
	perNodeU := map[int]float64{}
	for i := range sc.Groups {
		perNodeU[sc.Groups[i].Node] += float64(sc.Groups[i].Count) * sc.Groups[i].Utilization
	}
	for node, u := range perNodeU { //yasmin:orderinvariant fail-fast validation, any overload is fatal
		if u > float64(sc.Workers) {
			return fmt.Errorf("scenario: impossible load: groups demand %.2f workers' worth of utilisation on node %d's %d workers", u, node, sc.Workers)
		}
	}
	if err := sc.validateCluster(); err != nil {
		return err
	}
	for i := range sc.Churn {
		if err := sc.Churn[i].validate(i); err != nil {
			return err
		}
		if a := sc.Churn[i].Accel; a != "" && !accels[a] {
			return fmt.Errorf("scenario: churn %d: unknown accelerator %q", i, a)
		}
	}
	if sc.Failures.TaskErrorRate < 0 || sc.Failures.TaskErrorRate > 1 {
		return fmt.Errorf("scenario: task error rate %g out of [0,1]", sc.Failures.TaskErrorRate)
	}
	return nil
}

// validateCluster enforces the cluster-mode rules — and, symmetrically,
// that single-node scenarios use no cluster-only knobs.
func (sc *Scenario) validateCluster() error {
	if sc.Nodes == nil {
		for i := range sc.Groups {
			if sc.Groups[i].Node != 0 {
				return fmt.Errorf("scenario: group %q places node %d without a nodes section", sc.Groups[i].Name, sc.Groups[i].Node)
			}
		}
		for i := range sc.Topics {
			if len(sc.Topics[i].PubNodes) > 0 || len(sc.Topics[i].SubNodes) > 0 {
				return fmt.Errorf("scenario: topic %q places endpoints on nodes without a nodes section", sc.Topics[i].Name)
			}
		}
		for i := range sc.Churn {
			if sc.Churn[i].Action == "cluster" {
				return fmt.Errorf("scenario: churn %d: \"cluster\" action needs a nodes section", i)
			}
		}
		return nil
	}
	if err := sc.Nodes.validate(); err != nil {
		return err
	}
	if len(sc.Accels) > 0 {
		// Accelerators are node-local hardware; a cluster scenario sharing
		// one pool across nodes would be physically meaningless. Per-node
		// pools are future work — reject rather than silently mis-model.
		return fmt.Errorf("scenario: accelerator pools are not supported in cluster mode")
	}
	n := sc.Nodes.Count
	for i := range sc.Groups {
		if g := &sc.Groups[i]; g.Node < 0 || g.Node >= n {
			return fmt.Errorf("scenario: group %q: node %d out of range [0,%d)", g.Name, g.Node, n)
		}
	}
	for i := range sc.Topics {
		tp := &sc.Topics[i]
		for _, lists := range [][]int{tp.PubNodes, tp.SubNodes} {
			for _, nd := range lists {
				if nd < 0 || nd >= n {
					return fmt.Errorf("scenario: topic %q: node %d out of range [0,%d)", tp.Name, nd, n)
				}
			}
		}
	}
	for i := range sc.Churn {
		if sc.Churn[i].Action != "cluster" {
			// Single-app churn inside a cluster run would move one node's
			// epoch without the others — exactly the divergence the
			// cluster-wide transaction exists to prevent.
			return fmt.Errorf("scenario: churn %d: only the \"cluster\" action is allowed in cluster mode, got %q", i, sc.Churn[i].Action)
		}
	}
	return nil
}

// Load parses a scenario from YAML (.yaml/.yml) or JSON (anything else)
// and validates it. Unknown fields are rejected in both syntaxes.
func Load(data []byte, path string) (*Scenario, error) {
	ext := strings.ToLower(filepath.Ext(path))
	jsonBytes := data
	if ext == ".yaml" || ext == ".yml" {
		doc, err := parseYAML(data)
		if err != nil {
			return nil, err
		}
		jsonBytes, err = json.Marshal(doc)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	var sc Scenario
	dec := json.NewDecoder(strings.NewReader(string(jsonBytes)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// LoadFile reads and validates a scenario file.
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Load(data, path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// TaskCount returns the number of statically declared tasks (groups plus
// topic endpoints), before churn headroom.
func (sc *Scenario) TaskCount() int {
	n := 0
	for i := range sc.Groups {
		n += sc.Groups[i].Count
	}
	for i := range sc.Topics {
		n += sc.Topics[i].Count * (sc.Topics[i].Pubs + sc.Topics[i].Subs)
	}
	return n
}

// churnHeadroom returns extra task slots churn phases may occupy at once
// on each node: live adds (a "cluster" firing adds on every node) plus
// up-to-one draining generation of ping-pong tasks.
func (sc *Scenario) churnHeadroom() int {
	n := 0
	for i := range sc.Churn {
		cp := &sc.Churn[i]
		switch cp.Action {
		case "add", "cluster":
			reps := 1
			if cp.Every > 0 {
				reps = int(sc.Duration.Std()/cp.Every.Std()) + 1
			}
			n += cp.Count * reps
		case "ping_pong":
			n += 2 * cp.Count // one live + one draining generation
		}
	}
	return n
}
