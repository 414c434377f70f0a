package scenario

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/yasmin-rt/yasmin/internal/cluster"
	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/sim"
	"github.com/yasmin-rt/yasmin/internal/spec"
	"github.com/yasmin-rt/yasmin/internal/telemetry"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// Report is the machine-readable outcome of one scenario run — the
// document `yasmin-stress -out` writes.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	// Tasks is the statically declared task count; PeakTasks adds churn
	// headroom actually provisioned.
	Tasks     int `json:"tasks"`
	PeakTasks int `json:"peak_tasks"`
	Workers   int `json:"workers"`

	SimDurationNS int64  `json:"sim_duration_ns"`
	WallNS        int64  `json:"wall_ns"`
	EngineSteps   uint64 `json:"engine_steps"`

	Jobs     int64 `json:"jobs"`
	Misses   int64 `json:"misses"`
	Overruns int64 `json:"overruns"`

	Published int64 `json:"published"`
	Delivered int64 `json:"delivered"`

	// Accelerator arbitration counters (zero without accels): acquisitions
	// (free-instance takes plus direct grants), parks, PIP boosts and the
	// longest park→grant/acquire wait observed.
	AccelAcquires  int64 `json:"accel_acquires,omitempty"`
	AccelParks     int64 `json:"accel_parks,omitempty"`
	AccelBoosts    int64 `json:"accel_boosts,omitempty"`
	AccelMaxWaitNS int64 `json:"accel_max_wait_ns,omitempty"`

	// Sched is the scheduler core's counter snapshot (summed over nodes in
	// cluster mode): idle-list wakes, preemption signalling and schedView
	// publications.
	Sched trace.SchedStats `json:"sched"`

	Epochs     int   `json:"epochs"`
	Retires    int   `json:"retires"`
	Rejections int64 `json:"rejections"`
	// TaskErrors is the middleware's count of failed jobs (equals the
	// checker's injected count on a clean run).
	TaskErrors int64 `json:"task_errors,omitempty"`

	JobsPerWallSec float64  `json:"jobs_per_wall_sec"`
	Violations     []string `json:"violations"`

	// Topics is the per-topic data-plane accounting (RunOpts.PerTopic;
	// the differential runner compares it between backends).
	Topics []TopicAccount `json:"topics,omitempty"`

	// Nodes is the per-node breakdown of a cluster run (nil single-node);
	// the top-level counters then sum over the nodes, and Epochs is the
	// common cluster epoch every node committed.
	Nodes []NodeReport `json:"nodes,omitempty"`
}

// NodeReport is one cluster node's share of a scenario run: its scheduler
// counters plus the data-plane accounting of its cluster adapter.
type NodeReport struct {
	Node   int   `json:"node"`
	Tasks  int   `json:"tasks"`
	Jobs   int64 `json:"jobs"`
	Misses int64 `json:"misses"`
	cluster.NodeStats
}

// RunOpts carries optional harness wiring for RunWith.
type RunOpts struct {
	// Telemetry, when set, streams every trace record of the run into the
	// given consumer as it is produced (see core.Config.Telemetry). Wire a
	// *telemetry.Pipeline here to export the run as JSONL and re-verify it
	// offline with CheckStream. Ignored in cluster mode (use NodeTelemetry).
	Telemetry trace.Stream
	// NodeTelemetry supplies one pipeline per node (index = node id, one
	// for a single-node scenario; construct each with
	// telemetry.Options{Node: id} so its export carries the stamp). Every
	// node's trace records, frame events and cluster-epoch marks flow
	// through its own pipeline, attached blocking, and the per-node files
	// reconcile offline with CheckStreams. nil disables; any other length
	// must equal the node count.
	NodeTelemetry []*telemetry.Pipeline
	// PerTopic adds per-topic accounting to the report (Report.Topics) —
	// the differential runner diffs it between the Sim and OS backends.
	PerTopic bool
	// OS configures the wall-clock backend; RunWith ignores it.
	OS OSRunOpts
}

// OSRunOpts tunes RunOS.
type OSRunOpts struct {
	// Spin selects busy-wait Compute (really burns CPU); the default
	// sleeps instead, which models the load without needing idle cores.
	Spin bool
	// Pin wires threads to OS threads and attempts CPU affinity (needs
	// privileges / enough cores; best-effort).
	Pin bool
}

// runBackend is what a scenario execution backend must provide: an
// environment to build the application in, a way to drive the world to
// completion, and (sim only) an engine-step counter.
type runBackend struct {
	env   rt.Env
	drive func() error
	steps func() uint64
	wall  bool // wall-clock backend: jobs of one task may overlap
}

// Run executes the scenario on the deterministic simulation backend and
// returns the report; the error covers harness failures (a violation-laden
// run still returns its report).
func Run(sc *Scenario) (*Report, error) { return RunWith(sc, RunOpts{}) }

// RunWith is Run with harness options. The nodes of a cluster scenario are
// co-simulated on one engine: one virtual timeline, each node with its own
// scheduler core and worker set.
func RunWith(sc *Scenario, opts RunOpts) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine(sc.Seed)
	env, err := rt.NewSimEnv(eng, platform.Generic(sc.nodeCount()*(sc.Workers+1)), nil)
	if err != nil {
		return nil, err
	}
	return runScenario(sc, opts, runBackend{env: env, drive: eng.RunUntilIdle, steps: eng.Steps})
}

// RunOS executes the scenario on the wall-clock backend (rt.OSEnv) — the
// second leg of the differential runner. The same spec generation, churn
// driver and checker run unchanged; only the environment differs, so any
// divergence in checker-visible behaviour is the middleware's, not the
// harness's. Timing-derived counters (jobs, publishes) legitimately differ
// from the simulation: the OS scheduler preempts whenever it pleases.
// Compute defaults to sleeping (no CPU burn, no RT privileges needed);
// opts.OS selects spinning and thread pinning for machines that allow it.
//
// Cluster scenarios are rejected: the cluster data plane is simulation-only.
func RunOS(sc *Scenario, opts RunOpts) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Nodes != nil {
		return nil, fmt.Errorf("scenario %s: cluster scenarios run on the simulation backend only", sc.Name)
	}
	env := rt.NewOSEnv()
	env.Spin = opts.OS.Spin
	env.PinThreads = opts.OS.Pin
	return runScenario(sc, opts, runBackend{
		env:   env,
		drive: func() error { env.Wait(); return nil },
		steps: func() uint64 { return 0 },
		wall:  true,
	})
}

// runScenario executes a validated scenario on the given backend: one
// application per node — a single-node scenario is the one-node case —
// joined by the internal/cluster data plane when there are several.
// Cross-node topics carry the same sequence-stamped values the checker
// verifies on one node, so per-publisher FIFO is proven end to end across
// the wire (under injected loss/reorder the lossy relaxation admits gaps
// but still no inversions).
//
// The spec/driver rng is seeded from the scenario seed alone and only ever
// touched by spec generation and the single driver thread, so driver
// decisions (admitted task shapes, retune picks) are identical between the
// Sim and OS backends; task bodies draw from their own locked stream (see
// lockedUnitRand).
func runScenario(sc *Scenario, opts RunOpts, bk runBackend) (*Report, error) {
	if opts.NodeTelemetry != nil && len(opts.NodeTelemetry) != sc.nodeCount() {
		return nil, fmt.Errorf("scenario %s: %d telemetry pipelines for %d nodes", sc.Name, len(opts.NodeTelemetry), sc.nodeCount())
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	ck := NewChecker()
	ck.overlapJobs = bk.wall && sc.Mapping != "partitioned"
	ck.accelWaitBound = sc.AccelWaitBound.Std()
	ck.SetContext(Context{Scenario: sc.Name, Seed: sc.Seed, Node: -1})

	s, gen := sc.buildSpec(rng, ck)
	apps, peakTasks, err := sc.buildApps(s, gen, opts, bk.env)
	if err != nil {
		return nil, err
	}
	var cl *cluster.Cluster
	if sc.Nodes != nil {
		if cl, err = sc.joinCluster(apps, gen, opts, bk.env); err != nil {
			return nil, err
		}
	}

	events := sc.expandChurn()
	horizon := sc.Duration.Std()
	driver := &churnDriver{sc: sc, apps: apps, cl: cl, ck: ck, rng: rng, gen: gen,
		frand: lockedUnitRand(sc.Seed)}
	var harnessErr error
	bk.env.Spawn("stress-driver", rt.UnpinnedCore, func(c rt.Ctx) {
		for i, app := range apps {
			if err := app.Start(c); err != nil {
				harnessErr = fmt.Errorf("scenario %s: node %d start: %w", sc.Name, i, err)
				for _, started := range apps[:i] {
					started.Stop(c)
				}
				if cl != nil {
					_ = cl.Close() // the start failure is the error to report
				}
				return
			}
		}
		for _, ev := range events {
			if ev.at >= horizon {
				break
			}
			c.SleepUntil(ev.at)
			driver.fire(c, ev)
		}
		c.SleepUntil(horizon)
		for _, app := range apps {
			app.Stop(c)
		}
		if cl != nil {
			if err := cl.Close(); err != nil {
				harnessErr = fmt.Errorf("scenario %s: cluster close: %w", sc.Name, err)
			}
		}
		for _, app := range apps {
			app.Cleanup(c)
		}
	})

	wall0 := time.Now() //yasmin:wallclock host-side duration report, not simulation state
	if err := bk.drive(); err != nil {
		return nil, fmt.Errorf("scenario %s: engine: %w", sc.Name, err)
	}
	if harnessErr != nil {
		return nil, harnessErr
	}
	wall := time.Since(wall0) //yasmin:wallclock host-side duration report

	rep := &Report{
		Scenario:      sc.Name,
		Seed:          sc.Seed,
		Tasks:         sc.TaskCount(),
		PeakTasks:     peakTasks,
		Workers:       sc.Workers,
		SimDurationNS: int64(horizon),
		WallNS:        wall.Nanoseconds(),
		EngineSteps:   bk.steps(),
		Published:     ck.Published(),
		Delivered:     ck.Delivered(),
		Epochs:        driver.epoch(),
		Rejections:    driver.rejections,
		Violations:    ck.Finish(apps...),
	}
	for i, app := range apps {
		jobs, misses := app.Recorder().TotalJobs(), app.Recorder().TotalMisses()
		rep.Jobs += jobs
		rep.Misses += misses
		rep.Overruns += app.Overruns()
		rep.TaskErrors += app.TaskErrors()
		rep.Retires += len(app.Recorder().Retires())
		rep.Sched.Add(app.SchedStats())
		if cl != nil {
			rep.Nodes = append(rep.Nodes, NodeReport{
				Node:      i,
				Tasks:     gen.nodeTasks[i],
				Jobs:      jobs,
				Misses:    misses,
				NodeStats: cl.Node(i).Stats(),
			})
		}
	}
	if opts.PerTopic {
		rep.Topics = ck.TopicTotals()
	}
	st := ck.AccelStats()
	rep.AccelAcquires = st.Acquires
	rep.AccelParks = st.Parks
	rep.AccelBoosts = st.Boosts
	rep.AccelMaxWaitNS = st.MaxWait.Nanoseconds()
	if wall > 0 {
		rep.JobsPerWallSec = float64(rep.Jobs) / wall.Seconds()
	}
	return rep, nil
}

// buildApps builds one application per node from the generated spec — the
// spec itself on a single node, its ForNode projections in a cluster —
// each on its own scheduler core and worker cores, and returns them with
// the number of task slots provisioned over all nodes.
func (sc *Scenario) buildApps(s *spec.Spec, gen *genState, opts RunOpts, env rt.Env) ([]*core.App, int, error) {
	nodes := sc.nodeCount()
	if nodes > 1 {
		// Build validates each projection; the whole spec is checked once
		// here for what no projection sees (cross-node placements).
		if err := s.Validate(); err != nil {
			return nil, 0, fmt.Errorf("scenario %s: generated cluster spec invalid: %w", sc.Name, err)
		}
	}
	headroom := sc.churnHeadroom()
	apps := make([]*core.App, nodes)
	peakTasks := 0
	for i := range apps {
		p := s
		if nodes > 1 {
			p = s.ForNode(i)
		}
		maxTasks := gen.nodeTasks[i] + headroom
		peakTasks += maxTasks
		pending := sc.MaxPendingJobs
		if pending == 0 {
			pending = maxTasks + 4*sc.Workers + 64
		}
		base := i * (sc.Workers + 1)
		wcores := make([]int, sc.Workers)
		for w := range wcores {
			wcores[w] = base + 1 + w
		}
		cfg := core.Config{
			Workers:         sc.Workers,
			SchedulerCore:   base,
			WorkerCores:     wcores,
			Mapping:         core.MappingGlobal,
			Priority:        core.PriorityEDF,
			MaxTasks:        maxTasks,
			MaxChannels:     len(p.Topics) + 1,
			MaxPendingJobs:  pending,
			SchedulerPeriod: sc.SchedulerPeriod.Std(),
			// The checker replays the arbitration events.
			RecordAccel: len(sc.Accels) > 0,
		}
		switch sc.Mapping {
		case "partitioned":
			cfg.Mapping = core.MappingPartitioned
		}
		switch sc.Priority {
		case "rm":
			cfg.Priority = core.PriorityRM
		case "dm":
			cfg.Priority = core.PriorityDM
		}
		switch {
		case opts.NodeTelemetry != nil:
			cfg.Telemetry = opts.NodeTelemetry[i].Blocking()
		case sc.Nodes == nil:
			cfg.Telemetry = opts.Telemetry
		}
		app, err := p.Build(cfg, env)
		if err != nil {
			return nil, 0, fmt.Errorf("scenario %s: node %d build: %w", sc.Name, i, err)
		}
		// The instrumented bodies captured the CIDs the spec layer's
		// positional contract promises; fail fast if the built App disagrees
		// (a silent mismatch would turn every publish/take into misleading
		// checker violations).
		for name, cid := range gen.nodeCIDs[i] { //yasmin:orderinvariant fail-fast validation, any mismatch is fatal
			if got := app.TopicID(name); got != cid {
				return nil, 0, fmt.Errorf("scenario %s: node %d: topic %s built as CID %d, bodies captured %d", sc.Name, i, name, got, cid)
			}
		}
		apps[i] = app
	}
	return apps, peakTasks, nil
}

// joinCluster joins the nodes' applications over the deterministic
// in-memory transport and starts the cluster: every cross-node topic
// forwards from its publishers' nodes to every remote subscriber node, and
// the subscribers' nodes provision ingress for it.
func (sc *Scenario) joinCluster(apps []*core.App, gen *genState, opts RunOpts, env rt.Env) (*cluster.Cluster, error) {
	ns := sc.Nodes
	cl := cluster.New()
	for i, app := range apps {
		ncfg := cluster.NodeConfig{
			App:          app,
			Env:          env,
			IngressCore:  i * (sc.Workers + 1), // middleware overhead rides the scheduler core
			SyncInterval: ns.SyncInterval.Std(),
		}
		if i < len(ns.ClockSkew) {
			ncfg.ClockSkew = ns.ClockSkew[i].Std()
		}
		if opts.NodeTelemetry != nil {
			ncfg.Pipeline = opts.NodeTelemetry[i]
		}
		if _, err := cl.AddNode(ncfg); err != nil {
			return nil, fmt.Errorf("scenario %s: node %d: %w", sc.Name, i, err)
		}
	}
	for _, w := range gen.wires {
		for n := range apps {
			var dests []int
			if w.pubNodes[n] {
				for d, sub := range w.subNodes {
					if sub && d != n {
						dests = append(dests, d)
					}
				}
			}
			remote := false
			if w.subNodes[n] {
				for p, pub := range w.pubNodes {
					remote = remote || (pub && p != n)
				}
			}
			if len(dests) == 0 && !remote {
				continue // no endpoint here, or a purely node-local topic
			}
			if err := cl.Node(n).Topic(w.name, dests, remote); err != nil {
				return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
			}
		}
	}
	cluster.NewMemTransport(cl, cluster.MemOpts{
		Seed:        sc.Seed,
		LossRate:    ns.LossRate,
		ReorderRate: ns.ReorderRate,
	})
	if err := cl.Start(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	return cl, nil
}

// genState carries what the runner and the churn driver need from spec
// generation.
type genState struct {
	groupTasks []string                 // plain compute task names
	groupData  map[string]spec.TaskSpec // name -> declared timing (for retunes)
	modes      []string                 // installed mode names, cycle order
	// nodeCIDs maps, per node, topic name -> the CID the topic gets in that
	// node's App: its index among the topics present on the node (the spec
	// layer's positional contract — the generated spec declares no
	// channels, and a ForNode projection keeps topics in declaration
	// order). buildApps re-verifies every entry against the built App.
	nodeCIDs []map[string]core.CID
	// nodeTasks counts statically declared tasks per node.
	nodeTasks []int
	// wires lists every generated topic with its endpoint nodes.
	wires []topicWire
}

// topicWire is one topic's placement: which nodes host publishers and
// which host subscribers (indexed by node).
type topicWire struct {
	name               string
	pubNodes, subNodes []bool
}

// crossNode reports whether a publisher and a subscriber of the topic sit
// on different nodes.
func (w *topicWire) crossNode() bool {
	for p, pub := range w.pubNodes {
		for s, sub := range w.subNodes {
			if pub && sub && p != s {
				return true
			}
		}
	}
	return false
}

// buildSpec generates the declarative application (group tasks, topic
// meshes with instrumented endpoints, mode presets) from the scenario,
// every task placed on its node (node 0 on a single node). Instrumented
// endpoint bodies capture the node-local CID of their topic.
func (sc *Scenario) buildSpec(rng *rand.Rand, ck *Checker) (*spec.Spec, *genState) {
	nodes := sc.nodeCount()
	s := &spec.Spec{Name: sc.Name, Nodes: nodes}
	gen := &genState{
		groupData: make(map[string]spec.TaskSpec),
		nodeCIDs:  make([]map[string]core.CID, nodes),
		nodeTasks: make([]int, nodes),
	}
	for i := range gen.nodeCIDs {
		gen.nodeCIDs[i] = make(map[string]core.CID)
	}

	cores := make([]int, nodes)
	nextCore := func(node int) int {
		c := cores[node] % sc.Workers
		cores[node]++
		return c
	}

	for ai := range sc.Accels {
		a := &sc.Accels[ai]
		s.Accels = append(s.Accels, spec.AccelSpec{Name: a.Name, Count: a.Count})
	}

	for gi := range sc.Groups {
		g := &sc.Groups[gi]
		for i := 0; i < g.Count; i++ {
			period := g.Period.sample(rng)
			wcet := time.Duration(g.Utilization * float64(period))
			if wcet < time.Microsecond {
				wcet = time.Microsecond
			}
			v := spec.VersionSpec{WCET: spec.Duration(wcet)}
			if g.Accel != "" {
				share := g.AccelShare
				if share == 0 {
					share = 0.5
				}
				v.Accel = g.Accel
				v.AccelCS = spec.Duration(float64(wcet) * share)
				if g.Accel2 != "" {
					share2 := g.Accel2Share
					if share2 == 0 {
						share2 = 0.25
					}
					cs1 := v.AccelCS.Std()
					cs2 := time.Duration(float64(wcet) * share2)
					// Admission sees one conservative blocking term
					// covering both sections.
					v.AccelCS = spec.Duration(cs1 + cs2)
					v.Fn = chainBody(wcet, cs1, cs2, g.Accel2)
				}
			}
			t := spec.TaskSpec{
				Name:     fmt.Sprintf("%s-%d", g.Name, i),
				Period:   spec.Duration(period),
				Core:     nextCore(g.Node),
				Node:     g.Node,
				Versions: []spec.VersionSpec{v},
			}
			if g.DeadlineRatio > 0 {
				t.Deadline = spec.Duration(float64(period) * g.DeadlineRatio)
			}
			if g.OffsetJitter {
				t.Offset = spec.Duration(rng.Int63n(int64(period)))
			}
			s.Tasks = append(s.Tasks, t)
			gen.groupTasks = append(gen.groupTasks, t.Name)
			gen.groupData[t.Name] = t
		}
	}

	lossy := sc.Nodes.lossy()
	for si := range sc.Topics {
		sh := &sc.Topics[si]
		pol, _ := core.ParsePolicy(sh.Policy)
		for k := 0; k < sh.Count; k++ {
			topicName := fmt.Sprintf("%s-%d", sh.Name, k)
			ti := ck.addTopic(topicName, pol, sh.Capacity, sh.Pubs, sh.Subs)
			w := topicWire{name: topicName, pubNodes: make([]bool, nodes), subNodes: make([]bool, nodes)}
			for p := 0; p < sh.Pubs; p++ {
				w.pubNodes[sh.pubNode(p)] = true
			}
			for sub := 0; sub < sh.Subs; sub++ {
				w.subNodes[sh.subNode(sub)] = true
			}
			if lossy && w.crossNode() {
				// Frames of this topic ride the faulty wire: gaps are legal,
				// inversions still are not.
				ck.setLossy(ti)
			}
			for n := range nodes {
				if w.pubNodes[n] || w.subNodes[n] {
					gen.nodeCIDs[n][topicName] = core.CID(len(gen.nodeCIDs[n]))
				}
			}
			ts := spec.TopicSpec{
				Name:     topicName,
				Capacity: sh.Capacity,
				Policy:   sh.Policy,
			}
			for p := 0; p < sh.Pubs; p++ {
				node := sh.pubNode(p)
				name := fmt.Sprintf("%s-pub%d", topicName, p)
				ts.Pubs = append(ts.Pubs, name)
				s.Tasks = append(s.Tasks, spec.TaskSpec{
					Name:   name,
					Period: sh.PublishPeriod,
					Offset: spec.Duration(rng.Int63n(int64(sh.PublishPeriod.Std()))),
					Core:   nextCore(node),
					Node:   node,
					Versions: []spec.VersionSpec{{
						Fn: pubBody(ck, ti, p, gen.nodeCIDs[node][topicName]),
					}},
				})
			}
			for sub := 0; sub < sh.Subs; sub++ {
				node := sh.subNode(sub)
				name := fmt.Sprintf("%s-sub%d", topicName, sub)
				ts.Subs = append(ts.Subs, name)
				s.Tasks = append(s.Tasks, spec.TaskSpec{
					Name:   name,
					Period: sh.ConsumePeriod,
					Offset: spec.Duration(rng.Int63n(int64(sh.ConsumePeriod.Std()))),
					Core:   nextCore(node),
					Node:   node,
					Versions: []spec.VersionSpec{{
						Fn: subBody(ck, ti, sub, gen.nodeCIDs[node][topicName]),
					}},
				})
			}
			s.Topics = append(s.Topics, ts)
			gen.wires = append(gen.wires, w)
		}
	}

	// Mode presets for "mode" churn: "full" activates everything, "reduced"
	// drops the second half of every group (topic meshes stay live in both
	// so data-plane accounting is continuous).
	needModes := false
	for i := range sc.Churn {
		if sc.Churn[i].Action == "mode" {
			needModes = true
		}
	}
	if needModes {
		reduced := make([]string, 0, len(s.Tasks))
		for gi := range sc.Groups {
			g := &sc.Groups[gi]
			for i := 0; i < g.Count/2; i++ {
				reduced = append(reduced, fmt.Sprintf("%s-%d", g.Name, i))
			}
		}
		for i := range s.Topics {
			reduced = append(reduced, s.Topics[i].Pubs...)
			reduced = append(reduced, s.Topics[i].Subs...)
		}
		s.Modes = []spec.ModeSpec{
			{Name: "full", Mode: 0},
			{Name: "reduced", Mode: 1, Tasks: reduced},
		}
		gen.modes = []string{"reduced", "full"}
	}

	for i := range s.Tasks {
		gen.nodeTasks[s.Tasks[i].Node]++
	}
	return s, gen
}

// pubBody returns the instrumented publisher body: stamp, publish, account.
// Under Reject a full buffer is a legitimate outcome (the entry was never
// accepted and the sequence number is reused); any other Publish failure is
// a middleware defect the harness exists to surface, so it becomes a
// checker violation rather than being silently swallowed.
func pubBody(ck *Checker, ti, p int, cid core.CID) core.TaskFunc {
	return func(x *core.ExecCtx, _ any) error {
		err := ck.publish(ti, p, func(v int64) error { return x.Publish(cid, v) })
		if err != nil && !strings.Contains(err.Error(), " full (") {
			ck.violationf("topic check %d pub %d: publish failed unexpectedly: %v", ti, p, err)
		}
		return nil
	}
}

// subBody returns the instrumented subscriber body: drain the backlog,
// verifying per-publisher FIFO on every entry.
func subBody(ck *Checker, ti, sub int, cid core.CID) core.TaskFunc {
	return func(x *core.ExecCtx, _ any) error {
		for {
			v, ok, err := x.Take(cid)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			ck.noteTaken(ti, sub, v)
		}
	}
}

// chainBody is the explicit body of Accel2 groups. The version's bound
// pool is acquired at dispatch and held for the whole job; cs1 of the WCET
// runs as an explicit section on it, then cs2 parks on the second pool
// while the first is still held — the holder-chain shape whose transitive
// PIP boost (and waiter re-sort) broke in PR 5.
func chainBody(wcet, cs1, cs2 time.Duration, accel2 string) core.TaskFunc {
	return func(x *core.ExecCtx, _ any) error {
		h := x.App().AccelIDByName(accel2)
		if h == core.NoAccel {
			return fmt.Errorf("scenario: chain body: unknown accelerator %q", accel2)
		}
		pre := (wcet - cs1 - cs2) / 2
		if err := x.Compute(pre); err != nil {
			return err
		}
		if err := x.AccelSection(cs1); err != nil {
			return err
		}
		if err := x.AccelSectionOn(h, cs2); err != nil {
			return err
		}
		return x.Compute(wcet - cs1 - cs2 - pre)
	}
}

// lockedUnitRand returns a mutex-guarded uniform [0,1) source for task
// bodies, seeded away from the spec/driver stream. Bodies run concurrently
// on the OS backend, so they must never touch the driver's rng — both for
// memory safety and so the driver's decision sequence stays identical
// between backends.
func lockedUnitRand(seed int64) func() float64 {
	var mu sync.Mutex
	r := rand.New(rand.NewSource(seed ^ bodySeedSalt))
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return r.Float64()
	}
}

// bodySeedSalt decorrelates the body stream from the spec/driver stream.
const bodySeedSalt = 0x51cc5a7a93e5

// churnEvent is one expanded churn firing.
type churnEvent struct {
	at    time.Duration
	phase int
	rep   int
}

// expandChurn unrolls repeating phases over the scenario duration into a
// time-sorted firing list.
func (sc *Scenario) expandChurn() []churnEvent {
	var evs []churnEvent
	horizon := sc.Duration.Std()
	for pi := range sc.Churn {
		cp := &sc.Churn[pi]
		at := cp.At.Std()
		rep := 0
		for at < horizon {
			evs = append(evs, churnEvent{at: at, phase: pi, rep: rep})
			if cp.Every <= 0 {
				break
			}
			at += cp.Every.Std()
			rep++
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs
}

// churnDriver executes churn transactions and records their admission
// outcomes for the checker. With a cluster (cl non-nil) a transaction is
// two-phase: every node commits at a common cluster epoch, or none does.
type churnDriver struct {
	sc   *Scenario
	apps []*core.App
	cl   *cluster.Cluster
	ck   *Checker
	rng  *rand.Rand
	gen  *genState
	// frand is the locked body-side rand (failure-injection draws).
	frand func() float64

	rejections int64
	// per-phase ping-pong state
	alive      map[int][]string
	generation map[int]int
	modeIdx    int
	retuneUp   map[string]bool
}

// epoch is the epoch the driver's transactions advance: the cluster epoch
// in a cluster, the application's on a single node.
func (d *churnDriver) epoch() int {
	if d.cl != nil {
		return int(d.cl.Epoch())
	}
	return d.apps[0].Epoch()
}

func (d *churnDriver) fire(c rt.Ctx, ev churnEvent) {
	cp := &d.sc.Churn[ev.phase]
	if d.alive == nil {
		d.alive = make(map[int][]string)
		d.generation = make(map[int]int)
		d.retuneUp = make(map[string]bool)
	}
	app := d.apps[0] // Validate admits only the "cluster" action with several nodes
	before := d.epoch()
	var err error
	action := cp.Action
	switch cp.Action {
	case "mode":
		if len(d.gen.modes) == 0 {
			return // no presets installed: nothing to attempt
		}
		name := d.gen.modes[d.modeIdx%len(d.gen.modes)]
		d.modeIdx++
		action = "mode:" + name
		err = app.SwitchMode(c, name)
	case "add", "cluster":
		err = d.admitTasks(c, ev, cp, nil)
	case "ping_pong":
		if len(d.alive[ev.phase]) == 0 {
			action = "ping_pong:admit"
			err = d.admitTasks(c, ev, cp, &ev.phase)
		} else {
			action = "ping_pong:retire"
			names := d.alive[ev.phase]
			err = app.Reconfigure(c, func(tx *core.Reconfig) error {
				for _, n := range names {
					if rerr := tx.RemoveTaskByName(n); rerr != nil {
						return rerr
					}
				}
				return nil
			})
			if err == nil {
				d.alive[ev.phase] = nil
			}
		}
	case "retune":
		if len(d.gen.groupTasks) == 0 {
			// Topics-only scenario: nothing to retune. Skip the attempt
			// record entirely — recording a "commit" that moved no epoch
			// would read as an admission-monotonicity violation.
			return
		}
		err = d.retuneTasks(c, cp)
	}
	if err != nil {
		if errors.Is(err, core.ErrNotSchedulable) {
			d.rejections++
		} else {
			d.ck.violationf("churn %s at %v failed unexpectedly: %v", action, ev.at, err)
		}
	}
	d.ck.noteAttempt(admissionAttempt{
		at:          ev.at,
		action:      action,
		err:         err,
		epochBefore: before,
		epochAfter:  d.epoch(),
	})
}

// admitTasks stages cp.Count fresh tasks in one transaction — on every
// node of a cluster. Names are unique per incarnation (phase, generation,
// node, index) so retirements are uniquely attributable. pingPhase non-nil
// tracks them for later removal.
func (d *churnDriver) admitTasks(c rt.Ctx, ev churnEvent, cp *ChurnPhase, pingPhase *int) error {
	g := d.generation[ev.phase]
	d.generation[ev.phase] = g + 1
	dist := cp.Period
	if dist.Min == 0 && dist.Max == 0 && len(dist.Choices) == 0 {
		dist = Dist{Min: spec.Duration(10 * time.Millisecond), Max: spec.Duration(100 * time.Millisecond)}
	}
	util := cp.Utilization
	if util == 0 {
		util = 0.01
	}
	accel := core.NoAccel
	if cp.Accel != "" {
		if accel = d.apps[0].AccelIDByName(cp.Accel); accel == core.NoAccel {
			return fmt.Errorf("scenario: churn references unknown accelerator %q", cp.Accel)
		}
	}
	share := cp.AccelShare
	if share == 0 {
		share = 0.5
	}
	var names []string
	stage := func(tx *core.Reconfig, node int) error {
		for i := 0; i < cp.Count; i++ {
			name := fmt.Sprintf("churn%d-g%d-%d", ev.phase, g, i)
			if d.cl != nil {
				name = fmt.Sprintf("churn%d-g%d-n%d-%d", ev.phase, g, node, i)
			}
			period := dist.sample(d.rng)
			wcet := time.Duration(util * float64(period))
			if wcet < time.Microsecond {
				wcet = time.Microsecond
			}
			id, err := tx.AddTask(core.TData{Name: name, Period: period, VirtCore: i % d.sc.Workers})
			if err != nil {
				return err
			}
			var cs time.Duration
			if accel != core.NoAccel {
				cs = time.Duration(float64(wcet) * share)
			}
			vid, err := tx.AddVersion(id, d.churnBody(name, wcet, cs), nil, core.VSelect{WCET: wcet, AccelCS: cs})
			if err != nil {
				return err
			}
			if accel != core.NoAccel {
				if err := tx.UseAccel(id, vid, accel); err != nil {
					return err
				}
			}
			names = append(names, name)
		}
		return nil
	}
	var err error
	if d.cl == nil {
		err = d.apps[0].Reconfigure(c, func(tx *core.Reconfig) error {
			names = names[:0]
			return stage(tx, 0)
		})
	} else {
		txs := make([]cluster.NodeTx, len(d.apps))
		for n := range txs {
			txs[n] = cluster.NodeTx{Node: n, Fn: func(tx *core.Reconfig) error { return stage(tx, n) }}
		}
		err = d.cl.Reconfigure(c, txs)
	}
	if err == nil && pingPhase != nil {
		d.alive[*pingPhase] = append([]string(nil), names...)
	}
	return err
}

// churnBody is the instrumented body of churn-admitted tasks: drain
// tracking for the retire check plus probabilistic failure injection; a
// non-zero cs runs that much of the WCET as an accelerator critical
// section (the version is accelerator-bound by the transaction). Failure
// draws come from the locked body-side rand, never the driver rng.
func (d *churnDriver) churnBody(name string, wcet, cs time.Duration) core.TaskFunc {
	rate := d.sc.Failures.TaskErrorRate
	return func(x *core.ExecCtx, _ any) error {
		d.ck.noteStart(name, x.Now())
		var err error
		if cs > 0 {
			pre := (wcet - cs) / 2
			if err = x.Compute(pre); err == nil {
				if err = x.AccelSection(cs); err == nil {
					err = x.Compute(wcet - cs - pre)
				}
			}
		} else {
			err = x.Compute(wcet)
		}
		d.ck.noteFinish(name, x.Now())
		if err != nil {
			return err
		}
		if rate > 0 && d.frand() < rate {
			d.ck.noteInjected()
			return fmt.Errorf("scenario: injected failure in %s", name)
		}
		return nil
	}
}

// retuneTasks doubles or halves the periods of cp.Count random group tasks.
func (d *churnDriver) retuneTasks(c rt.Ctx, cp *ChurnPhase) error {
	if len(d.gen.groupTasks) == 0 {
		return nil
	}
	picks := make(map[string]bool, cp.Count)
	for len(picks) < cp.Count && len(picks) < len(d.gen.groupTasks) {
		picks[d.gen.groupTasks[d.rng.Intn(len(d.gen.groupTasks))]] = true
	}
	// Retune in sorted order: the transaction's operations land in the
	// telemetry stream, so map-iteration order would leak into the trace.
	names := make([]string, 0, len(picks))
	for name := range picks { //yasmin:orderinvariant sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	err := d.apps[0].Reconfigure(c, func(tx *core.Reconfig) error {
		for _, name := range names {
			ts, ok := d.gen.groupData[name]
			if !ok {
				continue
			}
			id := tx.TaskID(name)
			if id < 0 {
				continue // mode-retired right now; skip
			}
			// Alternate between the declared period and half of it; an
			// explicit deadline scales with the period so D <= T holds.
			period := ts.Period.Std()
			deadline := ts.Deadline.Std()
			if !d.retuneUp[name] {
				period /= 2
				deadline /= 2
				if period < time.Millisecond {
					period = time.Millisecond
					deadline = ts.Deadline.Std()
				}
			}
			nd := core.TData{
				Name:          name,
				Period:        period,
				Deadline:      deadline,
				ReleaseOffset: ts.Offset.Std(),
				VirtCore:      ts.Core,
			}
			if err := tx.Retune(id, nd); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		for _, name := range names {
			d.retuneUp[name] = !d.retuneUp[name]
		}
	}
	return err
}
