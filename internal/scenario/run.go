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

	// Sched is the sharded scheduler core's counter snapshot (summed over
	// nodes in cluster mode): work-stealing traffic, dispatcher migrations,
	// idle-list wakes, preemption signalling and schedView publications.
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
	// top-level Jobs/Misses/Epochs then aggregate over the cluster, and
	// Epochs is the common cluster epoch every node committed.
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
	// NodeTelemetry supplies one pipeline per cluster node (index = node
	// id; construct each with telemetry.Options{Node: id} so its export
	// carries the stamp). Every node's trace records, frame events and
	// cluster-epoch marks flow through its own pipeline, and the per-node
	// files reconcile offline with CheckStreams. nil disables; any other
	// length must equal the node count.
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
}

// Run executes the scenario on the deterministic simulation backend and
// returns the report; the error covers harness failures (a violation-laden
// run still returns its report).
func Run(sc *Scenario) (*Report, error) { return RunWith(sc, RunOpts{}) }

// RunWith is Run with harness options.
func RunWith(sc *Scenario, opts RunOpts) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Nodes != nil {
		return runCluster(sc, opts)
	}
	eng := sim.NewEngine(sc.Seed)
	env, err := rt.NewSimEnv(eng, platform.Generic(sc.Workers+1), nil)
	if err != nil {
		return nil, err
	}
	return runScenario(sc, opts, runBackend{env: env, drive: eng.RunUntilIdle, steps: eng.Steps})
}

// runScenario executes a validated single-node scenario on the given
// backend. The spec/driver rng is seeded from the scenario seed alone and
// only ever touched by spec generation and the single driver thread, so
// driver decisions (admitted task shapes, retune picks) are identical
// between the Sim and OS backends; task bodies draw from their own locked
// stream (see lockedUnitRand).
func runScenario(sc *Scenario, opts RunOpts, bk runBackend) (*Report, error) {
	rng := rand.New(rand.NewSource(sc.Seed))
	ck := NewChecker()
	ck.accelWaitBound = sc.AccelWaitBound.Std()
	ck.SetContext(Context{Scenario: sc.Name, Seed: sc.Seed, Node: -1})

	s, gen := sc.buildSpec(rng, ck)
	maxTasks := sc.TaskCount() + sc.churnHeadroom()
	pending := sc.MaxPendingJobs
	if pending == 0 {
		pending = maxTasks + 4*sc.Workers + 64
	}
	cfg := core.Config{
		Workers:         sc.Workers,
		Mapping:         core.MappingGlobal,
		Priority:        core.PriorityEDF,
		MaxTasks:        maxTasks,
		MaxChannels:     len(s.Topics) + 1,
		MaxPendingJobs:  pending,
		SchedulerPeriod: sc.SchedulerPeriod.Std(),
		// The checker replays the arbitration events.
		RecordAccel: len(sc.Accels) > 0,
		Telemetry:   opts.Telemetry,
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

	app, err := s.Build(cfg, bk.env)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: build: %w", sc.Name, err)
	}
	// The instrumented bodies captured spec-layer positional CIDs; fail
	// fast if the built App disagrees (a silent mismatch would turn every
	// publish/take into misleading checker violations).
	for name, cid := range gen.topicCIDs { //yasmin:orderinvariant fail-fast validation, any mismatch is fatal
		if got := app.TopicID(name); got != cid {
			return nil, fmt.Errorf("scenario %s: topic %s built as CID %d, bodies captured %d", sc.Name, name, got, cid)
		}
	}

	events := sc.expandChurn()
	horizon := sc.Duration.Std()
	driver := &churnDriver{sc: sc, app: app, ck: ck, rng: rng, gen: gen,
		frand: lockedUnitRand(sc.Seed)}
	var harnessErr error
	bk.env.Spawn("stress-driver", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			harnessErr = fmt.Errorf("scenario %s: start: %w", sc.Name, err)
			return
		}
		for _, ev := range events {
			if ev.at >= horizon {
				break
			}
			c.SleepUntil(ev.at)
			driver.fire(c, ev)
		}
		c.SleepUntil(horizon)
		app.Stop(c)
		app.Cleanup(c)
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
		PeakTasks:     maxTasks,
		Workers:       sc.Workers,
		SimDurationNS: int64(horizon),
		WallNS:        wall.Nanoseconds(),
		EngineSteps:   bk.steps(),
		Jobs:          app.Recorder().TotalJobs(),
		Misses:        app.Recorder().TotalMisses(),
		Overruns:      app.Overruns(),
		Sched:         app.SchedStats(),
		Published:     ck.Published(),
		Delivered:     ck.Delivered(),
		Epochs:        app.Epoch(),
		Retires:       len(app.Recorder().Retires()),
		Rejections:    driver.rejections,
		TaskErrors:    app.TaskErrors(),
		Violations:    ck.Finish(app),
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

// genState carries name lists the churn driver needs from spec generation.
type genState struct {
	groupTasks []string                 // plain compute task names
	groupData  map[string]spec.TaskSpec // name -> declared timing (for retunes)
	modes      []string                 // installed mode names, cycle order
	topicCIDs  map[string]core.CID      // instrumented topic name -> captured CID
}

// buildSpec generates the declarative application (group tasks, topic
// meshes with instrumented endpoints, mode presets) from the scenario.
func (sc *Scenario) buildSpec(rng *rand.Rand, ck *Checker) (*spec.Spec, *genState) {
	s := &spec.Spec{Name: sc.Name}
	gen := &genState{
		groupData: make(map[string]spec.TaskSpec),
		topicCIDs: make(map[string]core.CID),
	}

	core0 := 0
	nextCore := func() int {
		c := core0 % sc.Workers
		core0++
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
				Core:     nextCore(),
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

	for si := range sc.Topics {
		sh := &sc.Topics[si]
		pol, _ := core.ParsePolicy(sh.Policy)
		for k := 0; k < sh.Count; k++ {
			topicName := fmt.Sprintf("%s-%d", sh.Name, k)
			ti := ck.addTopic(topicName, pol, sh.Capacity, sh.Pubs, sh.Subs)
			ts := spec.TopicSpec{
				Name:     topicName,
				Capacity: sh.Capacity,
				Policy:   sh.Policy,
			}
			// Reserve the spec slot first so the CID the instrumented
			// bodies capture comes from the spec layer's documented
			// positional contract (TopicID); the endpoint lists are filled
			// in below and Run re-verifies every CID against the built App
			// before starting.
			s.Topics = append(s.Topics, ts)
			tsIdx := len(s.Topics) - 1
			cid := s.TopicID(topicName)
			gen.topicCIDs[topicName] = cid
			for p := 0; p < sh.Pubs; p++ {
				name := fmt.Sprintf("%s-pub%d", topicName, p)
				ts.Pubs = append(ts.Pubs, name)
				s.Tasks = append(s.Tasks, spec.TaskSpec{
					Name:   name,
					Period: sh.PublishPeriod,
					Offset: spec.Duration(rng.Int63n(int64(sh.PublishPeriod.Std()))),
					Core:   nextCore(),
					Versions: []spec.VersionSpec{{
						Fn: pubBody(ck, ti, p, cid),
					}},
				})
			}
			for sub := 0; sub < sh.Subs; sub++ {
				name := fmt.Sprintf("%s-sub%d", topicName, sub)
				ts.Subs = append(ts.Subs, name)
				s.Tasks = append(s.Tasks, spec.TaskSpec{
					Name:   name,
					Period: sh.ConsumePeriod,
					Offset: spec.Duration(rng.Int63n(int64(sh.ConsumePeriod.Std()))),
					Core:   nextCore(),
					Versions: []spec.VersionSpec{{
						Fn: subBody(ck, ti, sub, cid),
					}},
				})
			}
			s.Topics[tsIdx] = ts
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
	return s, gen
}

// pubBody returns the instrumented publisher body: stamp, publish, account.
// Under Reject a full buffer is a legitimate outcome (the entry was never
// accepted and the sequence number is reused); any other Publish failure is
// a middleware defect the harness exists to surface, so it becomes a
// checker violation rather than being silently swallowed.
func pubBody(ck *Checker, ti, p int, cid core.CID) core.TaskFunc {
	return func(x *core.ExecCtx, _ any) error {
		seq := ck.nextSeq(ti, p)
		if err := x.Publish(cid, seqEncode(p, seq)); err != nil {
			if !strings.Contains(err.Error(), " full (") {
				ck.violationf("topic check %d pub %d: publish failed unexpectedly: %v", ti, p, err)
			}
			return nil
		}
		ck.notePublished(ti, p, seq)
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
// outcomes for the checker.
type churnDriver struct {
	sc  *Scenario
	app *core.App
	ck  *Checker
	rng *rand.Rand
	gen *genState
	// frand is the locked body-side rand (failure-injection draws).
	frand func() float64

	rejections int64
	// per-phase ping-pong state
	alive      map[int][]string
	generation map[int]int
	modeIdx    int
	retuneUp   map[string]bool
}

func (d *churnDriver) fire(c rt.Ctx, ev churnEvent) {
	cp := &d.sc.Churn[ev.phase]
	if d.alive == nil {
		d.alive = make(map[int][]string)
		d.generation = make(map[int]int)
		d.retuneUp = make(map[string]bool)
	}
	before := d.app.Epoch()
	var err error
	var action string
	switch cp.Action {
	case "mode":
		if len(d.gen.modes) == 0 {
			return // no presets installed: nothing to attempt
		}
		name := d.gen.modes[d.modeIdx%len(d.gen.modes)]
		d.modeIdx++
		action = "mode:" + name
		err = d.app.SwitchMode(c, name)
	case "add":
		action = "add"
		err = d.admitTasks(c, ev, cp, nil)
	case "ping_pong":
		if len(d.alive[ev.phase]) == 0 {
			action = "ping_pong:admit"
			err = d.admitTasks(c, ev, cp, &ev.phase)
		} else {
			action = "ping_pong:retire"
			names := d.alive[ev.phase]
			err = d.app.Reconfigure(c, func(tx *core.Reconfig) error {
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
		action = "retune"
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
		epochAfter:  d.app.Epoch(),
	})
}

// admitTasks stages cp.Count fresh tasks in one transaction. Names are
// unique per incarnation (phase, generation, index) so retirements are
// uniquely attributable. pingPhase non-nil tracks them for later removal.
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
		if accel = d.app.AccelIDByName(cp.Accel); accel == core.NoAccel {
			return fmt.Errorf("scenario: churn references unknown accelerator %q", cp.Accel)
		}
	}
	share := cp.AccelShare
	if share == 0 {
		share = 0.5
	}
	var names []string
	err := d.app.Reconfigure(c, func(tx *core.Reconfig) error {
		names = names[:0]
		for i := 0; i < cp.Count; i++ {
			name := fmt.Sprintf("churn%d-g%d-%d", ev.phase, g, i)
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
	})
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
	err := d.app.Reconfigure(c, func(tx *core.Reconfig) error {
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
