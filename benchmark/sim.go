package main

import (
	"embed"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/scenario"
	"github.com/yasmin-rt/yasmin/internal/sim"
	"github.com/yasmin-rt/yasmin/internal/spec"
	"github.com/yasmin-rt/yasmin/internal/telemetry"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// The scenario files are the benchmark's own copies, compiled into the
// binary: edits under scenarios/ cannot silently change what it measures.
//
//go:embed scenarios/*.yaml
var scenarioFS embed.FS

func loadScenario(name string, seed int64, dur time.Duration) (*scenario.Scenario, error) {
	path := "scenarios/" + name + ".yaml"
	data, err := scenarioFS.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Load(data, path)
	if err != nil {
		return nil, err
	}
	sc.Seed = seed
	sc.Duration = spec.Duration(dur)
	return sc, nil
}

const (
	// simSlice, hotSlice and clusterSlice are the slices of simulated time
	// the sim workloads time on the host clock (latency_*_us), sized to hold
	// one to a few milliseconds of host time each: 1 ms on the 10k pair, 10 ms
	// on sim_hot64 (a repetition then has 500 slices and supports a p90; of
	// one-millisecond slices about one in a hundred met a GC cycle, so that
	// their p99 sat on that knee and moved by a quarter between runs), 5 ms
	// on sim_cluster2.
	simSlice     = time.Millisecond
	hotSlice     = 10 * time.Millisecond
	clusterSlice = 5 * time.Millisecond
	keepJobs     = 20000
)

func schedLayer(st trace.SchedStats, jobs int64) map[string]float64 {
	j := float64(max(jobs, 1))
	return map[string]float64{
		"core.steals_per_job":     float64(st.Steals) / j,
		"core.idle_wakes_per_job": float64(st.IdleWakes) / j,
		"core.steal_misses":       float64(st.StealMisses),
		"core.migrations":         float64(st.Migrations),
		"core.signals":            float64(st.Signals),
	}
}

// reportCounts are the counts of a scenario run that must repeat exactly
// for one seed.
func reportCounts(rpt *scenario.Report) map[string]int64 {
	return map[string]int64{
		"jobs": rpt.Jobs, "misses": rpt.Misses, "epochs": int64(rpt.Epochs),
		"retires": int64(rpt.Retires), "published": rpt.Published, "delivered": rpt.Delivered,
		"steps": int64(rpt.EngineSteps),
	}
}

// scenarioRep is one repetition of a single-node scenario file through
// scenario.RunWith, measured from outside: the collector on
// RunOpts.Telemetry sees every job, and the report carries the counts.
func scenarioRep(file string) func(rc *runCtx) (*rep, error) {
	return func(rc *runCtx) (*rep, error) {
		sc, err := loadScenario(file, rc.seed, rc.size)
		if err != nil {
			return nil, err
		}
		col := newCollector(0, int64(simSlice))
		if rc.tr != nil {
			col = newTracedCollector(0, int64(simSlice), 0, keepJobs)
		}
		col.cutWindows(rc.window, rc.size)
		span := rc.tr.open(seamScenario, -1, 0)
		rpt, err := scenario.RunWith(sc, scenario.RunOpts{Telemetry: col})
		end := snapshot(col.t0)
		rc.tr.close(span)
		if err != nil {
			return nil, err
		}
		rc.tr.keep(col)
		r := &rep{
			setup: col.first.wall,
			drive: end.sub(col.first),
			ops:   rpt.Jobs, jobs: rpt.Jobs, missed: rpt.Misses,
			// Admission rejections would be failed operations; the churn is
			// sized so that none occurs. Injected task errors are inputs,
			// and the checker flags any error that was not injected.
			attempted:  rpt.Jobs + int64(rpt.Epochs) + rpt.Rejections,
			failed:     rpt.Rejections,
			lat:        &col.slices,
			windows:    col.windows,
			heapLive:   col.heapLive,
			violations: rpt.Violations,
			counts:     reportCounts(rpt),
		}
		// The report times the engine run exactly; the snapshots bracket
		// it from the first record to the checker's verdict.
		r.drive.wall = time.Duration(rpt.WallNS)
		if got := col.jobs.Load(); got != rpt.Jobs {
			r.violations = append(r.violations, fmt.Sprintf("stream carried %d job records, report counts %d", got, rpt.Jobs))
		}
		if rc.tr != nil {
			r.layer = schedLayer(rpt.Sched, rpt.Jobs)
			r.layer["sim.steps_per_job"] = float64(rpt.EngineSteps) / float64(max(rpt.Jobs, 1))
			r.layer["sim.slice_max_us"] = float64(col.slices.quantile(1)) / 1e3
		}
		return r, nil
	}
}

// hot64Rep is one repetition of sim_hot64: 64 hot periodic tasks (16 each
// at 1, 2, 3 and 4 ms, seeded offsets on a 50µs grid), Compute(5µs) bodies,
// 4 workers, partitioned — declared directly on core.New, no scenario
// layer, no checker. The wheel is tiny and nothing steals, so host time per
// job is the constant per-job path: sim handoff, worker/fiber, completion,
// Recorder.Record.
func hot64Rep(rc *runCtx) (*rep, error) {
	const ntasks, workers = 64, 4
	rng := rand.New(rand.NewSource(rc.seed))
	col := newCollector(0, int64(hotSlice))
	if rc.tr != nil {
		col = newTracedCollector(0, int64(hotSlice), ntasks, keepJobs)
	}
	col.cutWindows(rc.window, rc.size)
	setupSpan := rc.tr.open(seamSetup, -1, 0)
	eng := sim.NewEngine(rc.seed)
	env, err := rt.NewSimEnv(eng, platform.Generic(workers+1), nil)
	if err != nil {
		return nil, err
	}
	app, err := core.New(core.Config{
		Workers: workers, Mapping: core.MappingPartitioned, Priority: core.PriorityEDF,
		MaxTasks: ntasks, MaxPendingJobs: 4 * ntasks, Telemetry: col,
	}, env)
	if err != nil {
		return nil, err
	}
	body := func(x *core.ExecCtx, _ any) error { return x.Compute(5 * time.Microsecond) }
	for i := 0; i < ntasks; i++ {
		period := time.Duration(i%4+1) * time.Millisecond
		tid, err := app.TaskDecl(core.TData{
			Name:          fmt.Sprintf("hot-%d", i),
			Period:        period,
			ReleaseOffset: time.Duration(rng.Int63n(int64(period/(50*time.Microsecond)))) * 50 * time.Microsecond,
			VirtCore:      i % workers,
		})
		if err != nil {
			return nil, err
		}
		if _, err := app.VersionDecl(tid, body, nil, core.VSelect{WCET: 5 * time.Microsecond}); err != nil {
			return nil, err
		}
	}
	var startErr error
	var s0, s1 usage
	env.Spawn("driver", rt.UnpinnedCore, func(c rt.Ctx) {
		if startErr = app.Start(c); startErr != nil {
			return
		}
		rc.tr.close(setupSpan)
		s0 = snapshot(col.t0)
		driveSpan := rc.tr.open(seamDrive, -1, 0)
		c.Sleep(rc.size)
		app.Stop(c)
		app.Cleanup(c)
		rc.tr.close(driveSpan)
	})
	if err := eng.Run(sim.Infinity); err != nil {
		return nil, err
	}
	s1 = snapshot(col.t0)
	if startErr != nil {
		return nil, startErr
	}
	rc.tr.keep(col)
	jobs, missed := app.Recorder().TotalJobs(), app.Recorder().TotalMisses()
	r := &rep{
		setup: s0.wall, drive: s1.sub(s0),
		ops: jobs, jobs: jobs, missed: missed,
		attempted: jobs + app.Overruns(),
		failed:    app.TaskErrors() + app.Overruns(),
		lat:       &col.slices,
		windows:   col.windows,
		heapLive:  col.heapLive,
		counts: map[string]int64{
			"jobs": jobs, "misses": missed, "epochs": int64(app.Epoch()),
			"retires": int64(len(app.Recorder().Retires())), "published": 0, "delivered": 0,
			"steps": int64(eng.Steps()),
		},
	}
	if got := col.jobs.Load(); got != jobs {
		r.violations = append(r.violations, fmt.Sprintf("stream carried %d job records, recorder counts %d", got, jobs))
	}
	if rc.tr != nil {
		r.layer = schedLayer(app.SchedStats(), jobs)
		r.layer["sim.steps_per_job"] = float64(eng.Steps()) / float64(max(jobs, 1))
		r.layer["sim.slice_max_us"] = float64(col.slices.quantile(1)) / 1e3
	}
	return r, nil
}

// timedSink stands between a node's pipeline and its FileSink: it is the
// only place the benchmark sees a cluster run while it runs (cluster mode
// takes pipelines, not a trace.Stream). It times the sink and, with clock
// set, the run: every batch is one sample of the host time the run took to
// advance simulated time by clusterSlice, scaled from the simulated time
// between this batch's last record and the previous batch's. (A slice clock
// like the collector's would see time only at batch ends, about 2 simulated
// ms apart: 5 ms slices then hold two batches or three, and their median
// falls into one mode or the other.) One writer goroutine calls WriteBatch,
// so only what the benchmark reads while it runs is atomic.
type timedSink struct {
	inner *telemetry.FileSink
	tr    *tracer
	t0    time.Time
	clock bool

	lastHost time.Duration
	lastSim  int64
	slices   hist // host ns per clusterSlice of simulated time

	// heapAt is the simulated instant from which on the clock sink measures
	// the live heap, once (0: never). The sink is the only place the
	// benchmark runs while both nodes are up, so the forced collection is
	// inside the measured run: 1-2% of a repetition's wall time.
	heapAt   int64
	heapLive uint64

	busy    atomic.Int64 // ns inside inner.WriteBatch
	records atomic.Int64
}

func (s *timedSink) WriteBatch(batch []telemetry.Event) error {
	t0 := time.Since(s.t0)
	err := s.inner.WriteBatch(batch)
	t1 := time.Since(s.t0)
	s.busy.Add(int64(t1 - t0))
	s.records.Add(int64(len(batch)))
	if s.tr != nil {
		s.tr.record(seamSinkWrite, -1, 0, s.tr.now()-int64(t1-t0), s.tr.now())
	}
	if sim := batch[len(batch)-1].At(); s.clock && sim > s.lastSim {
		if s.lastSim > 0 { // the first batch's interval would include set-up
			s.slices.add(int64(float64(t1-s.lastHost) * float64(clusterSlice) / float64(sim-s.lastSim)))
		}
		s.lastHost, s.lastSim = t1, sim
		if s.heapAt > 0 && sim >= s.heapAt {
			s.heapAt, s.heapLive = 0, heapLive()
		}
	}
	return err
}

func (s *timedSink) Finish(st telemetry.Stats) error { return s.inner.Finish(st) }

// cluster2Rep is one repetition of sim_cluster2 through scenario.RunWith
// with a pipeline and a FileSink per node (export on: that is the workload),
// then the output checks: every publisher job became one frame sent and one
// frame received, and the per-node exports replay clean.
func cluster2Rep(rc *runCtx) (*rep, error) {
	sc, err := loadScenario("cluster2", rc.seed, rc.size)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	nodes := sc.Nodes.Count
	sinks := make([]*timedSink, nodes)
	pipes := make([]*telemetry.Pipeline, nodes)
	paths := make([]string, nodes)
	for i := range pipes {
		paths[i] = filepath.Join(rc.outDir, fmt.Sprintf("sim_cluster2.node%d.jsonl", i))
		fs, err := telemetry.NewFileSink(paths[i])
		if err != nil {
			return nil, err
		}
		// The subscriber side carries the clock.
		sinks[i] = &timedSink{inner: fs, tr: rc.tr, t0: t0, clock: i == nodes-1}
		if sinks[i].clock && rc.window > 0 {
			sinks[i].heapAt = int64(rc.size) * 9 / 10
		}
		if pipes[i], err = telemetry.New(sinks[i], telemetry.Options{Node: i}); err != nil {
			return nil, err
		}
	}
	span := rc.tr.open(seamScenario, -1, 0)
	s0 := snapshot(t0)
	rpt, runErr := scenario.RunWith(sc, scenario.RunOpts{NodeTelemetry: pipes})
	s1 := snapshot(t0)
	rc.tr.close(span)
	var stats telemetry.Stats
	for _, p := range pipes {
		if err := p.Close(); err != nil && runErr == nil {
			runErr = fmt.Errorf("export: %w", err)
		}
		st := p.Stats()
		stats.Published += st.Published
		stats.Dropped += st.Dropped
	}
	if runErr != nil {
		return nil, runErr
	}

	clock := sinks[nodes-1]
	pub, sub := rpt.Nodes[0], rpt.Nodes[nodes-1]
	r := &rep{
		// Cluster mode hands the benchmark no record until the writer
		// goroutine delivers a batch, so there is no snapshot at the set-up
		// boundary: set-up is what RunWith spends outside the engine run
		// (building the nodes before it; after it the checker's verdict, which
		// is next to nothing on a set-up-only repetition, the only kind
		// setup_s is read from), and CPU and allocations cover the whole
		// call, 128 declarations included. Wall is the report's engine time.
		setup: s1.sub(s0).wall - time.Duration(rpt.WallNS),
		drive: s1.sub(s0),
		ops:   int64(sub.FramesReceived), jobs: rpt.Jobs, missed: rpt.Misses,
		attempted:  pub.Jobs,
		failed:     int64(pub.FramesSent) - int64(sub.FramesReceived) - int64(sub.FramesDropped),
		lat:        &clock.slices,
		violations: rpt.Violations,
		counts:     reportCounts(rpt),
	}
	r.drive.wall = time.Duration(rpt.WallNS)
	// The whole repetition is one measuring window, and its latency the host
	// time the run took per clusterSlice of simulated time. (The median of
	// the sink's batch-to-batch samples is kept for latency_tail_us only:
	// when the writer falls behind and catches up in a burst, most of a
	// repetition's samples are the short intervals of the burst.)
	r.windows = []window{{usage: r.drive, ops: r.ops, lat: rpt.WallNS * int64(clusterSlice) / int64(rc.size)}}
	r.heapLive = clock.heapLive
	// Every publisher job becomes one frame sent, and every frame sent is
	// received — or is in flight when the run stops, which the subscriber
	// node records as a drop at close: at most one per topic, and never a
	// frame unaccounted for.
	inFlight := int64(sub.FramesDropped)
	if int64(pub.FramesSent) != pub.Jobs || r.failed != 0 || inFlight > int64(sc.Topics[0].Count) {
		r.violations = append(r.violations, fmt.Sprintf(
			"delivery: %d publisher jobs, %d frames sent, %d received, %d dropped (sent must equal jobs and received + dropped, dropped at most one per topic)",
			pub.Jobs, pub.FramesSent, sub.FramesReceived, sub.FramesDropped))
	}
	if stats.Dropped != 0 {
		r.violations = append(r.violations, fmt.Sprintf("export dropped %d of %d records behind a blocking stream", stats.Dropped, stats.Published))
	}

	// Replay the exports: the offline re-proof that frame accounting closes
	// across the two files. Offline and memory-hungry (it loads both files),
	// so it runs once per run, after the last repetition and after peak RSS
	// has been read.
	r.check = func() (violations []string, nsPerRec float64) {
		t0 := time.Now()
		streams := make([]*telemetry.Stream, nodes)
		var replayed int
		for i, p := range paths {
			st, err := telemetry.ReplayFile(p)
			if err != nil {
				return []string{"replay: " + err.Error()}, 0
			}
			streams[i] = st
			replayed += len(st.Events)
		}
		for _, v := range scenario.CheckStreams(streams, scenario.StreamCheckOpts{}) {
			violations = append(violations, "replay: "+v)
		}
		return violations, float64(time.Since(t0)) / float64(max(replayed, 1))
	}
	if rc.tr != nil {
		var busy, recs int64
		for _, s := range sinks {
			busy += s.busy.Load()
			recs += s.records.Load()
		}
		r.layer = schedLayer(rpt.Sched, rpt.Jobs)
		r.layer["sim.steps_per_job"] = float64(rpt.EngineSteps) / float64(max(rpt.Jobs, 1))
		r.layer["telemetry.run_sink_ns_per_rec"] = float64(busy) / float64(max(recs, 1))
		r.layer["telemetry.dropped_share"] = float64(stats.Dropped) / float64(max(stats.Published, 1))
		r.layer["cluster.frames_sent"] = float64(pub.FramesSent)
		r.layer["cluster.frames_dropped_share"] = float64(sub.FramesDropped) / float64(max(pub.FramesSent, 1))
	}
	return r, nil
}
