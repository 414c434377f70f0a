package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/yasmin-rt/yasmin/internal/analysis"
	"github.com/yasmin-rt/yasmin/internal/cluster"
	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/lockfree"
	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/sim"
	"github.com/yasmin-rt/yasmin/internal/spec"
	"github.com/yasmin-rt/yasmin/internal/taskset"
	"github.com/yasmin-rt/yasmin/internal/telemetry"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// A probe is a short fixed-iteration loop over one exported function of one
// layer, run from outside the program. Each probe runs probeRounds times
// and reports the median round; iteration counts are fixed (not adapted to
// the host) and sized so that the rounds of one probe take 200 ms or more
// here. Probes do not depend on the workload: they are the host-and-layer
// calibration that goes with a traced run, and `-probes` runs them alone.
const probeRounds = 5

// prober runs the probes; rounds is probeRounds except under -quick (1).
type prober struct {
	rounds int
	outDir string
}

func newProber(quick bool, outDir string) prober {
	if quick {
		return prober{rounds: 1, outDir: outDir}
	}
	return prober{rounds: probeRounds, outDir: outDir}
}

var probeSink any // defeats dead-code elimination

// perOp times fn (which performs n operations) pr.rounds times and
// returns the median ns per operation.
func (pr prober) perOp(n int, fn func()) float64 {
	rounds := make([]float64, pr.rounds)
	for i := range rounds {
		t0 := time.Now()
		fn()
		rounds[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(rounds)
}

// probeSimStep times sim.Engine.Run over one ticker proc that sleeps 1µs
// at a time: host ns per engine step, also the host calibration figure.
func (pr prober) probeSimStep() float64 {
	const steps = 150000
	return pr.perOp(steps, func() {
		eng := sim.NewEngine(1)
		eng.Spawn("ticker", func(p *sim.Proc) {
			for {
				if intr, _ := p.Sleep(time.Microsecond); intr {
					return
				}
			}
		})
		if err := eng.Run(sim.Time(steps * time.Microsecond)); err != nil {
			panic(err)
		}
	})
}

// probeSimHandoff times sim.Proc.Park / Engine.Unpark: two procs waking
// each other in turn, host ns per handoff.
func (pr prober) probeSimHandoff() float64 {
	const handoffs = 100000
	return pr.perOp(handoffs, func() {
		eng := sim.NewEngine(1)
		var a, b *sim.Proc
		a = eng.Spawn("a", func(p *sim.Proc) {
			for i := 0; i < handoffs/2; i++ {
				p.Unpark(b)
				p.Park()
			}
			p.Unpark(b)
		})
		b = eng.Spawn("b", func(p *sim.Proc) {
			for i := 0; i < handoffs/2; i++ {
				p.Park()
				p.Unpark(a)
			}
		})
		if err := eng.RunUntilIdle(); err != nil {
			panic(err)
		}
	})
}

// probeSleep times rt.Ctx.Sleep on OSEnv (or, with raw set, time.Sleep
// itself: the floor the host and the Go runtime impose): overshoot = return
// instant minus due instant, ns. It returns the median of the per-round
// medians and the pooled samples for the tail.
func (pr prober) probeSleep(d time.Duration, perRound int, raw bool) (p50 float64, pooled *hist) {
	env := rt.NewOSEnv()
	pooled = &hist{}
	meds := make([]float64, pr.rounds)
	env.RunMain(func(c rt.Ctx) {
		for r := range meds {
			var h hist
			for i := 0; i < perRound; i++ {
				t0 := time.Now()
				if raw {
					time.Sleep(d)
				} else {
					c.Sleep(d)
				}
				over := int64(time.Since(t0) - d)
				h.add(over)
				pooled.add(over)
			}
			meds[r] = float64(h.quantile(0.5))
		}
	})
	return median(meds), pooled
}

// probeUnparkRTT times rt.Thread.Unpark / rt.Ctx.Park on OSEnv: two threads
// waking each other in turn, ns per round trip.
func (pr prober) probeUnparkRTT() float64 {
	const trips = 60000
	return pr.perOp(trips, func() {
		env := rt.NewOSEnv()
		env.RunMain(func(c rt.Ctx) {
			main := c.Self()
			peer := env.Spawn("peer", rt.UnpinnedCore, func(pc rt.Ctx) {
				for i := 0; i < trips; i++ {
					pc.Park()
					main.Unpark()
				}
			})
			for i := 0; i < trips; i++ {
				peer.Unpark()
				c.Park()
			}
		})
		env.Wait()
	})
}

// declareN declares n periodic tasks t0..t(n-1) with no-op bodies.
func declareN(app *core.App, n int, period func(i int) core.TData, body core.TaskFunc) error {
	for i := 0; i < n; i++ {
		d := period(i)
		d.Name = fmt.Sprintf("t%d", i)
		tid, err := app.TaskDecl(d)
		if err != nil {
			return err
		}
		if _, err := app.VersionDecl(tid, body, nil, core.VSelect{WCET: time.Microsecond}); err != nil {
			return err
		}
	}
	return nil
}

// probeTick times the scheduler tick through core.App on SimEnv, in the
// shape of BenchmarkSchedTick: 10,000 declared tasks of which 500 release
// every millisecond (the rest sit an hour out on the wheels), 500ns bodies,
// 4 workers. Host ns per released job.
func (pr prober) probeTick() float64 {
	const declared, active, horizon = 10000, 500, 20 * time.Millisecond
	rounds := make([]float64, pr.rounds)
	for r := range rounds {
		eng := sim.NewEngine(1)
		env, err := rt.NewSimEnv(eng, platform.Generic(5), nil)
		if err != nil {
			panic(err)
		}
		app, err := core.New(core.Config{Workers: 4, Priority: core.PriorityEDF, MaxTasks: declared, MaxPendingJobs: 1024}, env)
		if err != nil {
			panic(err)
		}
		err = declareN(app, declared, func(i int) core.TData {
			if i >= active {
				return core.TData{Period: time.Hour, ReleaseOffset: time.Hour}
			}
			return core.TData{Period: time.Millisecond}
		}, func(x *core.ExecCtx, _ any) error { return x.Compute(500 * time.Nanosecond) })
		if err != nil {
			panic(err)
		}
		var t0 time.Time
		env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
			if err := app.Start(c); err != nil {
				panic(err)
			}
			t0 = time.Now() // declarations and Start are set-up, not tick
			c.Sleep(horizon)
			app.Stop(c)
			app.Cleanup(c)
		})
		if err := eng.Run(sim.Infinity); err != nil {
			panic(err)
		}
		rounds[r] = float64(time.Since(t0)) / float64(max(app.Recorder().TotalJobs(), 1))
	}
	return median(rounds)
}

// probeLookup times core.App.TaskIDByName on a 10,000-task app, names
// spread evenly over the table. ns per lookup.
func (pr prober) probeLookup() float64 {
	const n, lookups = 10000, 1200
	app, err := core.New(core.Config{Workers: 2, MaxTasks: n}, rt.NewOSEnv())
	if err != nil {
		panic(err)
	}
	if err := declareN(app, n, func(int) core.TData { return core.TData{Period: time.Second} }, noop); err != nil {
		panic(err)
	}
	names := make([]string, lookups)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", (i*7919)%n)
	}
	return pr.perOp(lookups, func() {
		for _, name := range names {
			if app.TaskIDByName(name) < 0 {
				panic("lookup failed: " + name)
			}
		}
	})
}

// probeReconfigCall times core.App.Reconfigure with os_reconfig10k's
// transaction against `live` running bulk tasks, closed loop (no pacing):
// median µs per call. The ratio of the 10k to the 1k figure is the O(n)
// signature of the transaction path.
func probeReconfigCall(live, calls int) float64 {
	rng := rand.New(rand.NewSource(1))
	app, env, bulk, err := reconfigApp(rng, live, nil)
	if err != nil {
		panic(err)
	}
	var h hist
	env.RunMain(func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			panic(err)
		}
		for k := 0; k < calls; k++ {
			t0 := time.Now()
			if err := app.Reconfigure(c, reconfigTx(k, rng, bulk, false)); err != nil {
				panic(err)
			}
			h.add(int64(time.Since(t0)))
		}
		app.Stop(c)
		app.Cleanup(c)
	})
	env.Wait()
	return float64(h.quantile(0.5)) / 1e3
}

// probeAdmit times analysis.Admit (global EDF, 2 workers) on a generated
// implicit-deadline set of n tasks. µs per call.
func (pr prober) probeAdmit(n, calls int) float64 {
	rng := rand.New(rand.NewSource(1))
	set := &taskset.Set{Tasks: make([]taskset.Task, n)}
	for i := range set.Tasks {
		p := bulkPeriod(rng)
		set.Tasks[i] = taskset.Task{ID: i, Name: fmt.Sprintf("t%d", i), Period: p, Deadline: p, WCET: time.Microsecond}
	}
	return pr.perOp(calls, func() {
		for i := 0; i < calls; i++ {
			res, err := analysis.Admit(set, analysis.Admission{Workers: osWorkers})
			if err != nil || !res.Schedulable {
				panic(fmt.Sprintf("admit: %v %+v", err, res))
			}
		}
	}) / 1e3
}

// probeRecord times trace.Recorder.Record over 10,000 distinct task names
// from `par` goroutines at once. ns per record (wall time over all records).
func (pr prober) probeRecord(par int) float64 {
	const names, records = 10000, 400000
	recs := make([]trace.JobRecord, names)
	for i := range recs {
		recs[i] = trace.JobRecord{Task: fmt.Sprintf("t%d", i), TaskID: i, Release: 1, Start: 2, Finish: 3, Deadline: 10}
	}
	rec := trace.NewRecorder(false)
	return pr.perOp(records, func() {
		var wg sync.WaitGroup
		for g := 0; g < par; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < records; i += par {
					rec.Record(recs[(i*31)%names])
				}
			}(g)
		}
		wg.Wait()
	})
}

func probeEvent(i int) telemetry.Event {
	return telemetry.Event{Kind: telemetry.KindJob, Job: trace.JobRecord{
		Task: "camera-detections-1", TaskID: 17, Job: int64(i), Core: 1,
		Release: time.Duration(i) * time.Millisecond, Start: time.Duration(i)*time.Millisecond + 40*time.Microsecond,
		Finish: time.Duration(i)*time.Millisecond + 90*time.Microsecond, Deadline: time.Duration(i+1) * time.Millisecond,
	}}
}

// probePublish times telemetry.Pipeline.Publish into a DiscardSink (the
// record-path cost of having export on), in bursts that fit the ring so
// that no publish takes the drop path; waiting for the writer to drain
// between bursts is not timed. ns per event.
func (pr prober) probePublish() float64 {
	const bursts, burst = 8, 30000 // ring capacity is 1<<15
	sink := telemetry.NewDiscardSink()
	p, err := telemetry.New(sink, telemetry.Options{})
	if err != nil {
		panic(err)
	}
	ev := probeEvent(1)
	rounds := make([]float64, pr.rounds)
	for r := range rounds {
		var busy time.Duration
		for b := 0; b < bursts; b++ {
			t0 := time.Now()
			for i := 0; i < burst; i++ {
				p.Publish(ev)
			}
			busy += time.Since(t0)
			for sink.Count() < p.Stats().Published {
				runtime.Gosched()
			}
		}
		rounds[r] = float64(busy) / (bursts * burst)
	}
	st := p.Stats()
	if err := p.Close(); err != nil || st.Dropped != 0 {
		panic(fmt.Sprintf("publish probe: close %v, %d dropped", err, st.Dropped))
	}
	return median(rounds)
}

// probeEncode times telemetry.AppendEvent (JSONL encoding of one job
// event). ns per event.
func (pr prober) probeEncode() float64 {
	const events = 500000
	buf := make([]byte, 0, 512)
	ev := probeEvent(1)
	return pr.perOp(events, func() {
		for i := 0; i < events; i++ {
			ev.Seq = uint64(i)
			buf = telemetry.AppendEvent(buf[:0], &ev)
		}
		probeSink = buf
	})
}

// probeFileSink times telemetry.FileSink.WriteBatch in batches of 256 (encode
// plus one write per batch) into a scratch file. ns per record.
func (pr prober) probeFileSink() float64 {
	const batches, size = 500, 256
	batch := make([]telemetry.Event, size)
	for i := range batch {
		batch[i] = probeEvent(i)
	}
	path := filepath.Join(pr.outDir, "probe.sink.jsonl")
	defer os.Remove(path)
	return pr.perOp(batches*size, func() {
		sink, err := telemetry.NewFileSink(path)
		if err != nil {
			panic(err)
		}
		for i := 0; i < batches; i++ {
			if err := sink.WriteBatch(batch); err != nil {
				panic(err)
			}
		}
		if err := sink.Finish(telemetry.Stats{}); err != nil {
			panic(err)
		}
	})
}

// probeCodec times cluster.AppendFrame + cluster.ParseFrame on one data
// frame: ns per round trip, and the encoded size.
func (pr prober) probeCodec() (ns, bytes float64) {
	const frames = 130000
	f := cluster.Frame{Kind: cluster.FrameData, Origin: 3, Topic: "camera-detections-1",
		Pub: 17, Epoch: 4, SentAt: 123456789, Val: 987654321}
	buf := make([]byte, 0, 256)
	var total int
	ns = pr.perOp(frames, func() {
		total = 0
		for i := 0; i < frames; i++ {
			f.Seq = uint64(i + 1)
			buf = cluster.AppendFrame(buf[:0], &f)
			total += len(buf)
			if g, err := cluster.ParseFrame(buf); err != nil || g.Seq != f.Seq {
				panic(fmt.Sprintf("frame round trip broke at %d: %v", f.Seq, err))
			}
		}
	})
	return ns, float64(total) / frames
}

// probeMPSC times lockfree.MPSCRing Push + Pop, one producer. ns per pair.
func (pr prober) probeMPSC() float64 {
	const ops = 2000000
	q, err := lockfree.NewMPSCRing[int64](1024)
	if err != nil {
		panic(err)
	}
	return pr.perOp(ops, func() {
		var sum int64
		for i := int64(0); i < ops; i++ {
			q.Push(i)
			v, _ := q.Pop()
			sum += v
		}
		probeSink = sum
	})
}

// probeSpecBuild times spec.Spec.Build of 10,000 periodic tasks on a
// SimEnv (validation, sizing, declarations). ms per build.
func (pr prober) probeSpecBuild() float64 {
	const n = 10000
	rng := rand.New(rand.NewSource(1))
	s := &spec.Spec{Name: "probe"}
	for i := 0; i < n; i++ {
		p := bulkPeriod(rng)
		s.Tasks = append(s.Tasks, spec.TaskSpec{
			Name: fmt.Sprintf("t%d", i), Period: spec.Duration(p),
			Versions: []spec.VersionSpec{{WCET: spec.Duration(time.Microsecond)}},
		})
	}
	return pr.perOp(1, func() {
		env, err := rt.NewSimEnv(sim.NewEngine(1), platform.Generic(3), nil)
		if err != nil {
			panic(err)
		}
		app, err := s.Build(core.Config{Workers: 2, MaxTasks: n}, env)
		if err != nil {
			panic(err)
		}
		probeSink = app
	}) / 1e6
}

// run runs every probe and returns the per-layer metrics they yield.
// tr, when non-nil, gets one span per layer probed. Probes of layers that
// run under SimEnv use GOMAXPROCS 1 like the sim workloads, the others
// osProcs like the OS workloads.
func (pr prober) run(tr *tracer) map[string]float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	m := map[string]float64{}
	layer := int64(0)
	timed := func(procs int, fn func()) {
		runtime.GOMAXPROCS(procs)
		t0 := tr.now()
		fn()
		tr.record(seamProbe, -1, layer, t0, tr.now())
		layer++
	}
	timed(1, func() {
		m["sim.step_ns"] = pr.probeSimStep()
		m["sim.handoff_ns"] = pr.probeSimHandoff()
		m["core.tick_ns_per_release"] = pr.probeTick()
		m["spec.build_ms.n10k"] = pr.probeSpecBuild()
	})
	timed(osProcs(), func() {
		p50, pooled := pr.probeSleep(300*time.Microsecond, 200, false)
		m["rt.sleep_overshoot_p50_us.300us"] = p50 / 1e3
		m["rt.sleep_overshoot_p99_us.300us"] = float64(pooled.quantile(0.99)) / 1e3
		p50, _ = pr.probeSleep(5*time.Millisecond, 10, false)
		m["rt.sleep_overshoot_p50_us.5ms"] = p50 / 1e3
		p50, _ = pr.probeSleep(300*time.Microsecond, 40, true)
		m["host.sleep_overshoot_p50_us.300us"] = p50 / 1e3
		m["rt.unpark_rtt_ns"] = pr.probeUnparkRTT()
	})
	timed(osProcs(), func() {
		m["core.task_lookup_ns.n10k"] = pr.probeLookup()
		m["reconfig.call_p50_us.live1k"] = probeReconfigCall(1000, 400)
		m["reconfig.call_p50_us.live10k"] = probeReconfigCall(10000, 45)
		m["reconfig.scaling_10k_over_1k"] = m["reconfig.call_p50_us.live10k"] / m["reconfig.call_p50_us.live1k"]
	})
	timed(osProcs(), func() {
		m["analysis.admit_us.n1k"] = pr.probeAdmit(1000, 10000)
		m["analysis.admit_us.n10k"] = pr.probeAdmit(10000, 1000)
	})
	timed(osProcs(), func() {
		m["trace.record_ns"] = pr.probeRecord(1)
		m["trace.record_ns.par2"] = pr.probeRecord(2)
	})
	timed(osProcs(), func() {
		m["telemetry.publish_ns"] = pr.probePublish()
		m["telemetry.encode_ns"] = pr.probeEncode()
		m["telemetry.sink_ns_per_rec"] = pr.probeFileSink()
	})
	timed(osProcs(), func() {
		m["cluster.codec_ns"], m["cluster.bytes_per_frame"] = pr.probeCodec()
		m["lockfree.mpsc_pushpop_ns"] = pr.probeMPSC()
	})
	return m
}

// printProbes is the `-probes` mode.
func printProbes(pr prober) {
	m := pr.run(nil)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-40s %14.3f %s\n", k, m[k], unitOf(k))
	}
}
