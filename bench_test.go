package yasmin_test

// Benchmark harness: one benchmark per table/figure of the paper, two
// data-plane benches no benchmark/ probe covers (topic fan-out/fan-in
// throughput and accelerator-pool arbitration) and ablation benches for the
// main design choices. The experiment benchmarks report domain metrics
// (overhead, latency, miss ratios) via b.ReportMetric on top of the usual
// ns/op. Runtime cost of the middleware itself is measured by
// `bash benchmark/run.sh` (see benchmark/README.md), not here.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/cyclictest"
	"github.com/yasmin-rt/yasmin/internal/experiments"
	"github.com/yasmin-rt/yasmin/internal/kernel"
	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/sim"
	"github.com/yasmin-rt/yasmin/internal/stress"
	"github.com/yasmin-rt/yasmin/internal/taskset"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// --- Fig. 2: scheduling overhead, YASMIN vs Mollison & Anderson ---

func BenchmarkFig2Overhead(b *testing.B) {
	cfg := experiments.QuickFig2Config()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		rows, err := experiments.Fig2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var yasAvg, maAvg, yasMax, maMax time.Duration
		var ny, nm int
		for _, r := range rows {
			switch r.System {
			case "YASMIN":
				yasAvg += r.AvgOvh
				if r.MaxOvh > yasMax {
					yasMax = r.MaxOvh
				}
				ny++
			default:
				maAvg += r.AvgOvh
				if r.MaxOvh > maMax {
					maMax = r.MaxOvh
				}
				nm++
			}
		}
		b.ReportMetric(float64(yasAvg.Microseconds())/float64(ny), "yasmin-avg-µs")
		b.ReportMetric(float64(maAvg.Microseconds())/float64(nm), "ma-avg-µs")
		b.ReportMetric(float64(yasMax.Microseconds()), "yasmin-max-µs")
		b.ReportMetric(float64(maMax.Microseconds()), "ma-max-µs")
	}
}

// --- Table 2: cyclictest latency across kernel substrates ---

func BenchmarkTable2Cyclictest(b *testing.B) {
	cfg := experiments.QuickTable2Config()
	cfg.Opts.Loops = 2000
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		rows, err := experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			name := strings.ReplaceAll(r.OS+"/"+r.Variant, " ", "_")
			b.ReportMetric(float64(r.Avg.Microseconds()), name+"-avg-µs")
		}
	}
}

// --- Fig. 4: SAR drone scheduling exploration ---

func BenchmarkFig4SAR(b *testing.B) {
	cfg := experiments.QuickFig4Config()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		rows, err := experiments.Fig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(100*r.FrameMissRatio, r.Policy+"/"+r.Versions+"-miss-%")
		}
	}
}

// --- Channel/topic data-plane throughput (wall clock, real host time) ---

// runTopicThroughput drives nPub publisher tasks and nSub subscriber tasks
// through one topic on the wall-clock backend until at least b.N messages
// were published, and returns publish/delivery counts. Fan-out shares one
// buffered entry among all subscribers; fan-in >1 publishers exercises the
// lock-free MPSC staging ring.
func runTopicThroughput(b *testing.B, nPub, nSub int, policy core.OverflowPolicy) (published, delivered int64) {
	b.Helper()
	env := rt.NewOSEnv()
	env.Spin = false
	app, err := core.New(core.Config{
		Workers: 4, Priority: core.PriorityRM, MaxPendingJobs: 256,
	}, env)
	if err != nil {
		b.Fatal(err)
	}
	top, err := app.TopicDecl("bench", core.TopicOpts{Capacity: 256, Policy: policy})
	if err != nil {
		b.Fatal(err)
	}
	goal := int64(b.N)
	var pubCount, subCount atomic.Int64
	payload := new([64]byte) // one static payload: delivery must not copy it
	for p := 0; p < nPub; p++ {
		tid, err := app.TaskDecl(core.TData{Name: fmt.Sprintf("pub%d", p), Period: time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := app.VersionDecl(tid, func(x *core.ExecCtx, _ any) error {
			for i := 0; i < 4096; i++ {
				if pubCount.Load() >= goal {
					return nil
				}
				if err := x.Publish(top, payload); err != nil {
					return nil // Reject full: retry next activation
				}
				pubCount.Add(1)
			}
			return nil
		}, nil, core.VSelect{}); err != nil {
			b.Fatal(err)
		}
		if err := app.TopicPub(tid, top); err != nil {
			b.Fatal(err)
		}
	}
	for s := 0; s < nSub; s++ {
		tid, err := app.TaskDecl(core.TData{Name: fmt.Sprintf("sub%d", s), Period: time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := app.VersionDecl(tid, func(x *core.ExecCtx, _ any) error {
			for {
				_, ok, err := x.Take(top)
				if err != nil || !ok {
					return err
				}
				subCount.Add(1)
			}
		}, nil, core.VSelect{}); err != nil {
			b.Fatal(err)
		}
		if err := app.TopicSub(tid, top); err != nil {
			b.Fatal(err)
		}
	}
	env.RunMain(func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			b.Errorf("start: %v", err)
			return
		}
		deadline := c.Now() + 30*time.Second
		for pubCount.Load() < goal && c.Now() < deadline {
			c.Sleep(2 * time.Millisecond)
		}
		// Let subscribers drain the tail before stopping.
		for i := 0; i < 50 && policy == core.Reject &&
			subCount.Load() < pubCount.Load()*int64(nSub); i++ {
			c.Sleep(2 * time.Millisecond)
		}
		app.Stop(c)
		app.Cleanup(c)
	})
	env.Wait()
	if err := app.FirstError(); err != nil {
		b.Fatal(err)
	}
	return pubCount.Load(), subCount.Load()
}

// BenchmarkChannels measures data-plane throughput for the three topic
// shapes — the legacy 1→1 FIFO, 1→N fan-out over per-subscriber cursors,
// and N→1 fan-in through the MPSC staging ring. Fan-out delivers M times per
// publish from ONE buffered entry: deliveries/publish ~= M with allocation
// counts flat in M (no per-subscriber payload copies).
func BenchmarkChannels(b *testing.B) {
	for _, tc := range []struct {
		name       string
		pubs, subs int
		policy     core.OverflowPolicy
	}{
		{"1pub-1sub-reject", 1, 1, core.Reject},
		{"1pub-4sub-reject-fanout", 1, 4, core.Reject},
		{"4pub-1sub-reject-mpsc", 4, 1, core.Reject},
		{"1pub-2sub-latest-conflate", 1, 2, core.Latest},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			published, delivered := runTopicThroughput(b, tc.pubs, tc.subs, tc.policy)
			elapsed := time.Since(start)
			if published == 0 {
				b.Fatal("nothing published")
			}
			b.ReportMetric(float64(published)/elapsed.Seconds(), "msgs/s")
			b.ReportMetric(float64(delivered)/float64(published), "deliveries/publish")
		})
	}
}

// --- Accelerator contention: PIP arbitration cost and pool scaling ---

// accelRow holds one accelerator-contention run's arbitration counters.
type accelRow struct {
	Jobs, Misses, UrgentMisses int64
	Acquires, Parks, Boosts    int64
	MaxWait                    time.Duration
}

// runAccelContention simulates `contenders` accel-bound tasks hammering one
// pool of `poolSize` instances (plus one tight-deadline urgent task whose
// misses expose unbounded inversion) and returns the arbitration counters.
func runAccelContention(tb testing.TB, poolSize, contenders int, seed int64) accelRow {
	tb.Helper()
	eng := sim.NewEngine(seed)
	env, err := rt.NewSimEnv(eng, platform.Generic(4), nil)
	if err != nil {
		tb.Fatal(err)
	}
	app, err := core.New(core.Config{
		Workers: 2, Priority: core.PriorityEDF, Preemption: true, RecordAccel: true,
		MaxTasks: contenders + 1, MaxAccels: poolSize, MaxPendingJobs: 4 * (contenders + 1),
	}, env)
	if err != nil {
		tb.Fatal(err)
	}
	gpu, err := app.HwAccelDeclPool("gpu", poolSize)
	if err != nil {
		tb.Fatal(err)
	}
	mk := func(name string, period, deadline, wcet, cs time.Duration) {
		tid, err := app.TaskDecl(core.TData{Name: name, Period: period, Deadline: deadline})
		if err != nil {
			tb.Fatal(err)
		}
		pre := (wcet - cs) / 2
		vid, err := app.VersionDecl(tid, func(x *core.ExecCtx, _ any) error {
			if err := x.Compute(pre); err != nil {
				return err
			}
			if err := x.AccelSection(cs); err != nil {
				return err
			}
			return x.Compute(wcet - cs - pre)
		}, nil, core.VSelect{WCET: wcet, AccelCS: cs})
		if err != nil {
			tb.Fatal(err)
		}
		if err := app.HwAccelUse(tid, vid, gpu); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < contenders; i++ {
		period := time.Duration(10+3*i) * time.Millisecond
		wcet := period / 12
		mk(fmt.Sprintf("load%d", i), period, 0, wcet, wcet/2)
	}
	mk("urgent", 5*time.Millisecond, 3*time.Millisecond, 400*time.Microsecond, 200*time.Microsecond)

	env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			tb.Errorf("start: %v", err)
			return
		}
		c.Sleep(time.Second)
		app.Stop(c)
		app.Cleanup(c)
	})
	if err := eng.Run(sim.Infinity); err != nil {
		tb.Fatal(err)
	}
	rec := app.Recorder()
	row := accelRow{Jobs: rec.TotalJobs(), Misses: rec.TotalMisses()}
	if st := rec.Task("urgent"); st != nil {
		row.UrgentMisses = st.Misses
	}
	parkAt := map[string]time.Duration{}
	for _, e := range rec.AccelEvents() {
		key := fmt.Sprintf("%s#%d", e.Task, e.Job)
		switch e.Kind {
		case trace.AccelAcquire, trace.AccelGrant:
			row.Acquires++
			if at, ok := parkAt[key]; ok {
				row.MaxWait = max(row.MaxWait, e.At-at)
				delete(parkAt, key)
			}
		case trace.AccelPark:
			row.Parks++
			parkAt[key] = e.At
		case trace.AccelBoost:
			row.Boosts++
		}
	}
	return row
}

// BenchmarkAccelContention measures shared-accelerator arbitration across
// pool sizes: with the same contenders, a larger pool must cut parks and
// PIP boosts while the urgent task's misses stay at zero (bounded
// inversion; TestAccelPoolDoublingCutsParks pins the contenders-4 shape).
func BenchmarkAccelContention(b *testing.B) {
	for _, tc := range []struct {
		name                 string
		poolSize, contenders int
	}{
		{"pool-1-contenders-4", 1, 4},
		{"pool-2-contenders-4", 2, 4},
		{"pool-2-contenders-8", 2, 8},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var row accelRow
			for i := 0; i < b.N; i++ {
				row = runAccelContention(b, tc.poolSize, tc.contenders, int64(i+1))
			}
			b.ReportMetric(float64(row.Parks), "parks")
			b.ReportMetric(float64(row.Boosts), "pip-boosts")
			b.ReportMetric(float64(row.MaxWait.Microseconds()), "max-wait-µs")
			b.ReportMetric(float64(row.Misses), "misses")
		})
	}
}

// TestAccelPoolDoublingCutsParks pins the contenders-4 shape of
// BenchmarkAccelContention on SimEnv, seed 1: a second pool instance leaves
// no deadline miss (the urgent task's included) and cuts parks at least
// fourfold, and the counters are identical across runs.
func TestAccelPoolDoublingCutsParks(t *testing.T) {
	one := runAccelContention(t, 1, 4, 1)
	two := runAccelContention(t, 2, 4, 1)
	if again := runAccelContention(t, 2, 4, 1); again != two {
		t.Fatalf("pool 2 not deterministic: %+v then %+v", two, again)
	}
	if again := runAccelContention(t, 1, 4, 1); again != one {
		t.Fatalf("pool 1 not deterministic: %+v then %+v", one, again)
	}
	if two.Misses != 0 || two.UrgentMisses != 0 {
		t.Errorf("pool 2: %d misses (%d urgent), want 0", two.Misses, two.UrgentMisses)
	}
	if two.Parks == 0 || 4*two.Parks > one.Parks {
		t.Errorf("pool 2 parks %d, want > 0 and <= 1/4 of pool 1's %d", two.Parks, one.Parks)
	}
	t.Logf("pool 1: %d parks, %d urgent misses; pool 2: %d parks", one.Parks, one.UrgentMisses, two.Parks)
}

func BenchmarkDRSGeneration(b *testing.B) {
	cfg := taskset.DRSConfig{N: 100, TotalUtilization: 1.5}
	rng := sim.NewEngine(1).Rand()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := taskset.Generate(rng, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations of the scheduler's design choices ---

// BenchmarkAblationSchedulerPeriod compares the paper's GCD-periodic
// scheduler activation against a denser fixed activation grid.
func BenchmarkAblationSchedulerPeriod(b *testing.B) {
	for _, tc := range []struct {
		name   string
		period time.Duration
	}{
		{"gcd-derived", 0},
		{"fixed-100us", 100 * time.Microsecond},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ovh, err := runAblation(int64(i+1), func(cfg *core.Config) {
					cfg.SchedulerPeriod = tc.period
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(ovh.Microseconds()), "sched-avg-µs")
			}
		})
	}
}

// BenchmarkAblationLocks compares POSIX-style and lock-free queue locking.
func BenchmarkAblationLocks(b *testing.B) {
	for _, tc := range []struct {
		name string
		lock core.LockChoice
	}{
		{"posix", core.LockPOSIX},
		{"lockfree", core.LockFree},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ovh, err := runAblation(int64(i+1), func(cfg *core.Config) {
					cfg.Lock = tc.lock
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(ovh.Microseconds()), "sched-avg-µs")
			}
		})
	}
}

// BenchmarkAblationWaitStrategy compares sleeping and spinning idle workers.
func BenchmarkAblationWaitStrategy(b *testing.B) {
	for _, tc := range []struct {
		name string
		wait core.WaitStrategy
	}{
		{"sleep", core.WaitSleep},
		{"spin", core.WaitSpin},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ovh, err := runAblation(int64(i+1), func(cfg *core.Config) {
					cfg.Wait = tc.wait
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(ovh.Microseconds()), "sched-avg-µs")
			}
		})
	}
}

// runAblation executes a fixed synthetic workload under a tweaked config and
// returns the mean scheduling overhead.
func runAblation(seed int64, tweak func(*core.Config)) (time.Duration, error) {
	eng := sim.NewEngine(seed)
	env, err := rt.NewSimEnv(eng, platform.OdroidXU4(), nil)
	if err != nil {
		return 0, err
	}
	cfg := core.Config{
		Workers:       2,
		WorkerCores:   []int{4, 5},
		SchedulerCore: 6,
		Priority:      core.PriorityEDF,
		Preemption:    true,
		MaxTasks:      24,
	}
	tweak(&cfg)
	app, err := core.New(cfg, env)
	if err != nil {
		return 0, err
	}
	set, err := taskset.Generate(sim.NewEngine(seed).Rand(), taskset.DRSConfig{
		N: 24, TotalUtilization: 1.2,
		PeriodMin: 10 * time.Millisecond, PeriodMax: 50 * time.Millisecond,
	})
	if err != nil {
		return 0, err
	}
	for i := range set.Tasks {
		tk := &set.Tasks[i]
		tid, err := app.TaskDecl(core.TData{Name: tk.Name, Period: tk.Period})
		if err != nil {
			return 0, err
		}
		w := tk.WCET
		if _, err := app.VersionDecl(tid, func(x *core.ExecCtx, _ any) error {
			return x.Compute(w)
		}, nil, core.VSelect{}); err != nil {
			return 0, err
		}
	}
	env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			return
		}
		c.Sleep(500 * time.Millisecond)
		app.Stop(c)
		app.Cleanup(c)
	})
	if err := eng.Run(sim.Time(5 * time.Second)); err != nil {
		return 0, err
	}
	return app.Overheads().Total().Mean(), nil
}

// BenchmarkAblationAsyncAccel measures the paper's future-work extension:
// asynchronous accelerator sections versus the synchronous limitation, on
// the SAR-like single-worker contention scenario.
func BenchmarkAblationAsyncAccel(b *testing.B) {
	for _, tc := range []struct {
		name  string
		async bool
	}{
		{"sync-paper-limitation", false},
		{"async-extension", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				miss, err := runAsyncAblation(int64(i+1), tc.async)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(miss, "cpu-task-miss-%")
			}
		})
	}
}

func runAsyncAblation(seed int64, async bool) (float64, error) {
	eng := sim.NewEngine(seed)
	env, err := rt.NewSimEnv(eng, platform.GenericWithGPU(2), nil)
	if err != nil {
		return 0, err
	}
	app, err := core.New(core.Config{
		Workers: 1, Preemption: true, AsyncAccel: async,
	}, env)
	if err != nil {
		return 0, err
	}
	gpu, err := app.HwAccelDecl("gpu0")
	if err != nil {
		return 0, err
	}
	gt, err := app.TaskDecl(core.TData{Name: "gputask", Period: 100 * time.Millisecond})
	if err != nil {
		return 0, err
	}
	gv, err := app.VersionDecl(gt, func(x *core.ExecCtx, _ any) error {
		if err := x.Compute(time.Millisecond); err != nil {
			return err
		}
		if err := x.AccelSection(30 * time.Millisecond); err != nil {
			return err
		}
		return x.Compute(time.Millisecond)
	}, nil, core.VSelect{})
	if err != nil {
		return 0, err
	}
	if err := app.HwAccelUse(gt, gv, gpu); err != nil {
		return 0, err
	}
	ct, err := app.TaskDecl(core.TData{
		Name: "cputask", Period: 100 * time.Millisecond,
		Deadline: 20 * time.Millisecond, ReleaseOffset: 2 * time.Millisecond,
	})
	if err != nil {
		return 0, err
	}
	if _, err := app.VersionDecl(ct, func(x *core.ExecCtx, _ any) error {
		return x.Compute(5 * time.Millisecond)
	}, nil, core.VSelect{}); err != nil {
		return 0, err
	}
	env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			return
		}
		c.Sleep(time.Second)
		app.Stop(c)
		app.Cleanup(c)
	})
	if err := eng.Run(sim.Time(5 * time.Second)); err != nil {
		return 0, err
	}
	st := app.Recorder().Task("cputask")
	if st == nil || st.Jobs == 0 {
		return 0, nil
	}
	return 100 * float64(st.Misses) / float64(st.Jobs), nil
}

// BenchmarkCyclictestSingleKernel measures one kernel model end to end.
func BenchmarkCyclictestSingleKernel(b *testing.B) {
	load := stress.PaperConfig().Load()
	opts := cyclictest.Options{Threads: 2, Interval: 10 * time.Millisecond, Loops: 200}
	for i := 0; i < b.N; i++ {
		if _, err := cyclictest.RunNative(int64(i+1), platform.OdroidXU4(),
			&kernel.PreemptRT{Load: load}, opts); err != nil {
			b.Fatal(err)
		}
	}
}
