package yasmin_test

// Benchmark harness: one benchmark per table/figure of the paper plus
// ablation benches for the design choices DESIGN.md calls out. The
// experiment benchmarks report domain metrics (overhead, latency, miss
// ratios) via b.ReportMetric on top of the usual ns/op, so a single
// `go test -bench=. -benchmem` regenerates every headline number.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/cluster"
	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/cyclictest"
	"github.com/yasmin-rt/yasmin/internal/experiments"
	"github.com/yasmin-rt/yasmin/internal/kernel"
	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/scenario"
	"github.com/yasmin-rt/yasmin/internal/sim"
	"github.com/yasmin-rt/yasmin/internal/stress"
	"github.com/yasmin-rt/yasmin/internal/taskset"
	"github.com/yasmin-rt/yasmin/internal/telemetry"
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

// chanBenchRow is one BENCH_channels.json record.
type chanBenchRow struct {
	Name                 string  `json:"name"`
	Publishers           int     `json:"publishers"`
	Subscribers          int     `json:"subscribers"`
	Policy               string  `json:"policy"`
	Published            int64   `json:"published"`
	Delivered            int64   `json:"delivered"`
	ElapsedNS            int64   `json:"elapsed_ns"`
	MsgPerSec            float64 `json:"msgs_per_sec"`
	DeliveriesPerPublish float64 `json:"deliveries_per_publish"`
}

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
	payload := &chanBenchRow{} // one static payload: delivery must not copy it
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
// and N→1 fan-in through the MPSC staging ring — and emits the results as
// BENCH_channels.json for CI trend tracking. Fan-out delivers M times per
// publish from ONE buffered entry: deliveries_per_publish ~= M with
// allocation counts flat in M (no per-subscriber payload copies).
func BenchmarkChannels(b *testing.B) {
	// Keyed by shape name: the harness calls each sub-benchmark several
	// times while calibrating b.N, and only the final (largest) run should
	// land in the JSON artifact.
	rowByName := map[string]chanBenchRow{}
	shapes := []struct {
		name       string
		pubs, subs int
		policy     core.OverflowPolicy
	}{
		{"1pub-1sub-reject", 1, 1, core.Reject},
		{"1pub-4sub-reject-fanout", 1, 4, core.Reject},
		{"4pub-1sub-reject-mpsc", 4, 1, core.Reject},
		{"1pub-2sub-latest-conflate", 1, 2, core.Latest},
	}
	for _, tc := range shapes {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			published, delivered := runTopicThroughput(b, tc.pubs, tc.subs, tc.policy)
			elapsed := time.Since(start)
			if published == 0 {
				b.Fatal("nothing published")
			}
			msgsPerSec := float64(published) / elapsed.Seconds()
			b.ReportMetric(msgsPerSec, "msgs/s")
			b.ReportMetric(float64(delivered)/float64(published), "deliveries/publish")
			rowByName[tc.name] = chanBenchRow{
				Name:                 tc.name,
				Publishers:           tc.pubs,
				Subscribers:          tc.subs,
				Policy:               tc.policy.String(),
				Published:            published,
				Delivered:            delivered,
				ElapsedNS:            elapsed.Nanoseconds(),
				MsgPerSec:            msgsPerSec,
				DeliveriesPerPublish: float64(delivered) / float64(published),
			}
		})
	}
	rows := make([]chanBenchRow, 0, len(shapes))
	for _, tc := range shapes {
		if row, ok := rowByName[tc.name]; ok {
			rows = append(rows, row)
		}
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_channels.json", out, 0o644); err != nil {
		b.Fatal(err)
	}
}

// --- Cluster data plane: wire codec and cross-node forwarding ---

// clusterBenchRow is one BENCH_cluster.json record.
type clusterBenchRow struct {
	Name          string  `json:"name"`
	Frames        int64   `json:"frames"`
	NSPerFrame    float64 `json:"ns_per_frame"`
	FramesPerSec  float64 `json:"frames_per_sec"`
	BytesPerFrame float64 `json:"bytes_per_frame,omitempty"`
}

// clusterBenchYAML saturates the cross-node path: every topic publishes on
// node 0 at 1ms and is consumed on node 1, so the run is dominated by
// forward -> transport -> shard ingress -> remote publish.
const clusterBenchYAML = `
name: cluster-bench
seed: 17
duration: 200ms
workers: 2
nodes:
  count: 2
groups:
  - name: bg
    count: 2
    period:
      min: 20ms
      max: 40ms
    utilization: 0.02
topics:
  - name: link
    count: 4
    pubs: 1
    subs: 1
    capacity: 64
    policy: reject
    publish_period: 1ms
    consume_period: 1ms
    pub_nodes: [0]
    sub_nodes: [1]
`

// BenchmarkClusterDataPlane measures the cluster data plane: the wire codec
// in isolation (encode + parse one data frame, allocation-free), and a
// 2-node co-simulated cluster saturating cross-node topics end to end
// (declaration-time forwarder -> in-memory transport -> sharded ingress ->
// remote publish, checker running). Rows land in BENCH_cluster.json for CI
// trend tracking.
func BenchmarkClusterDataPlane(b *testing.B) {
	// Keyed by sub-benchmark: the harness re-runs each body while
	// calibrating b.N, and only the final (largest-N) row should land in
	// the JSON.
	rows := map[string]clusterBenchRow{}

	b.Run("frame-codec", func(b *testing.B) {
		f := cluster.Frame{
			Kind: cluster.FrameData, Origin: 3, Topic: "camera-detections-1",
			Pub: 17, Epoch: 4, SentAt: 123456789, Val: 987654321,
		}
		buf := make([]byte, 0, 256)
		var bytes int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Seq = uint64(i + 1)
			buf = cluster.AppendFrame(buf[:0], &f)
			bytes += int64(len(buf))
			g, err := cluster.ParseFrame(buf)
			if err != nil || g.Seq != f.Seq {
				b.Fatalf("round-trip broke at seq %d: %v", f.Seq, err)
			}
		}
		b.StopTimer()
		rows["frame-codec"] = clusterBenchRow{
			Name:          "frame-codec",
			Frames:        int64(b.N),
			NSPerFrame:    float64(b.Elapsed().Nanoseconds()) / float64(b.N),
			FramesPerSec:  float64(b.N) / b.Elapsed().Seconds(),
			BytesPerFrame: float64(bytes) / float64(b.N),
		}
	})

	b.Run("sim-2node", func(b *testing.B) {
		sc, err := scenario.Load([]byte(clusterBenchYAML), "bench.yaml")
		if err != nil {
			b.Fatal(err)
		}
		var frames int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := scenario.Run(sc)
			if err != nil {
				b.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				b.Fatalf("violations: %v", rep.Violations)
			}
			for _, n := range rep.Nodes {
				frames += int64(n.FramesReceived)
			}
		}
		b.StopTimer()
		if frames == 0 {
			b.Fatal("no frames crossed the wire")
		}
		perSec := float64(frames) / b.Elapsed().Seconds()
		b.ReportMetric(perSec, "frames/s")
		rows["sim-2node"] = clusterBenchRow{
			Name:         "sim-2node",
			Frames:       frames,
			NSPerFrame:   float64(b.Elapsed().Nanoseconds()) / float64(frames),
			FramesPerSec: perSec,
		}
	})

	var report struct {
		Rows []clusterBenchRow `json:"rows"`
	}
	for _, name := range []string{"frame-codec", "sim-2node"} {
		if row, ok := rows[name]; ok {
			report.Rows = append(report.Rows, row)
		}
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_cluster.json", out, 0o644); err != nil {
		b.Fatal(err)
	}
}

// --- Live reconfiguration: admission latency and quiescent-barrier pause ---

// reconfigBenchRow is the BENCH_reconfig.json record.
type reconfigBenchRow struct {
	Name         string `json:"name"`
	LiveTasks    int    `json:"live_tasks"`
	Transactions int64  `json:"transactions"`
	// CallAvg/CallMax time the whole Reconfigure call: staging, validation,
	// the online admission test and the commit.
	CallAvgNS int64 `json:"call_avg_ns"`
	CallMaxNS int64 `json:"call_max_ns"`
	// PauseAvg/PauseMax time the quiescent barrier alone — how long tasks
	// interacting with the middleware can be held while the tables swap.
	PauseAvgNS int64 `json:"pause_avg_ns"`
	PauseMaxNS int64 `json:"pause_max_ns"`
}

// BenchmarkReconfigure measures live reconfiguration against a running
// wall-clock application: each iteration admits a task in one transaction
// and retires it in the next, with admission analysing the full live task
// set. Reported metrics split the admission-path latency (whole call) from
// the worst-case pause at the quiescent barrier; BENCH_reconfig.json feeds
// the CI trend job.
func BenchmarkReconfigure(b *testing.B) {
	rowByName := map[string]reconfigBenchRow{}
	for _, nTasks := range []int{8, 64} {
		name := fmt.Sprintf("live-tasks-%d", nTasks)
		b.Run(name, func(b *testing.B) {
			env := rt.NewOSEnv()
			env.Spin = false
			app, err := core.New(core.Config{
				Workers: 4, Priority: core.PriorityEDF,
				MaxTasks: nTasks + 2, MaxPendingJobs: 4 * (nTasks + 2),
			}, env)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < nTasks; i++ {
				tid, err := app.TaskDecl(core.TData{
					Name:   fmt.Sprintf("t%d", i),
					Period: time.Duration(5+i%7) * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := app.VersionDecl(tid, func(x *core.ExecCtx, _ any) error {
					return nil
				}, nil, core.VSelect{WCET: 20 * time.Microsecond}); err != nil {
					b.Fatal(err)
				}
			}
			var callTotal, callMax time.Duration
			env.RunMain(func(c rt.Ctx) {
				if err := app.Start(c); err != nil {
					b.Errorf("start: %v", err)
					return
				}
				c.Sleep(5 * time.Millisecond) // let the schedule settle
				body := func(x *core.ExecCtx, _ any) error { return nil }
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					var err error
					if i%2 == 0 {
						err = app.Reconfigure(c, func(tx *core.Reconfig) error {
							id, err := tx.AddTask(core.TData{Name: "dyn", Period: 5 * time.Millisecond})
							if err != nil {
								return err
							}
							_, err = tx.AddVersion(id, body, nil, core.VSelect{WCET: 20 * time.Microsecond})
							return err
						})
					} else {
						err = app.Reconfigure(c, func(tx *core.Reconfig) error {
							return tx.RemoveTaskByName("dyn")
						})
					}
					d := time.Since(t0)
					callTotal += d
					if d > callMax {
						callMax = d
					}
					if err != nil {
						b.Errorf("transaction %d: %v", i, err)
						break
					}
				}
				app.Stop(c)
				app.Cleanup(c)
			})
			env.Wait()
			if b.Failed() {
				return
			}
			var pauseTotal, pauseMax time.Duration
			recs := app.Recorder().Reconfigs()
			for _, r := range recs {
				pauseTotal += r.Pause
				if r.Pause > pauseMax {
					pauseMax = r.Pause
				}
			}
			n := int64(len(recs))
			if n == 0 {
				b.Fatal("no committed transactions")
			}
			row := reconfigBenchRow{
				Name:         name,
				LiveTasks:    nTasks,
				Transactions: n,
				CallAvgNS:    callTotal.Nanoseconds() / int64(b.N),
				CallMaxNS:    callMax.Nanoseconds(),
				PauseAvgNS:   pauseTotal.Nanoseconds() / n,
				PauseMaxNS:   pauseMax.Nanoseconds(),
			}
			rowByName[name] = row
			b.ReportMetric(float64(row.CallAvgNS)/1e3, "admission-µs/op")
			b.ReportMetric(float64(row.PauseMaxNS)/1e3, "worst-pause-µs")
		})
	}
	rows := make([]reconfigBenchRow, 0, len(rowByName))
	for _, n := range []int{8, 64} {
		if row, ok := rowByName[fmt.Sprintf("live-tasks-%d", n)]; ok {
			rows = append(rows, row)
		}
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_reconfig.json", out, 0o644); err != nil {
		b.Fatal(err)
	}
}

// --- Scheduler tick scaling: O(jobs released), not O(tasks declared) ---

// schedTickRow is one BENCH_scale.json "sched_tick" record.
type schedTickRow struct {
	Name          string  `json:"name"`
	DeclaredTasks int     `json:"declared_tasks"`
	ActiveTasks   int     `json:"active_tasks"`
	Ticks         int64   `json:"ticks"`
	ReleasedJobs  int64   `json:"released_jobs"`
	NsPerTick     float64 `json:"ns_per_tick"`
	NsPerReleased float64 `json:"ns_per_released_job"`
}

// runSchedTick simulates a fixed horizon with `declared` tasks of which
// only `active` ever release (the rest sit one hour out on the release
// heaps) and returns host-time cost per scheduler tick, which must track the
// released-job count alone.
func runSchedTick(b *testing.B, declared, active int) schedTickRow {
	b.Helper()
	eng := sim.NewEngine(1)
	env, err := rt.NewSimEnv(eng, platform.Generic(5), nil)
	if err != nil {
		b.Fatal(err)
	}
	app, err := core.New(core.Config{
		Workers: 4, Priority: core.PriorityEDF,
		MaxTasks: declared, MaxPendingJobs: 1024,
	}, env)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < declared; i++ {
		d := core.TData{Name: fmt.Sprintf("t%d", i), Period: time.Millisecond}
		if i >= active {
			// Cold task: parked an hour out, deep in its release heap; a tick
			// only looks at the heap head.
			d.Period = time.Hour
			d.ReleaseOffset = time.Hour
		}
		tid, err := app.TaskDecl(d)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := app.VersionDecl(tid, func(x *core.ExecCtx, _ any) error {
			return x.Compute(500 * time.Nanosecond)
		}, nil, core.VSelect{}); err != nil {
			b.Fatal(err)
		}
	}
	const horizon = 500 * time.Millisecond
	env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			b.Errorf("start: %v", err)
			return
		}
		c.Sleep(horizon)
		app.Stop(c)
		app.Cleanup(c)
	})
	t0 := time.Now()
	if err := eng.Run(sim.Infinity); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(t0)
	ticks := int64(0)
	if st := app.Overheads().Kind(trace.OverheadSchedule); st != nil {
		ticks = st.Count()
	}
	released := app.Recorder().TotalJobs()
	if ticks == 0 || released == 0 {
		b.Fatalf("degenerate run: %d ticks, %d jobs", ticks, released)
	}
	return schedTickRow{
		DeclaredTasks: declared,
		ActiveTasks:   active,
		Ticks:         ticks,
		ReleasedJobs:  released,
		NsPerTick:     float64(elapsed.Nanoseconds()) / float64(ticks),
		NsPerReleased: float64(elapsed.Nanoseconds()) / float64(released),
	}
}

// BenchmarkSchedTick measures the scheduler tick across task-table sizes:
// with the released-job rate held constant, ns/tick must stay flat as the
// declared count grows 100x (the O(ready) hot path), and grow only with
// the released rate. Rows land in BENCH_scale.json for CI trend tracking.
func BenchmarkSchedTick(b *testing.B) {
	shapes := []struct {
		name             string
		declared, active int
	}{
		{"declared-100-active-50", 100, 50},
		{"declared-1k-active-50", 1000, 50},
		{"declared-10k-active-50", 10000, 50},
		{"declared-10k-active-500", 10000, 500},
	}
	rowByName := map[string]schedTickRow{}
	for _, tc := range shapes {
		b.Run(tc.name, func(b *testing.B) {
			var row schedTickRow
			for i := 0; i < b.N; i++ {
				row = runSchedTick(b, tc.declared, tc.active)
			}
			row.Name = tc.name
			rowByName[tc.name] = row
			b.ReportMetric(row.NsPerTick, "ns/tick")
			b.ReportMetric(float64(row.ReleasedJobs)/float64(row.Ticks), "released/tick")
		})
	}
	rows := make([]schedTickRow, 0, len(shapes))
	for _, tc := range shapes {
		if row, ok := rowByName[tc.name]; ok {
			rows = append(rows, row)
		}
	}
	if err := mergeBenchScale("sched_tick", rows); err != nil {
		b.Fatal(err)
	}
}

// mergeBenchScale read-modify-writes one top-level key of BENCH_scale.json,
// preserving sections other writers (yasmin-stress -out) maintain.
func mergeBenchScale(key string, payload any) error {
	const path = "BENCH_scale.json"
	doc := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("%s: existing file is not a JSON object: %w", path, err)
		}
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	doc[key] = raw
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// --- Accelerator contention: PIP arbitration cost and pool scaling ---

// accelBenchRow is one BENCH_accel.json record.
type accelBenchRow struct {
	Name       string  `json:"name"`
	PoolSize   int     `json:"pool_size"`
	Contenders int     `json:"contenders"`
	Jobs       int64   `json:"jobs"`
	Misses     int64   `json:"misses"`
	Acquires   int64   `json:"acquires"`
	Parks      int64   `json:"parks"`
	Boosts     int64   `json:"boosts"`
	MaxWaitNS  int64   `json:"max_wait_ns"`
	ParkRatio  float64 `json:"park_ratio"` // parks / acquires
}

// runAccelContention simulates `contenders` accel-bound tasks hammering one
// pool of `poolSize` instances (plus one tight-deadline urgent task whose
// misses expose unbounded inversion) and returns the arbitration counters.
func runAccelContention(b *testing.B, poolSize, contenders int, seed int64) accelBenchRow {
	b.Helper()
	eng := sim.NewEngine(seed)
	env, err := rt.NewSimEnv(eng, platform.Generic(4), nil)
	if err != nil {
		b.Fatal(err)
	}
	app, err := core.New(core.Config{
		Workers: 2, Priority: core.PriorityEDF, Preemption: true, RecordAccel: true,
		MaxTasks: contenders + 1, MaxAccels: poolSize, MaxPendingJobs: 4 * (contenders + 1),
	}, env)
	if err != nil {
		b.Fatal(err)
	}
	gpu, err := app.HwAccelDeclPool("gpu", poolSize)
	if err != nil {
		b.Fatal(err)
	}
	mk := func(name string, period, deadline, wcet, cs time.Duration) {
		tid, err := app.TaskDecl(core.TData{Name: name, Period: period, Deadline: deadline})
		if err != nil {
			b.Fatal(err)
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
			b.Fatal(err)
		}
		if err := app.HwAccelUse(tid, vid, gpu); err != nil {
			b.Fatal(err)
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
			b.Errorf("start: %v", err)
			return
		}
		c.Sleep(time.Second)
		app.Stop(c)
		app.Cleanup(c)
	})
	if err := eng.Run(sim.Infinity); err != nil {
		b.Fatal(err)
	}
	row := accelBenchRow{
		PoolSize:   poolSize,
		Contenders: contenders,
		Jobs:       app.Recorder().TotalJobs(),
		Misses:     app.Recorder().TotalMisses(),
	}
	parkAt := map[string]time.Duration{}
	for _, e := range app.Recorder().AccelEvents() {
		key := fmt.Sprintf("%s#%d", e.Task, e.Job)
		switch e.Kind {
		case trace.AccelAcquire, trace.AccelGrant:
			row.Acquires++
			if at, ok := parkAt[key]; ok {
				if w := int64(e.At - at); w > row.MaxWaitNS {
					row.MaxWaitNS = w
				}
				delete(parkAt, key)
			}
		case trace.AccelPark:
			row.Parks++
			parkAt[key] = e.At
		case trace.AccelBoost:
			row.Boosts++
		}
	}
	if row.Acquires > 0 {
		row.ParkRatio = float64(row.Parks) / float64(row.Acquires)
	}
	return row
}

// BenchmarkAccelContention measures shared-accelerator arbitration across
// pool sizes: with the same contenders, a larger pool must cut parks and
// PIP boosts while the urgent task's misses stay at zero (bounded
// inversion). Rows land in BENCH_accel.json for CI trend tracking.
func BenchmarkAccelContention(b *testing.B) {
	shapes := []struct {
		name                 string
		poolSize, contenders int
	}{
		{"pool-1-contenders-4", 1, 4},
		{"pool-2-contenders-4", 2, 4},
		{"pool-2-contenders-8", 2, 8},
	}
	rowByName := map[string]accelBenchRow{}
	for _, tc := range shapes {
		b.Run(tc.name, func(b *testing.B) {
			var row accelBenchRow
			for i := 0; i < b.N; i++ {
				row = runAccelContention(b, tc.poolSize, tc.contenders, int64(i+1))
			}
			row.Name = tc.name
			rowByName[tc.name] = row
			b.ReportMetric(float64(row.Parks), "parks")
			b.ReportMetric(float64(row.Boosts), "pip-boosts")
			b.ReportMetric(float64(row.MaxWaitNS)/1e3, "max-wait-µs")
			b.ReportMetric(float64(row.Misses), "misses")
		})
	}
	rows := make([]accelBenchRow, 0, len(shapes))
	for _, tc := range shapes {
		if row, ok := rowByName[tc.name]; ok {
			rows = append(rows, row)
		}
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_accel.json", out, 0o644); err != nil {
		b.Fatal(err)
	}
}

// --- Telemetry export: batched vs unbatched sink throughput ---

// telemetryBenchRow is one BENCH_telemetry.json record.
type telemetryBenchRow struct {
	Name          string  `json:"name"`
	BatchSize     int     `json:"batch_size"`
	Records       int64   `json:"records"`
	NSPerRecord   float64 `json:"ns_per_record"`
	RecordsPerSec float64 `json:"records_per_sec"`
}

// benchJobEvent returns a representative job event for export benchmarks.
func benchJobEvent(i int) telemetry.Event {
	return telemetry.Event{Kind: telemetry.KindJob, Seq: uint64(i + 1), Job: trace.JobRecord{
		Task: "bench-task-7", TaskID: 7, Job: int64(i), Version: 1, Core: 2,
		Release: 10 * time.Millisecond, Start: 11 * time.Millisecond,
		Finish: 12 * time.Millisecond, Deadline: 20 * time.Millisecond,
	}}
}

// runTelemetrySinkPaired measures the exporter's drain path (encode +
// write), isolated from producer scheduling, unbatched against batched.
// Both configurations run as interleaved pairs of equal rounds — unbatched
// round, batched round, repeat — so drift in filesystem writeback or
// scheduler state hits both sides alike and cancels out of the ratio. The
// speedup is the median of the per-pair ratios (robust against a stalled
// round); each row reports its fastest round as steady-state throughput.
func runTelemetrySinkPaired(b *testing.B, batchSize int) (un, ba telemetryBenchRow, speedup float64) {
	b.Helper()
	dir := b.TempDir()
	unSink, err := telemetry.NewFileSink(dir + "/unbatched.jsonl")
	if err != nil {
		b.Fatal(err)
	}
	baSink, err := telemetry.NewFileSink(dir + "/batched.jsonl")
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]telemetry.Event, batchSize)
	for i := range batch {
		batch[i] = benchJobEvent(i)
	}
	round := func(sink *telemetry.FileSink, n, size int) time.Duration {
		t0 := time.Now()
		for w := 0; w < n; w += size {
			chunk := batch[:min(size, n-w)]
			if err := sink.WriteBatch(chunk); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(t0)
	}
	const pairs = 7
	per := b.N / pairs
	if per < batchSize {
		per = b.N
	}
	ratios := make([]float64, 0, pairs)
	var bestUn, bestBa time.Duration
	b.ResetTimer()
	for done := 0; done < b.N; done += per {
		n := min(per, b.N-done)
		// Untimed breather: let the filesystem flusher drain dirty pages so
		// each round starts from comparable state instead of paying for the
		// previous round's writeback.
		b.StopTimer()
		time.Sleep(2 * time.Millisecond)
		b.StartTimer()
		tu := round(unSink, n, 1)
		tb := round(baSink, n, batchSize)
		if n < per || tu <= 0 || tb <= 0 {
			continue // short or unmeasurable tail round
		}
		ratios = append(ratios, float64(tu)/float64(tb))
		if bestUn == 0 || tu < bestUn {
			bestUn = tu
		}
		if bestBa == 0 || tb < bestBa {
			bestBa = tb
		}
	}
	b.StopTimer()
	if err := unSink.Finish(telemetry.Stats{}); err != nil {
		b.Fatal(err)
	}
	if err := baSink.Finish(telemetry.Stats{}); err != nil {
		b.Fatal(err)
	}
	un = telemetryBenchRow{BatchSize: 1, Records: int64(b.N)}
	ba = telemetryBenchRow{BatchSize: batchSize, Records: int64(b.N)}
	if bestUn > 0 && bestBa > 0 {
		un.NSPerRecord = float64(bestUn.Nanoseconds()) / float64(per)
		un.RecordsPerSec = float64(per) / bestUn.Seconds()
		ba.NSPerRecord = float64(bestBa.Nanoseconds()) / float64(per)
		ba.RecordsPerSec = float64(per) / bestBa.Seconds()
	}
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		speedup = ratios[len(ratios)/2]
	}
	return un, ba, speedup
}

// BenchmarkTelemetryExport measures the streaming export pipeline: the
// record path itself (ring publish, no sink I/O — must be allocation-free),
// the full pipeline end to end (publish through Close, drain and trailer
// included), and the exporter drain path unbatched (one file write per
// record) vs batched. Rows and the batched/unbatched speedup land in
// BENCH_telemetry.json; CI tracks where batching stops paying for itself.
func BenchmarkTelemetryExport(b *testing.B) {
	rows := map[string]telemetryBenchRow{}

	// The paired sink comparison runs first: the other sub-benchmarks write
	// tens of megabytes, and their pending writeback would skew it.
	var speedup float64
	b.Run("sink-paired", func(b *testing.B) {
		un, ba, sp := runTelemetrySinkPaired(b, 512)
		rows["sink-unbatched"], rows["sink-batched-512"], speedup = un, ba, sp
	})

	b.Run("record-path", func(b *testing.B) {
		p, err := telemetry.New(telemetry.NewDiscardSink(), telemetry.Options{RingCapacity: 1 << 16})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		ev := benchJobEvent(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.Job.Job = int64(i)
			p.PublishWait(ev)
		}
		b.StopTimer()
		rows["record-path"] = telemetryBenchRow{
			Records:       int64(b.N),
			NSPerRecord:   float64(b.Elapsed().Nanoseconds()) / float64(b.N),
			RecordsPerSec: float64(b.N) / b.Elapsed().Seconds(),
		}
	})
	b.Run("pipeline-batched-512", func(b *testing.B) {
		sink, err := telemetry.NewFileSink(b.TempDir() + "/bench.jsonl")
		if err != nil {
			b.Fatal(err)
		}
		p, err := telemetry.New(sink, telemetry.Options{BatchSize: 512})
		if err != nil {
			b.Fatal(err)
		}
		ev := benchJobEvent(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.Job.Job = int64(i)
			p.PublishWait(ev)
		}
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st := p.Stats(); st.Dropped != 0 || st.Exported != uint64(b.N) {
			b.Fatalf("exporter lost records: %+v with N=%d", st, b.N)
		}
		rows["pipeline-batched-512"] = telemetryBenchRow{
			BatchSize:     512,
			Records:       int64(b.N),
			NSPerRecord:   float64(b.Elapsed().Nanoseconds()) / float64(b.N),
			RecordsPerSec: float64(b.N) / b.Elapsed().Seconds(),
		}
	})
	out := struct {
		Rows    []telemetryBenchRow `json:"rows"`
		Speedup float64             `json:"speedup_batched_vs_unbatched"`
	}{Speedup: speedup}
	for _, name := range []string{"record-path", "pipeline-batched-512", "sink-unbatched", "sink-batched-512"} {
		if row, ok := rows[name]; ok {
			row.Name = name
			out.Rows = append(out.Rows, row)
		}
	}
	un, ba := rows["sink-unbatched"], rows["sink-batched-512"]
	if un.RecordsPerSec > 0 && ba.RecordsPerSec > 0 {
		b.Logf("batched %.0f rec/s vs unbatched %.0f rec/s: %.1fx (median of paired rounds)", ba.RecordsPerSec, un.RecordsPerSec, speedup)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_telemetry.json", data, 0o644); err != nil {
		b.Fatal(err)
	}
}

// --- Micro-benchmarks of the scheduling fast path (real time, not
// simulated: these measure the Go implementation itself) ---

// benchApp builds a small app on the wall-clock env for microbenches.
func benchApp(b *testing.B, cfg core.Config) (*core.App, *rt.OSEnv) {
	b.Helper()
	env := rt.NewOSEnv()
	env.Spin = false
	app, err := core.New(cfg, env)
	if err != nil {
		b.Fatal(err)
	}
	return app, env
}

func BenchmarkSimEngineStep(b *testing.B) {
	eng := sim.NewEngine(1)
	eng.Spawn("ticker", func(p *sim.Proc) {
		for {
			if intr, _ := p.Sleep(time.Microsecond); intr {
				return
			}
		}
	})
	b.ResetTimer()
	if err := eng.Run(sim.Time(time.Duration(b.N) * time.Microsecond)); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkMiddlewareJobRoundTrip(b *testing.B) {
	// Full release -> dispatch -> fiber -> completion round trip in virtual
	// time, measuring real host time per simulated job.
	eng := sim.NewEngine(1)
	env, err := rt.NewSimEnv(eng, platform.Generic(4), nil)
	if err != nil {
		b.Fatal(err)
	}
	app, err := core.New(core.Config{Workers: 2, MaxPendingJobs: 64}, env)
	if err != nil {
		b.Fatal(err)
	}
	tid, err := app.TaskDecl(core.TData{Name: "t", Period: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := app.VersionDecl(tid, func(x *core.ExecCtx, _ any) error {
		return x.Compute(100 * time.Microsecond)
	}, nil, core.VSelect{}); err != nil {
		b.Fatal(err)
	}
	env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			return
		}
		c.Sleep(time.Duration(b.N) * time.Millisecond)
		app.Stop(c)
		app.Cleanup(c)
	})
	b.ResetTimer()
	if err := eng.Run(sim.Infinity); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if jobs := app.Recorder().TotalJobs(); jobs < int64(b.N) {
		b.Fatalf("only %d jobs for N=%d", jobs, b.N)
	}
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

// --- Ablations (DESIGN.md section 5) ---

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

// BenchmarkOSEnvDispatchLatency measures the wall-clock middleware's
// release-to-start latency on the host (the Go analogue of Table 2's YASMIN
// rows; expect GC/scheduler noise — the published repro caveat).
func BenchmarkOSEnvDispatchLatency(b *testing.B) {
	app, env := benchApp(b, core.Config{Workers: 2})
	tid, err := app.TaskDecl(core.TData{Name: "t", Period: 5 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := app.VersionDecl(tid, func(x *core.ExecCtx, _ any) error {
		return nil
	}, nil, core.VSelect{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	env.RunMain(func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			return
		}
		c.Sleep(time.Duration(b.N) * 5 * time.Millisecond)
		app.Stop(c)
		app.Cleanup(c)
	})
	b.StopTimer()
	if st := app.Recorder().Task("t"); st != nil {
		_, max, avg := st.Response.Summary()
		b.ReportMetric(float64(avg.Microseconds()), "resp-avg-µs")
		b.ReportMetric(float64(max.Microseconds()), "resp-max-µs")
	}
	env.Wait()
}
