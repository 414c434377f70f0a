package main

import (
	"runtime"
	"time"
)

// metric describes one reported number. BENCHMARK.json repeats this table
// (the test checks they agree).
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// fold reduces one metric's samples (measuring windows, repetitions) to the
// figure a run reports. The counts (allocs_per_op, heap_live_mb) report the
// median repetition. Every other metric is host time and reports the
// quantile q counted from its better side (the q-quantile of a latency or a
// cost, the (1-q)-quantile of a throughput or of on_time_share), because on a
// shared host interference mostly slows a stretch of the run down: the vCPU
// is taken away for milliseconds at a time (late timers, stalled jobs), a
// neighbour slows memory for seconds, or a repetition's threads land on the
// two vCPUs in the slower of two placements (os_chain reads a median
// response of 7.1 us or 9.4 us for a whole repetition, and 8 of 22
// repetitions of one run drew the slower). What the program costs is what
// the quiet stretches show, and a low quantile still finds them when most of
// the run was disturbed. Every repetition's totals are printed, so the
// spread folded away stays visible.
func (m metric) fold(v []float64, q float64) float64 {
	switch {
	case m.Name == "allocs_per_op" || m.Name == "heap_live_mb":
		return median(v)
	case m.Better == "higher":
		return quantile(v, 1-q)
	default:
		return quantile(v, q)
	}
}

const (
	// freeQ is the quantile for the windows of a workload that runs as fast
	// as it can (os_chain, sim_cluster2): nothing but interference makes one
	// of its windows slower than another, so the lower the quantile the
	// steadier. In an hour in which the host slowed os_chain from 510k to
	// 355k jobs/s, ten runs spread by 10% at the 5th percentile of their
	// windows, 14% at the 25th and 31% at the median.
	freeQ = 0.05
	// pacedQ is the quantile for everything else: the windows of a paced
	// workload (os_periodic, os_reconfig10k), on_time_share and setup_s. A
	// disturbed stretch of a paced workload can also read better than a quiet
	// one (after a stall it releases its backlog at once and runs it back to
	// back, at two thirds of the CPU per job), and the least of a hundred
	// set-up times is an extreme value that moved by a quarter between runs:
	// at the 5th and 10th percentile ten runs of os_periodic and
	// os_reconfig10k spread by 10-14%, at the quartile by 5-8%.
	pacedQ = 0.25
)

// endToEnd are the metrics a user of the runtime sees. Every workload
// reports every one of them, never as zero; what `op` and `latency` mean
// per workload is in the workloads table below and in README.md.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_wall_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"on_time_share", "ratio", "higher", 0.10},
	{"allocs_per_op", "count", "lower", 0.05},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// perLayer are the metrics of single layers, reported by a traced run. A
// workload that does no work in a layer reports that layer's run counters
// as 0; the probes are independent of the workload.
var perLayer = []metric{
	// sim
	{Name: "sim.step_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.handoff_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.steps_per_job", Unit: "count", Better: "lower"},
	{Name: "sim.slice_max_us", Unit: "us", Better: "lower"},
	{Name: "sim.jobs", Unit: "count", Better: "higher"},
	{Name: "sim.misses", Unit: "count", Better: "lower"},
	{Name: "sim.epochs", Unit: "count", Better: "higher"},
	{Name: "sim.retires", Unit: "count", Better: "higher"},
	{Name: "sim.published", Unit: "count", Better: "higher"},
	{Name: "sim.delivered", Unit: "count", Better: "higher"},
	{Name: "sim.steps", Unit: "count", Better: "lower"},
	// rt
	{Name: "rt.sleep_overshoot_p50_us.300us", Unit: "us", Better: "lower"},
	{Name: "rt.sleep_overshoot_p99_us.300us", Unit: "us", Better: "lower"},
	{Name: "rt.sleep_overshoot_p50_us.5ms", Unit: "us", Better: "lower"},
	{Name: "host.sleep_overshoot_p50_us.300us", Unit: "us", Better: "lower"},
	{Name: "rt.unpark_rtt_ns", Unit: "ns", Better: "lower"},
	// core: scheduler, workers, lookup
	{Name: "core.tick_ns_per_release", Unit: "ns", Better: "lower"},
	{Name: "core.sched_tick_mean_us", Unit: "us", Better: "lower"},
	{Name: "core.sched_ticks", Unit: "count", Better: "lower"},
	{Name: "core.dispatch_mean_us", Unit: "us", Better: "lower"},
	{Name: "core.steals_per_job", Unit: "ratio", Better: "lower"},
	{Name: "core.idle_wakes_per_job", Unit: "ratio", Better: "lower"},
	{Name: "core.steal_misses", Unit: "count", Better: "lower"},
	{Name: "core.migrations", Unit: "count", Better: "lower"},
	{Name: "core.signals", Unit: "count", Better: "lower"},
	{Name: "core.activate_call_ns", Unit: "ns", Better: "lower"},
	{Name: "core.hop_dispatch_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.hop_exec_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.response_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.response_tail_us", Unit: "us", Better: "lower"},
	{Name: "core.fg_dispatch_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.task_lookup_ns.n10k", Unit: "ns", Better: "lower"},
	// core: reconfiguration
	{Name: "reconfig.stage_p50_us", Unit: "us", Better: "lower"},
	{Name: "reconfig.admit_p50_us", Unit: "us", Better: "lower"},
	{Name: "reconfig.commit_p50_us", Unit: "us", Better: "lower"},
	{Name: "reconfig.pause_p50_us", Unit: "us", Better: "lower"},
	{Name: "reconfig.pause_max_us", Unit: "us", Better: "lower"},
	{Name: "reconfig.call_p50_us", Unit: "us", Better: "lower"},
	{Name: "reconfig.call_p50_us.live1k", Unit: "us", Better: "lower"},
	{Name: "reconfig.call_p50_us.live10k", Unit: "us", Better: "lower"},
	{Name: "reconfig.scaling_10k_over_1k", Unit: "ratio", Better: "lower"},
	{Name: "reconfig.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "reconfig.gen_lateness_p90_us", Unit: "us", Better: "lower"},
	{Name: "analysis.admit_us.n1k", Unit: "us", Better: "lower"},
	{Name: "analysis.admit_us.n10k", Unit: "us", Better: "lower"},
	// core: topics
	{Name: "topic.push_ns", Unit: "ns", Better: "lower"},
	{Name: "topic.pop_ns", Unit: "ns", Better: "lower"},
	// trace, telemetry, cluster, lockfree, scenario, spec
	{Name: "trace.record_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.record_ns.par2", Unit: "ns", Better: "lower"},
	{Name: "telemetry.publish_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.sink_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "telemetry.run_sink_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "telemetry.dropped_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.codec_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.bytes_per_frame", Unit: "count", Better: "lower"},
	{Name: "cluster.frames_sent", Unit: "count", Better: "higher"},
	{Name: "cluster.frames_dropped_share", Unit: "ratio", Better: "lower"},
	{Name: "lockfree.mpsc_pushpop_ns", Unit: "ns", Better: "lower"},
	{Name: "scenario.replay_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "spec.build_ms.n10k", Unit: "ms", Better: "lower"},
	// CPU-profile shares of long-lived seam functions (0 in the result line
	// and null in the table when the symbol is not in the profile)
	{Name: "cpu_share.sched_loop", Unit: "%", Better: "lower"},
	{Name: "cpu_share.release_due", Unit: "%", Better: "lower"},
	{Name: "cpu_share.reconfigure", Unit: "%", Better: "lower"},
	{Name: "cpu_share.record", Unit: "%", Better: "lower"},
	{Name: "cpu_share.sim_run", Unit: "%", Better: "lower"},
	{Name: "cpu_share.task_lookup", Unit: "%", Better: "lower"},
	// the run's own figures that did not repeat well enough to carry a bound
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "latency_tail_us", Unit: "us", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	// environment
	{Name: "host.nproc", Unit: "count", Better: "higher"},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "host.go_version", Unit: "count", Better: "higher"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

// findMetric looks name up in both tables; nil when it is in neither.
func findMetric(name string) *metric {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

func unitOf(name string) string {
	if m := findMetric(name); m != nil {
		return m.Unit
	}
	return ""
}

// osProcs is GOMAXPROCS for the OS workloads: min(nproc, 2).
func osProcs() int { return min(runtime.NumCPU(), 2) }

// workloads is the benchmark's workload set. `op` is what ops_per_wall_s,
// cpu_us_per_op and allocs_per_op count, and `latency` what latency_p50_us
// and latency_tail_us time, on that workload.
var workloads = []workload{
	{
		name: "sim_scale10k",
		// op: job. latency: host time per simulated millisecond.
		why:   "SimEnv flagship: 10k tasks, 20-topic mesh, ping-pong/retune/mode churn, global EDF, 8 workers; wheel, sim handoff, stealing, name lookup and recorder all do work",
		procs: 1, size: 750 * time.Millisecond, quick: 250 * time.Millisecond, exact: true,
		window: 25 * time.Millisecond, aligned: true,
		setups: 24, setupSize: 5 * time.Millisecond,
		rep: scenarioRep("scale10k"),
	},
	{
		name: "sim_steady10k",
		// op: job. latency: host time per simulated millisecond.
		why:   "same 9,840 periodic tasks with no churn, topics or failures: release structure used read-mostly, core.reconfig and core.topic bypassed, so a name-index or admission win must not move it",
		procs: 1, size: 750 * time.Millisecond, quick: 100 * time.Millisecond, exact: true,
		window: 25 * time.Millisecond, aligned: true,
		setups: 24, setupSize: 5 * time.Millisecond,
		rep: scenarioRep("steady10k"),
	},
	{
		name: "sim_hot64",
		// op: job. latency: host time per simulated millisecond.
		why:   "64 hot tasks at 1-4 ms, 5us bodies, 4 partitioned workers: the per-job constant path (sim handoff, fiber, completion, recorder); tiny wheel, zero steals, so wheel and steal changes predict no change",
		procs: 1, size: 5 * time.Second, quick: 2 * time.Second, exact: true,
		window: 100 * time.Millisecond, aligned: true,
		setups: 200,
		rep:    hot64Rep,
	},
	{
		name: "sim_cluster2",
		// op: frame received on node 1. latency: host time per 5 simulated ms.
		why:   "2 nodes, 64 cross-node topics at 1 ms, drop_oldest, per-node pipeline and file export: the only workload where cluster, lockfree and telemetry do most of the work",
		procs: 1, size: 300 * time.Millisecond, quick: 100 * time.Millisecond, exact: true,
		window: 300 * time.Millisecond, // the repetition: the benchmark cannot see inside a cluster run
		setups: 32, setupSize: 5 * time.Millisecond,
		rep: cluster2Rep,
	},
	{
		name: "os_periodic",
		// op: job. latency: Start - Release of every job.
		why:   "OSEnv wall clock, 16 empty periodic tasks at 1-10 ms paced by the program's scheduler: the paper's Table-2 release-to-start latency, dominated by rt timer overshoot",
		procs: osProcs(), size: 500 * time.Millisecond, quick: 200 * time.Millisecond, setups: 100,
		window: 100 * time.Millisecond, paced: true,
		rep: periodicRep,
	},
	{
		name: "os_chain",
		// op: job (4 per activation). latency: TaskActivate call -> tail body ran.
		why:   "OSEnv closed loop, 1 client activating a 4-stage DAG over 3 channels: timer-free and wheel-free dispatch, idle wake, fiber handoff, completion, topic push/pop and recorder",
		procs: osProcs(), size: 250 * time.Millisecond, quick: 200 * time.Millisecond, setups: 200,
		window: 50 * time.Millisecond,
		rep:    chainRep,
	},
	{
		name: "os_reconfig10k",
		// op: transaction. latency: Start - Release of every foreground job.
		why:   "OSEnv open loop of 40 transactions/s (remove 4, add 4, retune 4) against 10,000 live tasks plus 16 sampled foreground tasks: reconfig staging/admission/commit and its interference",
		procs: osProcs(), size: 2 * time.Second, quick: 800 * time.Millisecond, setups: 48,
		window: 250 * time.Millisecond, paced: true, // 10 transactions
		rep: reconfigRep,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
