package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs. Every workload is a
// fixed-size repetition (a fresh application: set-up, drive, tear-down,
// output checks) that runOne repeats until the measuring time is used. The
// drive phase of a repetition is cut into short measuring windows, and the
// host-time metrics are folded from the windows of all repetitions (see
// foldWindows). Repeating a fixed size, rather than stretching one run,
// gives set-up time several samples per run, lets simulated workloads prove
// their counts repeat exactly (window by window), and lets every repetition
// draw its thread placement afresh; short windows give the host-time
// metrics many chances at a stretch the host left alone.
type workload struct {
	name string
	why  string
	// procs is GOMAXPROCS for the run. The OS workloads use min(nproc, 2):
	// two workers, with the driver and the scheduler thread mostly asleep.
	// The sim workloads use 1: SimEnv runs one proc at a time, and a second
	// P only adds Go's wake-an-idle-P lottery to every handoff (measured on
	// sim_steady10k: 6k-18k voluntary context switches per repetition and
	// wall time swinging 540-960 ms for identical work).
	procs int
	// size is what one repetition covers: simulated time for sim_*, wall
	// time for os_*. quick is the ~10x smaller size tests use.
	size, quick time.Duration
	// exact marks workloads whose rep.counts must repeat exactly.
	exact bool
	// window is the length of one measuring window: simulated time for the
	// workloads whose windows the collector cuts on the simulated clock,
	// wall time for os_periodic and os_chain, a number of transaction slots
	// for os_reconfig10k, the whole repetition for sim_cluster2.
	window time.Duration
	// aligned marks the simulated workloads whose k-th window holds exactly
	// the same work in every repetition of a run (the simulation is
	// deterministic and the windows are cut on its clock).
	aligned bool
	// paced marks the workloads that complete ops at the rate they offer
	// them, unless the program cannot keep up. Their windows fold by pacedQ,
	// the others' by freeQ, and their ops_per_wall_s is the median window's:
	// a higher quantile would only report how a window boundary happened to
	// fall between two ops.
	paced bool
	// setups is the number of extra set-up-only repetitions (of setupSize,
	// the smallest size that still yields a record to mark the end of set-up)
	// a run adds for setup_s: the full repetitions alone give it 4 to 20
	// samples, too few for a steady figure on a host this noisy.
	setups    int
	setupSize time.Duration
	rep       func(rc *runCtx) (*rep, error)
}

// runCtx is what a repetition needs to know.
type runCtx struct {
	seed int64
	size time.Duration
	// window is workload.window; 0 in a set-up-only repetition.
	window time.Duration
	// tr is non-nil in a traced repetition: record spans, use the retaining
	// collector, split Reconfigure into Prepare+Commit.
	tr *tracer
	// outDir is where traced repetitions may put files (exports, probes).
	outDir string
}

// rep is what one repetition measured.
type rep struct {
	setup time.Duration // workload start -> App.Start returned
	drive usage         // resources over the drive phase
	// ops counts the workload's unit of work completed in the drive phase
	// (jobs, frames or transactions: see README); jobs/missed feed
	// on_time_share; attempted/failed feed the result line.
	ops, jobs, missed int64
	attempted, failed int64
	lat               *hist // the workload's primary latency, ns
	// windows are the measuring windows of the drive phase, in order, and
	// heapLive the live heap, in bytes, at its end (see heapLive).
	windows    []window
	heapLive   uint64
	violations []string
	counts     map[string]int64   // exact-repeat guard (sim_*)
	layer      map[string]float64 // per-layer values seen in this repetition
	// check, when set, is an offline output check too heavy to run after
	// every repetition; runOne runs the last repetition's, once.
	check func() (violations []string, nsPerRec float64)
}

// window is one measuring window of a drive phase: the resources it used,
// the ops it completed and the workload's latency over it (the median of
// the window's samples, ns).
type window struct {
	usage
	ops int64
	lat int64
}

// usage is a resource snapshot or, after sub, a difference of two.
type usage struct {
	wall    time.Duration
	cpu     time.Duration // user + system, whole process
	mallocs uint64
}

// snapshot reads the clock, getrusage and the allocation counter. It does
// not stop the world (runtime.ReadMemStats would), so it is safe to call
// from the program's record path on the first job of a run.
func snapshot(t0 time.Time) usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s[:])
	return usage{
		wall:    time.Since(t0),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: s[0].Value.Uint64(),
	}
}

func (u usage) sub(v usage) usage {
	return usage{wall: u.wall - v.wall, cpu: u.cpu - v.cpu, mallocs: u.mallocs - v.mallocs}
}

// heapLive collects the heap and returns the bytes the collection found
// live. Called at the end of a drive phase, after the last window, with the
// application still declared and running: what the program holds on to for
// this workload, without the garbage whose amount depends on where the
// collector's cycle happened to stand.
func heapLive() uint64 {
	runtime.GC()
	s := [1]metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// result is one workload run: the medians over its repetitions.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Reps       int                `json:"reps"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Violations []string           `json:"violations"`
	E2E        map[string]float64 `json:"end_to_end"`
	Layer      map[string]float64 `json:"per_layer,omitempty"`
	// Windows is the number of measuring windows the host-time metrics were
	// folded from and Samples the latency sample count of the median
	// repetition.
	Windows int   `json:"windows"`
	Samples int64 `json:"latency_samples"`
	// CPUPerOp is the run's cpu_us_per_op, a per-layer metric that an
	// untraced run measures all the same.
	CPUPerOp float64 `json:"cpu_us_per_op"`
	// ByRep is what each end-to-end metric was folded from: its value in
	// every measured repetition, in order (setup_s: in every set-up-only
	// repetition).
	ByRep map[string][]float64 `json:"by_repetition,omitempty"`
}

func (r *result) violatef(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v, interpolating linearly between the
// two nearest order statistics; 0 when v is empty.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// perRep derives one repetition's own figures: the end-to-end metrics that
// are folded from whole repetitions, plus its totals for the host-time
// metrics, which the table prints by repetition but which are folded from
// the windows (foldWindows).
func perRep(r *rep) map[string]float64 {
	ops := float64(max(r.ops, 1))
	onTime := 1.0
	if r.jobs > 0 {
		onTime = 1 - float64(r.missed)/float64(r.jobs)
	}
	m := map[string]float64{
		"ops_per_wall_s": ops / r.drive.wall.Seconds(),
		"cpu_us_per_op":  float64(r.drive.cpu.Microseconds()) / ops,
		"latency_p50_us": float64(r.lat.quantile(0.50)) / 1e3,
		"on_time_share":  onTime,
		"allocs_per_op":  float64(r.drive.mallocs) / ops,
	}
	if r.heapLive > 0 {
		m["heap_live_mb"] = float64(r.heapLive) / (1 << 20)
	}
	return m
}

// foldWindows folds the measuring windows of reps into the three host-time
// metrics, and returns how many windows it folded.
//
// Aligned workloads (simulated, deterministic, windows cut on the simulated
// clock): the k-th window holds the same work in every repetition, and on
// one simulated processor interference from the host can only add to the
// time it takes. So the estimate of each window is the least wall and CPU
// time it took in any repetition, the run's figures are ops over the sum of
// those, and the latency is the median window's. A window whose op count
// differs between repetitions is a violation.
//
// The others (wall clock, or windows that are whole repetitions): every
// window of every repetition is one sample of each metric, and the metric is
// a quantile on its better side over all of them (metric.fold; freeQ or
// pacedQ).
func foldWindows(w *workload, reps []*rep, res *result) (map[string]float64, int) {
	if w.aligned {
		best := slices.Clone(reps[0].windows)
		for i, r := range reps[1:] {
			if len(r.windows) != len(best) {
				res.violatef("repetition %d: %d windows, repetition 0 had %d", i+1, len(r.windows), len(best))
				continue
			}
			for k, x := range r.windows {
				b := &best[k]
				if x.ops != b.ops {
					res.violatef("repetition %d: window %d completed %d ops, in repetition 0 it completed %d (same seed must repeat exactly)", i+1, k, x.ops, b.ops)
				}
				b.wall, b.cpu, b.lat = min(b.wall, x.wall), min(b.cpu, x.cpu), min(b.lat, x.lat)
			}
		}
		var sum window
		lats := make([]float64, len(best))
		for k, b := range best {
			sum.wall, sum.cpu, sum.ops = sum.wall+b.wall, sum.cpu+b.cpu, sum.ops+b.ops
			lats[k] = float64(b.lat) / 1e3
		}
		ops := float64(max(sum.ops, 1))
		return map[string]float64{
			"ops_per_wall_s": ops / sum.wall.Seconds(),
			"cpu_us_per_op":  float64(sum.cpu.Nanoseconds()) / 1e3 / ops,
			"latency_p50_us": median(lats),
		}, len(best)
	}
	by := map[string][]float64{}
	for _, r := range reps {
		for _, x := range r.windows {
			ops := float64(max(x.ops, 1))
			by["ops_per_wall_s"] = append(by["ops_per_wall_s"], ops/x.wall.Seconds())
			by["cpu_us_per_op"] = append(by["cpu_us_per_op"], float64(x.cpu.Nanoseconds())/1e3/ops)
			by["latency_p50_us"] = append(by["latency_p50_us"], float64(x.lat)/1e3)
		}
	}
	q := freeQ
	if w.paced {
		q = pacedQ
	}
	m := map[string]float64{}
	for k, v := range by {
		m[k] = findMetric(k).fold(v, q)
	}
	if w.paced {
		m["ops_per_wall_s"] = median(by["ops_per_wall_s"])
	}
	return m, len(by["ops_per_wall_s"])
}

// foldReps folds repetitions into the end-to-end metrics (all but setup_s,
// which has repetitions of its own) and returns each repetition's figures
// next to them.
func foldReps(w *workload, reps []*rep, res *result) (e2e map[string]float64, byRep map[string][]float64, windows int) {
	byRep = map[string][]float64{}
	for _, r := range reps {
		for k, v := range perRep(r) {
			byRep[k] = append(byRep[k], v)
		}
	}
	e2e = map[string]float64{}
	for k, v := range byRep {
		e2e[k] = findMetric(k).fold(v, pacedQ)
	}
	byWindow, windows := foldWindows(w, reps, res)
	for k, v := range byWindow {
		e2e[k] = v
	}
	return e2e, byRep, windows
}

// repeat runs repetitions of w while the next one still fits into the
// budget. With tr set, repetitions alternate untraced, traced, untraced, ...
// and a CPU profile wraps everything after the first (cold) one; shares are
// its seam shares.
func repeat(w *workload, rc runCtx, budget time.Duration, tr *tracer) (reps []*rep, shares map[string]float64, err error) {
	var prof *cpuProfile
	defer func() {
		if err != nil {
			prof.stop()
		}
	}()
	start := time.Now()
	var last time.Duration
	// At least two repetitions: the exact-repeat check and the traced run's
	// untraced reference both need a second one.
	for len(reps) < 2 || time.Since(start)+last <= budget {
		rc := rc
		if tr != nil && len(reps) > 0 {
			if len(reps)%2 == 1 {
				rc.tr = tr
			}
			if prof == nil {
				if prof, err = startCPUProfile(rc.outDir, w.name); err != nil {
					return nil, nil, err
				}
			}
		}
		// Start every repetition from a collected heap, as testing.B does,
		// so one repetition's garbage is not the next one's GC work. What is
		// live now is the benchmark's own (the results of the repetitions so
		// far): not the application's.
		held := heapLive()
		t0 := time.Now()
		r, err := w.rep(&rc)
		last = time.Since(t0)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: repetition %d: %w", w.name, len(reps), err)
		}
		r.heapLive -= min(held, r.heapLive)
		reps = append(reps, r)
	}
	return reps, prof.stop(), nil
}

// setupTimes runs w.setups set-up-only repetitions (set-up, w.setupSize of
// drive, tear-down) and returns their set-up times in seconds. setup_s is
// read from these alone: they are many, back to back and warm, where the
// full repetitions would add a handful of samples of which the first is
// cold.
func setupTimes(w *workload, rc runCtx, res *result) ([]float64, error) {
	rc.size, rc.window = w.setupSize, 0
	times := make([]float64, w.setups)
	for i := range times {
		// From a collected heap, like the full repetitions: whether one
		// set-up meets a GC cycle that the previous ones' garbage made due
		// is not a property of the set-up.
		runtime.GC()
		r, err := w.rep(&rc)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up repetition %d: %w", w.name, i, err)
		}
		times[i] = r.setup.Seconds()
		res.Failed += r.failed
		for _, v := range r.violations {
			res.violatef("set-up repetition %d: %s", i, v)
		}
	}
	return times, nil
}

// runOne runs w for about seconds and folds the repetitions into a result;
// outDir must exist.
// In a traced run the end-to-end metrics come from the traced repetitions
// and the per-layer metrics are their medians plus the probes; the
// untraced repetitions are the reference for trace_overhead_pct.
func runOne(w *workload, seed int64, seconds float64, quick, traced bool, outDir string) (*result, error) {
	runtime.GOMAXPROCS(w.procs)
	rc := runCtx{seed: seed, size: w.size, window: w.window, outDir: outDir}
	if quick {
		rc.size = w.quick
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	reps, shares, err := repeat(w, rc, time.Duration(seconds*float64(time.Second)), tr)
	if err != nil {
		return nil, err
	}

	res := &result{Workload: w.name, Seed: seed, Reps: len(reps)}
	// Before the set-up-only repetitions: their garbage is not the workload's.
	peakRSS := peakRSSMB()
	measured, reference := reps, []*rep(nil)
	if traced {
		measured = nil
		for i, r := range reps {
			if i%2 == 1 {
				measured = append(measured, r)
			} else {
				reference = append(reference, r)
			}
		}
	}
	res.E2E, res.ByRep, res.Windows = foldReps(w, measured, res)
	// Folded like an end-to-end metric, reported per layer (see README).
	res.CPUPerOp = res.E2E["cpu_us_per_op"]
	delete(res.E2E, "cpu_us_per_op")
	var samples []float64
	for _, r := range measured {
		samples = append(samples, float64(r.lat.count()))
	}
	res.Samples = int64(median(samples))
	setups, err := setupTimes(w, rc, res)
	if err != nil {
		return nil, err
	}
	res.ByRep["setup_s"] = setups
	res.E2E["setup_s"] = findMetric("setup_s").fold(setups, pacedQ)
	for i, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, v := range r.violations {
			res.violatef("repetition %d: %s", i, v)
		}
		if w.exact && i > 0 {
			for k, want := range reps[0].counts {
				if got := r.counts[k]; got != want {
					res.violatef("repetition %d: count %s = %d, repetition 0 had %d (same seed must repeat exactly)", i, k, got, want)
				}
			}
		}
	}
	var replayNS float64
	if check := reps[len(reps)-1].check; check != nil {
		t0 := tr.now()
		var viol []string
		viol, replayNS = check()
		tr.record(seamReplay, -1, 0, t0, tr.now())
		res.Violations = append(res.Violations, viol...)
	}
	if !traced {
		return res, nil
	}

	res.Layer = map[string]float64{"scenario.replay_ns_per_rec": replayNS}
	byLayer := map[string][]float64{}
	for _, r := range measured {
		for k, v := range r.layer {
			byLayer[k] = append(byLayer[k], v)
		}
	}
	for k, v := range byLayer {
		res.Layer[k] = median(v)
	}
	for k, v := range reps[0].counts {
		res.Layer["sim."+k] = float64(v)
	}
	var tails []float64
	for _, r := range measured {
		_, tail := r.lat.tail()
		tails = append(tails, float64(tail)/1e3)
	}
	res.Layer["latency_tail_us"] = median(tails)
	res.Layer["cpu_us_per_op"] = res.CPUPerOp
	res.Layer["peak_rss_mb"] = peakRSS
	// A scratch result: the reference repetitions' violations are reported
	// with every repetition's, above.
	ref, _, _ := foldReps(w, reference, &result{})
	res.Layer["trace_overhead_pct"] = 100 * (1 - res.E2E["ops_per_wall_s"]/ref["ops_per_wall_s"])
	for _, m := range []map[string]float64{tr.layer(), shares, newProber(quick, outDir).run(tr), hostLayer(w)} {
		for k, v := range m {
			res.Layer[k] = v
		}
	}
	return res, tr.write(outDir, w.name, seed)
}

func hostLayer(w *workload) map[string]float64 {
	minor, _ := strconv.ParseFloat(strings.TrimPrefix(strings.SplitN(runtime.Version(), " ", 2)[0], "go1."), 64)
	return map[string]float64{
		"host.nproc":      float64(runtime.NumCPU()),
		"host.gomaxprocs": float64(w.procs),
		// go1.24.0 reads 24.0: the minor.patch of the toolchain that built
		// the binary, as a number because metric values are numbers.
		"host.go_version": minor,
	}
}
