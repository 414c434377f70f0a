package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/trace"
)

// TestHistQuantileError bounds the histogram's quantile error against an
// exact sort of a seeded sample spanning six decades.
func TestHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	exact := make([]int64, 200000)
	for i := range exact {
		exact[i] = int64(math.Exp(rng.Float64() * math.Log(1e9))) // 1ns .. 1s, log-uniform
		h.add(exact[i])
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.01, 0.10, 0.50, 0.90, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q*float64(len(exact)))) - 1
		want, got := exact[rank], h.quantile(q)
		if err := math.Abs(float64(got-want)) / float64(want); err > 0.02 {
			t.Errorf("q%g: histogram %d, exact %d: error %.2f%% > 2%%", q, got, want, 100*err)
		}
	}
	if got := h.count(); got != int64(len(exact)) {
		t.Errorf("count %d, want %d", got, len(exact))
	}
	// Every value lands in a bucket that holds it and is at most 1/64 of it
	// wide; values below 64 have a bucket each.
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		low, width := histBounds(histIndex(v))
		if v < low || v-low >= width || (width > 1 && width > v/64) {
			t.Errorf("value %d is in bucket [%d, %d+%d)", v, low, low, width)
		}
	}
}

// TestHistMedianSince: the median of a window is that of the samples added
// since the previous cut, whatever the histogram held before.
func TestHistMedianSince(t *testing.T) {
	var h hist
	var cut histCut
	if m, n := h.medianSince(&cut); m != 0 || n != 0 {
		t.Errorf("empty histogram: median %d of %d samples", m, n)
	}
	for _, base := range []int64{1000, 50000, 200} {
		for i := int64(0); i < 101; i++ {
			h.add(base + i)
		}
		m, n := h.medianSince(&cut)
		if want := base + 50; n != 101 || math.Abs(float64(m-want)) > 0.02*float64(want) {
			t.Errorf("window around %d: median %d of %d samples, want %d of 101", base, m, n, want)
		}
	}
	if h.count() != 303 {
		t.Errorf("count %d, want 303", h.count())
	}
}

// TestFoldWindows: an aligned workload reports each window's least time
// over the repetitions and flags a window whose work differs; the others
// report a quantile on the metric's better side over all windows (the 5th
// percentile; when paced the quartile, and the median rate).
func TestFoldWindows(t *testing.T) {
	win := func(wallMS, cpuMS, ops, latUS int64) window {
		return window{usage: usage{wall: time.Duration(wallMS) * time.Millisecond, cpu: time.Duration(cpuMS) * time.Millisecond}, ops: ops, lat: latUS * 1000}
	}
	reps := []*rep{
		{windows: []window{win(10, 8, 100, 500), win(40, 30, 200, 900), win(10, 9, 100, 400)}},
		{windows: []window{win(20, 9, 100, 300), win(30, 35, 200, 800), win(15, 7, 100, 450)}},
	}
	res := &result{}
	m, n := foldWindows(&workload{aligned: true}, reps, res)
	if len(res.Violations) != 0 || n != 3 {
		t.Fatalf("%d windows, violations %v", n, res.Violations)
	}
	// wall 10+30+10 ms, cpu 8+30+7 ms, 400 ops, latencies 300, 800, 400 us
	for k, want := range map[string]float64{"ops_per_wall_s": 8000, "cpu_us_per_op": 112.5, "latency_p50_us": 400} {
		if math.Abs(m[k]-want) > 1e-9*want {
			t.Errorf("aligned %s = %v, want %v", k, m[k], want)
		}
	}
	reps[1].windows[1].ops++
	if foldWindows(&workload{aligned: true}, reps, res); len(res.Violations) != 1 {
		t.Errorf("a window with different work: violations %v", res.Violations)
	}

	pooled := &rep{}
	for i := int64(1); i <= 101; i++ { // wall 1..101 ms for 100 ops and 1 ms of CPU
		pooled.windows = append(pooled.windows, win(i, 1, 100, i))
	}
	m, n = foldWindows(&workload{}, []*rep{pooled}, &result{})
	for k, want := range map[string]float64{"ops_per_wall_s": 100 / 0.006, "cpu_us_per_op": 10, "latency_p50_us": 6} {
		if n != 101 || math.Abs(m[k]-want) > 1e-9*want {
			t.Errorf("pooled %s = %v over %d windows, want %v over 101", k, m[k], n, want)
		}
	}
	m, _ = foldWindows(&workload{paced: true}, []*rep{pooled}, &result{})
	for k, want := range map[string]float64{"ops_per_wall_s": 100 / 0.051, "latency_p50_us": 26} {
		if math.Abs(m[k]-want) > 1e-9*want {
			t.Errorf("paced %s = %v, want %v", k, m[k], want)
		}
	}
}

// TestCollectorAllocFree proves the untraced collector allocates nothing
// per StreamJob: it sits on the program's record path.
func TestCollectorAllocFree(t *testing.T) {
	col := newCollector(0, int64(simSlice))
	col.cutWindows(10*time.Millisecond, time.Minute)
	rec := trace.JobRecord{Task: "t", TaskID: 3, Release: 1000, Start: 1500, Finish: 2500, Deadline: 5000}
	n := 0
	allocs := testing.AllocsPerRun(5000, func() {
		n++
		rec.Finish = time.Duration(n) * 100 * time.Microsecond // crosses a slice boundary every 5 calls
		rec.Missed = n%7 == 0
		col.StreamJob(rec)
	})
	if allocs != 0 {
		t.Errorf("StreamJob allocates %.1f objects per record", allocs)
	}
	if col.jobs.Load() != int64(n) || col.slices.count() == 0 || len(col.windows) == 0 {
		t.Errorf("collector saw %d of %d jobs, %d slices, %d windows", col.jobs.Load(), n, col.slices.count(), len(col.windows))
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesAndLimits checks the benchmark contract's shape limits.
func TestNamesAndLimits(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1..200", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g out of (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range perLayer {
		check("per-layer", m.Name)
	}
	for s, name := range seamNames {
		if name == "" {
			t.Errorf("seam %d has no name", s)
		}
	}
	for _, sm := range seamMetrics {
		if unitOf(sm.name) == "" {
			t.Errorf("seam metric %s is not in perLayer", sm.name)
		}
	}
	for name := range profileSeams {
		if unitOf(name) == "" {
			t.Errorf("profile share %s is not in perLayer", name)
		}
	}
}

// TestManifestMatchesBinary checks that BENCHMARK.json lists exactly the
// workloads and metrics the binary emits, with the same units, directions
// and bounds.
func TestManifestMatchesBinary(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the binary's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v", doc.Paths)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if got := findWorkload(w.Name); got == nil || got.why != w.Why {
			t.Errorf("workload %s: not in the binary, or its why differs", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has workloads %v, the binary has %d", names, len(workloads))
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file   %+v\n binary %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file   %+v\n binary %+v", doc.PerLayer, perLayer)
	}
}

// TestWorkloadsQuick runs every workload at its quick size (two
// repetitions): output checks pass, every end-to-end metric is present and
// non-zero. -short keeps the three that need no 10,000-task set-up.
func TestWorkloadsQuick(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if testing.Short() && (w.name == "sim_scale10k" || w.name == "sim_steady10k" || w.name == "sim_cluster2" || w.name == "os_reconfig10k") {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := runOne(w, 1, 0, true, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if (res.Failed != 0 && !raceEnabled) || res.Attempted < 1 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, m := range endToEnd {
				if v, ok := res.E2E[m.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (present %v): every end-to-end metric must be a positive number", m.Name, v, ok)
				}
			}
			for k := range res.E2E {
				if unitOf(k) == "" {
					t.Errorf("metric %s is not in the endToEnd table", k)
				}
			}
		})
	}
}

// TestTracedRun runs one workload traced: every per-layer value it yields
// is a declared metric, the probes and the seam spans are among them, and
// the trace file and CPU profile are written.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the probes")
	}
	dir := t.TempDir()
	res, err := runOne(findWorkload("os_chain"), 1, 0, true, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	for k := range res.Layer {
		if unitOf(k) == "" {
			t.Errorf("per-layer value %s is not in the perLayer table", k)
		}
	}
	for _, k := range []string{"topic.push_ns", "topic.pop_ns", "core.activate_call_ns", "core.hop_dispatch_p50_us",
		"sim.step_ns", "rt.sleep_overshoot_p50_us.300us", "reconfig.scaling_10k_over_1k", "trace.record_ns", "host.gomaxprocs"} {
		if res.Layer[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, res.Layer[k])
		}
	}
	for _, f := range []string{"os_chain.trace.json", "os_chain.cpu.pprof"} {
		if st, err := os.Stat(dir + "/" + f); err != nil || st.Size() == 0 {
			t.Errorf("%s missing or empty: %v", f, err)
		}
	}
}

// TestSeeds: the same seed repeats the simulated counts exactly (runOne
// checks that between repetitions; here between runs), another seed gives
// another task set.
func TestSeeds(t *testing.T) {
	w := findWorkload("sim_hot64")
	counts := func(seed int64) map[string]int64 {
		r, err := w.rep(&runCtx{seed: seed, size: w.quick, outDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		return r.counts
	}
	a, b, c := counts(1), counts(1), counts(2)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seed 1 twice: %v then %v", a, b)
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("seeds 1 and 2 simulate identically: %v", a)
	}
}
