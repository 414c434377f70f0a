// Command benchmark is the runtime's one benchmark: seven workloads across
// SimEnv, OSEnv and the cluster wire, measured from outside the program
// through its exported API, with end-to-end metrics from an untraced run and
// a per-layer ledger (spans, counters, probes, CPU profile) from a traced
// one. README.md defines every workload and metric.
//
//	benchmark                         every workload, each in a fresh subprocess
//	benchmark -trace 1                ... plus a traced pass
//	benchmark -workload W -seed N -seconds S -trace 0|1
//	                                  one workload in this process; the last
//	                                  line of output is the result as JSON
//	benchmark -probes                 only the layer probes
//	benchmark -agree                  the whole set twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 16

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload, in this process")
		seed    = flag.Int64("seed", 1, "seed for every generated input (periods, offsets, retune picks, scenario seed)")
		seconds = flag.Float64("seconds", defaultSeconds, "measuring time per workload run")
		traced  = flag.Int("trace", 0, "1: traced run (per-layer metrics, spans, CPU profile) instead of the untraced one")
		quick   = flag.Bool("quick", false, "~10x smaller repetitions, two of each (tests)")
		out     = flag.String("out", "", "write all results to this JSON file")
		probes  = flag.Bool("probes", false, "run only the layer probes")
		agree   = flag.Bool("agree", false, "run the whole set twice and compare against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *quick && !flagSet("seconds") {
		*seconds = 0
	}
	outDir := "out"
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		outDir = "benchmark/out" // run from the repository root
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("%v", err)
	}

	switch {
	case *probes:
		printProbes(newProber(*quick, outDir))
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		res, err := runOne(w, *seed, *seconds, *quick, *traced == 1, outDir)
		if err != nil {
			fatalf("%v", err)
		}
		printResult(res)
		printResultLine(res)
		if len(res.Violations) > 0 {
			os.Exit(1)
		}
	case *agree:
		a := runAll(*seed, *seconds, *quick, false)
		b := runAll(*seed, *seconds, *quick, false)
		if !printAgreement(a, b) {
			os.Exit(1)
		}
	default:
		results := runAll(*seed, *seconds, *quick, false)
		if *traced == 1 {
			for i, tr := range runAll(*seed, *seconds, *quick, true) {
				results[i].Layer = tr.Layer
				results[i].Violations = append(results[i].Violations, tr.Violations...)
			}
		}
		if *out != "" {
			data, err := json.MarshalIndent(results, "", "  ")
			if err != nil {
				fatalf("%v", err)
			}
			if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
				fatalf("%v", err)
			}
		}
		for _, r := range results {
			if len(r.Violations) > 0 {
				fatalf("%s: %d output checks failed", r.Workload, len(r.Violations))
			}
		}
	}
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// resultLine is the machine-readable last line of a workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResultLine prints every end-to-end metric of an untraced run, or
// every per-layer metric of a traced one (0 where the workload did no work
// in that layer).
func printResultLine(res *result) {
	line := resultLine{
		Correct:   len(res.Violations) == 0,
		Attempted: max(res.Attempted, 1),
		Failed:    res.Failed,
		Metrics:   map[string]metricValue{},
	}
	list, values := endToEnd, res.E2E
	if res.Layer != nil {
		list, values = perLayer, res.Layer
	}
	for _, m := range list {
		line.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(data))
}

// printResult prints every metric by name with its unit.
func printResult(res *result) {
	fmt.Printf("== %s  seed %d  %d repetitions  attempted %d  failed %d  violations %d\n",
		res.Workload, res.Seed, res.Reps, res.Attempted, res.Failed, len(res.Violations))
	for _, v := range res.Violations {
		fmt.Printf("   VIOLATION %s\n", v)
	}
	for _, name := range []string{"ops_per_wall_s", "cpu_us_per_op", "latency_p50_us", "on_time_share", "allocs_per_op", "heap_live_mb"} {
		if v := res.ByRep[name]; len(v) > 0 {
			fmt.Printf("   %s of each repetition:", name)
			for _, x := range v {
				fmt.Printf(" %.4g", x)
			}
			fmt.Println()
		}
	}
	if res.Layer == nil {
		for _, m := range endToEnd {
			note := ""
			switch m.Name {
			case "setup_s":
				note = fmt.Sprintf("  (%d set-ups)", len(res.ByRep[m.Name]))
			case "ops_per_wall_s":
				note = fmt.Sprintf("  (%d windows)", res.Windows)
			case "latency_p50_us":
				note = fmt.Sprintf("  (%d samples a repetition)", res.Samples)
			}
			fmt.Printf("   %-36s %16.4f %s%s\n", m.Name, res.E2E[m.Name], m.Unit, note)
		}
		fmt.Printf("   %-36s %16.4f %s  (per-layer: no bound)\n", "cpu_us_per_op", res.CPUPerOp, unitOf("cpu_us_per_op"))
		return
	}
	for _, m := range perLayer {
		if v, ok := res.Layer[m.Name]; ok {
			fmt.Printf("   %-36s %16.4f %s\n", m.Name, v, m.Unit)
		} else if strings.HasPrefix(m.Name, "cpu_share.") {
			fmt.Printf("   %-36s %16s\n", m.Name, "null")
		}
	}
}

// runAll runs every workload in a fresh subprocess of this binary (so that
// peak RSS, GOMAXPROCS and heap state are each workload's own), forwards
// its table and returns the parsed results.
func runAll(seed int64, seconds float64, quick, traced bool) []*result {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	var results []*result
	for i := range workloads {
		w := &workloads[i]
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
		if quick {
			args = append(args, "-quick")
		}
		if traced {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		outBytes, err := cmd.Output()
		lines := strings.Split(strings.TrimRight(string(outBytes), "\n"), "\n")
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		var line resultLine
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &line); jerr != nil {
			fatalf("%s: no result line (%v, exit: %v)", w.name, jerr, err)
		}
		res := &result{Workload: w.name, Seed: seed, Attempted: line.Attempted, Failed: line.Failed}
		values := map[string]float64{}
		for k, v := range line.Metrics {
			values[k] = v.Value
		}
		if traced {
			res.Layer = values
		} else {
			res.E2E = values
		}
		if !line.Correct {
			res.violatef("output checks failed (see the table above)")
		}
		results = append(results, res)
	}
	return results
}

// printAgreement compares two untraced passes metric by metric: PASS when
// the second is no worse than the first by more than the metric's bound,
// UNRESOLVED otherwise (the benchmark disagrees with itself, so it could
// not tell a regression of that size either).
func printAgreement(a, b []*result) bool {
	ok := true
	fmt.Printf("\n%-16s %-18s %14s %14s %8s  %s\n", "workload", "metric", "first", "second", "diff", "verdict")
	for i := range a {
		for _, m := range endToEnd {
			x, y := a[i].E2E[m.Name], b[i].E2E[m.Name]
			worse := (y - x) / math.Abs(x)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "PASS"
			if worse > m.Bound {
				verdict, ok = "UNRESOLVED", false
			}
			fmt.Printf("%-16s %-18s %14.4f %14.4f %+7.1f%%  %s (bound %.0f%%)\n",
				a[i].Workload, m.Name, x, y, 100*(y-x)/math.Abs(x), verdict, 100*m.Bound)
		}
	}
	return ok
}
