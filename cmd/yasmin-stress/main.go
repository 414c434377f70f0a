// Command yasmin-stress drives a declarative stress scenario through the
// middleware on the deterministic simulation backend and validates runtime
// invariants (no lost topic entries, per-publisher FIFO,
// drain-before-retire, admission monotonicity) while it runs.
//
// A scenario file (YAML or JSON; see the scenarios/ directory and the
// "Stress & scale" section of the README for the schema) declares task
// generator groups, pub-sub topic shapes, reconfiguration churn and failure
// injection:
//
//	yasmin-stress -scenario scenarios/smoke.yaml
//	yasmin-stress -scenario scenarios/scale10k.yaml -out scale10k.json
//
// The exit status is non-zero when the checker finds violations, making the
// command usable as a CI gate. With -out, the report is written to the given
// file as one JSON document (overwriting it).
//
// With -export FILE the run streams every trace record (jobs, reconfig
// epochs, retirements, accel events) through the telemetry pipeline into a
// JSONL file (docs/TRACE.md), then immediately replays the file and re-runs
// the scenario invariants on it — proving the export is lossless. -replay
// FILE verifies a previously exported stream without running anything:
//
//	yasmin-stress -scenario scenarios/smoke.yaml -export smoke.jsonl
//	yasmin-stress -replay smoke.jsonl
//
// Cluster scenarios (a "nodes:" section) run one node per export stream:
// -export base.jsonl writes base.node0.jsonl, base.node1.jsonl, ... — one
// file per node — and reconciles them offline (frame accounting closes,
// epoch histories agree, per-publisher FIFO holds across the wire). -replay
// accepts the same comma-separated list to re-verify later:
//
//	yasmin-stress -scenario scenarios/cluster.yaml -export cl.jsonl
//	yasmin-stress -replay cl.node0.jsonl,cl.node1.jsonl,cl.node2.jsonl
//
// -fuzz N swaps the scenario file for the property-based generator
// (internal/scenario/fuzz): N seeded random-but-valid scenarios run through
// the live checker, failing ones are minimised with -shrink and written as
// YAML reproducers, and -diff additionally executes every single-node
// scenario on the wall-clock OS backend and diffs the checker-visible
// behaviour. Output is byte-deterministic for a fixed -seed (without -diff),
// so CI pins generator determinism by comparing two runs:
//
//	yasmin-stress -fuzz 50 -seed 1 -shrink
//	yasmin-stress -fuzz 20 -seed 1 -diff
//
// -corpus DIR replays every scenario file in DIR (the committed regression
// corpus lives in scenarios/corpus/) through the simulation backend and the
// live checker; with -diff each single-node file also runs differentially:
//
//	yasmin-stress -corpus scenarios/corpus
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/yasmin-rt/yasmin/internal/scenario"
	"github.com/yasmin-rt/yasmin/internal/scenario/fuzz"
	"github.com/yasmin-rt/yasmin/internal/spec"
	"github.com/yasmin-rt/yasmin/internal/telemetry"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "scenario file (.yaml/.yml/.json); required unless -replay")
		seed         = flag.Int64("seed", -1, "override the scenario seed (-1 keeps the file's)")
		duration     = flag.Duration("duration", 0, "override the scenario duration (0 keeps the file's)")
		out          = flag.String("out", "", "write the JSON report to this file")
		quiet        = flag.Bool("quiet", false, "suppress the human-readable summary")
		export       = flag.String("export", "", "stream the run's trace records into this JSONL file, then verify it by replay (cluster runs write one .node<i>.jsonl per node)")
		replay       = flag.String("replay", "", "verify previously exported JSONL streams and exit (comma-separated per-node files reconcile as one cluster run; -scenario optional, supplies accel_wait_bound)")
		fuzzN        = flag.Int("fuzz", 0, "generate and check N random scenarios (seeded from -seed) instead of running a scenario file")
		shrinkFlag   = flag.Bool("shrink", false, "with -fuzz: minimise failing scenarios to small reproducers before reporting them")
		diffFlag     = flag.Bool("diff", false, "with -fuzz/-corpus: additionally run each single-node scenario on the OS backend and diff checker-visible behaviour")
		corpus       = flag.String("corpus", "", "replay every scenario file in this directory through the live checker and exit")
	)
	flag.Parse()

	if *fuzzN > 0 {
		base := *seed
		if base < 0 {
			base = 0
		}
		os.Exit(fuzzMain(*fuzzN, base, *shrinkFlag, *diffFlag, *quiet))
	}
	if *corpus != "" {
		os.Exit(corpusMain(*corpus, *diffFlag, *quiet))
	}

	var sc *scenario.Scenario
	if *scenarioPath != "" {
		var err error
		sc, err = scenario.LoadFile(*scenarioPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yasmin-stress: %v\n", err)
			os.Exit(2)
		}
		if *seed >= 0 {
			sc.Seed = *seed
		}
		if *duration > 0 {
			sc.Duration = spec.Duration(*duration)
		}
	}

	if *replay != "" {
		var bound time.Duration
		if sc != nil {
			bound = sc.AccelWaitBound.Std()
		}
		paths := strings.Split(*replay, ",")
		if len(paths) > 1 {
			os.Exit(replayVerifyCluster(paths, bound, *quiet))
		}
		os.Exit(replayVerify(*replay, bound, *quiet))
	}
	if sc == nil {
		fmt.Fprintln(os.Stderr, "yasmin-stress: -scenario is required")
		flag.Usage()
		os.Exit(2)
	}

	var opts scenario.RunOpts
	var pipe *telemetry.Pipeline
	var nodePipes []*telemetry.Pipeline
	var nodePaths []string
	if *export != "" {
		if sc.Nodes != nil {
			// One pipeline per node: each node's trace records, frame events
			// and cluster-epoch marks land in their own stamped file.
			nodePipes = make([]*telemetry.Pipeline, sc.Nodes.Count)
			nodePaths = make([]string, sc.Nodes.Count)
			for i := range nodePipes {
				nodePaths[i] = nodeExportPath(*export, i)
				sink, err := telemetry.NewFileSink(nodePaths[i])
				if err != nil {
					fmt.Fprintf(os.Stderr, "yasmin-stress: %v\n", err)
					os.Exit(1)
				}
				if nodePipes[i], err = telemetry.New(sink, telemetry.Options{Node: i}); err != nil {
					fmt.Fprintf(os.Stderr, "yasmin-stress: %v\n", err)
					os.Exit(1)
				}
			}
			opts.NodeTelemetry = nodePipes
		} else {
			sink, err := telemetry.NewFileSink(*export)
			if err != nil {
				fmt.Fprintf(os.Stderr, "yasmin-stress: %v\n", err)
				os.Exit(1)
			}
			pipe, err = telemetry.New(sink, telemetry.Options{})
			if err != nil {
				fmt.Fprintf(os.Stderr, "yasmin-stress: %v\n", err)
				os.Exit(1)
			}
			// The sim producer can outrun the disk; block for ring space
			// rather than drop so the export is lossless by construction.
			opts.Telemetry = pipe.Blocking()
		}
	}

	rep, err := scenario.RunWith(sc, opts)
	if pipe != nil {
		if cerr := pipe.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "yasmin-stress: export: %v\n", cerr)
			os.Exit(1)
		}
	}
	for _, p := range nodePipes {
		if cerr := p.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "yasmin-stress: export: %v\n", cerr)
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "yasmin-stress: %v\n", err)
		os.Exit(1)
	}
	if !*quiet {
		printSummary(rep)
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintf(os.Stderr, "yasmin-stress: %v\n", err)
			os.Exit(1)
		}
	}
	status := 0
	if pipe != nil {
		st := pipe.Stats()
		if !*quiet {
			fmt.Printf("  export     %s: %d records in %d batches, %d dropped\n",
				*export, st.Exported, st.Batches, st.Dropped)
		}
		if rc := exportVerify(*export, rep, sc.AccelWaitBound.Std(), *quiet); rc != 0 {
			status = rc
		}
	}
	if nodePipes != nil {
		for i, p := range nodePipes {
			st := p.Stats()
			if !*quiet {
				fmt.Printf("  export     %s: %d records in %d batches, %d dropped\n",
					nodePaths[i], st.Exported, st.Batches, st.Dropped)
			}
		}
		if rc := clusterExportVerify(nodePaths, rep, *quiet); rc != 0 {
			status = rc
		}
	}
	if len(rep.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "yasmin-stress: %d invariant violations\n", len(rep.Violations))
		status = 1
	}
	os.Exit(status)
}

// fuzzMain runs a property-based campaign: n generated scenarios through
// the live checker (and, with diff, differentially against the OS backend).
// Failing scenarios are written as YAML reproducers next to the working
// directory so they can be re-run with -scenario and triaged into
// scenarios/corpus/. Campaign log lines go to stdout and are derived from
// seeds and counters only, so two invocations with the same flags produce
// byte-identical output (without -diff); 0 = clean.
func fuzzMain(n int, seed int64, shrink, diff, quiet bool) int {
	opts := fuzz.Options{
		N:      n,
		Seed:   seed,
		Shrink: shrink,
		Diff:   diff,
		Config: fuzz.Config{Cluster: true},
	}
	if !quiet {
		opts.Out = os.Stdout
	}
	res, err := fuzz.Campaign(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "yasmin-stress: %v\n", err)
		return 2
	}
	if len(res.Failures) == 0 {
		return 0
	}
	for _, f := range res.Failures {
		path := fmt.Sprintf("fuzz-fail-%d.yaml", f.Seed)
		if err := os.WriteFile(path, f.Scenario.WriteYAML(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "yasmin-stress: reproducer %s: %v\n", path, err)
		} else {
			fmt.Fprintf(os.Stderr, "yasmin-stress: seed %d failed; reproducer written to %s\n", f.Seed, path)
		}
	}
	fmt.Fprintf(os.Stderr, "yasmin-stress: fuzz: %d of %d scenarios failed\n", len(res.Failures), res.Ran)
	return 1
}

// corpusMain replays every scenario file in dir (sorted by name) through the
// simulation backend and the live checker; with diff, single-node files also
// run differentially against the OS backend. The committed corpus under
// scenarios/corpus/ holds minimised reproducers of past defects plus
// shape-covering scenarios, so a clean pass is a regression gate; 0 = clean.
func corpusMain(dir string, diff, quiet bool) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "yasmin-stress: %v\n", err)
		return 2
	}
	rc, ran := 0, 0
	for _, e := range entries {
		name := e.Name()
		switch filepath.Ext(name) {
		case ".yaml", ".yml", ".json":
		default:
			continue
		}
		path := filepath.Join(dir, name)
		sc, err := scenario.LoadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yasmin-stress: %s: %v\n", path, err)
			rc = 2
			continue
		}
		ran++
		rep, err := scenario.Run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yasmin-stress: %s: %v\n", path, err)
			rc = 2
			continue
		}
		if len(rep.Violations) > 0 {
			fmt.Fprintf(os.Stderr, "yasmin-stress: %s: %d violations; first: %s\n", path, len(rep.Violations), rep.Violations[0])
			rc = 1
			continue
		}
		status := fmt.Sprintf("ok (%d jobs, %d epochs)", rep.Jobs, rep.Epochs)
		if diff {
			dr, err := fuzz.RunDiff(sc, fuzz.DiffOpts{})
			if err == nil && !dr.Skipped && !dr.Ok() {
				// Wall-clock leg: retry once so a host load spike doesn't
				// fail the gate; deterministic mismatches reproduce.
				dr, err = fuzz.RunDiff(sc, fuzz.DiffOpts{})
			}
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "yasmin-stress: %s: diff: %v\n", path, err)
				rc = 2
			case dr.Skipped:
				status += "; diff skipped: " + dr.Reason
			case !dr.Ok():
				fmt.Fprintf(os.Stderr, "yasmin-stress: %s: %d differential mismatches; first: %s\n",
					path, len(dr.Mismatches), dr.Mismatches[0])
				rc = 1
				continue
			default:
				status += "; diff ok"
			}
		}
		if !quiet {
			fmt.Printf("corpus %s: %s\n", name, status)
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "yasmin-stress: corpus %s: no scenario files\n", dir)
		return 2
	}
	if !quiet {
		fmt.Printf("corpus: %d scenarios, %s\n", ran, map[bool]string{true: "PASS", false: "FAIL"}[rc == 0])
	}
	return rc
}

// replayVerify reloads an exported stream, re-runs the scenario invariants
// on it and reports transport losslessness; 0 = clean.
func replayVerify(path string, bound time.Duration, quiet bool) int {
	st, err := telemetry.ReplayFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "yasmin-stress: %v\n", err)
		return 2
	}
	viol := scenario.CheckStream(st, scenario.StreamCheckOpts{AccelWaitBound: bound})
	lost := st.Lost()
	if !quiet {
		fmt.Printf("replay %s\n", path)
		fmt.Printf("  stream     %d events: %d jobs, %d reconfigs, %d retires, %d accel\n",
			len(st.Events), len(st.Jobs), len(st.Reconfigs), len(st.Retires), len(st.Accels))
		if st.Summary != nil {
			fmt.Printf("  trailer    published=%d exported=%d dropped=%d batches=%d\n",
				st.Summary.Published, st.Summary.Exported, st.Summary.Dropped, st.Summary.Batches)
		}
		fmt.Printf("  lost       %d records\n", lost)
	}
	if len(viol) > 0 || lost > 0 {
		fmt.Fprintf(os.Stderr, "yasmin-stress: replay %s: %d lost records, %d violations\n", path, lost, len(viol))
		for _, v := range viol {
			fmt.Fprintf(os.Stderr, "    - %s\n", v)
		}
		return 1
	}
	if !quiet {
		fmt.Printf("  replay     PASS (0 violations, 0 lost records)\n")
	}
	return 0
}

// nodeExportPath derives node i's export file from the -export base:
// base.jsonl -> base.node<i>.jsonl.
func nodeExportPath(path string, node int) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.node%d%s", strings.TrimSuffix(path, ext), node, ext)
}

// replayVerifyCluster reloads the per-node exports of one cluster run and
// reconciles them: each stream checks individually, frame accounting closes
// across files, epoch histories agree; 0 = clean.
func replayVerifyCluster(paths []string, bound time.Duration, quiet bool) int {
	sts := make([]*telemetry.Stream, len(paths))
	var lost uint64
	for i, path := range paths {
		st, err := telemetry.ReplayFile(strings.TrimSpace(path))
		if err != nil {
			fmt.Fprintf(os.Stderr, "yasmin-stress: %v\n", err)
			return 2
		}
		sts[i] = st
		lost += st.Lost()
		if !quiet {
			fmt.Printf("replay %s (node %d)\n", strings.TrimSpace(path), st.Node())
			fmt.Printf("  stream     %d events: %d jobs, %d frames, %d cluster epochs\n",
				len(st.Events), len(st.Jobs), len(st.Frames), len(st.CEpochs))
		}
	}
	viol := scenario.CheckStreams(sts, scenario.StreamCheckOpts{AccelWaitBound: bound})
	if len(viol) > 0 || lost > 0 {
		fmt.Fprintf(os.Stderr, "yasmin-stress: replay: %d lost records, %d violations\n", lost, len(viol))
		for _, v := range viol {
			fmt.Fprintf(os.Stderr, "    - %s\n", v)
		}
		return 1
	}
	if !quiet {
		fmt.Printf("  replay     PASS (%d node streams reconciled, 0 violations, 0 lost records)\n", len(sts))
	}
	return 0
}

// clusterExportVerify reconciles the just-written per-node exports and
// cross-checks them against the live report: the streams must jointly carry
// every job the cluster ran and every node must have logged the full
// cluster-epoch history.
func clusterExportVerify(paths []string, rep *scenario.Report, quiet bool) int {
	rc := replayVerifyCluster(paths, 0, quiet)
	var jobs int64
	for _, path := range paths {
		st, err := telemetry.ReplayFile(path)
		if err != nil {
			return 2
		}
		jobs += int64(len(st.Jobs))
		if len(st.CEpochs) != rep.Epochs {
			fmt.Fprintf(os.Stderr, "yasmin-stress: export %s: node %d logged %d cluster epochs, run committed %d\n",
				path, st.Node(), len(st.CEpochs), rep.Epochs)
			rc = 1
		}
	}
	if jobs != rep.Jobs {
		fmt.Fprintf(os.Stderr, "yasmin-stress: export: streams hold %d jobs, live run recorded %d\n", jobs, rep.Jobs)
		rc = 1
	}
	return rc
}

// exportVerify replays the just-written export and additionally cross-checks
// the stream's record counts against the live run's report — the end-to-end
// proof that everything the recorder saw reached the file.
func exportVerify(path string, rep *scenario.Report, bound time.Duration, quiet bool) int {
	rc := replayVerify(path, bound, quiet)
	st, err := telemetry.ReplayFile(path)
	if err != nil {
		return 2
	}
	mismatch := func(what string, got, want int64) {
		fmt.Fprintf(os.Stderr, "yasmin-stress: export %s: stream has %d %s, live run recorded %d\n",
			path, got, what, want)
		rc = 1
	}
	if int64(len(st.Jobs)) != rep.Jobs {
		mismatch("jobs", int64(len(st.Jobs)), rep.Jobs)
	}
	if len(st.Reconfigs) != rep.Epochs {
		mismatch("reconfig epochs", int64(len(st.Reconfigs)), int64(rep.Epochs))
	}
	if len(st.Retires) != rep.Retires {
		mismatch("retirements", int64(len(st.Retires)), int64(rep.Retires))
	}
	return rc
}

func printSummary(rep *scenario.Report) {
	fmt.Printf("scenario %s (seed %d)\n", rep.Scenario, rep.Seed)
	fmt.Printf("  tasks      %d declared (%d slots provisioned), %d workers\n", rep.Tasks, rep.PeakTasks, rep.Workers)
	fmt.Printf("  simulated  %v in %v wall (%d engine steps)\n",
		time.Duration(rep.SimDurationNS), time.Duration(rep.WallNS).Round(time.Millisecond), rep.EngineSteps)
	fmt.Printf("  jobs       %d (%.0f jobs/wall-second), %d deadline misses, %d overruns\n",
		rep.Jobs, rep.JobsPerWallSec, rep.Misses, rep.Overruns)
	fmt.Printf("  data plane %d published, %d delivered\n", rep.Published, rep.Delivered)
	fmt.Printf("  reconfig   %d epochs, %d retirements, %d admission rejections\n",
		rep.Epochs, rep.Retires, rep.Rejections)
	fmt.Printf("  scheduler  %d steals (%d misses), %d migrations, %d idle wakes, %d signals (%d deduped), %d view publishes\n",
		rep.Sched.Steals, rep.Sched.StealMisses, rep.Sched.Migrations, rep.Sched.IdleWakes,
		rep.Sched.Signals, rep.Sched.SignalsDeduped, rep.Sched.ViewPublishes)
	for _, n := range rep.Nodes {
		fmt.Printf("  node %-5d %d tasks, %d jobs, %d misses; frames %d sent / %d recv / %d dropped; clock offset %v (%d syncs)\n",
			n.Node, n.Tasks, n.Jobs, n.Misses,
			n.FramesSent, n.FramesReceived, n.FramesDropped,
			time.Duration(n.ClockOffsetNS).Round(time.Microsecond), n.ClockSamples)
	}
	if rep.AccelAcquires > 0 || rep.AccelParks > 0 {
		fmt.Printf("  accel      %d acquires, %d parks, %d PIP boosts, max wait %v\n",
			rep.AccelAcquires, rep.AccelParks, rep.AccelBoosts,
			time.Duration(rep.AccelMaxWaitNS).Round(time.Microsecond))
	}
	if len(rep.Violations) == 0 {
		fmt.Printf("  checker    PASS (0 violations)\n")
	} else {
		fmt.Printf("  checker    FAIL (%d violations)\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Printf("    - %s\n", v)
		}
	}
}

// writeReport writes the report to path as one indented JSON document.
func writeReport(path string, rep *scenario.Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
