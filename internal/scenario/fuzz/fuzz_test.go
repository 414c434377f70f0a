package fuzz

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/scenario"
)

// TestGenAlwaysValid sweeps seeds across every shape (cluster included) and
// asserts each scenario validates, YAML round-trips, and is byte-stable:
// the same seed must regenerate the identical scenario.
func TestGenAlwaysValid(t *testing.T) {
	n := int64(150)
	if testing.Short() {
		n = 40
	}
	for seed := int64(0); seed < n; seed++ {
		sc := Gen(seed, Config{Cluster: true})
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sc.Name, err)
		}
		again := Gen(seed, Config{Cluster: true})
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("seed %d: generator not deterministic", seed)
		}
		back, err := scenario.Load(sc.WriteYAML(), "gen.yaml")
		if err != nil {
			t.Fatalf("seed %d (%s): reparse: %v", seed, sc.Name, err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("seed %d (%s): YAML round trip diverged", seed, sc.Name)
		}
	}
}

// TestGenCleanRuns proves generated scenarios are violation-free on the
// healthy middleware — the generator's output must not flag the checker by
// itself, or every fuzz finding would drown in noise.
func TestGenCleanRuns(t *testing.T) {
	n := int64(60)
	if testing.Short() {
		n = 15
	}
	for seed := int64(0); seed < n; seed++ {
		sc := Gen(seed, Config{Cluster: true})
		rep, err := scenario.Run(sc)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sc.Name, err)
		}
		if len(rep.Violations) > 0 {
			t.Errorf("seed %d (%s): %s", seed, sc.Name, rep.Violations[0])
		}
	}
}

// TestFuzzerFindsStaleWaiterResortBug is the self-test the tentpole exists
// for: with the historical PR 5 defect re-enabled (boost without waiter
// re-sort), the campaign must rediscover it within a CI-sized seed budget
// and shrink it to a small reproducer; with the defect off, the same
// reproducer must run clean.
func TestFuzzerFindsStaleWaiterResortBug(t *testing.T) {
	core.TestingSetStaleWaiterResortBug(true)
	defer core.TestingSetStaleWaiterResortBug(false)

	var found *scenario.Scenario
	for seed := int64(0); seed < 60 && found == nil; seed++ {
		sc := Gen(seed, Config{Shapes: []Shape{ShapeAccelChain}})
		rep, err := scenario.Run(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range rep.Violations {
			if strings.Contains(v, "while more urgent") {
				found = sc
				break
			}
		}
	}
	if found == nil {
		t.Fatal("seeded stale-waiter-resort bug not rediscovered within 60 accel_chain seeds")
	}

	min, runs := Shrink(found, ViolationPredicate(), ShrinkOpts{})
	t.Logf("reproducer: %d tasks, %d churn phases, %d groups (%d shrink runs)",
		min.TaskCount(), len(min.Churn), len(min.Groups), runs)
	if min.TaskCount() > 10 {
		t.Errorf("reproducer has %d tasks, want <= 10", min.TaskCount())
	}
	if len(min.Churn) > 3 {
		t.Errorf("reproducer has %d churn phases, want <= 3", len(min.Churn))
	}

	// The reproducer must still fail with the bug on...
	rep, err := scenario.Run(min)
	if err != nil {
		t.Fatalf("reproducer run: %v", err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("shrunk reproducer no longer fails with the bug enabled")
	}
	// ...and run clean with the fix restored.
	core.TestingSetStaleWaiterResortBug(false)
	rep, err = scenario.Run(min)
	if err != nil {
		t.Fatalf("reproducer run (fixed): %v", err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("reproducer still fails with the fix: %s", rep.Violations[0])
	}
}

// TestCorpusReproducerStillReproduces loads the committed minimised
// reproducer from scenarios/corpus/ and proves it still distinguishes the
// historical buggy arbiter from the fixed one: clean on a healthy build,
// flagged with the defect re-enabled. If a refactor makes the reproducer
// silently stop reproducing, the corpus would guard nothing — this test is
// the guard on the guard.
func TestCorpusReproducerStillReproduces(t *testing.T) {
	sc, err := scenario.LoadFile("../../../scenarios/corpus/stale-waiter-resort.yaml")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("committed reproducer fails on a healthy build: %s", rep.Violations[0])
	}

	core.TestingSetStaleWaiterResortBug(true)
	defer core.TestingSetStaleWaiterResortBug(false)
	rep, err = scenario.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "while more urgent") {
			found = true
		}
	}
	if !found {
		t.Fatalf("committed reproducer no longer reproduces the stale-waiter-resort defect; violations: %v", rep.Violations)
	}
}

// TestShrinkStopsAtBudget bounds the shrinker's work.
func TestShrinkStopsAtBudget(t *testing.T) {
	core.TestingSetStaleWaiterResortBug(true)
	defer core.TestingSetStaleWaiterResortBug(false)
	sc := Gen(0, Config{Shapes: []Shape{ShapeAccelChain}})
	if !ViolationPredicate()(sc) {
		t.Skip("seed 0 does not fail under the seeded bug on this build")
	}
	// A full shrink of this scenario takes ≈30 runs, so the budget stops
	// it early.
	const budget = 10
	_, runs := Shrink(sc, ViolationPredicate(), ShrinkOpts{MaxRuns: budget})
	if runs > budget {
		t.Fatalf("shrink spent %d runs, budget %d", runs, budget)
	}
}

// TestCampaignDeterministic runs the same campaign twice and requires
// byte-identical logs — the property CI pins with two yasmin-stress -fuzz
// invocations.
func TestCampaignDeterministic(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		res, err := Campaign(Options{N: 8, Seed: 42, Out: &buf})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ran != 8 {
			t.Fatalf("ran %d, want 8", res.Ran)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("campaign output not deterministic:\n--- first\n%s--- second\n%s", a, b)
	}
	if len(a) == 0 || !strings.Contains(a, "campaign: 8 run") {
		t.Fatalf("unexpected campaign output:\n%s", a)
	}
}

// TestRunDiffAgrees runs the differential leg on a handful of generated
// single-node scenarios; Sim and OS must agree within the tolerance model.
func TestRunDiffAgrees(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock differential runs")
	}
	checked := 0
	for seed := int64(0); seed < 12 && checked < 4; seed++ {
		sc := Gen(seed, Config{})
		dr, err := RunDiff(sc, DiffOpts{})
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sc.Name, err)
		}
		if dr.Skipped {
			continue
		}
		checked++
		if !dr.Ok() {
			// Wall-clock leg: retry once so a host load spike (which pushes
			// timing-derived counters past tolerance without real divergence)
			// doesn't flake the suite; deterministic mismatches reproduce.
			dr2, err := RunDiff(sc, DiffOpts{})
			if err != nil {
				t.Fatalf("seed %d (%s): retry: %v", seed, sc.Name, err)
			}
			if dr2.Ok() {
				t.Logf("seed %d (%s): transient mismatch cleared on retry: %v", seed, sc.Name, dr.Mismatches)
				continue
			}
			t.Errorf("seed %d (%s): %v", seed, sc.Name, dr2.Mismatches)
		}
	}
	if checked == 0 {
		t.Fatal("no scenario reached the differential leg")
	}
}

// TestRunDiffSkipsCluster pins the cluster skip path.
func TestRunDiffSkipsCluster(t *testing.T) {
	sc := Gen(4, Config{Shapes: []Shape{ShapeCluster}})
	dr, err := RunDiff(sc, DiffOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !dr.Skipped {
		t.Fatal("cluster scenario was not skipped")
	}
}

// FuzzScenario is the native fuzz target: any int64 must map to a valid,
// runnable, round-trippable, violation-free scenario. `go test -fuzz
// FuzzScenario` explores seeds beyond the deterministic sweeps above.
func FuzzScenario(f *testing.F) {
	for _, s := range []int64{0, 1, 42, 106, 1 << 52, -9} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sc := Gen(seed, Config{Cluster: true, MaxDuration: 80 * time.Millisecond})
		if err := sc.Validate(); err != nil {
			t.Fatalf("invalid scenario: %v", err)
		}
		back, err := scenario.Load(sc.WriteYAML(), "fuzz.yaml")
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatal("YAML round trip diverged")
		}
		rep, err := scenario.Run(sc)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if len(rep.Violations) > 0 {
			t.Fatalf("checker violation: %s", rep.Violations[0])
		}
	})
}
