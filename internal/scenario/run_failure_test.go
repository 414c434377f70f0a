package scenario

import (
	"strings"
	"testing"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/sim"
)

// failureYAML isolates the churn failure-injection path: one add phase keeps
// admitting short-period tasks whose bodies draw from the body-side rand at
// a high error rate, so a run produces plenty of both successes and injected
// failures.
const failureYAML = `
name: failure-injection
seed: 11
duration: 200ms
workers: 2
priority: edf
groups:
  - name: base
    count: 2
    period:
      min: 10ms
      max: 20ms
    utilization: 0.02
churn:
  - at: 10ms
    every: 60ms
    action: add
    count: 4
    period:
      min: 4ms
      max: 12ms
    utilization: 0.02
failures:
  task_error_rate: 0.3
`

// TestFailureInjectionCounted proves injected errors round-trip through the
// middleware's error accounting: the run reports a substantial non-zero
// TaskErrors, and the checker (which independently counts every injection at
// the draw site) raises no mismatch violation.
func TestFailureInjectionCounted(t *testing.T) {
	sc, err := Load([]byte(failureYAML), "failure.yaml")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.TaskErrors == 0 {
		t.Fatal("30% error rate over churn jobs injected nothing")
	}
	if rep.TaskErrors >= rep.Jobs {
		t.Fatalf("every job failed (%d errors, %d jobs): injection rate is not being applied per-draw", rep.TaskErrors, rep.Jobs)
	}
}

// TestFailureInjectionDeterministic pins the body-side rand: failure draws
// come from a dedicated locked stream seeded from the scenario seed, so the
// same scenario injects the identical error count every run.
func TestFailureInjectionDeterministic(t *testing.T) {
	sc, err := Load([]byte(failureYAML), "failure.yaml")
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.TaskErrors != rep2.TaskErrors {
		t.Fatalf("same seed injected %d then %d errors", rep1.TaskErrors, rep2.TaskErrors)
	}
	if rep1.Jobs != rep2.Jobs {
		t.Fatalf("same seed ran %d then %d jobs", rep1.Jobs, rep2.Jobs)
	}

	// A different seed draws a different failure sequence; the count almost
	// surely moves too. If it doesn't, don't fail — the property under test
	// is determinism per seed, not sensitivity — but a shared stream between
	// driver and bodies would show up here first.
	reseeded := *sc
	reseeded.Seed = 12
	rep3, err := Run(&reseeded)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.Violations) != 0 {
		t.Fatalf("reseeded violations: %v", rep3.Violations)
	}
}

// TestFailureInjectionZeroRate proves a zero rate injects nothing: the body
// must not even draw (a draw would desync the body rand between otherwise
// identical scenarios), and the middleware counts zero task errors.
func TestFailureInjectionZeroRate(t *testing.T) {
	sc, err := Load([]byte(failureYAML), "failure.yaml")
	if err != nil {
		t.Fatal(err)
	}
	sc.Failures.TaskErrorRate = 0
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.TaskErrors != 0 {
		t.Fatalf("zero rate injected %d errors", rep.TaskErrors)
	}
}

// TestFailureInjectionMismatchFlagged proves the accounting verdict has
// teeth: a checker that witnessed an injection the middleware never counted
// must flag the mismatch at Finish. Built against an idle app (zero task
// errors) with one noteInjected recorded — the exact discrepancy a dropped
// error-return path in the middleware would produce.
func TestFailureInjectionMismatchFlagged(t *testing.T) {
	ck := NewChecker()
	ck.noteInjected()
	violations := ck.Finish(idleApps(t, 1)...)
	found := false
	for _, v := range violations {
		if strings.Contains(v, "middleware counted 0, checker injected 1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("seeded injection-count mismatch not flagged; got: %v", violations)
	}
}

// TestFinishAuditsEveryNode proves the verdict runs per node: a committed
// cluster transaction that the nodes' recorders never saw is flagged once
// per node, each violation naming its node.
func TestFinishAuditsEveryNode(t *testing.T) {
	ck := NewChecker()
	ck.SetContext(Context{Scenario: "nodes", Node: -1})
	ck.noteAttempt(admissionAttempt{action: "cluster", epochBefore: 0, epochAfter: 1})
	violations := ck.Finish(idleApps(t, 2)...)
	for _, node := range []string{"node=0]", "node=1]"} {
		found := false
		for _, v := range violations {
			if strings.Contains(v, "driver committed 1 transactions, recorder has 0 epochs") && strings.HasSuffix(v, node) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing commit on %s not flagged; got: %v", node, violations)
		}
	}
}

// idleApps builds n never-started applications on one simulation engine.
func idleApps(t *testing.T, n int) []*core.App {
	t.Helper()
	env, err := rt.NewSimEnv(sim.NewEngine(1), platform.Generic(2*n), nil)
	if err != nil {
		t.Fatal(err)
	}
	apps := make([]*core.App, n)
	for i := range apps {
		cfg := core.Config{Workers: 1, SchedulerCore: 2 * i, WorkerCores: []int{2*i + 1},
			MaxTasks: 4, MaxChannels: 1, MaxPendingJobs: 8}
		if apps[i], err = core.New(cfg, env); err != nil {
			t.Fatal(err)
		}
	}
	return apps
}
