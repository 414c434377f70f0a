// Package scenario is the declarative stress-scenario engine: a Scenario
// file (YAML or JSON) describes a synthetic workload — task-generator
// groups with period/utilisation distributions, pub-sub topic fan-in/out
// shapes, timed reconfiguration churn with mode ping-pong, and failure
// injection — and Run drives it through the spec/Reconfigure machinery on
// the deterministic simulation backend at scale (tens of thousands of
// tasks, millions of jobs), validating runtime invariants as it goes. A
// scenario with a nodes section runs the same way, one application per
// node joined by internal/cluster; a single-node scenario is the one-node
// case of that one runner.
//
// It is the evaluation harness the paper's Sections 4–5 use hand-written
// task sets for, generalised: any workload the schema can express becomes
// a repeatable, seeded experiment with a machine-checkable pass/fail
// verdict (Checker) and a JSON report (Report) for CI trend tracking. The
// cmd/yasmin-stress command is the CLI wrapper; the scenarios/ directory
// at the repository root holds reference scenario files, and the README's
// "Stress & scale" section documents the schema.
//yasmin:deterministic package

package scenario
