// Package core implements the YASMIN middleware: user-space real-time
// scheduling of multi-version task sets on COTS heterogeneous platforms
// (Rouxel, Altmeyer, Grelck — MIDDLEWARE 2021).
//
// The package mirrors the paper's C API (Table 1) in Go: an App is
// configured statically (Config ~ the config.h header), tasks and their
// versions are declared before Start, worker threads ("virtual CPUs") are
// pinned to cores, a dedicated scheduler thread releases jobs on the
// activation grid (the GCD of all task periods), and preemption is
// delivered by signals (rt.Thread.Interrupt) that suspend the running
// job's execution context. All structures are sized by the Config at New:
// nothing on the scheduling path allocates, following the paper's
// MISRA-style discipline.
//
// # Scheduler hot path
//
// Periodic roots wait in a min-heap keyed on (next release, task id)
// (release.go), one per release shard — one shard per worker under both
// mappings. A scheduler tick pops each heap's due heads and re-keys them in
// place, so tick cost is O(log n) per released job — independent of the
// declared task count — and the heap heads give the exact next release
// instant, so grid points before it are slept over entirely. Data-activated
// (DAG successor) jobs are released inline when their producer completes;
// seeded delay tokens and input backlogs exposed by reconfigurations go
// through a small catch-up queue drained each tick.
//
// # Extensions beyond the paper
//
// Three subsystems generalise the paper's lifecycle:
//
//   - Topics (topic.go): the Table-1 point-to-point FIFO generalised to
//     N-publisher/M-subscriber pub-sub over one shared buffer with
//     per-subscriber cursors and per-topic overflow policies. A legacy
//     channel IS a 1x1 Reject topic.
//   - Live reconfiguration (reconfig.go): transactional add/remove/retune
//     of tasks, topics and edges against a running schedule, guarded by an
//     online admission test (internal/analysis) and applied at a quiescent
//     barrier; removed tasks drain at job boundaries.
//   - Off-line dispatch (offline.go): pre-computed time-triggered tables
//     (paper Section 3.4), synthesised by internal/offline.
//
// # Locking
//
// One App lock (App.mu) guards all mutable scheduling state; it is held
// for table-bounded work only, never across job execution. Outside it live
// the deliberately lock-free paths: Publish through the atomic topicView
// snapshot and the MPSC staging ring (internal/lockfree), the atomic
// lifecycle flags (started/stopping/terminating), and the counters.
// Reconfiguration transactions serialise on App.reconfigMu and take App.mu
// only to stage and to commit. docs/ARCHITECTURE.md maps the boundary in
// detail.
package core
