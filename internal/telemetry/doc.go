// Package telemetry is the streaming export pipeline for trace records: an
// allocation-free MPSC ring buffer on the record path, a batching writer
// goroutine with size/age flush triggers, bounded-queue backpressure with
// explicit overflow accounting, and pluggable sinks (JSONL file, in-memory,
// discard).
//
// The shape is producer → ring → batcher → sink:
//
//   - Producers (scheduler workers, the reconfiguration commit path, the
//     accelerator arbiter) call Pipeline.Publish, which stamps a global
//     sequence number and pushes the event into a lock-free ring. The call
//     never blocks, never allocates, and never takes a mutex; when the ring
//     is full the event is dropped and counted — overflow is explicit
//     accounting, not silence.
//   - One writer goroutine drains the ring into a reused batch and hands it
//     to the Sink when the batch is full or the oldest buffered event
//     exceeds the flush age. Batching amortises encoding buffers and write
//     syscalls; BatchSize 1 degenerates to one write per record. The
//     benchmark's telemetry.sink_ns_per_rec probe times the batched path.
//   - Sequence numbers make loss visible end to end: a dropped event
//     consumes its number, so a replay of the exported stream can prove
//     exactly how many records were lost (gaps) and that none were silently
//     reordered. Replay reloads a JSONL export; internal/scenario's
//     CheckStream re-runs the scenario invariants on it.
//
// trace.Recorder forwards records here through its streaming hook
// (Recorder.SetStream) before taking its own mutex, so export costs the hot
// path one ring push.
package telemetry
