package scenario

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/yasmin-rt/yasmin/internal/telemetry"
)

// clusterYAML is a compact 2-node cluster scenario without injected faults:
// the wire is perfect, so every single-node Reject invariant must hold
// end to end across it (no lossy relaxation).
const clusterYAML = `
name: cluster-test
seed: 3
duration: 300ms
workers: 2
nodes:
  count: 2
  sync_interval: 25ms
  clock_skew: [0ms, 3ms]
groups:
  - name: bg
    count: 3
    period:
      min: 20ms
      max: 60ms
    utilization: 0.05
    offset_jitter: true
topics:
  - name: link
    count: 2
    pubs: 1
    subs: 1
    capacity: 32
    policy: reject
    publish_period: 8ms
    consume_period: 8ms
    pub_nodes: [0]
    sub_nodes: [1]
churn:
  - at: 80ms
    every: 100ms
    count: 2
    action: cluster
`

func TestRunClusterLossless(t *testing.T) {
	sc, err := Load([]byte(clusterYAML), "cluster.yaml")
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
	if len(rep.Nodes) != 2 {
		t.Fatalf("expected 2 node reports, got %d", len(rep.Nodes))
	}
	if rep.Published == 0 || rep.Delivered == 0 {
		t.Fatalf("data plane silent: published=%d delivered=%d", rep.Published, rep.Delivered)
	}
	if rep.Epochs == 0 {
		t.Fatal("no cluster epochs committed")
	}
	n0, n1 := rep.Nodes[0], rep.Nodes[1]
	if n0.FramesSent == 0 {
		t.Fatal("node 0 forwarded nothing over the wire")
	}
	// A perfect wire: every frame sent arrives, nothing dropped anywhere.
	if n1.FramesReceived != n0.FramesSent {
		t.Fatalf("node 1 received %d of %d frames on a lossless wire", n1.FramesReceived, n0.FramesSent)
	}
	if n0.FramesDropped+n1.FramesDropped != 0 {
		t.Fatalf("drops on a lossless wire: %d + %d", n0.FramesDropped, n1.FramesDropped)
	}
	// PTP-style sync converged: node 1 runs 3ms skewed and must know it.
	if n1.ClockSamples == 0 {
		t.Fatal("node 1 completed no sync exchanges")
	}
	if n1.ClockOffsetNS == 0 {
		t.Fatal("node 1 estimated no clock offset despite 3ms skew")
	}
	if n0.Jobs == 0 || n1.Jobs == 0 {
		t.Fatalf("idle node: jobs %d / %d", n0.Jobs, n1.Jobs)
	}
}

// TestRunClusterCountsInjectedFailures: cluster churn admits its tasks
// with the same instrumented body as single-node churn, so injected
// failures on every node round-trip through the summed error accounting.
func TestRunClusterCountsInjectedFailures(t *testing.T) {
	sc, err := Load([]byte(clusterYAML), "cluster.yaml")
	if err != nil {
		t.Fatal(err)
	}
	sc.Failures.TaskErrorRate = 0.5
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.TaskErrors == 0 {
		t.Fatal("a 50% error rate over cluster churn jobs injected nothing")
	}
}

func TestRunClusterScenarioFile(t *testing.T) {
	sc, err := LoadFile(filepath.Join("..", "..", "scenarios", "cluster.yaml"))
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
	if len(rep.Nodes) != 3 {
		t.Fatalf("expected 3 node reports, got %d", len(rep.Nodes))
	}
	if rep.Epochs < 2 {
		t.Fatalf("expected >= 2 cluster epochs (churn at 100ms every 120ms over 400ms), got %d", rep.Epochs)
	}
	var sent, recv, injected uint64
	for _, n := range rep.Nodes {
		sent += n.FramesSent
		recv += n.FramesReceived
		injected += n.InjectedLoss
	}
	if sent == 0 || recv == 0 {
		t.Fatalf("wire silent: sent=%d received=%d", sent, recv)
	}
	if injected == 0 {
		t.Fatal("loss_rate 0.1 injected no losses — the fault path was never exercised")
	}
	// Determinism: same seed, same counters, same losses.
	rep2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Jobs != rep.Jobs || rep2.Published != rep.Published ||
		rep2.Delivered != rep.Delivered || rep2.Epochs != rep.Epochs {
		t.Fatalf("non-deterministic: %+v vs %+v", rep, rep2)
	}
	for i := range rep.Nodes {
		if rep2.Nodes[i].NodeStats != rep.Nodes[i].NodeStats {
			t.Fatalf("node %d stats non-deterministic: %+v vs %+v", i, rep.Nodes[i].NodeStats, rep2.Nodes[i].NodeStats)
		}
	}
}

// exportClusterScenario runs a cluster scenario with one file-backed
// telemetry pipeline per node and returns the replayed streams.
func exportClusterScenario(t *testing.T, yaml string) ([]*telemetry.Stream, *Report) {
	t.Helper()
	sc, err := Load([]byte(yaml), "t.yaml")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	nodes := sc.Nodes.Count
	pipes := make([]*telemetry.Pipeline, nodes)
	paths := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		paths[i] = filepath.Join(dir, "export.node"+string(rune('0'+i))+".jsonl")
		sink, err := telemetry.NewFileSink(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if pipes[i], err = telemetry.New(sink, telemetry.Options{Node: i}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := RunWith(sc, RunOpts{NodeTelemetry: pipes})
	for i, p := range pipes {
		if cerr := p.Close(); cerr != nil {
			t.Fatalf("node %d pipeline close: %v", i, cerr)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("live run not clean: %v", rep.Violations)
	}
	sts := make([]*telemetry.Stream, nodes)
	for i := range paths {
		if pipes[i].Stats().Dropped != 0 {
			t.Fatalf("node %d blocking exporter dropped %d records", i, pipes[i].Stats().Dropped)
		}
		if sts[i], err = telemetry.ReplayFile(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	return sts, rep
}

func TestCheckStreamsReconcilesClusterExports(t *testing.T) {
	sts, rep := exportClusterScenario(t, clusterYAML)
	if v := CheckStreams(sts, StreamCheckOpts{}); len(v) != 0 {
		t.Fatalf("per-node exports do not reconcile: %v", v)
	}
	// The exports carry the run: frame records match the live counters and
	// every node logged the full cluster epoch history.
	var sends, recvs int
	for _, st := range sts {
		for _, f := range st.Frames {
			switch f.Dir {
			case telemetry.FrameSend:
				sends++
			case telemetry.FrameRecv:
				recvs++
			}
		}
		if len(st.CEpochs) != rep.Epochs {
			t.Fatalf("node %d logged %d cluster epochs, run committed %d", st.Node(), len(st.CEpochs), rep.Epochs)
		}
	}
	if sends == 0 || recvs != sends {
		t.Fatalf("frame records don't close: %d sends, %d recvs on a lossless wire", sends, recvs)
	}
	// A single node's file still checks on its own (absent peers are left
	// unreconciled, not flagged).
	if v := CheckStreams(sts[:1], StreamCheckOpts{}); len(v) != 0 {
		t.Fatalf("single-file subset flagged: %v", v)
	}
}

// handStream builds a telemetry stream as an export replay would: events
// stamped with one node id, seqs 1..n, and a consistent trailer.
func handStream(node int, evs ...telemetry.Event) *telemetry.Stream {
	st := &telemetry.Stream{}
	for i := range evs {
		evs[i].Node = node
		evs[i].Seq = uint64(i + 1)
		st.Events = append(st.Events, evs[i])
		switch evs[i].Kind {
		case telemetry.KindFrame:
			st.Frames = append(st.Frames, evs[i].Frame)
		case telemetry.KindClusterEpoch:
			st.CEpochs = append(st.CEpochs, evs[i].CEpoch)
		}
	}
	st.Summary = &telemetry.Stats{Published: uint64(len(evs)), Exported: uint64(len(evs))}
	return st
}

func frameEv(dir telemetry.FrameDir, origin, dst int, fseq uint64) telemetry.Event {
	return telemetry.Event{Kind: telemetry.KindFrame, Frame: telemetry.FrameRecord{
		Dir: dir, Origin: origin, Dst: dst, Topic: "t-0", Pub: 0, FSeq: fseq, Epoch: 1,
	}}
}

func cepochEv(epoch uint64) telemetry.Event {
	return telemetry.Event{Kind: telemetry.KindClusterEpoch, CEpoch: telemetry.ClusterEpochRecord{Epoch: epoch}}
}

func expectViolation(t *testing.T, label, want string, v []string) {
	t.Helper()
	for _, s := range v {
		if strings.Contains(s, want) {
			t.Logf("%s: detected: %s", label, s)
			return
		}
	}
	t.Errorf("%s: no violation mentions %q; got %v", label, want, v)
}

// TestCheckStreamsFlagsSeededClusterViolations seeds the three cluster
// failure modes the offline reconciliation exists to catch — a frame that
// vanished between nodes, a node that ran in a stale epoch, and a transport
// that broke per-publisher FIFO — and proves CheckStreams names each one.
func TestCheckStreamsFlagsSeededClusterViolations(t *testing.T) {
	t.Run("dropped frame", func(t *testing.T) {
		// Node 0 sends seqs 1..3; node 1 receives 1 and 3 and never accounts
		// for 2 — silent loss, distinct from an honest recorded drop.
		n0 := handStream(0,
			frameEv(telemetry.FrameSend, 0, 1, 1),
			frameEv(telemetry.FrameSend, 0, 1, 2),
			frameEv(telemetry.FrameSend, 0, 1, 3),
		)
		n1 := handStream(1,
			frameEv(telemetry.FrameRecv, 0, 1, 1),
			frameEv(telemetry.FrameRecv, 0, 1, 3),
		)
		expectViolation(t, "dropped frame", "silent loss",
			CheckStreams([]*telemetry.Stream{n0, n1}, StreamCheckOpts{}))
		// The same gap with a recorded drop is clean: the transport owned up.
		n1ok := handStream(1,
			frameEv(telemetry.FrameRecv, 0, 1, 1),
			frameEv(telemetry.FrameDrop, 0, 1, 2),
			frameEv(telemetry.FrameRecv, 0, 1, 3),
		)
		if v := CheckStreams([]*telemetry.Stream{n0, n1ok}, StreamCheckOpts{}); len(v) != 0 {
			t.Fatalf("accounted drop flagged: %v", v)
		}
	})

	t.Run("stale epoch", func(t *testing.T) {
		// Node 1 missed the second commit: its epoch history is a prefix of
		// node 0's, meaning everything it did after the divergence ran stale.
		n0 := handStream(0, cepochEv(1), cepochEv(2))
		n1 := handStream(1, cepochEv(1))
		expectViolation(t, "stale epoch", "stale-epoch",
			CheckStreams([]*telemetry.Stream{n0, n1}, StreamCheckOpts{}))
	})

	t.Run("transport FIFO break", func(t *testing.T) {
		// Node 1 delivered seq 1 after seq 2 from the same publisher: the
		// ingress seq filter should have dropped the latecomer.
		n0 := handStream(0,
			frameEv(telemetry.FrameSend, 0, 1, 1),
			frameEv(telemetry.FrameSend, 0, 1, 2),
		)
		n1 := handStream(1,
			frameEv(telemetry.FrameRecv, 0, 1, 2),
			frameEv(telemetry.FrameRecv, 0, 1, 1),
		)
		expectViolation(t, "FIFO break", "transport FIFO broken",
			CheckStreams([]*telemetry.Stream{n0, n1}, StreamCheckOpts{}))
	})

	t.Run("phantom and duplicate", func(t *testing.T) {
		// A receive with no matching send, and the same frame sent twice.
		n0 := handStream(0,
			frameEv(telemetry.FrameSend, 0, 1, 1),
			frameEv(telemetry.FrameSend, 0, 1, 1),
		)
		n1 := handStream(1,
			frameEv(telemetry.FrameRecv, 0, 1, 1),
			frameEv(telemetry.FrameRecv, 0, 1, 7),
		)
		v := CheckStreams([]*telemetry.Stream{n0, n1}, StreamCheckOpts{})
		expectViolation(t, "duplicate send", "sent twice", v)
		expectViolation(t, "phantom", "phantom frame", v)
	})

	t.Run("conflicting node stamps", func(t *testing.T) {
		a := handStream(1, cepochEv(1))
		b := handStream(1, cepochEv(1))
		expectViolation(t, "duplicate node", "already supplied",
			CheckStreams([]*telemetry.Stream{a, b}, StreamCheckOpts{}))
	})
}
