package cluster

import (
	"errors"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/sim"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// twoNodeRig co-hosts two independent App instances on one sim engine —
// the deterministic model of a 2-node cluster. Node i owns cores
// [i*(w+1), i*(w+1)+w): its scheduler core plus its workers, so the two
// middlewares never contend for a virtual CPU.
type twoNodeRig struct {
	eng  *sim.Engine
	env  *rt.SimEnv
	apps [2]*core.App
	cl   *Cluster
}

func newTwoNodeRig(t *testing.T, workers int) *twoNodeRig {
	t.Helper()
	eng := sim.NewEngine(42)
	env, err := rt.NewSimEnv(eng, platform.Generic(2*(workers+1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &twoNodeRig{eng: eng, env: env, cl: New()}
	for i := 0; i < 2; i++ {
		base := i * (workers + 1)
		cores := make([]int, workers)
		for w := range cores {
			cores[w] = base + 1 + w
		}
		app, err := core.New(core.Config{
			Workers:       workers,
			SchedulerCore: base,
			WorkerCores:   cores,
			Priority:      core.PriorityEDF,
		}, env)
		if err != nil {
			t.Fatal(err)
		}
		r.apps[i] = app
	}
	return r
}

func (r *twoNodeRig) addNodes(t *testing.T, cfg func(i int) NodeConfig) [2]*Node {
	t.Helper()
	var nodes [2]*Node
	for i := 0; i < 2; i++ {
		c := cfg(i)
		c.App = r.apps[i]
		c.Env = r.env
		n, err := r.cl.AddNode(c)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	return nodes
}

// run drives both apps and the cluster from a single coordinator thread,
// stopping everything at the horizon. body runs right after both apps
// start.
func (r *twoNodeRig) run(t *testing.T, horizon time.Duration, body func(c rt.Ctx)) {
	t.Helper()
	if err := r.cl.Start(); err != nil {
		t.Fatal(err)
	}
	r.env.Spawn("coord", rt.UnpinnedCore, func(c rt.Ctx) {
		for _, app := range r.apps {
			if err := app.Start(c); err != nil {
				t.Errorf("Start: %v", err)
				return
			}
		}
		if body != nil {
			body(c)
		}
		c.SleepUntil(horizon)
		for _, app := range r.apps {
			app.Stop(c)
		}
		if err := r.cl.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
		for _, app := range r.apps {
			app.Cleanup(c)
		}
	})
	if err := r.eng.Run(sim.Time(horizon + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
}

func TestFrameCodecRoundTrip(t *testing.T) {
	frames := []Frame{
		{Kind: FrameData, Origin: 3, Topic: "bus", Pub: 7, Seq: 42, Epoch: 2, SentAt: 123456789, Val: -99},
		{Kind: FrameData, Origin: 0, Topic: `odd"topic\n` + "\x01", Pub: 0, Seq: 1, Epoch: 0, SentAt: 0, Val: 0},
		{Kind: FrameSyncReq, Origin: 1, Epoch: 5, SentAt: 1_000_000},
		{Kind: FrameSyncResp, Origin: 0, Epoch: 5, SentAt: 1_000_500, T1: 1_000_000, T2: 1_000_400},
	}
	var buf []byte
	for i, f := range frames {
		buf = AppendFrame(buf[:0], &f)
		got, err := ParseFrame(buf)
		if err != nil {
			t.Fatalf("frame %d: parse: %v (wire %s)", i, err, buf)
		}
		if got != f {
			t.Errorf("frame %d: roundtrip\n got %+v\nwant %+v", i, got, f)
		}
	}
	if _, err := ParseFrame([]byte(`{"k":0,"zz":1}`)); err == nil {
		t.Error("unknown key must be an error")
	}
	if _, err := ParseFrame([]byte(`{"k":0,"o":`)); err == nil {
		t.Error("truncated frame must be an error")
	}
}

// declPub declares a periodic publisher pushing 1,2,3,... onto topic cid
// until quiesce, and returns a pointer to its publish count.
func declPub(t *testing.T, app *core.App, name string, cid core.CID, period, quiesce time.Duration) (core.TID, *int64) {
	t.Helper()
	count := new(int64)
	tid, err := app.TaskDecl(core.TData{Name: name, Period: period})
	if err != nil {
		t.Fatal(err)
	}
	_, err = app.VersionDecl(tid, func(x *core.ExecCtx, _ any) error {
		if x.Now() >= quiesce {
			return nil
		}
		*count++
		return x.Publish(cid, *count)
	}, nil, core.VSelect{})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.TopicPub(tid, cid); err != nil {
		t.Fatal(err)
	}
	return tid, count
}

// declSub declares a periodic draining subscriber on topic cid and
// returns a pointer to the values it took, in order.
func declSub(t *testing.T, app *core.App, name string, cid core.CID, period time.Duration) *[]int64 {
	t.Helper()
	got := new([]int64)
	tid, err := app.TaskDecl(core.TData{Name: name, Period: period})
	if err != nil {
		t.Fatal(err)
	}
	_, err = app.VersionDecl(tid, func(x *core.ExecCtx, _ any) error {
		for {
			v, ok, err := x.Take(cid)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			*got = append(*got, v.(int64))
		}
	}, nil, core.VSelect{})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.TopicSub(tid, cid); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestTwoNodeDataPlane: a publisher on node 0, subscribers on both
// nodes, lossless transport. Local and remote subscribers must both see
// every published value, in publish order.
func TestTwoNodeDataPlane(t *testing.T) {
	r := newTwoNodeRig(t, 1)
	tops := [2]core.CID{}
	for i, app := range r.apps {
		cid, err := app.TopicDecl("bus", core.TopicOpts{Capacity: 64, Policy: core.Reject})
		if err != nil {
			t.Fatal(err)
		}
		tops[i] = cid
	}
	_, published := declPub(t, r.apps[0], "pub", tops[0], ms(5), ms(400))
	local := declSub(t, r.apps[0], "sub-local", tops[0], ms(10))
	remote := declSub(t, r.apps[1], "sub-remote", tops[1], ms(10))

	nodes := r.addNodes(t, func(i int) NodeConfig {
		return NodeConfig{IngressCore: i * 2, Shards: 2}
	})
	NewMemTransport(r.cl, MemOpts{Seed: 1})
	if err := nodes[0].Topic("bus", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Topic("bus", nil, true); err != nil {
		t.Fatal(err)
	}
	r.run(t, ms(500), nil)

	if *published == 0 {
		t.Fatal("publisher never ran")
	}
	for name, got := range map[string]*[]int64{"local": local, "remote": remote} {
		if int64(len(*got)) != *published {
			t.Errorf("%s subscriber: %d values, want %d (lossless path)", name, len(*got), *published)
		}
		for i, v := range *got {
			if v != int64(i+1) {
				t.Fatalf("%s subscriber: value %d at position %d, want %d", name, v, i, i+1)
			}
		}
	}
	sa, sb := nodes[0].Stats(), nodes[1].Stats()
	if sa.FramesSent != uint64(*published) {
		t.Errorf("node 0 sent %d frames, want %d", sa.FramesSent, *published)
	}
	if sb.FramesReceived != uint64(*published) || sb.FramesDropped != 0 {
		t.Errorf("node 1 recv/drop = %d/%d, want %d/0", sb.FramesReceived, sb.FramesDropped, *published)
	}
}

// TestDataPlaneLossReorderFIFO: with injected loss and reordering, the
// remote subscriber may see gaps but never a per-publisher order
// inversion, and every sent frame is accounted as received or dropped.
func TestDataPlaneLossReorderFIFO(t *testing.T) {
	r := newTwoNodeRig(t, 1)
	tops := [2]core.CID{}
	for i, app := range r.apps {
		cid, err := app.TopicDecl("bus", core.TopicOpts{Capacity: 64, Policy: core.Reject})
		if err != nil {
			t.Fatal(err)
		}
		tops[i] = cid
	}
	_, published := declPub(t, r.apps[0], "pub", tops[0], ms(5), ms(400))
	// Drain the publisher's local buffer too, or it fills and rejects
	// publishes locally — this test is about the remote path.
	declSub(t, r.apps[0], "sub-local", tops[0], ms(10))
	remote := declSub(t, r.apps[1], "sub-remote", tops[1], ms(10))

	nodes := r.addNodes(t, func(i int) NodeConfig {
		return NodeConfig{IngressCore: i * 2}
	})
	NewMemTransport(r.cl, MemOpts{Seed: 7, LossRate: 0.2, ReorderRate: 0.2})
	if err := nodes[0].Topic("bus", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Topic("bus", nil, true); err != nil {
		t.Fatal(err)
	}
	r.run(t, ms(500), nil)

	if *published < 50 {
		t.Fatalf("published = %d, want ~80", *published)
	}
	prev := int64(0)
	for i, v := range *remote {
		if v <= prev {
			t.Fatalf("FIFO break at position %d: %d after %d", i, v, prev)
		}
		prev = v
	}
	sa, sb := nodes[0].Stats(), nodes[1].Stats()
	if sa.FramesSent != uint64(*published) {
		t.Errorf("node 0 sent %d frames, want %d published", sa.FramesSent, *published)
	}
	if got := sb.FramesReceived + sb.FramesDropped; got != sa.FramesSent {
		t.Errorf("node 1 accounts %d frames (recv %d + drop %d), want %d sent",
			got, sb.FramesReceived, sb.FramesDropped, sa.FramesSent)
	}
	if sb.InjectedLoss == 0 {
		t.Error("loss injection never fired at rate 0.2")
	}
	if int64(len(*remote)) != int64(sb.FramesReceived) {
		t.Errorf("subscriber took %d values, node delivered %d", len(*remote), sb.FramesReceived)
	}
	if int64(len(*remote)) >= *published {
		t.Errorf("no loss observed (%d of %d) despite 0.2 loss rate", len(*remote), *published)
	}
}

func declSpin(t *testing.T, app *core.App, name string, period, wcet time.Duration) {
	t.Helper()
	tid, err := app.TaskDecl(core.TData{Name: name, Period: period})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.VersionDecl(tid, func(x *core.ExecCtx, _ any) error {
		return x.Compute(wcet)
	}, nil, core.VSelect{WCET: wcet}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterReconfigureTwoPhase: a cluster transaction infeasible on
// exactly one node must abort everywhere with a typed rejection naming
// that node; a feasible retry must commit everywhere at a common epoch.
func TestClusterReconfigureTwoPhase(t *testing.T) {
	r := newTwoNodeRig(t, 1)
	declSpin(t, r.apps[0], "base0", ms(10), ms(1))
	declSpin(t, r.apps[1], "base1", ms(10), ms(6))
	r.addNodes(t, func(i int) NodeConfig {
		return NodeConfig{IngressCore: i * 2}
	})
	NewMemTransport(r.cl, MemOpts{Seed: 1})

	addTask := func(name string, wcet time.Duration) func(tx *core.Reconfig) error {
		return func(tx *core.Reconfig) error {
			id, err := tx.AddTask(core.TData{Name: name, Period: ms(10)})
			if err != nil {
				return err
			}
			_, err = tx.AddVersion(id, func(x *core.ExecCtx, _ any) error {
				return x.Compute(wcet)
			}, nil, core.VSelect{WCET: wcet})
			return err
		}
	}

	r.run(t, ms(300), func(c rt.Ctx) {
		c.SleepUntil(ms(50))
		// Node 0 has headroom for 2ms/10ms; node 1 at 0.6 utilization
		// cannot absorb another 9ms/10ms. The whole transaction must
		// abort: node 0's prepared slot is released too.
		err := r.cl.Reconfigure(c, []NodeTx{
			{Node: 0, Fn: addTask("extra0", ms(2))},
			{Node: 1, Fn: addTask("greedy1", ms(9))},
		})
		if err == nil {
			t.Fatal("want cluster admission rejection")
		}
		var ne *NodeError
		if !errors.As(err, &ne) || ne.Node != 1 {
			t.Fatalf("err = %v, want *NodeError naming node 1", err)
		}
		if !errors.Is(err, core.ErrNotSchedulable) {
			t.Fatalf("err = %v, want ErrNotSchedulable through the node wrapper", err)
		}
		if r.cl.Epoch() != 0 {
			t.Errorf("cluster epoch = %d after abort, want 0", r.cl.Epoch())
		}
		for i, app := range r.apps {
			if app.Epoch() != 0 {
				t.Errorf("node %d app epoch = %d after abort, want 0", i, app.Epoch())
			}
		}
		if r.apps[0].TaskIDByName("extra0") >= 0 {
			t.Error("node 0's prepared task survived the cluster abort")
		}

		// Feasible everywhere: commits at a common new cluster epoch.
		err = r.cl.Reconfigure(c, []NodeTx{
			{Node: 0, Fn: addTask("extra0", ms(2))},
			{Node: 1, Fn: addTask("extra1", ms(1))},
		})
		if err != nil {
			t.Fatalf("feasible cluster reconfigure: %v", err)
		}
		if r.cl.Epoch() != 1 {
			t.Errorf("cluster epoch = %d after commit, want 1", r.cl.Epoch())
		}
		for i, app := range r.apps {
			if app.Epoch() != 1 {
				t.Errorf("node %d app epoch = %d after commit, want 1", i, app.Epoch())
			}
		}
	})

	for i, name := range []string{"extra0", "extra1"} {
		if st := r.apps[i].Recorder().Task(name); st == nil || st.Jobs == 0 {
			t.Errorf("%s never ran after cluster commit", name)
		}
	}
}

// TestClockDiscipline: node 1's simulated clock runs 3ms ahead of the
// reference; the estimator must recover the -3ms offset from two-way
// exchanges.
func TestClockDiscipline(t *testing.T) {
	r := newTwoNodeRig(t, 1)
	nodes := r.addNodes(t, func(i int) NodeConfig {
		cfg := NodeConfig{IngressCore: i * 2, SyncInterval: ms(5)}
		if i == 1 {
			cfg.ClockSkew = 3 * time.Millisecond
		}
		return cfg
	})
	NewMemTransport(r.cl, MemOpts{Seed: 1})
	r.run(t, ms(200), nil)

	ck := &nodes[1].clock
	if ck.Samples() < 10 {
		t.Fatalf("only %d sync exchanges in 200ms at 5ms interval", ck.Samples())
	}
	off := ck.Offset()
	want := -3 * time.Millisecond
	if diff := off - want; diff < -100*time.Microsecond || diff > 100*time.Microsecond {
		t.Errorf("estimated offset %v, want %v ±100µs", off, want)
	}
	if ref := &nodes[0].clock; ref.Samples() != 0 {
		t.Errorf("reference node ran %d exchanges against itself", ref.Samples())
	}
}
