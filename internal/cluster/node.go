package cluster

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/lockfree"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/telemetry"
)

// NodeConfig describes one cluster member.
type NodeConfig struct {
	// App is the node's middleware instance (topics must be declared
	// before wiring; the app must not be started yet).
	App *core.App
	// Env is the node's execution environment. On SimEnv all nodes of a
	// cluster share one engine (one virtual timeline); on OSEnv each
	// node is its own process.
	Env rt.Env
	// Pipeline, when set, receives one telemetry event per frame action
	// (send/recv/drop) and per committed cluster epoch — the per-node
	// export stream scenario.CheckStreams reconciles.
	Pipeline *telemetry.Pipeline
	// IngressCore pins the ingress shard workers and the sync thread
	// (middleware overhead belongs next to the node's scheduler, not on
	// its worker cores). Use rt.UnpinnedCore on the OS backend.
	IngressCore int
	// Shards is the number of ingress receive workers (default 4). A
	// topic's frames always land on one shard, so per-publisher frame
	// order survives sharding.
	Shards int
	// ClockSkew is the simulated offset of this node's local clock from
	// the shared engine clock (SimEnv testing of clock discipline; leave
	// zero on OSEnv, where real clocks differ on their own).
	ClockSkew time.Duration
	// SyncInterval enables the clock-discipline thread: every interval
	// the node runs one two-way exchange against RefNode. Zero disables
	// (and RefNode itself never runs one).
	SyncInterval time.Duration
	// RefNode is the clock reference node id (default 0).
	RefNode int
}

// NodeStats is a snapshot of a node's data-plane counters.
type NodeStats struct {
	// FramesSent counts data frames handed to the transport (one per
	// destination node).
	FramesSent uint64 `json:"frames_sent"`
	// FramesReceived counts data frames delivered into local topics.
	FramesReceived uint64 `json:"frames_received"`
	// FramesDropped counts data frames rejected at ingress or lost by
	// the transport, in total; the Stale*/Injected/Rejected fields break
	// it down.
	FramesDropped uint64 `json:"frames_dropped"`

	StaleSeq     uint64 `json:"stale_seq"`        // seq <= last delivered (loss/reorder/dup)
	StaleEpoch   uint64 `json:"stale_epoch"`      // frame from >= 2 epochs ago
	InjectedLoss uint64 `json:"injected_loss"`    // dropped by the transport's loss injection
	Rejected     uint64 `json:"rejected"`         // refused by the topic's overflow policy
	Unroutable   uint64 `json:"unroutable"`       // no local route for the topic
	NonInt64     uint64 `json:"non_int64"`        // local publishes not forwarded (payload type)
	Overflow     uint64 `json:"ingress_overflow"` // shard ring full

	// ClockOffsetNS is the estimated offset to the reference clock.
	ClockOffsetNS int64 `json:"clock_offset_ns"`
	// ClockSamples is the number of completed sync exchanges.
	ClockSamples int `json:"clock_samples"`
}

// route is one cross-node topic as seen from this node.
type route struct {
	name  string
	cid   core.CID
	dests []int    // remote nodes hosting subscribers (forwarding fan-out)
	seqs  []pubSeq // per-publisher frame state, indexed by local TID
}

// pubSeq is one local publisher's forwarding state. It is only ever
// touched on that publisher's thread (the forwarder runs on it), so the
// sequence counter and the encode scratch buffer need no lock.
type pubSeq struct {
	seq uint64
	buf []byte
}

// filterKey identifies one remote publisher stream at ingress.
type filterKey struct {
	origin int
	pub    int
	cid    core.CID
}

// shard is one ingress lane: an MPSC ring fed by the transport, drained
// by a dedicated worker thread. All frames of a topic hash to one shard,
// so the single-consumer worker can keep the per-publisher ordering
// filter in a plain map.
type shard struct {
	ring *lockfree.MPSCRing[Frame]
	th   rt.Thread
	last map[filterKey]uint64 // highest delivered seq per remote publisher
	buf  []byte               // sync-response encode scratch
}

// Node wires one core.App into the cluster: outbound, a forwarder on
// every cross-node topic turns successful local publishes into data
// frames; inbound, sharded ingress workers filter and inject received
// frames via core.RemotePublish. Steady-state forwarding runs on the
// publisher's own thread over the lock-free topicView — it never takes
// the app's lock.
type Node struct {
	id   int
	cl   *Cluster
	app  *core.App
	env  rt.Env
	pipe *telemetry.Pipeline
	cfg  NodeConfig

	tr     Transport
	routes map[string]*route
	shards []*shard
	clock  Clock

	closed  atomic.Bool
	started bool
	// running gates ingress. A wall-clock transport's read loop is live
	// from construction, so frames can arrive before Start has spawned the
	// shard workers; the Store in Start pairs with the Load in ingestFrame
	// to publish the shard-thread writes to the ingesting goroutine.
	running atomic.Bool

	sent, received, dropped                  atomic.Uint64
	staleSeq, staleEpoch, injected           atomic.Uint64
	rejected, unroutable, nonInt64, overflow atomic.Uint64
}

// ID returns the node id.
func (n *Node) ID() int { return n.id }

// App returns the node's middleware instance.
func (n *Node) App() *core.App { return n.app }

// Clock returns the node's clock-discipline state.
func (n *Node) Clock() *Clock { return &n.clock }

// NowNS returns the node-local clock: environment time plus the
// configured simulated skew.
func (n *Node) NowNS() int64 { return int64(n.env.Now() + n.cfg.ClockSkew) }

// SetTransport attaches the node's transport. Must happen before Start;
// NewMemTransport attaches itself to every node of the cluster.
func (n *Node) SetTransport(t Transport) { n.tr = t }

// Stats snapshots the node's data-plane counters.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		FramesSent:     n.sent.Load(),
		FramesReceived: n.received.Load(),
		FramesDropped:  n.dropped.Load(),
		StaleSeq:       n.staleSeq.Load(),
		StaleEpoch:     n.staleEpoch.Load(),
		InjectedLoss:   n.injected.Load(),
		Rejected:       n.rejected.Load(),
		Unroutable:     n.unroutable.Load(),
		NonInt64:       n.nonInt64.Load(),
		Overflow:       n.overflow.Load(),
		ClockOffsetNS:  int64(n.clock.Offset()),
		ClockSamples:   n.clock.Samples(),
	}
}

// Topic wires one cross-node topic on this node. The topic must already
// be declared on the node's app under the same name (the cluster-wide
// namespace is by name; CIDs are node-local). dests lists the remote
// nodes hosting subscribers — every successful local publish is
// forwarded to each of them. remotePubs marks that other nodes publish
// into this topic, which provisions ingress (and, on the wall-clock
// backend, the topic's lock-free staging ring). Declaration-time only.
func (n *Node) Topic(name string, dests []int, remotePubs bool) error {
	if n.started {
		return fmt.Errorf("cluster: node %d: Topic after Start", n.id)
	}
	cid := n.app.TopicID(name)
	if cid < 0 {
		return fmt.Errorf("cluster: node %d: no local topic %q", n.id, name)
	}
	for _, d := range dests {
		if d < 0 || d >= len(n.cl.nodes) || d == n.id {
			return fmt.Errorf("cluster: node %d: topic %q: bad destination node %d", n.id, name, d)
		}
	}
	r := &route{
		name:  name,
		cid:   cid,
		dests: append([]int(nil), dests...),
		seqs:  make([]pubSeq, n.app.Config().MaxTasks),
	}
	n.routes[name] = r
	if len(dests) > 0 {
		if err := n.app.SetTopicForwarder(cid, func(pub core.TID, v any) {
			n.forward(r, pub, v)
		}); err != nil {
			return err
		}
	}
	if remotePubs {
		if err := n.app.MarkTopicRemote(cid); err != nil {
			return err
		}
	}
	return nil
}

// Start spawns the ingress shard workers and (when configured) the
// clock-sync thread. Call after every Topic wiring and after the
// transport is attached, before the environment runs.
func (n *Node) Start() error {
	if n.started {
		return fmt.Errorf("cluster: node %d already started", n.id)
	}
	if n.tr == nil {
		return fmt.Errorf("cluster: node %d has no transport", n.id)
	}
	n.started = true
	for i, sh := range n.shards {
		sh := sh
		sh.th = n.env.Spawn(fmt.Sprintf("cluster%d-shard%d", n.id, i), n.cfg.IngressCore,
			func(c rt.Ctx) { n.runShard(c, sh) })
	}
	if n.cfg.SyncInterval > 0 && n.id != n.cfg.RefNode {
		n.env.Spawn(fmt.Sprintf("cluster%d-sync", n.id), n.cfg.IngressCore,
			func(c rt.Ctx) { n.runSync(c) })
	}
	n.running.Store(true)
	return nil
}

// close stops the node's threads (idempotent; Cluster.Close drives it).
func (n *Node) close() {
	if n.closed.Swap(true) {
		return
	}
	n.running.Store(false)
	for _, sh := range n.shards {
		if sh.th != nil {
			sh.th.Interrupt()
			sh.th.Unpark()
		}
	}
}

// forward is the topic forwarder: runs on the publisher's thread, after
// a successful local publish, outside the app lock. Only int64 payloads
// cross nodes (see Frame); anything else is counted and stays local.
func (n *Node) forward(r *route, pub core.TID, v any) {
	iv, ok := v.(int64)
	if !ok {
		n.nonInt64.Add(1)
		return
	}
	ps := &r.seqs[pub]
	ps.seq++
	f := Frame{
		Kind:   FrameData,
		Origin: n.id,
		Topic:  r.name,
		Pub:    int(pub),
		Seq:    ps.seq,
		Epoch:  n.cl.epoch.Load(),
		SentAt: n.NowNS(),
		Val:    iv,
	}
	ps.buf = AppendFrame(ps.buf[:0], &f)
	for _, d := range r.dests {
		n.sent.Add(1)
		n.record(telemetry.FrameSend, &f, d, f.SentAt)
		n.tr.Send(d, ps.buf)
	}
}

// Ingest decodes one frame arriving from the transport and queues it on
// the responsible ingress shard. Callable from any thread or goroutine
// (the UDP reader, the sim transport's sending thread).
func (n *Node) Ingest(pkt []byte) error {
	f, err := ParseFrame(pkt)
	if err != nil {
		return err
	}
	n.ingestFrame(f)
	return nil
}

// ingestFrame routes a decoded frame onto its shard ring.
func (n *Node) ingestFrame(f Frame) {
	if !n.running.Load() {
		// Arrived before Start finished wiring the shards (or after close):
		// account it as a drop rather than touch half-built state.
		if f.Kind == FrameData {
			n.dropped.Add(1)
			n.record(telemetry.FrameDrop, &f, n.id, n.NowNS())
		}
		return
	}
	sh := n.shards[n.shardFor(f.Topic)]
	if !sh.ring.Push(f) {
		n.overflow.Add(1)
		if f.Kind == FrameData {
			n.dropped.Add(1)
			n.record(telemetry.FrameDrop, &f, n.id, n.NowNS())
		}
		return
	}
	sh.th.Unpark()
}

// shardFor maps a topic to its ingress shard. FNV-1a rather than
// hash/maphash: the per-process random maphash seed would make shard
// placement — and hence sim thread interleaving — differ between runs,
// breaking bit-for-bit scenario reproducibility.
func (n *Node) shardFor(topic string) int {
	if len(n.shards) == 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(topic); i++ {
		h ^= uint64(topic[i])
		h *= 1099511628211
	}
	return int(h % uint64(len(n.shards)))
}

// runShard is one ingress worker: drain the ring, park when empty.
func (n *Node) runShard(c rt.Ctx, sh *shard) {
	for {
		for {
			f, ok := sh.ring.Pop()
			if !ok {
				break
			}
			n.deliver(c, sh, &f)
		}
		if n.closed.Load() {
			return
		}
		c.Park()
	}
}

// deliver applies the ingress discipline to one frame and hands data
// frames to the local topic.
//
//yasmin:noalloc
func (n *Node) deliver(c rt.Ctx, sh *shard, f *Frame) {
	switch f.Kind {
	case FrameSyncReq:
		// Reference side of the exchange: echo t1, stamp t2 (our receive
		// time) and t3 (our send time).
		now := n.NowNS()
		resp := Frame{
			Kind:   FrameSyncResp,
			Origin: n.id,
			Epoch:  n.cl.epoch.Load(),
			SentAt: now, // t3; receive-to-reply turnaround is zero-cost here
			T1:     f.SentAt,
			T2:     now,
		}
		sh.buf = AppendFrame(sh.buf[:0], &resp)
		n.tr.Send(f.Origin, sh.buf) //yasmin:alloc-ok transport egress is backend I/O
		return
	case FrameSyncResp:
		t4 := n.NowNS()
		offset := ((f.T2 - f.T1) + (f.SentAt - t4)) / 2
		n.clock.note(offset, t4)
		return
	}

	now := n.NowNS()
	// Epoch tolerance: the previous epoch's frames are still in flight
	// legitimately during a reconfiguration; anything older is stale
	// state from a configuration two commits ago and must not surface.
	if cur := n.cl.epoch.Load(); f.Epoch+1 < cur {
		n.staleEpoch.Add(1)
		n.dropped.Add(1)
		n.record(telemetry.FrameDrop, f, n.id, now)
		return
	}
	r := n.routes[f.Topic]
	if r == nil {
		n.unroutable.Add(1)
		n.dropped.Add(1)
		n.record(telemetry.FrameDrop, f, n.id, now)
		return
	}
	// Per-publisher ordering filter: deliveries are strictly monotonic
	// in the publisher's frame sequence. A lost frame's successors still
	// deliver (gaps are legal under loss); a reordered or duplicated
	// frame arriving behind a newer one is dropped here, so subscribers
	// never observe a per-publisher FIFO break.
	key := filterKey{origin: f.Origin, pub: f.Pub, cid: r.cid}
	if last, ok := sh.last[key]; ok && f.Seq <= last {
		n.staleSeq.Add(1)
		n.dropped.Add(1)
		n.record(telemetry.FrameDrop, f, n.id, now)
		return
	}
	sh.last[key] = f.Seq
	c.Charge(n.env.Costs().ChannelOp)
	if err := n.app.RemotePublish(c, r.cid, f.Val); err != nil {
		n.rejected.Add(1)
		n.dropped.Add(1)
		n.record(telemetry.FrameDrop, f, n.id, now)
		return
	}
	n.received.Add(1)
	n.record(telemetry.FrameRecv, f, n.id, now)
}

// noteInjectedLoss records a transport-level injected drop against this
// (destination) node — the sim transport is omniscient, so the loss is
// visible in the node's export instead of vanishing silently.
func (n *Node) noteInjectedLoss(f *Frame) {
	n.injected.Add(1)
	n.dropped.Add(1)
	n.record(telemetry.FrameDrop, f, n.id, n.NowNS())
}

// runSync is the clock-discipline thread: one two-way exchange per
// interval against the reference node.
func (n *Node) runSync(c rt.Ctx) {
	var buf []byte
	for {
		c.Sleep(n.cfg.SyncInterval)
		if n.closed.Load() {
			return
		}
		req := Frame{
			Kind:   FrameSyncReq,
			Origin: n.id,
			Epoch:  n.cl.epoch.Load(),
			SentAt: n.NowNS(), // t1
		}
		buf = AppendFrame(buf[:0], &req)
		n.tr.Send(n.cfg.RefNode, buf)
	}
}

// record publishes one frame telemetry event on the node's pipeline.
func (n *Node) record(dir telemetry.FrameDir, f *Frame, dst int, at int64) {
	if n.pipe == nil {
		return
	}
	n.pipe.Publish(telemetry.Event{Kind: telemetry.KindFrame, Frame: telemetry.FrameRecord{
		Dir:    dir,
		Origin: f.Origin,
		Dst:    dst,
		Topic:  f.Topic,
		Pub:    f.Pub,
		FSeq:   f.Seq,
		Epoch:  f.Epoch,
		SentAt: f.SentAt,
		At:     at,
	}})
}
