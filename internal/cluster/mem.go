//yasmin:deterministic

package cluster

import (
	"math/rand"
	"sync"
)

// MemOpts configures the in-memory transport's fault injection.
type MemOpts struct {
	// Seed drives the loss/reorder decisions; the same seed over the same
	// send sequence reproduces the same faults (senders are serialized —
	// by the sim engine on SimEnv, by the transport's own lock otherwise).
	Seed int64
	// LossRate is the probability (0..1) of silently dropping a data
	// frame. Sync frames are never dropped — clock discipline tests its
	// estimator, not loss recovery.
	LossRate float64
	// ReorderRate is the probability (0..1) of holding a data frame back
	// one delivery: the next frame to the same destination jumps ahead of
	// it (a one-slot reorder, the minimal FIFO violation).
	ReorderRate float64
}

// MemTransport is the deterministic in-memory data plane for SimEnv
// clusters (all nodes share one engine, so "the network" is a function
// call). Delivery is synchronous on the sender's thread: the frame is
// parsed and pushed onto the destination's ingress shard ring, and the
// shard worker is unparked — from the sim's point of view the datagram
// arrives in the same instant it is sent, which keeps the virtual
// timeline honest while loss and reordering are injected above the
// rings.
//
// One MemTransport instance is shared by every node (NewMemTransport
// attaches itself), so injected faults are globally ordered by the
// transport lock and reproducible from the seed.
type MemTransport struct {
	mu   sync.Mutex
	cl   *Cluster
	rng  *rand.Rand
	opt  MemOpts
	held []*Frame // per-destination one-slot holdback, indexed by node id
}

// NewMemTransport builds the shared in-memory transport and attaches it
// to every node of the cluster. Call after all AddNode calls.
func NewMemTransport(cl *Cluster, opt MemOpts) *MemTransport {
	t := &MemTransport{
		cl:   cl,
		rng:  rand.New(rand.NewSource(opt.Seed)),
		opt:  opt,
		held: make([]*Frame, len(cl.nodes)),
	}
	cl.tr = t
	for _, n := range cl.nodes {
		n.tr = t
	}
	return t
}

// Send delivers pkt to dst, applying the configured fault injection.
// The packet is parsed before returning (the caller reuses the buffer).
func (t *MemTransport) Send(dst int, pkt []byte) {
	f, err := ParseFrame(pkt)
	if err != nil {
		// Both ends of this transport are this process; a parse failure is
		// a codec bug, not a network condition.
		panic("cluster: mem transport: " + err.Error())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	node := t.cl.nodes[dst]
	if f.Kind != FrameData {
		node.ingestFrame(f)
		return
	}
	if t.opt.LossRate > 0 && t.rng.Float64() < t.opt.LossRate {
		// The sim network is omniscient: the loss is recorded against the
		// destination so the replay checker can reconcile it, instead of
		// the frame simply never existing.
		node.noteInjectedLoss(&f)
		return
	}
	if held := t.held[dst]; held != nil {
		// A frame is waiting: the current one overtakes it, then the held
		// one follows — a one-slot reorder.
		t.held[dst] = nil
		node.ingestFrame(f)
		node.ingestFrame(*held)
		return
	}
	if t.opt.ReorderRate > 0 && t.rng.Float64() < t.opt.ReorderRate {
		hf := f
		t.held[dst] = &hf
		return
	}
	node.ingestFrame(f)
}

// Close accounts any still-held frames as injected losses: a frame in
// flight at shutdown never arrives, but it must not vanish from the
// books either (the replay checker reconciles every send against a
// receive or a recorded drop).
func (t *MemTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for dst, held := range t.held {
		if held != nil {
			t.held[dst] = nil
			t.cl.nodes[dst].noteInjectedLoss(held)
		}
	}
	return nil
}
