// Package cluster distributes YASMIN across nodes: topics whose
// publishers and subscribers live on different middleware instances,
// carried by a broker-less in-memory data plane, plus a cluster-wide
// two-phase reconfiguration protocol and PTP-style clock discipline.
//
// The layering mirrors the single-node design. The data plane rides the
// lock-free publish fast path: a per-topic forwarder installed into the
// commit-built topicView encodes each successful local publish into a
// compact wire frame on the publisher's own thread (no App lock, no
// allocation in steady state) and hands it to the transport once per
// destination node. Ingress is sharded: frames hash by topic onto MPSC
// rings drained by dedicated workers that enforce epoch freshness and
// per-publisher FIFO before injecting into the local topic via
// core.RemotePublish. Loss is tolerated (gaps are legal), reordering and
// duplication are filtered — subscribers never observe a per-publisher
// order inversion.
//
// The control plane lifts the single-node admission-guarded transaction
// to the cluster: Reconfigure prepares on every involved node (running
// each node's full schedulability analysis while holding its admission
// guard), and only if all prepare steps admit does it commit everywhere
// at a single new cluster epoch; one infeasible node aborts the whole
// transaction with a typed per-node rejection. All nodes live in one
// process and MemTransport is the only data plane: on SimEnv they share
// one engine, so the protocol is exercised deterministically.
package cluster

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/lockfree"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/telemetry"
)

// ingressRing is the default per-shard receive ring capacity.
const ingressRing = 1024

// defaultShards is the default ingress shard count per node.
const defaultShards = 4

// Cluster is a set of Nodes sharing one epoch counter. Membership is
// static after Start (v1: no discovery or failure detection — the node
// set is configuration, as the task set is in the paper's model).
type Cluster struct {
	epoch atomic.Uint64
	nodes []*Node
	tr    *MemTransport // shared by every node; nil until NewMemTransport
}

// New creates an empty cluster at epoch 0.
func New() *Cluster { return &Cluster{} }

// Epoch returns the current cluster epoch (0 until the first
// cluster-wide reconfiguration commits).
func (cl *Cluster) Epoch() uint64 { return cl.epoch.Load() }

// Node returns the member with the given id.
func (cl *Cluster) Node(id int) *Node { return cl.nodes[id] }

// AddNode joins a new member; its id is its join order. Call for every
// node before any Topic wiring (routes validate destination ids against
// the final membership).
func (cl *Cluster) AddNode(cfg NodeConfig) (*Node, error) {
	if cfg.App == nil || cfg.Env == nil {
		return nil, errors.New("cluster: AddNode needs an App and an Env")
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = defaultShards
	}
	n := &Node{
		id:     len(cl.nodes),
		cl:     cl,
		app:    cfg.App,
		env:    cfg.Env,
		pipe:   cfg.Pipeline,
		cfg:    cfg,
		routes: make(map[string]*route),
		shards: make([]*shard, shards),
	}
	for i := range n.shards {
		ring, err := lockfree.NewMPSCRing[Frame](ingressRing)
		if err != nil {
			return nil, err
		}
		n.shards[i] = &shard{ring: ring, last: make(map[filterKey]uint64)}
	}
	cl.nodes = append(cl.nodes, n)
	return n, nil
}

// Start starts every node's ingress and clock-discipline threads.
func (cl *Cluster) Start() error {
	for _, n := range cl.nodes {
		if err := n.Start(); err != nil {
			return err
		}
	}
	return nil
}

// Close stops all cluster threads and closes the shared transport.
// On SimEnv, call before draining the engine: parked shard workers do
// not keep the engine alive, but the periodic sync threads would.
func (cl *Cluster) Close() error {
	for _, n := range cl.nodes {
		n.close()
	}
	if cl.tr == nil {
		return nil
	}
	return cl.tr.Close()
}

// NodeError is a typed per-node rejection from a cluster reconfiguration:
// it names the node whose admission test failed and wraps the node-local
// error, so errors.Is(err, core.ErrNotSchedulable) still answers the
// policy question while the operator learns where capacity ran out.
type NodeError struct {
	Node int
	Err  error
}

func (e *NodeError) Error() string { return fmt.Sprintf("cluster: node %d: %v", e.Node, e.Err) }

// Unwrap exposes the node-local cause for errors.Is / errors.As.
func (e *NodeError) Unwrap() error { return e.Err }

// NodeTx is one node's share of a cluster-wide reconfiguration.
type NodeTx struct {
	Node int
	Fn   func(tx *core.Reconfig) error
}

// Reconfigure runs a cluster-wide reconfiguration as a two-phase commit
// over the per-node admission-guarded transactions:
//
//	prepare: on each involved node, in order, run the transaction body
//	         and the node's full schedulability analysis while holding
//	         its admission guard (core.App.PrepareReconfigure);
//	commit:  if every node admits, advance the cluster epoch once and
//	         commit every node at that common epoch;
//	abort:   if any node rejects, roll back the already-prepared nodes
//	         (reverse order) and return a *NodeError naming the rejecting
//	         node — no node is left changed.
//
// The caller's thread is the coordinator: sim locks are owner-checked,
// so prepare and commit/abort for a node must run on the same thread —
// which a single coordinator loop guarantees by construction. Nodes are
// prepared in ascending id order regardless of the order of txs, so
// concurrent coordinators cannot deadlock on admission guards.
//
// On success the new epoch is recorded on every member node's telemetry
// pipeline (not only the nodes touched by the transaction): the cluster
// epoch sequence is global state, and replay reconciliation demands that
// every node's export agree on it.
func (cl *Cluster) Reconfigure(c rt.Ctx, txs []NodeTx) error {
	byNode := make(map[int]NodeTx, len(txs))
	order := make([]int, 0, len(txs))
	for _, tx := range txs {
		if tx.Node < 0 || tx.Node >= len(cl.nodes) {
			return fmt.Errorf("cluster: Reconfigure: no node %d", tx.Node)
		}
		if _, dup := byNode[tx.Node]; dup {
			// Two transactions on one node would self-deadlock on its
			// admission guard; merge them in the caller instead.
			return fmt.Errorf("cluster: Reconfigure: duplicate transaction for node %d", tx.Node)
		}
		byNode[tx.Node] = tx
		order = append(order, tx.Node)
	}
	sortInts(order)

	prepared := make([]*core.PreparedReconfig, 0, len(order))
	abort := func() {
		for i := len(prepared) - 1; i >= 0; i-- {
			prepared[i].Abort(c)
		}
	}
	for _, id := range order {
		p, err := cl.nodes[id].app.PrepareReconfigure(c, byNode[id].Fn)
		if err != nil {
			abort()
			return &NodeError{Node: id, Err: err}
		}
		prepared = append(prepared, p)
	}

	epoch := cl.epoch.Add(1)
	for _, p := range prepared {
		p.Commit(c)
	}
	for _, n := range cl.nodes {
		if n.pipe != nil {
			n.pipe.Publish(telemetry.Event{Kind: telemetry.KindClusterEpoch,
				CEpoch: telemetry.ClusterEpochRecord{Epoch: epoch, At: n.NowNS()}})
		}
	}
	return nil
}

// sortInts is an insertion sort — transaction lists are a handful of
// nodes, not worth pulling in sort's interface machinery.
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
