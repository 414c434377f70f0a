package core

// Cluster attachment points: internal/cluster splits a topic across
// nodes by (a) installing a forwarder on the origin node's topic, called
// on the publisher's own thread after every successful local publish,
// and (b) injecting received frames into the destination node's topic
// via RemotePublish from its ingress worker. Neither direction ever
// takes App.mu on the steady-state path beyond what a local publish
// would: the forwarder rides the lock-free topicView snapshot, and
// RemotePublish uses the staging ring where one exists.

import (
	"fmt"

	"github.com/yasmin-rt/yasmin/internal/rt"
)

// SetTopicForwarder installs fn as topic c's remote-subscriber
// forwarder: every successful local Publish also calls fn(pub, v) on the
// publisher's thread, outside the App lock, after the value is in the
// local buffer — so local and remote subscribers observe the same
// per-publisher order. One forwarder per topic (the data plane fans out
// to all remote nodes itself); nil uninstalls. Declaration-time only.
func (a *App) SetTopicForwarder(c CID, fn func(pub TID, v any)) error {
	if a.Started() {
		return ErrStarted
	}
	tp, err := a.topicByID(c)
	if err != nil {
		return err
	}
	tp.fwd = fn
	tp.publishView()
	return nil
}

// MarkTopicRemote marks topic c as having remote publishers: cluster
// ingress will inject entries via RemotePublish from a non-task thread,
// so the wall-clock backend provisions the lock-free staging ring even
// when the topic has at most one local publisher. Declaration-time only;
// a no-op on the simulation backend (whose engine serialises all
// threads, keeping the locked path deterministic).
func (a *App) MarkTopicRemote(c CID) error {
	if a.Started() {
		return ErrStarted
	}
	tp, err := a.topicByID(c)
	if err != nil {
		return err
	}
	tp.remote = true
	tp.publishView()
	return nil
}

// RemotePublish appends a value arriving from another node to topic c
// under the topic's overflow policy. It is the ingress twin of
// ExecCtx.Publish: same staging fast path, same overflow semantics, but
// no endpoint check (the origin node already enforced its publisher
// discipline) and no forwarder invocation (frames must not bounce back
// into the data plane). Call it from a cluster ingress thread of the
// same environment; c is that thread's rt.Ctx.
//
//yasmin:noalloc
func (a *App) RemotePublish(c rt.Ctx, id CID, v any) error {
	if int(id) < 0 || int(id) >= int(a.ntopicsA.Load()) {
		return fmt.Errorf("core: no channel %d", id) //yasmin:alloc-ok cold error path
	}
	tp := &a.topics[id]
	vw := tp.view.Load()
	if vw == nil || vw.dead {
		return fmt.Errorf("core: channel %d was removed", id) //yasmin:alloc-ok cold error path
	}
	if vw.staging != nil {
		// Wall-clock ingress fast path: no middleware lock. Overflow
		// handling mirrors ExecCtx.Publish — the entry must queue BEHIND
		// anything still staged to preserve per-publisher frame order.
		if vw.staging.Push(v) {
			return nil
		}
		for {
			a.mu.Lock(c)
			tp.drainStaging()
			a.mu.Unlock(c)
			if vw.staging.Push(v) {
				return nil
			}
			if vw.policy == Reject {
				return fmt.Errorf("core: channel %s full (%d)", vw.name, vw.capacity) //yasmin:alloc-ok cold error path
			}
			c.Yield() //yasmin:alloc-ok contended slow path
		}
	}
	a.mu.Lock(c)
	if tp.dead { // removed between the snapshot read and the lock
		a.mu.Unlock(c)
		return fmt.Errorf("core: channel %d was removed", id) //yasmin:alloc-ok cold error path
	}
	ok := tp.publish(v)
	a.mu.Unlock(c)
	if !ok {
		return fmt.Errorf("core: channel %s full (%d)", vw.name, vw.capacity) //yasmin:alloc-ok cold error path
	}
	return nil
}
