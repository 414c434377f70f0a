package core

import (
	"fmt"
	"sync/atomic"

	"github.com/yasmin-rt/yasmin/internal/lockfree"
)

// OverflowPolicy selects what a topic does when a publish finds the buffer
// full (full = the slowest subscriber's backlog reached the capacity).
type OverflowPolicy int

// Overflow policies.
const (
	// Reject fails the publish when full — the Table-1 channel semantics
	// (push-fails-when-full), and the zero value so legacy channels keep
	// their behaviour without saying so.
	Reject OverflowPolicy = iota
	// DropOldest overwrites the oldest retained entry; subscribers that had
	// not consumed it lose it. Bounded-lag streaming.
	DropOldest
	// Latest conflates: publishes never fail, and a take returns only the
	// newest entry, skipping everything older — the sensor-stream register.
	Latest
)

func (p OverflowPolicy) String() string {
	switch p {
	case Reject:
		return "reject"
	case DropOldest:
		return "drop_oldest"
	case Latest:
		return "latest"
	default:
		return fmt.Sprintf("OverflowPolicy(%d)", int(p))
	}
}

// ParsePolicy converts the spec-layer spelling of a policy.
func ParsePolicy(s string) (OverflowPolicy, error) {
	switch s {
	case "", "reject":
		return Reject, nil
	case "drop_oldest", "drop-oldest":
		return DropOldest, nil
	case "latest":
		return Latest, nil
	default:
		return 0, fmt.Errorf("core: unknown overflow policy %q", s)
	}
}

// TopicOpts configures a topic at declaration.
type TopicOpts struct {
	// Capacity is the shared buffer depth (>= 1): the maximum backlog of the
	// slowest subscriber.
	Capacity int
	// Policy selects the overflow behaviour; the zero value is Reject.
	Policy OverflowPolicy
	// Priority ranks the topic against other topics (lower = more urgent).
	// TakeAny drains a task's subscriptions in this order; analysis tools
	// may use it for channel prioritization à la Paikan et al.
	Priority int
}

// subscription is one subscriber's view of a topic: a cursor into the shared
// buffer. Fan-out is zero-copy — M subscribers share one buffered entry and
// advance their own cursors over it.
type subscription struct {
	task   TID
	cursor uint64 // absolute sequence of the next entry to take
}

// topicView is the immutable snapshot of the topic state that lock-free
// readers (the Publish fast path) need: endpoint registration, fan-out
// size for cost accounting, the staging ring, and liveness. A live
// reconfiguration swaps in a fresh snapshot under the App lock; publishers
// racing the swap observe either the old or the new consistent view.
type topicView struct {
	name     string
	pubs     []TID // immutable after publication
	nsubs    int
	staging  *lockfree.MPSCRing[any]
	policy   OverflowPolicy
	capacity int
	dead     bool
	// fwd is the remote-subscriber forwarder (internal/cluster): a
	// successful local Publish also hands the value to fwd, on the
	// publisher's own thread, without ever taking the App lock. Nil on
	// purely local topics — the common case costs one pointer test.
	fwd func(pub TID, v any)
}

func (v *topicView) isPub(t TID) bool {
	for _, p := range v.pubs {
		if p == t {
			return true
		}
	}
	return false
}

// topic is the runtime pub-sub channel: one shared ring buffer with absolute
// sequence numbers, N registered publishers, M subscriber cursors. A legacy
// channel is a topic with no registered endpoints and a single anonymous
// cursor, which collapses to the Table-1 bounded FIFO.
//
// All fields are guarded by the App lock, except staging (the wall-clock
// fan-in ring) whose producer side is intentionally lock-free, and view,
// the atomic snapshot lock-free readers go through.
type topic struct {
	id   CID
	name string
	opts TopicOpts

	buf  []any  // len == opts.Capacity; nil for capacity-0 precedence channels
	head uint64 // oldest retained absolute sequence
	tail uint64 // next absolute sequence to write

	pubs []TID
	subs []subscription
	// anon is the anonymous cursor used when no subscriber is registered
	// (legacy Pop, and Take from non-declared tasks on endpoint-less topics).
	anon uint64

	// staging is the lock-free MPSC fan-in ring for the wall-clock path:
	// publishers of a multi-publisher topic on the OS backend push here
	// without taking the App lock; any consumer-side operation drains it
	// into the shared buffer under the lock. Nil on the simulation backend
	// (determinism) and for legacy channels (byte-identical traces).
	staging *lockfree.MPSCRing[any]

	// dead marks a removed topic (its slot recycles once redeclared).
	dead bool

	// fwd is the remote-subscriber forwarder (see topicView). remote marks
	// a topic with remote publishers: cluster ingress injects entries via
	// RemotePublish from a non-task thread, so the wall-clock backend needs
	// the staging ring even with a single local publisher.
	fwd    func(pub TID, v any)
	remote bool

	// view is the lock-free reader snapshot; refreshed by publishView
	// whenever an App-lock holder changes endpoints, staging or liveness.
	view atomic.Pointer[topicView]

	dropped int64 // entries lost to DropOldest/Latest overwrites
}

// publishView refreshes the lock-free reader snapshot. Caller holds the App
// lock (or runs single-threaded at declaration time).
func (tp *topic) publishView() {
	tp.view.Store(&topicView{
		name:     tp.name,
		pubs:     append([]TID(nil), tp.pubs...),
		nsubs:    len(tp.subs),
		staging:  tp.staging,
		policy:   tp.opts.Policy,
		capacity: tp.opts.Capacity,
		dead:     tp.dead,
		fwd:      tp.fwd,
	})
}

// minCursor returns the slowest consumer position. With no subscribers the
// anonymous cursor is the consumer. Cursors ahead of the tail (a subscriber
// admitted mid-epoch that skips staged pre-epoch residue) count as tail.
func (tp *topic) minCursor() uint64 {
	min := tp.anon
	if len(tp.subs) > 0 {
		min = tp.subs[0].cursor
		for i := 1; i < len(tp.subs); i++ {
			if tp.subs[i].cursor < min {
				min = tp.subs[i].cursor
			}
		}
	}
	if min > tp.tail {
		min = tp.tail
	}
	return min
}

// gc advances head to the slowest cursor, releasing entry references.
func (tp *topic) gc() {
	min := tp.minCursor()
	for tp.head < min {
		tp.buf[tp.head%uint64(len(tp.buf))] = nil
		tp.head++
	}
}

// publish appends v under the topic's overflow policy. Caller holds the App
// lock. ok is false only under Reject when the slowest subscriber's backlog
// is at capacity.
func (tp *topic) publish(v any) (ok bool) {
	if tp.opts.Capacity == 0 {
		return true // pure precedence channel: activations only, no data
	}
	c := uint64(len(tp.buf))
	if tp.tail-tp.minCursor() >= c {
		if tp.opts.Policy == Reject {
			return false
		}
		// DropOldest / Latest: sacrifice the oldest retained entry and drag
		// the cursors that still pointed at it past the loss.
		tp.buf[tp.head%c] = nil
		tp.head++
		tp.dropped++
		if len(tp.subs) == 0 {
			if tp.anon < tp.head {
				tp.anon = tp.head
			}
		}
		for i := range tp.subs {
			if tp.subs[i].cursor < tp.head {
				tp.subs[i].cursor = tp.head
			}
		}
	}
	tp.buf[tp.tail%c] = v
	tp.tail++
	return true
}

// take removes the next entry for the given cursor. Under Latest it
// conflates: the newest entry is returned and everything older is skipped.
// Caller holds the App lock.
func (tp *topic) take(cursor *uint64) (v any, ok bool) {
	if tp.opts.Capacity == 0 {
		return nil, false
	}
	if *cursor < tp.head {
		*cursor = tp.head // entries lost to DropOldest: resume at the oldest retained
	}
	if *cursor >= tp.tail {
		return nil, false // drained — or parked ahead of staged pre-epoch residue
	}
	c := uint64(len(tp.buf))
	if tp.opts.Policy == Latest {
		v = tp.buf[(tp.tail-1)%c]
		*cursor = tp.tail
	} else {
		v = tp.buf[*cursor%c]
		*cursor++
	}
	tp.gc()
	return v, true
}

// backlog returns the number of entries the cursor has not consumed.
func (tp *topic) backlog(cursor uint64) int {
	if cursor >= tp.tail {
		return 0
	}
	if cursor < tp.head {
		cursor = tp.head
	}
	return int(tp.tail - cursor)
}

// drainStaging moves staged wall-clock publishes into the shared buffer,
// honouring the overflow policy. Under Reject it stops when the buffer is
// full — staged entries are never lost, they wait for the next drain.
// Caller holds the App lock (the single-consumer side of the MPSC ring).
func (tp *topic) drainStaging() {
	if tp.staging == nil {
		return
	}
	for {
		if tp.opts.Policy == Reject &&
			tp.tail-tp.minCursor() >= uint64(len(tp.buf)) {
			return
		}
		v, ok := tp.staging.Pop()
		if !ok {
			return
		}
		tp.publish(v)
	}
}

// subFor returns the subscription cursor for task t, or nil.
func (tp *topic) subFor(t TID) *subscription {
	for i := range tp.subs {
		if tp.subs[i].task == t {
			return &tp.subs[i]
		}
	}
	return nil
}

// isPub reports whether task t is a registered publisher.
func (tp *topic) isPub(t TID) bool {
	for _, p := range tp.pubs {
		if p == t {
			return true
		}
	}
	return false
}

// TopicDecl declares a pub-sub topic: N publishers, M subscribers, a shared
// buffer of opts.Capacity entries delivered by per-subscriber cursors (one
// buffered copy regardless of M), and an overflow policy. Topics share the
// CID space and the MaxChannels budget with Table-1 channels; a channel is
// exactly a Reject topic with a single anonymous cursor.
func (a *App) TopicDecl(name string, opts TopicOpts) (CID, error) {
	if a.started.Load() {
		return -1, ErrStarted
	}
	if name == "" {
		return -1, fmt.Errorf("core: topic needs a name")
	}
	if opts.Capacity < 1 {
		return -1, fmt.Errorf("core: topic %s: capacity must be >= 1, got %d", name, opts.Capacity)
	}
	switch opts.Policy {
	case Reject, DropOldest, Latest:
	default:
		return -1, fmt.Errorf("core: topic %s: unknown overflow policy %d", name, int(opts.Policy))
	}
	return a.declTopic(name, opts)
}

// declTopic is the shared declaration path of ChannelDecl and TopicDecl,
// recycling slots of removed topics before growing the high-water mark.
// The topic struct embeds an atomic snapshot and is reset field by field.
func (a *App) declTopic(name string, opts TopicOpts) (CID, error) {
	var id CID
	if n := len(a.freeTopicSlots); n > 0 {
		id = CID(a.freeTopicSlots[n-1])
		a.freeTopicSlots = a.freeTopicSlots[:n-1]
	} else {
		if a.ntopics == len(a.topics) {
			return -1, fmt.Errorf("%w: MaxChannels=%d", ErrTooMany, len(a.topics))
		}
		id = CID(a.ntopics)
		a.ntopics++
		a.ntopicsA.Store(int32(a.ntopics))
	}
	tp := &a.topics[id]
	// Storage survives the wipe: Init+redeclare cycles reuse the buffer and
	// the staging ring (resolveTopics drops or resizes staging as needed).
	for tp.staging != nil { // discard any entries of the previous incarnation
		if _, ok := tp.staging.Pop(); !ok {
			break
		}
	}
	tp.id = id
	tp.name = name
	tp.opts = opts
	tp.pubs = tp.pubs[:0]
	tp.subs = tp.subs[:0]
	tp.head, tp.tail, tp.anon = 0, 0, 0
	tp.dead = false
	tp.dropped = 0
	tp.fwd = nil
	tp.remote = false
	buf := tp.buf
	tp.buf = nil
	if opts.Capacity > 0 {
		if cap(buf) < opts.Capacity {
			buf = make([]any, opts.Capacity)
		} else {
			buf = buf[:opts.Capacity]
			for i := range buf {
				buf[i] = nil
			}
		}
		tp.buf = buf
	}
	tp.publishView()
	return id, nil
}

// killTopicLocked marks a topic removed, releases its storage references and
// recycles the slot. Caller holds the App lock; every registered endpoint
// task has already retired.
func (a *App) killTopicLocked(tp *topic) {
	tp.dead = true
	tp.pubs = tp.pubs[:0]
	tp.subs = tp.subs[:0]
	for tp.staging != nil {
		if _, ok := tp.staging.Pop(); !ok {
			break
		}
	}
	for i := range tp.buf {
		tp.buf[i] = nil
	}
	tp.head, tp.tail, tp.anon = 0, 0, 0
	tp.fwd = nil
	tp.remote = false
	tp.publishView()
	a.freeTopicSlots = append(a.freeTopicSlots, int(tp.id))
}

// TopicPub registers task t as a publisher on topic c — its outbound Port.
// Once a topic has registered publishers, only they may Publish on it; on
// the wall-clock backend a multi-publisher topic gets a lock-free MPSC
// fan-in ring so publishers never contend on the App lock.
func (a *App) TopicPub(t TID, c CID) error {
	if a.started.Load() {
		return ErrStarted
	}
	if _, err := a.taskByID(t); err != nil {
		return err
	}
	tp, err := a.topicByID(c)
	if err != nil {
		return err
	}
	if tp.isPub(t) {
		return fmt.Errorf("core: task %d already publishes on topic %s", t, tp.name)
	}
	tp.pubs = append(tp.pubs, t)
	a.tasks[t].pubTopics = append(a.tasks[t].pubTopics, c)
	tp.publishView()
	return nil
}

// TopicSub registers task t as a subscriber on topic c — its inbound Port.
// The subscriber gets a private cursor over the topic's shared buffer;
// entries are retained until the slowest subscriber consumed them (Reject)
// or overwritten per the overflow policy.
func (a *App) TopicSub(t TID, c CID) error {
	if a.started.Load() {
		return ErrStarted
	}
	if _, err := a.taskByID(t); err != nil {
		return err
	}
	tp, err := a.topicByID(c)
	if err != nil {
		return err
	}
	if tp.opts.Capacity == 0 {
		return fmt.Errorf("core: topic %s has no buffer (capacity 0); nothing to subscribe to", tp.name)
	}
	if tp.subFor(t) != nil {
		return fmt.Errorf("core: task %d already subscribes to topic %s", t, tp.name)
	}
	tp.subs = append(tp.subs, subscription{task: t})
	a.addSubTopicLocked(&a.tasks[t], c)
	tp.publishView()
	return nil
}

// addSubTopicLocked inserts topic c into a task's priority-ordered
// subscription list (stable: declaration order breaks ties). Caller holds
// the lock or runs at declaration time.
func (a *App) addSubTopicLocked(t *task, c CID) {
	st := append(t.subTopics, c)
	for y := len(st) - 1; y > 0 && a.topics[st[y]].opts.Priority < a.topics[st[y-1]].opts.Priority; y-- {
		st[y], st[y-1] = st[y-1], st[y]
	}
	t.subTopics = st
}

// TopicID returns the CID of the named topic or channel, or -1.
func (a *App) TopicID(name string) CID {
	for i := 0; i < a.ntopics; i++ {
		if a.topics[i].name == name && !a.topics[i].dead {
			return a.topics[i].id
		}
	}
	return -1
}

// TopicDropped returns the number of entries the topic overwrote under
// DropOldest/Latest so far (0 under Reject). Like Recorder, it is a
// post-run metric: read it after Stop for an exact count.
func (a *App) TopicDropped(c CID) int64 {
	if int(c) < 0 || int(c) >= a.ntopics {
		return 0
	}
	return a.topics[c].dropped
}

func (a *App) topicByID(c CID) (*topic, error) {
	if int(c) < 0 || int(c) >= a.ntopics {
		return nil, fmt.Errorf("core: no channel %d", c)
	}
	if a.topics[c].dead {
		return nil, fmt.Errorf("core: channel %d was removed", c)
	}
	return &a.topics[c], nil
}

// resolveTopics finishes topic setup at Start: wall-clock fan-in staging
// rings and the per-task endpoint lists that drive TakeAny and retirement
// scrubbing. Called by resolve with the declaration phase closed.
func (a *App) resolveTopics() { a.refreshTopicsLocked() }

// refreshTopicsLocked fully rebuilds staging rings, per-task endpoint lists
// and the lock-free reader snapshots — the cold-path (Start) variant.
// Reconfiguration commits use refreshTopicsAfterCommitLocked, which touches
// only the topics and tasks the transaction changed.
func (a *App) refreshTopicsLocked() {
	wallClock := a.env.Platform() == nil // OS backend: no cost model, real threads
	for i := 0; i < a.ntasks; i++ {
		a.tasks[i].subTopics = a.tasks[i].subTopics[:0]
		a.tasks[i].pubTopics = a.tasks[i].pubTopics[:0]
	}
	// Buffer contents and cursors survive Stop/Start on purpose, exactly as
	// the Table-1 channel buffers always did (multi-mode scheduling hands
	// buffered data across the mode switch); Init clears everything.
	for i := 0; i < a.ntopics; i++ {
		tp := &a.topics[i]
		if tp.dead {
			continue
		}
		// Lock-free fan-in only where it pays: real threads and more than
		// one registered publisher. The simulation backend keeps the locked
		// path so traces stay deterministic and cost-accounted.
		if wallClock && (len(tp.pubs) > 1 || tp.remote) && tp.opts.Capacity > 0 {
			if tp.staging == nil || tp.staging.Cap() < tp.opts.Capacity {
				tp.staging, _ = lockfree.NewMPSCRing[any](tp.opts.Capacity)
			}
		} else {
			tp.staging = nil
		}
		tp.publishView()
		for _, p := range tp.pubs {
			a.tasks[p].pubTopics = append(a.tasks[p].pubTopics, tp.id)
		}
		for _, s := range tp.subs {
			a.tasks[s.task].subTopics = append(a.tasks[s.task].subTopics, tp.id)
		}
	}
	// Priority-order each task's subscriptions (stable: declaration order
	// breaks ties).
	for i := 0; i < a.ntasks; i++ {
		st := a.tasks[i].subTopics
		for x := 1; x < len(st); x++ {
			for y := x; y > 0 && a.topics[st[y]].opts.Priority < a.topics[st[y-1]].opts.Priority; y-- {
				st[y], st[y-1] = st[y-1], st[y]
			}
		}
	}
}

// refreshTopicsAfterCommitLocked is the reconfiguration-commit variant of
// refreshTopicsLocked: it refreshes exactly the topics the transaction
// touched (new topics, topics with staged endpoints) and the endpoint lists
// of the tasks it registered, so the commit pause is O(changes) rather than
// O(topics + tasks). Existing staging rings are never discarded or resized:
// they may hold staged wall-clock publishes whose per-publisher FIFO order
// must survive the epoch. Caller holds the lock.
func (a *App) refreshTopicsAfterCommitLocked(tx *Reconfig) {
	wallClock := a.env.Platform() == nil
	refresh := func(c CID) {
		tp := &a.topics[c]
		if tp.dead {
			return
		}
		if wallClock && (len(tp.pubs) > 1 || tp.remote) && tp.opts.Capacity > 0 && tp.staging == nil {
			tp.staging, _ = lockfree.NewMPSCRing[any](tp.opts.Capacity)
		}
		tp.publishView()
	}
	for _, id := range tx.addedTopics {
		refresh(id)
	}
	for _, ep := range tx.pubs {
		a.tasks[ep.t].pubTopics = append(a.tasks[ep.t].pubTopics, ep.c)
		refresh(ep.c)
	}
	for _, ep := range tx.subs {
		a.addSubTopicLocked(&a.tasks[ep.t], ep.c)
		refresh(ep.c)
	}
}
