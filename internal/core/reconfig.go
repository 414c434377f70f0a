// Live, transactional reconfiguration — the runtime counterpart of the
// paper's multi-mode scheduling. Instead of the stop-the-world cycle
// (Stop, re-declare, Start) that pauses every task and discards in-flight
// topic state, App.Reconfigure batches add/remove/retune operations in a
// transaction, validates the batch, runs an online admission test (the
// internal/analysis schedulability tests keyed on Config.Mapping and
// Config.Priority) and applies the admitted plan at a quiescent point:
// the task tables are rewritten under the App lock between job boundaries,
// removed tasks drain (their in-flight jobs finish — nothing is killed
// mid-job) and unaffected tasks never stop.
package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/yasmin-rt/yasmin/internal/analysis"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/taskset"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// ErrNotSchedulable is the sentinel every admission rejection matches
// (errors.Is). The concrete error is a *NotSchedulableError carrying the
// offending task.
var ErrNotSchedulable = errors.New("core: transaction not schedulable")

// NotSchedulableError rejects a reconfiguration transaction whose target
// configuration fails the online admission test. Task names the task the
// failing test pins the violation on, Test the criterion that failed.
type NotSchedulableError struct {
	Task   string
	Test   string
	Detail string
}

func (e *NotSchedulableError) Error() string {
	return fmt.Sprintf("core: transaction not schedulable: task %s fails %s (%s)",
		e.Task, e.Test, e.Detail)
}

// Is matches the ErrNotSchedulable sentinel.
func (e *NotSchedulableError) Is(target error) bool { return target == ErrNotSchedulable }

// ModePreset is a named reconfiguration recipe installed with InstallMode
// and driven by SwitchMode: Build stages the task-set changes onto the
// transaction and Mode is the execution-mode word (SelectMode) installed at
// commit.
type ModePreset struct {
	Mode  uint32
	Build func(tx *Reconfig) error
}

// reconfigEndpoint stages a publisher/subscriber registration.
type reconfigEndpoint struct {
	t TID
	c CID
}

// stagedEdge stages a channel connection (or identifies one to sever).
type stagedEdge struct {
	src, dst TID
	ch       CID
	delay    int
}

// mergedTask is the validation/admission view of one task of the target
// configuration (post-drain steady state). accels carries the task's worst
// critical section per accelerator pool for the blocking-aware admission
// test.
type mergedTask struct {
	id     TID
	d      TData
	wcet   time.Duration
	nver   int
	staged bool
	accels []taskset.AccelUse
}

// Reconfig is a live-reconfiguration transaction. All operations stage
// changes; nothing is visible to the scheduler until Reconfigure validates
// the batch, admits it, and commits — or rolls every staged slot back.
// A Reconfig is only valid inside its Reconfigure callback.
type Reconfig struct {
	a *App
	c rt.Ctx

	addedTasks  []TID
	addedTopics []CID
	stagedEdges []stagedEdge
	disconnects []stagedEdge
	// removeTasks/removeTopics/retunes are lookup sets; the *Order slices
	// keep staging order so commits iterate deterministically (map order
	// would randomise slot recycling and the trace).
	removeTasks      map[TID]bool
	removeOrder      []TID
	removeTopics     map[CID]bool
	removeTopicOrder []CID
	retunes          map[TID]TData
	retuneOrder      []TID
	pubs, subs       []reconfigEndpoint
	mode             *uint32

	// merged model built by validate, reused by admit.
	merged []mergedTask
	preds  [][]int // indices into merged
}

// Reconfigure runs one transactional reconfiguration: fn stages the changes,
// the batch is validated as a whole, the target configuration passes the
// online admission test, and only then is the plan applied — at a quiescent
// point, under the App lock, between job boundaries. On any error nothing
// changes: staged slots are rolled back and the running application
// continues untouched. Admission rejections are typed *NotSchedulableError
// values matching ErrNotSchedulable and naming the offending task.
//
// Removed tasks drain: they release no new jobs but their in-flight jobs run
// to completion, after which their slots (and any topics removed with them)
// are reclaimed. Unaffected tasks keep running throughout — their released
// jobs, topic buffers and subscription cursors survive the epoch.
//
// Reconfigure also works on a stopped App (the changes simply wait for
// Start), but not under MappingOffline, whose dispatch table is inherently
// static. Transactions serialise against each other; callers may invoke it
// from any environment thread or from task code via ExecCtx.Reconfigure.
func (a *App) Reconfigure(c rt.Ctx, fn func(tx *Reconfig) error) error {
	p, err := a.PrepareReconfigure(c, fn)
	if err != nil {
		return err
	}
	p.Commit(c)
	return nil
}

// PreparedReconfig is a staged, validated and admitted — but not yet
// applied — reconfiguration transaction: the outcome of phase one of a
// two-phase (cluster-wide) reconfiguration. While prepared it holds the
// app's reconfiguration lock, so the admitted headroom cannot be claimed
// by a competing transaction; exactly one of Commit or Abort must follow,
// from the same environment thread that prepared (lock ownership).
type PreparedReconfig struct {
	a    *App
	tx   *Reconfig
	done bool
}

// PrepareReconfigure runs phase one of a reconfiguration: fn stages the
// changes, the batch is validated as a whole, and the target
// configuration passes the online admission test — but nothing is
// applied. On success the returned transaction holds the staged slots
// and the reconfiguration lock until Commit or Abort. On any error
// nothing changes: staged slots are rolled back, the lock is released,
// and the running application continues untouched. Admission rejections
// are typed *NotSchedulableError values matching ErrNotSchedulable.
func (a *App) PrepareReconfigure(c rt.Ctx, fn func(tx *Reconfig) error) (*PreparedReconfig, error) {
	if a.cfg.Mapping == MappingOffline {
		return nil, fmt.Errorf("core: live reconfiguration requires an online mapping (the offline dispatch table is static)")
	}
	a.reconfigMu.Lock(c)
	tx := &Reconfig{
		a:            a,
		c:            c,
		removeTasks:  make(map[TID]bool),
		removeTopics: make(map[CID]bool),
		retunes:      make(map[TID]TData),
	}
	// Roll back on every failed exit — including a panic inside fn — so
	// staged slots never leak from an abandoned transaction.
	prepared := false
	defer func() {
		if !prepared {
			tx.rollback()
			a.reconfigMu.Unlock(c)
		}
	}()
	if err := fn(tx); err != nil {
		return nil, err
	}
	if err := tx.validate(); err != nil {
		return nil, err
	}
	if err := tx.admit(); err != nil {
		return nil, err
	}
	prepared = true
	return &PreparedReconfig{a: a, tx: tx}, nil
}

// Commit applies the prepared transaction — at a quiescent point, under
// the App lock, between job boundaries — and releases the
// reconfiguration lock. Safe to call at most once; a second call (or one
// after Abort) is a no-op.
func (p *PreparedReconfig) Commit(c rt.Ctx) {
	if p.done {
		return
	}
	p.done = true
	p.tx.commit()
	p.a.reconfigMu.Unlock(c)
}

// Abort rolls the prepared transaction back — staged slots are released,
// nothing the application runs changes — and releases the
// reconfiguration lock. Safe to call at most once; a second call (or one
// after Commit) is a no-op.
func (p *PreparedReconfig) Abort(c rt.Ctx) {
	if p.done {
		return
	}
	p.done = true
	p.tx.rollback()
	p.a.reconfigMu.Unlock(c)
}

// InstallMode registers a named mode preset; SwitchMode(name) later runs it
// as a transaction. Install modes at declaration time (the spec layer does
// this for AppSpec.Modes).
func (a *App) InstallMode(name string, p ModePreset) error {
	if name == "" {
		return fmt.Errorf("core: mode preset needs a name")
	}
	if a.modes == nil {
		a.modes = make(map[string]ModePreset)
	}
	a.modes[name] = p
	return nil
}

// ModeNames returns the installed mode preset names, sorted (errors that
// embed the list must stay deterministic for byte-identical sim reports).
func (a *App) ModeNames() []string {
	names := make([]string, 0, len(a.modes))
	for n := range a.modes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SwitchMode runs the named mode preset as a reconfiguration transaction:
// its Build callback stages the task-set changes and its Mode word is
// installed for SelectMode version selection. The same admission guard and
// quiescent application as Reconfigure apply; on rejection the current mode
// keeps running unchanged.
func (a *App) SwitchMode(c rt.Ctx, name string) error {
	p, ok := a.modes[name]
	if !ok {
		return fmt.Errorf("core: no mode preset %q (installed: %v)", name, a.ModeNames())
	}
	err := a.Reconfigure(c, func(tx *Reconfig) error {
		if p.Build != nil {
			if err := p.Build(tx); err != nil {
				return err
			}
		}
		tx.SetMode(p.Mode)
		return nil
	})
	if err == nil {
		n := name
		a.modeName.Store(&n)
	}
	return err
}

// --- transaction operations -------------------------------------------------

// isStagedTask reports whether t is a slot this transaction staged (see
// App.byName for why the slot state alone says so). The state is read under
// the home shard lock, where every lifecycle write happens, so AddVersion
// and UseAccel need not take App.mu for it.
func (tx *Reconfig) isStagedTask(t TID) bool {
	a := tx.a
	if int(t) < 0 || int(t) >= a.ntasks {
		return false
	}
	tk := &a.tasks[t]
	sh := a.shards[tk.shard.Load()]
	sh.mu.Lock()
	staged := tk.state == taskStaged
	sh.mu.Unlock()
	return staged
}

func (tx *Reconfig) isStagedTopic(c CID) bool {
	for _, id := range tx.addedTopics {
		if id == c {
			return true
		}
	}
	return false
}

// liveTask returns an alive (running/admitted, not removed-by-this-tx) task.
// Caller holds a.mu.
func (tx *Reconfig) liveTask(t TID) (*task, error) {
	tk, err := tx.a.taskByID(t)
	if err != nil {
		return nil, err
	}
	if tk.state == taskDraining {
		return nil, fmt.Errorf("core: task %s is draining", tk.d.Name)
	}
	if tx.removeTasks[t] {
		return nil, fmt.Errorf("core: task %s is removed by this transaction", tk.d.Name)
	}
	return tk, nil
}

// refTask returns a task usable as a reference in this transaction: alive or
// staged by it. Caller holds a.mu.
func (tx *Reconfig) refTask(t TID) (*task, error) {
	if tx.isStagedTask(t) {
		return &tx.a.tasks[t], nil
	}
	return tx.liveTask(t)
}

// refTopic returns a topic usable as a reference: alive (not removed by this
// tx) or staged by it. Caller holds a.mu.
func (tx *Reconfig) refTopic(c CID) (*topic, error) {
	if tx.isStagedTopic(c) {
		return &tx.a.topics[c], nil
	}
	tp, err := tx.a.topicByID(c)
	if err != nil {
		return nil, err
	}
	if tx.removeTopics[c] {
		return nil, fmt.Errorf("core: topic %s is removed by this transaction", tp.name)
	}
	return tp, nil
}

// AddTask stages a new task. The returned TID is final on commit; stage at
// least one version with AddVersion before the transaction ends.
func (tx *Reconfig) AddTask(d TData) (TID, error) {
	if err := validateTData(d); err != nil {
		return -1, err
	}
	a := tx.a
	a.mu.Lock(tx.c)
	defer a.mu.Unlock(tx.c)
	if id := a.taskIDByName(d.Name); id >= 0 {
		st := a.tasks[id].state
		if (st == taskRunning || st == taskAdmitted) && !tx.removeTasks[id] {
			return -1, fmt.Errorf("core: task %q already declared", d.Name)
		}
	}
	if a.stagedTaskByName(d.Name) >= 0 {
		return -1, fmt.Errorf("core: task %q staged twice", d.Name)
	}
	t, id, err := a.allocTaskSlot()
	if err != nil {
		return -1, err
	}
	t.d = d
	a.setTaskStateLocked(t, taskStaged)
	a.indexTaskName(t)
	tx.addedTasks = append(tx.addedTasks, id)
	return id, nil
}

// AddVersion stages an implementation for a task added in this transaction
// (versions of running tasks are immutable: retire and re-admit instead).
func (tx *Reconfig) AddVersion(t TID, fn TaskFunc, args any, props VSelect) (VID, error) {
	if !tx.isStagedTask(t) {
		return -1, fmt.Errorf("core: AddVersion targets a task not added by this transaction")
	}
	tk := &tx.a.tasks[t]
	if fn == nil {
		return -1, fmt.Errorf("core: task %s: nil version function", tk.d.Name)
	}
	if len(tk.versions) == cap(tk.versions) {
		return -1, fmt.Errorf("%w: MaxVersionsPerTask=%d", ErrTooMany, cap(tk.versions))
	}
	id := VID(len(tk.versions))
	tk.versions = append(tk.versions, version{id: id, fn: fn, args: args, props: props, accel: NoAccel})
	return id, nil
}

// UseAccel stages an accelerator binding for a staged task's version.
// Accelerators themselves are hardware and not reconfigurable.
func (tx *Reconfig) UseAccel(t TID, v VID, h HID) error {
	if !tx.isStagedTask(t) {
		return fmt.Errorf("core: UseAccel targets a task not added by this transaction")
	}
	tk := &tx.a.tasks[t]
	if int(v) < 0 || int(v) >= len(tk.versions) {
		return fmt.Errorf("core: task %s has no version %d", tk.d.Name, v)
	}
	if int(h) < 0 || int(h) >= tx.a.naccels {
		return fmt.Errorf("core: no accelerator %d", h)
	}
	// Normalised to the pool head, matching HwAccelUse.
	tk.versions[v].accel = tx.a.poolHead(h)
	return nil
}

// AddTopic stages a new pub-sub topic; it becomes addressable at commit.
func (tx *Reconfig) AddTopic(name string, opts TopicOpts) (CID, error) {
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
	return tx.stageTopic(name, opts)
}

// AddChannel stages a new FIFO channel (capacity 0 declares a pure
// precedence channel), the Table-1 degenerate topic.
func (tx *Reconfig) AddChannel(name string, capacity int) (CID, error) {
	if capacity < 0 {
		return -1, fmt.Errorf("core: channel %s: negative capacity", name)
	}
	return tx.stageTopic(name, TopicOpts{Capacity: capacity, Policy: Reject})
}

func (tx *Reconfig) stageTopic(name string, opts TopicOpts) (CID, error) {
	a := tx.a
	a.mu.Lock(tx.c)
	defer a.mu.Unlock(tx.c)
	if id := a.TopicID(name); id >= 0 && !tx.removeTopics[id] {
		return -1, fmt.Errorf("core: topic %q already declared", name)
	}
	id, err := a.declTopic(name, opts)
	if err != nil {
		return -1, err
	}
	// Staged topics stay invisible (dead) until commit flips them live.
	a.topics[id].dead = true
	a.topics[id].publishView()
	tx.addedTopics = append(tx.addedTopics, id)
	return id, nil
}

// RemoveTask stages the retirement of a running task: at commit it stops
// releasing jobs and drains — in-flight jobs finish, then the slot (and its
// topic cursors) are reclaimed.
func (tx *Reconfig) RemoveTask(t TID) error {
	a := tx.a
	a.mu.Lock(tx.c)
	defer a.mu.Unlock(tx.c)
	if tx.isStagedTask(t) {
		return fmt.Errorf("core: cannot remove a task staged by the same transaction")
	}
	tk, err := tx.liveTask(t)
	if err != nil {
		return err
	}
	if _, retuned := tx.retunes[t]; retuned {
		return fmt.Errorf("core: task %s both retuned and removed", tk.d.Name)
	}
	if !tx.removeTasks[t] {
		tx.removeTasks[t] = true
		tx.removeOrder = append(tx.removeOrder, t)
	}
	return nil
}

// RemoveTaskByName is RemoveTask resolving the live task by name.
func (tx *Reconfig) RemoveTaskByName(name string) error {
	a := tx.a
	a.mu.Lock(tx.c)
	id := a.taskIDByName(name)
	a.mu.Unlock(tx.c)
	if id < 0 {
		return fmt.Errorf("core: no task %q", name)
	}
	return tx.RemoveTask(id)
}

// RemoveTopic stages the removal of a topic. Every registered endpoint task
// must be removed in the same transaction (or already draining): the topic
// dies once they have all retired, so draining jobs still publish and take
// normally.
func (tx *Reconfig) RemoveTopic(c CID) error {
	a := tx.a
	a.mu.Lock(tx.c)
	defer a.mu.Unlock(tx.c)
	if tx.isStagedTopic(c) {
		return fmt.Errorf("core: cannot remove a topic staged by the same transaction")
	}
	if _, err := a.topicByID(c); err != nil {
		return err
	}
	if !tx.removeTopics[c] {
		tx.removeTopics[c] = true
		tx.removeTopicOrder = append(tx.removeTopicOrder, c)
	}
	return nil
}

// RemoveTopicByName is RemoveTopic resolving the topic by name.
func (tx *Reconfig) RemoveTopicByName(name string) error {
	a := tx.a
	a.mu.Lock(tx.c)
	id := a.TopicID(name)
	a.mu.Unlock(tx.c)
	if id < 0 {
		return fmt.Errorf("core: no topic %q", name)
	}
	return tx.RemoveTopic(id)
}

// Retune stages a timing change of a running task: period, deadline, offset,
// priority, sporadic flag and virtual core may change; the name is kept when
// d.Name is empty. The new parameters take effect from the task's next
// release — jobs already released keep their deadlines and priorities.
func (tx *Reconfig) Retune(t TID, d TData) error {
	a := tx.a
	a.mu.Lock(tx.c)
	defer a.mu.Unlock(tx.c)
	tk, err := tx.liveTask(t)
	if err != nil {
		return err
	}
	if d.Name == "" {
		d.Name = tk.d.Name
	}
	if d.Name != tk.d.Name {
		return fmt.Errorf("core: retune cannot rename task %s to %s", tk.d.Name, d.Name)
	}
	if err := validateTData(d); err != nil {
		return err
	}
	if _, dup := tx.retunes[t]; !dup {
		tx.retuneOrder = append(tx.retuneOrder, t)
	}
	tx.retunes[t] = d
	return nil
}

// Connect stages a precedence/data edge from src to dst through channel c;
// src, dst and c may be existing or staged by this transaction.
func (tx *Reconfig) Connect(src, dst TID, c CID) error {
	return tx.ConnectDelayed(src, dst, c, 0)
}

// ConnectDelayed is Connect with delay initial tokens pre-seeded on the edge
// (the SDF feedback construction), seeded at commit time.
func (tx *Reconfig) ConnectDelayed(src, dst TID, c CID, delay int) error {
	a := tx.a
	if delay < 0 {
		return fmt.Errorf("core: negative delay token count %d", delay)
	}
	if delay >= a.cfg.GraphInstanceCap {
		return fmt.Errorf("%w: %d delay tokens with GraphInstanceCap=%d",
			ErrTooMany, delay, a.cfg.GraphInstanceCap)
	}
	if src == dst {
		return fmt.Errorf("core: channel self-loop on task %d", src)
	}
	a.mu.Lock(tx.c)
	defer a.mu.Unlock(tx.c)
	if _, err := tx.refTask(src); err != nil {
		return err
	}
	if _, err := tx.refTask(dst); err != nil {
		return err
	}
	if _, err := tx.refTopic(c); err != nil {
		return err
	}
	tx.stagedEdges = append(tx.stagedEdges, stagedEdge{src: src, dst: dst, ch: c, delay: delay})
	return nil
}

// Disconnect stages the severing of an existing edge; in-flight tokens on it
// are discarded at commit.
func (tx *Reconfig) Disconnect(src, dst TID, c CID) error {
	a := tx.a
	a.mu.Lock(tx.c)
	defer a.mu.Unlock(tx.c)
	for i := 0; i < a.nedges; i++ {
		e := &a.edges[i]
		if !e.dead && e.src == src && e.dst == dst && e.ch == c {
			tx.disconnects = append(tx.disconnects, stagedEdge{src: src, dst: dst, ch: c})
			return nil
		}
	}
	return fmt.Errorf("core: no edge %d->%d through channel %d", src, dst, c)
}

// PubOn stages a publisher registration: task t (existing or staged) will
// publish on topic c (existing or staged).
func (tx *Reconfig) PubOn(t TID, c CID) error {
	a := tx.a
	a.mu.Lock(tx.c)
	defer a.mu.Unlock(tx.c)
	if _, err := tx.refTask(t); err != nil {
		return err
	}
	tp, err := tx.refTopic(c)
	if err != nil {
		return err
	}
	if tp.isPub(t) {
		return fmt.Errorf("core: task %d already publishes on topic %s", t, tp.name)
	}
	for _, ep := range tx.pubs {
		if ep.t == t && ep.c == c {
			return fmt.Errorf("core: publisher %d on topic %s staged twice", t, tp.name)
		}
	}
	tx.pubs = append(tx.pubs, reconfigEndpoint{t: t, c: c})
	return nil
}

// SubOn stages a subscriber registration. A subscriber added to a running
// topic starts at the topic tail: it sees entries published after the
// commit, never the history before its epoch.
func (tx *Reconfig) SubOn(t TID, c CID) error {
	a := tx.a
	a.mu.Lock(tx.c)
	defer a.mu.Unlock(tx.c)
	if _, err := tx.refTask(t); err != nil {
		return err
	}
	tp, err := tx.refTopic(c)
	if err != nil {
		return err
	}
	if tp.opts.Capacity == 0 {
		return fmt.Errorf("core: topic %s has no buffer (capacity 0); nothing to subscribe to", tp.name)
	}
	if tp.subFor(t) != nil {
		return fmt.Errorf("core: task %d already subscribes to topic %s", t, tp.name)
	}
	for _, ep := range tx.subs {
		if ep.t == t && ep.c == c {
			return fmt.Errorf("core: subscriber %d on topic %s staged twice", t, tp.name)
		}
	}
	tx.subs = append(tx.subs, reconfigEndpoint{t: t, c: c})
	return nil
}

// SetMode stages the execution-mode word installed at commit (SelectMode).
func (tx *Reconfig) SetMode(mode uint32) { tx.mode = &mode }

// HasTask reports whether a running (not draining, not removed-by-this-tx)
// or staged task holds the name.
func (tx *Reconfig) HasTask(name string) bool { return tx.TaskID(name) >= 0 }

// TaskID resolves a name against the transaction's merged view: staged
// tasks first, then alive tasks not removed by the transaction.
func (tx *Reconfig) TaskID(name string) TID {
	a := tx.a
	a.mu.Lock(tx.c)
	defer a.mu.Unlock(tx.c)
	if id := a.stagedTaskByName(name); id >= 0 {
		return id
	}
	if id := a.taskIDByName(name); id >= 0 && !tx.removeTasks[id] &&
		(a.tasks[id].state == taskRunning || a.tasks[id].state == taskAdmitted) {
		return id
	}
	return -1
}

// TopicID resolves a topic/channel name against the merged view.
func (tx *Reconfig) TopicID(name string) CID {
	a := tx.a
	a.mu.Lock(tx.c)
	defer a.mu.Unlock(tx.c)
	for _, id := range tx.addedTopics {
		if a.topics[id].name == name {
			return id
		}
	}
	if id := a.TopicID(name); id >= 0 && !tx.removeTopics[id] {
		return id
	}
	return -1
}

// --- rollback / validate / admit / commit -----------------------------------

// severs reports whether the transaction kills this edge: one of its
// endpoints is removed or it is explicitly disconnected. The single source
// of truth for both validate and commit.
func (tx *Reconfig) severs(e *edge) bool {
	if tx.removeTasks[e.src] || tx.removeTasks[e.dst] {
		return true
	}
	for _, de := range tx.disconnects {
		if de.src == e.src && de.dst == e.dst && de.ch == e.ch {
			return true
		}
	}
	return false
}

// rollback releases every staged slot; the application is untouched.
func (tx *Reconfig) rollback() {
	a := tx.a
	a.mu.Lock(tx.c)
	defer a.mu.Unlock(tx.c)
	for _, id := range tx.addedTasks {
		t := &a.tasks[id]
		a.setTaskStateLocked(t, taskRetired)
		a.unindexTaskName(t)
		t.versions = t.versions[:0]
		a.freeTaskSlots = append(a.freeTaskSlots, int(id))
	}
	for _, id := range tx.addedTopics {
		a.killTopicLocked(&a.topics[id])
	}
	tx.addedTasks, tx.addedTopics = nil, nil
}

// validate checks the whole batch against the merged target configuration:
// structural rules (the same ones Start's resolve enforces), removal
// coverage and static capacity. It also builds the merged model admission
// reuses.
func (tx *Reconfig) validate() error {
	a := tx.a
	a.mu.Lock(tx.c)
	defer a.mu.Unlock(tx.c)

	// Merged task list: alive tasks (with retunes applied) minus removals,
	// plus staged ones.
	index := make(map[TID]int)
	for i := 0; i < a.ntasks; i++ {
		t := &a.tasks[i]
		if t.state != taskRunning && t.state != taskAdmitted {
			continue
		}
		if tx.removeTasks[t.id] {
			continue
		}
		d := t.d
		if rd, ok := tx.retunes[t.id]; ok {
			d = rd
		}
		var wcet time.Duration
		for vi := range t.versions {
			if w := t.versions[vi].props.WCET; w > wcet {
				wcet = w
			}
		}
		index[t.id] = len(tx.merged)
		tx.merged = append(tx.merged, mergedTask{id: t.id, d: d, wcet: wcet, nver: len(t.versions),
			accels: a.accelUsesLocked(t)})
	}
	for _, id := range tx.addedTasks {
		t := &a.tasks[id]
		var wcet time.Duration
		for vi := range t.versions {
			if w := t.versions[vi].props.WCET; w > wcet {
				wcet = w
			}
		}
		index[id] = len(tx.merged)
		tx.merged = append(tx.merged, mergedTask{id: id, d: t.d, wcet: wcet, nver: len(t.versions), staged: true,
			accels: a.accelUsesLocked(t)})
	}

	// Merged edge relation: alive edges not severed by the transaction,
	// plus staged ones.
	type medge struct{ src, dst, delay int }
	var edges []medge
	dying := 0
	for i := 0; i < a.nedges; i++ {
		e := &a.edges[i]
		if e.dead {
			continue
		}
		if tx.severs(e) {
			dying++
			continue
		}
		si, sok := index[e.src]
		di, dok := index[e.dst]
		if !sok || !dok {
			continue // endpoints draining from an earlier epoch
		}
		edges = append(edges, medge{src: si, dst: di, delay: e.initial})
	}
	for _, se := range tx.stagedEdges {
		si, sok := index[se.src]
		di, dok := index[se.dst]
		if !sok || !dok {
			return fmt.Errorf("core: staged edge %d->%d references a task outside the target configuration", se.src, se.dst)
		}
		edges = append(edges, medge{src: si, dst: di, delay: se.delay})
	}

	// Static capacity: staged edges must fit the recycled + unused slots.
	freeEdges := len(tx.a.freeEdgeSlots) + (len(a.edges) - a.nedges) + dying
	if len(tx.stagedEdges) > freeEdges {
		return fmt.Errorf("%w: %d staged edges, %d edge slots free (MaxChannels=%d)",
			ErrTooMany, len(tx.stagedEdges), freeEdges, len(a.edges))
	}

	// Per-task structural rules on the target configuration.
	tx.preds = make([][]int, len(tx.merged))
	succ := make([][]int, len(tx.merged))
	zeroDelayIn := make([]bool, len(tx.merged))
	hasIn := make([]bool, len(tx.merged))
	for _, e := range edges {
		tx.preds[e.dst] = append(tx.preds[e.dst], e.src)
		hasIn[e.dst] = true
		if e.delay == 0 {
			succ[e.src] = append(succ[e.src], e.dst)
			zeroDelayIn[e.dst] = true
		}
	}
	for i := range tx.merged {
		m := &tx.merged[i]
		if m.nver == 0 {
			return fmt.Errorf("core: task %s has no version", m.d.Name)
		}
		if m.d.Period > 0 && zeroDelayIn[i] {
			return fmt.Errorf("core: task %s is data-activated but has a period; only root nodes carry periods (feedback into a periodic root needs delay tokens)", m.d.Name)
		}
		// Every rule deriveTaskLocked re-checks at commit must be caught
		// here, or an admitted transaction would panic mid-commit. A
		// sporadic task without a minimum inter-arrival time has no implicit
		// deadline to fall back on, exactly like an aperiodic one.
		if m.d.Period == 0 && !hasIn[i] && m.d.Deadline == 0 {
			if m.d.Sporadic {
				return fmt.Errorf("core: sporadic task %s needs a minimum inter-arrival time (Period) or an explicit deadline", m.d.Name)
			}
			return fmt.Errorf("core: aperiodic task %s needs an explicit deadline (did a removal orphan it?)", m.d.Name)
		}
		if a.cfg.Mapping == MappingPartitioned {
			if m.d.VirtCore < 0 || m.d.VirtCore >= a.cfg.Workers {
				return fmt.Errorf("core: task %s: VirtCore %d out of [0,%d) for partitioned mapping",
					m.d.Name, m.d.VirtCore, a.cfg.Workers)
			}
		}
	}

	// Cycle check over zero-delay edges.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(tx.merged))
	var visit func(i int) error
	visit = func(i int) error {
		color[i] = grey
		for _, d := range succ[i] {
			switch color[d] {
			case grey:
				return fmt.Errorf("core: channel graph has a cycle through task %s", tx.merged[d].d.Name)
			case white:
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		color[i] = black
		return nil
	}
	for i := range tx.merged {
		if color[i] == white {
			if err := visit(i); err != nil {
				return err
			}
		}
	}

	// Removal coverage: a removed topic's registered endpoints must all be
	// leaving (removed now or draining already), and no surviving edge may
	// carry it.
	for _, c := range tx.removeTopicOrder {
		tp := &a.topics[c]
		leaving := func(t TID) bool {
			if tx.removeTasks[t] {
				return true
			}
			st := a.tasks[t].state
			return st == taskDraining || st == taskRetired
		}
		for _, p := range tp.pubs {
			if !leaving(p) {
				return fmt.Errorf("core: topic %s still has publisher %s; remove it in the same transaction", tp.name, a.tasks[p].d.Name)
			}
		}
		for _, s := range tp.subs {
			if !leaving(s.task) {
				return fmt.Errorf("core: topic %s still has subscriber %s; remove it in the same transaction", tp.name, a.tasks[s.task].d.Name)
			}
		}
		for i := 0; i < a.nedges; i++ {
			e := &a.edges[i]
			if !e.dead && e.ch == c && !tx.severs(e) {
				return fmt.Errorf("core: topic %s still connects %s->%s", tp.name,
					a.tasks[e.src].d.Name, a.tasks[e.dst].d.Name)
			}
		}
		for _, se := range tx.stagedEdges {
			if se.ch == c {
				return fmt.Errorf("core: topic %s is removed but a staged edge uses it", tp.name)
			}
		}
	}
	return nil
}

// admit runs the online admission test over the target configuration,
// keyed on Config.Mapping and Config.Priority. Tasks without WCET
// information contribute no demand (they are admitted blindly — declare
// version WCETs to make admission meaningful). The test covers the
// post-drain steady state; the transient overlap while removed tasks drain
// is bounded by one in-flight job per retiring task.
func (tx *Reconfig) admit() error {
	a := tx.a
	set := &taskset.Set{}
	var keys []int64
	var cores []int
	pl := a.env.Platform()
	globalSpeed := 1.0
	if pl != nil {
		for i, wc := range a.cfg.WorkerCores {
			if wc >= 0 && wc < len(pl.Cores) {
				s := pl.Cores[wc].Speed
				if i == 0 || s < globalSpeed {
					globalSpeed = s
				}
			}
		}
	}
	seen := make([]bool, len(tx.merged))
	for i := range tx.merged {
		m := &tx.merged[i]
		if m.wcet <= 0 {
			continue
		}
		period := m.d.Period
		deadline := m.d.Deadline
		if period == 0 {
			for k := range seen {
				seen[k] = false
			}
			rp, rd := tx.rootTiming(i, seen)
			if rp == 0 {
				continue // aperiodic with no periodic root: unanalysable, admitted blindly
			}
			period = rp
			if deadline == 0 {
				deadline = rd
			}
		}
		if deadline == 0 {
			deadline = period
		}
		speed := globalSpeed
		if a.cfg.Mapping == MappingPartitioned && pl != nil {
			wc := a.cfg.WorkerCores[m.d.VirtCore]
			if wc >= 0 && wc < len(pl.Cores) {
				speed = pl.Cores[wc].Speed
			}
		}
		wcet := m.wcet
		if speed > 0 && speed != 1.0 {
			wcet = time.Duration(float64(wcet) / speed)
		}
		// Accelerator sections run at the accelerator's speed, not the
		// core's: the critical-section lengths stay nominal.
		set.Tasks = append(set.Tasks, taskset.Task{
			ID:       int(m.id),
			Name:     m.d.Name,
			Period:   period,
			Deadline: deadline,
			Offset:   m.d.ReleaseOffset,
			WCET:     wcet,
			Sporadic: m.d.Sporadic,
			Accels:   m.accels,
		})
		switch a.cfg.Priority {
		case PriorityRM:
			keys = append(keys, int64(period))
		case PriorityDM:
			keys = append(keys, int64(deadline))
		case PriorityUser:
			keys = append(keys, int64(m.d.Priority))
		default:
			// EDF: dynamic priorities; the key is only consumed by the
			// blocking analysis, whose preemption levels are the relative
			// deadlines.
			keys = append(keys, int64(deadline))
		}
		cores = append(cores, m.d.VirtCore)
	}
	adm := analysis.Admission{
		Workers:       a.cfg.Workers,
		Partitioned:   a.cfg.Mapping == MappingPartitioned,
		FixedPriority: a.cfg.Priority != PriorityEDF,
		Cores:         cores,
	}
	if adm.FixedPriority {
		adm.PrioKey = keys
	}
	// Accelerator contention is priced into admission: the per-task PIP
	// blocking bounds (worst lower-priority critical section per shared
	// pool) join the schedulability test. Under EDF the blocking priority
	// order is the deadline order (preemption levels).
	terms := analysis.PIPBlocking(set, keys)
	blocking := analysis.Durations(terms)
	adm.Blocking = blocking
	res, err := analysis.Admit(set, adm)
	if err != nil {
		return err
	}
	if !res.Schedulable {
		offender := res.Offender
		if offender == "" && len(tx.addedTasks) > 0 {
			offender = tx.a.tasks[tx.addedTasks[0]].d.Name
		}
		detail := res.Detail
		test := res.Test
		// When the set is schedulable ignoring blocking, the accelerator
		// contention alone is the reason for rejection: say so, naming the
		// blocking term the offender pays.
		if anyBlocking(blocking) {
			noBlock := adm
			noBlock.Blocking = nil
			if res2, err2 := analysis.Admit(set, noBlock); err2 == nil && res2.Schedulable {
				test += "+accel-blocking"
				for i := range set.Tasks {
					if set.Tasks[i].Name == offender && terms[i].Dur > 0 {
						detail = fmt.Sprintf("%s; schedulable without accelerator contention — blocking term %s",
							detail, terms[i])
						break
					}
				}
			}
		}
		return &NotSchedulableError{Task: offender, Test: test, Detail: detail}
	}
	return nil
}

// anyBlocking reports whether at least one blocking term is non-zero.
func anyBlocking(blocking []time.Duration) bool {
	for _, b := range blocking {
		if b > 0 {
			return true
		}
	}
	return false
}

// rootTiming walks the merged predecessor relation back to periodic roots
// and returns the smallest root period with its matching effective deadline.
func (tx *Reconfig) rootTiming(i int, seen []bool) (time.Duration, time.Duration) {
	if seen[i] {
		return 0, 0
	}
	seen[i] = true
	var bestP, bestD time.Duration
	consider := func(p, d time.Duration) {
		if p > 0 && (bestP == 0 || p < bestP) {
			bestP, bestD = p, d
		}
	}
	for _, pi := range tx.preds[i] {
		m := &tx.merged[pi]
		if m.d.Period > 0 {
			d := m.d.Deadline
			if d == 0 {
				d = m.d.Period
			}
			consider(m.d.Period, d)
		} else {
			consider(tx.rootTiming(pi, seen))
		}
	}
	return bestP, bestD
}

// commit applies the admitted plan at the quiescent barrier: the App lock is
// held while the declaration tables and derived scheduling state are
// rewritten, so every job observes either the old or the new epoch, never a
// mix. Running jobs are untouched; the scheduler is nudged so retuned grids
// take effect immediately.
func (tx *Reconfig) commit() {
	a := tx.a
	started := a.started.Load()
	rec := tx.commitTables(started)
	a.rec.RecordReconfig(rec)
	// Nudge the scheduler so admitted tasks and retuned grids take effect
	// now, not at the old grid's next tick.
	if started && a.schedTh != nil {
		a.schedTh.Interrupt()
	}
}

// commitTables is the locked half of commit. The App lock is released by
// defer so that an invariant-violation panic (a validated transaction
// failing derivation — a bug, not a user error) crashes loudly instead of
// deadlocking the deferred rollback on the still-held lock.
func (tx *Reconfig) commitTables(started bool) trace.ReconfigRecord {
	a := tx.a
	c := tx.c
	costs := a.env.Costs()

	a.mu.Lock(c)
	defer a.mu.Unlock(c)
	t0 := c.Now()
	now := t0
	epoch := int(a.epoch.Load()) + 1
	rec := trace.ReconfigRecord{Epoch: epoch, At: now}

	// Removed tasks start draining and disarm their pending release. Task
	// lifecycle and release-heap writes go under the home shard lock (rank
	// 2 -> 3): the release tick runs under shard locks alone and may be
	// mid-pass on another shard right now.
	for _, id := range tx.removeOrder {
		t := &a.tasks[id]
		sh := a.shards[t.shard.Load()]
		sh.mu.Lock()
		t.state = taskDraining
		t.retireEpoch = epoch
		sh.rel.disarm(t)
		sh.mu.Unlock()
		t.draining.Store(true)
		rec.Retiring = append(rec.Retiring, t.d.Name)
	}
	// Severed edges die and their slots recycle. Their consumers are
	// remembered: losing an in-edge can complete a surviving task's input
	// set (its other edges already hold tokens), which must then fire via
	// the scheduler's catch-up queue, not wait for a producer that may
	// never complete again.
	var severedDsts []TID
	for i := 0; i < a.nedges; i++ {
		e := &a.edges[i]
		if !e.dead && tx.severs(e) {
			e.dead = true
			a.freeEdgeSlots = append(a.freeEdgeSlots, i)
			severedDsts = append(severedDsts, e.dst)
		}
	}
	// Staged edges materialise, delay tokens seeded at the commit instant.
	for _, se := range tx.stagedEdges {
		e := a.allocEdgeSlot()
		e.src, e.dst, e.ch, e.initial = se.src, se.dst, se.ch, se.delay
		if cap(e.stamps) < a.cfg.GraphInstanceCap {
			e.stamps = make([]time.Duration, a.cfg.GraphInstanceCap)
		} else {
			e.stamps = e.stamps[:a.cfg.GraphInstanceCap]
		}
		e.head, e.count, e.tokens = 0, 0, 0
		e.dead = false
		for k := 0; k < se.delay; k++ {
			e.pushStamp(now)
		}
	}
	// Retunes take effect from the next release; a shortened period pulls
	// the next release in so activation latency is bounded by the new
	// period, not the old one. An armed task re-keys in the same lock hold
	// that moves its instant (the releaseHeap contract): the heap is in
	// order whenever the shard lock is free, whatever the retune order.
	for _, id := range tx.retuneOrder {
		t := &a.tasks[id]
		sh := a.shards[t.shard.Load()]
		sh.mu.Lock()
		t.d = tx.retunes[id]
		if started && t.d.Period > 0 && !t.d.Sporadic && t.nextRelease > now+t.d.Period {
			t.nextRelease = now + t.d.Period
			if t.relIdx >= 0 {
				sh.rel.arm(t)
			}
		}
		sh.mu.Unlock()
		rec.Retuned = append(rec.Retuned, t.d.Name)
	}
	// Staged tasks are admitted.
	for _, id := range tx.addedTasks {
		t := &a.tasks[id]
		sh := a.shards[t.shard.Load()]
		sh.mu.Lock()
		if started {
			t.state = taskRunning
		} else {
			t.state = taskAdmitted
		}
		t.nextRelease = now + t.d.ReleaseOffset
		t.lastActivation = 0
		t.everActivated = false
		t.jobSeq = 0
		sh.mu.Unlock()
		t.live.Store(0)
		t.draining.Store(false)
		rec.Admitted = append(rec.Admitted, t.d.Name)
	}
	// Staged topics go live; staged endpoints register. New subscribers
	// start at the tail: surviving subscribers' cursors are untouched.
	for _, id := range tx.addedTopics {
		a.topics[id].dead = false
	}
	for _, ep := range tx.pubs {
		tp := &a.topics[ep.c]
		tp.pubs = append(tp.pubs, ep.t)
	}
	for _, ep := range tx.subs {
		tp := &a.topics[ep.c]
		// Pre-epoch history must stay invisible to the new subscriber: fold
		// staged wall-clock publishes into the buffer first, and skip past
		// any residue a full buffer kept staged (those entries were pushed
		// before this commit too).
		tp.drainStaging()
		cursor := tp.tail
		if tp.staging != nil {
			cursor += uint64(tp.staging.Len())
		}
		tp.subs = append(tp.subs, subscription{task: ep.t, cursor: cursor})
	}
	a.pendingDeadTopics = append(a.pendingDeadTopics, tx.removeTopicOrder...)
	// Derived scheduling state for the new epoch.
	if err := a.rebuildGraphLocked(); err != nil {
		panic(fmt.Sprintf("core: validated transaction failed graph rebuild: %v", err))
	}
	for i := 0; i < a.ntasks; i++ {
		t := &a.tasks[i]
		if t.state != taskRunning && t.state != taskAdmitted {
			continue
		}
		if err := a.deriveTaskLocked(t); err != nil {
			panic(fmt.Sprintf("core: validated transaction failed derivation: %v", err))
		}
	}
	a.refreshTopicsAfterCommitLocked(tx)
	// Instant retirements (removed tasks with no in-flight jobs) and topic
	// reaping.
	for _, id := range tx.removeOrder {
		t := &a.tasks[id]
		if t.state == taskDraining && t.live.Load() == 0 {
			a.finishRetireLocked(t, now)
		}
	}
	a.reapDeadTopicsLocked()
	// Scheduler grid: the GCD may have changed. Release-heap keys are
	// absolute instants, so only the transaction's own tasks move: admitted
	// periodic roots and retuned tasks that became one (or changed home) arm,
	// and whatever stopped being a periodic root disarms. Pulled-in retunes
	// re-keyed above, so arming them again moves nothing; no key changes
	// here. A retune that moved the task's home already disarmed it under
	// the OLD home lock (see deriveTaskLocked), so locking the current home
	// covers both cases.
	if a.cfg.SchedulerPeriod == 0 && started {
		a.schedPeriodNs.Store(int64(a.schedGCD()))
	}
	if started {
		for _, ids := range [2][]TID{tx.retuneOrder, tx.addedTasks} {
			for _, id := range ids {
				t := &a.tasks[id]
				sh := a.shards[t.shard.Load()]
				sh.mu.Lock()
				if t.periodicRoot() {
					sh.rel.arm(t)
				} else {
					sh.rel.disarm(t)
				}
				sh.mu.Unlock()
			}
		}
	}
	// Input backlogs the transaction exposed (delay-token seeds on staged
	// edges, a severed edge completing a surviving consumer's input set)
	// queue their consumers for the scheduler's catch-up release.
	for _, se := range tx.stagedEdges {
		if int(se.dst) < a.ntasks {
			a.noteDataReadyLocked(&a.tasks[se.dst])
		}
	}
	for _, dst := range severedDsts {
		if int(dst) < a.ntasks {
			a.noteDataReadyLocked(&a.tasks[dst])
		}
	}
	if tx.mode != nil {
		a.mode.Store(*tx.mode)
	}
	rec.Mode = a.mode.Load()
	a.epoch.Store(int64(epoch))
	// Publish the new epoch's scheduling snapshot: lock-free readers
	// (TaskActivate's fast path, steal victim scans) flip to the new tables
	// with one atomic pointer swap.
	if started {
		a.publishViewLocked()
	}
	// The quiescent barrier's modelled price: a fixed commit cost plus the
	// table scans the rebuild performed.
	c.Charge(costs.ReconfigBarrier +
		time.Duration(a.ntasks+a.nedges+a.ntopics)*costs.StaticScanPerItem)
	rec.Pause = c.Now() - t0
	return rec
}

// allocEdgeSlot reserves an edge slot, recycling severed ones first. Caller
// holds the lock; capacity was validated.
func (a *App) allocEdgeSlot() *edge {
	if n := len(a.freeEdgeSlots); n > 0 {
		idx := a.freeEdgeSlots[n-1]
		a.freeEdgeSlots = a.freeEdgeSlots[:n-1]
		return &a.edges[idx]
	}
	e := &a.edges[a.nedges]
	a.nedges++
	return e
}
