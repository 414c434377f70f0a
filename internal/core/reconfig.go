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
	"iter"
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
	// g is the target's edge relation: validate (or resolve, at Start)
	// builds it, and derivation walks it for inherited timing.
	g *txGraph
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
	set, adm, err := tx.validate()
	if err != nil {
		return nil, err
	}
	if err := tx.admit(set, adm); err != nil {
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
	return tx.a.tasks[t].addVersion(fn, args, props)
}

// UseAccel stages an accelerator binding for a staged task's version.
// Accelerators themselves are hardware and not reconfigurable.
func (tx *Reconfig) UseAccel(t TID, v VID, h HID) error {
	if !tx.isStagedTask(t) {
		return fmt.Errorf("core: UseAccel targets a task not added by this transaction")
	}
	return tx.a.bindAccel(&tx.a.tasks[t], v, h)
}

// AddTopic stages a new pub-sub topic; it becomes addressable at commit.
func (tx *Reconfig) AddTopic(name string, opts TopicOpts) (CID, error) {
	if err := checkTopic(name, opts); err != nil {
		return -1, err
	}
	return tx.stageTopic(name, opts)
}

// AddChannel stages a new FIFO channel (capacity 0 declares a pure
// precedence channel), the Table-1 degenerate topic.
func (tx *Reconfig) AddChannel(name string, capacity int) (CID, error) {
	opts, err := channelOpts(name, capacity)
	if err != nil {
		return -1, err
	}
	return tx.stageTopic(name, opts)
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
	if err := a.checkEdge(src, dst, delay); err != nil {
		return err
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
	if err := tp.checkPub(t); err != nil {
		return err
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
	if err := tp.checkSub(t); err != nil {
		return err
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

// validate checks the whole batch against the target configuration —
// structural rules (checkTask and checkCycles, which Start runs too),
// removal coverage and static capacity — and, in the same pass over the
// task table under App.mu, writes the rows admit tests. The target
// configuration is read in place: live tasks by TID with their retunes
// overlaid, then the staged ones in staging order, which is also the row
// order. The rows go straight into one set sized from the slot table, so a
// transaction allocates the same number of objects whatever the task count.
// The edge relation is built only when the target has edges, and the
// priority keys and cores only when the admission test reads them.
func (tx *Reconfig) validate() (*taskset.Set, analysis.Admission, error) {
	a := tx.a
	a.mu.Lock(tx.c)
	defer a.mu.Unlock(tx.c)
	adm := analysis.Admission{
		Workers:       a.cfg.Workers,
		Partitioned:   a.cfg.Mapping == MappingPartitioned,
		FixedPriority: a.cfg.Priority != PriorityEDF,
	}

	for _, se := range tx.stagedEdges {
		if !tx.inTarget(se.src) || !tx.inTarget(se.dst) {
			return nil, adm, fmt.Errorf("core: staged edge %d->%d references a task outside the target configuration", se.src, se.dst)
		}
	}

	// Static capacity: staged edges must fit the recycled + unused slots.
	dying := 0
	for i := 0; i < a.nedges; i++ {
		if e := &a.edges[i]; !e.dead && tx.severs(e) {
			dying++
		}
	}
	freeEdges := len(tx.a.freeEdgeSlots) + (len(a.edges) - a.nedges) + dying
	if len(tx.stagedEdges) > freeEdges {
		return nil, adm, fmt.Errorf("%w: %d staged edges, %d edge slots free (MaxChannels=%d)",
			ErrTooMany, len(tx.stagedEdges), freeEdges, len(a.edges))
	}
	tx.g = tx.graph()
	g := tx.g

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
	// Every slot that is not free holds a live, draining or staged task, so
	// this bounds the rows; it is exact unless tasks drain or lack a WCET.
	rows := max(a.ntasks-len(a.freeTaskSlots)-len(tx.removeOrder), 0)
	set := &taskset.Set{Tasks: make([]taskset.Task, 0, rows)}
	// DM and EDF order by deadline, the analysis' default key; RM and user
	// priorities need their own.
	if a.cfg.Priority == PriorityRM || a.cfg.Priority == PriorityUser {
		adm.PrioKey = make([]int64, 0, rows)
	}
	if adm.Partitioned {
		adm.Cores = make([]int, 0, rows)
	}
	for t, d := range tx.targetTasks() {
		if err := tx.checkTask(g, t, d); err != nil {
			return nil, adm, err
		}

		// The admission row. Tasks without WCET information contribute no
		// demand, and a data-activated task without a periodic root is
		// unanalysable: both are admitted blindly.
		var wcet time.Duration
		for vi := range t.versions {
			wcet = max(wcet, t.versions[vi].props.WCET)
		}
		if wcet <= 0 {
			continue
		}
		period, deadline := d.Period, d.Deadline
		if period == 0 {
			rp, rd := g.rootTiming(tx, t.id)
			if rp == 0 {
				continue
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
		if adm.Partitioned && pl != nil {
			wc := a.cfg.WorkerCores[d.VirtCore]
			if wc >= 0 && wc < len(pl.Cores) {
				speed = pl.Cores[wc].Speed
			}
		}
		if speed > 0 && speed != 1.0 {
			wcet = time.Duration(float64(wcet) / speed)
		}
		// Accelerator sections run at the accelerator's speed, not the
		// core's: the critical-section lengths stay nominal.
		set.Tasks = append(set.Tasks, taskset.Task{
			ID:       int(t.id),
			Name:     d.Name,
			Period:   period,
			Deadline: deadline,
			Offset:   d.ReleaseOffset,
			WCET:     wcet,
			Sporadic: d.Sporadic,
			Accels:   a.accelUsesLocked(t),
		})
		switch a.cfg.Priority {
		case PriorityRM:
			adm.PrioKey = append(adm.PrioKey, int64(period))
		case PriorityUser:
			adm.PrioKey = append(adm.PrioKey, int64(d.Priority))
		}
		if adm.Partitioned {
			adm.Cores = append(adm.Cores, d.VirtCore)
		}
	}

	if err := tx.checkCycles(g); err != nil {
		return nil, adm, err
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
				return nil, adm, fmt.Errorf("core: topic %s still has publisher %s; remove it in the same transaction", tp.name, a.tasks[p].d.Name)
			}
		}
		for _, s := range tp.subs {
			if !leaving(s.task) {
				return nil, adm, fmt.Errorf("core: topic %s still has subscriber %s; remove it in the same transaction", tp.name, a.tasks[s.task].d.Name)
			}
		}
		for i := 0; i < a.nedges; i++ {
			e := &a.edges[i]
			if !e.dead && e.ch == c && !tx.severs(e) {
				return nil, adm, fmt.Errorf("core: topic %s still connects %s->%s", tp.name,
					a.tasks[e.src].d.Name, a.tasks[e.dst].d.Name)
			}
		}
		for _, se := range tx.stagedEdges {
			if se.ch == c {
				return nil, adm, fmt.Errorf("core: topic %s is removed but a staged edge uses it", tp.name)
			}
		}
	}
	return set, adm, nil
}

// checkTask applies the per-task structural rules of the task-graph model
// to task t with its target timing d: at least one version, a period only
// on a root, a deadline to fall back on, and a virtual core in range under
// the partitioned mapping. It is the one rule set of the model: validate
// checks each row of a transaction with it, and Start (resolve) each
// declared task, so a commit or a Start that passed it derives every task
// without error. It takes no lock; a caller in a running App holds a.mu.
func (tx *Reconfig) checkTask(g *txGraph, t *task, d TData) error {
	a := tx.a
	if len(t.versions) == 0 {
		return fmt.Errorf("core: task %s has no version", d.Name)
	}
	hasIn, zeroIn := g.inputs(t.id)
	if d.Period > 0 && zeroIn {
		return fmt.Errorf("core: task %s is data-activated but has a period; only root nodes carry periods (feedback into a periodic root needs delay tokens)", d.Name)
	}
	// A root with neither a period nor a deadline has no deadline to fall
	// back on — a sporadic task without a minimum inter-arrival time
	// exactly like an aperiodic one — unless an off-line table drives it
	// (deriveTaskLocked then uses the table cycle).
	if d.Period == 0 && !hasIn && d.Deadline == 0 &&
		(a.cfg.Mapping != MappingOffline || a.offTable == nil) {
		if d.Sporadic {
			return fmt.Errorf("core: sporadic task %s needs a minimum inter-arrival time (Period) or an explicit deadline", d.Name)
		}
		return fmt.Errorf("core: aperiodic task %s needs an explicit deadline (did a removal orphan it?)", d.Name)
	}
	if a.cfg.Mapping == MappingPartitioned && (d.VirtCore < 0 || d.VirtCore >= a.cfg.Workers) {
		return fmt.Errorf("core: task %s: VirtCore %d out of [0,%d) for partitioned mapping",
			d.Name, d.VirtCore, a.cfg.Workers)
	}
	return nil
}

// checkCycles rejects a cycle over zero-delay edges in the target: a depth
// first search from every task in row order. Without edges (g == nil) there
// is nothing to search.
func (tx *Reconfig) checkCycles(g *txGraph) error {
	if g == nil {
		return nil
	}
	for t := range tx.targetTasks() {
		if c := g.cycle(t.id); c >= 0 {
			return fmt.Errorf("core: channel graph has a cycle through task %s", tx.a.tasks[c].d.Name)
		}
	}
	return nil
}

// inTarget reports whether task id belongs to the target configuration:
// alive and not removed by the transaction, or staged by it. Caller holds
// a.mu, or the App is quiescent (Start).
func (tx *Reconfig) inTarget(id TID) bool {
	switch tx.a.tasks[id].state {
	case taskRunning, taskAdmitted:
		return !tx.removeTasks[id]
	case taskStaged:
		return true
	}
	return false
}

// targetData returns task id's timing in the target configuration: its
// retune if the transaction stages one. Caller holds a.mu.
func (tx *Reconfig) targetData(id TID) TData {
	if d, ok := tx.retunes[id]; ok {
		return d
	}
	return tx.a.tasks[id].d
}

// targetTasks yields the tasks of the target configuration with their
// target timing, in row order: live tasks by TID, then the staged ones in
// staging order. Caller holds a.mu, or the App is quiescent (Start).
func (tx *Reconfig) targetTasks() iter.Seq2[*task, TData] {
	return func(yield func(*task, TData) bool) {
		a := tx.a
		for i := 0; i < a.ntasks; i++ {
			t := &a.tasks[i]
			if (t.state != taskRunning && t.state != taskAdmitted) || tx.removeTasks[t.id] {
				continue
			}
			if !yield(t, tx.targetData(t.id)) {
				return
			}
		}
		for _, id := range tx.addedTasks {
			if !yield(&a.tasks[id], a.tasks[id].d) {
				return
			}
		}
	}
}

// txGraph is the target configuration's edge relation, indexed by TID:
// each task's in-edge sources (the embedded walk's in) and zero-delay
// out-edge destinations, in edge order. A nil *txGraph is the relation
// without edges.
type txGraph struct {
	RootWalk[TID]
	out    [][]TID
	zeroIn []bool  // some in-edge carries no delay tokens
	color  []uint8 // cycle search: white, grey, black
}

// graph builds the target's edge relation — the live edges the transaction
// keeps, in slot order, then the staged ones — or returns nil when the
// target has no edges. A first pass counts each task's edges, so each
// relation fills one backing array: a build allocates the same few objects
// whatever the edge count. Caller holds a.mu, or the App is quiescent
// (Start).
func (tx *Reconfig) graph() *txGraph {
	a := tx.a
	edges := func(f func(src, dst TID, delay int)) {
		for i := 0; i < a.nedges; i++ {
			// A kept edge with an endpoint outside the target belongs to a
			// task draining from an earlier epoch.
			if e := &a.edges[i]; !e.dead && !tx.severs(e) && tx.inTarget(e.src) && tx.inTarget(e.dst) {
				f(e.src, e.dst, e.initial)
			}
		}
		for _, se := range tx.stagedEdges {
			f(se.src, se.dst, se.delay)
		}
	}
	n := a.ntasks
	var nin, nout []int
	edges(func(src, dst TID, delay int) {
		if nin == nil {
			nin, nout = make([]int, n), make([]int, n)
		}
		nin[dst]++
		if delay == 0 {
			nout[src]++
		}
	})
	if nin == nil {
		return nil
	}
	g := &txGraph{RootWalk: NewRootWalk(carve(nin)), out: carve(nout),
		zeroIn: make([]bool, n), color: make([]uint8, n)}
	edges(func(src, dst TID, delay int) {
		g.in[dst] = append(g.in[dst], src)
		if delay == 0 {
			g.out[src] = append(g.out[src], dst)
			g.zeroIn[dst] = true
		}
	})
	return g
}

// carve returns one empty list per count, each with room for its count,
// cut from one backing array.
func carve(counts []int) [][]TID {
	total := 0
	for _, k := range counts {
		total += k
	}
	all := make([]TID, total)
	lists := make([][]TID, len(counts))
	for i, k := range counts {
		lists[i], all = all[:0:k], all[k:]
	}
	return lists
}

// inputs reports whether task id has in-edges in the target, and whether
// one of them carries no delay tokens.
func (g *txGraph) inputs(id TID) (hasIn, zeroIn bool) {
	if g == nil {
		return false, false
	}
	return len(g.in[id]) > 0, g.zeroIn[id]
}

// cycle runs the depth-first search over zero-delay edges from task id and
// returns the task a cycle closes on, or -1.
func (g *txGraph) cycle(id TID) TID {
	if g.color[id] != white {
		return -1
	}
	g.color[id] = grey
	for _, d := range g.out[id] {
		switch g.color[d] {
		case grey:
			return d
		case white:
			if c := g.cycle(d); c >= 0 {
				return c
			}
		}
	}
	g.color[id] = black
	return -1
}

// rootTiming is the graph-timing rule (RootWalk.RootTiming) over the
// target: task id's root period and deadline, 0 and 0 without edges.
// Caller holds a.mu, or the App is quiescent.
func (g *txGraph) rootTiming(tx *Reconfig, id TID) (period, deadline time.Duration) {
	if g == nil {
		return 0, 0
	}
	return g.RootTiming(id, tx.targetData)
}

// RootWalk is a task graph's in-edge relation, walked by the graph-timing
// rule (RootTiming). Admission, derivation and the spec bridge all take a
// data-activated task's timing from it.
type RootWalk[ID ~int] struct {
	in   [][]ID // each task's in-edge sources
	seen []int32
	walk int32
}

// NewRootWalk returns the walk over in, each task's in-edge sources.
func NewRootWalk[ID ~int](in [][]ID) RootWalk[ID] {
	return RootWalk[ID]{in: in, seen: make([]int32, len(in))}
}

// RootTiming is the graph-timing rule. Walking back over in-edges from task
// id, it stops at each root — a task that is periodic, sporadic or without
// in-edges, as the runtime's root flag — and returns the smallest root
// period (0 when no root has one) and the smallest root effective deadline
// (explicit, else the period; 0 when no root has one). data gives each
// task's timing. Each walk stamps the tasks it reaches with its own number,
// so no walk has anything to clear and none allocates.
func (w *RootWalk[ID]) RootTiming(id ID, data func(ID) TData) (period, deadline time.Duration) {
	w.walk++
	w.seen[id] = w.walk
	return w.rootWalk(id, data)
}

func (w *RootWalk[ID]) rootWalk(id ID, data func(ID) TData) (period, deadline time.Duration) {
	for _, src := range w.in[id] {
		if w.seen[src] == w.walk {
			continue
		}
		w.seen[src] = w.walk
		var p, d time.Duration
		if sd := data(src); sd.Period > 0 || sd.Sporadic || len(w.in[src]) == 0 {
			p, d = sd.Period, sd.Deadline
			if d == 0 {
				d = p
			}
		} else {
			p, d = w.rootWalk(src, data)
		}
		period, deadline = minPositive(period, p), minPositive(deadline, d)
	}
	return period, deadline
}

// minPositive returns the smaller of a and b, ignoring a zero.
func minPositive(a, b time.Duration) time.Duration {
	if b > 0 && (a == 0 || b < a) {
		return b
	}
	return a
}

// admit runs the online admission test, keyed on Config.Mapping and
// Config.Priority, over the rows validate wrote. Tasks without WCET
// information contribute no demand (they are admitted blindly — declare
// version WCETs to make admission meaningful). The test covers the
// post-drain steady state; the transient overlap while removed tasks drain
// is bounded by one in-flight job per retiring task.
func (tx *Reconfig) admit(set *taskset.Set, adm analysis.Admission) error {
	// Accelerator contention is priced into admission: the per-task PIP
	// blocking bounds (worst lower-priority critical section per shared
	// pool) join the schedulability test. Under EDF the blocking priority
	// order is the deadline order (preemption levels). Without an
	// accelerator use every term is zero, so neither is computed.
	var terms []analysis.BlockingTerm
	for i := range set.Tasks {
		if len(set.Tasks[i].Accels) > 0 {
			terms = analysis.PIPBlocking(set, adm.PrioKey)
			adm.Blocking = analysis.Durations(terms)
			break
		}
	}
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
		if anyBlocking(adm.Blocking) {
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

// commit applies the admitted plan at the quiescent barrier: the App lock is
// held while the declaration tables and derived scheduling state are
// rewritten, so every job observes either the old or the new epoch, never a
// mix. Running jobs are untouched; the scheduler is nudged so admitted and
// retuned releases take effect immediately.
func (tx *Reconfig) commit() {
	a := tx.a
	started := a.started.Load()
	rec := tx.commitTables(started)
	a.rec.RecordReconfig(rec)
	// Nudge the scheduler out of its sleep toward the old earliest release:
	// an admitted or retuned task may now release before it.
	if started && a.schedTh != nil {
		a.schedTh.Interrupt()
	}
}

// commitTables is the locked half of commit. It cannot fail: validate ran
// the rules derivation relies on over the same target.
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
		e := a.newEdge(se.src, se.dst, se.ch, se.delay)
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
		t.resetRun(now)
		sh.mu.Unlock()
		rec.Admitted = append(rec.Admitted, t.d.Name)
	}
	// Staged topics go live; staged endpoints register. New subscribers
	// start at the tail: surviving subscribers' cursors are untouched.
	for _, id := range tx.addedTopics {
		a.topics[id].dead = false
	}
	for _, ep := range tx.pubs {
		a.addPubLocked(ep.t, ep.c)
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
		a.addSubLocked(ep.t, ep.c, cursor)
	}
	a.pendingDeadTopics = append(a.pendingDeadTopics, tx.removeTopicOrder...)
	// Derived scheduling state for the new epoch; validate checked every
	// task of it, and its graph holds the same edges as the live lists.
	a.rebuildGraphLocked()
	for i := 0; i < a.ntasks; i++ {
		if t := &a.tasks[i]; t.state == taskRunning || t.state == taskAdmitted {
			a.deriveTaskLocked(tx, t)
		}
	}
	a.refreshTopicsAfterCommitLocked(tx)
	// Instant retirements (removed tasks with no in-flight jobs) and topic
	// reaping.
	for _, id := range tx.removeOrder {
		a.retireDrainedLocked(&a.tasks[id], now)
	}
	a.reapDeadTopicsLocked()
	// Release heaps: keys are absolute instants, so only the transaction's
	// own tasks move: admitted periodic roots and retuned tasks that became
	// one (or changed home) arm, and whatever stopped being a periodic root
	// disarms. Pulled-in retunes re-keyed above, so arming them again moves
	// nothing; no key changes here. A retune that moved the task's home
	// already disarmed it under the OLD home lock (see deriveTaskLocked), so
	// locking the current home covers both cases.
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
	// (TaskActivate's fast path) flip to the new tables with one atomic
	// pointer swap.
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
