// Package trace collects execution metrics from middleware runs: per-job
// records (release, start, finish, deadline), per-task deadline-miss
// statistics, scheduling-overhead samples, and latency histograms with the
// min/max/avg summaries the paper reports in Fig. 2, Table 2 and Fig. 4.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// summary is the count, sum, min and max of duration samples. A Stat
// guards one with its lock; a stats block keeps one of response times.
type summary struct {
	count         int64
	sum, min, max time.Duration
}

func (a *summary) add(d time.Duration) {
	if a.count == 0 || d < a.min {
		a.min = d
	}
	if a.count == 0 || d > a.max {
		a.max = d
	}
	a.count++
	a.sum += d
}

func (a *summary) merge(o summary) {
	if o.count == 0 {
		return
	}
	if a.count == 0 || o.min < a.min {
		a.min = o.min
	}
	if a.count == 0 || o.max > a.max {
		a.max = o.max
	}
	a.count += o.count
	a.sum += o.sum
}

func (a *summary) mean() time.Duration {
	if a.count == 0 {
		return 0
	}
	return a.sum / time.Duration(a.count)
}

// Stat is an online summary of duration samples: count, min, max and mean.
// The zero value is ready to use. Safe for concurrent use.
type Stat struct {
	//yasmin:lockrank 6
	mu   sync.Mutex
	name string
	agg  summary
}

// NewStat creates a named stat.
func NewStat(name string) *Stat {
	return &Stat{name: name}
}

// Name returns the stat's label.
func (s *Stat) Name() string { return s.name }

// Add records one sample.
func (s *Stat) Add(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.agg.add(d)
}

// Count returns the number of samples.
func (s *Stat) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agg.count
}

// Max returns the largest sample (0 if empty).
func (s *Stat) Max() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agg.max
}

// Mean returns the average sample (0 if empty).
func (s *Stat) Mean() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agg.mean()
}

// Summary returns the paper-style "<min, max, avg>" triple.
func (s *Stat) Summary() (min, max, mean time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.agg.count == 0 {
		return 0, 0, 0
	}
	return s.agg.min, s.agg.max, s.agg.mean()
}

// String formats the triple in microseconds, like Table 2.
func (s *Stat) String() string {
	min, max, mean := s.Summary()
	return fmt.Sprintf("%s <%d, %d, %d> µs", s.name,
		min.Microseconds(), max.Microseconds(), mean.Microseconds())
}

// JobRecord captures one job execution.
type JobRecord struct {
	Task     string
	TaskID   int
	Job      int64  // job index of the task
	Version  int    // selected version
	Core     int    // executing virtual core
	Accel    string // accelerator instance held ("" for CPU-only jobs)
	Release  time.Duration
	Start    time.Duration
	Finish   time.Duration
	Deadline time.Duration // absolute
	Missed   bool
	Preempts int // times this job was preempted
}

// ResponseTime returns finish - release.
func (r *JobRecord) ResponseTime() time.Duration { return r.Finish - r.Release }

// ReconfigRecord captures one committed live-reconfiguration epoch: which
// tasks the transaction admitted, retuned and started draining, the mode
// word installed, and how long the quiescent barrier (the application lock
// hold while the tables were rewritten) paused middleware interactions.
type ReconfigRecord struct {
	Epoch    int
	At       time.Duration
	Admitted []string // task names added by the transaction
	Retuned  []string // task names whose timing changed
	Retiring []string // task names draining towards retirement
	Mode     uint32   // execution-mode word after the commit
	Pause    time.Duration
}

// RetireEvent records the completion of a task's drain: the instant its last
// in-flight job finished and the slot was reclaimed.
type RetireEvent struct {
	Task  string
	Epoch int // epoch whose transaction started the drain
	At    time.Duration
}

// AccelEventKind labels one accelerator-arbitration action.
type AccelEventKind int

// Accelerator arbitration actions (Section 3.2 of the paper: shared
// accelerators with priority inheritance).
const (
	// AccelAcquire: a job took a free instance during version selection.
	AccelAcquire AccelEventKind = iota + 1
	// AccelPark: a job parked on a pool's waiter list (all instances busy).
	AccelPark
	// AccelBoost: a holder inherited a more urgent waiter's priority (PIP),
	// possibly transitively along a holder chain.
	AccelBoost
	// AccelGrant: a freed instance was handed directly to the most urgent
	// parked waiter.
	AccelGrant
	// AccelRequeue: a parked waiter was pushed back to the ready queues for
	// a fresh version-selection pass (it may now pick the freed accelerator
	// or a CPU version).
	AccelRequeue
	// AccelRelease: a holder released its instance.
	AccelRelease
)

var accelEventNames = map[AccelEventKind]string{
	AccelAcquire: "acquire",
	AccelPark:    "park",
	AccelBoost:   "boost",
	AccelGrant:   "grant",
	AccelRequeue: "requeue",
	AccelRelease: "release",
}

//yasmin:noalloc
func (k AccelEventKind) String() string {
	if n, ok := accelEventNames[k]; ok {
		return n
	}
	return fmt.Sprintf("AccelEventKind(%d)", int(k)) //yasmin:alloc-ok unknown-kind fallback, cold
}

// AccelEvent records one accelerator-arbitration action: which job touched
// which instance of which pool, at what effective priority (after the
// action). The scenario checker replays these to verify the PIP invariants
// (priority-ordered grants, bounded inversion); park events carry the pool
// head as Accel since no instance is assigned yet.
type AccelEvent struct {
	Kind  AccelEventKind
	Accel string // instance name ("gpu", "gpu#1", ...); pool head for parks
	Pool  string // pool (head) name
	Task  string
	Job   int64 // job index within the task
	Prio  int64 // effective priority after the event (lower = more urgent)
	At    time.Duration
}

// Stream receives every record the instant it is recorded — the streaming
// hook behind the telemetry export pipeline (internal/telemetry implements
// it with a lock-free ring). Implementations must not block: they run on
// the record hot path, before the Recorder takes its own mutex. Methods may
// be called concurrently.
type Stream interface {
	//yasmin:noalloc
	StreamJob(JobRecord)
	StreamReconfig(ReconfigRecord)
	StreamRetire(RetireEvent)
	//yasmin:noalloc
	StreamAccel(AccelEvent)
}

// streamBox wraps the Stream interface so it can live in an atomic.Pointer
// (record paths load it without taking the Recorder mutex).
type streamBox struct{ s Stream }

// namedCap bounds the by-name table. It is far above the distinct names any
// stock scenario, corpus file or example folds there, so their reports keep
// every row; a churning App that outnames it evicts its oldest rows.
const namedCap = 256

// Recorder accumulates job records and per-task statistics. Safe for
// concurrent use. With a Stream attached (SetStream), every record is
// additionally forwarded lock-free before local aggregation.
//
// Per-task stats live in a slot table (Reserve) indexed by
// JobRecord.TaskID: a job takes only its slot's block lock. A slot re-used
// by another task name folds its old totals into the by-name table, which
// also takes every record that has no slot. That table keeps at most
// namedCap names; evicting the oldest keeps its jobs and misses in the
// totals. Readers merge slots and the table by name.
type Recorder struct {
	//yasmin:lockrank 5
	mu        sync.Mutex
	jobs      []JobRecord
	keepJobs  bool
	reconfigs []ReconfigRecord
	retires   []RetireEvent
	accels    []AccelEvent

	slots    []slot
	versions int // version counters per slot block

	byName        map[string]*totals
	order         []string // byName's keys in insertion order, a ring from oldest
	oldest        int
	evicts        int64 // by-name rows evicted
	evictedJobs   int64 // jobs of the evicted rows
	evictedMisses int64 // misses of the evicted rows

	stream atomic.Pointer[streamBox]
}

// totals is one task's running outcome.
type totals struct {
	resp             summary // response times; resp.count is the job count
	misses, preempts int64
	worstLate        time.Duration // worst (finish - deadline), floored at 0
	versions         []int64       // jobs per version
}

// block is one slot's totals under the task name that owns them.
type block struct {
	//yasmin:lockrank 6
	mu   sync.Mutex
	name string
	totals
}

// slot holds a task slot's job stats and, once its task records as a graph
// sink, the end-to-end graph stats.
type slot struct {
	block
	graph atomic.Pointer[block]
}

// TaskStats is a snapshot of one task's outcomes.
type TaskStats struct {
	Task      string
	Jobs      int64
	Misses    int64
	Preempts  int64
	Response  *Stat
	Versions  map[int]int64 // jobs per version
	WorstLate time.Duration // worst (finish - deadline), > 0 means tardiness
}

// NewRecorder creates a recorder. keepJobs retains every JobRecord (needed
// for Gantt export); per-task stats are always kept.
func NewRecorder(keepJobs bool) *Recorder {
	return &Recorder{keepJobs: keepJobs, byName: make(map[string]*totals)}
}

// Reserve gives the recorder one stats slot per task ID in [0, slots), each
// counting versions [0, versions). It allocates the whole table at once, so
// a reserved task's first record allocates nothing. Call it before the
// first record; a record whose TaskID is outside the table goes to the
// by-name table.
func (r *Recorder) Reserve(slots, versions int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.slots = make([]slot, slots)
	r.versions = versions
	counts := make([]int64, slots*versions)
	for i := range r.slots {
		r.slots[i].versions = counts[i*versions : (i+1)*versions : (i+1)*versions]
	}
}

// SetStream attaches (or, with nil, detaches) a streaming consumer. From
// then on every record is forwarded to it on the recording goroutine,
// without the Recorder mutex, before being aggregated locally. Retention
// semantics (keepJobs, reconfig/retire/accel lists) are unchanged —
// streaming is additive, and callers that only want the stream simply
// leave retention off.
func (r *Recorder) SetStream(s Stream) {
	if s == nil {
		r.stream.Store(nil)
		return
	}
	r.stream.Store(&streamBox{s: s})
}

// Record adds a completed job.
//
//yasmin:noalloc
func (r *Recorder) Record(j JobRecord) {
	r.record(&j, false)
}

// RecordGraph adds one end-to-end instance of a graph whose sink is task
// j.TaskID; j.Task names the graph. It is kept apart from the sink's own
// jobs.
//
//yasmin:noalloc
func (r *Recorder) RecordGraph(j JobRecord) {
	r.record(&j, true)
}

//yasmin:noalloc
func (r *Recorder) record(j *JobRecord, graph bool) {
	if b := r.stream.Load(); b != nil {
		b.s.StreamJob(*j)
	}
	if r.keepJobs {
		r.mu.Lock()
		r.jobs = append(r.jobs, *j)
		r.mu.Unlock()
	}
	if uint(j.TaskID) >= uint(len(r.slots)) {
		r.mu.Lock()
		r.namedLocked(j.Task).add(j)
		r.mu.Unlock()
		return
	}
	b := &r.slots[j.TaskID].block
	if graph {
		b = r.graphBlock(j.TaskID)
	}
	b.mu.Lock()
	if b.name != j.Task {
		b.mu.Unlock()
		r.mu.Lock()
		b.mu.Lock()
		r.claimLocked(b, j.Task)
		r.mu.Unlock()
	}
	b.add(j)
	b.mu.Unlock()
}

// graphBlock returns slot id's graph block, allocating it on first use.
//
//yasmin:noalloc
func (r *Recorder) graphBlock(id int) *block {
	s := &r.slots[id]
	if g := s.graph.Load(); g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := s.graph.Load()
	if g == nil {
		g = &block{totals: totals{versions: make([]int64, r.versions)}} //yasmin:alloc-ok once per graph sink slot
		s.graph.Store(g)
	}
	return g
}

// claimLocked hands block b to task name. Totals another task left there
// fold into the by-name table first. Caller holds r.mu and b.mu.
//
//yasmin:noalloc
func (r *Recorder) claimLocked(b *block, name string) {
	if b.name == name {
		return
	}
	if b.resp.count > 0 {
		r.namedLocked(b.name).merge(&b.totals)
	}
	b.totals = totals{versions: b.versions}
	clear(b.versions)
	b.name = name
}

// namedLocked returns name's by-name row, creating it and, when the table
// is full, evicting the oldest row into the evicted totals. Caller holds
// r.mu.
//
//yasmin:noalloc
func (r *Recorder) namedLocked(name string) *totals {
	if t := r.byName[name]; t != nil {
		return t
	}
	var t *totals
	if len(r.order) < namedCap {
		t = new(totals) //yasmin:alloc-ok a name's first by-name row
		r.order = append(r.order, name)
	} else {
		old := r.order[r.oldest]
		t = r.byName[old]
		delete(r.byName, old)
		r.evicts++
		r.evictedJobs += t.resp.count
		r.evictedMisses += t.misses
		*t = totals{versions: t.versions[:0]}
		r.order[r.oldest] = name
		r.oldest = (r.oldest + 1) % namedCap
	}
	r.byName[name] = t
	return t
}

// add counts job j. A reserved block's version counters cover every
// version core sends; others grow on demand.
//
//yasmin:noalloc
func (t *totals) add(j *JobRecord) {
	t.resp.add(j.ResponseTime())
	t.preempts += int64(j.Preempts)
	if j.Missed {
		t.misses++
	}
	if late := j.Finish - j.Deadline; late > t.worstLate {
		t.worstLate = late
	}
	for j.Version >= len(t.versions) {
		t.versions = append(t.versions, 0)
	}
	t.versions[j.Version]++
}

// merge folds o into t.
//
//yasmin:noalloc
func (t *totals) merge(o *totals) {
	if o.resp.count == 0 {
		return
	}
	t.resp.merge(o.resp)
	t.misses += o.misses
	t.preempts += o.preempts
	t.worstLate = max(t.worstLate, o.worstLate)
	for len(t.versions) < len(o.versions) {
		t.versions = append(t.versions, 0)
	}
	for v, n := range o.versions {
		t.versions[v] += n
	}
}

// snapshot returns t as task name's TaskStats.
func (t *totals) snapshot(name string) *TaskStats {
	ts := &TaskStats{
		Task: name, Jobs: t.resp.count, Misses: t.misses, Preempts: t.preempts, WorstLate: t.worstLate,
		Response: &Stat{name: name + "/response", agg: t.resp},
		Versions: make(map[int]int64),
	}
	for v, n := range t.versions {
		if n > 0 {
			ts.Versions[v] = n
		}
	}
	return ts
}

// eachBlockLocked calls fn on every slot block that recorded a job, under
// that block's lock. Caller holds r.mu.
func (r *Recorder) eachBlockLocked(fn func(b *block)) {
	for i := range r.slots {
		s := &r.slots[i]
		for _, b := range [2]*block{&s.block, s.graph.Load()} {
			if b == nil {
				continue
			}
			b.mu.Lock()
			if b.resp.count > 0 {
				fn(b)
			}
			b.mu.Unlock()
		}
	}
}

// mergedLocked returns every task's totals, merged by name. Caller holds
// r.mu.
func (r *Recorder) mergedLocked() map[string]*totals {
	out := make(map[string]*totals, len(r.byName))
	add := func(name string, t *totals) {
		acc := out[name]
		if acc == nil {
			acc = new(totals)
			out[name] = acc
		}
		acc.merge(t)
	}
	for name, t := range r.byName {
		if t.resp.count > 0 {
			add(name, t)
		}
	}
	r.eachBlockLocked(func(b *block) { add(b.name, &b.totals) })
	return out
}

// RecordReconfig adds one committed reconfiguration epoch.
func (r *Recorder) RecordReconfig(rec ReconfigRecord) {
	if b := r.stream.Load(); b != nil {
		b.s.StreamReconfig(rec)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reconfigs = append(r.reconfigs, rec)
}

// RecordRetire adds one completed task retirement.
func (r *Recorder) RecordRetire(e RetireEvent) {
	if b := r.stream.Load(); b != nil {
		b.s.StreamRetire(e)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retires = append(r.retires, e)
}

// RecordAccel adds one accelerator-arbitration event.
//
//yasmin:noalloc
func (r *Recorder) RecordAccel(e AccelEvent) {
	if b := r.stream.Load(); b != nil {
		b.s.StreamAccel(e)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.accels = append(r.accels, e)
}

// AccelEvents returns a copy of the recorded accelerator events, in the
// order the arbitration actions happened.
func (r *Recorder) AccelEvents() []AccelEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]AccelEvent, len(r.accels))
	copy(out, r.accels)
	return out
}

// Reconfigs returns a copy of the recorded reconfiguration epochs.
func (r *Recorder) Reconfigs() []ReconfigRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ReconfigRecord, len(r.reconfigs))
	copy(out, r.reconfigs)
	return out
}

// Retires returns a copy of the recorded retirement completions.
func (r *Recorder) Retires() []RetireEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RetireEvent, len(r.retires))
	copy(out, r.retires)
	return out
}

// Jobs returns a copy of the retained job records.
func (r *Recorder) Jobs() []JobRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobRecord, len(r.jobs))
	copy(out, r.jobs)
	return out
}

// Task returns a snapshot of one task's stats (nil if it recorded no job).
func (r *Recorder) Task(name string) *TaskStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	var acc totals
	if t := r.byName[name]; t != nil {
		acc.merge(t)
	}
	r.eachBlockLocked(func(b *block) {
		if b.name == name {
			acc.merge(&b.totals)
		}
	})
	if acc.resp.count == 0 {
		return nil
	}
	return acc.snapshot(name)
}

// TaskNames returns the names of all tasks that recorded a job, sorted.
func (r *Recorder) TaskNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedNames(r.mergedLocked())
}

func sortedNames(m map[string]*totals) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalJobs returns the number of recorded jobs across tasks.
func (r *Recorder) TotalJobs() int64 {
	jobs, _ := r.totalJobsMisses()
	return jobs
}

// TotalMisses returns the number of missed deadlines across tasks.
func (r *Recorder) TotalMisses() int64 {
	_, misses := r.totalJobsMisses()
	return misses
}

// totalJobsMisses sums jobs and misses over slots, by-name rows and evicted
// rows without allocating.
func (r *Recorder) totalJobsMisses() (jobs, misses int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	jobs, misses = r.evictedJobs, r.evictedMisses
	for _, t := range r.byName {
		jobs += t.resp.count
		misses += t.misses
	}
	r.eachBlockLocked(func(b *block) {
		jobs += b.resp.count
		misses += b.misses
	})
	return jobs, misses
}

// MissRatio returns misses/jobs (0 when no jobs ran).
func (r *Recorder) MissRatio() float64 {
	jobs, misses := r.totalJobsMisses()
	if jobs == 0 {
		return 0
	}
	return float64(misses) / float64(jobs)
}

// WriteSummary prints a per-task table, sorted by task name so the output
// is byte-stable across runs and record interleavings (CI diffs the
// summaries). The whole table is one consistent snapshot taken under one
// hold of the Recorder mutex, so concurrent Record calls cannot tear the
// view mid-print. Evicted by-name rows are counted on a last line.
func (r *Recorder) WriteSummary(w io.Writer) error {
	r.mu.Lock()
	merged := r.mergedLocked()
	evicts, evictedJobs, evictedMisses := r.evicts, r.evictedJobs, r.evictedMisses
	r.mu.Unlock()
	for _, n := range sortedNames(merged) {
		t := merged[n]
		_, err := fmt.Fprintf(w, "%-24s jobs=%-6d misses=%-5d resp<%v,%v,%v> preempts=%d\n",
			n, t.resp.count, t.misses, t.resp.min, t.resp.max, t.resp.mean(), t.preempts)
		if err != nil {
			return fmt.Errorf("trace: write summary: %w", err)
		}
	}
	if evicts > 0 {
		if _, err := fmt.Fprintf(w, "(%d retired task rows evicted: %d jobs, %d misses counted in totals only)\n",
			evicts, evictedJobs, evictedMisses); err != nil {
			return fmt.Errorf("trace: write summary: %w", err)
		}
	}
	return nil
}

// Gantt renders a crude text Gantt chart of the retained jobs over
// [0, horizon) with the given number of character columns per core line.
func (r *Recorder) Gantt(w io.Writer, horizon time.Duration, cols int) error {
	if cols <= 0 {
		return fmt.Errorf("trace: gantt needs positive cols")
	}
	jobs := r.Jobs()
	if len(jobs) == 0 {
		return fmt.Errorf("trace: gantt needs retained jobs (NewRecorder(true))")
	}
	maxCore := 0
	for _, j := range jobs {
		if j.Core > maxCore {
			maxCore = j.Core
		}
	}
	lines := make([][]byte, maxCore+1)
	for i := range lines {
		lines[i] = []byte(strings.Repeat(".", cols))
	}
	for _, j := range jobs {
		if j.Start >= horizon {
			continue
		}
		from := int(int64(j.Start) * int64(cols) / int64(horizon))
		to := int(int64(j.Finish) * int64(cols) / int64(horizon))
		if to >= cols {
			to = cols - 1
		}
		ch := byte('a' + j.TaskID%26)
		for c := from; c <= to; c++ {
			lines[j.Core][c] = ch
		}
	}
	for core, ln := range lines {
		if _, err := fmt.Fprintf(w, "core%-2d |%s|\n", core, ln); err != nil {
			return fmt.Errorf("trace: write gantt: %w", err)
		}
	}
	return nil
}

// OverheadKind labels an overhead sample's origin.
type OverheadKind int

// Overhead sample origins.
const (
	OverheadSchedule OverheadKind = iota + 1 // scheduler-thread activation work
	OverheadDispatch                         // pushing/popping ready queues + wakeups
	OverheadPreempt                          // signal + context switch costs
	OverheadLock                             // lock contention (spinning/futex)
)

var overheadNames = map[OverheadKind]string{
	OverheadSchedule: "schedule",
	OverheadDispatch: "dispatch",
	OverheadPreempt:  "preempt",
	OverheadLock:     "lock",
}

func (k OverheadKind) String() string {
	if n, ok := overheadNames[k]; ok {
		return n
	}
	return fmt.Sprintf("OverheadKind(%d)", int(k))
}

// Overheads aggregates overhead samples by kind — the measurement behind
// Fig. 2. Safe for concurrent use: a sample takes only its kind's Stat lock.
type Overheads struct {
	kinds [OverheadLock]Stat // indexed by kind - 1
}

// NewOverheads creates an empty overhead aggregate.
func NewOverheads() *Overheads {
	o := &Overheads{}
	for i := range o.kinds {
		o.kinds[i].name = OverheadKind(i + 1).String()
	}
	return o
}

// Add records one overhead sample.
//
//yasmin:noalloc
func (o *Overheads) Add(k OverheadKind, d time.Duration) {
	o.kinds[k-1].Add(d)
}

// Total returns a snapshot of the samples of every kind, merged.
func (o *Overheads) Total() *Stat {
	all := NewStat("overhead")
	for i := range o.kinds {
		st := &o.kinds[i]
		st.mu.Lock()
		agg := st.agg
		st.mu.Unlock()
		all.agg.merge(agg)
	}
	return all
}

// Kind returns the stat for one kind (nil if no samples).
func (o *Overheads) Kind(k OverheadKind) *Stat {
	if uint(k-1) >= uint(len(o.kinds)) || o.kinds[k-1].Count() == 0 {
		return nil
	}
	return &o.kinds[k-1]
}

// SchedStats is the scheduler core's counter snapshot: idle-list wakes,
// preemption signalling (with per-dispatch-pass dedup hits) and epoch
// snapshot publications. All counters are cumulative since Start.
type SchedStats struct {
	// Steals, StealMisses and Migrations always read 0: the global mapping
	// shares one ready queue, so no job moves between queues. They remain
	// only because the benchmark still reports them; the next change to the
	// benchmark drops them.
	Steals      int64 `json:"steals"`
	StealMisses int64 `json:"steal_misses"`
	Migrations  int64 `json:"migrations"`
	// IdleWakes counts workers woken off the idle list by the dispatcher.
	IdleWakes int64 `json:"idle_wakes"`
	// Signals counts preemption signals delivered to running fibers.
	Signals int64 `json:"signals"`
	// SignalsDeduped counts preemption signals suppressed because the
	// worker was already signalled in the same dispatch pass.
	SignalsDeduped int64 `json:"signals_deduped"`
	// ViewPublishes counts schedView epoch snapshot publications (Start
	// plus one per reconfiguration commit).
	ViewPublishes int64 `json:"view_publishes"`
}

// Add accumulates o into s; cluster reports sum the per-node snapshots.
func (s *SchedStats) Add(o SchedStats) {
	s.IdleWakes += o.IdleWakes
	s.Signals += o.Signals
	s.SignalsDeduped += o.SignalsDeduped
	s.ViewPublishes += o.ViewPublishes
}
