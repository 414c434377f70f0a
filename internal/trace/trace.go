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

// Stat is an online summary of duration samples: count, min, max, mean, and
// optionally the full sample set for percentiles. The zero value is ready to
// use (unbounded sample retention disabled). Safe for concurrent use.
type Stat struct {
	//yasmin:lockrank 6
	mu      sync.Mutex
	name    string
	count   int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	samples []time.Duration
	keep    bool
}

// NewStat creates a named stat. If keepSamples is true every sample is
// retained for percentile queries (capacity grows as needed).
func NewStat(name string, keepSamples bool) *Stat {
	return &Stat{name: name, keep: keepSamples}
}

// Name returns the stat's label.
func (s *Stat) Name() string { return s.name }

// Add records one sample.
func (s *Stat) Add(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 || d < s.min {
		s.min = d
	}
	if s.count == 0 || d > s.max {
		s.max = d
	}
	s.count++
	s.sum += d
	if s.keep {
		s.samples = append(s.samples, d)
	}
}

// Count returns the number of samples.
func (s *Stat) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Min returns the smallest sample (0 if empty).
func (s *Stat) Min() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.min
}

// Max returns the largest sample (0 if empty).
func (s *Stat) Max() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max
}

// Mean returns the average sample (0 if empty).
func (s *Stat) Mean() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return 0
	}
	return s.sum / time.Duration(s.count)
}

// Percentile returns the p-th percentile (0 < p <= 100) of retained samples.
// It returns an error when samples were not retained or p is out of range.
func (s *Stat) Percentile(p float64) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.keep {
		return 0, fmt.Errorf("trace: stat %q does not retain samples", s.name)
	}
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("trace: percentile %g out of (0,100]", p)
	}
	if len(s.samples) == 0 {
		return 0, nil
	}
	sorted := make([]time.Duration, len(s.samples))
	copy(sorted, s.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(float64(len(sorted))*p/100) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], nil
}

// Summary returns the paper-style "<min, max, avg>" triple.
func (s *Stat) Summary() (min, max, mean time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return 0, 0, 0
	}
	return s.min, s.max, s.sum / time.Duration(s.count)
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
	StreamJob(JobRecord)
	StreamReconfig(ReconfigRecord)
	StreamRetire(RetireEvent)
	StreamAccel(AccelEvent)
}

// streamBox wraps the Stream interface so it can live in an atomic.Pointer
// (record paths load it without taking the Recorder mutex).
type streamBox struct{ s Stream }

// Recorder accumulates job records and per-task statistics. Safe for
// concurrent use. With a Stream attached (SetStream), every record is
// additionally forwarded lock-free before local aggregation.
type Recorder struct {
	//yasmin:lockrank 5
	mu        sync.Mutex
	jobs      []JobRecord
	keepJobs  bool
	perTask   map[string]*TaskStats
	reconfigs []ReconfigRecord
	retires   []RetireEvent
	accels    []AccelEvent

	stream atomic.Pointer[streamBox]
}

// TaskStats aggregates per-task outcomes.
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
	return &Recorder{keepJobs: keepJobs, perTask: make(map[string]*TaskStats)}
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
func (r *Recorder) Record(j JobRecord) {
	if b := r.stream.Load(); b != nil {
		b.s.StreamJob(j)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.keepJobs {
		r.jobs = append(r.jobs, j)
	}
	ts := r.perTask[j.Task]
	if ts == nil {
		ts = &TaskStats{
			Task:     j.Task,
			Response: NewStat(j.Task+"/response", false),
			Versions: make(map[int]int64),
		}
		r.perTask[j.Task] = ts
	}
	ts.Jobs++
	ts.Preempts += int64(j.Preempts)
	if j.Missed {
		ts.Misses++
	}
	if late := j.Finish - j.Deadline; late > ts.WorstLate {
		ts.WorstLate = late
	}
	ts.Response.Add(j.ResponseTime())
	ts.Versions[j.Version]++
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

// Task returns the stats for one task (nil if unknown).
func (r *Recorder) Task(name string) *TaskStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.perTask[name]
}

// TaskNames returns all task names, sorted.
func (r *Recorder) TaskNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.perTask))
	for n := range r.perTask {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalJobs returns the number of recorded jobs across tasks.
func (r *Recorder) TotalJobs() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, ts := range r.perTask {
		n += ts.Jobs
	}
	return n
}

// TotalMisses returns the number of missed deadlines across tasks.
func (r *Recorder) TotalMisses() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, ts := range r.perTask {
		n += ts.Misses
	}
	return n
}

// MissRatio returns misses/jobs (0 when no jobs ran).
func (r *Recorder) MissRatio() float64 {
	jobs := r.TotalJobs()
	if jobs == 0 {
		return 0
	}
	return float64(r.TotalMisses()) / float64(jobs)
}

// WriteSummary prints a per-task table, sorted by task name so the output
// is byte-stable across runs and record interleavings (CI diffs the
// summaries). The whole table is one consistent snapshot: the task list and
// every row come from a single lock acquisition, so concurrent Record calls
// cannot tear the view mid-print.
func (r *Recorder) WriteSummary(w io.Writer) error {
	type row struct {
		task           string
		jobs, misses   int64
		preempts       int64
		min, max, mean time.Duration
	}
	r.mu.Lock()
	rows := make([]row, 0, len(r.perTask))
	for _, ts := range r.perTask {
		min, max, mean := ts.Response.Summary()
		rows = append(rows, row{
			task: ts.Task, jobs: ts.Jobs, misses: ts.Misses,
			preempts: ts.Preempts, min: min, max: max, mean: mean,
		})
	}
	r.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].task < rows[j].task })
	for _, ts := range rows {
		_, err := fmt.Fprintf(w, "%-24s jobs=%-6d misses=%-5d resp<%v,%v,%v> preempts=%d\n",
			ts.task, ts.jobs, ts.misses, ts.min, ts.max, ts.mean, ts.preempts)
		if err != nil {
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

// Overheads aggregates overhead samples by kind plus a global stat — the
// measurement behind Fig. 2. Safe for concurrent use.
type Overheads struct {
	//yasmin:lockrank 5
	mu     sync.Mutex
	all    *Stat
	byKind map[OverheadKind]*Stat
}

// NewOverheads creates an empty overhead aggregate.
func NewOverheads() *Overheads {
	return &Overheads{
		all:    NewStat("overhead", false),
		byKind: make(map[OverheadKind]*Stat),
	}
}

// Add records one overhead sample.
func (o *Overheads) Add(k OverheadKind, d time.Duration) {
	o.mu.Lock()
	st := o.byKind[k]
	if st == nil {
		st = NewStat(k.String(), false)
		o.byKind[k] = st
	}
	o.mu.Unlock()
	st.Add(d)
	o.all.Add(d)
}

// Total returns the global stat across kinds.
func (o *Overheads) Total() *Stat { return o.all }

// Kind returns the stat for one kind (nil if no samples).
func (o *Overheads) Kind(k OverheadKind) *Stat {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.byKind[k]
}

// Kinds returns the kinds that have samples, in ascending order.
func (o *Overheads) Kinds() []OverheadKind {
	o.mu.Lock()
	defer o.mu.Unlock()
	ks := make([]OverheadKind, 0, len(o.byKind))
	for k := range o.byKind {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// SchedStats is the sharded scheduler core's counter snapshot: work-stealing
// traffic, cross-shard preemption migrations, idle-list wakes, preemption
// signalling (with per-dispatch-pass dedup hits) and epoch snapshot
// publications. All counters are cumulative since Start.
type SchedStats struct {
	// Steals counts jobs a worker popped from a sibling shard's queue
	// (global mapping only; partitioned placements never steal).
	Steals int64 `json:"steals"`
	// StealMisses counts steal attempts that found the victim's queue
	// empty after locking it (the lock-free load mirror was stale).
	StealMisses int64 `json:"steal_misses"`
	// Migrations counts queued jobs the dispatcher moved into a preemption
	// victim's shard to preserve global priority order.
	Migrations int64 `json:"migrations"`
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
	s.Steals += o.Steals
	s.StealMisses += o.StealMisses
	s.Migrations += o.Migrations
	s.IdleWakes += o.IdleWakes
	s.Signals += o.Signals
	s.SignalsDeduped += o.SignalsDeduped
	s.ViewPublishes += o.ViewPublishes
}
