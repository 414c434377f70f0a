package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestStatSummary(t *testing.T) {
	s := NewStat("lat")
	for _, d := range []time.Duration{ms(5), ms(1), ms(9), ms(5)} {
		s.Add(d)
	}
	min, max, mean := s.Summary()
	if min != ms(1) || max != ms(9) || mean != ms(5) {
		t.Errorf("summary = %v,%v,%v, want 1ms,9ms,5ms", min, max, mean)
	}
	if s.Count() != 4 {
		t.Errorf("count = %d, want 4", s.Count())
	}
	if got := s.String(); !strings.Contains(got, "<1000, 9000, 5000>") {
		t.Errorf("String() = %q", got)
	}
}

func TestStatEmpty(t *testing.T) {
	s := NewStat("empty")
	min, max, mean := s.Summary()
	if min != 0 || max != 0 || mean != 0 {
		t.Error("empty stat must summarise to zeros")
	}
}

func TestRecorderPerTaskStats(t *testing.T) {
	r := NewRecorder(false)
	r.Record(JobRecord{Task: "a", TaskID: 0, Release: 0, Start: ms(1), Finish: ms(5), Deadline: ms(10), Version: 0})
	r.Record(JobRecord{Task: "a", TaskID: 0, Release: ms(10), Start: ms(11), Finish: ms(25), Deadline: ms(20), Missed: true, Version: 1, Preempts: 2})
	r.Record(JobRecord{Task: "b", TaskID: 1, Release: 0, Start: 0, Finish: ms(2), Deadline: ms(4), Version: 0})

	if got := r.TotalJobs(); got != 3 {
		t.Errorf("TotalJobs = %d, want 3", got)
	}
	if got := r.TotalMisses(); got != 1 {
		t.Errorf("TotalMisses = %d, want 1", got)
	}
	if got := r.MissRatio(); got < 0.33 || got > 0.34 {
		t.Errorf("MissRatio = %g, want ~1/3", got)
	}
	a := r.Task("a")
	if a.Jobs != 2 || a.Misses != 1 || a.Preempts != 2 {
		t.Errorf("task a stats = %+v", a)
	}
	if a.WorstLate != ms(5) {
		t.Errorf("WorstLate = %v, want 5ms", a.WorstLate)
	}
	if a.Versions[0] != 1 || a.Versions[1] != 1 {
		t.Errorf("version histogram = %v", a.Versions)
	}
	names := r.TaskNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
	if r.Task("missing") != nil {
		t.Error("unknown task must return nil")
	}
}

func TestRecorderSummaryOutput(t *testing.T) {
	r := NewRecorder(false)
	r.Record(JobRecord{Task: "x", Finish: ms(3), Deadline: ms(5)})
	var buf bytes.Buffer
	if err := r.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x") || !strings.Contains(buf.String(), "jobs=1") {
		t.Errorf("summary = %q", buf.String())
	}
}

func TestGantt(t *testing.T) {
	r := NewRecorder(true)
	r.Record(JobRecord{Task: "a", TaskID: 0, Core: 0, Start: 0, Finish: ms(50), Deadline: ms(100)})
	r.Record(JobRecord{Task: "b", TaskID: 1, Core: 1, Start: ms(50), Finish: ms(100), Deadline: ms(100)})
	var buf bytes.Buffer
	if err := r.Gantt(&buf, ms(100), 20); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "core0") || !strings.Contains(out, "core1") {
		t.Errorf("gantt = %q", out)
	}
	if !strings.Contains(out, "aaaa") || !strings.Contains(out, "bbbb") {
		t.Errorf("gantt missing bars: %q", out)
	}
}

func TestGanttErrors(t *testing.T) {
	r := NewRecorder(false)
	var buf bytes.Buffer
	if err := r.Gantt(&buf, ms(10), 10); err == nil {
		t.Error("want error without retained jobs")
	}
	r2 := NewRecorder(true)
	r2.Record(JobRecord{Task: "a"})
	if err := r2.Gantt(&buf, ms(10), 0); err == nil {
		t.Error("want error for zero cols")
	}
}

func TestOverheads(t *testing.T) {
	o := NewOverheads()
	o.Add(OverheadSchedule, 10*time.Microsecond)
	o.Add(OverheadSchedule, 20*time.Microsecond)
	o.Add(OverheadLock, 5*time.Microsecond)
	if got := o.Total().Count(); got != 3 {
		t.Errorf("total count = %d, want 3", got)
	}
	if got := o.Kind(OverheadSchedule).Mean(); got != 15*time.Microsecond {
		t.Errorf("schedule mean = %v, want 15µs", got)
	}
	if o.Kind(OverheadPreempt) != nil {
		t.Error("unsampled kind must be nil")
	}
	if got := o.Kind(OverheadLock).Count(); got != 1 {
		t.Errorf("lock count = %d, want 1", got)
	}
	if OverheadDispatch.String() != "dispatch" {
		t.Errorf("kind name = %q", OverheadDispatch)
	}
}

func TestJobRecordResponseTime(t *testing.T) {
	j := JobRecord{Release: ms(10), Finish: ms(35)}
	if got := j.ResponseTime(); got != ms(25) {
		t.Errorf("response = %v, want 25ms", got)
	}
}

func TestWriteSummaryByteStable(t *testing.T) {
	// Two recorders fed the same records in different orders must print
	// byte-identical summaries (CI diffs them).
	recs := []JobRecord{
		{Task: "zeta", Finish: ms(3), Deadline: ms(5)},
		{Task: "alpha", Finish: ms(2), Deadline: ms(5)},
		{Task: "mid", Finish: ms(9), Deadline: ms(5), Missed: true, Preempts: 1},
		{Task: "alpha", Finish: ms(4), Deadline: ms(5)},
	}
	r1, r2 := NewRecorder(false), NewRecorder(false)
	for _, j := range recs {
		r1.Record(j)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		r2.Record(recs[i])
	}
	var b1, b2 bytes.Buffer
	if err := r1.WriteSummary(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteSummary(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("summaries differ by record order:\n%s\n---\n%s", b1.String(), b2.String())
	}
	// Tasks must appear in sorted order.
	out := b1.String()
	if !(strings.Index(out, "alpha") < strings.Index(out, "mid") &&
		strings.Index(out, "mid") < strings.Index(out, "zeta")) {
		t.Fatalf("tasks not sorted:\n%s", out)
	}
	// And repeated prints are stable too.
	var b3 bytes.Buffer
	if err := r1.WriteSummary(&b3); err != nil {
		t.Fatal(err)
	}
	if b3.String() != b1.String() {
		t.Fatal("repeated WriteSummary not byte-identical")
	}
}

// countingStream counts forwarded records, per kind.
type countingStream struct {
	jobs, reconfigs, retires, accels int
	lastJob                          JobRecord
}

func (c *countingStream) StreamJob(j JobRecord)         { c.jobs++; c.lastJob = j }
func (c *countingStream) StreamReconfig(ReconfigRecord) { c.reconfigs++ }
func (c *countingStream) StreamRetire(RetireEvent)      { c.retires++ }
func (c *countingStream) StreamAccel(AccelEvent)        { c.accels++ }

func TestRecorderForwardsToStream(t *testing.T) {
	r := NewRecorder(false)
	cs := &countingStream{}
	r.SetStream(cs)
	r.Record(JobRecord{Task: "a", Job: 7, Finish: ms(1), Deadline: ms(2)})
	r.RecordReconfig(ReconfigRecord{Epoch: 1})
	r.RecordRetire(RetireEvent{Task: "a"})
	r.RecordAccel(AccelEvent{Kind: AccelAcquire, Pool: "gpu"})
	if cs.jobs != 1 || cs.reconfigs != 1 || cs.retires != 1 || cs.accels != 1 {
		t.Fatalf("stream saw %+v", *cs)
	}
	if cs.lastJob.Job != 7 {
		t.Fatalf("job record mangled in forwarding: %+v", cs.lastJob)
	}
	// Retention is unchanged by streaming.
	if r.TotalJobs() != 1 || len(r.Reconfigs()) != 1 || len(r.Retires()) != 1 || len(r.AccelEvents()) != 1 {
		t.Fatal("streaming replaced retention instead of adding to it")
	}
	// Detach: no further forwards.
	r.SetStream(nil)
	r.Record(JobRecord{Task: "a"})
	if cs.jobs != 1 {
		t.Fatal("detached stream still receives records")
	}
}

// nopStream does nothing — the alloc-measurement stand-in for a pipeline.
type nopStream struct{}

func (nopStream) StreamJob(JobRecord)           {}
func (nopStream) StreamReconfig(ReconfigRecord) {}
func (nopStream) StreamRetire(RetireEvent)      {}
func (nopStream) StreamAccel(AccelEvent)        {}

func TestRecordWithStreamAllocationFree(t *testing.T) {
	r := NewRecorder(false)
	r.SetStream(nopStream{})
	j := JobRecord{Task: "steady", Finish: ms(1), Deadline: ms(2)}
	if avg := testing.AllocsPerRun(1000, func() { r.Record(j) }); avg != 0 {
		t.Fatalf("steady-state Record with a stream allocates %.1f times per call", avg)
	}
}

// TestDeclaredFirstRecordAllocatesNothing pins the point of Declare: the
// first job of a declared task records without allocating, and a declared
// task with no job stays invisible to every reader.
func TestDeclaredFirstRecordAllocatesNothing(t *testing.T) {
	r := NewRecorder(false)
	names := make([]string, 200)
	for i := range names {
		names[i] = "t" + strings.Repeat("x", i)
		r.Declare(names[i])
	}
	if got := r.TaskNames(); len(got) != 0 {
		t.Fatalf("TaskNames lists declared tasks without jobs: %v", got)
	}
	if r.Task(names[0]) != nil {
		t.Fatal("Task returns a declared task without jobs")
	}
	var buf bytes.Buffer
	if err := r.WriteSummary(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("WriteSummary printed declared tasks without jobs: %q (%v)", buf.String(), err)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(names)-1, func() {
		r.Record(JobRecord{Task: names[i], Finish: ms(1), Deadline: ms(2), Version: 1})
		i++
	})
	if allocs != 0 {
		t.Fatalf("first Record of a declared task allocates %.1f times, want 0", allocs)
	}
	if ts := r.Task(names[0]); ts == nil || ts.Jobs != 1 || ts.Versions[1] != 1 {
		t.Fatalf("declared task's first job not recorded: %+v", ts)
	}
}
