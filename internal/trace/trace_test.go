package trace

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
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

// TestReservedFirstRecordAllocatesNothing pins the point of Reserve: the
// first job of every reserved slot records without allocating, and a slot
// with no job stays invisible to every reader.
func TestReservedFirstRecordAllocatesNothing(t *testing.T) {
	r := NewRecorder(false)
	r.Reserve(200, 2)
	names := make([]string, 200)
	for i := range names {
		names[i] = "t" + strings.Repeat("x", i)
	}
	if got := r.TaskNames(); len(got) != 0 {
		t.Fatalf("TaskNames lists slots without jobs: %v", got)
	}
	var buf bytes.Buffer
	if err := r.WriteSummary(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("WriteSummary printed slots without jobs: %q (%v)", buf.String(), err)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(names)-1, func() {
		r.Record(JobRecord{Task: names[i], TaskID: i, Finish: ms(1), Deadline: ms(2), Version: 1})
		i++
	})
	if allocs != 0 {
		t.Fatalf("first Record into a reserved slot allocates %.1f times, want 0", allocs)
	}
	if ts := r.Task(names[0]); ts == nil || ts.Jobs != 1 || ts.Versions[1] != 1 || len(ts.Versions) != 1 {
		t.Fatalf("slot's first job not recorded: %+v", ts)
	}
	if got := len(r.TaskNames()); got != len(names) { // AllocsPerRun runs once more to warm up
		t.Fatalf("%d names after %d first records", got, len(names))
	}
}

// TestSlotReuse retires X from its slot and hands the slot to Y: X keeps
// its row, Y starts at zero, and X re-added elsewhere under its name keeps
// accumulating.
func TestSlotReuse(t *testing.T) {
	r := NewRecorder(false)
	r.Reserve(4, 2)
	r.Record(JobRecord{Task: "X", TaskID: 1, Release: 0, Finish: ms(3), Deadline: ms(2), Missed: true})
	r.Record(JobRecord{Task: "X", TaskID: 1, Release: ms(10), Finish: ms(11), Deadline: ms(20), Version: 1})
	r.Record(JobRecord{Task: "Y", TaskID: 1, Release: 0, Finish: ms(5), Deadline: ms(10)})
	x, y := r.Task("X"), r.Task("Y")
	if x == nil || x.Jobs != 2 || x.Misses != 1 || x.WorstLate != ms(1) || x.Versions[0] != 1 || x.Versions[1] != 1 {
		t.Fatalf("X after its slot went to Y: %+v", x)
	}
	if min, max, _ := x.Response.Summary(); min != ms(1) || max != ms(3) {
		t.Fatalf("X response <%v, %v>, want <1ms, 3ms>", min, max)
	}
	if y == nil || y.Jobs != 1 || y.Misses != 0 || y.Versions[0] != 1 || len(y.Versions) != 1 {
		t.Fatalf("Y in X's old slot: %+v", y)
	}
	// X comes back in another slot; a second graph sink shares its name.
	r.Record(JobRecord{Task: "X", TaskID: 3, Release: 0, Finish: ms(7), Deadline: ms(10)})
	r.RecordGraph(JobRecord{Task: "graph:X", TaskID: 3, Finish: ms(9), Deadline: ms(10)})
	x = r.Task("X")
	if x.Jobs != 3 || x.Misses != 1 || x.Versions[0] != 2 {
		t.Fatalf("X re-added: %+v", x)
	}
	if min, max, mean := x.Response.Summary(); min != ms(1) || max != ms(7) || mean != ms(11)/3 {
		t.Fatalf("X re-added response <%v, %v, %v>", min, max, mean)
	}
	if g := r.Task("graph:X"); g == nil || g.Jobs != 1 {
		t.Fatalf("graph record of X's slot: %+v", g)
	}
	if got := r.TotalJobs(); got != 5 {
		t.Fatalf("TotalJobs = %d, want 5", got)
	}
	if names := r.TaskNames(); strings.Join(names, ",") != "X,Y,graph:X" {
		t.Fatalf("TaskNames = %v", names)
	}
}

// TestByNameTableBounded records more distinct names than the by-name
// table holds: the oldest rows go, the totals stay exact and the summary
// counts the evictions.
func TestByNameTableBounded(t *testing.T) {
	r := NewRecorder(false)
	n := namedCap + 10
	for i := 0; i < n; i++ {
		r.Record(JobRecord{Task: fmt.Sprint("n", i), Finish: ms(3), Deadline: ms(2), Missed: i%2 == 0})
	}
	if got := len(r.TaskNames()); got != namedCap {
		t.Fatalf("%d named rows, want the cap %d", got, namedCap)
	}
	if r.Task("n0") != nil || r.Task(fmt.Sprint("n", n-1)) == nil {
		t.Fatal("eviction is not oldest first")
	}
	if jobs, misses := r.TotalJobs(), r.TotalMisses(); jobs != int64(n) || misses != int64(n+1)/2 {
		t.Fatalf("totals %d jobs, %d misses after evictions, want %d, %d", jobs, misses, n, (n+1)/2)
	}
	var buf bytes.Buffer
	if err := r.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(10 retired task rows evicted: 10 jobs, 5 misses counted in totals only)") {
		t.Fatalf("summary does not count evictions:\n%s", buf.String())
	}
}

// TestReadersAllocationFree pins the totals the scenario report reads
// inside the benchmark's measuring window, and the overhead sample path.
func TestReadersAllocationFree(t *testing.T) {
	r := NewRecorder(false)
	r.Reserve(64, 2)
	for i := 0; i < 64; i++ {
		r.Record(JobRecord{Task: fmt.Sprint("t", i), TaskID: i, Finish: ms(1), Deadline: ms(2)})
		r.Record(JobRecord{Task: fmt.Sprint("u", i), TaskID: 64 + i, Finish: ms(1), Deadline: ms(2)})
	}
	o := NewOverheads()
	for name, fn := range map[string]func(){
		"TotalJobs":     func() { r.TotalJobs() },
		"TotalMisses":   func() { r.TotalMisses() },
		"Overheads.Add": func() { o.Add(OverheadDispatch, time.Microsecond) },
	} {
		if avg := testing.AllocsPerRun(100, fn); avg != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, avg)
		}
	}
}

// TestConcurrentRecordsIntoOneSlot runs two recorders of one slot at once
// (run it under -race): no job is lost.
func TestConcurrentRecordsIntoOneSlot(t *testing.T) {
	r := NewRecorder(false)
	r.Reserve(2, 1)
	const n = 2000
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				r.Record(JobRecord{Task: "shared", TaskID: 1, Finish: ms(1), Deadline: ms(2)})
				r.RecordGraph(JobRecord{Task: "graph:shared", TaskID: 1, Finish: ms(1), Deadline: ms(2)})
			}
		}()
	}
	for i := 0; i < n; i++ {
		r.TotalJobs()
		r.Task("shared")
	}
	wg.Wait()
	if ts := r.Task("shared"); ts == nil || ts.Jobs != 2*n {
		t.Fatalf("shared slot: %+v, want %d jobs", ts, 2*n)
	}
	if got := r.TotalJobs(); got != 4*n {
		t.Fatalf("TotalJobs = %d, want %d", got, 4*n)
	}
}
