package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/trace"
)

// sampleEvents returns one event of every kind, with strings that need
// JSON escaping.
func sampleEvents() []Event {
	return []Event{
		{Kind: KindJob, Job: trace.JobRecord{
			Task: `tau "1"\x`, TaskID: 3, Job: 42, Version: 1, Core: 2,
			Accel: "gpu0", Release: 10 * time.Millisecond, Start: 11 * time.Millisecond,
			Finish: 12 * time.Millisecond, Deadline: 20 * time.Millisecond,
			Missed: true, Preempts: 2,
		}},
		{Kind: KindJob, Job: trace.JobRecord{
			Task: "plain", Job: 1, Release: 1, Start: 2, Finish: 3, Deadline: 4,
		}},
		{Kind: KindReconfig, Reconfig: trace.ReconfigRecord{
			Epoch: 1, At: 50 * time.Millisecond,
			Admitted: []string{"a", "b\tc"}, Retuned: []string{}, Retiring: []string{"z"},
			Mode: 7, Pause: 80 * time.Microsecond,
		}},
		{Kind: KindRetire, Retire: trace.RetireEvent{Task: "z", Epoch: 1, At: 60 * time.Millisecond}},
		{Kind: KindAccel, Accel: trace.AccelEvent{
			Kind: trace.AccelGrant, Accel: "gpu0#1", Pool: "gpu0", Task: "tau",
			Job: 9, Prio: -12345, At: 70 * time.Millisecond,
		}},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.jsonl")
	sink, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(sink, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleEvents()
	for _, ev := range want {
		if !p.Publish(ev) {
			t.Fatal("Publish rejected with an empty ring")
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Every line must be standalone valid JSON.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != len(want)+1 {
		t.Fatalf("%d lines, want %d events + trailer", len(lines), len(want))
	}
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, ln)
		}
		if m["type"] == "" {
			t.Fatalf("line %d has no type tag: %s", i+1, ln)
		}
	}

	st, err := ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := st.Verify(true); v != nil {
		t.Fatalf("clean export fails Verify: %v", v)
	}
	if st.Lost() != 0 {
		t.Fatalf("Lost() = %d on a clean export", st.Lost())
	}
	if len(st.Events) != len(want) {
		t.Fatalf("replayed %d events, want %d", len(st.Events), len(want))
	}
	for i := range want {
		got := st.Events[i]
		got.Seq = 0 // assigned by the pipeline
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("event %d mismatch:\n got  %+v\n want %+v", i, got, want[i])
		}
	}
}

// gatedSink blocks WriteBatch until released, so tests can hold the writer
// goroutine mid-flush and fill the ring deterministically.
type gatedSink struct {
	release chan struct{}
	mu      sync.Mutex
	events  []Event
	summary Stats
}

func newGatedSink() *gatedSink { return &gatedSink{release: make(chan struct{})} }

// received counts the events s holds, under its lock: the pipeline's
// writer may still be adding to them.
func received(s *MemorySink) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

func (s *gatedSink) WriteBatch(batch []Event) error {
	<-s.release
	s.mu.Lock()
	s.events = append(s.events, batch...)
	s.mu.Unlock()
	return nil
}

func (s *gatedSink) Finish(st Stats) error {
	s.mu.Lock()
	s.summary = st
	s.mu.Unlock()
	return nil
}

// TestOverflowAccounting fills a tiny ring from concurrent publishers while
// the writer is blocked in the sink, and checks that every drop is
// accounted exactly and the retained records keep per-publisher FIFO order.
// Run under -race this is also the pipeline's publisher/writer race test.
func TestOverflowAccounting(t *testing.T) {
	sink := newGatedSink()
	p, err := New(sink, Options{RingCapacity: 4, BatchSize: 1, MaxBatchAge: -1})
	if err != nil {
		t.Fatal(err)
	}

	const pubs, perPub = 4, 500
	var accepted [pubs]uint64
	var wg sync.WaitGroup
	for pi := 0; pi < pubs; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			for j := 0; j < perPub; j++ {
				if p.Publish(Event{Kind: KindJob, Job: trace.JobRecord{TaskID: pi, Job: int64(j)}}) {
					accepted[pi]++
				}
			}
		}(pi)
	}
	wg.Wait()
	close(sink.release)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	st := p.Stats()
	if st.Published != pubs*perPub {
		t.Fatalf("published %d, want %d", st.Published, pubs*perPub)
	}
	if st.Dropped == 0 {
		t.Fatal("a 4-slot ring behind a blocked sink dropped nothing")
	}
	if st.Exported+st.Dropped != st.Published {
		t.Fatalf("accounting leak: exported %d + dropped %d != published %d",
			st.Exported, st.Dropped, st.Published)
	}
	var acceptedTotal uint64
	for _, a := range accepted {
		acceptedTotal += a
	}
	if acceptedTotal != st.Exported {
		t.Fatalf("publishers got %d acks, sink received %d events", acceptedTotal, st.Exported)
	}
	if got := uint64(len(sink.events)); got != st.Exported {
		t.Fatalf("sink holds %d events, stats say %d exported", got, st.Exported)
	}
	if sink.summary != st {
		t.Fatalf("trailer %+v != final stats %+v", sink.summary, st)
	}

	// Per-publisher FIFO: each publisher's retained Job numbers strictly
	// increase (drops leave gaps, never reorderings), and so do its seqs.
	lastJob := map[int]int64{}
	lastSeq := map[int]uint64{}
	for _, ev := range sink.events {
		pi := ev.Job.TaskID
		if last, ok := lastJob[pi]; ok && ev.Job.Job <= last {
			t.Fatalf("publisher %d: job %d after %d (FIFO violated)", pi, ev.Job.Job, last)
		}
		if last, ok := lastSeq[pi]; ok && ev.Seq <= last {
			t.Fatalf("publisher %d: seq %d after %d (FIFO violated)", pi, ev.Seq, last)
		}
		lastJob[pi] = ev.Job.Job
		lastSeq[pi] = ev.Seq
	}
}

func TestBlockingStreamNeverDrops(t *testing.T) {
	sink := NewMemorySink()
	p, err := New(sink, Options{RingCapacity: 4, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	bs := p.Blocking()
	const n = 5000
	for i := 0; i < n; i++ {
		bs.StreamJob(trace.JobRecord{Task: "t", Job: int64(i)})
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Dropped != 0 || st.Exported != n {
		t.Fatalf("blocking stream lost events: %+v", st)
	}
	if v := sink.Stream().Verify(true); v != nil {
		t.Fatalf("blocking export fails Verify: %v", v)
	}
}

func TestAgeFlushTrigger(t *testing.T) {
	sink := NewMemorySink()
	// Batch size far beyond what we publish: only the age trigger can flush.
	p, err := New(sink, Options{BatchSize: 1 << 20, MaxBatchAge: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Publish(Event{Kind: KindRetire, Retire: trace.RetireEvent{Task: "x"}})
	deadline := time.Now().Add(2 * time.Second)
	for received(sink) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("age trigger never flushed the partial batch")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBatchSizeTrigger(t *testing.T) {
	sink := NewMemorySink()
	p, err := New(sink, Options{BatchSize: 8, MaxBatchAge: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		p.PublishWait(Event{Kind: KindRetire, Retire: trace.RetireEvent{Task: "x", Epoch: i}})
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Exported != 64 {
		t.Fatalf("exported %d of 64", st.Exported)
	}
	// 64 events in batches of <= 8 means at least 8 WriteBatch calls; the
	// age trigger is off, so without the size trigger nothing would flush
	// before Close's single final drain.
	if st.Batches < 8 {
		t.Fatalf("64 events arrived in %d batches; size trigger (8) never fired", st.Batches)
	}
}

func TestPublishAllocationFree(t *testing.T) {
	p, err := New(NewDiscardSink(), Options{RingCapacity: 1 << 16, MaxBatchAge: -1, BatchSize: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ev := Event{Kind: KindJob, Job: trace.JobRecord{Task: "steady", Job: 1}}
	if avg := testing.AllocsPerRun(1000, func() { p.Publish(ev) }); avg != 0 {
		t.Fatalf("Publish allocates %.1f times per call; the record path must be allocation-free", avg)
	}
}

// corrupt applies a line-level mutation to an exported file and returns the
// replayed stream.
func corrupt(t *testing.T, path string, mutate func(lines []string) []string) *Stream {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	out := filepath.Join(t.TempDir(), "corrupt.jsonl")
	if err := os.WriteFile(out, []byte(strings.Join(mutate(lines), "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := ReplayFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestVerifyCatchesSeededCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clean.jsonl")
	sink, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(sink, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		p.Publish(Event{Kind: KindJob, Job: trace.JobRecord{Task: "t", Job: int64(i)}})
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := ReplayFile(path); err != nil || st.Verify(true) != nil || st.Lost() != 0 {
		t.Fatalf("baseline export not clean: err=%v verify=%v", err, func() []string {
			st, _ := ReplayFile(path)
			return st.Verify(true)
		}())
	}

	cases := []struct {
		label  string
		mutate func([]string) []string
		want   string // substring of an expected violation
	}{
		{"gap", func(ls []string) []string {
			return append(ls[:10:10], ls[11:]...) // drop one record silently
		}, "missing from stream"},
		{"reorder", func(ls []string) []string {
			ls[5], ls[6] = ls[6], ls[5]
			return ls
		}, "stream reordered"},
		{"duplicate", func(ls []string) []string {
			return append(ls[:8:8], append([]string{ls[7]}, ls[8:]...)...)
		}, "duplicates"},
		{"truncated", func(ls []string) []string {
			return ls[:len(ls)-1] // cut the trailer
		}, "truncated before Close"},
	}
	for _, tc := range cases {
		st := corrupt(t, path, tc.mutate)
		v := st.Verify(true)
		if len(v) == 0 {
			t.Errorf("%s: Verify found nothing", tc.label)
			continue
		}
		found := false
		for _, s := range v {
			if strings.Contains(s, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: violations %v mention no %q", tc.label, v, tc.want)
		}
		if tc.label == "gap" && st.Lost() == 0 {
			t.Error("gap: Lost() = 0 after a record was removed")
		}
	}
}
