package telemetry

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// FileSink writes events as JSONL — one JSON object per line, "type"-tagged
// (docs/TRACE.md "Streaming export") — and appends a summary trailer on
// Finish. Each WriteBatch is one file write, so batch size is exactly the
// syscall amortisation factor; the encode buffer is reused across batches.
// Driven by a single pipeline writer goroutine; not safe for concurrent use.
type FileSink struct {
	f    *os.File
	buf  []byte
	path string
}

// NewFileSink creates (truncating) path.
func NewFileSink(path string) (*FileSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return &FileSink{f: f, path: path}, nil
}

// WriteBatch encodes the batch into one buffer and writes it with a single
// call.
func (s *FileSink) WriteBatch(batch []Event) error {
	s.buf = s.buf[:0]
	for i := range batch {
		s.buf = AppendEvent(s.buf, &batch[i])
		s.buf = append(s.buf, '\n')
	}
	if _, err := s.f.Write(s.buf); err != nil {
		return fmt.Errorf("telemetry: write %s: %w", s.path, err)
	}
	return nil
}

// Finish appends the summary trailer and closes the file.
func (s *FileSink) Finish(st Stats) error {
	s.buf = append(AppendSummary(s.buf[:0], st), '\n')
	_, werr := s.f.Write(s.buf)
	cerr := s.f.Close()
	if werr != nil {
		return fmt.Errorf("telemetry: trailer %s: %w", s.path, werr)
	}
	if cerr != nil {
		return fmt.Errorf("telemetry: close %s: %w", s.path, cerr)
	}
	return nil
}

// MemorySink retains every event in memory — the in-process sink for tests
// and for replaying a run without touching disk. Safe for concurrent reads
// while the pipeline is writing.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
	stats  Stats
	done   bool
}

// NewMemorySink creates an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// WriteBatch copies the batch (the pipeline reuses the slice).
func (s *MemorySink) WriteBatch(batch []Event) error {
	s.mu.Lock()
	s.events = append(s.events, batch...)
	s.mu.Unlock()
	return nil
}

// Finish stores the closing counters.
func (s *MemorySink) Finish(st Stats) error {
	s.mu.Lock()
	s.stats, s.done = st, true
	s.mu.Unlock()
	return nil
}

// Stream builds a replay Stream from the retained events (the in-memory
// equivalent of ReplayFile on a JSONL export).
func (s *MemorySink) Stream() *Stream {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := newStream()
	for i := range s.events {
		st.add(s.events[i])
	}
	if s.done {
		sum := s.stats
		st.Summary = &sum
	}
	return st
}

// DiscardSink drops every batch, keeping only a count — the sink for
// benchmarking the record path itself without encoding or I/O.
type DiscardSink struct {
	events atomic.Uint64
}

// NewDiscardSink creates a counting no-op sink.
func NewDiscardSink() *DiscardSink { return &DiscardSink{} }

// WriteBatch counts and discards.
func (s *DiscardSink) WriteBatch(batch []Event) error {
	s.events.Add(uint64(len(batch)))
	return nil
}

// Finish is a no-op.
func (s *DiscardSink) Finish(Stats) error { return nil }

// Count returns the number of events discarded.
func (s *DiscardSink) Count() uint64 { return s.events.Load() }
