package scenario

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// feed replays a publish/take trace through a checker topic.
func feedChecker(policy core.OverflowPolicy) (*Checker, int) {
	ck := NewChecker()
	ti := ck.addTopic("t", policy, 4, 2, 1)
	return ck, ti
}

func TestCheckerAcceptsCleanFIFO(t *testing.T) {
	ck, ti := feedChecker(core.Reject)
	for seq := int64(1); seq <= 5; seq++ {
		ck.notePublished(ti, 0, seq)
		ck.noteTaken(ti, 0, seqEncode(0, seq))
	}
	ck.mu.Lock()
	got := len(ck.violations)
	ck.mu.Unlock()
	if got != 0 {
		t.Fatalf("clean trace flagged: %v", ck.violations)
	}
}

// TestCheckerCatchesSeededFIFOViolation feeds the checker a deliberately
// broken delivery order and expects it to object — the checker must be able
// to fail, or a clean scale run proves nothing.
func TestCheckerCatchesSeededFIFOViolation(t *testing.T) {
	cases := []struct {
		label  string
		policy core.OverflowPolicy
		feed   func(ck *Checker, ti int)
		want   string
	}{
		{
			"reorder", core.Reject,
			func(ck *Checker, ti int) {
				ck.notePublished(ti, 0, 1)
				ck.notePublished(ti, 0, 2)
				ck.noteTaken(ti, 0, seqEncode(0, 2))
				ck.noteTaken(ti, 0, seqEncode(0, 1)) // delivered backwards
			},
			"FIFO violated",
		},
		{
			"duplicate", core.Reject,
			func(ck *Checker, ti int) {
				ck.notePublished(ti, 0, 1)
				ck.noteTaken(ti, 0, seqEncode(0, 1))
				ck.noteTaken(ti, 0, seqEncode(0, 1)) // delivered twice
			},
			"FIFO violated",
		},
		{
			"gap under reject", core.Reject,
			func(ck *Checker, ti int) {
				for seq := int64(1); seq <= 3; seq++ {
					ck.notePublished(ti, 0, seq)
				}
				ck.noteTaken(ti, 0, seqEncode(0, 1))
				ck.noteTaken(ti, 0, seqEncode(0, 3)) // 2 vanished
			},
			"entries lost",
		},
		{
			"reorder across drops", core.DropOldest,
			func(ck *Checker, ti int) {
				for seq := int64(1); seq <= 8; seq++ {
					ck.notePublished(ti, 0, seq)
				}
				ck.noteTaken(ti, 0, seqEncode(0, 5)) // gaps fine under DropOldest
				ck.noteTaken(ti, 0, seqEncode(0, 4)) // going backwards is not
			},
			"FIFO violated",
		},
		{
			"foreign value", core.Reject,
			func(ck *Checker, ti int) {
				ck.noteTaken(ti, 0, "not a sequence")
			},
			"foreign value",
		},
	}
	for _, tc := range cases {
		ck, ti := feedChecker(tc.policy)
		tc.feed(ck, ti)
		vs := ck.violations
		if len(vs) == 0 {
			t.Errorf("%s: checker stayed silent", tc.label)
			continue
		}
		found := false
		for _, v := range vs {
			if strings.Contains(v.Msg, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: violations %v do not mention %q", tc.label, vs, tc.want)
		}
	}
}

// TestCheckerPublishOverlappingJobs: two jobs of one publisher publish at
// once. Where that overlap is legal (overlapJobs) publish serialises them
// into distinct, ordered sequence numbers; elsewhere the "raced itself"
// clause must fire.
func TestCheckerPublishOverlappingJobs(t *testing.T) {
	for _, overlap := range []bool{true, false} {
		ck, ti := feedChecker(core.Reject)
		ck.overlapJobs = overlap
		var (
			mu       sync.Mutex
			buffered []int64 // values in the order they entered the buffer
			wg       sync.WaitGroup
		)
		firstIn := make(chan struct{})
		secondDone := make(chan struct{})
		job := func(first bool) {
			defer wg.Done()
			_ = ck.publish(ti, 0, func(v int64) error {
				if first {
					close(firstIn)
					// Without serialisation the second job publishes
					// meanwhile; with it, it waits for this one.
					select {
					case <-secondDone:
					case <-time.After(50 * time.Millisecond):
					}
				}
				mu.Lock()
				buffered = append(buffered, v)
				mu.Unlock()
				return nil
			})
			if !first {
				close(secondDone)
			}
		}
		wg.Add(2)
		go job(true)
		<-firstIn
		go job(false)
		wg.Wait()
		for _, v := range buffered {
			ck.noteTaken(ti, 0, v)
		}
		raced := false
		for _, v := range ck.violations {
			raced = raced || strings.Contains(v.Msg, "raced itself")
		}
		switch {
		case overlap && len(ck.violations) > 0:
			t.Errorf("overlapping jobs serialised, yet flagged: %v", ck.violations)
		case !overlap && !raced:
			t.Errorf("overlap where it must not happen went unflagged: %v", ck.violations)
		}
	}
}

func TestCheckerGapAllowedUnderDropOldest(t *testing.T) {
	ck, ti := feedChecker(core.DropOldest)
	for seq := int64(1); seq <= 10; seq++ {
		ck.notePublished(ti, 0, seq)
	}
	ck.noteTaken(ti, 0, seqEncode(0, 7)) // 1..6 dropped: legal
	ck.noteTaken(ti, 0, seqEncode(0, 10))
	ck.mu.Lock()
	got := len(ck.violations)
	ck.mu.Unlock()
	if got != 0 {
		t.Fatalf("legal conflation flagged: %v", ck.violations)
	}
}

// accelEv builds one arbitration event for replay tests.
func accelEv(kind trace.AccelEventKind, inst, pool, task string, job, prio int64, at time.Duration) trace.AccelEvent {
	return trace.AccelEvent{Kind: kind, Accel: inst, Pool: pool, Task: task, Job: job, Prio: prio, At: at}
}

func TestCheckerAcceptsCleanAccelTrace(t *testing.T) {
	ck := NewChecker()
	ck.accelWaitBound = 10 * time.Millisecond
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	ck.checkAccel([]trace.AccelEvent{
		accelEv(trace.AccelAcquire, "gpu", "gpu", "holder", 1, 40, 0),
		accelEv(trace.AccelPark, "gpu", "gpu", "urgent", 1, 10, ms(1)),
		accelEv(trace.AccelBoost, "gpu", "gpu", "holder", 1, 10, ms(1)),
		accelEv(trace.AccelRelease, "gpu", "gpu", "holder", 1, 40, ms(3)),
		accelEv(trace.AccelGrant, "gpu", "gpu", "urgent", 1, 10, ms(3)),
		accelEv(trace.AccelRelease, "gpu", "gpu", "urgent", 1, 10, ms(5)),
	})
	if len(ck.violations) != 0 {
		t.Fatalf("clean PIP trace flagged: %v", ck.violations)
	}
	st := ck.AccelStats()
	if st.Acquires != 2 || st.Parks != 1 || st.Boosts != 1 || st.MaxWait != ms(2) {
		t.Errorf("stats = %+v, want 2 acquires, 1 park, 1 boost, 2ms max wait", st)
	}
}

// TestCheckerCatchesSeededAccelViolations feeds deliberately broken
// arbitration traces: the accel invariants must be able to fail or a clean
// scenario run proves nothing.
func TestCheckerCatchesSeededAccelViolations(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		label string
		bound time.Duration
		trace []trace.AccelEvent
		want  string
	}{
		{
			"less urgent overtakes parked waiter", 0,
			[]trace.AccelEvent{
				accelEv(trace.AccelPark, "gpu", "gpu", "urgent", 1, 10, 0),
				accelEv(trace.AccelAcquire, "gpu", "gpu", "sneaky", 1, 50, ms(1)),
			},
			"more urgent",
		},
		{
			"inversion exceeds the wait bound", ms(5),
			[]trace.AccelEvent{
				accelEv(trace.AccelAcquire, "gpu", "gpu", "holder", 1, 40, 0),
				accelEv(trace.AccelPark, "gpu", "gpu", "urgent", 1, 10, ms(1)),
				accelEv(trace.AccelRelease, "gpu", "gpu", "holder", 1, 40, ms(9)),
				accelEv(trace.AccelGrant, "gpu", "gpu", "urgent", 1, 10, ms(9)),
			},
			"inversion not bounded",
		},
		{
			"grant of a still-held instance", 0,
			[]trace.AccelEvent{
				accelEv(trace.AccelAcquire, "gpu", "gpu", "holder", 1, 40, 0),
				accelEv(trace.AccelPark, "gpu", "gpu", "urgent", 1, 10, ms(1)),
				accelEv(trace.AccelGrant, "gpu", "gpu", "urgent", 1, 10, ms(2)),
			},
			"still holds",
		},
		{
			"release without a hold", 0,
			[]trace.AccelEvent{
				accelEv(trace.AccelRelease, "gpu", "gpu", "ghost", 1, 40, ms(1)),
			},
			"no hold",
		},
	}
	for _, tc := range cases {
		ck := NewChecker()
		ck.accelWaitBound = tc.bound
		ck.checkAccel(tc.trace)
		if len(ck.violations) == 0 {
			t.Errorf("%s: checker stayed silent", tc.label)
			continue
		}
		found := false
		for _, v := range ck.violations {
			if strings.Contains(v.Msg, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: violations %v do not mention %q", tc.label, ck.violations, tc.want)
		}
	}
}

func TestCheckerSeparatesPublishers(t *testing.T) {
	// Per-publisher FIFO: interleaving publishers is fine as long as each
	// publisher's own sequence stays ordered.
	ck, ti := feedChecker(core.Reject)
	ck.notePublished(ti, 0, 1)
	ck.notePublished(ti, 1, 1)
	ck.notePublished(ti, 0, 2)
	ck.noteTaken(ti, 0, seqEncode(1, 1))
	ck.noteTaken(ti, 0, seqEncode(0, 1))
	ck.noteTaken(ti, 0, seqEncode(0, 2))
	ck.mu.Lock()
	got := len(ck.violations)
	ck.mu.Unlock()
	if got != 0 {
		t.Fatalf("legal interleaving flagged: %v", ck.violations)
	}
}
