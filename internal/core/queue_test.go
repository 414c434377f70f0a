package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// mkJob builds a standalone job for queue tests.
func mkJob(seq int64, prio int64) *job {
	j := &job{seq: seq, basePrio: prio, accel: NoAccel}
	j.effPrio.Store(prio)
	j.worker.Store(-1)
	return j
}

func TestQueuePopsInPriorityOrder(t *testing.T) {
	q := newReadyQueue(16)
	prios := []int64{5, 1, 9, 3, 7, 2, 8}
	for i, p := range prios {
		if err := q.push(mkJob(int64(i), p)); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	for q.len() > 0 {
		got = append(got, q.pop().effPrio.Load())
	}
	want := append([]int64{}, prios...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestQueueFIFOWithinPriority(t *testing.T) {
	q := newReadyQueue(8)
	for i := int64(0); i < 5; i++ {
		if err := q.push(mkJob(i, 42)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 5; i++ {
		j := q.pop()
		if j.seq != i {
			t.Fatalf("seq %d popped at position %d: FIFO tie-break broken", j.seq, i)
		}
	}
}

func TestQueueCapacityBound(t *testing.T) {
	q := newReadyQueue(2)
	if err := q.push(mkJob(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(mkJob(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(mkJob(3, 3)); err == nil {
		t.Fatal("push beyond capacity must fail (static allocation)")
	}
}

func TestQueueFixAfterBoost(t *testing.T) {
	q := newReadyQueue(8)
	low := mkJob(1, 100)
	mid := mkJob(2, 50)
	high := mkJob(3, 10)
	for _, j := range []*job{low, mid, high} {
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	// PIP-boost the low job above everything.
	low.effPrio.Store(1)
	q.fix(low)
	if got := q.pop(); got != low {
		t.Fatalf("boosted job not at the head (got seq %d)", got.seq)
	}
}

// TestQueueMatchesReferenceModel drives the heap and a sorted-slice
// reference with the same random operations and checks observable
// equivalence.
func TestQueueMatchesReferenceModel(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := newReadyQueue(64)
		var ref []*job
		seq := int64(0)
		refBest := func() int {
			best := -1
			for i, j := range ref {
				if best < 0 || j.before(ref[best]) {
					best = i
				}
			}
			return best
		}
		for _, op := range opsRaw {
			switch op % 4 {
			case 0, 1: // push
				if q.len() == 64 {
					continue
				}
				seq++
				j := mkJob(seq, int64(rng.Intn(20)))
				if err := q.push(j); err != nil {
					return false
				}
				ref = append(ref, j)
			case 2: // pop
				got := q.pop()
				bi := refBest()
				if bi < 0 {
					if got != nil {
						return false
					}
					continue
				}
				want := ref[bi]
				ref = append(ref[:bi], ref[bi+1:]...)
				if got != want {
					return false
				}
			case 3: // boost a random job and fix
				if len(ref) == 0 {
					continue
				}
				j := ref[rng.Intn(len(ref))]
				j.effPrio.Store(int64(rng.Intn(20)))
				q.fix(j)
			}
			if q.len() != len(ref) {
				return false
			}
			if head := q.peek(); head != nil {
				if bi := refBest(); ref[bi] != head && !headTied(head, ref[bi]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// headTied reports whether two jobs compare equal under the queue order
// (can only happen transiently if priorities collide with equal seq, which
// mkJob prevents; kept for safety).
func headTied(a, b *job) bool {
	return !a.before(b) && !b.before(a)
}
