package lockfree

import (
	"sync"
	"testing"
)

// exerciseLock hammers a counter behind lock/unlock closures and verifies
// mutual exclusion.
func exerciseLock(t *testing.T, goroutines, iters int, lock, unlock func()) {
	t.Helper()
	var counter int
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				lock()
				counter++
				unlock()
			}
		}()
	}
	wg.Wait()
	if want := goroutines * iters; counter != want {
		t.Errorf("counter = %d, want %d (lost updates => broken mutual exclusion)", counter, want)
	}
}

func TestTASLockMutualExclusion(t *testing.T) {
	var l TASLock
	exerciseLock(t, 8, 2000, l.Lock, l.Unlock)
}

func TestRingCapacityValidation(t *testing.T) {
	if _, err := NewMPSCRing[int](0); err == nil {
		t.Error("want error for zero capacity")
	}
	if _, err := NewMPSCRing[int](-1); err == nil {
		t.Error("want error for negative capacity")
	}
	q, err := NewMPSCRing[int](5)
	if err != nil {
		t.Fatal(err)
	}
	if q.Cap() != 8 {
		t.Errorf("cap = %d, want rounded-up 8", q.Cap())
	}
}

func TestPushPopNoAllocs(t *testing.T) {
	q, err := NewMPSCRing[int](8)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(1)
		q.Pop()
	})
	if allocs != 0 {
		t.Errorf("MPSC push/pop allocates %.1f objects/op, want 0", allocs)
	}
}
