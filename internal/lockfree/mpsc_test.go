package lockfree

import (
	"runtime"
	"sync"
	"testing"
)

func TestMPSCRingOrderAndCapacity(t *testing.T) {
	q, err := NewMPSCRing[int](5) // rounds to 8
	if err != nil {
		t.Fatal(err)
	}
	if q.Cap() != 8 {
		t.Fatalf("cap = %d, want 8", q.Cap())
	}
	for i := 0; i < 8; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.Push(99) {
		t.Error("push beyond capacity succeeded")
	}
	for i := 0; i < 8; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d = (%d, %v)", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("pop from empty succeeded")
	}
}

// TestMPSCRingStress hammers the ring with many producers and ONE consumer
// under the race detector: every pushed value must come out exactly once,
// and each producer's values must come out in its program order (the fan-in
// guarantee topics rely on for per-publisher FIFO delivery).
func TestMPSCRingStress(t *testing.T) {
	const (
		producers = 8
		perProd   = 2000
	)
	q, err := NewMPSCRing[[2]int](64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				for !q.Push([2]int{p, i}) {
					runtime.Gosched() // full: let the consumer make room
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	lastSeen := make([]int, producers)
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	total := 0
	take := func(v [2]int) {
		p, i := v[0], v[1]
		if i != lastSeen[p]+1 {
			t.Fatalf("producer %d: got %d after %d (per-producer order broken)", p, i, lastSeen[p])
		}
		lastSeen[p] = i
		total++
	}
	for total < producers*perProd {
		if v, ok := q.Pop(); ok {
			take(v)
			continue
		}
		select {
		case <-done:
			// Producers finished: whatever remains is fully published.
			for {
				v, ok := q.Pop()
				if !ok {
					break
				}
				take(v)
			}
			if total < producers*perProd {
				t.Fatalf("ring drained after %d/%d values (loss)", total, producers*perProd)
			}
		default:
			runtime.Gosched()
		}
	}
	for p, last := range lastSeen {
		if last != perProd-1 {
			t.Errorf("producer %d: last value %d, want %d", p, last, perProd-1)
		}
	}
}

// TestMPSCRingSingleConsumerInterleaved interleaves pushes and pops so the
// ring wraps many times across the sequence space.
func TestMPSCRingSingleConsumerInterleaved(t *testing.T) {
	q, err := NewMPSCRing[int](4)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for round := 0; round < 1000; round++ {
		n := round%4 + 1
		for i := 0; i < n; i++ {
			if !q.Push(round*10 + i) {
				break
			}
		}
		for {
			v, ok := q.Pop()
			if !ok {
				break
			}
			_ = v
			next++
		}
	}
	if q.Len() != 0 {
		t.Errorf("ring not drained: %d left", q.Len())
	}
}
