package sim

import (
	"testing"
	"time"
)

// TestInterruptDoesNotCancelSameInstantWake is the regression test for the
// bug behind the Fig. 2 overload crash: an interrupt arriving while the
// target is already being resumed at the current instant (mutex grant,
// park handoff) must not cancel that wake — it is delivered as pending
// instead. Cancelling it both swallowed the resume and (via the WaitQ)
// leaked a sticky unpark token that poisoned a later, unrelated park.
func TestInterruptDoesNotCancelSameInstantWake(t *testing.T) {
	e := NewEngine(1)
	var waiterEvents []string
	var mu Mutex
	var waiter *Proc

	holder := e.Spawn("holder", func(p *Proc) {
		mu.Lock(p)
		p.Sleep(time.Millisecond)
		mu.Unlock(p) // grants the mutex to the waiter at t=1ms
		// Interrupt the waiter at the same instant its grant is pending.
		p.eng.Interrupt(waiter)
	})
	_ = holder
	waiter = e.Spawn("waiter", func(p *Proc) {
		p.Yield() // let the holder grab the mutex first
		mu.Lock(p)
		waiterEvents = append(waiterEvents, "locked")
		mu.Unlock(p)
		// The interrupt must still be observable (pending), not lost.
		if intr, _ := p.Sleep(time.Millisecond); intr {
			waiterEvents = append(waiterEvents, "pending-interrupt-delivered")
		}
		// A subsequent park must NOT be poisoned by a leaked token: with
		// nobody unparking us, it can only end via the interrupt below.
		if p.Park() {
			waiterEvents = append(waiterEvents, "parked-then-interrupted")
		} else {
			waiterEvents = append(waiterEvents, "parked-self-resumed(BUG)")
		}
	})
	e.Spawn("closer", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		p.eng.Interrupt(waiter)
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []string{"locked", "pending-interrupt-delivered", "parked-then-interrupted"}
	if len(waiterEvents) != len(want) {
		t.Fatalf("events = %v, want %v", waiterEvents, want)
	}
	for i := range want {
		if waiterEvents[i] != want[i] {
			t.Fatalf("events = %v, want %v", waiterEvents, want)
		}
	}
}

// TestWaitQSignalWithConcurrentInterrupt: a Signal landing on a waiter that
// is being interrupted at the same instant must not leave a sticky token,
// and the mutex must stay live (the interrupted waiter re-acquires it).
func TestWaitQSignalWithConcurrentInterrupt(t *testing.T) {
	e := NewEngine(1)
	var mu Mutex
	got := make([]string, 0, 4)
	var contender *Proc

	e.Spawn("holder", func(p *Proc) {
		mu.Lock(p)
		p.Sleep(time.Millisecond)
		// Interrupt the parked contender, then release: the unlock's
		// Signal sees a waiter that is already waking via the interrupt.
		p.eng.Interrupt(contender)
		mu.Unlock(p)
	})
	contender = e.Spawn("contender", func(p *Proc) {
		p.Yield()
		mu.Lock(p) // must eventually succeed despite the interrupt collision
		got = append(got, "acquired")
		mu.Unlock(p)
		// No leaked token: this park blocks until the closer interrupt.
		if p.Park() {
			got = append(got, "clean-park")
		} else {
			got = append(got, "leaked-token(BUG)")
		}
	})
	e.Spawn("closer", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		p.eng.Interrupt(contender)
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "acquired" || got[1] != "clean-park" {
		t.Fatalf("events = %v", got)
	}
}

// TestInterruptStillCutsFutureWake: the same-instant rule must not weaken
// genuine preemption: a wake scheduled in the future is still cancelled.
func TestInterruptStillCutsFutureWake(t *testing.T) {
	e := NewEngine(1)
	var cut bool
	var victim *Proc
	victim = e.Spawn("victim", func(p *Proc) {
		intr, rem := p.Compute(10 * time.Millisecond)
		cut = intr && rem > 0
	})
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		p.eng.Interrupt(victim)
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !cut {
		t.Error("interrupt failed to cut a mid-flight compute")
	}
}

// TestEngineCallbackAndProcInterleaving checks fn-events and proc wakes
// interleave in FIFO order at the same instant.
func TestEngineCallbackAndProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(Time(time.Millisecond), func() { order = append(order, "cb1") })
	e.Spawn("p", func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, "proc")
	})
	e.At(Time(time.Millisecond), func() { order = append(order, "cb2") })
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Spawn events precede: the proc was spawned before cb2 was scheduled,
	// but its wake at 1ms was scheduled when it slept (after cb1, before...
	// deterministic: cb1 (seq 1), proc-start (seq 2) -> sleep scheduled
	// during run; cb2 (seq 3). At t=1ms: cb1, cb2, then the proc wake.
	want := []string{"cb1", "cb2", "proc"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestMaskedSectionAccumulatesInterrupts: multiple interrupts during a
// Charge (the masked section) coalesce as pending and are delivered one per
// wait.
func TestMaskedSectionAccumulatesInterrupts(t *testing.T) {
	e := NewEngine(1)
	delivered := 0
	var target *Proc
	target = e.Spawn("t", func(p *Proc) {
		p.Charge(5 * time.Millisecond)
		for i := 0; i < 3; i++ {
			if intr, _ := p.Sleep(time.Millisecond); intr {
				delivered++
			}
		}
	})
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.eng.Interrupt(target)
		p.eng.Interrupt(target)
		p.eng.Interrupt(target)
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if delivered != 3 {
		t.Errorf("delivered = %d of 3 pending interrupts", delivered)
	}
}
