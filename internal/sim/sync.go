package sim

import "time"

// WaitQ is a FIFO queue of parked processes, the building block for
// condition-variable-like constructs inside the simulation.
// The zero value is ready to use.
type WaitQ struct {
	ps []*Proc
}

// Len returns the number of waiting processes.
func (q *WaitQ) Len() int { return len(q.ps) }

// Wait parks the calling process on the queue until signalled or interrupted.
// On interrupt the process is removed from the queue and Wait returns true.
func (q *WaitQ) Wait(p *Proc) (interrupted bool) {
	q.ps = append(q.ps, p)
	interrupted = p.Park()
	if interrupted {
		q.remove(p)
	}
	return interrupted
}

func (q *WaitQ) remove(p *Proc) {
	for i, w := range q.ps {
		if w == p {
			q.ps = append(q.ps[:i], q.ps[i+1:]...)
			return
		}
	}
}

// Signal unparks the longest-waiting process, if any. Returns the process
// woken, or nil. The wake bypasses sticky tokens: a waiter that is being
// interrupted at the same instant re-checks its condition on its own.
func (q *WaitQ) Signal(e *Engine) *Proc {
	if len(q.ps) == 0 {
		return nil
	}
	p := q.ps[0]
	q.ps = q.ps[1:]
	e.unparkNoToken(p)
	return p
}

// Mutex is a simulated sleeping mutex with FIFO handoff. Lock/Unlock must be
// called from process context. It models a kernel futex: blocked processes
// are descheduled (idle) while waiting.
// The zero value is an unlocked mutex.
type Mutex struct {
	owner   *Proc
	waiters WaitQ
}

// Lock acquires the mutex, blocking FIFO behind other waiters.
func (m *Mutex) Lock(p *Proc) {
	for m.owner != nil && m.owner != p {
		m.waiters.Wait(p)
	}
	if m.owner == p {
		panic("sim: recursive Mutex.Lock by " + p.Name())
	}
	m.owner = p
}

// TryLock acquires the mutex if free, returning whether it succeeded.
func (m *Mutex) TryLock(p *Proc) bool {
	if m.owner != nil {
		return false
	}
	m.owner = p
	return true
}

// Unlock releases the mutex and wakes the longest-waiting process.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("sim: Mutex.Unlock by non-owner " + p.Name())
	}
	m.owner = nil
	m.waiters.Signal(p.eng)
}

// SpinMutex models a test-and-set spinlock: waiting burns CPU time
// (Compute) in slices of spinQuantum until the lock frees up, which is how
// contention becomes visible in overhead measurements.
type SpinMutex struct {
	owner *Proc
	// RetryCost is the CPU time burned per failed test-and-set attempt.
	RetryCost time.Duration
	// AcquireCost is the CPU time of a successful test-and-set.
	AcquireCost time.Duration
	spins       uint64
	acquires    uint64
}

// DefaultSpinRetry is the default cost of a failed TAS probe (cache-line
// bounce on a COTS ARM part).
const DefaultSpinRetry = 80 * time.Nanosecond

// DefaultSpinAcquire is the default cost of a successful TAS.
const DefaultSpinAcquire = 40 * time.Nanosecond

func (m *SpinMutex) retryCost() time.Duration {
	if m.RetryCost <= 0 {
		return DefaultSpinRetry
	}
	return m.RetryCost
}

func (m *SpinMutex) acquireCost() time.Duration {
	if m.AcquireCost <= 0 {
		return DefaultSpinAcquire
	}
	return m.AcquireCost
}

// Lock spins until the lock is free, charging CPU time per probe. It returns
// the total time spent spinning (the measurable contention overhead).
func (m *SpinMutex) Lock(p *Proc) (spun time.Duration) {
	start := p.Now()
	for m.owner != nil {
		m.spins++
		p.Charge(m.retryCost())
	}
	m.owner = p
	m.acquires++
	p.Charge(m.acquireCost())
	return p.Now().Sub(start)
}

// Unlock releases the spinlock.
func (m *SpinMutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("sim: SpinMutex.Unlock by non-owner " + p.Name())
	}
	m.owner = nil
}

// Stats returns the number of failed probes and successful acquisitions.
func (m *SpinMutex) Stats() (spins, acquires uint64) { return m.spins, m.acquires }
