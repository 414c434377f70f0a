package platform

import (
	"fmt"
	"sync"
	"time"
)

// Battery models the platform's energy source for the energy-based version
// selector (Section 3.2, option 1: select the version "depending on the
// current energy capacity of the platform").
//
// Capacity is tracked in millijoules. Drain is applied explicitly by the
// runtime when a task version executes (WCET x core power) so the model works
// identically in virtual and wall-clock time. Battery is safe for concurrent
// use: the OS-backed runtime reads it from several worker threads.
type Battery struct {
	//yasmin:lockrank 6
	mu         sync.Mutex
	capacityMJ float64
	levelMJ    float64
}

// NewBattery creates a battery with the given capacity in millijoules,
// initially full.
func NewBattery(capacityMJ float64) (*Battery, error) {
	if capacityMJ <= 0 {
		return nil, fmt.Errorf("battery: capacity must be positive, got %g", capacityMJ)
	}
	return &Battery{capacityMJ: capacityMJ, levelMJ: capacityMJ}, nil
}

// Level returns the remaining charge as a percentage in [0,100].
func (b *Battery) Level() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return 100 * b.levelMJ / b.capacityMJ
}

// RemainingMJ returns the remaining charge in millijoules.
func (b *Battery) RemainingMJ() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.levelMJ
}

// Drain removes energy corresponding to running a consumer of powerMW for d.
//
//yasmin:noalloc
func (b *Battery) Drain(powerMW float64, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.levelMJ -= powerMW * d.Seconds()
	if b.levelMJ < 0 {
		b.levelMJ = 0
	}
}

// DrainMJ removes an explicit amount of millijoules (e.g. a version's
// declared per-job energy budget).
//
//yasmin:noalloc
func (b *Battery) DrainMJ(mj float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.levelMJ -= mj
	if b.levelMJ < 0 {
		b.levelMJ = 0
	}
}

// Recharge restores the battery to full.
func (b *Battery) Recharge() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.levelMJ = b.capacityMJ
}

// SetLevel forces the remaining charge to the given percentage in [0,100].
func (b *Battery) SetLevel(pct float64) error {
	if pct < 0 || pct > 100 {
		return fmt.Errorf("battery: level %g out of [0,100]", pct)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.levelMJ = b.capacityMJ * pct / 100
	return nil
}
