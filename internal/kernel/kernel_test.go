package kernel

import (
	"math/rand"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/rt"
)

func sampleAvg(t *testing.T, m Model, load string, n int) (min, max, avg time.Duration) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	min = time.Hour
	var sum time.Duration
	for i := 0; i < n; i++ {
		lat := m.Latency(rng, rt.WakeTimer)
		if lat < 0 {
			t.Fatalf("%s: negative latency %v", m.Name(), lat)
		}
		if lat < min {
			min = lat
		}
		if lat > max {
			max = lat
		}
		sum += lat
	}
	return min, max, sum / time.Duration(n)
}

func TestPreemptRTShape(t *testing.T) {
	// Calibration target (paper Table 2, RTapps row): <176, 1550, 463> µs.
	min, max, avg := sampleAvg(t, &PreemptRT{Load: 0.91}, "stress", 10000)
	if min < 100*time.Microsecond || min > 250*time.Microsecond {
		t.Errorf("min = %v, want ~176µs", min)
	}
	if max < 900*time.Microsecond || max > 1600*time.Microsecond {
		t.Errorf("max = %v, want ~1.5ms", max)
	}
	if avg < 300*time.Microsecond || avg > 650*time.Microsecond {
		t.Errorf("avg = %v, want ~463µs", avg)
	}
}

func TestGSNEDFShape(t *testing.T) {
	// Target: <35, 247, 84> µs.
	min, max, avg := sampleAvg(t, &LitmusGSNEDF{Load: 0.91}, "stress", 10000)
	if min < 15*time.Microsecond || min > 60*time.Microsecond {
		t.Errorf("min = %v, want ~35µs", min)
	}
	if max < 150*time.Microsecond || max > 280*time.Microsecond {
		t.Errorf("max = %v, want ~247µs", max)
	}
	if avg < 50*time.Microsecond || avg > 130*time.Microsecond {
		t.Errorf("avg = %v, want ~84µs", avg)
	}
}

func TestPRESShape(t *testing.T) {
	// Target: <988, 1206, 1027> µs — reservation-boundary quantisation.
	min, max, avg := sampleAvg(t, &LitmusPRES{Load: 0.91}, "stress", 10000)
	if min < 950*time.Microsecond || min > 1050*time.Microsecond {
		t.Errorf("min = %v, want ~988µs", min)
	}
	if max > 1300*time.Microsecond {
		t.Errorf("max = %v, want ~1.2ms", max)
	}
	if avg < 990*time.Microsecond || avg > 1100*time.Microsecond {
		t.Errorf("avg = %v, want ~1027µs", avg)
	}
}

func TestVanillaHasHeavyTail(t *testing.T) {
	_, max, _ := sampleAvg(t, &Vanilla{Load: 0.9}, "stress", 10000)
	if max < 5*time.Millisecond {
		t.Errorf("vanilla max = %v, want multi-ms CFS tail", max)
	}
}

func TestLoadSensitivity(t *testing.T) {
	for _, mk := range []func(load float64) Model{
		func(l float64) Model { return &PreemptRT{Load: l} },
		func(l float64) Model { return &LitmusGSNEDF{Load: l} },
		func(l float64) Model { return &Vanilla{Load: l} },
	} {
		idleM := mk(0)
		loadM := mk(0.9)
		_, _, idle := sampleAvg(t, idleM, "idle", 4000)
		_, _, load := sampleAvg(t, loadM, "load", 4000)
		if load <= idle {
			t.Errorf("%s: loaded avg %v not above idle avg %v", loadM.Name(), load, idle)
		}
	}
}

func TestUnparkCheaperThanTimer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := &PreemptRT{Load: 0.9}
	var timer, unpark time.Duration
	for i := 0; i < 5000; i++ {
		timer += m.Latency(rng, rt.WakeTimer)
		unpark += m.Latency(rng, rt.WakeUnpark)
	}
	if unpark >= timer {
		t.Errorf("futex wake total %v not below timer wake %v", unpark, timer)
	}
}

func TestIdealAndWakeFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if Ideal.Latency(Ideal{}, rng, rt.WakeTimer) != 0 {
		t.Error("ideal latency must be zero")
	}
	if WakeFunc(nil, rng) != nil {
		t.Error("nil model must give nil hook")
	}
	fn := WakeFunc(&PreemptRT{Load: 0.5}, rng)
	if fn == nil || fn(rt.WakeTimer, 0) < 0 {
		t.Error("wake func broken")
	}
}

func TestNames(t *testing.T) {
	models := []Model{&PreemptRT{}, &LitmusGSNEDF{}, &LitmusPRES{}, &Vanilla{}, Ideal{}}
	for _, m := range models {
		if m.Name() == "" {
			t.Errorf("%T has empty name", m)
		}
	}
}

// Vanilla models an unpatched Linux CFS kernel: no latency bound at all.
// The tests use it as the heavy-tailed reference; no experiment runs it.
type Vanilla struct {
	Load float64
}

// Name returns the kernel identification string.
func (k *Vanilla) Name() string { return "Linux (vanilla CFS)" }

// Latency has a small floor but a heavy, load-dependent tail: fair-share
// scheduling may delay an RT-ish thread by whole scheduling epochs.
func (k *Vanilla) Latency(rng *rand.Rand, reason rt.WakeReason) time.Duration {
	floor := 5 * time.Microsecond
	mean := 15*time.Microsecond + time.Duration(k.Load*float64(500*time.Microsecond))
	lat := floor + expSample(rng, mean)
	if rng.Float64() < 0.10*k.Load {
		// Landed behind a full CFS timeslice (or several).
		lat += time.Duration(1+rng.Intn(4)) * 6 * time.Millisecond
	}
	return clamp(lat, 3*time.Microsecond, 50*time.Millisecond)
}
