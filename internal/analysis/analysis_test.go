package analysis

import (
	"math/rand"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/taskset"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func mkTask(id int, c, t, d time.Duration) taskset.Task {
	return taskset.Task{ID: id, Name: string(rune('a' + id)), WCET: c, Period: t, Deadline: d}
}

func TestRTAClassicExample(t *testing.T) {
	// Textbook example (Burns & Wellings): three tasks, RM order.
	tasks := []taskset.Task{
		mkTask(0, ms(1), ms(4), ms(4)),
		mkTask(1, ms(2), ms(6), ms(6)),
		mkTask(2, ms(3), ms(13), ms(13)),
	}
	resp, ok, err := ResponseTimeFP(tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("set must be schedulable")
	}
	want := []time.Duration{ms(1), ms(3), ms(10)}
	for i := range want {
		if resp[i] != want[i] {
			t.Errorf("R[%d] = %v, want %v", i, resp[i], want[i])
		}
	}
}

func TestRTAWithBlocking(t *testing.T) {
	tasks := []taskset.Task{
		mkTask(0, ms(1), ms(4), ms(4)),
		mkTask(1, ms(2), ms(6), ms(6)),
	}
	// 1ms priority-inversion blocking on the high task: R0 = 1+1 = 2.
	resp, ok, err := ResponseTimeFP(tasks, []time.Duration{ms(1), 0})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("must stay schedulable")
	}
	if resp[0] != ms(2) {
		t.Errorf("R0 = %v, want 2ms", resp[0])
	}
}

func TestRTADetectsUnschedulable(t *testing.T) {
	tasks := []taskset.Task{
		mkTask(0, ms(3), ms(4), ms(4)),
		mkTask(1, ms(3), ms(8), ms(8)),
	}
	_, ok, err := ResponseTimeFP(tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("overloaded set reported schedulable")
	}
}

func TestRTARejectsArbitraryDeadlines(t *testing.T) {
	tasks := []taskset.Task{mkTask(0, ms(1), ms(4), ms(6))}
	if _, _, err := ResponseTimeFP(tasks, nil); err == nil {
		t.Error("want error for D > T")
	}
}

func TestRTABlockingLengthMismatch(t *testing.T) {
	tasks := []taskset.Task{mkTask(0, ms(1), ms(4), ms(4))}
	if _, _, err := ResponseTimeFP(tasks, []time.Duration{0, 0}); err == nil {
		t.Error("want error for blocking length mismatch")
	}
}

func TestEDFImplicitUtilizationTest(t *testing.T) {
	// With implicit deadlines the demand-bound test is exact at U <= 1.
	s := &taskset.Set{Tasks: []taskset.Task{
		mkTask(0, ms(50), ms(100), ms(100)),
		mkTask(1, ms(50), ms(100), ms(100)),
	}}
	if ok, err := DemandBoundEDF(s); err != nil || !ok {
		t.Errorf("U=1.0 implicit EDF must be schedulable (err %v)", err)
	}
	s.Tasks[0].WCET = ms(51)
	if ok, err := DemandBoundEDF(s); err != nil || ok {
		t.Errorf("U>1 must fail (err %v)", err)
	}
}

func TestDemandBoundEDF(t *testing.T) {
	// Constrained-deadline set, schedulable.
	s := &taskset.Set{Tasks: []taskset.Task{
		mkTask(0, ms(10), ms(50), ms(30)),
		mkTask(1, ms(20), ms(100), ms(80)),
	}}
	ok, err := DemandBoundEDF(s)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("set must pass the demand-bound test")
	}
	// Tighten deadlines until infeasible: two 10ms jobs due at 10ms.
	bad := &taskset.Set{Tasks: []taskset.Task{
		mkTask(0, ms(10), ms(50), ms(10)),
		mkTask(1, ms(10), ms(50), ms(10)),
	}}
	ok, err = DemandBoundEDF(bad)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("infeasible set passed the demand-bound test")
	}
}

func TestDemandBoundRejectsOverUtilization(t *testing.T) {
	s := &taskset.Set{Tasks: []taskset.Task{
		mkTask(0, ms(60), ms(100), ms(100)),
		mkTask(1, ms(60), ms(100), ms(100)),
	}}
	ok, err := DemandBoundEDF(s)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("U=1.2 must fail")
	}
}

func TestPartitionFirstFit(t *testing.T) {
	s := &taskset.Set{Tasks: []taskset.Task{
		mkTask(0, ms(60), ms(100), ms(100)), // U=0.6
		mkTask(1, ms(60), ms(100), ms(100)), // U=0.6
		mkTask(2, ms(30), ms(100), ms(100)), // U=0.3
		mkTask(3, ms(30), ms(100), ms(100)), // U=0.3
	}}
	bins, err := Partition(s, 2, UtilizationFits(1.0))
	if err != nil {
		t.Fatal(err)
	}
	// FFD: 0.6,0.6 split across cores; 0.3s fill up.
	if len(bins[0]) == 0 || len(bins[1]) == 0 {
		t.Errorf("bins = %v, expected both cores used", bins)
	}
	var u0, u1 float64
	for _, i := range bins[0] {
		u0 += s.Tasks[i].Utilization()
	}
	for _, i := range bins[1] {
		u1 += s.Tasks[i].Utilization()
	}
	if u0 > 1 || u1 > 1 {
		t.Errorf("bin utilisations %g, %g exceed 1", u0, u1)
	}
}

func TestPartitionFailsWhenOverloaded(t *testing.T) {
	s := &taskset.Set{Tasks: []taskset.Task{
		mkTask(0, ms(90), ms(100), ms(100)),
		mkTask(1, ms(90), ms(100), ms(100)),
		mkTask(2, ms(90), ms(100), ms(100)),
	}}
	if _, err := Partition(s, 2, UtilizationFits(1.0)); err == nil {
		t.Error("want partition failure for 2.7 utilisation on 2 cores")
	}
	if _, err := Partition(s, 0, UtilizationFits(1.0)); err == nil {
		t.Error("want error for zero cores")
	}
}

func TestGlobalEDFGFB(t *testing.T) {
	light := &taskset.Set{Tasks: []taskset.Task{
		mkTask(0, ms(10), ms(100), ms(100)),
		mkTask(1, ms(10), ms(100), ms(100)),
		mkTask(2, ms(10), ms(100), ms(100)),
	}}
	if !GlobalEDFGFBTest(light, 2) {
		t.Error("light set must pass GFB on 2 cores")
	}
	heavy := &taskset.Set{Tasks: []taskset.Task{
		mkTask(0, ms(90), ms(100), ms(100)),
		mkTask(1, ms(90), ms(100), ms(100)),
		mkTask(2, ms(90), ms(100), ms(100)),
	}}
	if GlobalEDFGFBTest(heavy, 2) {
		t.Error("heavy set must fail GFB on 2 cores")
	}
	if GlobalEDFGFBTest(light, 0) {
		t.Error("zero processors must fail")
	}
}

// Property: sets that pass DemandBoundEDF never report more demand than
// capacity when simulated at the deadline grid — cross-check against brute
// demand computation on random small sets.
func TestDemandBoundAgreesWithUtilizationOnImplicitSets(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		cfg := taskset.DRSConfig{
			N:                n,
			TotalUtilization: 0.2 + rng.Float64()*0.75,
			PeriodMin:        ms(10),
			PeriodMax:        ms(100),
		}
		s, err := taskset.Generate(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Implicit deadlines: demand-bound must agree with U <= 1.
		ok, err := DemandBoundEDF(s)
		if err != nil {
			t.Fatal(err)
		}
		want := s.TotalUtilization() <= 1
		if ok != want {
			t.Errorf("trial %d: demand-bound=%v but U=%g", trial, ok, s.TotalUtilization())
		}
	}
}
