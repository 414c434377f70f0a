package core

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
)

func TestUserPriorityAssignment(t *testing.T) {
	r := newRig(t, Config{Workers: 1, Priority: PriorityUser}, nil)
	var order []string
	mk := func(name string, prio int) {
		tid, err := r.app.TaskDecl(TData{Name: name, Period: ms(50), Priority: prio})
		if err != nil {
			t.Fatal(err)
		}
		r.app.VersionDecl(tid, func(x *ExecCtx, _ any) error {
			order = append(order, name)
			return x.Compute(ms(1))
		}, nil, VSelect{})
	}
	mk("lowprio", 30)
	mk("midprio", 20)
	mk("topprio", 10)
	r.runMain(t, ms(45), nil)
	if len(order) < 3 {
		t.Fatalf("order = %v", order)
	}
	if order[0] != "topprio" || order[1] != "midprio" || order[2] != "lowprio" {
		t.Errorf("order = %v, want user-priority order", order)
	}
}

func TestArbitraryDeadlines(t *testing.T) {
	// D > T (arbitrary): consecutive jobs may overlap in their deadline
	// windows; the runtime must accept and track them.
	r := newRig(t, Config{Workers: 2, Priority: PriorityEDF}, nil)
	tid, err := r.app.TaskDecl(TData{Name: "arb", Period: ms(10), Deadline: ms(25)})
	if err != nil {
		t.Fatal(err)
	}
	r.app.VersionDecl(tid, spin(ms(8)), nil, VSelect{})
	r.runMain(t, ms(100), nil)
	st := r.app.Recorder().Task("arb")
	if st == nil || st.Jobs < 9 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Misses != 0 {
		t.Errorf("misses = %d: 8ms job with 25ms deadline must fit", st.Misses)
	}
}

func TestAperiodicTaskActivation(t *testing.T) {
	// Non-sporadic, non-periodic task: activated ad hoc, needs a deadline.
	r := newRig(t, Config{Workers: 1}, nil)
	tid, err := r.app.TaskDecl(TData{Name: "aper", Deadline: ms(15)})
	if err != nil {
		t.Fatal(err)
	}
	r.app.VersionDecl(tid, spin(ms(2)), nil, VSelect{})
	// Another periodic task so the scheduler has something to derive its
	// period from.
	p, _ := r.app.TaskDecl(TData{Name: "p", Period: ms(10)})
	r.app.VersionDecl(p, spin(ms(1)), nil, VSelect{})
	r.runMain(t, ms(100), func(c rt.Ctx) {
		for i := 0; i < 3; i++ {
			c.Sleep(ms(20))
			if err := r.app.TaskActivate(c, tid); err != nil {
				t.Errorf("activate %d: %v", i, err)
			}
		}
	})
	st := r.app.Recorder().Task("aper")
	if st == nil || st.Jobs != 3 {
		t.Fatalf("aper stats = %+v, want 3 jobs", st)
	}
	if st.Misses != 0 {
		t.Errorf("aper missed %d deadlines", st.Misses)
	}
}

func TestChannelFullAndEmptyErrors(t *testing.T) {
	r := newRig(t, Config{Workers: 1}, nil)
	ch, _ := r.app.ChannelDecl("tiny", 1)
	src, _ := r.app.TaskDecl(TData{Name: "src", Period: ms(10)})
	dst, _ := r.app.TaskDecl(TData{Name: "dst"})
	var pushErr, popErr error
	r.app.VersionDecl(src, func(x *ExecCtx, _ any) error {
		if err := x.Push(ch, 1); err != nil {
			return err
		}
		pushErr = x.Push(ch, 2) // capacity 1: must fail
		return nil
	}, nil, VSelect{})
	r.app.VersionDecl(dst, func(x *ExecCtx, _ any) error {
		if _, err := x.Pop(ch); err != nil {
			return err
		}
		_, popErr = x.Pop(ch) // drained: must fail
		if n, err := x.ChannelLen(ch); err != nil || n != 0 {
			t.Errorf("len = %d,%v", n, err)
		}
		return nil
	}, nil, VSelect{})
	r.app.ChannelConnect(src, dst, ch)
	r.runMain(t, ms(25), nil)
	if pushErr == nil {
		t.Error("push into a full channel must fail")
	}
	if popErr == nil {
		t.Error("pop from an empty channel must fail")
	}
	if r.app.FirstError() != nil {
		t.Errorf("unexpected task error: %v", r.app.FirstError())
	}
}

func TestChannelBadIDs(t *testing.T) {
	r := newRig(t, Config{Workers: 1}, nil)
	tid, _ := r.app.TaskDecl(TData{Name: "t", Period: ms(10)})
	var errs [3]error
	r.app.VersionDecl(tid, func(x *ExecCtx, _ any) error {
		errs[0] = x.Push(CID(99), 1)
		_, errs[1] = x.Pop(CID(99))
		_, errs[2] = x.ChannelLen(CID(99))
		return nil
	}, nil, VSelect{})
	r.runMain(t, ms(15), nil)
	for i, err := range errs {
		if err == nil {
			t.Errorf("op %d on unknown channel must fail", i)
		}
	}
}

func TestEnergyMeteringOfJobs(t *testing.T) {
	pl := platform.OdroidXU4()
	r := newRig(t, Config{Workers: 1, WorkerCores: []int{4}, SchedulerCore: 5}, pl)
	bat, err := platform.NewBattery(10000)
	if err != nil {
		t.Fatal(err)
	}
	r.app.SetBattery(bat)
	tid, _ := r.app.TaskDecl(TData{Name: "worker-task", Period: ms(10)})
	r.app.VersionDecl(tid, spin(ms(5)), nil, VSelect{})
	r.runMain(t, ms(100), nil)
	// 10 jobs x 5ms on a 1550mW big core = 77.5 mJ.
	if drained := 10000 - bat.RemainingMJ(); math.Abs(drained-77.5) > 1e-6 {
		t.Errorf("battery drained %g mJ, want 77.5", drained)
	}
}

func TestBatteryDrainsPerVersionBudget(t *testing.T) {
	r := newRig(t, Config{Workers: 1}, nil)
	bat, err := platform.NewBattery(100)
	if err != nil {
		t.Fatal(err)
	}
	r.app.SetBattery(bat)
	tid, _ := r.app.TaskDecl(TData{Name: "t", Period: ms(10)})
	r.app.VersionDecl(tid, spin(ms(1)), nil, VSelect{EnergyBudget: 2})
	r.runMain(t, ms(55), nil)
	// ~6 jobs x 2mJ declared budget (+ compute drain on the generic core).
	if got := bat.RemainingMJ(); got > 90 {
		t.Errorf("battery at %g mJ; version budgets not drained", got)
	}
}

func TestGanttFromRecordedJobs(t *testing.T) {
	r := newRig(t, Config{Workers: 2, RecordJobs: true}, nil)
	a, _ := r.app.TaskDecl(TData{Name: "a", Period: ms(20)})
	b, _ := r.app.TaskDecl(TData{Name: "b", Period: ms(20)})
	r.app.VersionDecl(a, spin(ms(5)), nil, VSelect{})
	r.app.VersionDecl(b, spin(ms(5)), nil, VSelect{})
	r.runMain(t, ms(60), nil)
	var buf bytes.Buffer
	if err := r.app.Recorder().Gantt(&buf, ms(60), 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "core1") || !strings.Contains(out, "core2") {
		t.Errorf("gantt lacks worker cores:\n%s", out)
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Errorf("gantt lacks task bars:\n%s", out)
	}
}

func TestDeclarationsRejectedWhileRunning(t *testing.T) {
	r := newRig(t, Config{Workers: 1}, nil)
	tid, _ := r.app.TaskDecl(TData{Name: "t", Period: ms(10)})
	r.app.VersionDecl(tid, spin(ms(1)), nil, VSelect{})
	r.runMain(t, ms(30), func(c rt.Ctx) {
		if _, err := r.app.TaskDecl(TData{Name: "x", Period: ms(5)}); err == nil {
			t.Error("TaskDecl while running must fail")
		}
		if _, err := r.app.VersionDecl(tid, spin(ms(1)), nil, VSelect{}); err == nil {
			t.Error("VersionDecl while running must fail")
		}
		if _, err := r.app.ChannelDecl("c", 1); err == nil {
			t.Error("ChannelDecl while running must fail")
		}
		if _, err := r.app.HwAccelDecl("acc"); err == nil {
			t.Error("HwAccelDecl while running must fail")
		}
		if err := r.app.HwAccelUse(tid, 0, 0); err == nil {
			t.Error("HwAccelUse while running must fail")
		}
	})
}

func TestLittleCoreSlowsExecution(t *testing.T) {
	// The same task pinned (partitioned) to a LITTLE core responds slower
	// than on a big core — the big.LITTLE heterogeneity is visible.
	run := func(core int) time.Duration {
		pl := platform.OdroidXU4()
		r := newRig(t, Config{
			Workers: 1, WorkerCores: []int{core}, SchedulerCore: 7,
			Mapping: MappingPartitioned,
		}, pl)
		tid, _ := r.app.TaskDecl(TData{Name: "t", Period: ms(50), VirtCore: 0})
		r.app.VersionDecl(tid, spin(ms(10)), nil, VSelect{})
		r.runMain(t, ms(200), nil)
		st := r.app.Recorder().Task("t")
		if st == nil {
			t.Fatal("no stats")
		}
		_, _, avg := st.Response.Summary()
		return avg
	}
	big := run(4)    // Cortex-A15, speed 1.0
	little := run(0) // Cortex-A7, speed 0.45
	if little <= big {
		t.Errorf("LITTLE response %v not above big %v", little, big)
	}
	ratio := float64(little) / float64(big)
	if ratio < 1.8 || ratio > 2.8 {
		t.Errorf("LITTLE/big ratio %.2f, want ~1/0.45", ratio)
	}
}

func TestExecCtxAccessors(t *testing.T) {
	r := newRig(t, Config{Workers: 1}, nil)
	tid, _ := r.app.TaskDecl(TData{Name: "acc", Period: ms(10), Deadline: ms(8)})
	checked := false
	r.app.VersionDecl(tid, func(x *ExecCtx, args any) error {
		if x.Task() != tid || x.TaskName() != "acc" {
			t.Errorf("identity: %v %q", x.Task(), x.TaskName())
		}
		if x.Version() != 0 {
			t.Errorf("version = %d", x.Version())
		}
		if x.JobIndex() < 1 {
			t.Errorf("job index = %d", x.JobIndex())
		}
		if x.AbsoluteDeadline() != x.Release()+ms(8) {
			t.Errorf("deadline math: rel=%v dl=%v", x.Release(), x.AbsoluteDeadline())
		}
		if x.Battery() != -1 {
			t.Errorf("battery = %g without a battery", x.Battery())
		}
		if args != any("static") {
			t.Errorf("args = %v", args)
		}
		if x.App() != r.app {
			t.Error("App() mismatch")
		}
		checked = true
		return nil
	}, "static", VSelect{})
	r.runMain(t, ms(25), nil)
	if !checked {
		t.Fatal("task never ran")
	}
}
