package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/sim"
)

// versionMarker returns a TaskFunc that records which version ran.
func versionMarker(log *[]string, name string, d time.Duration) TaskFunc {
	return func(x *ExecCtx, _ any) error {
		*log = append(*log, name)
		return x.Compute(d)
	}
}

func TestEnergyVersionSelection(t *testing.T) {
	// High battery -> high-quality (GPU) version; low battery -> cheap one.
	for _, tc := range []struct {
		name    string
		level   float64
		wantVer string
	}{
		{"full battery picks quality", 90, "gpu"},
		{"low battery picks cheap", 10, "cpu"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, Config{Workers: 1, VersionSelect: SelectEnergy}, platform.GenericWithGPU(2))
			bat, err := platform.NewBattery(1000)
			if err != nil {
				t.Fatal(err)
			}
			if err := bat.SetLevel(tc.level); err != nil {
				t.Fatal(err)
			}
			r.app.SetBattery(bat)
			var log []string
			tid, _ := r.app.TaskDecl(TData{Name: "multi", Period: ms(10)})
			r.app.VersionDecl(tid, versionMarker(&log, "cpu", ms(1)), nil,
				VSelect{Quality: 1, EnergyBudget: 1, MinBattery: 0})
			r.app.VersionDecl(tid, versionMarker(&log, "gpu", ms(1)), nil,
				VSelect{Quality: 5, EnergyBudget: 10, MinBattery: 50})
			r.runMain(t, ms(25), nil)
			if len(log) == 0 {
				t.Fatal("no jobs ran")
			}
			for _, got := range log {
				if got != tc.wantVer {
					t.Errorf("ran %q, want %q", got, tc.wantVer)
				}
			}
		})
	}
}

func TestEnergySelectionUsesUserCallback(t *testing.T) {
	// The paper's Listing 2 wires a user battery callback into VSelect.
	r := newRig(t, Config{Workers: 1, VersionSelect: SelectEnergy}, nil)
	level := 100.0
	batt := func() float64 { return level }
	var log []string
	tid, _ := r.app.TaskDecl(TData{Name: "left", Period: ms(10)})
	r.app.VersionDecl(tid, versionMarker(&log, "v1", ms(1)), nil,
		VSelect{Quality: 1, EnergyBudget: 5, GetBatteryStatus: batt})
	r.app.VersionDecl(tid, versionMarker(&log, "v2", ms(1)), nil,
		VSelect{Quality: 9, EnergyBudget: 12, MinBattery: 40, GetBatteryStatus: batt})
	r.runMain(t, ms(45), func(c rt.Ctx) {
		c.Sleep(ms(18))
		level = 20 // battery collapses mid-run
	})
	if len(log) < 3 {
		t.Fatalf("only %d jobs", len(log))
	}
	if log[0] != "v2" {
		t.Errorf("first job ran %q, want v2 (battery full)", log[0])
	}
	last := log[len(log)-1]
	if last != "v1" {
		t.Errorf("last job ran %q, want v1 (battery low)", last)
	}
}

func TestTradeoffSelection(t *testing.T) {
	// alpha=1: pure WCET minimisation; alpha=0: pure energy minimisation.
	for _, tc := range []struct {
		alpha float64
		want  string
	}{
		{1.0, "fast"},
		{0.0, "frugal"},
	} {
		t.Run(fmt.Sprintf("alpha=%g", tc.alpha), func(t *testing.T) {
			r := newRig(t, Config{Workers: 1, VersionSelect: SelectTradeoff, TradeoffAlpha: tc.alpha}, nil)
			var log []string
			tid, _ := r.app.TaskDecl(TData{Name: "m", Period: ms(10)})
			r.app.VersionDecl(tid, versionMarker(&log, "fast", ms(1)), nil,
				VSelect{WCET: ms(1), EnergyBudget: 100})
			r.app.VersionDecl(tid, versionMarker(&log, "frugal", ms(3)), nil,
				VSelect{WCET: ms(3), EnergyBudget: 5})
			r.runMain(t, ms(25), nil)
			if len(log) == 0 || log[0] != tc.want {
				t.Errorf("log = %v, want %q first", log, tc.want)
			}
		})
	}
}

func TestModeSelection(t *testing.T) {
	// The paper's multi-security-mode example: switch encodings at runtime.
	r := newRig(t, Config{Workers: 1, VersionSelect: SelectMode}, nil)
	var log []string
	tid, _ := r.app.TaskDecl(TData{Name: "encode", Period: ms(10)})
	r.app.VersionDecl(tid, versionMarker(&log, "plain", ms(1)), nil, VSelect{Modes: 1 << 0})
	r.app.VersionDecl(tid, versionMarker(&log, "aes", ms(2)), nil, VSelect{Modes: 1 << 1})
	r.runMain(t, ms(55), func(c rt.Ctx) {
		c.Sleep(ms(25))
		r.app.SetMode(1) // switch to secure mode mid-run
	})
	if len(log) < 4 {
		t.Fatalf("only %d jobs", len(log))
	}
	if log[0] != "plain" {
		t.Errorf("mode 0 ran %q, want plain", log[0])
	}
	if last := log[len(log)-1]; last != "aes" {
		t.Errorf("mode 1 ran %q, want aes", last)
	}
}

func TestBitmaskSelection(t *testing.T) {
	r := newRig(t, Config{Workers: 1, VersionSelect: SelectBitmask}, nil)
	var log []string
	tid, _ := r.app.TaskDecl(TData{Name: "t", Period: ms(10)})
	r.app.VersionDecl(tid, versionMarker(&log, "a", ms(1)), nil, VSelect{Mask: 0b01})
	r.app.VersionDecl(tid, versionMarker(&log, "b", ms(1)), nil, VSelect{Mask: 0b10})
	r.app.SetPermissionMask(0b10)
	r.runMain(t, ms(25), nil)
	for _, got := range log {
		if got != "b" {
			t.Errorf("ran %q, want b (mask selects it)", got)
		}
	}
}

func TestUserSelection(t *testing.T) {
	picked := VID(-1)
	cfg := Config{
		Workers:       1,
		VersionSelect: SelectUser,
		UserSelect: func(tid TID, vs []VersionInfo, st SelectState) VID {
			picked = vs[len(vs)-1].ID // always the last version
			return picked
		},
	}
	r := newRig(t, cfg, nil)
	var log []string
	tid, _ := r.app.TaskDecl(TData{Name: "t", Period: ms(10)})
	r.app.VersionDecl(tid, versionMarker(&log, "first", ms(1)), nil, VSelect{})
	r.app.VersionDecl(tid, versionMarker(&log, "second", ms(1)), nil, VSelect{})
	r.runMain(t, ms(25), nil)
	if picked != 1 {
		t.Errorf("callback picked %d, want 1", picked)
	}
	for _, got := range log {
		if got != "second" {
			t.Errorf("ran %q, want second", got)
		}
	}
}

func TestAccelContentionPrefersFreeVersion(t *testing.T) {
	// Two tasks, both with GPU and CPU versions, same release: only one GPU
	// exists, so one must take the CPU version — the paper's Section 2
	// motivating example.
	pl := platform.GenericWithGPU(4)
	r := newRig(t, Config{Workers: 2, VersionSelect: SelectFirst}, pl)
	gpu, err := r.app.HwAccelDecl("gpu0")
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	mk := func(name string) TID {
		tid, _ := r.app.TaskDecl(TData{Name: name, Period: ms(20)})
		// GPU version declared first: preferred when free.
		gv, _ := r.app.VersionDecl(tid, versionMarker(&log, name+"/gpu", ms(8)), nil, VSelect{})
		r.app.VersionDecl(tid, versionMarker(&log, name+"/cpu", ms(8)), nil, VSelect{})
		if err := r.app.HwAccelUse(tid, gv, gpu); err != nil {
			t.Fatal(err)
		}
		return tid
	}
	mk("A")
	mk("B")
	r.runMain(t, ms(19), nil)
	if len(log) != 2 {
		t.Fatalf("log = %v, want 2 jobs", log)
	}
	gpuRuns, cpuRuns := 0, 0
	for _, e := range log {
		switch e[2:] {
		case "gpu":
			gpuRuns++
		case "cpu":
			cpuRuns++
		}
	}
	if gpuRuns != 1 || cpuRuns != 1 {
		t.Errorf("log = %v, want exactly one GPU and one CPU run in parallel", log)
	}
}

func TestAccelWaitAndPIP(t *testing.T) {
	// Single worker variant is hard to arrange; use 2 workers and GPU-only
	// versions: the second job must wait for the accelerator, and since it
	// is more urgent, the holder is boosted (observable via completion
	// order and the waiter eventually running).
	pl := platform.GenericWithGPU(4)
	r := newRig(t, Config{Workers: 2, Priority: PriorityEDF, Preemption: true}, pl)
	gpu, _ := r.app.HwAccelDecl("gpu0")
	var log []string
	// holder: long GPU job, loose deadline, released first.
	holder, _ := r.app.TaskDecl(TData{Name: "holder", Period: ms(100), Deadline: ms(90)})
	hv, _ := r.app.VersionDecl(holder, versionMarker(&log, "holder", ms(20)), nil, VSelect{})
	r.app.HwAccelUse(holder, hv, gpu)
	// urgent: GPU-only job, tight deadline, released shortly after.
	urgent, _ := r.app.TaskDecl(TData{Name: "urgent", Period: ms(100), Deadline: ms(40), ReleaseOffset: ms(5)})
	uv, _ := r.app.VersionDecl(urgent, versionMarker(&log, "urgent", ms(5)), nil, VSelect{})
	r.app.HwAccelUse(urgent, uv, gpu)
	r.runMain(t, ms(95), nil)

	if len(log) < 2 {
		t.Fatalf("log = %v", log)
	}
	if log[0] != "holder" || log[1] != "urgent" {
		t.Errorf("order = %v, want holder then urgent (PIP: no deadlock, waiter runs after release)", log)
	}
	urgentSt := r.app.Recorder().Task("urgent")
	if urgentSt == nil || urgentSt.Jobs == 0 {
		t.Fatal("urgent never ran: accelerator waiter lost")
	}
	// holder ran 20ms from ~0; urgent finished by ~30ms < its 45ms deadline.
	if urgentSt.Misses != 0 {
		t.Errorf("urgent missed %d deadlines", urgentSt.Misses)
	}
}

func TestAsyncAccelFreesWorker(t *testing.T) {
	// With AsyncAccel, a CPU-bound task can run while another task's
	// accelerator section is in flight on the same single worker.
	pl := platform.GenericWithGPU(2)
	mkApp := func(async bool) (time.Duration, int64) {
		r := newRig(t, Config{Workers: 1, VersionSelect: SelectFirst, AsyncAccel: async, Preemption: true}, pl)
		gpu, _ := r.app.HwAccelDecl("gpu0")
		gt, _ := r.app.TaskDecl(TData{Name: "gputask", Period: ms(100)})
		gv, _ := r.app.VersionDecl(gt, func(x *ExecCtx, _ any) error {
			if err := x.Compute(ms(1)); err != nil { // CPU prologue
				return err
			}
			if err := x.AccelSection(ms(30)); err != nil { // GPU part
				return err
			}
			return x.Compute(ms(1)) // CPU epilogue
		}, nil, VSelect{})
		r.app.HwAccelUse(gt, gv, gpu)
		ct, _ := r.app.TaskDecl(TData{Name: "cputask", Period: ms(100), Deadline: ms(20), ReleaseOffset: ms(2)})
		r.app.VersionDecl(ct, spin(ms(5)), nil, VSelect{})
		r.runMain(t, ms(95), nil)
		st := r.app.Recorder().Task("cputask")
		if st == nil {
			t.Fatal("cputask never ran")
		}
		_, max, _ := st.Response.Summary()
		return max, st.Misses
	}
	syncMax, syncMisses := mkApp(false)
	asyncMax, asyncMisses := mkApp(true)
	// Synchronous: worker blocked ~32ms; cputask (D=20ms) misses.
	if syncMisses == 0 {
		t.Errorf("sync: expected cputask misses behind the blocking GPU section (max resp %v)", syncMax)
	}
	// Asynchronous: worker freed during the 30ms GPU section; cputask fits.
	if asyncMisses != 0 {
		t.Errorf("async: cputask missed %d deadlines (max resp %v), worker not freed", asyncMisses, asyncMax)
	}
	if asyncMax >= syncMax {
		t.Errorf("async max response %v not better than sync %v", asyncMax, syncMax)
	}
}

func TestMultiModeStopAlterRestart(t *testing.T) {
	// The paper: the task set may be altered while the schedule is stopped
	// (multi-mode scheduling), then resumed with a new Start.
	r := newRig(t, Config{Workers: 1}, nil)
	tid, _ := r.app.TaskDecl(TData{Name: "phase1", Period: ms(10)})
	r.app.VersionDecl(tid, spin(ms(1)), nil, VSelect{})
	r.env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := r.app.Start(c); err != nil {
			t.Errorf("Start 1: %v", err)
			return
		}
		// While running, declarations must fail.
		if _, err := r.app.TaskDecl(TData{Name: "nope", Period: ms(5)}); err == nil {
			t.Error("TaskDecl while running must fail")
		}
		c.Sleep(ms(35))
		r.app.Stop(c)
		// Wait out the drain, then alter the set.
		for !r.app.drained() {
			c.Sleep(ms(1))
		}
		for r.app.runLive.Load() > 0 {
			c.Sleep(ms(1))
		}
		t2, err := r.app.TaskDecl(TData{Name: "phase2", Period: ms(5)})
		if err != nil {
			t.Errorf("TaskDecl after stop: %v", err)
			return
		}
		r.app.VersionDecl(t2, spin(ms(1)), nil, VSelect{})
		if err := r.app.Start(c); err != nil {
			t.Errorf("Start 2: %v", err)
			return
		}
		c.Sleep(ms(35))
		r.app.Stop(c)
		r.app.Cleanup(c)
	})
	if err := r.eng.Run(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	p1 := r.app.Recorder().Task("phase1")
	p2 := r.app.Recorder().Task("phase2")
	if p1 == nil || p1.Jobs < 4 {
		t.Errorf("phase1 stats = %+v", p1)
	}
	if p2 == nil || p2.Jobs < 4 {
		t.Errorf("phase2 stats = %+v (restart failed)", p2)
	}
}

func TestOfflineDispatch(t *testing.T) {
	r := newRig(t, Config{Workers: 2, Mapping: MappingOffline, RecordJobs: true}, nil)
	a, _ := r.app.TaskDecl(TData{Name: "a", Period: ms(20)})
	b, _ := r.app.TaskDecl(TData{Name: "b", Period: ms(20)})
	c0, _ := r.app.TaskDecl(TData{Name: "c", Period: ms(20)})
	r.app.VersionDecl(a, spin(ms(3)), nil, VSelect{})
	r.app.VersionDecl(b, spin(ms(3)), nil, VSelect{})
	r.app.VersionDecl(c0, spin(ms(3)), nil, VSelect{})
	tbl := &OfflineTable{
		Cycle: ms(20),
		PerWorker: [][]TableEntry{
			{{Offset: 0, Task: a, Version: 0}, {Offset: ms(10), Task: c0, Version: 0}},
			{{Offset: ms(2), Task: b, Version: 0}},
		},
	}
	if err := r.app.SetOfflineTable(tbl); err != nil {
		t.Fatal(err)
	}
	r.runMain(t, ms(60), nil)
	jobs := r.app.Recorder().Jobs()
	if len(jobs) < 7 {
		t.Fatalf("jobs = %d, want ~9 over 3 cycles", len(jobs))
	}
	for _, j := range jobs {
		var wantOff time.Duration
		switch j.Task {
		case "a":
			wantOff = 0
		case "b":
			wantOff = ms(2)
		case "c":
			wantOff = ms(10)
		}
		phase := j.Start % ms(20)
		slack := phase - wantOff
		if slack < 0 || slack > ms(1) {
			t.Errorf("%s job started at %v (phase %v), want table offset %v",
				j.Task, j.Start, phase, wantOff)
		}
		if j.Missed {
			t.Errorf("%s missed its deadline in the static schedule", j.Task)
		}
	}
}

func TestOfflineDispatchRecordsTaskErrors(t *testing.T) {
	r := newRig(t, Config{Workers: 1, Mapping: MappingOffline}, nil)
	boom := errors.New("sensor fault")
	a, _ := r.app.TaskDecl(TData{Name: "a", Period: ms(10)})
	r.app.VersionDecl(a, func(x *ExecCtx, _ any) error {
		if err := x.Compute(ms(1)); err != nil {
			return err
		}
		return boom
	}, nil, VSelect{})
	tbl := &OfflineTable{
		Cycle:     ms(10),
		PerWorker: [][]TableEntry{{{Offset: 0, Task: a, Version: 0}}},
	}
	if err := r.app.SetOfflineTable(tbl); err != nil {
		t.Fatal(err)
	}
	r.runMain(t, ms(35), nil)
	if n := r.app.TaskErrors(); n < 3 {
		t.Errorf("TaskErrors = %d, want one per dispatched job", n)
	}
	if err := r.app.FirstError(); !errors.Is(err, boom) {
		t.Errorf("FirstError = %v, want %v", err, boom)
	}
}

// TestOfflineCleanupReturns: an offline job counts once in jobsLive, so
// Cleanup sees the App drain and returns. Counting a job twice made it poll
// forever.
func TestOfflineCleanupReturns(t *testing.T) {
	r := newRig(t, Config{Workers: 1, Mapping: MappingOffline}, nil)
	a, _ := r.app.TaskDecl(TData{Name: "a", Period: ms(10)})
	r.app.VersionDecl(a, spin(ms(1)), nil, VSelect{})
	tbl := &OfflineTable{
		Cycle:     ms(10),
		PerWorker: [][]TableEntry{{{Offset: 0, Task: a, Version: 0}}},
	}
	if err := r.app.SetOfflineTable(tbl); err != nil {
		t.Fatal(err)
	}
	returned := false
	r.env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := r.app.Start(c); err != nil {
			t.Errorf("Start: %v", err)
			return
		}
		c.SleepUntil(ms(35))
		r.app.Stop(c)
		r.app.Cleanup(c)
		returned = true
	})
	if err := r.eng.Run(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if !returned {
		t.Fatalf("Cleanup still waiting at 1s: jobsLive = %d", r.app.jobsLive.Load())
	}
	if st := r.app.Recorder().Task("a"); st == nil || st.Jobs != 4 {
		t.Errorf("a = %+v, want 4 jobs (offsets 0, 10, 20, 30 ms)", st)
	}
}

func TestOfflineTableValidation(t *testing.T) {
	r := newRig(t, Config{Workers: 1, Mapping: MappingOffline}, nil)
	a, _ := r.app.TaskDecl(TData{Name: "a", Period: ms(10)})
	r.app.VersionDecl(a, spin(ms(1)), nil, VSelect{})
	bad := []*OfflineTable{
		{Cycle: 0, PerWorker: [][]TableEntry{{}}},
		{Cycle: ms(10), PerWorker: [][]TableEntry{{}, {}}},
		{Cycle: ms(10), PerWorker: [][]TableEntry{{{Offset: ms(15), Task: a}}}},
		{Cycle: ms(10), PerWorker: [][]TableEntry{{{Offset: ms(5), Task: a}, {Offset: ms(2), Task: a}}}},
		{Cycle: ms(10), PerWorker: [][]TableEntry{{{Offset: 0, Task: TID(9)}}}},
		{Cycle: ms(10), PerWorker: [][]TableEntry{{{Offset: 0, Task: a, Version: 3}}}},
	}
	for i, tbl := range bad {
		if err := r.app.SetOfflineTable(tbl); err == nil {
			t.Errorf("table %d accepted, want error", i)
		}
	}
	// Offline start without table must fail.
	r2 := newRig(t, Config{Workers: 1, Mapping: MappingOffline}, nil)
	x, _ := r2.app.TaskDecl(TData{Name: "x", Period: ms(10)})
	r2.app.VersionDecl(x, spin(ms(1)), nil, VSelect{})
	r2.env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := r2.app.Start(c); err == nil {
			t.Error("offline Start without table must fail")
			r2.app.Stop(c)
			r2.app.Cleanup(c)
		}
	})
	if err := r2.eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestOverrunsOnPoolExhaustion(t *testing.T) {
	// 1 worker, long jobs, tiny pool: releases must be dropped and counted.
	r := newRig(t, Config{Workers: 1, MaxPendingJobs: 2}, nil)
	tid, _ := r.app.TaskDecl(TData{Name: "hog", Period: ms(5)})
	r.app.VersionDecl(tid, spin(ms(30)), nil, VSelect{})
	r.runMain(t, ms(100), nil)
	if r.app.Overruns() == 0 {
		t.Error("expected overruns with a 2-job pool and 6x overload")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, time.Duration, time.Duration) {
		r := newRig(t, Config{Workers: 2, Priority: PriorityEDF, Preemption: true}, platform.OdroidXU4())
		for i := 0; i < 5; i++ {
			tid, _ := r.app.TaskDecl(TData{
				Name:   fmt.Sprintf("t%d", i),
				Period: time.Duration(10+3*i) * time.Millisecond,
			})
			r.app.VersionDecl(tid, spin(time.Duration(1+i)*time.Millisecond), nil, VSelect{})
		}
		r.runMain(t, ms(300), nil)
		rec := r.app.Recorder()
		var totResp time.Duration
		for _, n := range rec.TaskNames() {
			totResp += rec.Task(n).Response.Mean()
		}
		return rec.TotalJobs(), totResp, r.app.Overheads().Total().Max()
	}
	j1, r1, o1 := run()
	j2, r2, o2 := run()
	if j1 != j2 || r1 != r2 || o1 != o2 {
		t.Errorf("non-deterministic: (%d,%v,%v) vs (%d,%v,%v)", j1, r1, o1, j2, r2, o2)
	}
	if j1 == 0 {
		t.Error("no jobs ran")
	}
}

func TestOverheadsAreRecorded(t *testing.T) {
	r := newRig(t, Config{Workers: 2}, nil)
	tid, _ := r.app.TaskDecl(TData{Name: "t", Period: ms(10)})
	r.app.VersionDecl(tid, spin(ms(1)), nil, VSelect{})
	r.runMain(t, ms(100), nil)
	if r.app.Overheads().Total().Count() == 0 {
		t.Error("no overhead samples recorded")
	}
	if st := r.app.Overheads().Kind(1); st == nil || st.Count() == 0 { // OverheadSchedule
		t.Error("no scheduler tick recorded")
	}
	if st := r.app.Overheads().Kind(2); st == nil { // OverheadDispatch
		t.Error("no dispatch overhead recorded")
	}
}

func TestLockFreeConfigRuns(t *testing.T) {
	r := newRig(t, Config{Workers: 2, Lock: LockFree, Wait: WaitSpin}, nil)
	tid, _ := r.app.TaskDecl(TData{Name: "t", Period: ms(10)})
	r.app.VersionDecl(tid, spin(ms(2)), nil, VSelect{})
	r.runMain(t, ms(60), nil)
	st := r.app.Recorder().Task("t")
	if st == nil || st.Jobs < 5 {
		t.Errorf("stats = %+v", st)
	}
	if st != nil && st.Misses != 0 {
		t.Errorf("misses = %d", st.Misses)
	}
}

func TestOSEnvSmoke(t *testing.T) {
	// The middleware as a real wall-clock Go library: short smoke run.
	env := rt.NewOSEnv()
	env.Spin = false
	app, err := New(Config{Workers: 2}, env)
	if err != nil {
		t.Fatal(err)
	}
	tid, err := app.TaskDecl(TData{Name: "tick", Period: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.VersionDecl(tid, spin(time.Millisecond), nil, VSelect{}); err != nil {
		t.Fatal(err)
	}
	env.RunMain(func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			t.Errorf("Start: %v", err)
			return
		}
		c.Sleep(150 * time.Millisecond)
		app.Stop(c)
		app.Cleanup(c)
	})
	env.Wait()
	st := app.Recorder().Task("tick")
	if st == nil || st.Jobs < 3 {
		t.Fatalf("wall-clock run produced %+v", st)
	}
}
