package yasmin_test

// Public-API conformance tests: everything here goes through the yasmin
// facade only, the way an importing project would.

import (
	"strings"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin"
)

func TestFacadeSimulatedRun(t *testing.T) {
	eng := yasmin.NewEngine(5)
	env, err := yasmin.NewSimEnv(eng, yasmin.OdroidXU4(), nil)
	if err != nil {
		t.Fatal(err)
	}
	app, err := yasmin.New(yasmin.Config{
		Workers:       2,
		WorkerCores:   []int{4, 5},
		SchedulerCore: 6,
		Mapping:       yasmin.MappingGlobal,
		Priority:      yasmin.PriorityEDF,
	}, env)
	if err != nil {
		t.Fatal(err)
	}
	tid, err := app.TaskDecl(yasmin.TData{Name: "tick", Period: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.VersionDecl(tid, func(x *yasmin.ExecCtx, _ any) error {
		return x.Compute(time.Millisecond)
	}, nil, yasmin.VSelect{}); err != nil {
		t.Fatal(err)
	}
	env.Spawn("main", -1, func(c yasmin.Ctx) {
		if err := app.Start(c); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		c.Sleep(100 * time.Millisecond)
		app.Stop(c)
		app.Cleanup(c)
	})
	if err := eng.Run(1 << 62); err != nil {
		t.Fatal(err)
	}
	st := app.Recorder().Task("tick")
	if st == nil || st.Jobs < 9 || st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFacadeWallClockRun(t *testing.T) {
	env := yasmin.NewOSEnv()
	env.Spin = false
	app, err := yasmin.New(yasmin.Config{Workers: 2}, env)
	if err != nil {
		t.Fatal(err)
	}
	tid, err := app.TaskDecl(yasmin.TData{Name: "t", Period: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.VersionDecl(tid, func(x *yasmin.ExecCtx, _ any) error {
		return x.Compute(500 * time.Microsecond)
	}, nil, yasmin.VSelect{}); err != nil {
		t.Fatal(err)
	}
	env.RunMain(func(c yasmin.Ctx) {
		if err := app.Start(c); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		c.Sleep(120 * time.Millisecond)
		app.Stop(c)
		app.Cleanup(c)
	})
	env.Wait()
	if st := app.Recorder().Task("t"); st == nil || st.Jobs < 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// A stopped App starts again through the public API. Start waits for the
// stopped run to drain, here through a job that calls Reconfigure while it
// drains, and the task set then runs once more.
func TestFacadeStopThenStartRunsAgain(t *testing.T) {
	eng := yasmin.NewEngine(11)
	env, err := yasmin.NewSimEnv(eng, yasmin.OdroidXU4(), nil)
	if err != nil {
		t.Fatal(err)
	}
	app, err := yasmin.New(yasmin.Config{
		Workers:       2,
		WorkerCores:   []int{4, 5},
		SchedulerCore: 6,
	}, env)
	if err != nil {
		t.Fatal(err)
	}
	tid, err := app.TaskDecl(yasmin.TData{Name: "tick", Period: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	stopped, drainReconfigs := false, 0
	if _, err := app.VersionDecl(tid, func(x *yasmin.ExecCtx, _ any) error {
		if err := x.Compute(5 * time.Millisecond); err != nil {
			return err
		}
		if !stopped {
			return nil
		}
		drainReconfigs++
		return x.Reconfigure(func(*yasmin.Reconfig) error { return nil })
	}, nil, yasmin.VSelect{}); err != nil {
		t.Fatal(err)
	}
	env.Spawn("main", -1, func(c yasmin.Ctx) {
		if err := app.Start(c); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		// The job released at 10ms is still computing at 12ms.
		c.Sleep(12 * time.Millisecond)
		stopped = true
		app.Stop(c)
		if err := app.Start(c); err != nil {
			t.Errorf("start after stop: %v", err)
			app.Cleanup(c)
			return
		}
		stopped = false
		c.Sleep(100 * time.Millisecond)
		app.Stop(c)
		app.Cleanup(c)
	})
	// A bounded horizon: a Start that deadlocked against the draining job
	// would otherwise poll forever.
	if err := eng.Run(yasmin.SimTime(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if drainReconfigs != 1 {
		t.Errorf("%d draining jobs reconfigured, want 1", drainReconfigs)
	}
	// Two jobs in the first run (0 and 10ms), ten in the second.
	if st := app.Recorder().Task("tick"); st == nil || st.Jobs < 12 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want at least 12 jobs and no miss", st)
	}
}

func TestFacadeMultiVersionWithBattery(t *testing.T) {
	eng := yasmin.NewEngine(6)
	env, err := yasmin.NewSimEnv(eng, yasmin.ApalisTK1(), nil)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := yasmin.NewBattery(500)
	if err != nil {
		t.Fatal(err)
	}
	app, err := yasmin.New(yasmin.Config{
		Workers:       2,
		WorkerCores:   []int{1, 2},
		SchedulerCore: 0,
		VersionSelect: yasmin.SelectEnergy,
	}, env)
	if err != nil {
		t.Fatal(err)
	}
	app.SetBattery(bat)
	tid, err := app.TaskDecl(yasmin.TData{Name: "multi", Period: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ran := map[string]int{}
	mk := func(name string) yasmin.TaskFunc {
		return func(x *yasmin.ExecCtx, _ any) error {
			ran[name]++
			return x.Compute(time.Millisecond)
		}
	}
	if _, err := app.VersionDecl(tid, mk("cheap"), nil,
		yasmin.VSelect{Quality: 1, EnergyBudget: 0.2}); err != nil {
		t.Fatal(err)
	}
	hv, err := app.VersionDecl(tid, mk("rich"), nil,
		yasmin.VSelect{Quality: 5, EnergyBudget: 5, MinBattery: 50})
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := app.HwAccelDecl("kepler-gk20a")
	if err != nil {
		t.Fatal(err)
	}
	if err := app.HwAccelUse(tid, hv, gpu); err != nil {
		t.Fatal(err)
	}
	env.Spawn("main", -1, func(c yasmin.Ctx) {
		if err := app.Start(c); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		c.Sleep(50 * time.Millisecond)
		if err := bat.SetLevel(10); err != nil {
			t.Error(err)
		}
		c.Sleep(50 * time.Millisecond)
		app.Stop(c)
		app.Cleanup(c)
	})
	if err := eng.Run(1 << 62); err != nil {
		t.Fatal(err)
	}
	if ran["rich"] == 0 || ran["cheap"] == 0 {
		t.Fatalf("version mix = %v, want both versions used across the battery drop", ran)
	}
}

func TestFacadeBuilderRun(t *testing.T) {
	eng := yasmin.NewEngine(9)
	env, err := yasmin.NewSimEnv(eng, yasmin.OdroidXU4(), nil)
	if err != nil {
		t.Fatal(err)
	}
	app, err := yasmin.NewApp("chain").
		Task("src").Period(10*time.Millisecond).
		Version(nil, yasmin.VSelect{WCET: time.Millisecond}).
		ChanTo("sink", 4).
		Task("sink").
		Version(nil, yasmin.VSelect{WCET: 2 * time.Millisecond}).
		Build(yasmin.Config{
			Workers:       2,
			WorkerCores:   []int{4, 5},
			SchedulerCore: 6,
		}, env)
	if err != nil {
		t.Fatal(err)
	}
	env.Spawn("main", -1, func(c yasmin.Ctx) {
		if err := app.Start(c); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		c.Sleep(100 * time.Millisecond)
		app.Stop(c)
		app.Cleanup(c)
	})
	if err := eng.Run(1 << 62); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"src", "sink"} {
		if st := app.Recorder().Task(name); st == nil || st.Jobs < 9 {
			t.Fatalf("task %s stats = %+v", name, st)
		}
	}
	if err := app.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSpecJSON(t *testing.T) {
	s, err := yasmin.LoadSpec(strings.NewReader(`{
		"name": "two",
		"channels": [{"name": "ab", "capacity": 2, "src": "a", "dst": "b"}],
		"tasks": [
			{"name": "a", "period": "20ms", "versions": [{"wcet": "1ms"}]},
			{"name": "b", "versions": [{"wcet": "2ms"}]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.TaskID("b") != 1 {
		t.Fatalf("TaskID(b) = %d", s.TaskID("b"))
	}
	set, err := s.TaskSet()
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 || set.Tasks[1].Period != 20*time.Millisecond {
		t.Fatalf("bridged set = %+v", set.Tasks)
	}
}

func TestFacadeOfflineSynthesis(t *testing.T) {
	specs := []yasmin.OfflineTaskSpec{
		{Name: "a", Period: 10 * time.Millisecond, Versions: []yasmin.OfflineVersionSpec{
			{WCET: 2 * time.Millisecond, Accel: -1},
		}},
		{Name: "b", Period: 20 * time.Millisecond, Versions: []yasmin.OfflineVersionSpec{
			{WCET: 4 * time.Millisecond, Accel: -1},
		}},
	}
	sched, err := yasmin.Synthesize(specs, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Table.Cycle != 20*time.Millisecond {
		t.Errorf("cycle = %v", sched.Table.Cycle)
	}
	if len(sched.Placements) != 3 {
		t.Errorf("placements = %d, want 3", len(sched.Placements))
	}
}
