package spec

import (
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/sim"
)

func simEnvFor(t *testing.T) (*sim.Engine, *rt.SimEnv) {
	t.Helper()
	eng := sim.NewEngine(7)
	env, err := rt.NewSimEnv(eng, platform.Generic(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, env
}

func twoPhaseSpecs() (*Spec, *Spec) {
	mk := func(extra bool, samplerPeriod time.Duration) *Spec {
		s := &Spec{
			Name: "phased",
			Tasks: []TaskSpec{
				{Name: "sampler", Period: Duration(samplerPeriod),
					Versions: []VersionSpec{{WCET: Duration(time.Millisecond)}}},
			},
		}
		if extra {
			s.Tasks = append(s.Tasks, TaskSpec{Name: "analyzer", Period: Duration(20 * time.Millisecond),
				Versions: []VersionSpec{{WCET: Duration(2 * time.Millisecond)}}})
		}
		return s
	}
	return mk(false, 10*time.Millisecond), mk(true, 5*time.Millisecond)
}

func TestDiffAddRemoveRetune(t *testing.T) {
	from, to := twoPhaseSpecs()
	p, err := Diff(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Add, []string{"analyzer"}) {
		t.Errorf("Add = %v", p.Add)
	}
	if !reflect.DeepEqual(p.Retune, []string{"sampler"}) {
		t.Errorf("Retune = %v", p.Retune)
	}
	if len(p.Remove) != 0 {
		t.Errorf("Remove = %v", p.Remove)
	}
	back, err := Diff(to, from)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Remove, []string{"analyzer"}) || len(back.Add) != 0 {
		t.Errorf("reverse plan = %+v", back)
	}
}

func TestDiffStructuralChangeRedeclares(t *testing.T) {
	from, _ := twoPhaseSpecs()
	to := &Spec{Name: "phased", Tasks: []TaskSpec{
		{Name: "sampler", Period: Duration(10 * time.Millisecond),
			Versions: []VersionSpec{
				{WCET: Duration(time.Millisecond)},
				{WCET: Duration(2 * time.Millisecond)}, // extra version: structural
			}},
	}}
	p, err := Diff(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Remove, []string{"sampler"}) || !reflect.DeepEqual(p.Add, []string{"sampler"}) {
		t.Errorf("plan = %+v, want retire-and-readmit of sampler", p)
	}
}

func TestSwitchSpecLive(t *testing.T) {
	from, to := twoPhaseSpecs()
	eng, env := simEnvFor(t)
	app, err := from.Build(core.Config{Workers: 2, MaxTasks: 8, MaxChannels: 8}, env)
	if err != nil {
		t.Fatal(err)
	}
	env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		c.SleepUntil(100 * time.Millisecond)
		plan, err := SwitchSpec(c, app, from, to)
		if err != nil {
			t.Errorf("SwitchSpec: %v", err)
		} else if plan.Empty() {
			t.Error("plan unexpectedly empty")
		}
		c.SleepUntil(200 * time.Millisecond)
		app.Stop(c)
		app.Cleanup(c)
	})
	if err := eng.Run(sim.Time(time.Minute)); err != nil {
		t.Fatal(err)
	}
	rec := app.Recorder()
	sam := rec.Task("sampler")
	// 10 jobs at 10ms over [0,100) + 20 at 5ms over [100,200).
	if sam == nil || sam.Jobs < 28 {
		t.Errorf("sampler = %+v, want ~30 jobs (retuned at 100ms)", sam)
	}
	ana := rec.Task("analyzer")
	if ana == nil || ana.Jobs < 4 {
		t.Errorf("analyzer = %+v, want ~5 jobs (admitted at 100ms)", ana)
	}
	if app.Epoch() != 1 {
		t.Errorf("epoch = %d", app.Epoch())
	}
}

func TestSpecModesInstallAndSwitch(t *testing.T) {
	s := &Spec{
		Name: "missions",
		Tasks: []TaskSpec{
			{Name: "telemetry", Period: Duration(10 * time.Millisecond),
				Versions: []VersionSpec{{WCET: Duration(time.Millisecond)}}},
			{Name: "search", Period: Duration(10 * time.Millisecond),
				Versions: []VersionSpec{{WCET: Duration(3 * time.Millisecond)}}},
			{Name: "rescue", Period: Duration(10 * time.Millisecond),
				Versions: []VersionSpec{{WCET: Duration(4 * time.Millisecond)}}},
		},
		Modes: []ModeSpec{
			{Name: "search", Mode: 0, Tasks: []string{"telemetry", "search"}},
			{Name: "rescue", Mode: 1, Tasks: []string{"telemetry", "rescue"}},
		},
	}
	eng, env := simEnvFor(t)
	app, err := s.Build(core.Config{Workers: 2, MaxTasks: 8, MaxChannels: 8}, env)
	if err != nil {
		t.Fatal(err)
	}
	got := app.ModeNames()
	sort.Strings(got)
	if !reflect.DeepEqual(got, []string{"rescue", "search"}) {
		t.Fatalf("installed modes = %v", got)
	}
	env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		// Enter the initial mode before Start: rescue is not declared yet.
		if err := app.SwitchMode(c, "search"); err != nil {
			t.Errorf("pre-start switch: %v", err)
			return
		}
		if err := app.Start(c); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		c.SleepUntil(100 * time.Millisecond)
		if err := app.SwitchMode(c, "rescue"); err != nil {
			t.Errorf("switch to rescue: %v", err)
		}
		c.SleepUntil(200 * time.Millisecond)
		app.Stop(c)
		app.Cleanup(c)
	})
	if err := eng.Run(sim.Time(time.Minute)); err != nil {
		t.Fatal(err)
	}
	rec := app.Recorder()
	tele := rec.Task("telemetry")
	if tele == nil || tele.Jobs < 19 {
		t.Errorf("telemetry = %+v, want ~20 jobs (never stopped)", tele)
	}
	search := rec.Task("search")
	if search == nil || search.Jobs < 9 || search.Jobs > 12 {
		t.Errorf("search = %+v, want ~10 jobs (first phase only)", search)
	}
	rescue := rec.Task("rescue")
	if rescue == nil || rescue.Jobs < 9 || rescue.Jobs > 12 {
		t.Errorf("rescue = %+v, want ~10 jobs (second phase only)", rescue)
	}
	if app.ModeName() != "rescue" {
		t.Errorf("mode name = %q", app.ModeName())
	}
}

func TestModeValidationCatchesOrphans(t *testing.T) {
	s := &Spec{
		Tasks: []TaskSpec{
			{Name: "cam", Period: Duration(10 * time.Millisecond),
				Versions: []VersionSpec{{WCET: Duration(time.Millisecond)}}},
			{Name: "proc", Versions: []VersionSpec{{WCET: Duration(time.Millisecond)}}},
		},
		Channels: []ChannelSpec{{Name: "c", Capacity: 2, Src: "cam", Dst: "proc"}},
		Modes:    []ModeSpec{{Name: "bad", Tasks: []string{"proc"}}},
	}
	err := s.Validate()
	if err == nil {
		t.Fatal("want orphan validation error")
	}
}

func TestApplyAllOrNothing(t *testing.T) {
	eng, env := simEnvFor(t)
	_ = eng
	// Capacity violation: MaxTasks too small — Apply must fail BEFORE the
	// first declaration, leaving the App untouched and reusable.
	app, err := core.New(core.Config{Workers: 1, MaxTasks: 1}, env)
	if err != nil {
		t.Fatal(err)
	}
	big := &Spec{Tasks: []TaskSpec{
		{Name: "a", Period: Duration(time.Millisecond), Versions: []VersionSpec{{WCET: Duration(time.Microsecond)}}},
		{Name: "b", Period: Duration(time.Millisecond), Versions: []VersionSpec{{WCET: Duration(time.Microsecond)}}},
	}}
	if err := big.Apply(app); err == nil {
		t.Fatal("want capacity preflight error")
	}
	if app.NumTasks() != 0 {
		t.Fatalf("failed Apply left %d declarations behind", app.NumTasks())
	}
	small := &Spec{Tasks: []TaskSpec{
		{Name: "a", Period: Duration(time.Millisecond), Versions: []VersionSpec{{WCET: Duration(time.Microsecond)}}},
	}}
	if err := small.Apply(app); err != nil {
		t.Fatalf("clean Apply after failed one: %v", err)
	}
	if app.NumTasks() != 1 {
		t.Fatalf("NumTasks = %d", app.NumTasks())
	}
}

func TestApplyRejectsRunningApp(t *testing.T) {
	eng, env := simEnvFor(t)
	s := &Spec{Tasks: []TaskSpec{
		{Name: "a", Period: Duration(10 * time.Millisecond), Versions: []VersionSpec{{WCET: Duration(time.Millisecond)}}},
	}}
	app, err := s.Build(core.Config{Workers: 1}, env)
	if err != nil {
		t.Fatal(err)
	}
	env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		other := &Spec{Tasks: []TaskSpec{
			{Name: "b", Period: Duration(10 * time.Millisecond), Versions: []VersionSpec{{WCET: Duration(time.Millisecond)}}},
		}}
		if err := other.Apply(app); !errors.Is(err, core.ErrStarted) {
			t.Errorf("Apply on running app = %v, want ErrStarted", err)
		}
		app.Stop(c)
		app.Cleanup(c)
	})
	if err := eng.Run(sim.Time(time.Minute)); err != nil {
		t.Fatal(err)
	}
}

// TestModeSwitchReAddKeepsAccelCS: a task a mode switch re-adds is admitted
// with its declared accel_cs, as at Build. Under RM on one worker, "hi"
// (10 ms period, 2 ms WCET) is blocked by "lo"'s accelerator section: the
// declared 1 ms fits, while lo's whole 9 ms WCET — the fallback for an
// accelerator version without accel_cs — does not.
func TestModeSwitchReAddKeepsAccelCS(t *testing.T) {
	mk := func(accelCS time.Duration) *Spec {
		return &Spec{
			Name:   "blocking",
			Accels: []AccelSpec{{Name: "dsp"}},
			Tasks: []TaskSpec{
				{Name: "hi", Period: Duration(10 * time.Millisecond),
					Versions: []VersionSpec{{WCET: Duration(2 * time.Millisecond),
						AccelCS: Duration(time.Millisecond), Accel: "dsp"}}},
				{Name: "lo", Period: Duration(100 * time.Millisecond),
					Versions: []VersionSpec{{WCET: Duration(9 * time.Millisecond),
						AccelCS: Duration(accelCS), Accel: "dsp"}}},
			},
			Modes: []ModeSpec{
				{Name: "full"},
				{Name: "lite", Tasks: []string{"hi"}},
			},
		}
	}
	for _, tc := range []struct {
		accelCS time.Duration
		admit   bool
	}{{time.Millisecond, true}, {0, false}} {
		eng, env := simEnvFor(t)
		app, err := mk(tc.accelCS).Build(core.Config{Workers: 1, Priority: core.PriorityRM}, env)
		if err != nil {
			t.Fatal(err)
		}
		env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
			if err := app.SwitchMode(c, "lite"); err != nil {
				t.Errorf("switch to lite: %v", err)
				return
			}
			err := app.SwitchMode(c, "full")
			if tc.admit && err != nil {
				t.Errorf("accel_cs %v: re-adding lo rejected: %v", tc.accelCS, err)
			}
			if !tc.admit && !errors.Is(err, core.ErrNotSchedulable) {
				t.Errorf("accel_cs %v: re-adding lo = %v, want ErrNotSchedulable", tc.accelCS, err)
			}
		})
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}
}
