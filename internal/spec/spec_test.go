package spec

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/offline"
	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/sim"
	"github.com/yasmin-rt/yasmin/internal/taskset"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// runSim drives an app built by `build` for `horizon` of virtual time and
// returns its job trace as comparable strings.
func runSim(t *testing.T, seed int64, horizon time.Duration,
	build func(env *rt.SimEnv) (*core.App, error)) []string {
	t.Helper()
	eng := sim.NewEngine(seed)
	env, err := rt.NewSimEnv(eng, platform.OdroidXU4(), nil)
	if err != nil {
		t.Fatal(err)
	}
	app, err := build(env)
	if err != nil {
		t.Fatal(err)
	}
	env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			t.Error("start:", err)
			return
		}
		c.SleepUntil(horizon)
		app.Stop(c)
		app.Cleanup(c)
	})
	if err := eng.Run(sim.Time(horizon + time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := app.FirstError(); err != nil {
		t.Fatalf("task error during run: %v", err)
	}
	return formatJobs(app.Recorder().Jobs())
}

func formatJobs(jobs []trace.JobRecord) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = fmt.Sprintf("%s#%d v%d core%d rel=%v start=%v fin=%v miss=%v",
			j.Task, j.Job, j.Version, j.Core, j.Release, j.Start, j.Finish, j.Missed)
	}
	return out
}

func diffTraces(t *testing.T, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("trace length mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at job %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

// guardedPop mirrors the synthesized bodies' input handling: check length,
// pop only when a value is buffered.
func guardedPop(x *core.ExecCtx, c core.CID) error {
	n, err := x.ChannelLen(c)
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	_, err = x.Pop(c)
	return err
}

// diamondSpec describes the paper's Listing 2 diamond as a function-less,
// fully serializable spec (synthesized bodies).
func diamondSpec() *Spec {
	return &Spec{
		Name:   "diamond",
		Accels: []AccelSpec{{Name: "quantum_rand_num_generator"}},
		Channels: []ChannelSpec{
			{Name: "fl", Capacity: 0, Src: "fork", Dst: "left"},
			{Name: "fr", Capacity: 1, Src: "fork", Dst: "right"},
			{Name: "rj", Capacity: 2, Src: "right", Dst: "join"},
			{Name: "lj", Capacity: 1, Src: "left", Dst: "join"},
		},
		Tasks: []TaskSpec{
			{Name: "fork", Period: Duration(250 * time.Millisecond),
				Versions: []VersionSpec{{WCET: Duration(200 * time.Microsecond)}}},
			{Name: "left", Versions: []VersionSpec{
				{WCET: Duration(800 * time.Microsecond), Energy: 5, Quality: 1},
				{WCET: Duration(300 * time.Microsecond), Energy: 12, Quality: 9,
					Accel: "quantum_rand_num_generator"},
			}},
			{Name: "right", Versions: []VersionSpec{{WCET: Duration(300 * time.Microsecond)}}},
			{Name: "join", Versions: []VersionSpec{{WCET: Duration(100 * time.Microsecond)}}},
		},
	}
}

func simCfg() core.Config {
	return core.Config{
		Workers:       2,
		WorkerCores:   []int{4, 5},
		SchedulerCore: 6,
		Mapping:       core.MappingGlobal,
		Priority:      core.PriorityEDF,
		RecordJobs:    true,
	}
}

// TestJSONRoundTrip: marshal -> unmarshal yields an identical spec, and
// building the decoded spec produces exactly the schedule of the original.
func TestJSONRoundTrip(t *testing.T) {
	orig := diamondSpec()
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, decoded) {
		t.Fatalf("round-trip mismatch:\norig:    %+v\ndecoded: %+v", orig, decoded)
	}

	const horizon = 2 * time.Second
	tr1 := runSim(t, 1, horizon, func(env *rt.SimEnv) (*core.App, error) {
		return orig.Build(simCfg(), env)
	})
	tr2 := runSim(t, 1, horizon, func(env *rt.SimEnv) (*core.App, error) {
		return decoded.Build(simCfg(), env)
	})
	if len(tr1) == 0 {
		t.Fatal("no jobs recorded")
	}
	diffTraces(t, tr1, tr2)
}

// TestSpecMatchesImperative: a spec-built app and a hand-declared app with
// the same structure produce the identical simulation trace.
func TestSpecMatchesImperative(t *testing.T) {
	s := diamondSpec()
	const horizon = 2 * time.Second

	declarative := runSim(t, 7, horizon, func(env *rt.SimEnv) (*core.App, error) {
		return s.Build(simCfg(), env)
	})

	imperative := runSim(t, 7, horizon, func(env *rt.SimEnv) (*core.App, error) {
		cfg := simCfg()
		cfg.MaxTasks = 4
		cfg.MaxChannels = 4
		cfg.MaxAccels = 1
		cfg.MaxVersionsPerTask = 2
		app, err := core.New(cfg, env)
		if err != nil {
			return nil, err
		}
		// Same declaration order as Spec.apply: accels, channels, tasks
		// (with versions), connects — with hand-written bodies that mirror
		// the synthesized ones.
		acc, err := app.HwAccelDecl("quantum_rand_num_generator")
		if err != nil {
			return nil, err
		}
		fl, _ := app.ChannelDecl("fl", 0)
		fr, _ := app.ChannelDecl("fr", 1)
		rj, _ := app.ChannelDecl("rj", 2)
		lj, _ := app.ChannelDecl("lj", 1)
		fork, err := app.TaskDecl(core.TData{Name: "fork", Period: 250 * time.Millisecond})
		if err != nil {
			return nil, err
		}
		if _, err := app.VersionDecl(fork, func(x *core.ExecCtx, _ any) error {
			if err := x.Compute(200 * time.Microsecond); err != nil {
				return err
			}
			if err := x.Push(fl, x.JobIndex()); err != nil {
				return err
			}
			return x.Push(fr, x.JobIndex())
		}, nil, core.VSelect{WCET: 200 * time.Microsecond}); err != nil {
			return nil, err
		}
		left, err := app.TaskDecl(core.TData{Name: "left"})
		if err != nil {
			return nil, err
		}
		if _, err := app.VersionDecl(left, func(x *core.ExecCtx, _ any) error {
			if err := x.Compute(800 * time.Microsecond); err != nil {
				return err
			}
			return x.Push(lj, x.JobIndex())
		}, nil, core.VSelect{WCET: 800 * time.Microsecond, EnergyBudget: 5, Quality: 1}); err != nil {
			return nil, err
		}
		wcet := 300 * time.Microsecond
		pre, post := wcet/20, wcet/20
		lv2, err := app.VersionDecl(left, func(x *core.ExecCtx, _ any) error {
			if err := x.Compute(pre); err != nil {
				return err
			}
			if err := x.AccelSection(wcet - pre - post); err != nil {
				return err
			}
			if err := x.Compute(post); err != nil {
				return err
			}
			return x.Push(lj, x.JobIndex())
		}, nil, core.VSelect{WCET: wcet, EnergyBudget: 12, Quality: 9})
		if err != nil {
			return nil, err
		}
		if err := app.HwAccelUse(left, lv2, acc); err != nil {
			return nil, err
		}
		right, err := app.TaskDecl(core.TData{Name: "right"})
		if err != nil {
			return nil, err
		}
		if _, err := app.VersionDecl(right, func(x *core.ExecCtx, _ any) error {
			if err := guardedPop(x, fr); err != nil {
				return err
			}
			if err := x.Compute(300 * time.Microsecond); err != nil {
				return err
			}
			return x.Push(rj, x.JobIndex())
		}, nil, core.VSelect{WCET: 300 * time.Microsecond}); err != nil {
			return nil, err
		}
		join, err := app.TaskDecl(core.TData{Name: "join"})
		if err != nil {
			return nil, err
		}
		if _, err := app.VersionDecl(join, func(x *core.ExecCtx, _ any) error {
			if err := guardedPop(x, rj); err != nil {
				return err
			}
			if err := guardedPop(x, lj); err != nil {
				return err
			}
			return x.Compute(100 * time.Microsecond)
		}, nil, core.VSelect{WCET: 100 * time.Microsecond}); err != nil {
			return nil, err
		}
		if err := app.ChannelConnect(fork, left, fl); err != nil {
			return nil, err
		}
		if err := app.ChannelConnect(fork, right, fr); err != nil {
			return nil, err
		}
		if err := app.ChannelConnect(right, join, rj); err != nil {
			return nil, err
		}
		return app, app.ChannelConnect(left, join, lj)
	})

	diffTraces(t, declarative, imperative)
}

// TestBuilderMatchesSpec: the fluent builder yields the same Spec (and the
// same IDs) as the literal structure.
func TestBuilderMatchesSpec(t *testing.T) {
	b := NewApp("diamond")
	fl := b.Channel("fl", 0)
	fr := b.Channel("fr", 1)
	rj := b.Channel("rj", 2)
	lj := b.Channel("lj", 1)
	b.Connect("fork", "left", fl).
		Connect("fork", "right", fr).
		Connect("right", "join", rj).
		Connect("left", "join", lj)
	built, err := b.
		Task("fork").Period(250*time.Millisecond).
		Version(nil, core.VSelect{WCET: 200 * time.Microsecond}).
		Task("left").
		Version(nil, core.VSelect{WCET: 800 * time.Microsecond, EnergyBudget: 5, Quality: 1}).
		Version(nil, core.VSelect{WCET: 300 * time.Microsecond, EnergyBudget: 12, Quality: 9}).
		OnAccel("quantum_rand_num_generator").
		Task("right").
		Version(nil, core.VSelect{WCET: 300 * time.Microsecond}).
		Task("join").
		Version(nil, core.VSelect{WCET: 100 * time.Microsecond}).
		Spec()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(built, diamondSpec()) {
		t.Fatalf("builder spec mismatch:\nbuilt: %+v\nwant:  %+v", built, diamondSpec())
	}
	if got := built.TaskID("right"); got != 2 {
		t.Fatalf("TaskID(right) = %d, want 2", got)
	}
	if got := built.ChannelID("rj"); got != rj {
		t.Fatalf("ChannelID(rj) = %d, want %d", got, rj)
	}
}

// TestBuilderErrorAccumulation: a broken chain surfaces every error at
// Build, not just the first, and never panics.
func TestBuilderErrorAccumulation(t *testing.T) {
	_, err := NewApp().
		Task("a").Period(-time.Second).
		Version(nil, core.VSelect{WCET: time.Millisecond}).
		OnAccel("gpu").
		Task("a"). // duplicate
		Task("").  // unnamed
		Period(time.Second).
		ChanTo("b", -1). // from unnamed task
		Task("c").
		OnAccel("gpu"). // before any Version
		Build(core.Config{Workers: 1}, rt.NewOSEnv())
	if err == nil {
		t.Fatal("expected accumulated errors")
	}
	for _, want := range []string{
		"negative period",
		"duplicate task name",
		"task needs a name",
		"unnamed task",
		"OnAccel before any Version",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing from:\n%v", want, err)
		}
	}
}

// TestValidateRejections: structural problems in a spec are all reported.
func TestValidateRejections(t *testing.T) {
	t.Run("cycle", func(t *testing.T) {
		s := &Spec{
			Channels: []ChannelSpec{
				{Name: "ab", Capacity: 1, Src: "a", Dst: "b"},
				{Name: "ba", Capacity: 1, Src: "b", Dst: "a"},
			},
			Tasks: []TaskSpec{
				{Name: "a", Versions: []VersionSpec{{WCET: Duration(time.Millisecond)}}},
				{Name: "b", Versions: []VersionSpec{{WCET: Duration(time.Millisecond)}}},
			},
		}
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Fatalf("want cycle error, got %v", err)
		}
		// Delay tokens break the cycle (SDF feedback), as in core.
		s.Channels[1].Delay = 1
		s.Tasks[0].Period = Duration(10 * time.Millisecond)
		if err := s.Validate(); err != nil {
			t.Fatalf("delayed back edge should validate, got %v", err)
		}
	})
	t.Run("dangling", func(t *testing.T) {
		s := diamondSpec()
		s.Channels[2].Dst = "nowhere"
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), `unknown destination task "nowhere"`) {
			t.Fatalf("want dangling-endpoint error, got %v", err)
		}
	})
	t.Run("duplicate-task", func(t *testing.T) {
		s := diamondSpec()
		s.Tasks[3].Name = "fork"
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), `duplicate task name "fork"`) {
			t.Fatalf("want duplicate-task error, got %v", err)
		}
	})
	t.Run("multi-error", func(t *testing.T) {
		s := diamondSpec()
		s.Tasks[0].Period = Duration(-1)            // bad period
		s.Tasks[1].Versions = nil                   // no versions
		s.Channels[0].Dst = "ghost"                 // dangling
		s.Tasks[3].Versions[0].Accel = "warp-drive" // unknown accel
		err := s.Validate()
		if err == nil {
			t.Fatal("expected errors")
		}
		for _, want := range []string{
			"negative period", "has no versions", `unknown destination task "ghost"`,
			`unknown accelerator "warp-drive"`,
		} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q missing from:\n%v", want, err)
			}
		}
	})
}

// TestTaskSetBridge: the analysis view inherits root timing for graph nodes
// and round-trips flat sets.
func TestTaskSetBridge(t *testing.T) {
	set, err := diamondSpec().TaskSet()
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 4 {
		t.Fatalf("want 4 tasks, got %d", set.Len())
	}
	for _, tk := range set.Tasks {
		if tk.Period != 250*time.Millisecond {
			t.Errorf("task %s: period %v, want inherited 250ms", tk.Name, tk.Period)
		}
	}
	if u := set.TotalUtilization(); u <= 0 {
		t.Fatalf("utilization %v", u)
	}

	// Flat round trip: taskset -> spec -> taskset preserves the timing.
	flat := &taskset.Set{Tasks: []taskset.Task{
		{ID: 0, Name: "t0", Period: 10 * time.Millisecond, Deadline: 10 * time.Millisecond,
			WCET: time.Millisecond},
		{ID: 1, Name: "t1", Period: 40 * time.Millisecond, Deadline: 20 * time.Millisecond,
			WCET: 2 * time.Millisecond, Offset: time.Millisecond},
	}}
	back, err := FromTaskSet(flat).TaskSet()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flat, back) {
		t.Fatalf("flat round trip mismatch:\nin:  %+v\nout: %+v", flat, back)
	}

	// Duplicate names (legal in task sets, which key on IDs) are uniquified.
	dup := &taskset.Set{Tasks: []taskset.Task{
		{ID: 0, Name: "sensor", Period: 10 * time.Millisecond, Deadline: 10 * time.Millisecond,
			WCET: time.Millisecond},
		{ID: 1, Name: "sensor", Period: 20 * time.Millisecond, Deadline: 20 * time.Millisecond,
			WCET: time.Millisecond},
	}}
	ds := FromTaskSet(dup)
	if err := ds.Validate(); err != nil {
		t.Fatalf("duplicate-name set should lift cleanly: %v", err)
	}
	if ds.Tasks[1].Name != "sensor#1" {
		t.Fatalf("uniquified name = %q, want sensor#1", ds.Tasks[1].Name)
	}
}

// TestTaskSetTwoRoots: a data-activated task fed by two roots inherits the
// smallest root period and, independently, the smallest root deadline (the
// graph-timing rule), not the deadline of the smallest-period root.
func TestTaskSetTwoRoots(t *testing.T) {
	ms := func(n int) Duration { return Duration(time.Duration(n) * time.Millisecond) }
	wcet := []VersionSpec{{WCET: Duration(100 * time.Microsecond)}}
	s := &Spec{
		Name: "two-roots",
		Channels: []ChannelSpec{
			{Name: "ac", Capacity: 1, Src: "A", Dst: "C"},
			{Name: "bc", Capacity: 1, Src: "B", Dst: "C"},
		},
		Tasks: []TaskSpec{
			{Name: "A", Period: ms(10), Versions: wcet},
			{Name: "B", Period: ms(20), Deadline: ms(5), Versions: wcet},
			{Name: "C", Versions: wcet},
		},
	}
	set, err := s.TaskSet()
	if err != nil {
		t.Fatal(err)
	}
	c := set.Tasks[2]
	if c.Name != "C" || c.Period != ms(10).Std() || c.Deadline != ms(5).Std() {
		t.Fatalf("C = %s period %v deadline %v, want period 10ms deadline 5ms", c.Name, c.Period, c.Deadline)
	}
}

// TestOfflineBridge: the spec maps onto the off-line synthesiser input and
// synthesizes a feasible table for the diamond.
func TestOfflineBridge(t *testing.T) {
	specs, err := diamondSpec().OfflineSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("want 4 specs, got %d", len(specs))
	}
	if got := specs[3].Preds; len(got) != 2 {
		t.Fatalf("join preds = %v, want 2 predecessors", got)
	}
	if specs[1].Versions[1].Accel != 0 {
		t.Fatalf("left v2 accel index = %d, want 0", specs[1].Versions[1].Accel)
	}
	sched, err := offline.Synthesize(specs, 2, 1, offline.MinMakespan)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Table == nil || len(sched.Placements) == 0 {
		t.Fatal("empty synthesis result")
	}
}

// TestSynthesizedFeedbackLoop: a delay-token back edge with function-less
// versions runs without task errors — the delay-token activation finds the
// FIFO empty and the synthesized body must tolerate it.
func TestSynthesizedFeedbackLoop(t *testing.T) {
	s := &Spec{
		Name: "feedback",
		Channels: []ChannelSpec{
			{Name: "ab", Capacity: 4, Src: "a", Dst: "b"},
			{Name: "ba", Capacity: 4, Src: "b", Dst: "a", Delay: 1},
		},
		Tasks: []TaskSpec{
			{Name: "a", Period: Duration(10 * time.Millisecond),
				Versions: []VersionSpec{{WCET: Duration(time.Millisecond)}}},
			{Name: "b", Versions: []VersionSpec{{WCET: Duration(2 * time.Millisecond)}}},
		},
	}
	tr := runSim(t, 4, 100*time.Millisecond, func(env *rt.SimEnv) (*core.App, error) {
		return s.Build(core.Config{Workers: 2, RecordJobs: true}, env)
	})
	if len(tr) < 10 {
		t.Fatalf("feedback loop starved: only %d jobs", len(tr))
	}
}

// TestBuildSizesConfig: Build fills zero static limits from the spec.
func TestBuildSizesConfig(t *testing.T) {
	tr := runSim(t, 3, time.Second, func(env *rt.SimEnv) (*core.App, error) {
		return diamondSpec().Build(core.Config{Workers: 2, RecordJobs: true}, env)
	})
	if len(tr) == 0 {
		t.Fatal("no jobs recorded")
	}
}

// TestApplyOnExistingApp: a spec applies onto a fresh caller-configured
// App, and refuses a non-empty one (positional IDs would mis-wire).
func TestApplyOnExistingApp(t *testing.T) {
	env := rt.NewOSEnv()
	app, err := core.New(core.Config{Workers: 1}, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := diamondSpec().Apply(app); err != nil {
		t.Fatal(err)
	}
	// The declarations landed and the App stays usable imperatively.
	if _, err := app.TaskDecl(core.TData{Name: "extra"}); err != nil {
		t.Fatalf("app not usable after Apply: %v", err)
	}
	// A second Apply would assign colliding positional IDs: rejected.
	if err := diamondSpec().Apply(app); err == nil ||
		!strings.Contains(err.Error(), "freshly initialized") {
		t.Fatalf("Apply on non-empty app: got %v, want freshly-initialized error", err)
	}
	// After Init clears the declarations, Apply works again.
	app.Init()
	if err := diamondSpec().Apply(app); err != nil {
		t.Fatal(err)
	}
}

// topicSpec builds a small pub-sub application: two sensors fan into one
// monitor over a "bus" topic, and the first sensor also feeds a conflating
// "latest" topic read by a dashboard.
func topicSpec() *Spec {
	return &Spec{
		Name: "pubsub",
		Topics: []TopicSpec{
			{Name: "bus", Capacity: 16, Priority: 1,
				Pubs: []string{"s0", "s1"}, Subs: []string{"monitor"}},
			{Name: "latest", Capacity: 1, Policy: "latest", Priority: 0,
				Pubs: []string{"s0"}, Subs: []string{"dashboard"}},
		},
		Tasks: []TaskSpec{
			{Name: "s0", Period: Duration(10 * time.Millisecond),
				Versions: []VersionSpec{{WCET: Duration(time.Millisecond)}}},
			{Name: "s1", Period: Duration(20 * time.Millisecond),
				Versions: []VersionSpec{{WCET: Duration(time.Millisecond)}}},
			{Name: "monitor", Period: Duration(20 * time.Millisecond),
				Versions: []VersionSpec{{WCET: Duration(2 * time.Millisecond)}}},
			{Name: "dashboard", Period: Duration(50 * time.Millisecond),
				Versions: []VersionSpec{{WCET: Duration(time.Millisecond)}}},
		},
	}
}

func TestTopicSpecRoundTripAndBuild(t *testing.T) {
	s := topicSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.TopicID("bus"); got != 0 {
		t.Errorf("TopicID(bus) = %d, want 0 (no channels declared)", got)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, loaded) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", s, loaded)
	}
	// Synthesized bodies publish and drain the topics; no task errors.
	tr := runSim(t, 5, time.Second, func(env *rt.SimEnv) (*core.App, error) {
		return loaded.Build(core.Config{Workers: 2, RecordJobs: true}, env)
	})
	if len(tr) == 0 {
		t.Fatal("no jobs recorded")
	}
}

func TestTopicSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(s *Spec)
		want string
	}{
		{"no pubs", func(s *Spec) { s.Topics[0].Pubs = nil }, "no publishers"},
		{"no subs", func(s *Spec) { s.Topics[0].Subs = nil }, "no subscribers"},
		{"bad policy", func(s *Spec) { s.Topics[0].Policy = "sometimes" }, "overflow policy"},
		{"zero capacity", func(s *Spec) { s.Topics[0].Capacity = 0 }, "capacity"},
		{"unknown pub", func(s *Spec) { s.Topics[0].Pubs = []string{"ghost"} }, "unknown publisher"},
		{"unknown sub", func(s *Spec) { s.Topics[0].Subs = []string{"ghost"} }, "unknown subscriber"},
		{"dup pub", func(s *Spec) { s.Topics[0].Pubs = []string{"s0", "s0"} }, "duplicate publisher"},
		{"dup topic", func(s *Spec) { s.Topics[1].Name = "bus" }, "duplicate topic"},
		{"collides with channel", func(s *Spec) {
			s.Channels = append(s.Channels, ChannelSpec{Name: "bus", Capacity: 1})
		}, "collides"},
		{"unnamed", func(s *Spec) { s.Topics[0].Name = "" }, "no name"},
	}
	for _, tc := range cases {
		s := topicSpec()
		tc.mut(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestBuilderTopics(t *testing.T) {
	b := NewApp("pubsub")
	bus := b.Topic("bus", core.TopicOpts{Capacity: 16, Priority: 1})
	latest := b.Topic("latest", core.TopicOpts{Capacity: 1, Policy: core.Latest})
	if bus != 0 || latest != 1 {
		t.Fatalf("topic CIDs = %d,%d, want 0,1", bus, latest)
	}
	b.Task("s0").Period(10*time.Millisecond).
		Version(nil, core.VSelect{WCET: time.Millisecond}).
		Publishes("bus", "latest").
		Task("s1").Period(20*time.Millisecond).
		Version(nil, core.VSelect{WCET: time.Millisecond}).
		Publishes("bus").
		Task("monitor").Period(20*time.Millisecond).
		Version(nil, core.VSelect{WCET: 2 * time.Millisecond}).
		Subscribes("bus").
		Task("dashboard").Period(50*time.Millisecond).
		Version(nil, core.VSelect{WCET: time.Millisecond}).
		Subscribes("latest")
	s, err := b.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want := topicSpec()
	if !reflect.DeepEqual(s.Topics, want.Topics) {
		t.Fatalf("builder topics:\n%+v\nwant:\n%+v", s.Topics, want.Topics)
	}

	// Channel after topic shifts positional IDs: rejected.
	b2 := NewApp()
	b2.Topic("t", core.TopicOpts{Capacity: 1})
	b2.Channel("c", 1)
	if err := b2.Err(); err == nil || !strings.Contains(err.Error(), "declare channels first") {
		t.Errorf("channel-after-topic: got %v", err)
	}
	// Unknown topic in Publishes/Subscribes accumulates an error.
	b3 := NewApp()
	b3.Task("t").Period(time.Millisecond).
		Version(nil, core.VSelect{WCET: time.Microsecond}).
		Publishes("ghost")
	if err := b3.Err(); err == nil || !strings.Contains(err.Error(), "unknown topic") {
		t.Errorf("publishes unknown topic: got %v", err)
	}
}
