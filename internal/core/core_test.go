package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/sim"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }
func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

// rig bundles a simulation environment and an App for tests.
type rig struct {
	eng *sim.Engine
	env *rt.SimEnv
	app *App
}

func newRig(t *testing.T, cfg Config, pl *platform.Platform) *rig {
	t.Helper()
	if pl == nil {
		pl = platform.Generic(8)
	}
	cfg.RecordAccel = true // tests assert on arbitration events
	eng := sim.NewEngine(42)
	env, err := rt.NewSimEnv(eng, pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	app, err := New(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, env: env, app: app}
}

// runMain drives the app from a "main" thread: declarations happened
// already; fn runs between Start and Stop+Cleanup.
func (r *rig) runMain(t *testing.T, horizon time.Duration, fn func(c rt.Ctx)) {
	t.Helper()
	r.env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := r.app.Start(c); err != nil {
			t.Errorf("Start: %v", err)
			return
		}
		if fn != nil {
			fn(c)
		}
		c.SleepUntil(horizon)
		r.app.Stop(c)
		r.app.Cleanup(c)
	})
	if err := r.eng.Run(sim.Time(horizon + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
}

// spin returns a TaskFunc consuming d of CPU work.
func spin(d time.Duration) TaskFunc {
	return func(x *ExecCtx, _ any) error { return x.Compute(d) }
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"defaults valid", Config{Workers: 2}, true},
		{"no workers", Config{}, false},
		{"mismatched cores", Config{Workers: 2, WorkerCores: []int{1}}, false},
		{"bad alpha", Config{Workers: 1, TradeoffAlpha: 1.5}, false},
		{"user select without callback", Config{Workers: 1, VersionSelect: SelectUser}, false},
		{"negative sched period", Config{Workers: 1, SchedulerPeriod: -1}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Workers: 3}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Mapping != MappingGlobal || cfg.Priority != PriorityEDF {
		t.Errorf("defaults: mapping=%v priority=%v", cfg.Mapping, cfg.Priority)
	}
	if len(cfg.WorkerCores) != 3 || cfg.WorkerCores[0] != 1 || cfg.SchedulerCore != 0 {
		t.Errorf("default pinning: cores=%v sched=%d", cfg.WorkerCores, cfg.SchedulerCore)
	}
	if cfg.MaxTasks == 0 || cfg.MaxPendingJobs == 0 {
		t.Error("static sizes not defaulted")
	}
}

func TestPeriodicTaskRunsOnSchedule(t *testing.T) {
	r := newRig(t, Config{Workers: 2, Preemption: true}, nil)
	tid, err := r.app.TaskDecl(TData{Name: "tau", Period: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.app.VersionDecl(tid, spin(ms(2)), nil, VSelect{WCET: ms(2)}); err != nil {
		t.Fatal(err)
	}
	r.runMain(t, ms(100), nil)

	st := r.app.Recorder().Task("tau")
	if st == nil {
		t.Fatal("no stats for tau")
	}
	// Released at 0,10,...,90: 10 jobs within the 100ms horizon.
	if st.Jobs < 9 || st.Jobs > 11 {
		t.Errorf("jobs = %d, want ~10", st.Jobs)
	}
	if st.Misses != 0 {
		t.Errorf("misses = %d, want 0", st.Misses)
	}
	_, max, _ := st.Response.Summary()
	if max > ms(3) {
		t.Errorf("max response %v, want ~2ms (+overheads)", max)
	}
	if r.app.Overruns() != 0 {
		t.Errorf("overruns = %d", r.app.Overruns())
	}
}

func TestSchedulerPeriodIsGCD(t *testing.T) {
	r := newRig(t, Config{Workers: 2}, nil)
	for _, p := range []time.Duration{ms(250), ms(100), ms(40)} {
		tid, err := r.app.TaskDecl(TData{Name: "t" + p.String(), Period: p})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.app.VersionDecl(tid, spin(ms(1)), nil, VSelect{}); err != nil {
			t.Fatal(err)
		}
	}
	r.runMain(t, ms(500), nil)
	if got := r.app.schedPeriodNow(); got != ms(10) {
		t.Errorf("scheduler period = %v, want GCD 10ms", got)
	}
}

func TestEDFOrdering(t *testing.T) {
	// Two tasks released together on one worker; EDF must run the tighter
	// deadline first.
	r := newRig(t, Config{Workers: 1, Priority: PriorityEDF}, nil)
	var order []string
	record := func(name string, c time.Duration) TaskFunc {
		return func(x *ExecCtx, _ any) error {
			order = append(order, name)
			return x.Compute(c)
		}
	}
	loose, _ := r.app.TaskDecl(TData{Name: "loose", Period: ms(100), Deadline: ms(80)})
	tight, _ := r.app.TaskDecl(TData{Name: "tight", Period: ms(100), Deadline: ms(20)})
	r.app.VersionDecl(loose, record("loose", ms(2)), nil, VSelect{})
	r.app.VersionDecl(tight, record("tight", ms(2)), nil, VSelect{})
	r.runMain(t, ms(90), nil)
	if len(order) < 2 || order[0] != "tight" {
		t.Errorf("order = %v, want tight first", order)
	}
}

func TestRMOrdering(t *testing.T) {
	r := newRig(t, Config{Workers: 1, Priority: PriorityRM}, nil)
	var order []string
	record := func(name string, c time.Duration) TaskFunc {
		return func(x *ExecCtx, _ any) error {
			order = append(order, name)
			return x.Compute(c)
		}
	}
	slow, _ := r.app.TaskDecl(TData{Name: "slow", Period: ms(100)})
	fast, _ := r.app.TaskDecl(TData{Name: "fast", Period: ms(20)})
	r.app.VersionDecl(slow, record("slow", ms(1)), nil, VSelect{})
	r.app.VersionDecl(fast, record("fast", ms(1)), nil, VSelect{})
	r.runMain(t, ms(90), nil)
	if len(order) < 2 || order[0] != "fast" {
		t.Errorf("order = %v, want fast (shorter period) first", order)
	}
}

func TestPreemption(t *testing.T) {
	// One worker: a long low-priority job must be preempted by a
	// short-deadline task arriving mid-execution.
	r := newRig(t, Config{Workers: 1, Priority: PriorityEDF, Preemption: true}, nil)
	long, _ := r.app.TaskDecl(TData{Name: "long", Period: ms(100), Deadline: ms(100), ReleaseOffset: 0})
	short, _ := r.app.TaskDecl(TData{Name: "short", Period: ms(100), Deadline: ms(10), ReleaseOffset: ms(5)})
	r.app.VersionDecl(long, spin(ms(40)), nil, VSelect{})
	r.app.VersionDecl(short, spin(ms(2)), nil, VSelect{})
	r.runMain(t, ms(95), nil)

	shortSt := r.app.Recorder().Task("short")
	longSt := r.app.Recorder().Task("long")
	if shortSt == nil || longSt == nil {
		t.Fatal("missing stats")
	}
	if shortSt.Misses != 0 {
		t.Errorf("short missed %d deadlines; preemption failed", shortSt.Misses)
	}
	_, max, _ := shortSt.Response.Summary()
	if max > ms(5) {
		t.Errorf("short max response %v, want < 5ms (preempts long)", max)
	}
	if longSt.Preempts == 0 {
		t.Error("long was never preempted")
	}
	if longSt.Misses != 0 {
		t.Errorf("long missed %d deadlines", longSt.Misses)
	}
}

func TestNoPreemptionWhenDisabled(t *testing.T) {
	r := newRig(t, Config{Workers: 1, Priority: PriorityEDF, Preemption: false}, nil)
	long, _ := r.app.TaskDecl(TData{Name: "long", Period: ms(100), Deadline: ms(100)})
	short, _ := r.app.TaskDecl(TData{Name: "short", Period: ms(100), Deadline: ms(10), ReleaseOffset: ms(5)})
	r.app.VersionDecl(long, spin(ms(40)), nil, VSelect{})
	r.app.VersionDecl(short, spin(ms(2)), nil, VSelect{})
	r.runMain(t, ms(95), nil)
	longSt := r.app.Recorder().Task("long")
	shortSt := r.app.Recorder().Task("short")
	if longSt.Preempts != 0 {
		t.Errorf("long preempted %d times with preemption disabled", longSt.Preempts)
	}
	if shortSt.Misses == 0 {
		t.Error("short should miss its 10ms deadline behind a 40ms job")
	}
}

func TestPartitionedMapping(t *testing.T) {
	pl := platform.Generic(4)
	r := newRig(t, Config{
		Workers: 2, Mapping: MappingPartitioned, Priority: PriorityDM,
		WorkerCores: []int{1, 2}, SchedulerCore: 0,
	}, pl)
	a, _ := r.app.TaskDecl(TData{Name: "onW0", Period: ms(10), VirtCore: 0})
	b, _ := r.app.TaskDecl(TData{Name: "onW1", Period: ms(10), VirtCore: 1})
	r.app.VersionDecl(a, spin(ms(1)), nil, VSelect{})
	r.app.VersionDecl(b, spin(ms(1)), nil, VSelect{})
	r.app.cfg.RecordJobs = true
	r.app.Init() // re-init to pick up RecordJobs
	a, _ = r.app.TaskDecl(TData{Name: "onW0", Period: ms(10), VirtCore: 0})
	b, _ = r.app.TaskDecl(TData{Name: "onW1", Period: ms(10), VirtCore: 1})
	r.app.VersionDecl(a, spin(ms(1)), nil, VSelect{})
	r.app.VersionDecl(b, spin(ms(1)), nil, VSelect{})
	r.runMain(t, ms(50), nil)
	for _, j := range r.app.Recorder().Jobs() {
		switch j.Task {
		case "onW0":
			if j.Core != 1 {
				t.Errorf("onW0 ran on core %d, want 1", j.Core)
			}
		case "onW1":
			if j.Core != 2 {
				t.Errorf("onW1 ran on core %d, want 2", j.Core)
			}
		}
	}
}

func TestDiamondGraphDataFlow(t *testing.T) {
	// The paper's Listing 2 diamond: fork -> {left,right} -> join.
	r := newRig(t, Config{Workers: 2, Priority: PriorityEDF}, nil)
	app := r.app

	flCh, _ := app.ChannelDecl("fl", 0) // pure precedence
	frCh, _ := app.ChannelDecl("fr", 4)
	rjCh, _ := app.ChannelDecl("rj", 8)
	ljCh, _ := app.ChannelDecl("lj", 4)

	fork, _ := app.TaskDecl(TData{Name: "fork", Period: ms(25)})
	left, _ := app.TaskDecl(TData{Name: "left"})
	right, _ := app.TaskDecl(TData{Name: "right"})
	join, _ := app.TaskDecl(TData{Name: "join"})

	var joined []int
	app.VersionDecl(fork, func(x *ExecCtx, _ any) error {
		if err := x.Compute(ms(1)); err != nil {
			return err
		}
		if err := x.Push(flCh, nil); err != nil {
			return err
		}
		return x.Push(frCh, 2)
	}, nil, VSelect{})
	app.VersionDecl(left, func(x *ExecCtx, _ any) error {
		if err := x.Compute(ms(1)); err != nil {
			return err
		}
		return x.Push(ljCh, 7)
	}, nil, VSelect{})
	app.VersionDecl(right, func(x *ExecCtx, _ any) error {
		v, err := x.Pop(frCh)
		if err != nil {
			return err
		}
		n := v.(int)
		if err := x.Push(rjCh, n); err != nil {
			return err
		}
		return x.Push(rjCh, n*2)
	}, nil, VSelect{})
	app.VersionDecl(join, func(x *ExecCtx, _ any) error {
		a, err := x.Pop(rjCh)
		if err != nil {
			return err
		}
		b, err := x.Pop(rjCh)
		if err != nil {
			return err
		}
		l, err := x.Pop(ljCh)
		if err != nil {
			return err
		}
		joined = append(joined, a.(int)+b.(int)+l.(int))
		return nil
	}, nil, VSelect{})

	if err := app.ChannelConnect(fork, left, flCh); err != nil {
		t.Fatal(err)
	}
	if err := app.ChannelConnect(fork, right, frCh); err != nil {
		t.Fatal(err)
	}
	if err := app.ChannelConnect(right, join, rjCh); err != nil {
		t.Fatal(err)
	}
	if err := app.ChannelConnect(left, join, ljCh); err != nil {
		t.Fatal(err)
	}

	r.runMain(t, ms(100), nil)

	if len(joined) < 3 {
		t.Fatalf("join ran %d times, want >= 3", len(joined))
	}
	for _, v := range joined {
		if v != 2+4+7 {
			t.Errorf("join value = %d, want 13", v)
		}
	}
	// Graph-level record for the sink exists.
	if st := app.Recorder().Task("graph:join"); st == nil || st.Jobs == 0 {
		t.Error("missing graph-level sink records")
	}
	if app.FirstError() != nil {
		t.Errorf("task error: %v", app.FirstError())
	}
}

func TestSporadicActivation(t *testing.T) {
	r := newRig(t, Config{Workers: 1}, nil)
	tid, _ := r.app.TaskDecl(TData{Name: "sporadic", Period: ms(20), Sporadic: true})
	r.app.VersionDecl(tid, spin(ms(1)), nil, VSelect{})
	var early, late error
	r.runMain(t, ms(100), func(c rt.Ctx) {
		c.Sleep(ms(5))
		if err := r.app.TaskActivate(c, tid); err != nil {
			t.Errorf("first activation: %v", err)
		}
		c.Sleep(ms(5))
		early = r.app.TaskActivate(c, tid) // 5ms later: violates T=20ms
		c.Sleep(ms(20))
		late = r.app.TaskActivate(c, tid) // 25ms later: fine
	})
	if early == nil {
		t.Error("early activation must be rejected (min inter-arrival)")
	}
	if late != nil {
		t.Errorf("late activation rejected: %v", late)
	}
	if st := r.app.Recorder().Task("sporadic"); st == nil || st.Jobs != 2 {
		t.Errorf("sporadic jobs = %v, want 2", st)
	}
}

func TestDeclarationLimitsAndErrors(t *testing.T) {
	r := newRig(t, Config{Workers: 1, MaxTasks: 2, MaxVersionsPerTask: 1, MaxChannels: 1, MaxAccels: 1}, nil)
	app := r.app
	if _, err := app.TaskDecl(TData{}); err == nil {
		t.Error("want error for unnamed task")
	}
	t1, err := app.TaskDecl(TData{Name: "a", Period: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.TaskDecl(TData{Name: "b", Period: ms(10)}); err != nil {
		t.Fatal(err)
	}
	if _, err := app.TaskDecl(TData{Name: "c", Period: ms(10)}); err == nil {
		t.Error("want MaxTasks error")
	}
	if _, err := app.VersionDecl(t1, nil, nil, VSelect{}); err == nil {
		t.Error("want error for nil fn")
	}
	if _, err := app.VersionDecl(t1, spin(ms(1)), nil, VSelect{}); err != nil {
		t.Fatal(err)
	}
	if _, err := app.VersionDecl(t1, spin(ms(1)), nil, VSelect{}); err == nil {
		t.Error("want MaxVersionsPerTask error")
	}
	if _, err := app.VersionDecl(TID(99), spin(ms(1)), nil, VSelect{}); err == nil {
		t.Error("want unknown-task error")
	}
	if _, err := app.ChannelDecl("ch", -1); err == nil {
		t.Error("want negative-capacity error")
	}
	if _, err := app.ChannelDecl("ch", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := app.ChannelDecl("ch2", 1); err == nil {
		t.Error("want MaxChannels error")
	}
	if _, err := app.HwAccelDecl(""); err == nil {
		t.Error("want unnamed-accel error")
	}
	if _, err := app.HwAccelDecl("gpu"); err != nil {
		t.Fatal(err)
	}
	if _, err := app.HwAccelDecl("gpu2"); err == nil {
		t.Error("want MaxAccels error")
	}
	if err := app.HwAccelUse(t1, VID(5), HID(0)); err == nil {
		t.Error("want unknown-version error")
	}
	if err := app.HwAccelUse(t1, VID(0), HID(5)); err == nil {
		t.Error("want unknown-accel error")
	}
	if err := app.ChannelConnect(t1, t1, CID(0)); err == nil {
		t.Error("want self-loop error")
	}
}

func TestTaskFuncErrorsAreCounted(t *testing.T) {
	r := newRig(t, Config{Workers: 1}, nil)
	tid, _ := r.app.TaskDecl(TData{Name: "bad", Period: ms(10)})
	r.app.VersionDecl(tid, func(x *ExecCtx, _ any) error {
		return errTest
	}, nil, VSelect{})
	r.runMain(t, ms(35), nil)
	if r.app.TaskErrors() == 0 {
		t.Error("task errors not counted")
	}
	if r.app.FirstError() == nil {
		t.Error("first error not recorded")
	}
}

// Every completion records its job's error; a job that succeeded must not
// pay an allocation for it.
func TestRecordTaskErrorNilDoesNotAllocate(t *testing.T) {
	a := &App{}
	if avg := testing.AllocsPerRun(1000, func() { a.recordTaskError(nil) }); avg != 0 {
		t.Errorf("recordTaskError(nil) allocates %.1f objects, want 0", avg)
	}
	a.recordTaskError(errTest)
	a.recordTaskError(ErrTerminated)
	if a.TaskErrors() != 1 || a.FirstError() != errTest {
		t.Errorf("TaskErrors %d FirstError %v, want 1 and %v", a.TaskErrors(), a.FirstError(), errTest)
	}
}

// A DAG activation allocates nothing once warm: release, dispatch, channel
// push/pop, completion and the sink's end-to-end graph record (whose name is
// built once per task, not per job) all reuse preallocated state.
func TestChainActivationAllocatesNothing(t *testing.T) {
	const stages, warm, runs = 4, 100, 1000
	r := newRig(t, Config{Workers: 2, Priority: PriorityEDF}, nil)
	var tids [stages]TID
	for i := range tids {
		d := TData{Name: fmt.Sprintf("s%d", i)}
		if i == 0 {
			d.Deadline = ms(1)
		}
		var err error
		if tids[i], err = r.app.TaskDecl(d); err != nil {
			t.Fatal(err)
		}
	}
	var cids [stages - 1]CID
	for i := range cids {
		var err error
		if cids[i], err = r.app.ChannelDecl(fmt.Sprintf("c%d", i), 4); err != nil {
			t.Fatal(err)
		}
		if err := r.app.ChannelConnect(tids[i], tids[i+1], cids[i]); err != nil {
			t.Fatal(err)
		}
	}
	var driver rt.Thread
	for i := range tids {
		i := i
		body := func(x *ExecCtx, _ any) error {
			var v any = int64(0)
			if i > 0 {
				got, err := x.Pop(cids[i-1])
				if err != nil {
					return err
				}
				v = got
			}
			if i < len(cids) {
				return x.Push(cids[i], v)
			}
			driver.Unpark()
			return nil
		}
		if _, err := r.app.VersionDecl(tids[i], body, nil, VSelect{WCET: us(1)}); err != nil {
			t.Fatal(err)
		}
	}
	perActivation := -1.0
	r.env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		driver = c.Self()
		if err := r.app.Start(c); err != nil {
			t.Errorf("Start: %v", err)
			return
		}
		activate := func(n int) bool {
			for k := 0; k < n; k++ {
				if err := r.app.TaskActivate(c, tids[0]); err != nil {
					t.Errorf("TaskActivate: %v", err)
					return false
				}
				c.Park()
			}
			return true
		}
		if activate(warm) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if activate(runs) {
				runtime.ReadMemStats(&m1)
				perActivation = float64(m1.Mallocs-m0.Mallocs) / runs
			}
		}
		r.app.Stop(c)
		r.app.Cleanup(c)
	})
	if err := r.eng.Run(sim.Time(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if perActivation != 0 {
		t.Errorf("%.3f objects allocated per %d-stage activation, want 0", perActivation, stages)
	}
	if st := r.app.Recorder().Task("graph:s3"); st == nil || st.Jobs != warm+runs {
		t.Errorf("graph record stats = %+v, want %d jobs", st, warm+runs)
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }
