package core

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/sim"
)

// fibersSpawned counts the fiber threads the App spawned since its last
// Cleanup. Call it from the driving thread once the App is quiescent
// (quiesce): no fiber is spawned or recycled after that.
func fibersSpawned(a *App) int {
	n := 0
	for _, w := range a.workers {
		n += len(w.fibers)
	}
	return n
}

// quiesce waits until a stopped App's workers and scheduler have retired.
func quiesce(c rt.Ctx, a *App) {
	for a.runLive.Load() > 0 {
		c.Sleep(100 * time.Microsecond)
	}
}

// TestOneFiberPerWorkerWithoutSuspension: with preemption off and bodies
// that never suspend, every job runs on its worker's own fiber — an App
// spawns exactly Workers fibers and keeps them across Stop/Start.
func TestOneFiberPerWorkerWithoutSuspension(t *testing.T) {
	r := newRig(t, Config{Workers: 3, Priority: PriorityEDF}, nil)
	for _, name := range []string{"a", "b", "c", "d"} {
		declSpin(t, r.app, name, ms(2), us(300))
	}
	var runs []int
	r.env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		for run := 0; run < 3; run++ {
			if err := r.app.Start(c); err != nil {
				t.Errorf("Start: %v", err)
				return
			}
			c.Sleep(ms(50))
			r.app.Stop(c)
			quiesce(c, r.app)
			runs = append(runs, fibersSpawned(r.app))
		}
		r.app.Cleanup(c)
	})
	if err := r.eng.Run(sim.Time(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for i, n := range runs {
		if n != 3 {
			t.Errorf("after run %d: %d fibers spawned, want exactly Workers=3", i, n)
		}
	}
	if n := r.app.liveThreads.Load(); n != 0 {
		t.Errorf("Cleanup left %d middleware threads alive", n)
	}
	if jobs := r.app.Recorder().TotalJobs(); jobs < 4*25 {
		t.Errorf("only %d jobs ran in the last run", jobs)
	}
}

// TestOSEnvStartStopCleanupLeaksNoGoroutine: 100 wall-clock
// Start/Stop/Cleanup cycles leave the goroutine count where it started,
// and every cycle runs its worker fibers only.
func TestOSEnvStartStopCleanupLeaksNoGoroutine(t *testing.T) {
	env := rt.NewOSEnv()
	env.Spin = false
	app, err := New(Config{Workers: 2, Priority: PriorityEDF, MaxTasks: 4, MaxPendingJobs: 64}, env)
	if err != nil {
		t.Fatal(err)
	}
	declSpin(t, app, "tick", ms(1), us(50))
	before := runtime.NumGoroutine()
	env.RunMain(func(c rt.Ctx) {
		for i := 0; i < 100; i++ {
			if err := app.Start(c); err != nil {
				t.Fatalf("cycle %d: Start: %v", i, err)
			}
			c.Sleep(2 * time.Millisecond)
			app.Stop(c)
			quiesce(c, app)
			if n := fibersSpawned(app); n != 2 {
				t.Fatalf("cycle %d: %d fibers spawned, want exactly Workers=2", i, n)
			}
			app.Cleanup(c)
			if n := app.liveThreads.Load(); n != 0 {
				t.Fatalf("cycle %d: Cleanup left %d middleware threads alive", i, n)
			}
		}
	})
	env.Wait()
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d over 100 cycles", before, after)
	}
}

// TestSparesBoundedBySuspendedJobs: jobs that suspend (preemption, Sleep,
// asynchronous accelerator sections) each keep their own fiber while the
// worker moves on to a spare. A worker never holds more fibers than one
// plus its peak number of suspended jobs, however many suspensions happen,
// and the spares are reused on the next Start.
func TestSparesBoundedBySuspendedJobs(t *testing.T) {
	r := newRig(t, Config{Workers: 1, Priority: PriorityRM, Preemption: true, AsyncAccel: true}, nil)
	gpu, err := r.app.HwAccelDecl("gpu")
	if err != nil {
		t.Fatal(err)
	}
	// At most one job per task is ever in flight (each finishes well within
	// its period), so at most these four jobs are suspended at once.
	sleeps := 0
	for _, name := range []string{"s1", "s2"} {
		tid, err := r.app.TaskDecl(TData{Name: name, Period: ms(10)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.app.VersionDecl(tid, func(x *ExecCtx, _ any) error {
			sleeps++
			if err := x.Sleep(ms(2)); err != nil {
				return err
			}
			return x.Compute(us(100))
		}, nil, VSelect{WCET: us(100)}); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := r.app.TaskDecl(TData{Name: "acc", Period: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	vid, err := r.app.VersionDecl(acc, func(x *ExecCtx, _ any) error {
		return x.AccelSection(ms(3))
	}, nil, VSelect{WCET: ms(3), AccelCS: ms(3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.app.HwAccelUse(acc, vid, gpu); err != nil {
		t.Fatal(err)
	}
	declSpin(t, r.app, "high", ms(5), us(500))
	declSpin(t, r.app, "low", ms(40), ms(6))
	const suspenders = 4 // s1, s2, acc, low

	var runs []int
	r.env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		for run := 0; run < 2; run++ {
			if err := r.app.Start(c); err != nil {
				t.Errorf("Start: %v", err)
				return
			}
			c.Sleep(ms(200))
			r.app.Stop(c)
			quiesce(c, r.app)
			runs = append(runs, fibersSpawned(r.app))
		}
		r.app.Cleanup(c)
	})
	if err := r.eng.Run(sim.Time(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if st := r.app.Recorder().Task("low"); st == nil || st.Preempts == 0 {
		t.Fatalf("low was never preempted: %+v", st)
	}
	if sleeps < 40 {
		t.Fatalf("only %d sleeps ran", sleeps)
	}
	t.Logf("%d fibers for one worker after the first run", runs[0])
	if runs[0] < 2 || runs[0] > 1+suspenders {
		t.Errorf("%d fibers for one worker, want 2..%d (one plus the peak of suspended jobs)", runs[0], 1+suspenders)
	}
	if runs[1] != runs[0] {
		t.Errorf("the second run spawned %d more fibers: spares were not reused", runs[1]-runs[0])
	}
	if n := r.app.liveThreads.Load(); n != 0 {
		t.Errorf("Cleanup left %d middleware threads alive", n)
	}
}

// TestPanicCostsOneJob: a body that panics fails its own job only. The
// panic becomes a counted task error, the job completes through the normal
// path — its accelerator is released, so the task sharing it misses
// nothing — and the engine reports no failure.
func TestPanicCostsOneJob(t *testing.T) {
	r := newRig(t, Config{Workers: 2, Priority: PriorityEDF}, nil)
	gpu, err := r.app.HwAccelDecl("gpu")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := r.app.TaskDecl(TData{Name: "bad", Period: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	badV, err := r.app.VersionDecl(bad, func(x *ExecCtx, _ any) error {
		if err := x.AccelSection(ms(1)); err != nil {
			return err
		}
		if x.JobIndex()%2 == 1 {
			panic("odd job")
		}
		return nil
	}, nil, VSelect{WCET: ms(1), AccelCS: ms(1)})
	if err != nil {
		t.Fatal(err)
	}
	good, err := r.app.TaskDecl(TData{Name: "good", Period: ms(10), ReleaseOffset: us(500)})
	if err != nil {
		t.Fatal(err)
	}
	goodV, err := r.app.VersionDecl(good, func(x *ExecCtx, _ any) error {
		return x.AccelSection(ms(2))
	}, nil, VSelect{WCET: ms(2), AccelCS: ms(2)})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []struct {
		t TID
		v VID
	}{{bad, badV}, {good, goodV}} {
		if err := r.app.HwAccelUse(u.t, u.v, gpu); err != nil {
			t.Fatal(err)
		}
	}
	r.runMain(t, ms(200), nil)

	bst := r.app.Recorder().Task("bad")
	gst := r.app.Recorder().Task("good")
	if bst == nil || gst == nil {
		t.Fatalf("missing stats: bad=%v good=%v", bst, gst)
	}
	if want := (bst.Jobs + 1) / 2; r.app.TaskErrors() != want {
		t.Errorf("TaskErrors = %d, want %d (one per odd job of %d)", r.app.TaskErrors(), want, bst.Jobs)
	}
	if err := r.app.FirstError(); err == nil || !strings.Contains(err.Error(), "task bad panicked: odd job") {
		t.Errorf("FirstError = %v, want the bad task's panic", err)
	}
	if errors.Is(r.app.FirstError(), ErrTerminated) {
		t.Error("a panic must not read as termination")
	}
	if gst.Jobs < 19 || gst.Misses != 0 {
		t.Errorf("good: %d jobs, %d misses; want every job on time", gst.Jobs, gst.Misses)
	}
	if r.app.AccelBusy(gpu) {
		t.Error("gpu still held after the run: a panicking job leaked its instance")
	}
}
