package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/taskset"
)

// declSpin declares a single-version periodic task with a WCET the admission
// test can see.
func declSpin(t *testing.T, app *App, name string, period, wcet time.Duration) TID {
	t.Helper()
	tid, err := app.TaskDecl(TData{Name: name, Period: period})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.VersionDecl(tid, spin(wcet), nil, VSelect{WCET: wcet}); err != nil {
		t.Fatal(err)
	}
	return tid
}

func TestReconfigureAddTaskLive(t *testing.T) {
	r := newRig(t, Config{Workers: 2, Priority: PriorityEDF}, nil)
	declSpin(t, r.app, "base", ms(10), ms(1))
	r.runMain(t, ms(200), func(c rt.Ctx) {
		c.SleepUntil(ms(100))
		err := r.app.Reconfigure(c, func(tx *Reconfig) error {
			id, err := tx.AddTask(TData{Name: "late", Period: ms(10)})
			if err != nil {
				return err
			}
			_, err = tx.AddVersion(id, spin(ms(1)), nil, VSelect{WCET: ms(1)})
			return err
		})
		if err != nil {
			t.Errorf("Reconfigure: %v", err)
		}
	})
	if got := r.app.Epoch(); got != 1 {
		t.Errorf("epoch = %d, want 1", got)
	}
	rec := r.app.Recorder()
	base := rec.Task("base")
	if base == nil || base.Jobs < 19 {
		t.Fatalf("base ran %v jobs, want ~20 (uninterrupted)", base)
	}
	late := rec.Task("late")
	if late == nil || late.Jobs < 9 {
		t.Fatalf("late ran %v jobs, want ~10 (admitted at 100ms)", late)
	}
	recs := rec.Reconfigs()
	if len(recs) != 1 || len(recs[0].Admitted) != 1 || recs[0].Admitted[0] != "late" {
		t.Errorf("reconfig records = %+v", recs)
	}
	if recs[0].Pause <= 0 {
		t.Errorf("pause = %v, want > 0 (barrier charged)", recs[0].Pause)
	}
}

// addLateTask admits "late" (10ms period, 4ms WCET) in one transaction.
func addLateTask(t *testing.T, app *App, c rt.Ctx, fn TaskFunc) {
	t.Helper()
	if err := app.Reconfigure(c, func(tx *Reconfig) error {
		id, err := tx.AddTask(TData{Name: "late", Period: ms(10)})
		if err != nil {
			return err
		}
		_, err = tx.AddVersion(id, fn, nil, VSelect{WCET: ms(4)})
		return err
	}); err != nil {
		t.Errorf("Reconfigure: %v", err)
	}
}

// TestReconfigureAddTaskOffsetReleasesOnTime admits a task 3ms after Start,
// so its releases (commit + k*period) fall between base's. Each must fire
// when it is due: waiting for base's next release instead would start the
// 4ms job up to 7ms late and miss nearly every 10ms deadline.
func TestReconfigureAddTaskOffsetReleasesOnTime(t *testing.T) {
	r := newRig(t, Config{Workers: 2, Priority: PriorityEDF}, nil)
	declSpin(t, r.app, "base", ms(10), ms(1))
	r.runMain(t, ms(200), func(c rt.Ctx) {
		c.SleepUntil(ms(3))
		addLateTask(t, r.app, c, spin(ms(4)))
	})
	late := r.app.Recorder().Task("late")
	if late == nil || late.Jobs < 19 {
		t.Fatalf("late ran %v jobs, want ~20", late)
	}
	if late.Misses != 0 {
		t.Errorf("late missed %d of %d deadlines, want 0", late.Misses, late.Jobs)
	}
	if worst := late.Response.Max(); worst >= ms(5) {
		t.Errorf("late worst response %v, want < 5ms (4ms WCET released on time)", worst)
	}
}

// TestReconfigureAddTaskOffsetReleasesOnTimeOSEnv is the wall-clock twin:
// the admitted task's jobs must start within a timer overshoot of their
// release, not at the next release of the task declared before Start.
func TestReconfigureAddTaskOffsetReleasesOnTimeOSEnv(t *testing.T) {
	env := rt.NewOSEnv()
	env.Spin = false
	app, err := New(Config{Workers: 2, Priority: PriorityEDF}, env)
	if err != nil {
		t.Fatal(err)
	}
	declSpin(t, app, "base", ms(10), ms(1))
	var mu sync.Mutex
	var lags []time.Duration
	env.RunMain(func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			t.Errorf("Start: %v", err)
			return
		}
		c.Sleep(ms(3))
		addLateTask(t, app, c, func(x *ExecCtx, _ any) error {
			mu.Lock()
			lags = append(lags, x.Now()-x.Release())
			mu.Unlock()
			return x.Compute(ms(4))
		})
		c.Sleep(ms(200))
		app.Stop(c)
		app.Cleanup(c)
	})
	env.Wait()
	if len(lags) < 10 {
		t.Fatalf("late ran %d jobs, want ~20", len(lags))
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	if p50 := lags[len(lags)/2]; p50 >= ms(2) {
		t.Errorf("late start - release p50 = %v over %d jobs, want < 2ms", p50, len(lags))
	}
}

func TestReconfigureRemoveTaskDrains(t *testing.T) {
	r := newRig(t, Config{Workers: 1, Priority: PriorityEDF}, nil)
	declSpin(t, r.app, "keep", ms(10), ms(1))
	victim := declSpin(t, r.app, "victim", ms(10), ms(4))
	r.runMain(t, ms(200), func(c rt.Ctx) {
		c.SleepUntil(ms(102)) // mid-period: a victim job released at 100ms is in flight
		if err := r.app.Reconfigure(c, func(tx *Reconfig) error {
			return tx.RemoveTask(victim)
		}); err != nil {
			t.Errorf("Reconfigure: %v", err)
		}
	})
	rec := r.app.Recorder()
	vic := rec.Task("victim")
	if vic == nil {
		t.Fatal("victim never ran")
	}
	// Jobs released at 0..100ms all complete (drain, not kill): 11 jobs.
	if vic.Jobs != 11 {
		t.Errorf("victim jobs = %d, want 11 (drained, not killed; none released after removal)", vic.Jobs)
	}
	keep := rec.Task("keep")
	if keep == nil || keep.Jobs < 19 {
		t.Errorf("keep = %+v, want ~20 jobs (uninterrupted)", keep)
	}
	retires := rec.Retires()
	if len(retires) != 1 || retires[0].Task != "victim" || retires[0].Epoch != 1 {
		t.Errorf("retires = %+v", retires)
	}
}

func TestReconfigureAdmissionRejectsTyped(t *testing.T) {
	r := newRig(t, Config{Workers: 1, Priority: PriorityEDF}, nil)
	declSpin(t, r.app, "base", ms(10), ms(6))
	r.runMain(t, ms(100), func(c rt.Ctx) {
		c.SleepUntil(ms(50))
		err := r.app.Reconfigure(c, func(tx *Reconfig) error {
			id, err := tx.AddTask(TData{Name: "intruder", Period: ms(10)})
			if err != nil {
				return err
			}
			_, err = tx.AddVersion(id, spin(ms(9)), nil, VSelect{WCET: ms(9)})
			return err
		})
		if !errors.Is(err, ErrNotSchedulable) {
			t.Errorf("err = %v, want ErrNotSchedulable", err)
		}
		var nse *NotSchedulableError
		if !errors.As(err, &nse) || nse.Task != "intruder" {
			t.Errorf("offender = %+v, want intruder", nse)
		}
	})
	if got := r.app.Epoch(); got != 0 {
		t.Errorf("epoch = %d, want 0 (rejected transaction committed nothing)", got)
	}
	rec := r.app.Recorder()
	if it := rec.Task("intruder"); it != nil {
		t.Errorf("intruder ran %d jobs after rejection", it.Jobs)
	}
	if base := rec.Task("base"); base == nil || base.Jobs < 9 {
		t.Errorf("base = %+v, want ~10 jobs (app continues unchanged)", base)
	}
	if base := rec.Task("base"); base != nil && base.Misses != 0 {
		t.Errorf("base missed %d deadlines", base.Misses)
	}
}

func TestReconfigureRetune(t *testing.T) {
	r := newRig(t, Config{Workers: 1, Priority: PriorityEDF}, nil)
	tid := declSpin(t, r.app, "tick", ms(20), ms(1))
	r.runMain(t, ms(200), func(c rt.Ctx) {
		c.SleepUntil(ms(100))
		if err := r.app.Reconfigure(c, func(tx *Reconfig) error {
			return tx.Retune(tid, TData{Name: "tick", Period: ms(5)})
		}); err != nil {
			t.Errorf("Retune: %v", err)
		}
	})
	rec := r.app.Recorder().Task("tick")
	// ~5 jobs in the first 100ms (20ms period), ~20 in the second (5ms).
	if rec == nil || rec.Jobs < 23 || rec.Jobs > 27 {
		t.Errorf("tick jobs = %+v, want ~25 after retune", rec)
	}
	recs := r.app.Recorder().Reconfigs()
	if len(recs) != 1 || len(recs[0].Retuned) != 1 || recs[0].Retuned[0] != "tick" {
		t.Errorf("reconfig records = %+v", recs)
	}
}

func TestReconfigureTopicStateSurvivesEpoch(t *testing.T) {
	r := newRig(t, Config{Workers: 2, Priority: PriorityEDF}, nil)
	top, err := r.app.TopicDecl("stream", TopicOpts{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	pub, _ := r.app.TaskDecl(TData{Name: "pub", Period: ms(10)})
	r.app.VersionDecl(pub, func(x *ExecCtx, _ any) error {
		return x.Publish(top, int(x.JobIndex()))
	}, nil, VSelect{WCET: ms(1)})
	r.app.TopicPub(pub, top)
	subT, _ := r.app.TaskDecl(TData{Name: "sub", Period: ms(30)})
	r.app.VersionDecl(subT, func(x *ExecCtx, _ any) error {
		for {
			v, ok, err := x.Take(top)
			if err != nil || !ok {
				return err
			}
			got = append(got, v.(int))
		}
	}, nil, VSelect{WCET: ms(1)})
	r.app.TopicSub(subT, top)
	declSpin(t, r.app, "bystander", ms(10), ms(1))

	r.runMain(t, ms(300), func(c rt.Ctx) {
		c.SleepUntil(ms(95)) // several entries published since the last 30ms take
		if err := r.app.Reconfigure(c, func(tx *Reconfig) error {
			return tx.RemoveTaskByName("bystander")
		}); err != nil {
			t.Errorf("Reconfigure: %v", err)
		}
	})
	// Every published entry must reach the surviving subscriber in FIFO
	// order — the epoch must not reset the shared buffer or the cursor.
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got[%d] = %d; lost or reordered entries across the epoch: %v", i, v, got[:i+1])
		}
	}
	if len(got) < 25 {
		t.Errorf("subscriber consumed %d entries, want ~30", len(got))
	}
}

func TestReconfigureLastSubscriberRetiresUnblocksPublisher(t *testing.T) {
	r := newRig(t, Config{Workers: 2, Priority: PriorityEDF}, nil)
	top, err := r.app.TopicDecl("up", TopicOpts{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	// okAt holds the instant of every successful publish. The subscriber
	// drains until it retires, so the count that matters starts at its
	// RetireEvent, not at the epoch bump: a release at the commit instant
	// may still be consumed before the retirement.
	var okAt []time.Duration
	var okBefore, failBefore int
	pub, _ := r.app.TaskDecl(TData{Name: "pub", Period: ms(10)})
	r.app.VersionDecl(pub, func(x *ExecCtx, _ any) error {
		err := x.Publish(top, x.JobIndex())
		switch {
		case err == nil:
			okAt = append(okAt, x.Now())
			if x.App().Epoch() == 0 {
				okBefore++
			}
		case x.App().Epoch() == 0:
			failBefore++
		}
		return nil
	}, nil, VSelect{WCET: ms(1)})
	r.app.TopicPub(pub, top)
	subT, _ := r.app.TaskDecl(TData{Name: "sub", Period: ms(10)})
	r.app.VersionDecl(subT, func(x *ExecCtx, _ any) error {
		for {
			if _, ok, err := x.Take(top); err != nil || !ok {
				return err
			}
		}
	}, nil, VSelect{WCET: ms(1)})
	r.app.TopicSub(subT, top)
	r.runMain(t, ms(300), func(c rt.Ctx) {
		c.SleepUntil(ms(100)) // well past Capacity publishes
		if err := r.app.Reconfigure(c, func(tx *Reconfig) error {
			return tx.RemoveTaskByName("sub")
		}); err != nil {
			t.Errorf("Reconfigure: %v", err)
		}
	})
	// After the sole subscriber retired, its stale cursor must not pin the
	// buffer at "full": the topic reverts to an empty anonymous FIFO, so
	// exactly Capacity more publishes succeed before Reject kicks in (there
	// is no consumer left — a regression would make ALL of them fail).
	if okBefore < 9 || failBefore != 0 {
		t.Errorf("pre-epoch publishes: ok=%d fail=%d, want ~10/0", okBefore, failBefore)
	}
	var retiredAt time.Duration
	retired := false
	for _, e := range r.app.Recorder().Retires() {
		if e.Task == "sub" {
			retiredAt, retired = e.At, true
		}
	}
	if !retired {
		t.Fatal("no RetireEvent for the removed subscriber")
	}
	okAfter := 0
	for _, at := range okAt {
		if at >= retiredAt {
			okAfter++
		}
	}
	if okAfter != 4 {
		t.Errorf("successful publishes after the retirement at %v = %d, want exactly Capacity=4", retiredAt, okAfter)
	}
	if rec := r.app.Recorder().Task("pub"); rec == nil || rec.Jobs < 29 {
		t.Errorf("pub = %+v, want ~30 uninterrupted jobs", rec)
	}
}

func TestSwitchModePreset(t *testing.T) {
	r := newRig(t, Config{Workers: 1, Priority: PriorityEDF, VersionSelect: SelectMode}, nil)
	tid, _ := r.app.TaskDecl(TData{Name: "dual", Period: ms(10)})
	var ranA, ranB int
	r.app.VersionDecl(tid, func(x *ExecCtx, _ any) error { ranA++; return x.Compute(ms(1)) }, nil,
		VSelect{WCET: ms(1), Modes: 1 << 0})
	r.app.VersionDecl(tid, func(x *ExecCtx, _ any) error { ranB++; return x.Compute(ms(1)) }, nil,
		VSelect{WCET: ms(1), Modes: 1 << 1})
	if err := r.app.InstallMode("normal", ModePreset{Mode: 0}); err != nil {
		t.Fatal(err)
	}
	if err := r.app.InstallMode("secure", ModePreset{Mode: 1}); err != nil {
		t.Fatal(err)
	}
	r.runMain(t, ms(200), func(c rt.Ctx) {
		c.SleepUntil(ms(100))
		if err := r.app.SwitchMode(c, "secure"); err != nil {
			t.Errorf("SwitchMode: %v", err)
		}
		if got := r.app.ModeName(); got != "secure" {
			t.Errorf("ModeName = %q", got)
		}
		if err := r.app.SwitchMode(c, "nope"); err == nil ||
			!strings.Contains(err.Error(), "no mode preset") {
			t.Errorf("unknown mode err = %v", err)
		}
	})
	if ranA < 9 || ranB < 9 {
		t.Errorf("version A ran %d, B ran %d; want ~10 each around the switch", ranA, ranB)
	}
}

func TestReconfigureStoppedApp(t *testing.T) {
	r := newRig(t, Config{Workers: 1, Priority: PriorityEDF}, nil)
	declSpin(t, r.app, "a", ms(10), ms(1))
	var tErr error
	r.env.Spawn("cfg", rt.UnpinnedCore, func(c rt.Ctx) {
		tErr = r.app.Reconfigure(c, func(tx *Reconfig) error {
			id, err := tx.AddTask(TData{Name: "b", Period: ms(20)})
			if err != nil {
				return err
			}
			_, err = tx.AddVersion(id, spin(ms(1)), nil, VSelect{WCET: ms(1)})
			return err
		})
	})
	if err := r.eng.Run(1 << 40); err != nil {
		t.Fatal(err)
	}
	if tErr != nil {
		t.Fatalf("stopped reconfigure: %v", tErr)
	}
	r.runMain(t, ms(100), nil)
	rec := r.app.Recorder()
	if b := rec.Task("b"); b == nil || b.Jobs < 4 {
		t.Errorf("b = %+v, want ~5 jobs (admitted before Start)", b)
	}
}

func TestReconfigureSlotReuseModePingPong(t *testing.T) {
	// MaxTasks just big enough for base + one churn slot: repeated
	// add/remove must recycle slots, not exhaust the static budget.
	r := newRig(t, Config{Workers: 1, Priority: PriorityEDF, MaxTasks: 3}, nil)
	declSpin(t, r.app, "base", ms(10), ms(1))
	r.runMain(t, ms(500), func(c rt.Ctx) {
		for i := 0; i < 8; i++ {
			c.Sleep(ms(25))
			if err := r.app.Reconfigure(c, func(tx *Reconfig) error {
				id, err := tx.AddTask(TData{Name: "churn", Period: ms(10)})
				if err != nil {
					return err
				}
				_, err = tx.AddVersion(id, spin(ms(1)), nil, VSelect{WCET: ms(1)})
				return err
			}); err != nil {
				t.Errorf("add %d: %v", i, err)
				return
			}
			c.Sleep(ms(25))
			if err := r.app.Reconfigure(c, func(tx *Reconfig) error {
				return tx.RemoveTaskByName("churn")
			}); err != nil {
				t.Errorf("remove %d: %v", i, err)
				return
			}
		}
	})
	if got := r.app.Epoch(); got != 16 {
		t.Errorf("epoch = %d, want 16", got)
	}
	if n := r.app.Overruns(); n != 0 {
		t.Errorf("overruns = %d", n)
	}
	if err := r.app.FirstError(); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigureEdgeAndTopicLifecycle(t *testing.T) {
	r := newRig(t, Config{Workers: 2, Priority: PriorityEDF}, nil)
	declSpin(t, r.app, "src", ms(10), ms(1))
	r.runMain(t, ms(300), func(c rt.Ctx) {
		c.SleepUntil(ms(100))
		// Grow a pipeline stage live: src -> sink through a fresh channel.
		err := r.app.Reconfigure(c, func(tx *Reconfig) error {
			ch, err := tx.AddChannel("pipe", 8)
			if err != nil {
				return err
			}
			sink, err := tx.AddTask(TData{Name: "sink"})
			if err != nil {
				return err
			}
			if _, err := tx.AddVersion(sink, spin(ms(1)), nil, VSelect{WCET: ms(1)}); err != nil {
				return err
			}
			src := tx.TaskID("src")
			if src < 0 {
				return errors.New("src not found in merged view")
			}
			return tx.Connect(src, sink, ch)
		})
		if err != nil {
			t.Errorf("grow: %v", err)
			return
		}
		c.SleepUntil(ms(200))
		// Shrink it again: the sink drains, the channel dies with it.
		err = r.app.Reconfigure(c, func(tx *Reconfig) error {
			if err := tx.RemoveTaskByName("sink"); err != nil {
				return err
			}
			src := tx.a.taskIDByName("src")
			sink := tx.a.taskIDByName("sink")
			ch := tx.a.TopicID("pipe")
			if err := tx.Disconnect(src, sink, ch); err != nil {
				return err
			}
			return tx.RemoveTopic(ch)
		})
		if err != nil {
			t.Errorf("shrink: %v", err)
		}
	})
	rec := r.app.Recorder()
	sink := rec.Task("sink")
	if sink == nil || sink.Jobs < 8 {
		t.Fatalf("sink = %+v, want ~10 data-activated jobs", sink)
	}
	if src := rec.Task("src"); src == nil || src.Jobs < 29 {
		t.Errorf("src = %+v, want ~30 jobs across all three epochs", src)
	}
	if err := r.app.FirstError(); err != nil {
		t.Fatal(err)
	}
}

// TestReconfigureAllocsIndependentOfLiveTasks runs remove-4/add-4/retune-4
// transactions on a stopped OSEnv App with 1,000 and with 10,000 live tasks.
// A transaction must allocate the same number of objects at both sizes, and
// no more bytes than one admission row per live task plus 64 KiB.
func TestReconfigureAllocsIndependentOfLiveTasks(t *testing.T) {
	objs := map[int]uint64{}
	for _, n := range []int{1000, 10000} {
		o, b := reconfigureAllocs(t, n)
		objs[n] = o
		if limit := uint64(n)*uint64(unsafe.Sizeof(taskset.Task{})) + 64<<10; b > limit {
			t.Errorf("%d live tasks: %d B per transaction, want <= %d", n, b, limit)
		}
		t.Logf("%d live tasks: %d objects, %d KiB per transaction", n, o, b>>10)
	}
	if objs[1000] != objs[10000] {
		t.Errorf("objects per transaction: %d at 1k live tasks, %d at 10k; want equal", objs[1000], objs[10000])
	}
}

// TestRetuneAllocsIndependentOfChainLength retunes the root of a chain of
// 10, 100 and 1,000 tasks (a periodic root feeding data-activated tasks, each
// with a WCET) on a stopped OSEnv App. Admission and the commit's derivation
// walk every task back to the root; one transaction must allocate the same
// small number of objects at every length.
func TestRetuneAllocsIndependentOfChainLength(t *testing.T) {
	objs := map[int]uint64{}
	for _, n := range []int{10, 100, 1000} {
		objs[n] = chainRetuneAllocs(t, n)
		t.Logf("%d-task chain: %d objects per retune", n, objs[n])
	}
	if objs[10] != objs[100] || objs[10] != objs[1000] || objs[10] > 64 {
		t.Errorf("objects per one-task retune: %v; want equal at every length and at most 64", objs)
	}
}

// chainRetuneAllocs returns the mean objects one root retune allocates on a
// chain of n tasks.
func chainRetuneAllocs(t *testing.T, n int) uint64 {
	const runs = 10
	env := rt.NewOSEnv()
	app, err := New(Config{Workers: 1, Priority: PriorityEDF, MaxTasks: n, MaxChannels: n}, env)
	if err != nil {
		t.Fatal(err)
	}
	noop := func(*ExecCtx, any) error { return nil }
	root := TData{Name: "c0", Period: ms(10)}
	prev := TID(-1)
	for i := 0; i < n; i++ {
		d := TData{Name: fmt.Sprint("c", i)}
		if i == 0 {
			d = root
		}
		id, err := app.TaskDecl(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.VersionDecl(id, noop, nil, VSelect{WCET: us(1)}); err != nil {
			t.Fatal(err)
		}
		if prev >= 0 {
			ch, err := app.ChannelDecl(fmt.Sprint("e", i), 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := app.ChannelConnect(prev, id, ch); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	var objs uint64
	env.RunMain(func(c rt.Ctx) {
		retune := func(k int) {
			d := root
			d.Period = ms(10 + k%2*10)
			if err := app.Reconfigure(c, func(tx *Reconfig) error { return tx.Retune(0, d) }); err != nil {
				t.Errorf("retune %d: %v", k, err)
			}
		}
		retune(0)
		retune(1)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for k := 2; k < runs+2; k++ {
			retune(k)
		}
		runtime.ReadMemStats(&m1)
		objs = (m1.Mallocs - m0.Mallocs) / runs
	})
	return objs
}

// reconfigureAllocs returns the mean objects and bytes one transaction
// allocates against n live tasks.
func reconfigureAllocs(t *testing.T, n int) (objs, bytes uint64) {
	const dyn, runs = 4, 20
	env := rt.NewOSEnv()
	app, err := New(Config{Workers: 2, Priority: PriorityEDF, MaxTasks: n + 4*dyn}, env)
	if err != nil {
		t.Fatal(err)
	}
	noop := func(*ExecCtx, any) error { return nil }
	bulk := make([]TData, n)
	for i := range bulk {
		bulk[i] = TData{Name: fmt.Sprint("bulk-", i), Period: ms(200 + i%800)}
		id, err := app.TaskDecl(bulk[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.VersionDecl(id, noop, nil, VSelect{WCET: us(1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Names are built before measuring: only the transaction is counted.
	names := make([][dyn]string, runs+2)
	for k := range names {
		for i := range names[k] {
			names[k][i] = fmt.Sprintf("dyn-%d-%d", k, i)
		}
	}
	env.RunMain(func(c rt.Ctx) {
		tx := func(k int) {
			err := app.Reconfigure(c, func(tx *Reconfig) error {
				for i := 0; k > 0 && i < dyn; i++ {
					if err := tx.RemoveTaskByName(names[k-1][i]); err != nil {
						return err
					}
				}
				for i := 0; i < dyn; i++ {
					id, err := tx.AddTask(TData{Name: names[k][i], Period: ms(20)})
					if err != nil {
						return err
					}
					if _, err := tx.AddVersion(id, noop, nil, VSelect{WCET: us(1)}); err != nil {
						return err
					}
				}
				for i := 0; i < dyn; i++ {
					id := TID((k*dyn + i) * 7 % n)
					d := bulk[id]
					d.Period = ms(200 + (k+i)%800)
					if err := tx.Retune(id, d); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("transaction %d: %v", k, err)
			}
		}
		tx(0)
		tx(1)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for k := 2; k < runs+2; k++ {
			tx(k)
		}
		runtime.ReadMemStats(&m1)
		objs = (m1.Mallocs - m0.Mallocs) / runs
		bytes = (m1.TotalAlloc - m0.TotalAlloc) / runs
	})
	env.Wait()
	return objs, bytes
}

// TestStartAndReconfigureShareRules pins one rule set for the task-graph
// model: a set with one structural defect, declared through the Table-1
// calls, makes Start fail with the very message a Reconfigure staging the
// same set gets.
func TestStartAndReconfigureShareRules(t *testing.T) {
	type edgeDecl struct{ src, dst, delay int }
	cases := []struct {
		name      string
		cfg       Config
		tasks     []TData
		noVersion int // index of a task declared without a version, or -1
		edges     []edgeDecl
		want      string
	}{
		{"no version", Config{}, []TData{{Name: "a", Period: ms(10)}}, 0, nil,
			"task a has no version"},
		{"periodic task with a zero-delay in-edge", Config{},
			[]TData{{Name: "a", Period: ms(10)}, {Name: "b", Period: ms(10)}}, -1,
			[]edgeDecl{{0, 1, 0}}, "task b is data-activated but has a period"},
		{"aperiodic task without deadline", Config{}, []TData{{Name: "aper"}}, -1, nil,
			"aperiodic task aper needs an explicit deadline"},
		{"sporadic task without period or deadline", Config{},
			[]TData{{Name: "spore", Sporadic: true}}, -1, nil,
			"sporadic task spore needs a minimum inter-arrival time"},
		{"partitioned VirtCore out of range", Config{Workers: 2, Mapping: MappingPartitioned},
			[]TData{{Name: "far", Period: ms(10), VirtCore: 7}}, -1, nil,
			"task far: VirtCore 7 out of [0,2)"},
		{"zero-delay cycle", Config{},
			[]TData{{Name: "a", Period: ms(10)}, {Name: "b"}, {Name: "c"}}, -1,
			[]edgeDecl{{0, 1, 0}, {1, 2, 0}, {2, 1, 0}}, "cycle through task b"},
	}
	body := spin(us(100))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.Workers == 0 {
				cfg.Workers = 1
			}

			// Table-1 declarations, then Start.
			r := newRig(t, cfg, nil)
			app := r.app
			tids := make([]TID, len(tc.tasks))
			for i, d := range tc.tasks {
				id, err := app.TaskDecl(d)
				if err != nil {
					t.Fatal(err)
				}
				tids[i] = id
				if i != tc.noVersion {
					if _, err := app.VersionDecl(id, body, nil, VSelect{}); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i, e := range tc.edges {
				c, err := app.ChannelDecl(fmt.Sprintf("c%d", i), 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := app.ChannelConnectDelayed(tids[e.src], tids[e.dst], c, e.delay); err != nil {
					t.Fatal(err)
				}
			}
			var startErr error
			r.env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
				if startErr = app.Start(c); startErr == nil {
					app.Stop(c)
					app.Cleanup(c)
				}
			})
			if err := r.eng.RunUntilIdle(); err != nil {
				t.Fatal(err)
			}

			// The same set staged on one transaction of a fresh App.
			r = newRig(t, cfg, nil)
			app = r.app
			var txErr error
			r.env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
				txErr = app.Reconfigure(c, func(tx *Reconfig) error {
					for i, d := range tc.tasks {
						id, err := tx.AddTask(d)
						if err != nil {
							return err
						}
						tids[i] = id
						if i != tc.noVersion {
							if _, err := tx.AddVersion(id, body, nil, VSelect{}); err != nil {
								return err
							}
						}
					}
					for i, e := range tc.edges {
						c, err := tx.AddChannel(fmt.Sprintf("c%d", i), 1)
						if err != nil {
							return err
						}
						if err := tx.ConnectDelayed(tids[e.src], tids[e.dst], c, e.delay); err != nil {
							return err
						}
					}
					return nil
				})
			})
			if err := r.eng.RunUntilIdle(); err != nil {
				t.Fatal(err)
			}

			if startErr == nil || txErr == nil {
				t.Fatalf("Start: %v; Reconfigure: %v; want both to fail", startErr, txErr)
			}
			if !strings.Contains(txErr.Error(), tc.want) {
				t.Errorf("Reconfigure: %v, want it to say %q", txErr, tc.want)
			}
			if startErr.Error() != txErr.Error() {
				t.Errorf("Start and Reconfigure disagree:\n Start:       %v\n Reconfigure: %v", startErr, txErr)
			}
		})
	}
}
