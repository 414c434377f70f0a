package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/rt"
)

// TestStealChurnRaceOSEnv races the work-stealing hot path against
// reconfiguration churn on the wall-clock backend. The load is deliberately
// unbalanced: four short-period publishers all share home shard 0 (global
// mapping homes task id modulo shard count, and the cold fillers between
// them pin the ids), so shard 0 releases ~1.2 cores of work while the other
// three queues stay empty — the other workers can only make progress by
// stealing. While that runs, one thread churns a transient compute task
// (admit/retire) and another retunes a hot publisher's period, so steals
// interleave with schedView republication, release re-arming and retirement
// quiescence. Under overload two jobs of one task can legitimately run
// concurrently (the next release is stolen onto another worker while the
// previous job still computes), so entries carry atomically allocated
// sequence numbers and the invariant is exactly-once delivery, not
// ordering. Checked under -race:
//
//   - no lost or duplicated entries: every successfully published entry
//     reaches the subscriber exactly once, across every epoch;
//   - stealing actually happened (the imbalance is structural, so zero
//     steals would mean the steal path is dead);
//   - the epoch snapshot was published exactly once per commit plus Start.
func TestStealChurnRaceOSEnv(t *testing.T) {
	env := rt.NewOSEnv()
	env.Spin = false
	app, err := New(Config{
		Workers: 4, Mapping: MappingGlobal, Priority: PriorityEDF,
		MaxTasks: 32, MaxChannels: 4, MaxPendingJobs: 256,
	}, env)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := app.TopicDecl("stream", TopicOpts{Capacity: 1024})
	if err != nil {
		t.Fatal(err)
	}

	const nHot = 4
	var stop atomic.Bool
	var seqs, published [nHot]atomic.Int64
	type entry struct {
		pub int
		seq int64
	}

	// Declare nHot publishers with exactly Workers-1 cold fillers between
	// consecutive ones: ids 0, 4, 8, 12 → all home on shard 0.
	hotIDs := make([]TID, nHot)
	for p := 0; p < nHot; p++ {
		p := p
		tid, err := app.TaskDecl(TData{Name: fmt.Sprintf("hot%d", p), Period: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		hotIDs[p] = tid
		if _, err := app.VersionDecl(tid, func(x *ExecCtx, _ any) error {
			if stop.Load() {
				return nil
			}
			seq := seqs[p].Add(1)
			if err := x.Publish(stream, entry{pub: p, seq: seq}); err == nil {
				published[p].Add(1)
			} // Reject-full: the entry (and its seq) is dropped
			return x.Compute(300 * time.Microsecond)
		}, nil, VSelect{}); err != nil {
			t.Fatal(err)
		}
		if err := app.TopicPub(tid, stream); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 3; f++ {
			ftid, err := app.TaskDecl(TData{Name: fmt.Sprintf("cold%d-%d", p, f), Period: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := app.VersionDecl(ftid, func(x *ExecCtx, _ any) error { return nil }, nil, VSelect{}); err != nil {
				t.Fatal(err)
			}
		}
	}

	var got [nHot]atomic.Int64
	var duplicates atomic.Int64
	subT, err := app.TaskDecl(TData{Name: "subscriber", Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.VersionDecl(subT, func(x *ExecCtx, _ any) error {
		var seen [nHot]map[int64]bool
		for p := range seen {
			seen[p] = make(map[int64]bool)
		}
		emptyAfterStop := 0
		for {
			_, v, ok, err := x.TakeAny()
			if err != nil {
				return err
			}
			if !ok {
				if stop.Load() {
					emptyAfterStop++
					if emptyAfterStop >= 2 {
						break
					}
				}
				if err := x.Sleep(200 * time.Microsecond); err != nil {
					return err
				}
				continue
			}
			emptyAfterStop = 0
			e := v.(entry)
			if seen[e.pub][e.seq] {
				duplicates.Add(1)
			}
			seen[e.pub][e.seq] = true
			got[e.pub].Add(1)
		}
		return nil
	}, nil, VSelect{}); err != nil {
		t.Fatal(err)
	}
	if err := app.TopicSub(subT, stream); err != nil {
		t.Fatal(err)
	}

	var churnErr atomic.Pointer[error]
	saveErr := func(err error) {
		if err != nil {
			churnErr.CompareAndSwap(nil, &err)
		}
	}
	var churners atomic.Int64
	churners.Store(2)

	// Churner 1: admit and retire a transient compute task, so retirement
	// quiescence and slot recycling run against live steal traffic.
	env.Spawn("churn-retire", rt.UnpinnedCore, func(c rt.Ctx) {
		defer churners.Add(-1)
		for !stop.Load() {
			err := app.Reconfigure(c, func(tx *Reconfig) error {
				id, err := tx.AddTask(TData{Name: "transient", Period: time.Millisecond})
				if err != nil {
					return err
				}
				_, err = tx.AddVersion(id, func(x *ExecCtx, _ any) error { return nil }, nil, VSelect{})
				return err
			})
			if err != nil {
				saveErr(fmt.Errorf("admit transient: %w", err))
				return
			}
			c.Sleep(2 * time.Millisecond)
			if err := app.Reconfigure(c, func(tx *Reconfig) error {
				return tx.RemoveTaskByName("transient")
			}); err != nil {
				saveErr(fmt.Errorf("retire transient: %w", err))
				return
			}
			c.Sleep(time.Millisecond)
		}
	})

	// Churner 2: retune a hot publisher's period back and forth, so release
	// re-keying and schedView republication race the steal scans that
	// read the task's tables lock-free.
	env.Spawn("churn-retune", rt.UnpinnedCore, func(c rt.Ctx) {
		defer churners.Add(-1)
		up := false
		for !stop.Load() {
			period := time.Millisecond
			if up {
				period = 1500 * time.Microsecond
			}
			up = !up
			if err := app.Reconfigure(c, func(tx *Reconfig) error {
				return tx.Retune(hotIDs[0], TData{Name: "hot0", Period: period})
			}); err != nil {
				saveErr(fmt.Errorf("retune hot0: %w", err))
				return
			}
			c.Sleep(3 * time.Millisecond)
		}
	})

	env.RunMain(func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			t.Errorf("start: %v", err)
			stop.Store(true)
			return
		}
		c.Sleep(300 * time.Millisecond)
		stop.Store(true)
		for churners.Load() > 0 {
			c.Sleep(time.Millisecond)
		}
		// Let the subscriber drain the tail before stopping.
		deadline := c.Now() + 5*time.Second
		for c.Now() < deadline {
			done := true
			for p := 0; p < nHot; p++ {
				if got[p].Load() < published[p].Load() {
					done = false
				}
			}
			if done {
				break
			}
			c.Sleep(time.Millisecond)
		}
		app.Stop(c)
		app.Cleanup(c)
	})
	env.Wait()

	if p := churnErr.Load(); p != nil {
		t.Fatalf("churn: %v", *p)
	}
	if err := app.FirstError(); err != nil {
		t.Fatalf("task error: %v", err)
	}
	if n := duplicates.Load(); n != 0 {
		t.Errorf("%d duplicated deliveries across epochs", n)
	}
	for p := 0; p < nHot; p++ {
		pub, taken := published[p].Load(), got[p].Load()
		if pub == 0 {
			t.Errorf("hot%d published nothing", p)
		}
		if taken != pub {
			t.Errorf("hot%d: published %d, subscriber took %d (lost %d)", p, pub, taken, pub-taken)
		}
	}
	if app.Epoch() < 4 {
		t.Errorf("only %d epochs committed; churn too slow to exercise races", app.Epoch())
	}
	st := app.SchedStats()
	if st.Steals == 0 {
		t.Errorf("no steals despite structurally unbalanced load: %+v", st)
	}
	if st.ViewPublishes != int64(app.Epoch())+1 {
		t.Errorf("schedView published %d times over %d epochs (want epochs+1)", st.ViewPublishes, app.Epoch())
	}
	t.Logf("sched stats: %+v, epochs %d", st, app.Epoch())
}
