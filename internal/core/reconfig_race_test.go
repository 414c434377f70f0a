package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/rt"
)

// TestReconfigureRaceOSEnv races concurrent Reconfigure transactions against
// Publish/Take/TakeAny on the wall-clock backend: two steady publishers fan
// into one Reject topic through the lock-free MPSC staging ring while two
// threads repeatedly admit and retire tasks (one of which joins the topic as
// a transient subscriber, exercising cursor scrub and gc at retirement).
// Invariants checked under -race:
//
//   - no lost entries for the surviving subscriber: every successfully
//     published entry is delivered to it exactly once;
//   - per-publisher FIFO across every reconfiguration epoch.
func TestReconfigureRaceOSEnv(t *testing.T) {
	env := rt.NewOSEnv()
	env.Spin = false
	app, err := New(Config{
		Workers: 4, Priority: PriorityEDF,
		MaxTasks: 8, MaxChannels: 4, MaxPendingJobs: 64,
	}, env)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := app.TopicDecl("stream", TopicOpts{Capacity: 512})
	if err != nil {
		t.Fatal(err)
	}

	const nPub = 2
	var stop atomic.Bool
	var published [nPub]atomic.Int64
	var pubsLeft atomic.Int64 // publishers that have not returned yet
	pubsLeft.Store(nPub)
	type entry struct{ pub, seq int }

	for p := 0; p < nPub; p++ {
		p := p
		tid, err := app.TaskDecl(TData{Name: fmt.Sprintf("pub%d", p), Period: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.VersionDecl(tid, func(x *ExecCtx, _ any) error {
			defer pubsLeft.Add(-1)
			seq := 0
			for !stop.Load() {
				if err := x.Publish(stream, entry{pub: p, seq: seq + 1}); err != nil {
					if err := x.Sleep(100 * time.Microsecond); err != nil {
						return err
					}
					continue // Reject-full: back off and retry
				}
				seq++
				published[p].Store(int64(seq))
				if seq%128 == 0 {
					if err := x.Sleep(50 * time.Microsecond); err != nil {
						return err
					}
				}
			}
			return nil
		}, nil, VSelect{}); err != nil {
			t.Fatal(err)
		}
		if err := app.TopicPub(tid, stream); err != nil {
			t.Fatal(err)
		}
	}

	var got [nPub]atomic.Int64
	var fifoViolations atomic.Int64
	var subDone, giveUp atomic.Bool
	caughtUp := func() bool {
		for p := 0; p < nPub; p++ {
			if got[p].Load() != published[p].Load() {
				return false
			}
		}
		return true
	}
	subT, err := app.TaskDecl(TData{Name: "subscriber", Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.VersionDecl(subT, func(x *ExecCtx, _ any) error {
		defer subDone.Store(true)
		var last [nPub]int
		for {
			_, v, ok, err := x.TakeAny()
			if err != nil {
				return err
			}
			if !ok {
				// An empty sweep proves nothing: a transient subscriber
				// whose backlog is full holds the rest (in the buffer and
				// the staging ring behind it) out of sight until its task
				// retires. End once the publishers have returned and every
				// entry they published arrived, or when the test gives up.
				if giveUp.Load() || (pubsLeft.Load() == 0 && caughtUp()) {
					break
				}
				if err := x.Sleep(200 * time.Microsecond); err != nil {
					return err
				}
				continue
			}
			e := v.(entry)
			if e.seq != last[e.pub]+1 {
				fifoViolations.Add(1)
			}
			last[e.pub] = e.seq
			got[e.pub].Store(int64(e.seq))
		}
		return nil
	}, nil, VSelect{}); err != nil {
		t.Fatal(err)
	}
	if err := app.TopicSub(subT, stream); err != nil {
		t.Fatal(err)
	}

	// Two concurrent reconfigurers: one churns a transient subscriber task
	// on the shared topic, the other churns an unrelated compute task.
	var churnErr atomic.Pointer[error]
	saveErr := func(err error) {
		if err != nil {
			churnErr.CompareAndSwap(nil, &err)
		}
	}
	var churners atomic.Int64
	churn := func(name string, withSub bool) func(c rt.Ctx) {
		return func(c rt.Ctx) {
			defer churners.Add(-1)
			for !stop.Load() {
				err := app.Reconfigure(c, func(tx *Reconfig) error {
					id, err := tx.AddTask(TData{Name: name, Period: time.Millisecond})
					if err != nil {
						return err
					}
					body := func(x *ExecCtx, _ any) error { return nil }
					if withSub {
						body = func(x *ExecCtx, _ any) error {
							for i := 0; i < 4; i++ {
								if _, ok, err := x.Take(stream); err != nil || !ok {
									return err
								}
							}
							return nil
						}
					}
					if _, err := tx.AddVersion(id, body, nil, VSelect{}); err != nil {
						return err
					}
					if withSub {
						return tx.SubOn(id, stream)
					}
					return nil
				})
				if err != nil {
					saveErr(fmt.Errorf("add %s: %w", name, err))
					return
				}
				c.Sleep(2 * time.Millisecond)
				if err := app.Reconfigure(c, func(tx *Reconfig) error {
					return tx.RemoveTaskByName(name)
				}); err != nil {
					saveErr(fmt.Errorf("remove %s: %w", name, err))
					return
				}
				c.Sleep(time.Millisecond)
			}
		}
	}
	churners.Store(2)
	env.Spawn("churn-sub", rt.UnpinnedCore, churn("churnA", true))
	env.Spawn("churn-cpu", rt.UnpinnedCore, churn("churnB", false))

	env.RunMain(func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			t.Errorf("start: %v", err)
			stop.Store(true)
			return
		}
		c.Sleep(250 * time.Millisecond)
		stop.Store(true)
		for churners.Load() > 0 {
			c.Sleep(time.Millisecond)
		}
		// Give the subscriber time to drain the tail before stopping.
		deadline := c.Now() + 5*time.Second
		for !subDone.Load() && c.Now() < deadline {
			c.Sleep(time.Millisecond)
		}
		giveUp.Store(true)
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
	if n := fifoViolations.Load(); n != 0 {
		t.Errorf("per-publisher FIFO violated %d times across epochs", n)
	}
	for p := 0; p < nPub; p++ {
		pub, taken := published[p].Load(), got[p].Load()
		if pub == 0 {
			t.Errorf("pub%d published nothing", p)
		}
		if taken != pub {
			t.Errorf("pub%d: published %d, surviving subscriber took %d (lost %d)",
				p, pub, taken, pub-taken)
		}
	}
	if app.Epoch() < 4 {
		t.Errorf("only %d epochs committed; churn too slow to exercise races", app.Epoch())
	}
}
