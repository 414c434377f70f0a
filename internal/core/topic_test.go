package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/rt"
)

func TestTopicDeclValidation(t *testing.T) {
	r := newRig(t, Config{Workers: 1, MaxChannels: 8}, nil)
	app := r.app
	if _, err := app.TopicDecl("", TopicOpts{Capacity: 1}); err == nil {
		t.Error("want error for unnamed topic")
	}
	if _, err := app.TopicDecl("t", TopicOpts{Capacity: 0}); err == nil {
		t.Error("want error for zero capacity")
	}
	if _, err := app.TopicDecl("t", TopicOpts{Capacity: 1, Policy: OverflowPolicy(9)}); err == nil {
		t.Error("want error for unknown policy")
	}
	tid, err := app.TaskDecl(TData{Name: "a", Period: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := app.TopicDecl("t", TopicOpts{Capacity: 4, Policy: Latest})
	if err != nil {
		t.Fatal(err)
	}
	if got := app.TopicID("t"); got != tp {
		t.Errorf("TopicID = %d, want %d", got, tp)
	}
	if got := app.TopicID("nope"); got != -1 {
		t.Errorf("TopicID(unknown) = %d, want -1", got)
	}
	if err := app.TopicPub(tid, tp); err != nil {
		t.Fatal(err)
	}
	if err := app.TopicPub(tid, tp); err == nil {
		t.Error("want error for duplicate publisher")
	}
	if err := app.TopicSub(tid, tp); err != nil {
		t.Fatal(err)
	}
	if err := app.TopicSub(tid, tp); err == nil {
		t.Error("want error for duplicate subscriber")
	}
	if err := app.TopicPub(TID(77), tp); err == nil {
		t.Error("want error for unknown task")
	}
	if err := app.TopicSub(tid, CID(55)); err == nil {
		t.Error("want error for unknown topic")
	}
	// Channels and topics share the CID space and the MaxChannels budget.
	ch, err := app.ChannelDecl("legacy", 2)
	if err != nil {
		t.Fatal(err)
	}
	if app.NumChannels() != 2 || int(ch) != 1 {
		t.Errorf("NumChannels = %d (ch=%d), want 2 (ch=1)", app.NumChannels(), ch)
	}
	// A pure-precedence (capacity 0) channel cannot be subscribed to.
	prec, err := app.ChannelDecl("prec", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.TopicSub(tid, prec); err == nil {
		t.Error("want error subscribing to a capacity-0 channel")
	}
	if _, err := ParsePolicy("drop_oldest"); err != nil {
		t.Error(err)
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("want error for bogus policy string")
	}
}

// TestTopicRejectNoLoss: two publishers fan into one subscriber through a
// Reject topic in deterministic virtual time. Every successful publish must
// be taken exactly once, in per-publisher FIFO order.
func TestTopicRejectNoLoss(t *testing.T) {
	r := newRig(t, Config{Workers: 2, Priority: PriorityRM}, nil)
	app := r.app
	top, err := app.TopicDecl("bus", TopicOpts{Capacity: 8, Policy: Reject})
	if err != nil {
		t.Fatal(err)
	}
	published := make([]int64, 2)
	mkPub := func(idx int, period time.Duration) TID {
		tid, _ := app.TaskDecl(TData{Name: fmt.Sprintf("pub%d", idx), Period: period})
		app.VersionDecl(tid, func(x *ExecCtx, _ any) error {
			if x.Now() >= ms(400) {
				return nil // quiesce so the subscriber drains everything
			}
			published[idx]++
			return x.Publish(top, [2]int64{int64(idx), published[idx]})
		}, nil, VSelect{})
		if err := app.TopicPub(tid, top); err != nil {
			t.Fatal(err)
		}
		return tid
	}
	mkPub(0, ms(5))
	mkPub(1, ms(10))

	lastSeen := make([]int64, 2)
	var taken int64
	sub, _ := app.TaskDecl(TData{Name: "sub", Period: ms(10)})
	app.VersionDecl(sub, func(x *ExecCtx, _ any) error {
		for {
			v, ok, err := x.Take(top)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			e := v.([2]int64)
			if e[1] != lastSeen[e[0]]+1 {
				return fmt.Errorf("pub%d: seq %d after %d", e[0], e[1], lastSeen[e[0]])
			}
			lastSeen[e[0]] = e[1]
			taken++
		}
	}, nil, VSelect{})
	if err := app.TopicSub(sub, top); err != nil {
		t.Fatal(err)
	}

	r.runMain(t, ms(500), nil)
	if err := app.FirstError(); err != nil {
		t.Fatal(err)
	}
	want := published[0] + published[1]
	if taken != want || want == 0 {
		t.Errorf("taken %d of %d published", taken, want)
	}
	if app.TopicDropped(top) != 0 {
		t.Errorf("Reject topic dropped %d entries", app.TopicDropped(top))
	}
}

// TestTopicLatestConflation: a fast publisher and a slow subscriber on a
// Latest topic. Every take returns the newest published value; intermediate
// values conflate away.
func TestTopicLatestConflation(t *testing.T) {
	r := newRig(t, Config{Workers: 2, Priority: PriorityRM}, nil)
	app := r.app
	top, err := app.TopicDecl("sensor", TopicOpts{Capacity: 1, Policy: Latest})
	if err != nil {
		t.Fatal(err)
	}
	var seq int64
	pub, _ := app.TaskDecl(TData{Name: "pub", Period: ms(1)})
	app.VersionDecl(pub, func(x *ExecCtx, _ any) error {
		seq++
		return x.Publish(top, seq)
	}, nil, VSelect{})
	if err := app.TopicPub(pub, top); err != nil {
		t.Fatal(err)
	}
	var got []int64
	sub, _ := app.TaskDecl(TData{Name: "sub", Period: ms(50)})
	app.VersionDecl(sub, func(x *ExecCtx, _ any) error {
		v, ok, err := x.Take(top)
		if err != nil || !ok {
			return err
		}
		got = append(got, v.(int64))
		// Conflation: nothing older may remain pending after a take.
		if n, err := x.ChannelLen(top); err != nil || n != 0 {
			return fmt.Errorf("backlog %d after conflating take (err %v)", n, err)
		}
		return nil
	}, nil, VSelect{})
	if err := app.TopicSub(sub, top); err != nil {
		t.Fatal(err)
	}

	r.runMain(t, ms(500), nil)
	if err := app.FirstError(); err != nil {
		t.Fatal(err)
	}
	if len(got) < 5 {
		t.Fatalf("only %d takes", len(got))
	}
	gaps := 0
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("takes not increasing: %v", got)
		}
		if got[i] > got[i-1]+1 {
			gaps++
		}
	}
	if gaps == 0 {
		t.Error("50:1 rate mismatch produced no conflation gaps")
	}
	if app.TopicDropped(top) == 0 {
		t.Error("no overwrites recorded on a saturated Latest topic")
	}
}

// TestTopicDropOldestBoundedLag: a slow subscriber on a DropOldest topic
// loses the oldest entries but always reads a consistent, ordered suffix.
func TestTopicDropOldestBoundedLag(t *testing.T) {
	r := newRig(t, Config{Workers: 2, Priority: PriorityRM}, nil)
	app := r.app
	top, err := app.TopicDecl("stream", TopicOpts{Capacity: 4, Policy: DropOldest})
	if err != nil {
		t.Fatal(err)
	}
	var seq int64
	pub, _ := app.TaskDecl(TData{Name: "pub", Period: ms(1)})
	app.VersionDecl(pub, func(x *ExecCtx, _ any) error {
		seq++
		return x.Publish(top, seq)
	}, nil, VSelect{})
	app.TopicPub(pub, top)
	var got []int64
	sub, _ := app.TaskDecl(TData{Name: "sub", Period: ms(20)})
	app.VersionDecl(sub, func(x *ExecCtx, _ any) error {
		v, ok, err := x.Take(top)
		if err != nil || !ok {
			return err
		}
		got = append(got, v.(int64))
		return nil
	}, nil, VSelect{})
	app.TopicSub(sub, top)

	r.runMain(t, ms(400), nil)
	if err := app.FirstError(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("stream went backwards: %v", got)
		}
	}
	if app.TopicDropped(top) == 0 {
		t.Error("no drops on a 20x oversubscribed DropOldest topic")
	}
	// Bounded lag: each taken value is within Capacity of the newest at the
	// time of the take — it cannot be older than the retained window. The
	// last take happened when seq was at most 400, so a crude bound:
	if last := got[len(got)-1]; last < seq-25 {
		t.Errorf("subscriber lag unbounded: last take %d, published %d", last, seq)
	}
}

// TestTakeAnyPriorityOrder: TakeAny drains the urgent topic before the bulk
// topic regardless of declaration or publish order.
func TestTakeAnyPriorityOrder(t *testing.T) {
	r := newRig(t, Config{Workers: 2, Priority: PriorityRM}, nil)
	app := r.app
	// Declare the LOW-priority topic first: order must come from Priority.
	lo, err := app.TopicDecl("bulk", TopicOpts{Capacity: 8, Policy: Reject, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := app.TopicDecl("alarm", TopicOpts{Capacity: 8, Policy: Reject, Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	pub, _ := app.TaskDecl(TData{Name: "pub", Period: ms(10)})
	app.VersionDecl(pub, func(x *ExecCtx, _ any) error {
		if x.Now() >= ms(90) {
			return nil
		}
		// Bulk goes out BEFORE the alarm each cycle.
		if err := x.Publish(lo, "bulk"); err != nil {
			return err
		}
		return x.Publish(hi, "alarm")
	}, nil, VSelect{})
	app.TopicPub(pub, lo)
	app.TopicPub(pub, hi)

	// Record one burst per subscriber job so the priority-order assertion can
	// check real drain boundaries instead of guessing them from the stream.
	var bursts [][]string
	sub, _ := app.TaskDecl(TData{Name: "sub", Period: ms(20)})
	app.VersionDecl(sub, func(x *ExecCtx, _ any) error {
		var burst []string
		for {
			from, v, ok, err := x.TakeAny()
			if err != nil {
				return err
			}
			if !ok {
				if len(burst) > 0 {
					bursts = append(bursts, burst)
				}
				return nil
			}
			if from == hi && v != "alarm" || from == lo && v != "bulk" {
				return fmt.Errorf("topic %d delivered %v", from, v)
			}
			burst = append(burst, v.(string))
		}
	}, nil, VSelect{})
	app.TopicSub(sub, lo)
	app.TopicSub(sub, hi)

	r.runMain(t, ms(200), nil)
	if err := app.FirstError(); err != nil {
		t.Fatal(err)
	}
	if len(bursts) == 0 {
		t.Fatal("nothing delivered")
	}
	// Within each drain burst, every alarm precedes every bulk entry:
	// TakeAny must empty the urgent topic before touching the bulk one.
	alarms := 0
	for _, burst := range bursts {
		seenBulk := false
		for _, s := range burst {
			if s == "alarm" {
				alarms++
				if seenBulk {
					t.Fatalf("alarm delivered mid-burst after bulk: %v", bursts)
				}
			} else {
				seenBulk = true
			}
		}
	}
	if alarms == 0 {
		t.Fatal("no alarms delivered")
	}
}

// TestTopicEndpointEnforcement: once endpoints are registered, outsiders
// can neither publish nor take.
func TestTopicEndpointEnforcement(t *testing.T) {
	r := newRig(t, Config{Workers: 2, Priority: PriorityRM}, nil)
	app := r.app
	top, _ := app.TopicDecl("private", TopicOpts{Capacity: 4})
	pub, _ := app.TaskDecl(TData{Name: "pub", Period: ms(10)})
	app.VersionDecl(pub, func(x *ExecCtx, _ any) error {
		return x.Publish(top, 1)
	}, nil, VSelect{})
	app.TopicPub(pub, top)
	sub, _ := app.TaskDecl(TData{Name: "sub", Period: ms(10)})
	var subPubErr error
	app.VersionDecl(sub, func(x *ExecCtx, _ any) error {
		if _, _, err := x.Take(top); err != nil {
			return err
		}
		if subPubErr == nil {
			subPubErr = x.Publish(top, 2) // subscriber is not a publisher
		}
		return nil
	}, nil, VSelect{})
	app.TopicSub(sub, top)
	var roguePub, rogueTake error
	rogue, _ := app.TaskDecl(TData{Name: "rogue", Period: ms(10)})
	app.VersionDecl(rogue, func(x *ExecCtx, _ any) error {
		if roguePub == nil {
			roguePub = x.Publish(top, 3)
		}
		if _, _, err := x.Take(top); rogueTake == nil {
			rogueTake = err
		}
		return nil
	}, nil, VSelect{})

	r.runMain(t, ms(50), nil)
	if err := app.FirstError(); err != nil {
		t.Fatal(err)
	}
	if subPubErr == nil {
		t.Error("subscriber published without a pub endpoint")
	}
	if roguePub == nil {
		t.Error("non-endpoint task published")
	}
	if rogueTake == nil {
		t.Error("non-endpoint task took")
	}
}

// TestLegacyChannelTopicInterop: ChannelDecl channels answer the topic API
// too (one CID space), and Take treats empty as a normal outcome where Pop
// errors.
func TestLegacyChannelTopicInterop(t *testing.T) {
	r := newRig(t, Config{Workers: 1}, nil)
	app := r.app
	ch, _ := app.ChannelDecl("fifo", 2)
	var failures []string
	tid, _ := app.TaskDecl(TData{Name: "t", Period: ms(10)})
	app.VersionDecl(tid, func(x *ExecCtx, _ any) error {
		if x.JobIndex() > 1 {
			return nil
		}
		check := func(cond bool, msg string) {
			if !cond {
				failures = append(failures, msg)
			}
		}
		check(x.Push(ch, "a") == nil, "push a")
		check(x.Publish(ch, "b") == nil, "publish b") // same CID, same buffer
		check(x.Push(ch, "c") != nil, "push beyond capacity must fail")
		n, err := x.ChannelLen(ch)
		check(err == nil && n == 2, "len 2")
		v, err := x.Pop(ch)
		check(err == nil && v == "a", "pop a")
		v2, ok, err := x.Take(ch)
		check(err == nil && ok && v2 == "b", "take b")
		_, err = x.Pop(ch)
		check(err != nil, "pop empty must error")
		_, ok, err = x.Take(ch)
		check(err == nil && !ok, "take empty is ok=false, no error")
		return nil
	}, nil, VSelect{})
	r.runMain(t, ms(30), nil)
	if err := app.FirstError(); err != nil {
		t.Fatal(err)
	}
	if len(failures) > 0 {
		t.Fatalf("interop failures: %v", failures)
	}
}

// TestTypedPorts: Send/Recv round a value through typed ports; direction
// and dynamic-type violations are caught.
func TestTypedPorts(t *testing.T) {
	r := newRig(t, Config{Workers: 2, Priority: PriorityRM}, nil)
	app := r.app
	top, _ := app.TopicDecl("typed", TopicOpts{Capacity: 4})
	type frame struct{ n int }
	out := PubOf[frame](top)
	in := SubOf[frame](top)
	if out.Topic() != top || out.Dir() != PubPort || in.Dir() != SubPort {
		t.Fatal("port accessors broken")
	}
	pub, _ := app.TaskDecl(TData{Name: "pub", Period: ms(10)})
	var dirErr error
	app.VersionDecl(pub, func(x *ExecCtx, _ any) error {
		if _, _, err := Recv(x, out); dirErr == nil {
			dirErr = err // Recv through a pub port must fail
		}
		return Send(x, out, frame{n: int(x.JobIndex())})
	}, nil, VSelect{})
	app.TopicPub(pub, top)
	var got []int
	sub, _ := app.TaskDecl(TData{Name: "sub", Period: ms(10)})
	app.VersionDecl(sub, func(x *ExecCtx, _ any) error {
		for {
			f, ok, err := Recv(x, in)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			got = append(got, f.n)
		}
	}, nil, VSelect{})
	app.TopicSub(sub, top)
	r.runMain(t, ms(100), nil)
	if err := app.FirstError(); err != nil {
		t.Fatal(err)
	}
	if dirErr == nil {
		t.Error("Recv through a pub port succeeded")
	}
	if len(got) < 5 {
		t.Fatalf("only %d frames received: %v", len(got), got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			t.Fatalf("frames out of order: %v", got)
		}
	}
}

// TestTopicMultiPubWallClockStress exercises the lock-free MPSC fan-in
// staging path: four publisher tasks and one subscriber on the OS backend
// under the race detector. Per-publisher FIFO order must hold and every
// successful publish must be delivered. Every task is pinned (partitioned
// mapping) so each one's jobs run serialized on its home worker: under the
// global mapping two jobs of one task may run at once, and two overlapping
// publisher jobs would re-publish a sequence number, two overlapping
// subscriber jobs would check it out of order.
func TestTopicMultiPubWallClockStress(t *testing.T) {
	env := rt.NewOSEnv()
	env.Spin = false
	app, err := New(Config{Workers: 4, Mapping: MappingPartitioned, Priority: PriorityRM, MaxPendingJobs: 256}, env)
	if err != nil {
		t.Fatal(err)
	}
	top, err := app.TopicDecl("bus", TopicOpts{Capacity: 64, Policy: Reject})
	if err != nil {
		t.Fatal(err)
	}
	const pubs = 4
	published := make([]atomic.Int64, pubs)
	var quiesce atomic.Bool
	for p := 0; p < pubs; p++ {
		p := p
		tid, _ := app.TaskDecl(TData{Name: fmt.Sprintf("pub%d", p), Period: 2 * time.Millisecond, VirtCore: p})
		app.VersionDecl(tid, func(x *ExecCtx, _ any) error {
			if quiesce.Load() {
				return nil
			}
			for i := 0; i < 4; i++ {
				next := published[p].Load() + 1
				if err := x.Publish(top, [2]int64{int64(p), next}); err != nil {
					return nil // Reject full: retry next period
				}
				published[p].Store(next)
			}
			return nil
		}, nil, VSelect{})
		if err := app.TopicPub(tid, top); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	lastSeen := make([]int64, pubs)
	var taken int64
	sub, _ := app.TaskDecl(TData{Name: "sub", Period: 5 * time.Millisecond, VirtCore: 0})
	app.VersionDecl(sub, func(x *ExecCtx, _ any) error {
		for {
			v, ok, err := x.Take(top)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			e := v.([2]int64)
			mu.Lock()
			if e[1] != lastSeen[e[0]]+1 {
				mu.Unlock()
				return fmt.Errorf("pub%d: seq %d after %d", e[0], e[1], lastSeen[e[0]])
			}
			lastSeen[e[0]] = e[1]
			taken++
			mu.Unlock()
		}
	}, nil, VSelect{})
	if err := app.TopicSub(sub, top); err != nil {
		t.Fatal(err)
	}

	env.RunMain(func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		c.Sleep(250 * time.Millisecond)
		quiesce.Store(true)
		c.Sleep(100 * time.Millisecond) // subscriber drains the tail
		app.Stop(c)
		app.Cleanup(c)
	})
	env.Wait()
	if err := app.FirstError(); err != nil {
		t.Fatal(err)
	}
	var want int64
	for p := range published {
		want += published[p].Load()
	}
	mu.Lock()
	defer mu.Unlock()
	if taken != want || want == 0 {
		t.Errorf("taken %d of %d published", taken, want)
	}
	for p := range lastSeen {
		if lastSeen[p] != published[p].Load() {
			t.Errorf("pub%d: delivered up to %d, published %d", p, lastSeen[p], published[p].Load())
		}
	}
}

// TestTopicMultiPubWallClockDropOldest drives the staged fan-in slow path
// for a policy that must never fail: a tiny topic saturated by four
// publishers. Publishes never error, and each publisher's delivered
// subsequence stays strictly increasing (gaps are the dropped entries).
// The publishers are pinned (partitioned mapping) so each one's jobs run
// serialized on its home worker: under the global mapping a task's next
// release can be dispatched while the previous job still runs, and
// overlapping jobs would make the per-publisher sequence ill-defined.
func TestTopicMultiPubWallClockDropOldest(t *testing.T) {
	env := rt.NewOSEnv()
	env.Spin = false
	app, err := New(Config{Workers: 4, Mapping: MappingPartitioned, Priority: PriorityRM, MaxPendingJobs: 256}, env)
	if err != nil {
		t.Fatal(err)
	}
	top, err := app.TopicDecl("tiny", TopicOpts{Capacity: 2, Policy: DropOldest})
	if err != nil {
		t.Fatal(err)
	}
	const pubs = 4
	var pubErrs atomic.Int64
	for p := 0; p < pubs; p++ {
		p := p
		var seq int64
		tid, _ := app.TaskDecl(TData{Name: fmt.Sprintf("pub%d", p), Period: time.Millisecond, VirtCore: p})
		app.VersionDecl(tid, func(x *ExecCtx, _ any) error {
			for i := 0; i < 8; i++ {
				seq++
				if err := x.Publish(top, [2]int64{int64(p), seq}); err != nil {
					pubErrs.Add(1)
				}
			}
			return nil
		}, nil, VSelect{})
		if err := app.TopicPub(tid, top); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	lastSeen := make([]int64, pubs)
	var taken int64
	sub, _ := app.TaskDecl(TData{Name: "sub", Period: 2 * time.Millisecond})
	app.VersionDecl(sub, func(x *ExecCtx, _ any) error {
		for {
			v, ok, err := x.Take(top)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			e := v.([2]int64)
			mu.Lock()
			if e[1] <= lastSeen[e[0]] {
				mu.Unlock()
				return fmt.Errorf("pub%d: seq %d after %d (reordered)", e[0], e[1], lastSeen[e[0]])
			}
			lastSeen[e[0]] = e[1]
			taken++
			mu.Unlock()
		}
	}, nil, VSelect{})
	if err := app.TopicSub(sub, top); err != nil {
		t.Fatal(err)
	}
	env.RunMain(func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		c.Sleep(200 * time.Millisecond)
		app.Stop(c)
		app.Cleanup(c)
	})
	env.Wait()
	if err := app.FirstError(); err != nil {
		t.Fatal(err)
	}
	if n := pubErrs.Load(); n != 0 {
		t.Errorf("%d publishes failed on a DropOldest topic", n)
	}
	if taken == 0 {
		t.Error("nothing delivered")
	}
	if app.TopicDropped(top) == 0 {
		t.Error("saturated capacity-2 topic recorded no drops")
	}
}

// TestSleepUnderOfflineDispatcher: the time-triggered dispatcher has no
// detach/rejoin handshake, so ExecCtx.Sleep must wait in place there — a
// sleeping body must complete normally, not corrupt the dispatch loop.
func TestSleepUnderOfflineDispatcher(t *testing.T) {
	r := newRig(t, Config{Workers: 1, Mapping: MappingOffline, AsyncAccel: true}, nil)
	app := r.app
	tid, _ := app.TaskDecl(TData{Name: "dozer", Deadline: ms(10)})
	var runs int64
	app.VersionDecl(tid, func(x *ExecCtx, _ any) error {
		if err := x.Sleep(ms(2)); err != nil {
			return err
		}
		if err := x.Compute(ms(1)); err != nil {
			return err
		}
		// AsyncAccel is configured but the version has no accelerator;
		// AccelSection must stay synchronous under offline dispatch.
		if err := x.AccelSection(ms(1)); err != nil {
			return err
		}
		runs++
		return nil
	}, nil, VSelect{})
	if err := app.SetOfflineTable(&OfflineTable{
		Cycle:     ms(20),
		PerWorker: [][]TableEntry{{{Offset: 0, Task: tid, Version: 0}}},
	}); err != nil {
		t.Fatal(err)
	}
	r.runMain(t, ms(100), nil)
	if err := app.FirstError(); err != nil {
		t.Fatal(err)
	}
	if runs < 4 {
		t.Fatalf("only %d offline runs completed", runs)
	}
	if st := app.Recorder().Task("dozer"); st == nil || st.Misses != 0 {
		t.Errorf("offline sleeper missed deadlines: %+v", st)
	}
}
