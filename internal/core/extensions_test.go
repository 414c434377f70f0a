package core

import (
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/rt"
)

// TestDelayTokensFeedbackLoop exercises the paper's future-work "delay
// tokens" extension: a periodic producer feeds a consumer which feeds state
// back to the producer. The back edge carries one delay token, so the graph
// is cyclic yet deadlock-free, and iteration k of the producer consumes the
// state produced by iteration k-1.
func TestDelayTokensFeedbackLoop(t *testing.T) {
	r := newRig(t, Config{Workers: 2, Priority: PriorityEDF}, nil)
	app := r.app

	fwd, err := app.ChannelDecl("fwd", 4)
	if err != nil {
		t.Fatal(err)
	}
	back, err := app.ChannelDecl("back", 4)
	if err != nil {
		t.Fatal(err)
	}
	producer, _ := app.TaskDecl(TData{Name: "producer", Period: ms(10)})
	consumer, _ := app.TaskDecl(TData{Name: "consumer"})

	var states []int
	app.VersionDecl(producer, func(x *ExecCtx, _ any) error {
		// Consume the previous iteration's state (the first iteration
		// consumes the seeded delay token; its channel is empty, so the
		// seed value is a default).
		state := 0
		if n, err := x.ChannelLen(back); err == nil && n > 0 {
			v, err := x.Pop(back)
			if err != nil {
				return err
			}
			state = v.(int)
		}
		states = append(states, state)
		if err := x.Compute(ms(1)); err != nil {
			return err
		}
		return x.Push(fwd, state+1)
	}, nil, VSelect{})
	app.VersionDecl(consumer, func(x *ExecCtx, _ any) error {
		v, err := x.Pop(fwd)
		if err != nil {
			return err
		}
		if err := x.Compute(ms(1)); err != nil {
			return err
		}
		return x.Push(back, v.(int)+1)
	}, nil, VSelect{})

	if err := app.ChannelConnect(producer, consumer, fwd); err != nil {
		t.Fatal(err)
	}
	// Plain back edge would be a cycle...
	if err := app.ChannelConnect(consumer, producer, back); err != nil {
		t.Fatal(err)
	}
	r.env.Spawn("probe", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := app.Start(c); err == nil {
			t.Error("un-delayed cycle must be rejected at Start")
			app.Stop(c)
			app.Cleanup(c)
		}
	})
	if err := r.eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}

	// ...with a delay token it is legal and live.
	r2 := newRig(t, Config{Workers: 2, Priority: PriorityEDF}, nil)
	app = r2.app
	fwd, _ = app.ChannelDecl("fwd", 4)
	back, _ = app.ChannelDecl("back", 4)
	producer, _ = app.TaskDecl(TData{Name: "producer", Period: ms(10)})
	consumer, _ = app.TaskDecl(TData{Name: "consumer"})
	states = states[:0]
	app.VersionDecl(producer, func(x *ExecCtx, _ any) error {
		state := 0
		if n, err := x.ChannelLen(back); err == nil && n > 0 {
			v, err := x.Pop(back)
			if err != nil {
				return err
			}
			state = v.(int)
		}
		states = append(states, state)
		if err := x.Compute(ms(1)); err != nil {
			return err
		}
		return x.Push(fwd, state+1)
	}, nil, VSelect{})
	app.VersionDecl(consumer, func(x *ExecCtx, _ any) error {
		v, err := x.Pop(fwd)
		if err != nil {
			return err
		}
		if err := x.Compute(ms(1)); err != nil {
			return err
		}
		return x.Push(back, v.(int)+1)
	}, nil, VSelect{})
	if err := app.ChannelConnect(producer, consumer, fwd); err != nil {
		t.Fatal(err)
	}
	if err := app.ChannelConnectDelayed(consumer, producer, back, 1); err != nil {
		t.Fatal(err)
	}
	r2.runMain(t, ms(95), nil)

	if len(states) < 8 {
		t.Fatalf("only %d producer iterations", len(states))
	}
	// State accumulates +2 per loop iteration: 0, 2, 4, ...
	for i, s := range states {
		if s != 2*i {
			t.Fatalf("iteration %d saw state %d, want %d (feedback lost)", i, s, 2*i)
		}
	}
	if app.Overruns() != 0 {
		t.Errorf("overruns = %d: feedback tokens starved the producer", app.Overruns())
	}
}

func TestDelayTokenValidation(t *testing.T) {
	r := newRig(t, Config{Workers: 1, GraphInstanceCap: 4}, nil)
	ch, _ := r.app.ChannelDecl("c", 1)
	a, _ := r.app.TaskDecl(TData{Name: "a", Period: ms(10)})
	b, _ := r.app.TaskDecl(TData{Name: "b"})
	if err := r.app.ChannelConnectDelayed(a, b, ch, -1); err == nil {
		t.Error("want error for negative delay")
	}
	if err := r.app.ChannelConnectDelayed(a, b, ch, 4); err == nil {
		t.Error("want error for delay >= GraphInstanceCap")
	}
	if err := r.app.ChannelConnectDelayed(a, b, ch, 2); err != nil {
		t.Errorf("legal delay rejected: %v", err)
	}
}

// TestDelayedEdgeAllowsEarlyConsumer checks the non-cyclic use of delay
// tokens: a consumer with a 2-token edge fires twice before its producer
// ever completes.
func TestDelayedEdgeAllowsEarlyConsumer(t *testing.T) {
	r := newRig(t, Config{Workers: 2, Priority: PriorityEDF}, nil)
	app := r.app
	ch, _ := app.ChannelDecl("d", 4)
	slow, _ := app.TaskDecl(TData{Name: "slow", Period: ms(50)})
	sink, _ := app.TaskDecl(TData{Name: "sink"})
	app.VersionDecl(slow, spin(ms(30)), nil, VSelect{})
	var fires []time.Duration
	app.VersionDecl(sink, func(x *ExecCtx, _ any) error {
		fires = append(fires, x.Now())
		return x.Compute(ms(1))
	}, nil, VSelect{})
	if err := app.ChannelConnectDelayed(slow, sink, ch, 2); err != nil {
		t.Fatal(err)
	}
	r.runMain(t, ms(45), nil)
	// The two seeded tokens fire the sink before slow's first completion
	// (~30ms); they are consumed one per activation round.
	early := 0
	for _, at := range fires {
		if at < ms(30) {
			early++
		}
	}
	if early < 1 {
		t.Errorf("fires = %v, want at least one pre-producer firing from seeds", fires)
	}
}

// TestFeedbackRootDeadlineInherited: a data-activated consumer inherits its
// deadline from the periodic producer that feeds it, even when a delayed
// feedback edge leads back into that producer — the producer is still a
// root. A consumer that overruns the producer's period is then late and
// counted as a miss, as admission analyses it.
func TestFeedbackRootDeadlineInherited(t *testing.T) {
	r := newRig(t, Config{Workers: 1, Priority: PriorityEDF}, nil)
	app := r.app
	fwd, _ := app.ChannelDecl("fwd", 2)
	back, _ := app.ChannelDecl("back", 2)
	prod, _ := app.TaskDecl(TData{Name: "prod", Period: ms(10)})
	cons, _ := app.TaskDecl(TData{Name: "cons"})
	app.VersionDecl(prod, spin(ms(1)), nil, VSelect{})
	app.VersionDecl(cons, spin(ms(12)), nil, VSelect{})
	if err := app.ChannelConnect(prod, cons, fwd); err != nil {
		t.Fatal(err)
	}
	if err := app.ChannelConnectDelayed(cons, prod, back, 1); err != nil {
		t.Fatal(err)
	}
	r.runMain(t, ms(60), nil)
	if d := app.tasks[cons].effDeadline; d != ms(10) {
		t.Errorf("consumer deadline = %v, want the producer's period 10ms", d)
	}
	st := app.Recorder().Task("cons")
	if st == nil || st.Jobs < 2 {
		t.Fatalf("consumer stats = %+v, want at least 2 jobs", st)
	}
	if st.Misses != st.Jobs {
		t.Errorf("consumer missed %d of %d jobs; each runs 12ms against a 10ms inherited deadline", st.Misses, st.Jobs)
	}
}
