package rt

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/sim"
)

func newSim(t *testing.T) (*sim.Engine, *SimEnv) {
	t.Helper()
	eng := sim.NewEngine(1)
	env, err := NewSimEnv(eng, platform.OdroidXU4(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, env
}

func TestSimEnvComputeScalesWithCoreSpeed(t *testing.T) {
	eng, env := newSim(t)
	var bigDone, littleDone time.Duration
	env.Spawn("big", 4, func(c Ctx) { // core 4 = big, speed 1.0
		c.Compute(10 * time.Millisecond)
		bigDone = c.Now()
	})
	env.Spawn("little", 0, func(c Ctx) { // core 0 = LITTLE, speed 0.45
		c.Compute(10 * time.Millisecond)
		littleDone = c.Now()
	})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if bigDone != 10*time.Millisecond {
		t.Errorf("big finished at %v, want 10ms", bigDone)
	}
	nominal := 10 * time.Millisecond
	want := time.Duration(float64(nominal) / 0.45)
	diff := littleDone - want
	if diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("little finished at %v, want ~%v", littleDone, want)
	}
}

func TestSimEnvInterruptReturnsNominalRemaining(t *testing.T) {
	eng, env := newSim(t)
	var rem time.Duration
	var intr bool
	victim := env.Spawn("victim", 0, func(c Ctx) { // LITTLE core, speed 0.45
		rem, intr = c.Compute(9 * time.Millisecond)
	})
	env.Spawn("sig", 4, func(c Ctx) {
		c.Sleep(10 * time.Millisecond) // victim is half done (20ms to finish)
		victim.Interrupt()
	})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !intr {
		t.Fatal("not interrupted")
	}
	// 10ms wall on a 0.45-speed core = 4.5ms nominal consumed; 4.5ms left.
	want := 4500 * time.Microsecond
	diff := rem - want
	if diff < -10*time.Microsecond || diff > 10*time.Microsecond {
		t.Errorf("remaining = %v, want ~%v", rem, want)
	}
}

func TestSimEnvWakeLatencyCharged(t *testing.T) {
	eng := sim.NewEngine(1)
	env, err := NewSimEnv(eng, platform.Generic(2), func(reason WakeReason, core int) time.Duration {
		if reason == WakeTimer {
			return 100 * time.Microsecond
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	var woke time.Duration
	env.Spawn("t", 0, func(c Ctx) {
		c.Sleep(time.Millisecond)
		woke = c.Now()
	})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if woke != time.Millisecond+100*time.Microsecond {
		t.Errorf("woke at %v, want 1.1ms", woke)
	}
}

func TestSimEnvParkUnpark(t *testing.T) {
	eng, env := newSim(t)
	var order []string
	var worker Thread
	worker = env.Spawn("worker", 4, func(c Ctx) {
		if c.Park() {
			t.Error("unexpected interrupt")
		}
		order = append(order, "worker")
	})
	env.Spawn("boss", 5, func(c Ctx) {
		c.Sleep(time.Millisecond)
		order = append(order, "boss")
		worker.Unpark()
	})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "boss" || order[1] != "worker" {
		t.Errorf("order = %v", order)
	}
}

func TestSimEnvLocksProvideMutualExclusion(t *testing.T) {
	for _, kind := range []LockKind{LockOS, LockSpin} {
		t.Run(kind.String(), func(t *testing.T) {
			eng, env := newSim(t)
			lock := env.NewLock(kind)
			var inside, maxInside int
			for i := 0; i < 4; i++ {
				env.Spawn("t", 4+i%4, func(c Ctx) {
					for j := 0; j < 5; j++ {
						lock.Lock(c)
						inside++
						if inside > maxInside {
							maxInside = inside
						}
						c.Compute(100 * time.Microsecond)
						inside--
						lock.Unlock(c)
						c.Sleep(50 * time.Microsecond)
					}
				})
			}
			if err := eng.RunUntilIdle(); err != nil {
				t.Fatal(err)
			}
			if maxInside != 1 {
				t.Errorf("max threads in critical section = %d, want 1", maxInside)
			}
		})
	}
}

func TestSimEnvDeterministicAcrossRuns(t *testing.T) {
	run := func() time.Duration {
		eng := sim.NewEngine(7)
		env, err := NewSimEnv(eng, platform.OdroidXU4(), nil)
		if err != nil {
			t.Fatal(err)
		}
		lock := env.NewLock(LockSpin)
		var last time.Duration
		for i := 0; i < 3; i++ {
			env.Spawn("w", 4+i, func(c Ctx) {
				for j := 0; j < 10; j++ {
					lock.Lock(c)
					c.Compute(time.Duration(1+j%3) * 100 * time.Microsecond)
					lock.Unlock(c)
					c.Sleep(10 * time.Microsecond)
					last = c.Now()
				}
			})
		}
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestOSEnvBasicLifecycle(t *testing.T) {
	env := NewOSEnv()
	env.Spin = false // don't burn CPU in tests
	var ran atomic.Bool
	th := env.Spawn("t", UnpinnedCore, func(c Ctx) {
		c.Sleep(time.Millisecond)
		ran.Store(true)
	})
	env.Wait()
	if !ran.Load() || !th.Done() {
		t.Error("thread did not complete")
	}
}

func TestOSEnvParkUnparkInterrupt(t *testing.T) {
	env := NewOSEnv()
	env.Spin = false
	results := make(chan bool, 2)
	a := env.Spawn("a", UnpinnedCore, func(c Ctx) {
		results <- c.Park() // expect unpark: false
	})
	b := env.Spawn("b", UnpinnedCore, func(c Ctx) {
		results <- c.Park() // expect interrupt: true
	})
	time.Sleep(10 * time.Millisecond)
	a.Unpark()
	b.Interrupt()
	env.Wait()
	got := []bool{<-results, <-results}
	if !(got[0] != got[1]) {
		t.Errorf("park results = %v, want one false (unpark) and one true (interrupt)", got)
	}
}

func TestOSEnvComputeInterrupted(t *testing.T) {
	env := NewOSEnv()
	env.Spin = false
	var rem time.Duration
	var intr bool
	done := make(chan struct{})
	th := env.Spawn("t", UnpinnedCore, func(c Ctx) {
		rem, intr = c.Compute(500 * time.Millisecond)
		close(done)
	})
	time.Sleep(20 * time.Millisecond)
	th.Interrupt()
	<-done
	env.Wait()
	if !intr {
		t.Fatal("compute not interrupted")
	}
	if rem <= 0 || rem >= 500*time.Millisecond {
		t.Errorf("remaining = %v, want in (0, 500ms)", rem)
	}
}

func TestOSEnvSleepInterrupted(t *testing.T) {
	env := NewOSEnv()
	env.Spin = false
	intrCh := make(chan bool, 1)
	th := env.Spawn("t", UnpinnedCore, func(c Ctx) {
		intrCh <- c.Sleep(time.Second)
	})
	time.Sleep(5 * time.Millisecond)
	th.Interrupt()
	if !<-intrCh {
		t.Error("sleep not interrupted")
	}
	env.Wait()
}

// A sleeping Compute (Spin off) sleeps through Sleep, so an interrupt ends
// it at once instead of after the current slice's timer has run out.
func TestOSEnvComputeSleepingSeesInterruptAtOnce(t *testing.T) {
	env := NewOSEnv()
	env.Spin = false
	var rem time.Duration
	var intr bool
	returned := make(chan time.Time, 1)
	th := env.Spawn("t", UnpinnedCore, func(c Ctx) {
		rem, intr = c.Compute(50 * time.Millisecond)
		returned <- time.Now()
	})
	time.Sleep(5 * time.Millisecond)
	sent := time.Now()
	th.Interrupt()
	late := (<-returned).Sub(sent)
	env.Wait()
	if !intr {
		t.Fatal("compute not interrupted")
	}
	if rem <= 0 || rem >= 50*time.Millisecond {
		t.Errorf("remaining = %v, want in (0, 50ms)", rem)
	}
	if late > time.Millisecond {
		t.Errorf("compute returned %v after the interrupt, want within 1ms", late)
	}
}

// Sleep re-arms one timer per thread: it allocates nothing once the thread
// has slept, and an interrupted sleep leaves no stale tick that would cut
// the next one short.
func TestOSEnvSleepReusesTimer(t *testing.T) {
	env := NewOSEnv()
	env.Spin = false
	env.RunMain(func(c Ctx) {
		c.Sleep(time.Microsecond)
		if avg := testing.AllocsPerRun(50, func() { c.Sleep(10 * time.Microsecond) }); avg != 0 {
			t.Errorf("Sleep allocates %.1f objects per call, want 0", avg)
		}
		for i := 0; i < 5; i++ {
			c.Self().Interrupt()
			for !c.Sleep(time.Microsecond) { // interrupt and expiry race
			}
			t0 := c.Now()
			if c.Sleep(2 * time.Millisecond) {
				t.Fatal("spurious interrupt")
			}
			if got := c.Now() - t0; got < 2*time.Millisecond {
				t.Fatalf("re-armed 2ms sleep returned after %v", got)
			}
		}
	})
}

func TestOSEnvUnparkTokenBuffered(t *testing.T) {
	env := NewOSEnv()
	env.Spin = false
	th := env.Spawn("t", UnpinnedCore, func(c Ctx) {
		c.Sleep(10 * time.Millisecond) // unpark arrives while sleeping? no: buffered for Park
		if c.Park() {
			t.Error("interrupted")
		}
	})
	th.Unpark() // before park: token must be buffered
	env.Wait()
}

func TestOSEnvRunMain(t *testing.T) {
	env := NewOSEnv()
	env.Spin = false
	ran := false
	env.RunMain(func(c Ctx) {
		c.Yield()
		ran = true
	})
	if !ran {
		t.Error("main did not run")
	}
}

func TestOSEnvLocks(t *testing.T) {
	env := NewOSEnv()
	for _, kind := range []LockKind{LockOS, LockSpin} {
		lock := env.NewLock(kind)
		counter := 0
		done := make(chan struct{}, 4)
		for i := 0; i < 4; i++ {
			env.Spawn("w", UnpinnedCore, func(c Ctx) {
				for j := 0; j < 1000; j++ {
					lock.Lock(c)
					counter++
					lock.Unlock(c)
				}
				done <- struct{}{}
			})
		}
		for i := 0; i < 4; i++ {
			<-done
		}
		if counter != 4000 {
			t.Errorf("%v: counter = %d, want 4000", kind, counter)
		}
	}
	env.Wait()
}

func TestLockKindString(t *testing.T) {
	if LockOS.String() != "os" || LockSpin.String() != "spin" || LockKind(0).String() != "unknown" {
		t.Error("LockKind strings wrong")
	}
}

func TestNewSimEnvValidation(t *testing.T) {
	if _, err := NewSimEnv(nil, platform.Generic(1), nil); err == nil {
		t.Error("want error for nil engine")
	}
	if _, err := NewSimEnv(sim.NewEngine(1), nil, nil); err == nil {
		t.Error("want error for nil platform")
	}
	bad := platform.Generic(1)
	bad.Cores[0].Speed = -1
	if _, err := NewSimEnv(sim.NewEngine(1), bad, nil); err == nil {
		t.Error("want error for invalid platform")
	}
}
