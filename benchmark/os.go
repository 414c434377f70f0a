package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// osWorkers is the worker count of every OS workload: with the driver and
// the scheduler thread mostly asleep, no more runnable threads than the two
// CPUs the benchmark is sized for.
const osWorkers = 2

// settle is how long an OS workload runs before it is measured. App.Start
// returns before the goroutines it spawned (one per fiber, MaxPendingJobs of
// them) have first run, and each allocates its context when it does; whether
// they had by the first snapshot made allocs_per_op bimodal (1.4 or 2.3 on
// os_periodic). Lazy set-up finishes unmeasured.
const settle = 20 * time.Millisecond

func noop(*core.ExecCtx, any) error { return nil }

// windowCutter cuts the drive phase of a wall-clock repetition into
// measuring windows, from the driver thread: start opens the first window,
// every cut closes one and opens the next. What is left open when the drive
// phase ends is not measured.
type windowCutter struct {
	t0      time.Time
	ops     func() int64 // ops completed so far
	lat     *hist        // the workload's latency samples
	latCut  histCut
	last    usage
	lastOps int64
	windows []window
}

func newWindowCutter(rc *runCtx, t0 time.Time, ops func() int64, lat *hist) *windowCutter {
	w := &windowCutter{t0: t0, ops: ops, lat: lat}
	if rc.window > 0 {
		w.windows = make([]window, 0, rc.size/rc.window+1)
	}
	return w
}

func (w *windowCutter) start() {
	w.lat.medianSince(&w.latCut)
	w.last, w.lastOps = snapshot(w.t0), w.ops()
}

func (w *windowCutter) cut() {
	now, ops := snapshot(w.t0), w.ops()
	lat, n := w.lat.medianSince(&w.latCut)
	// A window without a completed op or a latency sample (the host stalled
	// the process for all of it) measures nothing.
	if ops > w.lastOps && n > 0 {
		w.windows = append(w.windows, window{usage: now.sub(w.last), ops: ops - w.lastOps, lat: lat})
	}
	w.last, w.lastOps = now, ops
}

// overheadLayer reads the wall-clock overhead samples the program already
// takes (App.Overheads): mean scheduler-tick and dispatch-pass time.
func overheadLayer(app *core.App) map[string]float64 {
	m := map[string]float64{}
	if st := app.Overheads().Kind(trace.OverheadSchedule); st != nil {
		m["core.sched_tick_mean_us"] = float64(st.Mean()) / 1e3
		m["core.sched_ticks"] = float64(st.Count())
	}
	if st := app.Overheads().Kind(trace.OverheadDispatch); st != nil {
		m["core.dispatch_mean_us"] = float64(st.Mean()) / 1e3
	}
	return m
}

// periodicPeriodsMS is os_periodic's task set. The multiset is fixed so
// that the offered load (5.7k jobs/s) and the period mix are the same for
// every seed; the seed assigns the periods to task ids (EDF tie-breaks,
// home shards) and draws the release offsets.
var periodicPeriodsMS = [16]int{1, 1, 2, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7, 8, 9, 10}

// distinctPhases draws one release offset per period such that no two tasks
// ever release at the same instant: every period is a multiple of base, and
// each task gets its own residue modulo base (on a grid of base/20, so up
// to 20 tasks) plus a seeded number of whole bases below its period.
// Scheduler ticks per second then equal releases per second for every seed;
// with free offsets the number of coinciding releases, and with it the
// ticks, timer allocations and CPU per job, varied by 7% between seeds.
func distinctPhases(rng *rand.Rand, periods []time.Duration, base time.Duration) []time.Duration {
	grid := base / 20
	residues := rng.Perm(20)
	offsets := make([]time.Duration, len(periods))
	for i, p := range periods {
		offsets[i] = time.Duration(residues[i])*grid + time.Duration(rng.Int63n(int64(p/base)))*base
	}
	return offsets
}

// gridOffset draws a release offset below period on a 100µs grid (the bulk
// tasks of os_reconfig10k), which keeps the scheduler's activation grid —
// the GCD of periods and offsets — from collapsing to nanoseconds.
func gridOffset(rng *rand.Rand, period time.Duration) time.Duration {
	const grid = 100 * time.Microsecond
	return time.Duration(rng.Int63n(int64(period/grid))) * grid
}

// periodicRep is one repetition of os_periodic: 16 empty periodic tasks on
// the wall clock, global EDF, paced by the program's own scheduler thread
// for rc.size. The paper's Table-2 yardstick as a user sees it: timer wake,
// release, enqueue, worker wake, start.
func periodicRep(rc *runCtx) (*rep, error) {
	rng := rand.New(rand.NewSource(rc.seed))
	n := len(periodicPeriodsMS)
	col := newCollector(0, 0)
	if rc.tr != nil {
		col = newTracedCollector(0, 0, n, keepJobs)
	}
	setupSpan := rc.tr.open(seamSetup, -1, 0)
	env := rt.NewOSEnv()
	app, err := core.New(core.Config{
		Workers: osWorkers, Mapping: core.MappingGlobal, Priority: core.PriorityEDF,
		// Room for the burst of catch-up releases after the host stalls the
		// process (the default of 64 overflows after an 11ms stall, and a
		// dropped release is a failed operation).
		MaxTasks: n, MaxPendingJobs: 1024, Telemetry: col,
	}, env)
	if err != nil {
		return nil, err
	}
	periods := make([]time.Duration, n)
	for i, pi := range rng.Perm(n) {
		periods[i] = time.Duration(periodicPeriodsMS[pi]) * time.Millisecond
	}
	for i, offset := range distinctPhases(rng, periods, time.Millisecond) {
		tid, err := app.TaskDecl(core.TData{
			Name: fmt.Sprintf("p%d", i), Period: periods[i], ReleaseOffset: offset,
		})
		if err != nil {
			return nil, err
		}
		if _, err := app.VersionDecl(tid, noop, nil, core.VSelect{WCET: time.Microsecond}); err != nil {
			return nil, err
		}
	}
	var startErr error
	var setup time.Duration
	var s0, s1 usage
	var live uint64
	wc := newWindowCutter(rc, col.t0, col.sampled.Load, &col.dispatch)
	col.muted.Store(true)
	env.RunMain(func(c rt.Ctx) {
		if startErr = app.Start(c); startErr != nil {
			return
		}
		rc.tr.close(setupSpan)
		setup = time.Since(col.t0)
		if rc.size > 0 {
			c.Sleep(settle)
		}
		s0 = snapshot(col.t0)
		col.muted.Store(false)
		driveSpan := rc.tr.open(seamDrive, -1, 0)
		if rc.window > 0 {
			wc.start()
			for left := rc.size; left > 0; left -= rc.window {
				c.Sleep(rc.window)
				wc.cut()
			}
		} else {
			c.Sleep(rc.size)
		}
		col.muted.Store(true)
		s1 = snapshot(col.t0)
		rc.tr.close(driveSpan)
		if rc.window > 0 {
			live = heapLive()
		}
		app.Stop(c)
		app.Cleanup(c)
	})
	env.Wait()
	if startErr != nil {
		return nil, startErr
	}
	rc.tr.keep(col)
	jobs := col.jobs.Load()
	r := &rep{
		setup: setup, drive: s1.sub(s0),
		ops: col.sampled.Load(), jobs: col.sampled.Load(), missed: col.sampledMissed.Load(),
		attempted: jobs + app.Overruns(),
		failed:    app.TaskErrors() + app.Overruns(),
		lat:       &col.dispatch,
		windows:   wc.windows,
		heapLive:  live,
	}
	if rc.tr != nil {
		r.layer = overheadLayer(app)
		r.layer["core.response_p50_us"] = float64(col.response.quantile(0.5)) / 1e3
		_, tail := col.response.tail()
		r.layer["core.response_tail_us"] = float64(tail) / 1e3
	}
	return r, nil
}

// chainStages is the length of os_chain's DAG s0 -> s1 -> s2 -> s3.
const chainStages = 4

// chainRep is one repetition of os_chain: a closed loop with one client.
// The driver activates the head, the tail body unparks the driver, the
// driver activates the head again, for rc.size. No timer and no release
// wheel are involved: dispatch, idle-list wake, fiber handoff, completion,
// topic push/pop and Recorder.Record are all there is.
func chainRep(rc *runCtx) (*rep, error) {
	col := newCollector(0, 0)
	if rc.tr != nil {
		col = newTracedCollector(0, 0, chainStages, keepJobs)
	}
	tr := rc.tr
	setupSpan := tr.open(seamSetup, -1, 0)
	env := rt.NewOSEnv()
	app, err := core.New(core.Config{
		Workers: osWorkers, Mapping: core.MappingGlobal, Priority: core.PriorityEDF,
		MaxTasks: chainStages, MaxChannels: chainStages, Telemetry: col,
	}, env)
	if err != nil {
		return nil, err
	}
	var tids [chainStages]core.TID
	var cids [chainStages - 1]core.CID
	for i := range tids {
		// Aperiodic: the head is released by TaskActivate, the others by
		// data. The 1ms deadline of the head is the graph's.
		d := core.TData{Name: fmt.Sprintf("s%d", i)}
		if i == 0 {
			d.Deadline = time.Millisecond
		}
		if tids[i], err = app.TaskDecl(d); err != nil {
			return nil, err
		}
	}
	for i := range cids {
		if cids[i], err = app.ChannelDecl(fmt.Sprintf("c%d", i), 4); err != nil {
			return nil, err
		}
		if err = app.ChannelConnect(tids[i], tids[i+1], cids[i]); err != nil {
			return nil, err
		}
	}
	var driver rt.Thread // set before App.Start
	var act atomic.Int64 // activation id, for the spans of the bodies
	for i := range tids {
		var in, out core.CID = -1, -1
		if i > 0 {
			in = cids[i-1]
		}
		if i < len(cids) {
			out = cids[i]
		}
		tail := i == chainStages-1
		body := func(x *core.ExecCtx, _ any) error {
			var v any = int64(0)
			if in >= 0 {
				t0 := tr.now()
				got, err := x.Pop(in)
				if err != nil {
					return err
				}
				tr.record(seamPop, -1, act.Load(), t0, tr.now())
				v = got
			}
			if out >= 0 {
				t0 := tr.now()
				if err := x.Push(out, v); err != nil {
					return err
				}
				tr.record(seamPush, -1, act.Load(), t0, tr.now())
			}
			if tail {
				driver.Unpark()
			}
			return nil
		}
		if _, err := app.VersionDecl(tids[i], body, nil, core.VSelect{WCET: time.Microsecond}); err != nil {
			return nil, err
		}
	}

	var startErr error
	var setup time.Duration
	var s0, s1 usage
	var activations, refused int64
	var live uint64
	resp := &hist{}
	wc := newWindowCutter(rc, col.t0, col.sampled.Load, resp)
	col.muted.Store(true)
	env.RunMain(func(c rt.Ctx) {
		driver = c.Self()
		if startErr = app.Start(c); startErr != nil {
			return
		}
		tr.close(setupSpan)
		setup = time.Since(col.t0)
		driveSpan := int32(-1)
		// One closed loop, of which the first `settle` is not measured.
		warm := settle
		if rc.size == 0 {
			warm = 0
		}
		measuring := false
		var cutAt time.Duration
		for begin, now := c.Now(), c.Now(); now-begin < warm+rc.size; now = c.Now() {
			if !measuring && now-begin >= warm {
				measuring = true
				s0 = snapshot(col.t0)
				col.muted.Store(false)
				driveSpan = tr.open(seamDrive, -1, 0)
				wc.start()
				cutAt = now + rc.window
			}
			if measuring && now >= cutAt {
				wc.cut()
				cutAt = now + rc.window
			}
			id := act.Add(1)
			t0 := time.Now()
			err := app.TaskActivate(c, tids[0])
			t1 := time.Now()
			if err != nil {
				refused++
				continue
			}
			c.Park()
			t2 := time.Now()
			activations++
			if measuring {
				resp.add(int64(t2.Sub(t0)))
				parent := tr.record(seamResponse, driveSpan, id, tr.at(t0), tr.at(t2))
				tr.record(seamActivate, parent, id, tr.at(t0), tr.at(t1))
			}
		}
		col.muted.Store(true)
		s1 = snapshot(col.t0)
		tr.close(driveSpan)
		if rc.window > 0 {
			live = heapLive()
		}
		app.Stop(c)
		app.Cleanup(c)
	})
	env.Wait()
	if startErr != nil {
		return nil, startErr
	}
	tr.keep(col)
	jobs := col.jobs.Load()
	r := &rep{
		setup: setup, drive: s1.sub(s0),
		ops: col.sampled.Load(), jobs: col.sampled.Load(), missed: col.sampledMissed.Load(),
		attempted: activations + refused,
		failed:    refused + app.TaskErrors() + app.Overruns(),
		lat:       resp,
		windows:   wc.windows,
		heapLive:  live,
	}
	// The program records one end-to-end graph record per completion of
	// the sink s3: tail completions == activations, and every stage ran
	// exactly once per activation.
	if tails := col.graphs.Load(); tails != activations {
		r.violations = append(r.violations, fmt.Sprintf("%d activations but %d tail completions", activations, tails))
	}
	if jobs != chainStages*activations {
		r.violations = append(r.violations, fmt.Sprintf("%d activations completed %d jobs, want %d", activations, jobs, chainStages*activations))
	}
	if n := app.TaskErrors(); n != 0 {
		r.violations = append(r.violations, fmt.Sprintf("%d task errors (first: %v)", n, app.FirstError()))
	}
	if tr != nil {
		r.layer = overheadLayer(app)
		var hop, exec hist
		for i := 1; i < chainStages; i++ { // the data-activated hops
			hop.merge(&col.perTask[i].dispatch)
			exec.merge(&col.perTask[i].exec)
		}
		r.layer["core.hop_dispatch_p50_us"] = float64(hop.quantile(0.5)) / 1e3
		r.layer["core.hop_exec_p50_us"] = float64(exec.quantile(0.5)) / 1e3
	}
	return r, nil
}

const (
	reconfigBulk = 10000
	reconfigFG   = 16
	reconfigRate = 40 // transactions per second, open loop
	reconfigDyn  = 4  // tasks added, removed and retuned per transaction
)

// fgPeriodsUS is the foreground task set of os_reconfig10k: 16 tasks at
// 2-9 ms (multiples of 500µs), the only ones whose jobs are sampled. Fixed
// multiset, seeded distinct phases, as in os_periodic.
var fgPeriodsUS = [reconfigFG]int{2000, 2500, 3000, 3500, 4000, 4500, 5000, 5500, 6000, 6500, 7000, 7500, 8000, 8500, 9000, 9000}

// bulkPeriod draws a bulk task period in [200ms, 1s) on a 1ms grid.
func bulkPeriod(rng *rand.Rand) time.Duration {
	return time.Duration(200+rng.Intn(800)) * time.Millisecond
}

// reconfigApp declares os_reconfig10k's task set (foreground first, so
// that TaskID < reconfigFG identifies it) on a fresh OSEnv app.
func reconfigApp(rng *rand.Rand, bulk int, tel trace.Stream) (*core.App, *rt.OSEnv, []core.TData, error) {
	env := rt.NewOSEnv()
	app, err := core.New(core.Config{
		Workers: osWorkers, Mapping: core.MappingGlobal, Priority: core.PriorityEDF,
		// Headroom: 4 live dyn tasks plus the generations still draining;
		// and room for the releases that pile up (21k jobs/s) while the host
		// stalls the process: 2048 overflowed after a 90ms stall, and a
		// dropped release is a failed operation.
		MaxTasks: reconfigFG + bulk + 16*reconfigDyn, MaxPendingJobs: 8192, Telemetry: tel,
	}, env)
	if err != nil {
		return nil, nil, nil, err
	}
	decl := func(d core.TData) error {
		tid, err := app.TaskDecl(d)
		if err != nil {
			return err
		}
		_, err = app.VersionDecl(tid, noop, nil, core.VSelect{WCET: time.Microsecond})
		return err
	}
	fg := make([]time.Duration, reconfigFG)
	for i, us := range fgPeriodsUS {
		fg[i] = time.Duration(us) * time.Microsecond
	}
	for i, offset := range distinctPhases(rng, fg, 500*time.Microsecond) {
		if err := decl(core.TData{Name: fmt.Sprintf("fg-%d", i), Period: fg[i], ReleaseOffset: offset}); err != nil {
			return nil, nil, nil, err
		}
	}
	bulkData := make([]core.TData, bulk)
	for i := range bulkData {
		period := bulkPeriod(rng)
		bulkData[i] = core.TData{Name: fmt.Sprintf("bulk-%d", i), Period: period, ReleaseOffset: gridOffset(rng, period)}
		if err := decl(bulkData[i]); err != nil {
			return nil, nil, nil, err
		}
	}
	return app, env, bulkData, nil
}

// reconfigTx is the staging closure of transaction k: remove the previous
// transaction's dyn tasks by name, add four, retune four random bulk tasks
// by name. With last set it only removes (the final clean-up transaction).
func reconfigTx(k int, rng *rand.Rand, bulk []core.TData, last bool) func(tx *core.Reconfig) error {
	return func(tx *core.Reconfig) error {
		if k > 0 {
			for i := 0; i < reconfigDyn; i++ {
				if err := tx.RemoveTaskByName(fmt.Sprintf("dyn-%d-%d", k-1, i)); err != nil {
					return err
				}
			}
		}
		if last {
			return nil
		}
		for i := 0; i < reconfigDyn; i++ {
			id, err := tx.AddTask(core.TData{Name: fmt.Sprintf("dyn-%d-%d", k, i), Period: 20 * time.Millisecond})
			if err != nil {
				return err
			}
			if _, err := tx.AddVersion(id, noop, nil, core.VSelect{WCET: time.Microsecond}); err != nil {
				return err
			}
		}
		for i := 0; i < reconfigDyn; i++ {
			d := &bulk[rng.Intn(len(bulk))]
			id := tx.TaskID(d.Name)
			if id < 0 {
				return fmt.Errorf("bulk task %s not found", d.Name)
			}
			d.Period = bulkPeriod(rng)
			if d.ReleaseOffset >= d.Period {
				d.ReleaseOffset = 0
			}
			if err := tx.Retune(id, *d); err != nil {
				return err
			}
		}
		return nil
	}
}

// reconfigRep is one repetition of os_reconfig10k: 10,000 live bulk tasks
// plus 16 foreground tasks on the wall clock, and an open loop of 40
// transactions per second against them. Each transaction is timed from the
// instant it was due, so a stalled call delays — and is charged for — the
// ones behind it (reconfig.call_p50_us). The first quarter of rc.size is
// warm-up and not sampled. The workload's end-to-end latency is what the
// transactions do to everybody else: Start - Release of the foreground jobs.
// The call time is a per-layer metric, because it is ten thousand tasks' worth
// of memory traffic and follows the host's speed: consecutive runs of one
// binary wandered by +-10% within minutes and spread by 9-16% whichever way
// they were folded.
//
// Transaction k is due at a seeded uniform instant inside the k-th 25ms
// slot: exactly 40 per second over any window, but at no fixed phase. A
// fixed 25ms grid phase-locks with the garbage collector, which cycles every
// ~72ms here, almost exactly three grid steps: depending on the run's
// allocation volume every third transaction met a GC cycle head-on (p90
// 22ms) or none did (p90 12ms).
func reconfigRep(rc *runCtx) (*rep, error) {
	rng := rand.New(rand.NewSource(rc.seed))
	tr := rc.tr
	col := newCollector(reconfigFG, 0)
	if tr != nil {
		col = newTracedCollector(reconfigFG, 0, 0, keepJobs)
	}
	setupSpan := tr.open(seamSetup, -1, 0)
	declSpan := tr.open(seamSpecBuild, setupSpan, 0)
	app, env, bulk, err := reconfigApp(rng, reconfigBulk, col)
	if err != nil {
		return nil, err
	}
	tr.close(declSpan)

	const interval = time.Second / reconfigRate
	warm := rc.size / 4
	var startErr error
	var setup time.Duration
	var s0, s1 usage
	var txs, txFailed int64
	var busy time.Duration
	var live uint64
	call, late := &hist{}, &hist{}
	wc := newWindowCutter(rc, col.t0, func() int64 { return txs }, &col.dispatch)
	txPerWindow := int(rc.window / interval)
	var firstTxErr error
	k := 0 // transactions attempted so far
	col.muted.Store(true)
	env.RunMain(func(c rt.Ctx) {
		if startErr = app.Start(c); startErr != nil {
			return
		}
		tr.close(setupSpan)
		setup = time.Since(col.t0)
		t0 := c.Now()
		driveSpan := int32(-1)
		commit := func(last bool) {
			due := t0 + time.Duration(k)*interval + time.Duration(rng.Int63n(int64(interval)))
			if !last {
				c.SleepUntil(due)
			}
			sent := c.Now()
			fn := reconfigTx(k, rng, bulk, last)
			var err error
			if tr == nil {
				err = app.Reconfigure(c, fn)
			} else {
				// Reconfigure's own body, split so that staging, admission
				// and commit are separate spans.
				var stage0, stage1 int64
				p0 := tr.now()
				var p *core.PreparedReconfig
				p, err = app.PrepareReconfigure(c, func(tx *core.Reconfig) error {
					stage0 = tr.now()
					defer func() { stage1 = tr.now() }()
					return fn(tx)
				})
				p1 := tr.now()
				parent := tr.record(seamPrepare, driveSpan, int64(k), p0, p1)
				tr.record(seamStage, parent, int64(k), stage0, stage1)
				tr.record(seamAdmit, parent, int64(k), stage1, p1)
				if err == nil {
					p.Commit(c)
					tr.record(seamCommit, driveSpan, int64(k), p1, tr.now())
				}
			}
			done := c.Now()
			if err != nil {
				txFailed++
				if firstTxErr == nil {
					firstTxErr = err
				}
			}
			if sent-t0 >= warm && !last {
				txs++
				call.add(int64(done - due))
				late.add(int64(sent - due))
				busy += done - sent
			}
			k++
		}
		// The drive phase and every measuring window begin on a slot
		// boundary, so that a window is txPerWindow slots long whatever
		// instants inside them the seed drew.
		first := -1 // the first measured slot
		for ; time.Duration(k)*interval < rc.size; commit(false) {
			slot := time.Duration(k) * interval
			switch {
			case first < 0 && slot >= warm:
				first = k
				c.SleepUntil(t0 + slot)
				s0 = snapshot(col.t0)
				col.muted.Store(false)
				driveSpan = tr.open(seamDrive, -1, 0)
				wc.start()
			case first >= 0 && txPerWindow > 0 && (k-first)%txPerWindow == 0:
				c.SleepUntil(t0 + slot)
				wc.cut()
			}
		}
		if first >= 0 && txPerWindow > 0 && (k-first)%txPerWindow == 0 {
			c.SleepUntil(t0 + time.Duration(k)*interval)
			wc.cut()
		}
		s1 = snapshot(col.t0)
		tr.close(driveSpan)
		if rc.window > 0 {
			live = heapLive()
		}
		commit(true)
		app.Stop(c)
		app.Cleanup(c)
	})
	env.Wait()
	if startErr != nil {
		return nil, startErr
	}
	tr.keep(col)
	r := &rep{
		setup: setup, drive: s1.sub(s0),
		ops:  txs,
		jobs: col.sampled.Load(), missed: col.sampledMissed.Load(),
		attempted: int64(k), failed: txFailed + app.TaskErrors() + app.Overruns(),
		lat:     &col.dispatch,
		windows: wc.windows, heapLive: live,
	}
	if firstTxErr != nil {
		r.violations = append(r.violations, fmt.Sprintf("%d transactions failed, first: %v", txFailed, firstTxErr))
	}
	// All k transactions (clean-up included) committed: k epochs, k records
	// on the stream, and every dyn generation but none of the bulk retired.
	if e, recs := app.Epoch(), col.reconfigs.Load(); e != k || recs != int64(k) {
		r.violations = append(r.violations, fmt.Sprintf("%d transactions but epoch %d and %d reconfiguration records", k, e, recs))
	}
	if got, want := col.retires.Load(), int64(reconfigDyn*(k-1)); got != want {
		r.violations = append(r.violations, fmt.Sprintf("%d tasks retired, want %d (the live set must return to %d tasks)", got, want, reconfigFG+reconfigBulk))
	}
	for i := 0; i < reconfigDyn; i++ {
		if name := fmt.Sprintf("dyn-%d-%d", k-2, i); app.TaskIDByName(name) >= 0 {
			r.violations = append(r.violations, fmt.Sprintf("task %s still live after the clean-up transaction", name))
		}
	}
	if tr != nil {
		r.layer = overheadLayer(app)
		r.layer["reconfig.call_p50_us"] = float64(call.quantile(0.5)) / 1e3
		r.layer["core.fg_dispatch_p99_us"] = float64(col.dispatch.quantile(0.99)) / 1e3
		r.layer["reconfig.pause_p50_us"] = float64(col.pause.quantile(0.5)) / 1e3
		r.layer["reconfig.pause_max_us"] = float64(col.pauseMax.Load()) / 1e3
		r.layer["reconfig.busy_share"] = busy.Seconds() / r.drive.wall.Seconds()
		r.layer["reconfig.gen_lateness_p90_us"] = float64(late.quantile(0.9)) / 1e3
	}
	return r, nil
}
