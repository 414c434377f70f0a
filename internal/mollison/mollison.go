// Package mollison reimplements the userspace G-EDF scheduling library of
// Mollison & Anderson ("Bringing theory into practice: A userspace library
// for multicore real-time scheduling", RTAS 2013) — the baseline of the
// paper's Fig. 2 overhead comparison.
//
// Structural differences from YASMIN, all of which show up in the measured
// overhead:
//
//   - No dedicated scheduler thread: every worker self-schedules, so all
//     scheduling work happens inside the workers' ready-queue critical
//     sections.
//   - One global ready queue + release queue guarded by a test-and-set
//     spinlock: contention grows with both worker count and task count.
//   - Job migration is allowed (any worker runs any ready job).
//   - Dynamic allocation on the scheduling path (the paper criticises
//     this): each release pays a malloc with jittery cost.
//
// The implementation runs on the same deterministic simulation substrate as
// YASMIN, with the same platform cost model, so Fig. 2 compares structures,
// not constants.
package mollison

import (
	"fmt"
	"time"

	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/sim"
	"github.com/yasmin-rt/yasmin/internal/taskset"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// Config parameterises a library instance.
type Config struct {
	// Workers is the number of worker threads; each is pinned to a core.
	Workers int
	// WorkerCores pins workers to platform cores (defaults to 0..Workers-1).
	WorkerCores []int
	// Horizon is the simulated run length.
	Horizon time.Duration
}

// Result carries the measurements of one run.
type Result struct {
	Overheads *trace.Overheads
	Recorder  *trace.Recorder
	// LockSpins counts failed test-and-set probes on the global lock.
	LockSpins uint64
}

// releaseEntry is a future job release (the library's release queue).
type releaseEntry struct {
	task    int
	release time.Duration
}

// readyJob is a released job ordered by absolute deadline (EDF).
type readyJob struct {
	task    int
	release time.Duration
	absDL   time.Duration
	seq     int64
}

// state is the shared scheduling state guarded by the global TAS lock.
type state struct {
	lock     sim.SpinMutex
	ready    []readyJob // deadline-ordered heap
	releases []releaseEntry
	seq      int64
	set      *taskset.Set
	ovh      *trace.Overheads
	rec      *trace.Recorder
	costs    *platform.CostModel
	stop     bool
}

// Run executes the task set under the library for the configured horizon
// and returns the overhead measurements.
func Run(seed int64, pl *platform.Platform, set *taskset.Set, cfg Config) (*Result, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("mollison: need at least one worker")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("mollison: need a positive horizon")
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("mollison: %w", err)
	}
	cores := cfg.WorkerCores
	if cores == nil {
		cores = make([]int, cfg.Workers)
		for i := range cores {
			cores[i] = i
		}
	}
	if len(cores) != cfg.Workers {
		return nil, fmt.Errorf("mollison: %d cores for %d workers", len(cores), cfg.Workers)
	}

	eng := sim.NewEngine(seed)
	st := &state{
		ovh:   trace.NewOverheads(),
		rec:   trace.NewRecorder(false),
		set:   set,
		costs: &pl.Costs,
	}
	st.rec.Reserve(len(set.Tasks), 1)
	st.lock.RetryCost = pl.Costs.SpinRetry
	st.lock.AcquireCost = pl.Costs.LockUncontended
	// Pre-fill the release queue with each task's first job.
	for i := range set.Tasks {
		st.releases = append(st.releases, releaseEntry{task: i, release: set.Tasks[i].Offset})
	}
	eng.At(sim.Time(cfg.Horizon), func() { st.stop = true })

	for w := 0; w < cfg.Workers; w++ {
		coreID := cores[w]
		speed := 1.0
		if c, err := pl.Core(coreID); err == nil {
			speed = c.Speed
		}
		eng.Spawn(fmt.Sprintf("ma-worker-%d", w), func(p *sim.Proc) {
			st.workerLoop(p, coreID, speed)
		})
	}
	if err := eng.Run(sim.Time(cfg.Horizon + 10*time.Second)); err != nil {
		return nil, err
	}
	spins, _ := st.lock.Stats()
	return &Result{Overheads: st.ovh, Recorder: st.rec, LockSpins: spins}, nil
}

// workerLoop self-schedules: lock, process due releases, pop the earliest
// deadline job, unlock, execute; when idle, sleep until the next release.
// Every pass through the critical section is one overhead sample — the
// quantity Fig. 2 plots.
func (st *state) workerLoop(p *sim.Proc, coreID int, speed float64) {
	for {
		if st.stop {
			return
		}
		t0 := p.Now()
		spun := st.lock.Lock(p)
		if spun > 0 {
			st.ovh.Add(trace.OverheadLock, spun)
		}
		p.Charge(st.costs.ClockRead)
		now := p.Now().Duration()
		next := st.processReleases(p, now)
		j, ok := st.popReady(p)
		st.lock.Unlock(p)
		st.ovh.Add(trace.OverheadSchedule, p.Now().Sub(t0))

		if st.stop {
			return
		}
		if !ok {
			// Idle: arm a timer for the next release (each worker manages
			// its own timer — there is no scheduler thread to do it).
			p.Charge(st.costs.TimerProgram)
			if next <= now {
				next = now + time.Millisecond
			}
			if intr, _ := p.SleepUntil(sim.Time(next)); intr {
				return
			}
			continue
		}
		// Execute the job to completion (migration is allowed: any worker
		// may pick up any job; YASMIN forbids this).
		tk := &st.set.Tasks[j.task]
		p.Charge(st.costs.ContextSwitch)
		wall := time.Duration(float64(tk.WCET) / speed)
		p.Compute(wall)
		fin := p.Now().Duration()
		st.rec.Record(trace.JobRecord{
			Task:     tk.Name,
			TaskID:   j.task,
			Core:     coreID,
			Release:  j.release,
			Start:    fin - wall,
			Finish:   fin,
			Deadline: j.absDL,
			Missed:   fin > j.absDL,
		})
	}
}

// processReleases moves due releases into the ready heap, paying malloc and
// queue costs per job, and returns the next future release instant.
// Caller holds the lock — and that is the structural difference to YASMIN:
// every worker pays the O(n) release scan inside the global critical
// section on every scheduling pass, whereas YASMIN's scheduler core pays it
// once per tick.
func (st *state) processReleases(p *sim.Proc, now time.Duration) (next time.Duration) {
	p.Charge(time.Duration(len(st.releases)) * st.costs.QueueOpPerItem)
	next = now + time.Hour
	for i := range st.releases {
		re := &st.releases[i]
		for re.release <= now {
			tk := &st.set.Tasks[re.task]
			// Dynamic allocation on the scheduling path: base + jitter.
			jit := time.Duration(p.Engine().Rand().Int63n(int64(st.costs.MallocJitterMax) + 1))
			p.Charge(st.costs.MallocBase + jit)
			st.seq++
			st.pushReady(p, readyJob{
				task:    re.task,
				release: re.release,
				absDL:   re.release + tk.Deadline,
				seq:     st.seq,
			})
			re.release += tk.Period
		}
		if re.release < next {
			next = re.release
		}
	}
	return next
}

// pushReady inserts into the deadline-ordered heap. Caller holds the lock.
func (st *state) pushReady(p *sim.Proc, j readyJob) {
	st.chargeHeapOp(p)
	st.ready = append(st.ready, j)
	i := len(st.ready) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !st.less(i, parent) {
			break
		}
		st.ready[i], st.ready[parent] = st.ready[parent], st.ready[i]
		i = parent
	}
}

// popReady removes the earliest-deadline job. Caller holds the lock.
func (st *state) popReady(p *sim.Proc) (readyJob, bool) {
	st.chargeHeapOp(p)
	if len(st.ready) == 0 {
		return readyJob{}, false
	}
	top := st.ready[0]
	last := len(st.ready) - 1
	st.ready[0] = st.ready[last]
	st.ready = st.ready[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(st.ready) && st.less(l, smallest) {
			smallest = l
		}
		if r < len(st.ready) && st.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		st.ready[i], st.ready[smallest] = st.ready[smallest], st.ready[i]
		i = smallest
	}
	return top, true
}

func (st *state) less(i, j int) bool {
	a, b := &st.ready[i], &st.ready[j]
	if a.absDL != b.absDL {
		return a.absDL < b.absDL
	}
	return a.seq < b.seq
}

func (st *state) chargeHeapOp(p *sim.Proc) {
	levels := 1
	for n := len(st.ready); n > 0; n >>= 1 {
		levels++
	}
	p.Charge(st.costs.QueueOpBase + time.Duration(levels)*st.costs.QueueOpPerItem)
}
