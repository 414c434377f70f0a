// Package cyclictest ports the standard rt-tests latency measurement tool
// into the simulation, in the two variants the paper compares (Section 4.2):
//
//   - Native ("RTapps"): each thread sleeps until its next period and
//     measures now - expected, exercising the kernel wake-up path directly.
//   - YASMIN: the same measurement loop adapted to run under YASMIN
//     management, as the paper adapted cyclictest to its middleware: each
//     thread is a periodic task; the measured latency is the span between
//     the nominal release and the job actually starting on a worker.
//
// The paper invokes cyclictest with `-t 6 -d 0 -i 10000 -m -l 10000`: six
// threads, zero distance (all threads share the interval), a 10ms interval,
// locked memory, 10000 loops.
package cyclictest

import (
	"fmt"
	"time"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/kernel"
	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/sim"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// Options mirror the cyclictest flags used in the paper.
type Options struct {
	Threads  int           // -t
	Interval time.Duration // -i (microseconds in the tool; a Duration here)
	Loops    int           // -l
	Distance time.Duration // -d (0 in the paper: all threads share Interval)
}

// PaperOptions returns `-t 6 -d 0 -i 10000 -m -l 10000`.
func PaperOptions() Options {
	return Options{Threads: 6, Interval: 10 * time.Millisecond, Loops: 10000, Distance: 0}
}

func (o *Options) validate() error {
	if o.Threads <= 0 {
		return fmt.Errorf("cyclictest: need at least one thread")
	}
	if o.Interval <= 0 {
		return fmt.Errorf("cyclictest: non-positive interval")
	}
	if o.Loops <= 0 {
		return fmt.Errorf("cyclictest: non-positive loop count")
	}
	if o.Distance < 0 {
		return fmt.Errorf("cyclictest: negative distance")
	}
	return nil
}

// Result aggregates the per-thread latency stats, reported <min, max, avg>
// like the tool (and Table 2).
type Result struct {
	Kernel    string
	Variant   string // "YASMIN" or "RTapps"
	PerThread []*trace.Stat
	Combined  *trace.Stat
}

// Summary returns the paper's <min, max, avg> triple.
func (r *Result) Summary() (min, max, avg time.Duration) { return r.Combined.Summary() }

// String renders a Table 2 row.
func (r *Result) String() string {
	min, max, avg := r.Summary()
	return fmt.Sprintf("%-28s %-8s <%d, %d, %d> µs",
		r.Kernel, r.Variant, min.Microseconds(), max.Microseconds(), avg.Microseconds())
}

// RunNative measures the raw kernel wake-up latency: the RTapps rows of
// Table 2 (and the litmus+<plugin> rows, by switching the kernel model).
func RunNative(seed int64, pl *platform.Platform, k kernel.Model, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine(seed)
	env, err := rt.NewSimEnv(eng, pl, kernel.WakeFunc(k, eng.Rand()))
	if err != nil {
		return nil, err
	}
	res := &Result{
		Kernel:   k.Name(),
		Variant:  "RTapps",
		Combined: trace.NewStat("cyclictest"),
	}
	for i := 0; i < opts.Threads; i++ {
		st := trace.NewStat(fmt.Sprintf("thread-%d", i))
		res.PerThread = append(res.PerThread, st)
		interval := opts.Interval + time.Duration(i)*opts.Distance
		core := i % pl.NumCores()
		env.Spawn(fmt.Sprintf("cyclictest-%d", i), core, func(c rt.Ctx) {
			next := c.Now() + interval
			for loop := 0; loop < opts.Loops; loop++ {
				c.SleepUntil(next)
				lat := c.Now() - next
				if lat < 0 {
					lat = 0
				}
				st.Add(lat)
				res.Combined.Add(lat)
				next += interval
			}
		})
	}
	if err := eng.RunUntilIdle(); err != nil {
		return nil, err
	}
	return res, nil
}

// RunYASMIN measures the wake-up latency through the middleware: threads
// become periodic YASMIN tasks; each job's measured latency is
// start - release, covering the scheduler thread's own kernel wake-up, job
// release, dispatch, the worker's futex wake and the context switch — the
// YASMIN rows of Table 2.
//
// Following the paper's setup on the 8-core Odroid-XU4: N measurement
// threads need N workers, one more core for the scheduler thread, and one
// core left to the OS.
func RunYASMIN(seed int64, pl *platform.Platform, k kernel.Model, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Threads+2 > pl.NumCores() {
		return nil, fmt.Errorf("cyclictest: %d threads need %d cores (workers + scheduler + OS), platform has %d",
			opts.Threads, opts.Threads+2, pl.NumCores())
	}
	eng := sim.NewEngine(seed)
	env, err := rt.NewSimEnv(eng, pl, kernel.WakeFunc(k, eng.Rand()))
	if err != nil {
		return nil, err
	}
	cores := make([]int, opts.Threads)
	for i := range cores {
		cores[i] = i + 1 // core 0 stays with the OS
	}
	cfg := core.Config{
		Workers:       opts.Threads,
		WorkerCores:   cores,
		SchedulerCore: opts.Threads + 1,
		Mapping:       core.MappingPartitioned,
		Priority:      core.PriorityRM,
		Preemption:    true,
		MaxTasks:      opts.Threads,
	}
	app, err := core.New(cfg, env)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Kernel:   k.Name(),
		Variant:  "YASMIN",
		Combined: trace.NewStat("cyclictest"),
	}
	type meas struct {
		st   *trace.Stat
		done int
	}
	measures := make([]*meas, opts.Threads)
	for i := 0; i < opts.Threads; i++ {
		m := &meas{st: trace.NewStat(fmt.Sprintf("thread-%d", i))}
		measures[i] = m
		res.PerThread = append(res.PerThread, m.st)
		interval := opts.Interval + time.Duration(i)*opts.Distance
		tid, err := app.TaskDecl(core.TData{
			Name:     fmt.Sprintf("cyclictest-%d", i),
			Period:   interval,
			VirtCore: i,
		})
		if err != nil {
			return nil, err
		}
		_, err = app.VersionDecl(tid, func(x *core.ExecCtx, _ any) error {
			// The measurement: how late did this job start relative to its
			// nominal release?
			lat := x.Now() - x.Release()
			if lat < 0 {
				lat = 0
			}
			m.st.Add(lat)
			res.Combined.Add(lat)
			m.done++
			return nil
		}, nil, core.VSelect{})
		if err != nil {
			return nil, err
		}
	}
	horizon := opts.Interval*time.Duration(opts.Loops+2) + time.Second
	env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			return
		}
		// Run until every thread has completed its loops (or horizon).
		for c.Now() < horizon {
			all := true
			for _, m := range measures {
				if m.done < opts.Loops {
					all = false
					break
				}
			}
			if all {
				break
			}
			c.Sleep(opts.Interval)
		}
		app.Stop(c)
		app.Cleanup(c)
	})
	if err := eng.Run(sim.Time(horizon + 5*time.Second)); err != nil {
		return nil, err
	}
	return res, nil
}
