// Package experiments contains the harnesses that regenerate every table
// and figure of the paper's evaluation: Fig. 2 (scheduling overhead vs the
// Mollison & Anderson userspace G-EDF library), Table 2 (cyclictest latency
// across kernel substrates) and Fig. 4 (the SAR drone scheduling
// exploration). The cmd/ tools and the repository-level benchmarks are thin
// wrappers around these functions.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/mollison"
	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/sim"
	"github.com/yasmin-rt/yasmin/internal/taskset"
)

// Fig2Config parameterises the overhead comparison (Section 4.1). The paper
// varies task counts in [20,120] and utilisation in [0.2,2] with 5 task sets
// per point on 2 and 3 big cores of the Odroid-XU4.
type Fig2Config struct {
	TaskCounts []int
	Utils      []float64
	SetsPer    int
	CoreCounts []int
	Horizon    time.Duration
	Seed       int64
}

// DefaultFig2Config returns the paper-shaped grid (coarsened utilisation
// axis; override for the full 1360-set sweep).
func DefaultFig2Config() Fig2Config {
	return Fig2Config{
		TaskCounts: []int{20, 40, 60, 80, 100, 120},
		Utils:      []float64{0.2, 0.5, 0.8, 1.1, 1.4, 1.7, 2.0},
		SetsPer:    5,
		CoreCounts: []int{2, 3},
		Horizon:    time.Second,
		Seed:       1,
	}
}

// QuickFig2Config returns a reduced grid for tests and benchmarks.
func QuickFig2Config() Fig2Config {
	return Fig2Config{
		TaskCounts: []int{20, 60, 120},
		Utils:      []float64{0.5, 1.5},
		SetsPer:    2,
		CoreCounts: []int{2},
		Horizon:    500 * time.Millisecond,
		Seed:       1,
	}
}

// Fig2Row is one measured run.
type Fig2Row struct {
	System string // "YASMIN" or "M&A"
	Cores  int
	Tasks  int
	Util   float64
	AvgOvh time.Duration
	MaxOvh time.Duration
	Jobs   int64
}

// Fig2 runs the sweep and returns one row per (system, cores, tasks, util,
// set).
func Fig2(cfg Fig2Config) ([]Fig2Row, error) {
	if cfg.SetsPer <= 0 || len(cfg.TaskCounts) == 0 || len(cfg.Utils) == 0 || len(cfg.CoreCounts) == 0 {
		return nil, fmt.Errorf("experiments: empty Fig2 grid")
	}
	pl := platform.OdroidXU4()
	bigCores := pl.CoresOfKind(platform.BigCore) // 4,5,6,7
	rng := rand.New(rand.NewSource(cfg.Seed))
	var rows []Fig2Row
	for _, cores := range cfg.CoreCounts {
		if cores+1 > len(bigCores) {
			return nil, fmt.Errorf("experiments: %d worker cores + scheduler exceed the big cluster", cores)
		}
		for _, n := range cfg.TaskCounts {
			for _, u := range cfg.Utils {
				for set := 0; set < cfg.SetsPer; set++ {
					seed := rng.Int63()
					ts, err := taskset.Generate(rand.New(rand.NewSource(seed)), taskset.DRSConfig{
						N:                n,
						TotalUtilization: u,
						PeriodMin:        10 * time.Millisecond,
						PeriodMax:        100 * time.Millisecond,
					})
					if err != nil {
						return nil, err
					}
					yasRow, err := runYASMINOverhead(seed, ts, cores, bigCores, cfg.Horizon)
					if err != nil {
						return nil, err
					}
					yasRow.Tasks, yasRow.Util, yasRow.Cores = n, u, cores
					rows = append(rows, *yasRow)

					maRes, err := mollison.Run(seed, platform.OdroidXU4(), ts, mollison.Config{
						Workers:     cores,
						WorkerCores: bigCores[:cores],
						Horizon:     cfg.Horizon,
					})
					if err != nil {
						return nil, err
					}
					rows = append(rows, Fig2Row{
						System: "M&A",
						Cores:  cores,
						Tasks:  n,
						Util:   u,
						AvgOvh: maRes.Overheads.Total().Mean(),
						MaxOvh: maRes.Overheads.Total().Max(),
						Jobs:   maRes.Recorder.TotalJobs(),
					})
				}
			}
		}
	}
	return rows, nil
}

// runYASMINOverhead executes one synthetic task set under YASMIN G-EDF with
// a dedicated scheduler core and measures middleware overhead.
func runYASMINOverhead(seed int64, ts *taskset.Set, workers int, bigCores []int, horizon time.Duration) (*Fig2Row, error) {
	eng := sim.NewEngine(seed)
	env, err := rt.NewSimEnv(eng, platform.OdroidXU4(), nil)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Workers:        workers,
		WorkerCores:    bigCores[:workers],
		SchedulerCore:  bigCores[workers], // the remaining big core (paper 4.1)
		Mapping:        core.MappingGlobal,
		Priority:       core.PriorityEDF,
		Preemption:     true,
		MaxTasks:       ts.Len(),
		MaxPendingJobs: 4096,
	}
	app, err := core.New(cfg, env)
	if err != nil {
		return nil, err
	}
	for i := range ts.Tasks {
		tk := &ts.Tasks[i]
		tid, err := app.TaskDecl(core.TData{Name: tk.Name, Period: tk.Period, Deadline: tk.Deadline})
		if err != nil {
			return nil, err
		}
		wcet := tk.WCET
		if _, err := app.VersionDecl(tid, func(x *core.ExecCtx, _ any) error {
			// The paper reuses [28]'s task body: spin to a pre-defined WCET.
			return x.Compute(wcet)
		}, nil, core.VSelect{WCET: wcet}); err != nil {
			return nil, err
		}
	}
	env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			return
		}
		c.SleepUntil(horizon)
		app.Stop(c)
		app.Cleanup(c)
	})
	if err := eng.Run(sim.Time(horizon + 30*time.Second)); err != nil {
		return nil, err
	}
	return &Fig2Row{
		System: "YASMIN",
		AvgOvh: app.Overheads().Total().Mean(),
		MaxOvh: app.Overheads().Total().Max(),
		Jobs:   app.Recorder().TotalJobs(),
	}, nil
}

// Fig2Series is an aggregated curve point: avg-of-avgs and max-of-maxes at
// one x value.
type Fig2Series struct {
	System string
	X      float64 // task count or utilisation
	Avg    time.Duration
	Max    time.Duration
	Runs   int
}

// AggregateFig2 groups rows by system and the chosen x axis.
func AggregateFig2(rows []Fig2Row, byTasks bool) []Fig2Series {
	type key struct {
		sys string
		x   float64
	}
	agg := make(map[key]*Fig2Series)
	for _, r := range rows {
		x := float64(r.Tasks)
		if !byTasks {
			x = r.Util
		}
		k := key{r.System, x}
		s := agg[k]
		if s == nil {
			s = &Fig2Series{System: r.System, X: x}
			agg[k] = s
		}
		s.Avg += r.AvgOvh
		if r.MaxOvh > s.Max {
			s.Max = r.MaxOvh
		}
		s.Runs++
	}
	var out []Fig2Series
	for _, s := range agg {
		s.Avg /= time.Duration(s.Runs)
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].System != out[j].System {
			return out[i].System < out[j].System
		}
		return out[i].X < out[j].X
	})
	return out
}

// PrintFig2 renders both panels (by task count, by utilisation) like the
// figure.
func PrintFig2(w io.Writer, rows []Fig2Row) error {
	if _, err := fmt.Fprintf(w, "Fig 2a — scheduling overhead by number of tasks (avg / max, µs)\n"); err != nil {
		return err
	}
	if err := printSeries(w, AggregateFig2(rows, true), "tasks"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\nFig 2b — scheduling overhead by utilisation (avg / max, µs)\n"); err != nil {
		return err
	}
	return printSeries(w, AggregateFig2(rows, false), "util")
}

func printSeries(w io.Writer, series []Fig2Series, xname string) error {
	for _, s := range series {
		if _, err := fmt.Fprintf(w, "  %-8s %s=%-6g avg=%-10.1f max=%-10.1f (%d runs)\n",
			s.System, xname, s.X,
			float64(s.Avg)/float64(time.Microsecond),
			float64(s.Max)/float64(time.Microsecond),
			s.Runs); err != nil {
			return err
		}
	}
	return nil
}
