package core

import (
	"fmt"
	"time"

	"github.com/yasmin-rt/yasmin/internal/rt"
)

// TableEntry is one slot of an off-line schedule: at Offset within the table
// cycle, the worker runs Version of Task. Delay slots are implicit: workers
// sleep between a job's completion and the next entry's offset (Section
// 3.4).
type TableEntry struct {
	Offset  time.Duration
	Task    TID
	Version VID
}

// OfflineTable is a pre-computed time-triggered schedule: one entry sequence
// per worker, repeated every Cycle (typically the task-set hyperperiod).
// Versions are pre-selected off-line, as the paper notes this shrinks the
// binary: only referenced versions are needed.
type OfflineTable struct {
	Cycle     time.Duration
	PerWorker [][]TableEntry
}

// validate checks the table against the app's declarations.
func (t *OfflineTable) validate(a *App) error {
	if t == nil {
		return fmt.Errorf("core: nil offline table")
	}
	if t.Cycle <= 0 {
		return fmt.Errorf("core: offline table needs a positive cycle")
	}
	if len(t.PerWorker) != a.cfg.Workers {
		return fmt.Errorf("core: offline table has %d worker rows for %d workers",
			len(t.PerWorker), a.cfg.Workers)
	}
	for wi, entries := range t.PerWorker {
		last := time.Duration(-1)
		for ei, e := range entries {
			if e.Offset < 0 || e.Offset >= t.Cycle {
				return fmt.Errorf("core: worker %d entry %d: offset %v outside cycle %v",
					wi, ei, e.Offset, t.Cycle)
			}
			if e.Offset < last {
				return fmt.Errorf("core: worker %d entries not sorted by offset", wi)
			}
			last = e.Offset
			tk, err := a.taskByID(e.Task)
			if err != nil {
				return fmt.Errorf("core: worker %d entry %d: %w", wi, ei, err)
			}
			if int(e.Version) < 0 || int(e.Version) >= len(tk.versions) {
				return fmt.Errorf("core: worker %d entry %d: task %s has no version %d",
					wi, ei, tk.d.Name, e.Version)
			}
		}
	}
	return nil
}

// offlineWorkerLoop is the on-line dispatcher for off-line schedules
// (Figure 1c): each worker walks its release-time-ordered entry list,
// waiting out the pre-computed delay slots, and runs each job to completion
// without preemption, on the fiber f carrying the worker. Heterogeneous
// resource management was resolved by the off-line scheduler, so no
// accelerator arbitration happens here, and no job ever suspends.
func (a *App) offlineWorkerLoop(c rt.Ctx, f *fiber) {
	w := f.w
	costs := a.env.Costs()
	entries := a.offTable.PerWorker[w.idx]
	if len(entries) == 0 {
		return
	}
	for cycleStart := a.startTime; ; cycleStart += a.offTable.Cycle {
		if a.stopping.Load() || a.terminating.Load() {
			return
		}
		for i := range entries {
			e := &entries[i]
			release := cycleStart + e.Offset
			// Delay slot: wait for the pre-computed release time.
			c.Charge(costs.TimerProgram)
			if intr := c.SleepUntil(release); intr {
				if a.terminating.Load() {
					return
				}
			}
			if a.stopping.Load() || a.terminating.Load() {
				return
			}
			a.runOfflineEntry(c, f, e, release)
		}
	}
}

// runOfflineEntry executes one table slot on the worker f carries, running
// the body inline.
func (a *App) runOfflineEntry(c rt.Ctx, f *fiber, e *TableEntry, release time.Duration) {
	w := f.w
	costs := a.env.Costs()
	a.mu.Lock(c)
	t := &a.tasks[e.Task]
	j := a.allocJob()
	if j == nil {
		a.overruns.Add(1)
		a.mu.Unlock(c)
		return
	}
	t.jobSeq++
	j.t = t
	j.name = t.d.Name
	t.live.Add(1)
	j.seq = a.jobSeq.Add(1)
	j.taskSeq = t.jobSeq
	j.release = release
	j.stamp = release
	j.absDL = release + t.effDeadline
	j.version = e.Version
	j.basePrio = t.staticPrio
	j.effPrio.Store(j.basePrio)
	j.state.Store(jobRunning)
	j.worker.Store(int32(w.idx))
	j.start = c.Now()
	// Accelerator bookkeeping (no arbitration: the table guarantees
	// exclusivity, we only track occupancy for AccelBusy observers).
	if h := t.versions[e.Version].accel; h != NoAccel {
		ac := &a.accels[h]
		ac.busy = true
		ac.holder = j
		j.accel = h
	}
	w.current = j
	a.mu.Unlock(c)

	c.Charge(costs.ContextSwitch)
	f.ectx = ExecCtx{app: a, j: j, c: c}
	j.err = runBody(&f.ectx, &t.versions[e.Version])
	now := c.Now()
	a.recordTaskError(j.err)
	a.mu.Lock(c)
	heldInst := j.accel
	accelName := ""
	if heldInst != NoAccel {
		ac := &a.accels[heldInst]
		accelName = ac.name
		ac.busy = false
		ac.holder = nil
		j.accel = NoAccel
	}
	a.recordCompletion(j, w, now, accelName, false)
	a.accountEnergy(j, heldInst)
	a.freeJob(c, j, true)
	w.current = nil
	a.mu.Unlock(c)
}
