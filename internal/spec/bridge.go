package spec

import (
	"fmt"
	"time"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/offline"
	"github.com/yasmin-rt/yasmin/internal/taskset"
)

// FromTaskSet lifts a flat descriptive task set (as produced by
// yasmin-taskgen or read by the analyses) into an application spec: one
// single-version task per entry, no channels. The result builds and runs
// directly — each synthesized body computes its WCET. Task sets only
// require unique IDs, so empty or colliding names are uniquified with the
// task ID.
func FromTaskSet(set *taskset.Set) *Spec {
	s := &Spec{Name: "taskset", Tasks: make([]TaskSpec, 0, len(set.Tasks))}
	seen := make(map[string]bool, len(set.Tasks))
	accelCount := make(map[string]int)
	for i := range set.Tasks {
		t := &set.Tasks[i]
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("t%d", t.ID)
		}
		for seen[name] {
			name = fmt.Sprintf("%s#%d", name, t.ID)
		}
		seen[name] = true
		// One version per accelerator use, so TaskSet() round-trips the
		// blocking model exactly; CPU-only tasks get one plain version.
		var versions []VersionSpec
		for _, u := range t.Accels {
			cs := u.CS
			if cs > t.WCET {
				cs = t.WCET
			}
			versions = append(versions, VersionSpec{
				WCET:    Duration(t.WCET),
				Accel:   u.Pool,
				AccelCS: Duration(cs),
			})
			cnt := u.Count
			if cnt < 1 {
				cnt = 1
			}
			if cnt > accelCount[u.Pool] {
				accelCount[u.Pool] = cnt
			}
		}
		if len(versions) == 0 {
			versions = []VersionSpec{{WCET: Duration(t.WCET)}}
		}
		s.Tasks = append(s.Tasks, TaskSpec{
			Name:     name,
			Period:   Duration(t.Period),
			Deadline: Duration(t.Deadline),
			Offset:   Duration(t.Offset),
			Sporadic: t.Sporadic,
			Versions: versions,
		})
	}
	// Accelerator pools referenced by the tasks, in first-use order.
	declared := make(map[string]bool, len(accelCount))
	for i := range set.Tasks {
		for _, u := range set.Tasks[i].Accels {
			if u.Pool == "" || declared[u.Pool] {
				continue
			}
			declared[u.Pool] = true
			as := AccelSpec{Name: u.Pool}
			if accelCount[u.Pool] > 1 {
				as.Count = accelCount[u.Pool]
			}
			s.Accels = append(s.Accels, as)
		}
	}
	return s
}

// TaskSet flattens the spec into the descriptive model the schedulability
// analyses consume: every task becomes an independent sporadic/periodic
// task. Data-activated graph nodes inherit the smallest period and deadline
// of their root ancestors (core.RootWalk.RootTiming, the rule admission and
// the runtime apply); each task's WCET is the maximum over its versions.
// It fails when a task has no WCET information or no root ancestor.
func (s *Spec) TaskSet() (*taskset.Set, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	roots := core.NewRootWalk(s.predIndices())
	data := func(i int) core.TData { return s.Tasks[i].data() }
	out := &taskset.Set{Tasks: make([]taskset.Task, 0, len(s.Tasks))}
	poolCount := func(name string) int {
		for ai := range s.Accels {
			if s.Accels[ai].Name == name {
				return s.Accels[ai].instances()
			}
		}
		return 1
	}
	for i := range s.Tasks {
		t := &s.Tasks[i]
		var wcet time.Duration
		var uses []taskset.AccelUse
		for vi := range t.Versions {
			v := &t.Versions[vi]
			if w := v.WCET.Std(); w > wcet {
				wcet = w
			}
			if v.Accel == "" {
				continue
			}
			cs := v.AccelCS.Std()
			if cs <= 0 {
				cs = v.WCET.Std() // undeclared section: whole WCET, conservative
			}
			if cs <= 0 {
				continue
			}
			// Aggregate per pool across ALL versions: version selection is
			// dynamic, so the analysis must see every pool the task can
			// touch.
			found := false
			for ui := range uses {
				if uses[ui].Pool == v.Accel {
					if cs > uses[ui].CS {
						uses[ui].CS = cs
					}
					found = true
					break
				}
			}
			if !found {
				uses = append(uses, taskset.AccelUse{Pool: v.Accel, CS: cs, Count: poolCount(v.Accel)})
			}
		}
		if wcet <= 0 {
			return nil, fmt.Errorf("spec: task %q has no WCET; cannot derive an analysis task set", t.Name)
		}
		period := t.Period.Std()
		deadline := t.Deadline.Std()
		if period == 0 {
			rp, rd := roots.RootTiming(i, data)
			if rp == 0 {
				return nil, fmt.Errorf("spec: task %q is aperiodic with no periodic root ancestor; cannot derive an analysis task set", t.Name)
			}
			period = rp
			if deadline == 0 {
				deadline = rd
			}
		}
		if deadline == 0 {
			deadline = period // implicit
		}
		out.Tasks = append(out.Tasks, taskset.Task{
			ID:       i,
			Name:     t.Name,
			Period:   period,
			Deadline: deadline,
			Offset:   t.Offset.Std(),
			WCET:     wcet,
			Sporadic: t.Sporadic,
			Accels:   uses,
		})
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("spec: derived task set invalid: %w", err)
	}
	return out, nil
}

// OfflineSpecs maps the application onto the off-line synthesiser's input
// (offline.Synthesize): spec task i becomes offline spec i — matching the
// TID assignment of Build, as the synthesiser requires — with predecessor
// indices derived from the connected channels and accelerator names
// resolved to indices.
func (s *Spec) OfflineSpecs() ([]offline.TaskSpec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	preds := s.predIndices()
	out := make([]offline.TaskSpec, 0, len(s.Tasks))
	for i := range s.Tasks {
		t := &s.Tasks[i]
		versions := make([]offline.VersionSpec, 0, len(t.Versions))
		for vi := range t.Versions {
			v := &t.Versions[vi]
			accel := offline.NoAccelerator
			if v.Accel != "" {
				accel = int(s.AccelID(v.Accel))
			}
			if v.WCET <= 0 {
				return nil, fmt.Errorf("spec: task %q version %d has no WCET; cannot synthesize off-line", t.Name, vi)
			}
			versions = append(versions, offline.VersionSpec{
				WCET:   v.WCET.Std(),
				Accel:  accel,
				Energy: v.Energy,
			})
		}
		out = append(out, offline.TaskSpec{
			Name:     t.Name,
			Period:   t.Period.Std(),
			Deadline: t.Deadline.Std(),
			Versions: versions,
			Preds:    preds[i],
		})
	}
	return out, nil
}

// predIndices derives, per task index, the de-duplicated predecessor task
// indices from the connected channels.
func (s *Spec) predIndices() [][]int {
	idx := make(map[string]int, len(s.Tasks))
	for i := range s.Tasks {
		idx[s.Tasks[i].Name] = i
	}
	preds := make([][]int, len(s.Tasks))
	for i := range s.Channels {
		c := &s.Channels[i]
		if c.Src == "" || c.Dst == "" {
			continue
		}
		si, di := idx[c.Src], idx[c.Dst]
		dup := false
		for _, p := range preds[di] {
			if p == si {
				dup = true
				break
			}
		}
		if !dup {
			preds[di] = append(preds[di], si)
		}
	}
	return preds
}
