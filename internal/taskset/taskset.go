// Package taskset provides the descriptive real-time task model shared by
// the generators, the schedulability analyses and the off-line scheduler:
// sporadic/periodic tasks with implicit, constrained or arbitrary deadlines
// (Section 2 of the paper), period utilities (GCD, hyperperiod) and the
// Dirichlet-Rescale (DRS) task-set generator used by the Fig. 2 evaluation.
package taskset

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Task is a descriptive sporadic/periodic task. WCET is the worst-case
// execution time of its (single, for analysis purposes) implementation; the
// middleware's multi-version runtime model lives in internal/core.
type Task struct {
	ID       int           `json:"id"`
	Name     string        `json:"name"`
	Period   time.Duration `json:"period"`   // minimum inter-arrival time T
	Deadline time.Duration `json:"deadline"` // relative deadline D
	Offset   time.Duration `json:"offset"`   // release offset
	WCET     time.Duration `json:"wcet"`     // worst-case execution time C
	Sporadic bool          `json:"sporadic,omitempty"`

	// Accels lists, per shared accelerator pool any of the task's versions
	// may run on, the worst-case critical section the task can hold an
	// instance for. Empty for CPU-only tasks. The blocking analysis
	// (analysis.PIPBlocking) derives per-task priority-inversion bounds
	// from these; omitting a pool a version can touch makes the analysis
	// unsound, so bridges aggregate across ALL versions.
	Accels []AccelUse `json:"accels,omitempty"`
}

// AccelUse is one task's worst-case use of one shared accelerator pool.
type AccelUse struct {
	// Pool names the accelerator pool.
	Pool string `json:"pool"`
	// CS is the worst-case critical-section length on the pool (part of
	// the task's WCET).
	CS time.Duration `json:"cs"`
	// Count is the pool's instance count (0 reads as 1).
	Count int `json:"count,omitempty"`
}

// Utilization returns C/T.
func (t *Task) Utilization() float64 {
	if t.Period <= 0 {
		return 0
	}
	return float64(t.WCET) / float64(t.Period)
}

// Density returns C/min(D,T), the demand metric for constrained deadlines.
func (t *Task) Density() float64 {
	d := t.Deadline
	if t.Period < d {
		d = t.Period
	}
	if d <= 0 {
		return 0
	}
	return float64(t.WCET) / float64(d)
}

// Validate checks the task parameters.
func (t *Task) Validate() error {
	if t.Period <= 0 {
		return fmt.Errorf("task %d (%s): non-positive period %v", t.ID, t.Name, t.Period)
	}
	if t.WCET <= 0 {
		return fmt.Errorf("task %d (%s): non-positive WCET %v", t.ID, t.Name, t.WCET)
	}
	if t.Deadline <= 0 {
		return fmt.Errorf("task %d (%s): non-positive deadline %v", t.ID, t.Name, t.Deadline)
	}
	if t.Offset < 0 {
		return fmt.Errorf("task %d (%s): negative offset %v", t.ID, t.Name, t.Offset)
	}
	return nil
}

// Set is an ordered collection of tasks.
type Set struct {
	Tasks []Task `json:"tasks"`
}

// Validate checks every task and ID uniqueness.
func (s *Set) Validate() error {
	seen := make(map[int]bool, len(s.Tasks))
	for i := range s.Tasks {
		if err := s.Tasks[i].Validate(); err != nil {
			return err
		}
		if seen[s.Tasks[i].ID] {
			return fmt.Errorf("duplicate task ID %d", s.Tasks[i].ID)
		}
		seen[s.Tasks[i].ID] = true
	}
	return nil
}

// TotalUtilization returns the sum of task utilizations.
func (s *Set) TotalUtilization() float64 {
	var u float64
	for i := range s.Tasks {
		u += s.Tasks[i].Utilization()
	}
	return u
}

// Len returns the number of tasks.
func (s *Set) Len() int { return len(s.Tasks) }

// ByPeriod returns task indices sorted by ascending period (rate-monotonic
// priority order, highest priority first).
func (s *Set) ByPeriod() []int {
	idx := make([]int, len(s.Tasks))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return s.Tasks[idx[a]].Period < s.Tasks[idx[b]].Period
	})
	return idx
}

// ByDeadline returns task indices sorted by ascending relative deadline
// (deadline-monotonic priority order).
func (s *Set) ByDeadline() []int {
	idx := make([]int, len(s.Tasks))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return s.Tasks[idx[a]].Deadline < s.Tasks[idx[b]].Deadline
	})
	return idx
}

// GCD returns the greatest common divisor of two durations.
func GCD(a, b time.Duration) time.Duration {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of two durations. It saturates at
// MaxDuration on overflow.
func LCM(a, b time.Duration) time.Duration {
	if a == 0 || b == 0 {
		return 0
	}
	g := GCD(a, b)
	q := a / g
	// Overflow check: q * b must fit.
	const maxDur = time.Duration(1<<63 - 1)
	if q > maxDur/b {
		return maxDur
	}
	return q * b
}

// PeriodGCD returns the GCD of all task periods — the paper's scheduler
// thread activation period (Section 3.3). Returns 0 for an empty set.
func (s *Set) PeriodGCD() time.Duration {
	var g time.Duration
	for i := range s.Tasks {
		g = GCD(g, s.Tasks[i].Period)
	}
	return g
}

// Hyperperiod returns the LCM of all task periods, saturating on overflow.
func (s *Set) Hyperperiod() time.Duration {
	var h time.Duration = 1
	if len(s.Tasks) == 0 {
		return 0
	}
	for i := range s.Tasks {
		h = LCM(h, s.Tasks[i].Period)
	}
	return h
}

// WriteJSON serialises the set.
func (s *Set) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("taskset: encode: %w", err)
	}
	return nil
}

// ReadJSON parses a set previously written with WriteJSON.
func ReadJSON(r io.Reader) (*Set, error) {
	var s Set
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("taskset: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("taskset: invalid set: %w", err)
	}
	return &s, nil
}
