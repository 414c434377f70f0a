package taskset

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestTaskUtilizationAndDensity(t *testing.T) {
	tk := Task{ID: 0, Name: "t", Period: ms(100), Deadline: ms(50), WCET: ms(25)}
	if got := tk.Utilization(); got != 0.25 {
		t.Errorf("U = %g, want 0.25", got)
	}
	if got := tk.Density(); got != 0.5 {
		t.Errorf("density = %g, want 0.5", got)
	}
}

func TestDeadlineSchemes(t *testing.T) {
	tests := []struct {
		name string
		d    time.Duration
		want DeadlineScheme
	}{
		{"implicit", ms(100), ImplicitDeadline},
		{"constrained", ms(60), ConstrainedDeadline},
		{"arbitrary", ms(150), ArbitraryDeadline},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tk := Task{Period: ms(100), Deadline: tc.d, WCET: ms(1)}
			if got := tk.Scheme(); got != tc.want {
				t.Errorf("Scheme() = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestValidateRejectsBadTasks(t *testing.T) {
	tests := []struct {
		name string
		task Task
	}{
		{"zero period", Task{Deadline: ms(1), WCET: ms(1)}},
		{"zero wcet", Task{Period: ms(10), Deadline: ms(10)}},
		{"zero deadline", Task{Period: ms(10), WCET: ms(1)}},
		{"negative offset", Task{Period: ms(10), Deadline: ms(10), WCET: ms(1), Offset: -1}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.task.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestSetValidateDuplicateIDs(t *testing.T) {
	s := Set{Tasks: []Task{
		{ID: 1, Period: ms(10), Deadline: ms(10), WCET: ms(1)},
		{ID: 1, Period: ms(20), Deadline: ms(20), WCET: ms(1)},
	}}
	if err := s.Validate(); err == nil {
		t.Error("want duplicate-ID error")
	}
}

func TestGCDLCMHyperperiod(t *testing.T) {
	if got := GCD(ms(250), ms(100)); got != ms(50) {
		t.Errorf("GCD = %v, want 50ms", got)
	}
	if got := LCM(ms(250), ms(100)); got != ms(500) {
		t.Errorf("LCM = %v, want 500ms", got)
	}
	s := Set{Tasks: []Task{
		{ID: 0, Period: ms(250), Deadline: ms(250), WCET: ms(1)},
		{ID: 1, Period: ms(100), Deadline: ms(100), WCET: ms(1)},
		{ID: 2, Period: ms(40), Deadline: ms(40), WCET: ms(1)},
	}}
	if got := s.PeriodGCD(); got != ms(10) {
		t.Errorf("PeriodGCD = %v, want 10ms", got)
	}
	// 250 = 2*5^3, 100 = 2^2*5^2, 40 = 2^3*5 => LCM = 2^3*5^3 = 1000.
	if got := s.Hyperperiod(); got != ms(1000) {
		t.Errorf("Hyperperiod = %v, want 1s", got)
	}
}

func TestLCMOverflowSaturates(t *testing.T) {
	huge := time.Duration(1<<62 - 1)
	if got := LCM(huge, huge-2); got != time.Duration(1<<63-1) {
		t.Errorf("LCM overflow = %v, want saturation", got)
	}
}

func TestPriorityOrders(t *testing.T) {
	s := Set{Tasks: []Task{
		{ID: 0, Period: ms(300), Deadline: ms(100), WCET: ms(1)},
		{ID: 1, Period: ms(100), Deadline: ms(90), WCET: ms(1)},
		{ID: 2, Period: ms(200), Deadline: ms(200), WCET: ms(1)},
	}}
	rm := s.ByPeriod()
	if rm[0] != 1 || rm[1] != 2 || rm[2] != 0 {
		t.Errorf("ByPeriod = %v, want [1 2 0]", rm)
	}
	dm := s.ByDeadline()
	if dm[0] != 1 || dm[1] != 0 || dm[2] != 2 {
		t.Errorf("ByDeadline = %v, want [1 0 2]", dm)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := &Set{Tasks: []Task{
		{ID: 0, Name: "a", Period: ms(100), Deadline: ms(100), WCET: ms(10)},
		{ID: 1, Name: "b", Period: ms(200), Deadline: ms(150), WCET: ms(20), Sporadic: true},
	}}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Tasks[1].Name != "b" || !got.Tasks[1].Sporadic {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	bad := bytes.NewBufferString(`{"tasks":[{"id":0,"period":0,"deadline":1,"wcet":1}]}`)
	if _, err := ReadJSON(bad); err == nil {
		t.Error("want error for invalid set")
	}
}

// DeadlineScheme classifies the relation between deadline and period.
type DeadlineScheme int

// Deadline schemes (Section 2).
const (
	ImplicitDeadline    DeadlineScheme = iota + 1 // D = T
	ConstrainedDeadline                           // D <= T
	ArbitraryDeadline                             // no relation
)

func (s DeadlineScheme) String() string {
	switch s {
	case ImplicitDeadline:
		return "implicit"
	case ConstrainedDeadline:
		return "constrained"
	case ArbitraryDeadline:
		return "arbitrary"
	default:
		return fmt.Sprintf("DeadlineScheme(%d)", int(s))
	}
}

// Scheme returns the deadline scheme of the task.
func (t *Task) Scheme() DeadlineScheme {
	switch {
	case t.Deadline == t.Period:
		return ImplicitDeadline
	case t.Deadline < t.Period:
		return ConstrainedDeadline
	default:
		return ArbitraryDeadline
	}
}
