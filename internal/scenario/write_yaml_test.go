package scenario

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/spec"
)

func dms(d time.Duration) spec.Duration { return spec.Duration(d) }

// TestWriteYAMLRoundTripsCheckedInScenarios proves parse(write(s)) == s for
// every scenario file shipped in the repository.
func TestWriteYAMLRoundTripsCheckedInScenarios(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario files found: %v", err)
	}
	corpus, _ := filepath.Glob("../../scenarios/corpus/*.yaml")
	for _, path := range append(paths, corpus...) {
		sc, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		back, err := Load(sc.WriteYAML(), "roundtrip.yaml")
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", path, err, sc.WriteYAML())
		}
		if !reflect.DeepEqual(sc, back) {
			t.Errorf("%s: round trip diverged:\noriginal: %+v\nreparsed: %+v\nyaml:\n%s", path, sc, back, sc.WriteYAML())
		}
	}
}

// TestWriteYAMLRoundTripsAllFields exercises every optional field at once —
// fields no checked-in scenario happens to use still must round-trip.
func TestWriteYAMLRoundTripsAllFields(t *testing.T) {
	cases := []*Scenario{
		{
			Name:           "full-single",
			Seed:           1<<53 - 1,
			Duration:       dms(250 * time.Millisecond),
			Workers:        4,
			Mapping:        "partitioned",
			Priority:       "rm",
			MaxPendingJobs: 512,
			Accels: []AccelDecl{
				{Name: "gpu", Count: 2},
				{Name: "dsp"},
			},
			AccelWaitBound: dms(80 * time.Millisecond),
			Groups: []TaskGroup{
				{
					Name: "chain", Count: 3,
					Period:        Dist{Choices: []spec.Duration{dms(5 * time.Millisecond), dms(10 * time.Millisecond)}},
					Utilization:   0.12,
					DeadlineRatio: 0.9,
					OffsetJitter:  true,
					Accel:         "gpu", AccelShare: 0.4,
					Accel2: "dsp", Accel2Share: 0.2,
				},
				{
					Name: "plain", Count: 2,
					Period:      Dist{Min: dms(8 * time.Millisecond), Max: dms(40 * time.Millisecond)},
					Utilization: 0.05,
				},
			},
			Topics: []TopicShape{
				{
					Name: "tele", Count: 2, Pubs: 3, Subs: 2, Capacity: 16,
					Policy:        "drop_oldest",
					PublishPeriod: dms(3 * time.Millisecond),
					ConsumePeriod: dms(7 * time.Millisecond),
				},
			},
			Churn: []ChurnPhase{
				{
					At: dms(20 * time.Millisecond), Every: dms(30 * time.Millisecond),
					Action: "ping_pong", Count: 4,
					Period:      Dist{Min: dms(10 * time.Millisecond), Max: dms(50 * time.Millisecond)},
					Utilization: 0.02,
					Accel:       "gpu", AccelShare: 0.3,
				},
				{At: 0, Action: "mode"},
			},
			Failures: Failures{TaskErrorRate: 0.25},
		},
		{
			Name:     "full-cluster",
			Duration: dms(100 * time.Millisecond),
			Workers:  2,
			Nodes: &NodesSpec{
				Count: 3, LossRate: 0.05, ReorderRate: 0.02,
				SyncInterval: dms(10 * time.Millisecond),
				ClockSkew:    []spec.Duration{0, dms(50 * time.Microsecond)},
			},
			Topics: []TopicShape{
				{
					Name: "wire", Count: 1, Pubs: 2, Subs: 2, Capacity: 32,
					PublishPeriod: dms(2 * time.Millisecond),
					ConsumePeriod: dms(5 * time.Millisecond),
					PubNodes:      []int{0, 1},
					SubNodes:      []int{2},
				},
			},
			Churn: []ChurnPhase{
				{At: dms(30 * time.Millisecond), Action: "cluster", Count: 2},
			},
		},
	}
	for _, sc := range cases {
		if err := sc.Validate(); err != nil {
			t.Fatalf("%s: test scenario invalid: %v", sc.Name, err)
		}
		back, err := Load(sc.WriteYAML(), "roundtrip.yaml")
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", sc.Name, err, sc.WriteYAML())
		}
		if !reflect.DeepEqual(sc, back) {
			t.Errorf("%s: round trip diverged:\noriginal: %+v\nreparsed: %+v\nyaml:\n%s", sc.Name, sc, back, sc.WriteYAML())
		}
	}
}

// TestWriteYAMLQuotesHostileStrings covers names a bare YAML scalar would
// mis-type.
func TestWriteYAMLQuotesHostileStrings(t *testing.T) {
	sc := &Scenario{
		Name:     "3.14",
		Duration: dms(50 * time.Millisecond),
		Workers:  1,
		Groups: []TaskGroup{{
			Name: "a: b #c", Count: 1,
			Period:      Dist{Min: dms(5 * time.Millisecond), Max: dms(10 * time.Millisecond)},
			Utilization: 0.1,
		}},
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("test scenario invalid: %v", err)
	}
	back, err := Load(sc.WriteYAML(), "roundtrip.yaml")
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, sc.WriteYAML())
	}
	if !reflect.DeepEqual(sc, back) {
		t.Errorf("round trip diverged:\noriginal: %+v\nreparsed: %+v\nyaml:\n%s", sc, back, sc.WriteYAML())
	}
}
