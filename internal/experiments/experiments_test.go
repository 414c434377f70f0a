package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/trace"
)

func TestFig2QuickShape(t *testing.T) {
	rows, err := Fig2(QuickFig2Config())
	if err != nil {
		t.Fatal(err)
	}
	// 3 task counts x 2 utils x 2 sets x 1 core count x 2 systems = 24 rows.
	if len(rows) != 24 {
		t.Fatalf("rows = %d, want 24", len(rows))
	}
	yasAvg, yasMax := fig2SummaryStat(rows, "YASMIN")
	maAvg, _ := fig2SummaryStat(rows, "M&A")
	if yasAvg == 0 || maAvg == 0 {
		t.Fatal("zero overhead measured")
	}
	// Headline result: YASMIN's average overhead is below M&A's.
	if yasAvg >= maAvg {
		t.Errorf("YASMIN avg overhead %v not below M&A %v", yasAvg, maAvg)
	}
	// Paper's own caveat: YASMIN's max is high relative to its average
	// (batched releases at hyperperiod points).
	if yasMax < 10*yasAvg {
		t.Errorf("YASMIN max %v vs avg %v: expected a spiky max", yasMax, yasAvg)
	}
}

func TestFig2ScalabilityInTasks(t *testing.T) {
	cfg := QuickFig2Config()
	rows, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := AggregateFig2(rows, true)
	// Extract avg overhead at smallest and largest task count per system.
	get := func(sys string, x float64) time.Duration {
		for _, s := range series {
			if s.System == sys && s.X == x {
				return s.Avg
			}
		}
		t.Fatalf("missing series point %s/%g", sys, x)
		return 0
	}
	maGrowth := float64(get("M&A", 120)) / float64(get("M&A", 20))
	yasGrowth := float64(get("YASMIN", 120)) / float64(get("YASMIN", 20))
	// Better scalability in the number of tasks (paper, Section 4.1).
	if yasGrowth >= maGrowth {
		t.Errorf("YASMIN overhead growth %.2fx not below M&A %.2fx", yasGrowth, maGrowth)
	}
}

func TestFig2Printer(t *testing.T) {
	rows, err := Fig2(Fig2Config{
		TaskCounts: []int{20}, Utils: []float64{0.5}, SetsPer: 1,
		CoreCounts: []int{2}, Horizon: 200 * time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := PrintFig2(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig 2a") || !strings.Contains(out, "YASMIN") || !strings.Contains(out, "M&A") {
		t.Errorf("output = %q", out)
	}
}

func TestFig2RejectsEmptyGrid(t *testing.T) {
	if _, err := Fig2(Fig2Config{}); err == nil {
		t.Error("want error for empty grid")
	}
}

func TestTable2QuickShape(t *testing.T) {
	rows, err := Table2(QuickTable2Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byKey := map[string]Table2Row{}
	for _, r := range rows {
		byKey[r.OS+"/"+r.Variant] = r
	}
	prtY := byKey["Linux+PREEMPT_RT 4.14-rt63/YASMIN"]
	prtN := byKey["Linux+PREEMPT_RT 4.14-rt63/RTapps"]
	litY := byKey["LitmusRT 4.9.30/YASMIN"]
	litN := byKey["LitmusRT 4.9.30/RTapps"]
	gsn := byKey["LitmusRT 4.9.30/litmus+GSN-EDF"]
	pres := byKey["LitmusRT 4.9.30/litmus+P-RES"]

	// Shape assertions from the paper's Table 2:
	// 1. On each kernel, YASMIN's average is above the native variant.
	if prtY.Avg <= prtN.Avg {
		t.Errorf("PREEMPT_RT: YASMIN avg %v not above RTapps %v", prtY.Avg, prtN.Avg)
	}
	if litY.Avg <= litN.Avg {
		t.Errorf("Litmus: YASMIN avg %v not above RTapps %v", litY.Avg, litN.Avg)
	}
	// 2. Litmus latencies are well below PREEMPT_RT latencies.
	if litN.Avg >= prtN.Avg {
		t.Errorf("Litmus RTapps avg %v not below PREEMPT_RT %v", litN.Avg, prtN.Avg)
	}
	// 3. P-RES is reservation-quantised around 1ms, far above GSN-EDF.
	if pres.Min < 900*time.Microsecond || pres.Avg < gsn.Avg*5 {
		t.Errorf("P-RES <%v,%v,%v> not reservation-shaped vs GSN-EDF avg %v",
			pres.Min, pres.Max, pres.Avg, gsn.Avg)
	}
	// 4. Magnitudes: PREEMPT_RT avg in the hundreds of µs.
	if prtN.Avg < 200*time.Microsecond || prtN.Avg > 900*time.Microsecond {
		t.Errorf("PREEMPT_RT RTapps avg %v outside the expected few-hundred-µs band", prtN.Avg)
	}
}

func TestTable2Printer(t *testing.T) {
	rows := []Table2Row{{OS: "k", Variant: "v", Min: time.Microsecond, Max: 2 * time.Microsecond, Avg: time.Microsecond}}
	var buf bytes.Buffer
	if err := PrintTable2(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<1, 2, 1>") {
		t.Errorf("output = %q", buf.String())
	}
}

func TestFig4QuickShape(t *testing.T) {
	rows, err := Fig4(QuickFig4Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12 (4 policies x 3 version modes)", len(rows))
	}
	byKey := map[string]Fig4Row{}
	for _, r := range rows {
		byKey[r.Policy+"/"+r.Versions] = r
	}
	for _, pol := range []string{"G-EDF", "G-DM", "P-EDF", "P-DM"} {
		cpu := byKey[pol+"/cpu"]
		gpu := byKey[pol+"/gpu"]
		both := byKey[pol+"/both"]
		if cpu.Frames == 0 || gpu.Frames == 0 || both.Frames == 0 {
			t.Fatalf("%s: empty runs: %+v %+v %+v", pol, cpu, gpu, both)
		}
		// GPU shortens the average frame time versus CPU (paper).
		if gpu.AvgFrame >= cpu.AvgFrame {
			t.Errorf("%s: gpu avg frame %v not below cpu %v", pol, gpu.AvgFrame, cpu.AvgFrame)
		}
		// CPU-only misses frame deadlines (chain exceeds the 500ms period).
		if cpu.FrameMissRatio == 0 {
			t.Errorf("%s: cpu-only frame misses = 0, expected misses", pol)
		}
		// Multi-version configurations reduce misses vs CPU-only (the
		// paper's headline: only both-version configs cut misses).
		if both.FrameMissRatio >= cpu.FrameMissRatio {
			t.Errorf("%s: both miss ratio %.3f not below cpu-only %.3f",
				pol, both.FrameMissRatio, cpu.FrameMissRatio)
		}
	}
	var buf bytes.Buffer
	if err := PrintFig4(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "G-EDF") {
		t.Errorf("printer output = %q", buf.String())
	}
}

func TestFig4RejectsBadConfig(t *testing.T) {
	if _, err := Fig4(Fig4Config{Workers: 0, Mission: time.Second}); err == nil {
		t.Error("want error for zero workers")
	}
}

func TestFig4ContendedRegimeMultiVersionWins(t *testing.T) {
	// When the camera outpaces the GPU chain (400ms period < 408ms chain),
	// the accelerator is contended across frames: GPU-only queues on the
	// accelerator while "both" falls back to CPU versions — the paper's
	// "only configurations decreasing deadline misses include both CPU and
	// GPU versions, with automatic selection by the scheduler".
	cfg := QuickFig4Config()
	cfg.FramePeriod = 400 * time.Millisecond
	cfg.Mission = 20 * time.Second
	rows, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Fig4Row{}
	for _, r := range rows {
		byKey[r.Policy+"/"+r.Versions] = r
	}
	for _, pol := range []string{"G-EDF", "G-DM"} {
		gpu := byKey[pol+"/gpu"]
		both := byKey[pol+"/both"]
		if both.AvgFrame >= gpu.AvgFrame {
			t.Errorf("%s: both avg frame %v not below contended gpu-only %v",
				pol, both.AvgFrame, gpu.AvgFrame)
		}
		if both.TotalMissRatio >= gpu.TotalMissRatio {
			t.Errorf("%s: both total miss %.3f not below gpu-only %.3f",
				pol, both.TotalMissRatio, gpu.TotalMissRatio)
		}
	}
}

// fig2SummaryStat is the mean avg overhead and the max overhead of one
// system.
func fig2SummaryStat(rows []Fig2Row, system string) (avg time.Duration, max time.Duration) {
	st := trace.NewStat(system)
	for _, r := range rows {
		if r.System == system {
			st.Add(r.AvgOvh)
			if r.MaxOvh > max {
				max = r.MaxOvh
			}
		}
	}
	return st.Mean(), max
}
