package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// seam names one boundary between the benchmark and a layer of the program:
// every span is recorded by benchmark code around its own call into that
// layer (task bodies and staging closures are benchmark code, so spans
// around x.Push or tx.AddTask are legal seams). Spans inside the program
// are a later change.
type seam uint8

const (
	seamSetup     seam = iota // declarations / Spec.Build / App.Start
	seamDrive                 // the drive phase
	seamScenario              // scenario.RunWith, set-up to checker verdict
	seamActivate              // App.TaskActivate
	seamResponse              // TaskActivate call -> tail body signalled
	seamPush                  // ExecCtx.Push in a chain body
	seamPop                   // ExecCtx.Pop in a chain body
	seamStage                 // the staging closure of a transaction
	seamPrepare               // App.PrepareReconfigure (stage + validate + admit)
	seamAdmit                 // PrepareReconfigure after the closure returned: validate + admit
	seamCommit                // PreparedReconfig.Commit
	seamSinkWrite             // FileSink.WriteBatch behind the pipeline
	seamReplay                // telemetry.ReplayFile + scenario.CheckStreams
	seamSpecBuild             // declaration loop / Spec.Build
	seamProbe                 // one layer probe
	numSeams
)

var seamNames = [numSeams]string{
	seamSetup: "setup", seamDrive: "drive", seamScenario: "scenario.RunWith",
	seamActivate: "core.TaskActivate", seamResponse: "chain.response",
	seamPush: "core.Push", seamPop: "core.Pop",
	seamStage: "reconfig.stage", seamPrepare: "core.PrepareReconfigure", seamAdmit: "reconfig.admit", seamCommit: "core.Commit",
	seamSinkWrite: "telemetry.WriteBatch", seamReplay: "scenario.CheckStreams", seamSpecBuild: "spec.build", seamProbe: "probe",
}

// span is one recorded interval. parent is the index of the span that
// caused it (-1 for none); spans of one activation or transaction share id.
type span struct {
	seam       seam
	parent     int32
	id         int64
	start, end int64 // ns since the tracer was created
}

// maxSpans bounds the spans kept for the trace file; the per-seam duration
// histograms keep counting past it, so the per-layer metrics cover every
// call even when the file holds only the first ones.
const maxSpans = 20000

// tracer keeps spans in memory and writes them out when the run ends.
// record is lock-free (bodies call it from worker threads).
//
// Every method is a no-op on a nil tracer, so workload code calls them
// unconditionally and the untraced run pays one nil check per seam.
type tracer struct {
	t0    time.Time
	spans []span
	n     atomic.Int64
	dur   [numSeams]hist
	jobs  []keptJob // the first records of the traced repetitions
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, maxSpans)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// at places a wall-clock instant on the tracer's axis.
func (t *tracer) at(x time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(x.Sub(t.t0))
}

// keep takes over the records a traced collector retained.
func (t *tracer) keep(c *collector) {
	if t != nil && len(t.jobs) < keepJobs {
		t.jobs = append(t.jobs, c.keptJobs()...)
	}
}

// record stores one finished span and returns its index for children to
// name as parent (-1 once the buffer is full).
func (t *tracer) record(s seam, parent int32, id, start, end int64) int32 {
	if t == nil {
		return -1
	}
	t.dur[s].add(end - start)
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return -1
	}
	t.spans[i] = span{seam: s, parent: parent, id: id, start: start, end: end}
	return int32(i)
}

// open reserves a span whose end is not known yet (a parent of spans that
// finish before it); close fills the end in.
func (t *tracer) open(s seam, parent int32, id int64) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return -1
	}
	t.spans[i] = span{seam: s, parent: parent, id: id, start: t.now()}
	return int32(i)
}

func (t *tracer) close(i int32) {
	if t == nil || i < 0 {
		return
	}
	sp := &t.spans[i]
	sp.end = t.now()
	t.dur[sp.seam].add(sp.end - sp.start)
}

// seamMetrics are the per-layer metrics that are the median duration of
// one seam's spans over the traced repetitions (ns scaled by 1/div).
var seamMetrics = []struct {
	name string
	seam seam
	div  float64
}{
	{"core.activate_call_ns", seamActivate, 1},
	{"topic.push_ns", seamPush, 1},
	{"topic.pop_ns", seamPop, 1},
	{"reconfig.stage_p50_us", seamStage, 1e3},
	{"reconfig.admit_p50_us", seamAdmit, 1e3},
	{"reconfig.commit_p50_us", seamCommit, 1e3},
}

func (t *tracer) layer() map[string]float64 {
	m := map[string]float64{}
	for _, sm := range seamMetrics {
		if t.dur[sm.seam].count() > 0 {
			m[sm.name] = float64(t.dur[sm.seam].quantile(0.5)) / sm.div
		}
	}
	return m
}

// write saves the spans as <outDir>/<workload>.trace.json.
func (t *tracer) write(outDir, workload string, seed int64) error {
	type jsonSpan struct {
		Name    string `json:"name"`
		Parent  int32  `json:"parent"`
		ID      int64  `json:"id"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	n := min(t.n.Load(), int64(len(t.spans)))
	type jsonJob struct {
		Task      int32 `json:"task"`
		Missed    bool  `json:"missed,omitempty"`
		ReleaseNS int64 `json:"release_ns"`
		StartNS   int64 `json:"start_ns"`
		FinishNS  int64 `json:"finish_ns"`
	}
	doc := struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Recorded int64      `json:"spans_recorded"`
		Spans    []jsonSpan `json:"spans"`
		Jobs     []jsonJob  `json:"jobs"` // program clock (simulated or since env start)
	}{Workload: workload, Seed: seed, Recorded: t.n.Load()}
	for _, j := range t.jobs {
		doc.Jobs = append(doc.Jobs, jsonJob{j.task, j.missed, j.release, j.start, j.finish})
	}
	for _, sp := range t.spans[:n] {
		doc.Spans = append(doc.Spans, jsonSpan{seamNames[sp.seam], sp.parent, sp.id, sp.start, sp.end})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, workload+".trace.json"), append(data, '\n'), 0o644)
}

// profileSeams are the long-lived functions whose cumulative CPU share the
// traced run prints as cpu_share.<name>. A symbol that a later change
// renames or removes reads null (not an error): the list is a convenience
// for reading the ledger, not a contract with the program.
var profileSeams = map[string]string{
	"cpu_share.sched_loop":  "core.(*App).schedulerLoop",
	"cpu_share.release_due": "core.(*App).releaseDue",
	"cpu_share.reconfigure": "core.(*App).Reconfigure",
	"cpu_share.record":      "trace.(*Recorder).Record",
	"cpu_share.sim_run":     "sim.(*Engine).Run",
	"cpu_share.task_lookup": "core.(*App).taskIDByName",
}

type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(outDir, workload string) (*cpuProfile, error) {
	path := filepath.Join(outDir, workload+".cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

// stop ends the profile and returns the cumulative share (percent) of each
// profileSeams symbol found in it, read from `go tool pprof -top -cum`.
// Symbols not in the profile, and every symbol when the go tool cannot be
// run, are simply absent from the map. A nil profile stops to nil.
func (p *cpuProfile) stop() map[string]float64 {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: cpu profile: %v\n", err)
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-cum", "-nodecount=400", exe, p.path).Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: go tool pprof: %v (cpu_share.* unavailable)\n", err)
		return nil
	}
	shares := map[string]float64{}
	for _, line := range strings.Split(string(out), "\n") {
		// flat flat% sum% cum cum% name
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[4], "%") {
			continue
		}
		for metric, sym := range profileSeams {
			if strings.HasSuffix(f[5], sym) {
				if v, err := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64); err == nil {
					shares[metric] = v
				}
			}
		}
	}
	return shares
}
