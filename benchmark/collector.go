package main

import (
	"math"
	"sync/atomic"
	"time"

	"github.com/yasmin-rt/yasmin/internal/trace"
)

// collector is the benchmark's trace.Stream: the program hands it every
// JobRecord / ReconfigRecord / RetireEvent through core.Config.Telemetry
// (or scenario.RunOpts.Telemetry). It runs on the program's record path,
// so everything on it is a handful of atomic adds into fixed-size
// histograms: no mutex, no append, no allocation per job. The traced run
// additionally fills per-task histograms and keeps the first records in a
// preallocated array (see newTracedCollector); the untraced run, which is
// where the end-to-end numbers come from, leaves both nil.
type collector struct {
	t0 time.Time

	// sampleBelow restricts the samples (latency histograms, sampled and
	// sampledMissed) to tasks with TaskID < sampleBelow; 0 samples every
	// task. os_reconfig10k declares its 16 foreground tasks first and samples
	// only those.
	sampleBelow int
	// muted suspends sampling (warm-up).
	muted atomic.Bool

	jobs                   atomic.Int64 // every job record
	graphs                 atomic.Int64 // end-to-end "graph:<sink>" records, not jobs
	sampled, sampledMissed atomic.Int64
	dispatch               hist // Start - Release
	response               hist // Finish - Release

	reconfigs atomic.Int64
	retires   atomic.Int64
	pause     hist
	pauseMax  atomic.Int64

	// first is the resource snapshot taken on the first record, for
	// workloads driven by scenario.RunWith: the benchmark cannot stand
	// between its set-up and its drive phase, so the first completed job
	// marks the boundary. Written once, read after the run.
	first usage

	sliceClock
	winClock

	// Traced run only.
	perTask []taskHists
	kept    []keptJob
	nkept   atomic.Int64
}

type taskHists struct {
	dispatch hist // Start - Release
	exec     hist // Finish - Start
}

// keptJob is the compact form the traced run retains (a JobRecord is ~150
// bytes; the traced sim_hot64 run sees millions).
type keptJob struct {
	task                   int32
	missed                 bool
	release, start, finish int64
}

// sliceClock cuts simulated time into slices of sliceNS and times each one
// on the host clock: the record whose simulated timestamp crosses the next
// boundary closes the slice. That is the latency a user of the simulator
// sees: how long the host takes to advance simulated time by one slice, and
// how much longer when a slice holds a mode switch or a GC cycle. SimEnv
// runs one proc at a time, so crossings never race each other; the fields
// are atomics only because records arrive from different goroutines.
type sliceClock struct {
	clockT0   time.Time
	sliceNS   int64 // 0 disables
	sliceNext atomic.Int64
	sliceHost atomic.Int64
	slices    hist // host ns per slice
}

func (s *sliceClock) init(t0 time.Time, sliceNS int64) {
	s.clockT0, s.sliceNS = t0, sliceNS
	s.sliceNext.Store(sliceNS)
}

//go:noinline
func (s *sliceClock) cross(simNS int64) {
	next := s.sliceNext.Load()
	k := (simNS-next)/s.sliceNS + 1 // > 1 only when a whole slice saw no record
	now := int64(time.Since(s.clockT0))
	prev := s.sliceHost.Swap(now)
	s.sliceNext.Store(next + k*s.sliceNS)
	if prev == 0 {
		// First boundary: the slice began at App.Start, which this clock
		// did not see; its host time would include set-up.
		return
	}
	s.slices.addN((now-prev)/k, k)
}

func (s *sliceClock) observe(simNS int64) {
	if s.sliceNS > 0 && simNS >= s.sliceNext.Load() {
		s.cross(simNS)
	}
}

// winClock cuts the simulated clock into the measuring windows of a
// simulated repetition (see foldWindows): the record whose simulated
// timestamp crosses the next boundary closes the window, with a resource
// snapshot. The simulation is deterministic, so in every repetition of a run
// it is the same record that does, and the window holds the same work. The
// latency of a window is the host time it took per slice of simulated time.
// After the last window the collector measures the live heap; the rest of the
// repetition (the last, partial window and the forced collection) is not
// measured.
type winClock struct {
	winNS    int64        // simulated ns per window; 0 disables
	winCount int64        // windows to cut
	winIdx   int64        // boundaries crossed
	winNext  atomic.Int64 // the simulated instant that closes the current window
	winLast  usage
	winJobs  int64
	windows  []window
	heapLive uint64
}

// cutWindows makes the collector cut a repetition of size simulated time
// into windows of win. The last boundary it can count on a record to cross
// is the last but one: the run stops at size. Does nothing when win is 0 (a
// set-up-only repetition).
func (c *collector) cutWindows(win, size time.Duration) {
	if win <= 0 || size/win < 2 {
		return
	}
	c.winNS, c.winCount = int64(win), int64(size/win)-1
	c.winNext.Store(c.winNS)
	c.windows = make([]window, 0, c.winCount)
}

//go:noinline
func (c *collector) cutWindow(simNS int64) {
	next := c.winNext.Load()
	k := (simNS-next)/c.winNS + 1 // > 1 only when a whole window saw no record
	now := snapshot(c.t0)
	d, jobs := now.sub(c.winLast), c.jobs.Load()
	c.windows = append(c.windows, window{usage: d, ops: jobs - c.winJobs, lat: int64(d.wall) * c.sliceNS / (k * c.winNS)})
	c.winLast, c.winJobs = now, jobs
	if c.winIdx += k; c.winIdx < c.winCount {
		c.winNext.Store(next + k*c.winNS)
		return
	}
	c.winNext.Store(math.MaxInt64)
	c.heapLive = heapLive()
}

func newCollector(sampleBelow int, sliceNS int64) *collector {
	c := &collector{t0: time.Now(), sampleBelow: sampleBelow}
	c.sliceClock.init(c.t0, sliceNS)
	return c
}

// newTracedCollector adds per-task histograms for task ids below ntasks
// and room to keep the first keep records.
func newTracedCollector(sampleBelow int, sliceNS int64, ntasks, keep int) *collector {
	c := newCollector(sampleBelow, sliceNS)
	c.perTask = make([]taskHists, ntasks)
	c.kept = make([]keptJob, keep)
	return c
}

func (c *collector) StreamJob(j trace.JobRecord) {
	// A sink node of a task graph completes with two records: its own job
	// and the graph's end-to-end one, named "graph:<task>".
	if len(j.Task) > 6 && j.Task[:6] == "graph:" {
		c.graphs.Add(1)
		return
	}
	if c.jobs.Add(1) == 1 {
		c.first = snapshot(c.t0)
		c.winLast = c.first
	}
	if (c.sampleBelow == 0 || j.TaskID < c.sampleBelow) && !c.muted.Load() {
		c.sampled.Add(1)
		if j.Missed {
			c.sampledMissed.Add(1)
		}
		c.dispatch.add(int64(j.Start - j.Release))
		c.response.add(int64(j.Finish - j.Release))
	}
	c.observe(int64(j.Finish))
	if c.winNS > 0 && int64(j.Finish) >= c.winNext.Load() {
		c.cutWindow(int64(j.Finish))
	}
	if c.perTask != nil {
		if j.TaskID < len(c.perTask) {
			th := &c.perTask[j.TaskID]
			th.dispatch.add(int64(j.Start - j.Release))
			th.exec.add(int64(j.Finish - j.Start))
		}
		if i := c.nkept.Add(1) - 1; i < int64(len(c.kept)) {
			c.kept[i] = keptJob{task: int32(j.TaskID), missed: j.Missed,
				release: int64(j.Release), start: int64(j.Start), finish: int64(j.Finish)}
		}
	}
}

func (c *collector) StreamReconfig(r trace.ReconfigRecord) {
	c.reconfigs.Add(1)
	p := int64(r.Pause)
	c.pause.add(p)
	for {
		m := c.pauseMax.Load()
		if p <= m || c.pauseMax.CompareAndSwap(m, p) {
			return
		}
	}
}

func (c *collector) StreamRetire(trace.RetireEvent) { c.retires.Add(1) }

func (c *collector) StreamAccel(trace.AccelEvent) {}

// keptJobs returns the retained records (traced run).
func (c *collector) keptJobs() []keptJob {
	n := c.nkept.Load()
	if n > int64(len(c.kept)) {
		n = int64(len(c.kept))
	}
	return c.kept[:n]
}
