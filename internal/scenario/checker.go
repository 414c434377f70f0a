package scenario

import (
	"fmt"
	"sync"
	"time"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// maxViolations caps recorded violation strings so a systematically broken
// run reports a readable sample instead of gigabytes.
const maxViolations = 64

// Context stamps a violation with its provenance, so a reproducer shrunk
// out of a fuzz run is self-describing: the message alone names the
// generator seed and the churn epoch current when the invariant broke.
type Context struct {
	// Scenario is the scenario name ("fuzz-17-accel_chain" for generated
	// ones, which encodes the generator seed and traffic shape).
	Scenario string `json:"scenario,omitempty"`
	// Seed is the scenario seed that reproduces the run byte-for-byte.
	Seed int64 `json:"seed"`
	// Epoch is the reconfiguration epoch current when the violation was
	// recorded (0 = before any churn committed).
	Epoch int `json:"epoch"`
	// Node is the cluster node (-1 for single-node runs).
	Node int `json:"node"`
}

// Violation is one invariant breach plus the context that reproduces it.
type Violation struct {
	Msg     string  `json:"msg"`
	Context Context `json:"context"`
}

// String renders the violation with its context suffix; a zero context
// (offline replays of foreign streams) renders the bare message.
func (v Violation) String() string {
	if v.Context == (Context{}) {
		return v.Msg
	}
	if v.Context.Node >= 0 {
		return fmt.Sprintf("%s [scenario=%s seed=%d epoch=%d node=%d]",
			v.Msg, v.Context.Scenario, v.Context.Seed, v.Context.Epoch, v.Context.Node)
	}
	return fmt.Sprintf("%s [scenario=%s seed=%d epoch=%d]",
		v.Msg, v.Context.Scenario, v.Context.Seed, v.Context.Epoch)
}

// TopicAccount is one instrumented topic's data-plane totals.
type TopicAccount struct {
	Topic     string `json:"topic"`
	Published int64  `json:"published"`
	Delivered int64  `json:"delivered"` // summed over subscribers
}

// Checker observes a scenario run from inside the instrumented task bodies
// and verifies the middleware's runtime invariants:
//
//   - no lost topic entries: under Reject every successful publish is
//     eventually consumed by every subscriber (up to the final retained
//     backlog, which is bounded by the capacity);
//   - per-publisher FIFO: each subscriber sees each publisher's sequence
//     numbers strictly increasing — consecutively under Reject (no holes),
//     monotonically under DropOldest/Latest (drops allowed, reordering not);
//   - drain-before-retire: a retired task's last job activity precedes its
//     RetireEvent instant — nothing runs past retirement;
//   - admission monotonicity: committed epochs are consecutive, rejected
//     transactions leave the epoch (and the task set) untouched — on every
//     node of a cluster, which commits at one common cluster epoch;
//   - accelerator arbitration (replayed from the trace's AccelEvents): no
//     instance is granted or taken while a strictly more urgent job is
//     parked on the pool (a boosted holder finishes — releases — before
//     any job it blocks gets the accelerator), holds and grants pair up
//     structurally, and with accel_wait_bound set, no park lasts longer
//     than the bound (inversion duration limited by the longest critical
//     section the scenario author budgeted for).
//
// On the simulation backend every task body runs lock-step serialised, but
// the checker locks anyway so the same instrumentation works on OSEnv.
type Checker struct {
	mu         sync.Mutex
	ctx        Context // provenance stamped on every violation
	topics     []*topicCheck
	drains     map[string]*drainWatch
	violations []Violation
	dropped    int // violations beyond maxViolations

	published int64
	delivered int64

	injected int64 // injected task errors

	// overlapJobs marks runs in which two jobs of one task may execute at
	// once: the wall-clock backend under the global mapping. publish then
	// serialises each publisher's stamp-publish-commit sequence. Elsewhere
	// (the simulation backend, partitioned runs) such an overlap would be a
	// defect, and the "raced itself" clause stays armed to catch it.
	overlapJobs bool

	// admission bookkeeping, appended by the churn driver
	attempts []admissionAttempt

	// accelWaitBound arms the inversion-duration invariant (zero = off);
	// accelStats sums the Finish replays over the nodes.
	accelWaitBound time.Duration
	accelStats     AccelStats
}

// AccelStats summarises the accelerator arbitration of one run.
type AccelStats struct {
	Acquires int64 // free-instance takes plus direct grants
	Parks    int64
	Boosts   int64
	MaxWait  time.Duration // longest park→grant/requeue wait
}

// topicCheck tracks one instrumented topic.
type topicCheck struct {
	name     string
	policy   core.OverflowPolicy
	capacity int
	// lossy relaxes the Reject invariants for cross-node topics under
	// injected frame loss/reorder: per-publisher FIFO must still hold
	// (the ingress filter guarantees it), but sequence gaps and unbounded
	// missing tails are legal — the frames died on the wire, on purpose.
	lossy bool
	// published[p] doubles as publisher p's last assigned sequence number:
	// sequences are only consumed by successful publishes.
	published []int64
	// pubMu[p] serialises publisher p's publishes under overlapJobs.
	pubMu []sync.Mutex
	subs  []*subWatch
}

// subWatch is one subscriber's view: last seen sequence and consumed count
// per publisher.
type subWatch struct {
	lastSeq  []int64
	consumed []int64
}

// drainWatch records the last observed job activity of a churn task.
type drainWatch struct {
	lastStart  time.Duration
	lastFinish time.Duration
	jobs       int64
}

// admissionAttempt is one Reconfigure call as the driver saw it.
type admissionAttempt struct {
	at          time.Duration
	action      string
	err         error
	epochBefore int
	epochAfter  int
}

// NewChecker creates an empty checker.
func NewChecker() *Checker {
	return &Checker{drains: make(map[string]*drainWatch)}
}

// SetContext installs the provenance stamped on every violation recorded
// from now on. Runners call it once before the run starts; the churn
// driver keeps the epoch current through noteAttempt.
func (ck *Checker) SetContext(ctx Context) {
	ck.mu.Lock()
	ck.ctx = ctx
	ck.mu.Unlock()
}

// violationLocked records one violation (bounded) stamped with the
// current context. Callers hold ck.mu.
func (ck *Checker) violationLocked(format string, args ...any) {
	if len(ck.violations) >= maxViolations {
		ck.dropped++
		return
	}
	ck.violations = append(ck.violations, Violation{Msg: fmt.Sprintf(format, args...), Context: ck.ctx})
}

// renderLocked converts the recorded violations to their string forms,
// appending the drop summary. Callers hold ck.mu.
func (ck *Checker) renderLocked() []string {
	if len(ck.violations) == 0 && ck.dropped == 0 {
		return nil
	}
	out := make([]string, 0, len(ck.violations)+1)
	for _, v := range ck.violations {
		out = append(out, v.String())
	}
	if ck.dropped > 0 {
		out = append(out, fmt.Sprintf("... and %d more violations", ck.dropped))
	}
	return out
}

// violationf is violationLocked for callers that do NOT hold ck.mu (the
// churn drivers and instrumented task bodies, which race on OSEnv).
func (ck *Checker) violationf(format string, args ...any) {
	ck.mu.Lock()
	ck.violationLocked(format, args...)
	ck.mu.Unlock()
}

// addTopic registers an instrumented topic and returns its check index.
func (ck *Checker) addTopic(name string, policy core.OverflowPolicy, capacity, pubs, subs int) int {
	tc := &topicCheck{
		name:      name,
		policy:    policy,
		capacity:  capacity,
		published: make([]int64, pubs),
		pubMu:     make([]sync.Mutex, pubs),
	}
	for i := 0; i < subs; i++ {
		tc.subs = append(tc.subs, &subWatch{
			lastSeq:  make([]int64, pubs),
			consumed: make([]int64, pubs),
		})
	}
	ck.topics = append(ck.topics, tc)
	return len(ck.topics) - 1
}

// setLossy marks topic ti as riding a faulty cross-node wire (see
// topicCheck.lossy).
func (ck *Checker) setLossy(ti int) {
	ck.mu.Lock()
	ck.topics[ti].lossy = true
	ck.mu.Unlock()
}

// seqEncode packs (publisher index, sequence) into the published value;
// 15 bits of publisher fan-in and 48 bits of sequence are beyond any
// scenario this engine can physically run.
func seqEncode(pub int, seq int64) int64 { return int64(pub)<<48 | seq }

func seqDecode(v int64) (pub int, seq int64) { return int(v >> 48), v & (1<<48 - 1) }

// publish stamps publisher p's next sequence number on topic ti, hands the
// encoded value to pub, and commits the number when pub succeeds — one
// call, so that where jobs of one task overlap (overlapJobs) the numbers
// are taken and committed in the order the values enter the buffer. A
// failed publish commits nothing: the number is reused.
func (ck *Checker) publish(ti, p int, pub func(v int64) error) error {
	if ck.overlapJobs {
		mu := &ck.topics[ti].pubMu[p]
		mu.Lock()
		defer mu.Unlock()
	}
	ck.mu.Lock()
	seq := ck.topics[ti].published[p] + 1
	ck.mu.Unlock()
	if err := pub(seqEncode(p, seq)); err != nil {
		return err
	}
	ck.notePublished(ti, p, seq)
	return nil
}

// notePublished commits a successful publish of sequence seq.
func (ck *Checker) notePublished(ti, p int, seq int64) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	tc := ck.topics[ti]
	if seq != tc.published[p]+1 {
		ck.violationLocked("topic %s pub %d: published seq %d after %d (publisher body raced itself)",
			tc.name, p, seq, tc.published[p])
	}
	tc.published[p] = seq
	ck.published++
}

// noteTaken verifies one taken value against subscriber si's FIFO state.
func (ck *Checker) noteTaken(ti, si int, v any) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	tc := ck.topics[ti]
	raw, ok := v.(int64)
	if !ok {
		ck.violationLocked("topic %s sub %d: foreign value %T in buffer", tc.name, si, v)
		return
	}
	pub, seq := seqDecode(raw)
	if pub < 0 || pub >= len(tc.published) {
		ck.violationLocked("topic %s sub %d: value from unknown publisher %d", tc.name, si, pub)
		return
	}
	sw := tc.subs[si]
	last := sw.lastSeq[pub]
	switch {
	case seq <= last:
		ck.violationLocked("topic %s sub %d: pub %d seq %d after %d (FIFO violated: reorder or duplicate)",
			tc.name, si, pub, seq, last)
	case tc.policy == core.Reject && !tc.lossy && seq != last+1:
		ck.violationLocked("topic %s sub %d: pub %d seq %d after %d under Reject (entries lost in a gap)",
			tc.name, si, pub, seq, last)
	}
	sw.lastSeq[pub] = seq
	sw.consumed[pub]++
	ck.delivered++
}

// noteStart/noteFinish instrument churn-task job lifecycles for the
// drain-before-retire check. Churn task names are unique per incarnation.
func (ck *Checker) noteStart(name string, at time.Duration) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	w := ck.drains[name]
	if w == nil {
		w = &drainWatch{}
		ck.drains[name] = w
	}
	if at > w.lastStart {
		w.lastStart = at
	}
	w.jobs++
}

func (ck *Checker) noteFinish(name string, at time.Duration) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if w := ck.drains[name]; w != nil && at > w.lastFinish {
		w.lastFinish = at
	}
}

// noteInjected counts one deliberately injected task error.
func (ck *Checker) noteInjected() {
	ck.mu.Lock()
	ck.injected++
	ck.mu.Unlock()
}

// noteAttempt records one Reconfigure outcome and keeps the violation
// context's epoch current, so later violations name the churn epoch they
// happened under.
func (ck *Checker) noteAttempt(a admissionAttempt) {
	ck.mu.Lock()
	ck.attempts = append(ck.attempts, a)
	if a.epochAfter > ck.ctx.Epoch {
		ck.ctx.Epoch = a.epochAfter
	}
	ck.mu.Unlock()
}

// Finish runs the end-of-run verdicts against the run's applications — one
// per node, a single one without a nodes section — and returns every
// violation found (nil means a clean run). With several nodes, each
// node's own verdicts carry its id in their context.
func (ck *Checker) Finish(apps ...*core.App) []string {
	ck.mu.Lock()
	defer ck.mu.Unlock()

	ck.checkTopicsLocked()

	// Admission monotonicity: commits bump the driver's epoch (the cluster
	// epoch in a cluster) by exactly one and rejections don't move it; the
	// driver itself flags any rejection that is not the typed
	// schedulability error.
	commits := 0
	for _, a := range ck.attempts {
		if a.err == nil {
			commits++
			if a.epochAfter != a.epochBefore+1 {
				ck.violationLocked("%s at %v: committed but epoch went %d -> %d",
					a.action, a.at, a.epochBefore, a.epochAfter)
			}
		} else if a.epochAfter != a.epochBefore {
			ck.violationLocked("%s at %v: rejected (%v) but epoch went %d -> %d",
				a.action, a.at, a.err, a.epochBefore, a.epochAfter)
		}
	}

	node := ck.ctx.Node
	var taskErrors int64
	for i, app := range apps {
		if len(apps) > 1 {
			ck.ctx.Node = i
		}
		ck.finishAppLocked(app, commits)
		taskErrors += app.TaskErrors()
	}
	ck.ctx.Node = node

	// Failure injection round-trips through the error accounting.
	if taskErrors != ck.injected {
		ck.violationLocked("task errors: middleware counted %d, checker injected %d", taskErrors, ck.injected)
	}
	return ck.renderLocked()
}

// finishAppLocked runs the verdicts of one node's application; commits is
// the number of transactions the driver committed. Callers hold ck.mu.
func (ck *Checker) finishAppLocked(app *core.App, commits int) {
	// Drain-before-retire: no retired task saw job activity past its
	// retirement instant.
	for _, re := range app.Recorder().Retires() {
		w := ck.drains[re.Task]
		if w == nil {
			continue // not an instrumented churn task (mode-switch retiree)
		}
		if w.lastStart > re.At {
			ck.violationLocked("task %s: job started at %v after retirement at %v (drain-before-retire violated)",
				re.Task, w.lastStart, re.At)
		}
		if w.lastFinish > re.At {
			ck.violationLocked("task %s: job finished at %v after retirement at %v (drain-before-retire violated)",
				re.Task, w.lastFinish, re.At)
		}
	}

	// The application committed exactly the driver's transactions, at
	// consecutive epochs: in a cluster, a node ahead of or behind the
	// others means a two-phase commit was not atomic.
	recs := app.Recorder().Reconfigs()
	ck.checkEpochs(recs)
	if commits != len(recs) {
		ck.violationLocked("driver committed %d transactions, recorder has %d epochs", commits, len(recs))
	}

	// Accelerator arbitration: replay the PIP events.
	ck.checkAccel(app.Recorder().AccelEvents())

	// Scheduler counters: the epoch snapshot is published exactly once at
	// Start plus once per committed reconfiguration, so a count drift means
	// lock-free readers ran against a stale view.
	st := app.SchedStats()
	if st.ViewPublishes > 0 && st.ViewPublishes != int64(app.Epoch())+1 {
		ck.violationLocked("schedView published %d times over %d epochs (want epochs+1): snapshot out of sync with commits",
			st.ViewPublishes, app.Epoch())
	}
}

// checkTopicsLocked runs the no-lost-entries verdict: every subscriber
// consumed everything but the final retained backlog (Reject bounds it by
// the capacity; lossy policies bound nothing, their loss shows up as —
// allowed — seq gaps; lossy cross-node topics likewise). Callers hold
// ck.mu.
func (ck *Checker) checkTopicsLocked() {
	for _, tc := range ck.topics {
		for si, sw := range tc.subs {
			for p := range tc.published {
				missing := tc.published[p] - sw.lastSeq[p]
				if missing < 0 {
					ck.violationLocked("topic %s sub %d: consumed past publisher %d (%d > %d)",
						tc.name, si, p, sw.lastSeq[p], tc.published[p])
					continue
				}
				if tc.policy == core.Reject && !tc.lossy && missing > int64(tc.capacity) {
					ck.violationLocked("topic %s sub %d: %d entries from pub %d unaccounted (backlog bound %d): entries lost",
						tc.name, si, missing, p, tc.capacity)
				}
			}
		}
	}
}

// checkEpochs verifies that committed reconfiguration records carry
// consecutive epochs starting at 1 — shared between the live verdict and
// the telemetry-stream replay (CheckStream).
func (ck *Checker) checkEpochs(recs []trace.ReconfigRecord) {
	for i, r := range recs {
		if r.Epoch != i+1 {
			ck.violationLocked("reconfig record %d has epoch %d (epochs must be consecutive)", i, r.Epoch)
		}
	}
}

// checkAccel replays the recorded accelerator-arbitration events and
// verifies the PIP invariants: priority-ordered admission (no grant or
// acquisition while a strictly more urgent job is parked on the pool —
// which is exactly "a boosted holder must finish, i.e. release, before any
// job it blocks runs on the accelerator"), structural hold/release pairing
// per instance, and — when accel_wait_bound is set — a cap on how long any
// job stays parked (inversion duration bounded by the critical-section
// budget).
func (ck *Checker) checkAccel(events []trace.AccelEvent) {
	type jobKey struct {
		task string
		job  int64
	}
	type parkInfo struct {
		pool string
		prio int64
		at   time.Duration
	}
	parked := make(map[jobKey]parkInfo)
	holders := make(map[string]jobKey) // instance -> holder
	var st AccelStats

	// endWait closes one park episode: bound check and stats.
	endWait := func(k jobKey, p parkInfo, now time.Duration, how string) {
		wait := now - p.at
		if wait > st.MaxWait {
			st.MaxWait = wait
		}
		if ck.accelWaitBound > 0 && wait > ck.accelWaitBound {
			ck.violationLocked("accel %s: job %s#%d waited %v for %s (bound %v): inversion not bounded by the critical-section budget",
				p.pool, k.task, k.job, wait, how, ck.accelWaitBound)
		}
	}
	// mostUrgentParked flags an admission that overtakes a parked waiter.
	checkOrder := func(pool string, k jobKey, prio int64, now time.Duration, how string) {
		for wk, p := range parked { //yasmin:orderinvariant every overtaken waiter violates independently
			if wk == k || p.pool != pool {
				continue
			}
			if p.prio < prio {
				ck.violationLocked("accel %s at %v: %s to %s#%d (prio %d) while more urgent %s#%d (prio %d) was parked",
					pool, now, how, k.task, k.job, prio, wk.task, wk.job, p.prio)
			}
		}
	}

	for _, e := range events {
		k := jobKey{task: e.Task, job: e.Job}
		switch e.Kind {
		case trace.AccelPark:
			st.Parks++
			if p, dup := parked[k]; dup {
				ck.violationLocked("accel %s at %v: %s#%d parked again while already parked on %s",
					e.Pool, e.At, e.Task, e.Job, p.pool)
			}
			parked[k] = parkInfo{pool: e.Pool, prio: e.Prio, at: e.At}
		case trace.AccelBoost:
			st.Boosts++
			// A chain boost re-prioritises parked holders: keep the replay's
			// view of their urgency current.
			if p, ok := parked[k]; ok {
				p.prio = e.Prio
				parked[k] = p
			}
		case trace.AccelAcquire, trace.AccelGrant:
			st.Acquires++
			how := "acquire"
			if e.Kind == trace.AccelGrant {
				how = "grant"
			}
			checkOrder(e.Pool, k, e.Prio, e.At, how)
			if h, busy := holders[e.Accel]; busy {
				ck.violationLocked("accel instance %s at %v: %s to %s#%d while %s#%d still holds it",
					e.Accel, e.At, how, e.Task, e.Job, h.task, h.job)
			}
			holders[e.Accel] = k
			if p, ok := parked[k]; ok {
				endWait(k, p, e.At, how)
				delete(parked, k)
			} else if e.Kind == trace.AccelGrant {
				ck.violationLocked("accel %s at %v: grant to %s#%d which was not parked", e.Pool, e.At, e.Task, e.Job)
			}
		case trace.AccelRequeue:
			// The waiter leaves the list for a fresh scheduling pass; its
			// park episode ends here (it may park again and is then timed
			// anew).
			if p, ok := parked[k]; ok {
				endWait(k, p, e.At, "requeue")
				delete(parked, k)
			}
		case trace.AccelRelease:
			if h, busy := holders[e.Accel]; !busy {
				ck.violationLocked("accel instance %s at %v: released by %s#%d but no hold was recorded",
					e.Accel, e.At, e.Task, e.Job)
			} else if h != k {
				ck.violationLocked("accel instance %s at %v: released by %s#%d but held by %s#%d",
					e.Accel, e.At, e.Task, e.Job, h.task, h.job)
			}
			delete(holders, e.Accel)
		}
	}
	ck.accelStats.Acquires += st.Acquires
	ck.accelStats.Parks += st.Parks
	ck.accelStats.Boosts += st.Boosts
	ck.accelStats.MaxWait = max(ck.accelStats.MaxWait, st.MaxWait)
}

// AccelStats returns the arbitration counters gathered by Finish.
func (ck *Checker) AccelStats() AccelStats {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.accelStats
}

// Published and Delivered return the checker's data-plane counters.
func (ck *Checker) Published() int64 {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.published
}

// Delivered returns the total entries subscribers consumed.
func (ck *Checker) Delivered() int64 {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.delivered
}

// TopicTotals returns the per-topic data-plane accounting, in topic
// registration order (deterministic for a given scenario).
func (ck *Checker) TopicTotals() []TopicAccount {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	out := make([]TopicAccount, 0, len(ck.topics))
	for _, tc := range ck.topics {
		ta := TopicAccount{Topic: tc.name}
		for _, n := range tc.published {
			ta.Published += n
		}
		for _, sw := range tc.subs {
			for _, n := range sw.consumed {
				ta.Delivered += n
			}
		}
		out = append(out, ta)
	}
	return out
}
