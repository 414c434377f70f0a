package scenario

import (
	"sort"
	"time"

	"github.com/yasmin-rt/yasmin/internal/telemetry"
)

// StreamCheckOpts configures CheckStream.
type StreamCheckOpts struct {
	// AccelWaitBound arms the inversion-duration invariant of the accel
	// replay, exactly like the scenario's accel_wait_bound (zero = off).
	AccelWaitBound time.Duration
	// RelaxedOrder skips the order-dependent checks for exports produced
	// by concurrent OS-thread producers: the strict stream-order check,
	// drain-before-retire (which sequences job records against retirement
	// records), and the accelerator replay (whose park/boost/grant
	// interleaving is only meaningful in recording order). Sim-backed
	// exports (yasmin-stress, yasmin-sim) are strictly ordered and should
	// leave this false; the live checker still covers retires and accel
	// arbitration on the OS backend, so relaxing the replay loses no
	// invariant, only the offline re-proof.
	RelaxedOrder bool
}

// CheckStream re-runs the scenario invariants on a replayed telemetry
// export and returns every violation found (nil means the stream is
// provably complete and consistent):
//
//   - transport: every published record is on the stream or explicitly
//     accounted as dropped, no duplicates, stream order intact
//     (telemetry.Stream.Verify);
//   - admission monotonicity: committed epochs are consecutive from 1;
//   - drain-before-retire: once a task's RetireEvent is on the stream, no
//     further job record of that task may appear until a reconfiguration
//     re-admits it, and the retiring incarnation's last job activity
//     precedes the retirement instant;
//   - accelerator arbitration: the same PIP replay the live checker runs
//     (priority-ordered admission, hold/release pairing, bounded waits).
//
// The data-plane FIFO invariants need the instrumented task bodies and only
// run live; everything the recorder emits is re-verified here from the
// export alone.
func CheckStream(st *telemetry.Stream, opts StreamCheckOpts) []string {
	ck := NewChecker()
	ck.accelWaitBound = opts.AccelWaitBound
	ck.mu.Lock()
	defer ck.mu.Unlock()
	for _, v := range st.Verify(!opts.RelaxedOrder) {
		ck.violationLocked("%s", v)
	}
	ck.checkEpochs(st.Reconfigs)
	if !opts.RelaxedOrder {
		ck.checkRetireStream(st.Events)
		ck.checkAccel(st.Accels)
	}
	return ck.renderLocked()
}

// CheckStreams reconciles the per-node telemetry exports of one cluster
// run (one Stream per node, any order) and returns every violation found:
//
//   - each stream individually passes CheckStream, prefixed with its node;
//   - every stream carries one consistent node stamp, and no two streams
//     claim the same node (a corrupt merge is reported loudly, not
//     reconciled);
//   - cluster-epoch histories agree: every node's export must record the
//     identical sequence of committed cluster epochs — a divergence means
//     a node ran (and stamped frames) in a stale epoch;
//   - frame accounting closes: every recorded send whose destination
//     stream is present matches exactly one receive or one recorded drop
//     on that destination (an unmatched send is silent loss; a receive or
//     drop without a send is a phantom frame), and per remote publisher
//     the received frame sequences are strictly increasing (the transport
//     FIFO discipline, re-proven offline).
//
// A single-element slice degrades to CheckStream plus the self-consistency
// checks; sends to nodes whose stream was not supplied are left
// unreconciled rather than flagged.
func CheckStreams(sts []*telemetry.Stream, opts StreamCheckOpts) []string {
	// Per-stream verdicts run on their own checkers BEFORE the reconciling
	// checker's lock is taken: Checker.mu is self-ranked, so nesting two
	// instances would trip the lock-order gate (and encode a real deadlock
	// shape if the instances ever aliased).
	perStream := make([][]string, len(sts))
	for i, st := range sts {
		if st.Node() >= 0 {
			perStream[i] = CheckStream(st, opts)
		}
	}

	ck := NewChecker()
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if len(sts) == 0 {
		ck.violationLocked("no streams to check")
		return ck.renderLocked()
	}
	byNode := make(map[int]*telemetry.Stream, len(sts))
	order := make([]int, 0, len(sts))
	for i, st := range sts {
		n := st.Node()
		if n < 0 {
			ck.violationLocked("stream %d: mixed node stamps (corrupt merge input)", i)
			continue
		}
		if byNode[n] != nil {
			ck.violationLocked("stream %d: node %d already supplied by another file", i, n)
			continue
		}
		byNode[n] = st
		order = append(order, n)
		for _, v := range perStream[i] {
			ck.violationLocked("node %d: %s", n, v)
		}
	}
	sort.Ints(order)

	// Cluster-epoch agreement: identical histories everywhere.
	if len(order) > 1 {
		ref := byNode[order[0]]
		for _, n := range order[1:] {
			if !sameEpochHistory(ref.CEpochs, byNode[n].CEpochs) {
				ck.violationLocked("cluster epoch history diverges: node %d saw %v, node %d saw %v (stale-epoch execution)",
					order[0], epochList(ref.CEpochs), n, epochList(byNode[n].CEpochs))
			}
		}
	}

	// Frame reconciliation across files.
	type frameKey struct {
		origin, dst, pub int
		topic            string
		fseq             uint64
	}
	sends := make(map[frameKey]int)
	recvs := make(map[frameKey]int)
	type pubKey struct {
		origin, pub int
		topic       string
	}
	for _, n := range order {
		lastRecv := make(map[pubKey]uint64)
		for _, f := range byNode[n].Frames {
			k := frameKey{origin: f.Origin, dst: f.Dst, pub: f.Pub, topic: f.Topic, fseq: f.FSeq}
			switch f.Dir {
			case telemetry.FrameSend:
				if f.Origin != n {
					ck.violationLocked("node %d: send record claims origin %d", n, f.Origin)
				}
				sends[k]++
				if sends[k] == 2 {
					ck.violationLocked("node %d: frame %s pub %d seq %d to node %d sent twice", n, f.Topic, f.Pub, f.FSeq, f.Dst)
				}
			case telemetry.FrameRecv, telemetry.FrameDrop:
				if f.Dst != n {
					ck.violationLocked("node %d: %s record claims destination %d", n, f.Dir, f.Dst)
				}
				recvs[k]++
				if recvs[k] == 2 {
					ck.violationLocked("node %d: frame %s pub %d seq %d from node %d accounted twice", n, f.Topic, f.Pub, f.FSeq, f.Origin)
				}
				if f.Dir == telemetry.FrameRecv {
					pk := pubKey{origin: f.Origin, pub: f.Pub, topic: f.Topic}
					if last, ok := lastRecv[pk]; ok && f.FSeq <= last {
						ck.violationLocked("node %d: topic %s pub %d (node %d): received frame seq %d after %d (transport FIFO broken)",
							n, f.Topic, f.Pub, f.Origin, f.FSeq, last)
					}
					lastRecv[pk] = f.FSeq
				}
			}
		}
	}
	for k := range sends { //yasmin:orderinvariant violation set is order-independent
		if byNode[k.dst] == nil {
			continue // destination's export not supplied; can't reconcile
		}
		if recvs[k] == 0 {
			ck.violationLocked("frame %s pub %d seq %d, node %d -> %d: sent but neither received nor accounted dropped (silent loss)",
				k.topic, k.pub, k.fseq, k.origin, k.dst)
		}
	}
	for k := range recvs { //yasmin:orderinvariant violation set is order-independent
		if byNode[k.origin] == nil {
			continue
		}
		if sends[k] == 0 {
			ck.violationLocked("frame %s pub %d seq %d, node %d -> %d: received/dropped but never sent (phantom frame)",
				k.topic, k.pub, k.fseq, k.origin, k.dst)
		}
	}

	return ck.renderLocked()
}

// sameEpochHistory compares two cluster-epoch record sequences by epoch.
func sameEpochHistory(a, b []telemetry.ClusterEpochRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Epoch != b[i].Epoch {
			return false
		}
	}
	return true
}

// epochList renders an epoch history for a violation message.
func epochList(recs []telemetry.ClusterEpochRecord) []uint64 {
	out := make([]uint64, len(recs))
	for i := range recs {
		out[i] = recs[i].Epoch
	}
	return out
}

// checkRetireStream replays drain-before-retire from the event stream.
// Unlike the live check (which relies on instrumented churn bodies with
// per-incarnation-unique names), the stream sees every task — including
// mode-switch retirees that are later re-admitted under the same name — so
// incarnations are tracked by balancing RetireEvents against the admissions
// reconfiguration records report.
func (ck *Checker) checkRetireStream(events []telemetry.Event) {
	type watch struct {
		// live balances incarnations: the statically admitted one plus one
		// per ReconfigRecord.Admitted entry, minus one per RetireEvent.
		live                  int
		lastStart, lastFinish time.Duration
	}
	tasks := make(map[string]*watch)
	get := func(name string) *watch {
		w := tasks[name]
		if w == nil {
			w = &watch{live: 1}
			tasks[name] = w
		}
		return w
	}
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case telemetry.KindJob:
			w := get(ev.Job.Task)
			if w.live <= 0 {
				ck.violationLocked("task %s: job %d on stream after retirement (drain-before-retire violated in replay)",
					ev.Job.Task, ev.Job.Job)
			}
			if ev.Job.Start > w.lastStart {
				w.lastStart = ev.Job.Start
			}
			if ev.Job.Finish > w.lastFinish {
				w.lastFinish = ev.Job.Finish
			}
		case telemetry.KindRetire:
			w := get(ev.Retire.Task)
			w.live--
			if w.live <= 0 {
				// No overlapping incarnation: the activity seen so far all
				// belongs to the retiree and must precede the retirement.
				if w.lastStart > ev.Retire.At {
					ck.violationLocked("task %s: job started at %v after retirement at %v (drain-before-retire violated in replay)",
						ev.Retire.Task, w.lastStart, ev.Retire.At)
				}
				if w.lastFinish > ev.Retire.At {
					ck.violationLocked("task %s: job finished at %v after retirement at %v (drain-before-retire violated in replay)",
						ev.Retire.Task, w.lastFinish, ev.Retire.At)
				}
			}
			w.lastStart, w.lastFinish = 0, 0
		case telemetry.KindReconfig:
			for _, name := range ev.Reconfig.Admitted {
				if w := tasks[name]; w != nil {
					w.live++
				}
				// Unseen names need no entry: get() seeds live=1 on first
				// sight, which is exactly this admission.
			}
		}
	}
}
