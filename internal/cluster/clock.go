package cluster

import (
	"sync"
	"time"
)

// Clock is the per-node clock-discipline state: a PTP-style offset
// estimator fed by two-way sync exchanges over the data plane's
// timestamped frames.
//
// The exchange is the classic one: the node sends a request carrying its
// local t1; the reference node answers with its receive time t2 and send
// time t3; the answer arrives at local t4. Assuming symmetric path
// delay, the node's offset to the reference clock is
//
//	offset = ((t2 - t1) + (t3 - t4)) / 2
//
// (positive: the reference clock is ahead of ours). Samples are smoothed
// with an EWMA. On SimEnv the node's "local clock" is env.Now() plus a
// configured skew, so tests can inject a known offset and assert the
// estimator recovers it.
type Clock struct {
	mu      sync.Mutex
	samples int
	offset  int64 // EWMA of the per-exchange offset, ns
}

// note folds one two-way exchange into the estimate.
func (ck *Clock) note(offset int64) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if ck.samples == 0 {
		ck.offset = offset
	} else {
		// EWMA with alpha = 1/4: jitter-resistant but still converging in
		// a handful of rounds after a step change.
		ck.offset += (offset - ck.offset) / 4
	}
	ck.samples++
}

// Offset returns the estimated offset to the reference node's clock:
// add it to a local timestamp to express it in reference time. Zero
// until the first sync exchange completes.
func (ck *Clock) Offset() time.Duration {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return time.Duration(ck.offset)
}

// Samples returns the number of completed sync exchanges.
func (ck *Clock) Samples() int {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.samples
}
