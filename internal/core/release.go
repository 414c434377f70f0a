package core

// releaseHeap holds one shard's armed periodic roots as a binary min-heap
// ordered by (nextRelease, id): the head is the shard's exact next release
// instant, a tick pops only what is due, and each released job costs one
// O(log n) sift. Keys are absolute instants, so a change of the scheduler
// grid never touches it.
//
// The heap is intrusive — each task carries its slot in task.relIdx (-1
// while not armed), the readyQueue/job.heapIdx idiom — and is not itself
// synchronised: the caller holds the owning shard's lock. A task is only
// ever armed on its home shard (shards[t.shard]); moving a task disarms it
// under the old home's lock first. The backing array is sized once in New,
// so arming never allocates.
//
// An armed task's nextRelease is its heap key: it may only change together
// with arm(t), inside one hold of the home shard's lock. fix repairs ONE
// changed key against neighbours assumed in order, so writing several keys
// and arming afterwards can strand an entry under a later parent — a late
// release — and exposes a non-heap to a concurrent tick in between.
type releaseHeap struct {
	h []*task
}

// relBefore orders two armed tasks: earlier release first, ties by task id
// so simultaneous releases are ordered by the task set alone.
//
//yasmin:noalloc
func relBefore(x, y *task) bool {
	if x.nextRelease != y.nextRelease {
		return x.nextRelease < y.nextRelease
	}
	return x.id < y.id
}

// peek returns the task with the earliest pending release, or nil.
//
//yasmin:noalloc
func (r *releaseHeap) peek() *task {
	if len(r.h) == 0 {
		return nil
	}
	return r.h[0]
}

// arm files t under its current nextRelease. Arming an armed task re-keys it
// in place (a retune, or the tick re-arming the head for its next period).
//
//yasmin:noalloc
func (r *releaseHeap) arm(t *task) {
	if t.relIdx < 0 {
		t.relIdx = int32(len(r.h))
		r.h = append(r.h, t)
	}
	r.fix(int(t.relIdx))
}

// disarm drops t's pending release, if any.
//
//yasmin:noalloc
func (r *releaseHeap) disarm(t *task) {
	i := int(t.relIdx)
	if i < 0 {
		return
	}
	n := len(r.h) - 1
	last := r.h[n]
	r.h[n] = nil
	r.h = r.h[:n]
	t.relIdx = -1
	if i < n {
		r.h[i] = last
		last.relIdx = int32(i)
		r.fix(i)
	}
}

// reset disarms everything (a new run re-arms from the task table).
func (r *releaseHeap) reset() {
	for i, t := range r.h {
		t.relIdx = -1
		r.h[i] = nil
	}
	r.h = r.h[:0]
}

// fix restores heap order around slot i after its key changed.
//
//yasmin:noalloc
func (r *releaseHeap) fix(i int) {
	h := r.h
	t := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !relBefore(t, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].relIdx = int32(i)
		i = p
	}
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && relBefore(h[c+1], h[c]) {
			c++
		}
		if !relBefore(h[c], t) {
			break
		}
		h[i] = h[c]
		h[i].relIdx = int32(i)
		i = c
	}
	h[i] = t
	t.relIdx = int32(i)
}
