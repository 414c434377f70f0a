package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/rt"
)

func newRelHeap(capacity int) *releaseHeap {
	return &releaseHeap{h: make([]*task, 0, capacity)}
}

func relTask(id int, at time.Duration) *task {
	return &task{id: TID(id), relIdx: -1, nextRelease: at}
}

// popDue is the tick's phase-1 walk without the release: every head due at
// now is disarmed and returned, in pop order.
func popDue(r *releaseHeap, now time.Duration) []*task {
	var due []*task
	for t := r.peek(); t != nil && t.nextRelease <= now; t = r.peek() {
		r.disarm(t)
		due = append(due, t)
	}
	return due
}

// relHeapErr verifies the intrusive index and the heap order.
func relHeapErr(r *releaseHeap) error {
	for i, tk := range r.h {
		if int(tk.relIdx) != i {
			return fmt.Errorf("slot %d holds task %d with relIdx %d", i, tk.id, tk.relIdx)
		}
		if i > 0 && relBefore(tk, r.h[(i-1)/2]) {
			return fmt.Errorf("slot %d (task %d) orders before its parent", i, tk.id)
		}
	}
	return nil
}

func checkRelHeap(t *testing.T, r *releaseHeap) {
	t.Helper()
	if err := relHeapErr(r); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseHeapDueExactlyAtInstant(t *testing.T) {
	r := newRelHeap(8)
	at := []time.Duration{0, ms(1), ms(5), ms(64), ms(4096)}
	for i, d := range at {
		r.arm(relTask(i, d))
	}
	fired := map[TID]time.Duration{}
	for now := time.Duration(0); now <= ms(4096); now += ms(1) {
		for _, tk := range popDue(r, now) {
			fired[tk.id] = now
		}
	}
	for i, want := range at {
		if got, ok := fired[TID(i)]; !ok || got != want {
			t.Errorf("task %d fired at %v (ok=%v), want %v", i, got, ok, want)
		}
	}
	if r.peek() != nil {
		t.Errorf("%d tasks still armed after firing everything", len(r.h))
	}
}

func TestReleaseHeapLongJumpYieldsEachOnceInKeyOrder(t *testing.T) {
	r := newRelHeap(16)
	offsets := []int64{262144, 1, 1 << 20, 64, 3, 4096, 63, 70000, 100, 4095, 262143, 1 << 40}
	for i, off := range offsets {
		r.arm(relTask(i, time.Duration(off)*time.Microsecond))
	}
	seen := map[TID]bool{}
	var order []time.Duration
	for _, now := range []int64{2, 70, 5000, 100000, 300000, 1<<40 + 10} {
		for _, tk := range popDue(r, time.Duration(now)*time.Microsecond) {
			if seen[tk.id] {
				t.Errorf("task %d fired twice", tk.id)
			}
			seen[tk.id] = true
			if tk.nextRelease > time.Duration(now)*time.Microsecond {
				t.Errorf("task %d fired early (due %v, now %dus)", tk.id, tk.nextRelease, now)
			}
			order = append(order, tk.nextRelease)
		}
	}
	if len(seen) != len(offsets) {
		t.Errorf("%d of %d tasks fired", len(seen), len(offsets))
	}
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Errorf("pop order not by key: %v", order)
	}
}

func TestReleaseHeapDisarmAndRearm(t *testing.T) {
	r := newRelHeap(4)
	other := relTask(0, ms(15))
	tk := relTask(1, ms(10))
	r.arm(other)
	r.arm(tk)
	r.disarm(tk)
	r.disarm(tk) // disarming an unarmed task is a no-op
	if tk.relIdx != -1 {
		t.Fatalf("relIdx = %d after disarm, want -1", tk.relIdx)
	}
	checkRelHeap(t, r)
	if due := popDue(r, ms(12)); len(due) != 0 {
		t.Fatalf("disarmed task fired: %v", due)
	}
	tk.nextRelease = ms(30)
	r.arm(tk)
	checkRelHeap(t, r)
	if due := popDue(r, ms(29)); len(due) != 1 || due[0] != other {
		t.Fatalf("at 29ms fired %v, want only the bystander", due)
	}
	if due := popDue(r, ms(30)); len(due) != 1 || due[0] != tk {
		t.Fatalf("at 30ms fired %v, want the re-armed task exactly once", due)
	}
}

func TestReleaseHeapArmSupersedesPending(t *testing.T) {
	r := newRelHeap(4)
	tk := relTask(1, ms(5))
	r.arm(tk)
	r.arm(relTask(2, ms(7)))
	tk.nextRelease = ms(9) // retune: the earlier key must not fire
	r.arm(tk)
	if len(r.h) != 2 {
		t.Fatalf("re-arming duplicated the entry: %d armed", len(r.h))
	}
	checkRelHeap(t, r)
	var at []time.Duration
	for now := time.Duration(0); now <= ms(20); now += ms(1) {
		for _, d := range popDue(r, now) {
			if d == tk {
				at = append(at, now)
			}
		}
	}
	if len(at) != 1 || at[0] != ms(9) {
		t.Fatalf("fired at %v, want exactly [9ms]", at)
	}
}

func TestReleaseHeapEqualInstantsPopInIDOrder(t *testing.T) {
	for _, arm := range [][]int{{0, 1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 1, 0}, {3, 6, 0, 5, 1, 4, 2}} {
		r := newRelHeap(8)
		for _, id := range arm {
			r.arm(relTask(id, ms(10)))
		}
		for want, tk := range popDue(r, ms(10)) {
			if int(tk.id) != want {
				t.Fatalf("arm order %v: pop %d is task %d", arm, want, tk.id)
			}
		}
	}
}

// TestReleaseHeapBatchRekeyArmsEachUnderItsKeyWrite pins the contract a
// multi-task retune relies on: each key write is followed by its own arm, so
// pulling in a child before its ancestor — both above an untouched entry —
// leaves the heap in order and every task due at its new instant.
func TestReleaseHeapBatchRekeyArmsEachUnderItsKeyWrite(t *testing.T) {
	r := newRelHeap(8)
	tasks := make([]*task, 8)
	for i, at := range []int{10, 50, 60, 100, 110, 120, 130, 140} {
		tasks[i] = relTask(i, ms(at))
		r.arm(tasks[i])
	}
	child, parent := tasks[7], tasks[3]
	if (child.relIdx-1)/2 != parent.relIdx {
		t.Fatalf("setup: slot %d is not a child of slot %d", child.relIdx, parent.relIdx)
	}
	for _, rk := range []struct {
		tk *task
		at time.Duration
	}{{child, ms(30)}, {parent, ms(20)}} {
		rk.tk.nextRelease = rk.at
		r.arm(rk.tk)
		checkRelHeap(t, r)
	}
	var order []TID
	for _, tk := range popDue(r, ms(50)) {
		order = append(order, tk.id)
	}
	if fmt.Sprint(order) != "[0 3 7 1]" {
		t.Fatalf("pop order %v, want [0 3 7 1]", order)
	}
}

// TestReleaseHeapPeriodicRearmExact drives the scheduler's pattern — sleep
// to the head's instant, release, re-key the head in place — and requires
// every firing at exactly the task's own instant.
func TestReleaseHeapPeriodicRearmExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := newRelHeap(40)
	periods := make([]time.Duration, 40)
	for i := range periods {
		periods[i] = ms([]int{1, 3, 63, 64, 65, 100, 4095, 4096, 5000}[rng.Intn(9)])
		r.arm(relTask(i, periods[i]))
	}
	fired := 0
	for now := time.Duration(0); now < ms(20000); {
		now = r.peek().nextRelease
		for tk := r.peek(); tk.nextRelease <= now; tk = r.peek() {
			if tk.nextRelease != now {
				t.Fatalf("task %d due %v fired at %v", tk.id, tk.nextRelease, now)
			}
			tk.nextRelease += periods[tk.id]
			r.arm(tk)
			fired++
		}
		checkRelHeap(t, r)
	}
	if fired == 0 {
		t.Fatal("nothing fired")
	}
}

// TestSchedTickCostIndependentOfDeclaredTasks pins the O(released) property
// at the unit level: with many far-future tasks armed, a tick that has
// nothing due looks at the head and touches nothing else.
func TestSchedTickCostIndependentOfDeclaredTasks(t *testing.T) {
	r := newRelHeap(100000)
	for i := 0; i < 100000; i++ {
		r.arm(relTask(i, time.Hour))
	}
	touched := 0
	for now := ms(1); now <= ms(1000); now += ms(1) {
		touched += len(popDue(r, now))
	}
	if touched != 0 || len(r.h) != 100000 {
		t.Fatalf("%d tasks touched, %d still armed while nothing was due", touched, len(r.h))
	}
}

// TestReleaseHeapModel checks random arm / re-key / batch re-key / disarm /
// tick sequences against a sorted-slice model.
func TestReleaseHeapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 300
	r := newRelHeap(n)
	tasks := make([]*task, n)
	for i := range tasks {
		tasks[i] = relTask(i, 0)
	}
	armed := map[*task]bool{}
	now := time.Duration(0)
	for step := 0; step < 20000; step++ {
		tk := tasks[rng.Intn(n)]
		switch op := rng.Intn(10); {
		case op < 5: // arm or re-key
			tk.nextRelease = now + time.Duration(rng.Int63n(int64(ms(50))))
			r.arm(tk)
			armed[tk] = true
		case op < 7:
			r.disarm(tk)
			delete(armed, tk)
		case op < 8: // batch re-key: one transaction moving many armed tasks
			for _, i := range rng.Perm(n)[:1+rng.Intn(64)] {
				if m := tasks[i]; armed[m] {
					m.nextRelease = now + time.Duration(rng.Int63n(int64(ms(50))))
					r.arm(m)
				}
			}
		default: // tick
			now += time.Duration(rng.Int63n(int64(ms(5))))
			var want []*task
			for m := range armed {
				if m.nextRelease <= now {
					want = append(want, m)
					delete(armed, m)
				}
			}
			sort.Slice(want, func(i, j int) bool { return relBefore(want[i], want[j]) })
			got := popDue(r, now)
			if len(got) != len(want) {
				t.Fatalf("step %d: %d due, model says %d", step, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: pop %d is task %d, model says %d", step, i, got[i].id, want[i].id)
				}
			}
		}
		if len(r.h) != len(armed) {
			t.Fatalf("step %d: %d armed, model says %d", step, len(r.h), len(armed))
		}
		checkRelHeap(t, r)
	}
}

// TestRetuneGridChangeLeavesBystandersPeriodic shrinks the period GCD with
// one retune and restores it with a second, on a started app: every
// bystander must keep releasing at exactly start + offset + k*period — none
// dropped, duplicated or shifted by the grid changes.
func TestRetuneGridChangeLeavesBystandersPeriodic(t *testing.T) {
	const bystanders = 72
	r := newRig(t, Config{Workers: 4, Priority: PriorityEDF, MaxTasks: 128, MaxPendingJobs: 256}, nil)
	probe := declSpin(t, r.app, "probe", ms(10), 10*time.Microsecond)
	releases := make([][]time.Duration, bystanders)
	decl := make([]TData, bystanders)
	for i := range decl {
		i := i
		decl[i] = TData{
			Name:          fmt.Sprintf("by%d", i),
			Period:        ms(10 << (i % 3)),
			ReleaseOffset: ms(10 * (i % 4)),
		}
		tid, err := r.app.TaskDecl(decl[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.app.VersionDecl(tid, func(x *ExecCtx, _ any) error {
			releases[i] = append(releases[i], x.Release())
			return x.Compute(10 * time.Microsecond)
		}, nil, VSelect{WCET: 10 * time.Microsecond}); err != nil {
			t.Fatal(err)
		}
	}
	const horizon = 400 * time.Millisecond
	retune := func(c rt.Ctx, period, wantGrid time.Duration) {
		if err := r.app.Reconfigure(c, func(tx *Reconfig) error {
			return tx.Retune(probe, TData{Name: "probe", Period: period})
		}); err != nil {
			t.Errorf("Retune to %v: %v", period, err)
		}
		if got := r.app.schedPeriodNow(); got != wantGrid {
			t.Errorf("grid after retune to %v = %v, want %v", period, got, wantGrid)
		}
	}
	r.runMain(t, horizon, func(c rt.Ctx) {
		c.SleepUntil(ms(95))
		retune(c, ms(3), ms(1))
		c.SleepUntil(ms(205))
		retune(c, ms(10), ms(10))
	})
	for i, d := range decl {
		want := int((horizon - d.ReleaseOffset) / d.Period)
		if len(releases[i]) < want {
			t.Errorf("%s: %d releases, want >= %d", d.Name, len(releases[i]), want)
		}
		for k, rel := range releases[i] {
			if at := r.app.startTime + d.ReleaseOffset + time.Duration(k)*d.Period; rel != at {
				t.Fatalf("%s: release %d at %v, want %v", d.Name, k, rel, at)
			}
		}
	}
}

// TestRetuneManyOnOneShardPullsEveryReleaseIn shortens 96 armed tasks of one
// shard in a single transaction, in shuffled order, with untouched
// bystanders keyed between the old and the new instants. The heap must be in
// order the moment the commit returns, and every retuned task's first
// post-commit release must be the commit instant plus its new period,
// dispatched at the next grid tick — not stranded under a later parent.
func TestRetuneManyOnOneShardPullsEveryReleaseIn(t *testing.T) {
	const retuned, bystanders = 96, 8
	type firing struct{ rel, at time.Duration }
	r := newRig(t, Config{Workers: 1, Priority: PriorityEDF, MaxTasks: 128, MaxPendingJobs: 256}, nil)
	fired := make([][]firing, bystanders+retuned)
	decl := func(i int, d TData) TID {
		tid, err := r.app.TaskDecl(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.app.VersionDecl(tid, func(x *ExecCtx, _ any) error {
			fired[i] = append(fired[i], firing{x.Release(), x.Now()})
			return x.Compute(10 * time.Microsecond)
		}, nil, VSelect{WCET: 10 * time.Microsecond}); err != nil {
			t.Fatal(err)
		}
		return tid
	}
	for i := 0; i < bystanders; i++ {
		decl(i, TData{Name: fmt.Sprintf("by%d", i), Period: ms(200), ReleaseOffset: ms(5 * i)})
	}
	ids := make([]TID, retuned)
	newPeriod := func(k int) time.Duration { return ms(20 + 5*(k%7)) }
	for k := range ids {
		ids[k] = decl(bystanders+k, TData{Name: fmt.Sprintf("rt%d", k), Period: time.Second, ReleaseOffset: ms(k)})
	}
	var grid time.Duration
	r.runMain(t, ms(400), func(c rt.Ctx) {
		c.SleepUntil(ms(105))
		if err := r.app.Reconfigure(c, func(tx *Reconfig) error {
			for _, k := range rand.New(rand.NewSource(3)).Perm(retuned) {
				if err := tx.Retune(ids[k], TData{Name: fmt.Sprintf("rt%d", k), Period: newPeriod(k), ReleaseOffset: ms(k)}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Errorf("Retune: %v", err)
		}
		grid = r.app.schedPeriodNow()
		sh := r.app.shards[0]
		sh.mu.Lock()
		if err := relHeapErr(&sh.rel); err != nil {
			t.Errorf("release heap after the commit: %v", err)
		}
		sh.mu.Unlock()
	})
	recs := r.app.Recorder().Reconfigs()
	if len(recs) != 1 {
		t.Fatalf("%d reconfig records, want 1", len(recs))
	}
	for k := 0; k < retuned; k++ {
		f := fired[bystanders+k]
		if len(f) < 2 {
			t.Fatalf("rt%d: %d releases, want the initial one and the pulled-in ones", k, len(f))
		}
		for j, x := range f[1:] {
			if want := recs[0].At + time.Duration(j+1)*newPeriod(k); x.rel != want {
				t.Fatalf("rt%d: post-commit release %d at %v, want %v", k, j, x.rel, want)
			}
			if late := x.at - x.rel; late > grid+ms(2) {
				t.Fatalf("rt%d: release %v dispatched %v late", k, x.rel, late)
			}
		}
	}
	for i := 0; i < bystanders; i++ {
		for j, x := range fired[i] {
			if want := r.app.startTime + ms(5*i) + time.Duration(j)*ms(200); x.rel != want {
				t.Fatalf("by%d: release %d at %v, want %v", i, j, x.rel, want)
			}
		}
	}
}
