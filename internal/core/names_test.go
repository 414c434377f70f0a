package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/yasmin-rt/yasmin/internal/rt"
)

// scanTaskIDByName is the linear scan the name index replaced, kept as the
// oracle: the highest admitted/running TID with the name, else the lowest
// draining one, else -1.
func scanTaskIDByName(a *App, name string) TID {
	best := TID(-1)
	for i := 0; i < a.ntasks; i++ {
		t := &a.tasks[i]
		if t.d.Name != name {
			continue
		}
		switch t.state {
		case taskAdmitted, taskRunning:
			best = t.id
		case taskDraining:
			if best < 0 {
				best = t.id
			}
		}
	}
	return best
}

// scanTxTaskID is the oracle for Reconfig.TaskID: the transaction's own
// staged tasks first, then alive tasks it does not remove.
func scanTxTaskID(tx *Reconfig, name string) TID {
	a := tx.a
	for _, id := range tx.addedTasks {
		if a.tasks[id].d.Name == name {
			return id
		}
	}
	id := scanTaskIDByName(a, name)
	if id >= 0 && !tx.removeTasks[id] &&
		(a.tasks[id].state == taskRunning || a.tasks[id].state == taskAdmitted) {
		return id
	}
	return -1
}

// checkNameIndex verifies the byName invariant: every non-retired named slot
// appears exactly once, under its own name; no retired slot appears; no
// empty list is kept.
func checkNameIndex(a *App) error {
	seen := make(map[TID]bool)
	for name, ids := range a.byName {
		if len(ids) == 0 {
			return fmt.Errorf("empty list kept for %q", name)
		}
		for _, id := range ids {
			tk := &a.tasks[id]
			switch {
			case seen[id]:
				return fmt.Errorf("slot %d indexed twice", id)
			case tk.state == taskRetired:
				return fmt.Errorf("retired slot %d indexed under %q", id, name)
			case tk.d.Name != name:
				return fmt.Errorf("slot %d (%q) indexed under %q", id, tk.d.Name, name)
			}
			seen[id] = true
		}
	}
	for i := 0; i < a.ntasks; i++ {
		if tk := &a.tasks[i]; tk.state != taskRetired && tk.d.Name != "" && !seen[TID(i)] {
			return fmt.Errorf("live slot %d (%q, %s) missing from the index", i, tk.d.Name, tk.state)
		}
	}
	return nil
}

// TestTaskNameIndexModel drives a seeded random sequence of declarations,
// committed, failed and panicking transactions, removals, drains, slot
// recycling and name reuse across a drain, and checks after every step that
// the index matches the scan oracle for every name ever used.
func TestTaskNameIndexModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { nameIndexModel(t, seed) })
	}
}

func nameIndexModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"a", "b", "c", "d", "e"}
	// MaxTasks well below the number of additions forces slot recycling.
	r := newRig(t, Config{Workers: 2, Priority: PriorityEDF, MaxTasks: 12}, nil)
	const period, wcet = 30, 3 // ms; a removal usually lands mid-job and drains
	var step string
	// verify compares the index with the oracle and checks its invariant;
	// the caller holds App.mu or the App is quiescent.
	verify := func() error {
		for _, n := range names {
			if got, want := r.app.taskIDByName(n), scanTaskIDByName(r.app, n); got != want {
				return fmt.Errorf("%s: taskIDByName(%q) = %d, oracle %d", step, n, got, want)
			}
		}
		if err := checkNameIndex(r.app); err != nil {
			return fmt.Errorf("%s: %v", step, err)
		}
		return nil
	}
	for i := 0; i < 4; i++ {
		step = fmt.Sprint("decl ", i)
		declSpin(t, r.app, names[rng.Intn(len(names))], ms(period), ms(wcet))
		if err := verify(); err != nil {
			t.Fatal(err)
		}
	}

	// Inside the simulation a violation panics: the engine turns it into
	// the Run error runMain fails on. errFnPanics is the deliberate panic.
	errAbort, errFnPanics := errors.New("abort"), errors.New("fn panics")
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	var drainingHits, reused, panics int
	maxID := TID(-1)
	// stage adds a task (which may be refused: duplicate or table full).
	stage := func(tx *Reconfig, name string) {
		id, err := tx.AddTask(TData{Name: name, Period: ms(period)})
		if err != nil {
			return
		}
		if id <= maxID {
			reused++
		}
		maxID = max(maxID, id)
		_, err = tx.AddVersion(id, spin(ms(wcet)), nil, VSelect{WCET: ms(wcet)})
		must(err)
	}
	// checkTx compares tx.TaskID and tx.HasTask with the oracle for every
	// name, under the transaction's merged view.
	checkTx := func(tx *Reconfig) {
		for _, n := range names {
			got := tx.TaskID(n)
			tx.a.mu.Lock(tx.c)
			want := scanTxTaskID(tx, n)
			tx.a.mu.Unlock(tx.c)
			if got != want || (got >= 0) != tx.HasTask(n) {
				must(fmt.Errorf("%s: tx.TaskID(%q) = %d, oracle %d", step, n, got, want))
			}
		}
	}
	r.runMain(t, ms(3000), func(c rt.Ctx) {
		check := func() {
			r.app.mu.Lock(c)
			defer r.app.mu.Unlock(c)
			must(verify())
			for _, n := range names {
				if id := r.app.taskIDByName(n); id >= 0 && r.app.tasks[id].state == taskDraining {
					drainingHits++
				}
			}
		}
		for i := 0; i < 250; i++ {
			name := names[rng.Intn(len(names))]
			switch rng.Intn(6) {
			case 0: // committed add
				step = fmt.Sprintf("step %d add %q", i, name)
				r.app.Reconfigure(c, func(tx *Reconfig) error {
					stage(tx, name)
					checkTx(tx)
					return nil
				})
			case 1: // adds rolled back by an erroring fn
				step = fmt.Sprintf("step %d add %q, error", i, name)
				r.app.Reconfigure(c, func(tx *Reconfig) error {
					stage(tx, name)
					stage(tx, names[rng.Intn(len(names))])
					checkTx(tx)
					return errAbort
				})
			case 2: // add rolled back by a panicking fn
				step = fmt.Sprintf("step %d add %q, panic", i, name)
				func() {
					defer func() {
						if p := recover(); p == errFnPanics {
							panics++
						} else if p != nil {
							panic(p)
						}
					}()
					r.app.Reconfigure(c, func(tx *Reconfig) error {
						stage(tx, name)
						checkTx(tx)
						panic(errFnPanics)
					})
				}()
			case 3: // remove
				step = fmt.Sprintf("step %d remove %q", i, name)
				r.app.Reconfigure(c, func(tx *Reconfig) error {
					err := tx.RemoveTaskByName(name)
					checkTx(tx)
					return err
				})
			case 4: // remove and re-add at once: the old incarnation still drains
				step = fmt.Sprintf("step %d replace %q", i, name)
				r.app.Reconfigure(c, func(tx *Reconfig) error { return tx.RemoveTaskByName(name) })
				check()
				r.app.Reconfigure(c, func(tx *Reconfig) error {
					stage(tx, name)
					checkTx(tx)
					return nil
				})
			case 5: // let drains finish and slots retire
				step = fmt.Sprintf("step %d sleep", i)
				c.Sleep(ms(rng.Intn(2 * period)))
			}
			check()
			c.Sleep(us(rng.Intn(2000)))
			check()
		}
	})
	step = "after Cleanup"
	if err := verify(); err != nil {
		t.Fatal(err)
	}
	if drainingHits == 0 || reused == 0 || panics == 0 {
		t.Fatalf("model too weak: %d draining lookups, %d recycled slots, %d panics", drainingHits, reused, panics)
	}
	t.Logf("%d draining lookups, %d recycled slots, %d panicking transactions", drainingHits, reused, panics)
}

// TestTaskNameIndexBoundedByLiveNames ping-pongs between two modes 1,000
// times: the index must hold exactly the live names afterwards, not every
// incarnation it ever saw.
func TestTaskNameIndexBoundedByLiveNames(t *testing.T) {
	r := newRig(t, Config{Workers: 2, Priority: PriorityEDF, MaxTasks: 16}, nil)
	declSpin(t, r.app, "base", ms(10), ms(1))
	mode := func(add, drop string) ModePreset {
		return ModePreset{Build: func(tx *Reconfig) error {
			for k := 0; k < 4; k++ {
				if n := fmt.Sprint(drop, k); tx.HasTask(n) {
					if err := tx.RemoveTaskByName(n); err != nil {
						return err
					}
				}
				id, err := tx.AddTask(TData{Name: fmt.Sprint(add, k), Period: ms(10)})
				if err != nil {
					return err
				}
				if _, err := tx.AddVersion(id, spin(us(200)), nil, VSelect{WCET: us(200)}); err != nil {
					return err
				}
			}
			return nil
		}}
	}
	r.app.InstallMode("A", mode("a", "b"))
	r.app.InstallMode("B", mode("b", "a"))
	r.runMain(t, ms(12000), func(c rt.Ctx) {
		for i := 0; i < 1000; i++ {
			for _, m := range []string{"A", "B"} {
				if err := r.app.SwitchMode(c, m); err != nil {
					t.Errorf("ping-pong %d, mode %s: %v", i, m, err)
					return
				}
				c.Sleep(ms(5))
			}
		}
		c.Sleep(ms(50)) // every removed incarnation drains and retires
	})
	if got := r.app.Epoch(); got != 2000 {
		t.Fatalf("epoch = %d, want 2000", got)
	}
	live := make(map[string]bool)
	for i := 0; i < r.app.ntasks; i++ {
		if tk := &r.app.tasks[i]; tk.state != taskRetired {
			live[tk.d.Name] = true
		}
	}
	if len(live) != 5 || len(r.app.byName) != len(live) {
		t.Errorf("byName holds %d names, %d live (want 5: base + b0..b3)", len(r.app.byName), len(live))
	}
	if err := checkNameIndex(r.app); err != nil {
		t.Error(err)
	}
}

// TestRecorderStatsBoundedUnderChurn churns uniquely named tasks through a
// 16-slot App: each transaction removes dyn{i-1} and adds dyn{i}. The
// recorder's named rows must stop growing once the by-name table is full,
// while its totals still count every job.
func TestRecorderStatsBoundedUnderChurn(t *testing.T) {
	r := newRig(t, Config{Workers: 1, Priority: PriorityEDF, MaxTasks: 16}, nil)
	declSpin(t, r.app, "dyn0", ms(1), us(50))
	var rowsAt1k, rowsAt10k int
	var jobsAt10k int64
	r.runMain(t, ms(20200), func(c rt.Ctx) {
		for i := 1; i <= 10000; i++ {
			err := r.app.Reconfigure(c, func(tx *Reconfig) error {
				if err := tx.RemoveTaskByName(fmt.Sprint("dyn", i-1)); err != nil {
					return err
				}
				id, err := tx.AddTask(TData{Name: fmt.Sprint("dyn", i), Period: ms(1)})
				if err != nil {
					return err
				}
				_, err = tx.AddVersion(id, spin(us(50)), nil, VSelect{WCET: us(50)})
				return err
			})
			if err != nil {
				t.Errorf("transaction %d: %v", i, err)
				return
			}
			c.Sleep(ms(2))
			switch i {
			case 1000:
				rowsAt1k = len(r.app.Recorder().TaskNames())
			case 10000:
				rowsAt10k = len(r.app.Recorder().TaskNames())
				jobsAt10k = r.app.Recorder().TotalJobs()
			}
		}
	})
	if rowsAt1k != rowsAt10k {
		t.Errorf("named stats rows: %d after 1,000 transactions, %d after 10,000", rowsAt1k, rowsAt10k)
	}
	if jobsAt10k < 10000 {
		t.Errorf("TotalJobs = %d after 10,000 two-millisecond incarnations of a 1 ms task", jobsAt10k)
	}
	t.Logf("%d named rows, %d jobs", rowsAt10k, jobsAt10k)
}
