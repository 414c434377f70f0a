package core

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/analysis"
	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/sim"
	"github.com/yasmin-rt/yasmin/internal/taskset"
)

// The admission rebuild validate and admit used before they read the task
// table in place: a merged copy of the target configuration, a map from TID
// to merged index, per-transaction adjacency slices and a seen slice cleared
// before every root walk. It is kept here as the oracle
// TestAdmissionMatchesRebuild holds the in-place pass to, unchanged in
// behaviour but for its root walk, which follows the graph-timing rule.

// rebuildTask is the rebuild's view of one task of the target configuration
// (post-drain steady state).
type rebuildTask struct {
	id     TID
	d      TData
	wcet   time.Duration
	nver   int
	staged bool
	accels []taskset.AccelUse
}

// rebuild is the merged model the rebuild validation hands to its admission.
type rebuild struct {
	tx     *Reconfig
	merged []rebuildTask
	preds  [][]int // indices into merged
}

// rebuildValidate is the rebuild's validate: structural rules, removal
// coverage and static capacity over the merged target configuration.
func rebuildValidate(tx *Reconfig) (*rebuild, error) {
	a := tx.a
	a.mu.Lock(tx.c)
	defer a.mu.Unlock(tx.c)
	rb := &rebuild{tx: tx}

	index := make(map[TID]int)
	for i := 0; i < a.ntasks; i++ {
		t := &a.tasks[i]
		if t.state != taskRunning && t.state != taskAdmitted {
			continue
		}
		if tx.removeTasks[t.id] {
			continue
		}
		d := t.d
		if rd, ok := tx.retunes[t.id]; ok {
			d = rd
		}
		var wcet time.Duration
		for vi := range t.versions {
			if w := t.versions[vi].props.WCET; w > wcet {
				wcet = w
			}
		}
		index[t.id] = len(rb.merged)
		rb.merged = append(rb.merged, rebuildTask{id: t.id, d: d, wcet: wcet, nver: len(t.versions),
			accels: a.accelUsesLocked(t)})
	}
	for _, id := range tx.addedTasks {
		t := &a.tasks[id]
		var wcet time.Duration
		for vi := range t.versions {
			if w := t.versions[vi].props.WCET; w > wcet {
				wcet = w
			}
		}
		index[id] = len(rb.merged)
		rb.merged = append(rb.merged, rebuildTask{id: id, d: t.d, wcet: wcet, nver: len(t.versions), staged: true,
			accels: a.accelUsesLocked(t)})
	}

	type medge struct{ src, dst, delay int }
	var edges []medge
	dying := 0
	for i := 0; i < a.nedges; i++ {
		e := &a.edges[i]
		if e.dead {
			continue
		}
		if tx.severs(e) {
			dying++
			continue
		}
		si, sok := index[e.src]
		di, dok := index[e.dst]
		if !sok || !dok {
			continue
		}
		edges = append(edges, medge{src: si, dst: di, delay: e.initial})
	}
	for _, se := range tx.stagedEdges {
		si, sok := index[se.src]
		di, dok := index[se.dst]
		if !sok || !dok {
			return nil, fmt.Errorf("core: staged edge %d->%d references a task outside the target configuration", se.src, se.dst)
		}
		edges = append(edges, medge{src: si, dst: di, delay: se.delay})
	}

	freeEdges := len(tx.a.freeEdgeSlots) + (len(a.edges) - a.nedges) + dying
	if len(tx.stagedEdges) > freeEdges {
		return nil, fmt.Errorf("%w: %d staged edges, %d edge slots free (MaxChannels=%d)",
			ErrTooMany, len(tx.stagedEdges), freeEdges, len(a.edges))
	}

	rb.preds = make([][]int, len(rb.merged))
	succ := make([][]int, len(rb.merged))
	zeroDelayIn := make([]bool, len(rb.merged))
	hasIn := make([]bool, len(rb.merged))
	for _, e := range edges {
		rb.preds[e.dst] = append(rb.preds[e.dst], e.src)
		hasIn[e.dst] = true
		if e.delay == 0 {
			succ[e.src] = append(succ[e.src], e.dst)
			zeroDelayIn[e.dst] = true
		}
	}
	for i := range rb.merged {
		m := &rb.merged[i]
		if m.nver == 0 {
			return nil, fmt.Errorf("core: task %s has no version", m.d.Name)
		}
		if m.d.Period > 0 && zeroDelayIn[i] {
			return nil, fmt.Errorf("core: task %s is data-activated but has a period; only root nodes carry periods (feedback into a periodic root needs delay tokens)", m.d.Name)
		}
		if m.d.Period == 0 && !hasIn[i] && m.d.Deadline == 0 {
			if m.d.Sporadic {
				return nil, fmt.Errorf("core: sporadic task %s needs a minimum inter-arrival time (Period) or an explicit deadline", m.d.Name)
			}
			return nil, fmt.Errorf("core: aperiodic task %s needs an explicit deadline (did a removal orphan it?)", m.d.Name)
		}
		if a.cfg.Mapping == MappingPartitioned {
			if m.d.VirtCore < 0 || m.d.VirtCore >= a.cfg.Workers {
				return nil, fmt.Errorf("core: task %s: VirtCore %d out of [0,%d) for partitioned mapping",
					m.d.Name, m.d.VirtCore, a.cfg.Workers)
			}
		}
	}

	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(rb.merged))
	var visit func(i int) error
	visit = func(i int) error {
		color[i] = grey
		for _, d := range succ[i] {
			switch color[d] {
			case grey:
				return fmt.Errorf("core: channel graph has a cycle through task %s", rb.merged[d].d.Name)
			case white:
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		color[i] = black
		return nil
	}
	for i := range rb.merged {
		if color[i] == white {
			if err := visit(i); err != nil {
				return nil, err
			}
		}
	}

	for _, c := range tx.removeTopicOrder {
		tp := &a.topics[c]
		leaving := func(t TID) bool {
			if tx.removeTasks[t] {
				return true
			}
			st := a.tasks[t].state
			return st == taskDraining || st == taskRetired
		}
		for _, p := range tp.pubs {
			if !leaving(p) {
				return nil, fmt.Errorf("core: topic %s still has publisher %s; remove it in the same transaction", tp.name, a.tasks[p].d.Name)
			}
		}
		for _, s := range tp.subs {
			if !leaving(s.task) {
				return nil, fmt.Errorf("core: topic %s still has subscriber %s; remove it in the same transaction", tp.name, a.tasks[s.task].d.Name)
			}
		}
		for i := 0; i < a.nedges; i++ {
			e := &a.edges[i]
			if !e.dead && e.ch == c && !tx.severs(e) {
				return nil, fmt.Errorf("core: topic %s still connects %s->%s", tp.name,
					a.tasks[e.src].d.Name, a.tasks[e.dst].d.Name)
			}
		}
		for _, se := range tx.stagedEdges {
			if se.ch == c {
				return nil, fmt.Errorf("core: topic %s is removed but a staged edge uses it", tp.name)
			}
		}
	}
	return rb, nil
}

// admit is the rebuild's admission test over the merged model.
func (rb *rebuild) admit() error {
	tx := rb.tx
	a := tx.a
	set := &taskset.Set{}
	var keys []int64
	var cores []int
	pl := a.env.Platform()
	globalSpeed := 1.0
	if pl != nil {
		for i, wc := range a.cfg.WorkerCores {
			if wc >= 0 && wc < len(pl.Cores) {
				s := pl.Cores[wc].Speed
				if i == 0 || s < globalSpeed {
					globalSpeed = s
				}
			}
		}
	}
	seen := make([]bool, len(rb.merged))
	for i := range rb.merged {
		m := &rb.merged[i]
		if m.wcet <= 0 {
			continue
		}
		period := m.d.Period
		deadline := m.d.Deadline
		if period == 0 {
			for k := range seen {
				seen[k] = false
			}
			rp, rd := rb.rootTiming(i, seen)
			if rp == 0 {
				continue
			}
			period = rp
			if deadline == 0 {
				deadline = rd
			}
		}
		if deadline == 0 {
			deadline = period
		}
		speed := globalSpeed
		if a.cfg.Mapping == MappingPartitioned && pl != nil {
			wc := a.cfg.WorkerCores[m.d.VirtCore]
			if wc >= 0 && wc < len(pl.Cores) {
				speed = pl.Cores[wc].Speed
			}
		}
		wcet := m.wcet
		if speed > 0 && speed != 1.0 {
			wcet = time.Duration(float64(wcet) / speed)
		}
		set.Tasks = append(set.Tasks, taskset.Task{
			ID:       int(m.id),
			Name:     m.d.Name,
			Period:   period,
			Deadline: deadline,
			Offset:   m.d.ReleaseOffset,
			WCET:     wcet,
			Sporadic: m.d.Sporadic,
			Accels:   m.accels,
		})
		switch a.cfg.Priority {
		case PriorityRM:
			keys = append(keys, int64(period))
		case PriorityDM:
			keys = append(keys, int64(deadline))
		case PriorityUser:
			keys = append(keys, int64(m.d.Priority))
		default:
			keys = append(keys, int64(deadline))
		}
		cores = append(cores, m.d.VirtCore)
	}
	adm := analysis.Admission{
		Workers:       a.cfg.Workers,
		Partitioned:   a.cfg.Mapping == MappingPartitioned,
		FixedPriority: a.cfg.Priority != PriorityEDF,
		Cores:         cores,
	}
	if adm.FixedPriority {
		adm.PrioKey = keys
	}
	terms := analysis.PIPBlocking(set, keys)
	blocking := analysis.Durations(terms)
	adm.Blocking = blocking
	res, err := analysis.Admit(set, adm)
	if err != nil {
		return err
	}
	if !res.Schedulable {
		offender := res.Offender
		if offender == "" && len(tx.addedTasks) > 0 {
			offender = tx.a.tasks[tx.addedTasks[0]].d.Name
		}
		detail := res.Detail
		test := res.Test
		if anyBlocking(blocking) {
			noBlock := adm
			noBlock.Blocking = nil
			if res2, err2 := analysis.Admit(set, noBlock); err2 == nil && res2.Schedulable {
				test += "+accel-blocking"
				for i := range set.Tasks {
					if set.Tasks[i].Name == offender && terms[i].Dur > 0 {
						detail = fmt.Sprintf("%s; schedulable without accelerator contention — blocking term %s",
							detail, terms[i])
						break
					}
				}
			}
		}
		return &NotSchedulableError{Task: offender, Test: test, Detail: detail}
	}
	return nil
}

// rootTiming walks the merged predecessor relation back to the roots —
// periodic, sporadic or without in-edges — and returns the smallest root
// period and the smallest root effective deadline: the graph-timing rule
// (RootWalk.RootTiming), written here independently of it.
func (rb *rebuild) rootTiming(i int, seen []bool) (time.Duration, time.Duration) {
	if seen[i] {
		return 0, 0
	}
	seen[i] = true
	var bestP, bestD time.Duration
	consider := func(p, d time.Duration) {
		if p > 0 && (bestP == 0 || p < bestP) {
			bestP = p
		}
		if d > 0 && (bestD == 0 || d < bestD) {
			bestD = d
		}
	}
	for _, pi := range rb.preds[i] {
		m := &rb.merged[pi]
		if m.d.Period > 0 || m.d.Sporadic || len(rb.preds[pi]) == 0 {
			d := m.d.Deadline
			if d == 0 {
				d = m.d.Period
			}
			consider(m.d.Period, d)
		} else {
			consider(rb.rootTiming(pi, seen))
		}
	}
	return bestP, bestD
}

// rebuildVerdict runs the whole rebuild on a staged transaction: the error
// validate and admit together would have returned.
func rebuildVerdict(tx *Reconfig) error {
	rb, err := rebuildValidate(tx)
	if err != nil {
		return err
	}
	return rb.admit()
}

var admissionSeeds = flag.Int("admission.seeds", 200, "seeds TestAdmissionMatchesRebuild sweeps")

// admissionStats counts what a sweep of TestAdmissionMatchesRebuild
// exercised, so that a generator too weak to reach every kind of verdict
// fails the test: transactions admitted, refused by validation, refused by
// admission (and of those, for accelerator blocking), live edges after each
// transaction (and of those, into data-activated tasks) and transactions
// staged while a task drained.
type admissionStats struct {
	admitted, invalid, unschedulable, blocking, edges, rooted, draining int
}

// TestAdmissionMatchesRebuild drives seeded random apps through random
// transactions and holds every verdict of the in-place validate and admit
// to the rebuild's: the same error string, hence the same offender, test
// and detail for an admission rejection. Apps vary mapping, priority
// assignment, platform core speeds and accelerator pools; transactions add,
// remove and retune tasks (periodic, sporadic, aperiodic and data-activated,
// with and without WCETs and accelerator uses), connect and disconnect
// edges with and without delay tokens, and add and remove topics. The apps
// run on the simulator meanwhile, so removed tasks drain across later
// transactions.
func TestAdmissionMatchesRebuild(t *testing.T) {
	var st admissionStats
	for seed := int64(1); seed <= int64(*admissionSeeds); seed++ {
		admissionMatchesRebuild(t, seed, &st)
		if t.Failed() {
			t.Fatalf("seed %d diverged from the rebuild", seed)
		}
	}
	t.Logf("%d seeds: %+v", *admissionSeeds, st)
	if *admissionSeeds >= 50 && (st.admitted == 0 || st.invalid == 0 || st.unschedulable == 0 ||
		st.blocking == 0 || st.edges == 0 || st.rooted == 0 || st.draining == 0) {
		t.Fatalf("generator too weak: %+v", st)
	}
}

func admissionMatchesRebuild(t *testing.T, seed int64, st *admissionStats) {
	rng := rand.New(rand.NewSource(seed))
	pick := func(d ...time.Duration) time.Duration { return d[rng.Intn(len(d))] }
	workers := 1 + rng.Intn(3)
	pl := platform.Generic(workers + 1)
	for i := range pl.Cores {
		pl.Cores[i].Speed = []float64{0.5, 1, 1, 1.5, 2}[rng.Intn(5)]
	}
	cfg := Config{
		Workers:  workers,
		Mapping:  []MappingScheme{MappingGlobal, MappingPartitioned}[rng.Intn(2)],
		Priority: []PriorityAssignment{PriorityEDF, PriorityRM, PriorityDM, PriorityUser}[rng.Intn(4)],
		MaxTasks: 14, MaxChannels: 8, GraphInstanceCap: 4,
	}
	eng := sim.NewEngine(seed)
	env, err := rt.NewSimEnv(eng, pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	app, err := New(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	var pools []HID
	for i := rng.Intn(3); i > 0; i-- {
		h, err := app.HwAccelDeclPool(fmt.Sprint("acc", i), 1+rng.Intn(2))
		if err != nil {
			t.Fatal(err)
		}
		pools = append(pools, h)
	}
	var chans []CID
	for i := 0; i < 3; i++ {
		c, err := app.ChannelDecl(fmt.Sprint("ch", i), 4)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, c)
	}
	names := 0
	data := func(periodic bool) TData {
		names++
		d := TData{
			Name:     fmt.Sprint("t", names),
			VirtCore: rng.Intn(workers),
			Priority: rng.Intn(8),
		}
		if periodic || rng.Intn(2) == 0 {
			d.Period = pick(ms(5), ms(10), ms(10), ms(20), ms(40))
			d.ReleaseOffset = pick(0, 0, ms(1), ms(3))
		}
		d.Sporadic = rng.Intn(8) == 0
		if rng.Intn(3) == 0 {
			d.Deadline = pick(ms(4), ms(8), ms(15), ms(30))
		}
		if !periodic && rng.Intn(10) == 0 {
			d.VirtCore = workers // out of range under partitioned mapping
		}
		return d
	}
	version := func() (TaskFunc, VSelect) {
		wcet := pick(0, us(500), ms(1), ms(2), ms(4))
		body := wcet
		if body == 0 {
			body = us(200)
		}
		return spin(body), VSelect{WCET: wcet, AccelCS: pick(0, us(300), ms(1))}
	}
	for i := 2 + rng.Intn(5); i > 0; i-- {
		id, err := app.TaskDecl(data(true))
		if err != nil {
			t.Fatal(err)
		}
		fn, props := version()
		vid, err := app.VersionDecl(id, fn, nil, props)
		if err != nil {
			t.Fatal(err)
		}
		if len(pools) > 0 && rng.Intn(3) == 0 {
			if err := app.HwAccelUse(id, vid, pools[rng.Intn(len(pools))]); err != nil {
				t.Fatal(err)
			}
		}
	}

	// randTask returns any slot, live or not: staging refuses what the
	// transaction may not touch.
	randTask := func() TID { return TID(rng.Intn(app.ntasks + 1)) }
	stage := func(tx *Reconfig) {
		var staged []TID
		add := func(d TData, versions int) TID {
			id, err := tx.AddTask(d)
			if err != nil {
				return -1
			}
			staged = append(staged, id)
			for ; versions > 0; versions-- {
				fn, props := version()
				vid, err := tx.AddVersion(id, fn, nil, props)
				if err == nil && len(pools) > 0 && rng.Intn(2) == 0 {
					tx.UseAccel(id, vid, pools[rng.Intn(len(pools))])
				}
			}
			return id
		}
		for ops := 1 + rng.Intn(4); ops > 0; ops-- {
			switch rng.Intn(11) {
			case 0, 1:
				add(data(false), rng.Intn(3)) // sometimes without a version
			case 10: // a data-activated loop behind a live task, closed with or without delay tokens
				x, y := add(TData{Name: fmt.Sprint("x", names)}, 1), add(TData{Name: fmt.Sprint("y", names)}, 1)
				names++
				ch := chans[rng.Intn(len(chans))]
				tx.Connect(randTask(), x, ch)
				tx.Connect(x, y, ch)
				tx.ConnectDelayed(y, x, ch, rng.Intn(2))
			case 2:
				tx.RemoveTask(randTask())
			case 3:
				d := data(rng.Intn(2) == 0)
				d.Name = ""
				tx.Retune(randTask(), d)
			case 4, 5, 6: // connect, often to a task this transaction stages
				src, dst := randTask(), randTask()
				if len(staged) > 0 && rng.Intn(2) == 0 {
					dst = staged[rng.Intn(len(staged))]
				}
				tx.ConnectDelayed(src, dst, chans[rng.Intn(len(chans))], []int{0, 0, 1, 2}[rng.Intn(4)])
			case 7:
				tx.a.mu.Lock(tx.c)
				var live []*edge
				for i := 0; i < tx.a.nedges; i++ {
					if e := &tx.a.edges[i]; !e.dead {
						live = append(live, e)
					}
				}
				tx.a.mu.Unlock(tx.c)
				if len(live) > 0 {
					e := live[rng.Intn(len(live))]
					tx.Disconnect(e.src, e.dst, e.ch)
				}
			case 8:
				c, err := tx.AddTopic(fmt.Sprint("top", names), TopicOpts{Capacity: 2, Policy: DropOldest})
				if err == nil {
					tx.PubOn(randTask(), c)
					tx.SubOn(randTask(), c)
				}
			case 9:
				tx.RemoveTopic(CID(rng.Intn(tx.a.ntopics)))
			}
		}
	}

	horizon := ms(400)
	env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := app.Start(c); err != nil {
			t.Errorf("seed %d: Start: %v", seed, err)
			return
		}
		for k := 0; k < 30; k++ {
			c.Sleep(us(rng.Intn(12000)))
			var want error
			err := app.Reconfigure(c, func(tx *Reconfig) error {
				stage(tx)
				app.mu.Lock(c)
				for i := 0; i < app.ntasks; i++ {
					if app.tasks[i].state == taskDraining {
						st.draining++
						break
					}
				}
				app.mu.Unlock(c)
				want = rebuildVerdict(tx)
				return nil
			})
			if fmt.Sprint(err) != fmt.Sprint(want) || errors.Is(err, ErrNotSchedulable) != errors.Is(want, ErrNotSchedulable) {
				t.Errorf("seed %d tx %d: validate+admit = %v\nrebuild = %v", seed, k, err, want)
				return
			}
			var nse *NotSchedulableError
			switch {
			case err == nil:
				st.admitted++
			case errors.As(err, &nse):
				st.unschedulable++
				if strings.HasSuffix(nse.Test, "+accel-blocking") {
					st.blocking++
				}
			default:
				st.invalid++
			}
			app.mu.Lock(c)
			for i := 0; i < app.nedges; i++ {
				if e := &app.edges[i]; !e.dead {
					st.edges++
					if t := &app.tasks[e.dst]; t.d.Period == 0 && len(t.versions) > 0 {
						st.rooted++
					}
				}
			}
			app.mu.Unlock(c)
		}
		c.SleepUntil(horizon)
		app.Stop(c)
		app.Cleanup(c)
	})
	if err := eng.Run(sim.Time(horizon + 10*time.Second)); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}
