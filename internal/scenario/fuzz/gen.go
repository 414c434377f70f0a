// Package fuzz grows scenarios instead of writing them: a seeded
// property-based generator emits random-but-valid scenario.Scenario
// values across named traffic shapes, a delta-debugging shrinker minimizes
// checker-violating scenarios to small reproducers, and a differential
// runner executes the same scenario on the SimEnv and OSEnv backends and
// diffs the checker-visible behaviour under an explicit tolerance model.
package fuzz

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/yasmin-rt/yasmin/internal/scenario"
	"github.com/yasmin-rt/yasmin/internal/spec"
)

// Shape names one generated traffic pattern. Every shape produces a valid
// scenario; they differ in which subsystem they push hardest.
type Shape string

const (
	// ShapeUniform is the unbiased mix: groups, topics, churn, failures.
	ShapeUniform Shape = "uniform"
	// ShapeDiurnal models a diurnal load curve: periodic retunes sweep the
	// group task periods down and back up, so utilisation breathes over the
	// run while admission re-validates every swing.
	ShapeDiurnal Shape = "diurnal"
	// ShapeBurst is the bursty fan-in storm: many publishers hammer few
	// subscribers through a shallow buffer at short periods, with churn
	// spiking load mid-storm.
	ShapeBurst Shape = "burst"
	// ShapeBackpressure is the slow-subscriber pattern: consume periods far
	// above publish periods force sustained overflow-policy pressure.
	ShapeBackpressure Shape = "backpressure"
	// ShapeAccelChain builds PIP holder chains: a chain group holds one
	// pool and parks mid-job on a second while more urgent accel-bound
	// tasks contend — the structural shape of the PR 5 waiter re-sort bug.
	ShapeAccelChain Shape = "accel_chain"
	// ShapeSteal skews per-group utilisation hard under the global mapping:
	// a heavy short-period minority next to a near-idle majority, so the
	// shared ready queue alternates between backlog and idle workers, while
	// retune/ping-pong churn republishes the dispatch tables mid-traffic.
	// The name is kept from the work-stealing design this shape once
	// stressed, so seeds and corpus files still map to the same scenarios.
	ShapeSteal Shape = "steal"
	// ShapeCluster generates multi-node scenarios with cross-node topics,
	// injected loss/reorder and cluster-wide churn.
	ShapeCluster Shape = "cluster"
)

// DefaultShapes is the single-node shape set Gen draws from when the
// config lists none.
var DefaultShapes = []Shape{ShapeUniform, ShapeDiurnal, ShapeBurst, ShapeBackpressure, ShapeAccelChain, ShapeSteal}

// AllShapes adds the cluster shape.
var AllShapes = append(append([]Shape{}, DefaultShapes...), ShapeCluster)

// Config bounds the generator.
type Config struct {
	// MaxTasks caps the statically declared task count (default 40).
	MaxTasks int
	// MaxDuration caps the simulated run length (default 250ms).
	MaxDuration time.Duration
	// Shapes is the set Gen draws from; empty means DefaultShapes, plus
	// ShapeCluster when Cluster is set.
	Shapes []Shape
	// Cluster admits cluster scenarios into the default shape set.
	Cluster bool
}

func (c *Config) shapes() []Shape {
	if len(c.Shapes) > 0 {
		return c.Shapes
	}
	if c.Cluster {
		return AllShapes
	}
	return DefaultShapes
}

func (c *Config) maxTasks() int {
	if c.MaxTasks > 0 {
		return c.MaxTasks
	}
	return 40
}

func (c *Config) maxDuration() time.Duration {
	if c.MaxDuration > 0 {
		return c.MaxDuration
	}
	return 250 * time.Millisecond
}

// seedMask keeps seeds non-negative and exactly representable as float64,
// so a generated scenario survives the YAML round trip (the subset parser
// types all numbers as float64).
const seedMask = 1<<53 - 1

// Gen deterministically derives one valid scenario from the seed: equal
// (seed, config) pairs produce identical scenarios, and the scenario's own
// Seed field is set so running it is reproducible too. The name encodes
// seed and shape ("fuzz-17-accel_chain"). Gen panics if it ever emits a
// scenario its own Validate rejects — that is a generator bug the native
// FuzzScenario target exists to surface.
func Gen(seed int64, cfg Config) *scenario.Scenario {
	seed &= seedMask
	rng := rand.New(rand.NewSource(seed))
	shapes := cfg.shapes()
	shape := shapes[rng.Intn(len(shapes))]

	sc := &scenario.Scenario{
		Name:     fmt.Sprintf("fuzz-%d-%s", seed, shape),
		Seed:     seed,
		Workers:  2 + rng.Intn(3),
		Duration: spec.Duration(durBetween(rng, 120*time.Millisecond, cfg.maxDuration())),
	}
	if d := cfg.maxDuration(); sc.Duration.Std() > d {
		sc.Duration = spec.Duration(d)
	}
	switch rng.Intn(5) {
	case 0:
		sc.Priority = "rm"
	case 1:
		sc.Priority = "dm"
	}
	if rng.Intn(4) == 0 && shape != ShapeCluster {
		sc.Mapping = "partitioned"
	}

	switch shape {
	case ShapeUniform:
		genUniform(rng, sc)
	case ShapeDiurnal:
		genDiurnal(rng, sc)
	case ShapeBurst:
		genBurst(rng, sc)
	case ShapeBackpressure:
		genBackpressure(rng, sc)
	case ShapeAccelChain:
		genAccelChain(rng, sc)
	case ShapeSteal:
		genSteal(rng, sc)
	case ShapeCluster:
		genCluster(rng, sc)
	}

	clampTasks(sc, cfg.maxTasks())
	scaleUtilisation(sc, 0.75)
	if err := sc.Validate(); err != nil {
		panic(fmt.Sprintf("fuzz: generator emitted an invalid scenario (seed %d, shape %s): %v", seed, shape, err))
	}
	return sc
}

// durBetween samples a duration uniformly in [lo, hi].
func durBetween(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(rng.Int63n(int64(hi-lo)+1))
}

func ms(n int) spec.Duration { return spec.Duration(time.Duration(n) * time.Millisecond) }

// periodDist samples a log-uniform period range within [loMin..hiMax] ms.
func periodDist(rng *rand.Rand, loMin, loMax, hiMin, hiMax int) scenario.Dist {
	lo := loMin + rng.Intn(loMax-loMin+1)
	hi := hiMin + rng.Intn(hiMax-hiMin+1)
	if hi <= lo {
		hi = lo + 1
	}
	return scenario.Dist{Min: ms(lo), Max: ms(hi)}
}

func genGroups(rng *rand.Rand, sc *scenario.Scenario, n int) {
	for i := 0; i < n; i++ {
		g := scenario.TaskGroup{
			Name:        fmt.Sprintf("g%d", i),
			Count:       2 + rng.Intn(5),
			Period:      periodDist(rng, 2, 6, 15, 60),
			Utilization: 0.02 + 0.06*rng.Float64(),
		}
		if rng.Intn(3) == 0 {
			g.DeadlineRatio = 0.8 + 0.2*rng.Float64()
		}
		if rng.Intn(2) == 0 {
			g.OffsetJitter = true
		}
		sc.Groups = append(sc.Groups, g)
	}
}

func genTopics(rng *rand.Rand, sc *scenario.Scenario, n int) {
	policies := []string{"", "reject", "drop_oldest", "latest"}
	for i := 0; i < n; i++ {
		sc.Topics = append(sc.Topics, scenario.TopicShape{
			Name:          fmt.Sprintf("t%d", i),
			Count:         1 + rng.Intn(2),
			Pubs:          1 + rng.Intn(3),
			Subs:          1 + rng.Intn(3),
			Capacity:      4 + rng.Intn(29),
			Policy:        policies[rng.Intn(len(policies))],
			PublishPeriod: ms(2 + rng.Intn(7)),
			ConsumePeriod: ms(3 + rng.Intn(10)),
		})
	}
}

// genChurnMix appends up to n churn phases from the single-node actions.
func genChurnMix(rng *rand.Rand, sc *scenario.Scenario, n int, withMode bool) {
	actions := []string{"add", "ping_pong", "retune"}
	if withMode {
		actions = append(actions, "mode")
	}
	horizon := sc.Duration.Std()
	for i := 0; i < n; i++ {
		cp := scenario.ChurnPhase{
			At:     spec.Duration(durBetween(rng, horizon/10, horizon/2)),
			Action: actions[rng.Intn(len(actions))],
		}
		if rng.Intn(3) > 0 {
			cp.Every = spec.Duration(durBetween(rng, horizon/10, horizon/3))
		}
		if cp.Action != "mode" {
			cp.Count = 2 + rng.Intn(4)
			cp.Utilization = 0.005 + 0.02*rng.Float64()
			cp.Period = periodDist(rng, 5, 12, 20, 80)
		}
		sc.Churn = append(sc.Churn, cp)
	}
}

func maybeFailures(rng *rand.Rand, sc *scenario.Scenario) {
	if rng.Intn(3) == 0 {
		sc.Failures.TaskErrorRate = 0.05 + 0.25*rng.Float64()
	}
}

func genUniform(rng *rand.Rand, sc *scenario.Scenario) {
	genGroups(rng, sc, 1+rng.Intn(2))
	genTopics(rng, sc, 1+rng.Intn(2))
	genChurnMix(rng, sc, rng.Intn(3), true)
	maybeFailures(rng, sc)
}

func genDiurnal(rng *rand.Rand, sc *scenario.Scenario) {
	genGroups(rng, sc, 1+rng.Intn(2))
	for i := range sc.Groups {
		sc.Groups[i].OffsetJitter = true
	}
	genTopics(rng, sc, 1)
	// The load curve: periodic retunes halve and restore the periods of a
	// slice of the fleet, so demanded utilisation breathes over the run.
	horizon := sc.Duration.Std()
	total := 0
	for i := range sc.Groups {
		total += sc.Groups[i].Count
	}
	sc.Churn = append(sc.Churn, scenario.ChurnPhase{
		At:     spec.Duration(horizon / 10),
		Every:  spec.Duration(horizon / 8),
		Action: "retune",
		Count:  1 + total/2,
	})
	if rng.Intn(2) == 0 {
		sc.Churn = append(sc.Churn, scenario.ChurnPhase{
			At:     spec.Duration(horizon / 4),
			Every:  spec.Duration(horizon / 4),
			Action: "mode",
		})
	}
	maybeFailures(rng, sc)
}

func genBurst(rng *rand.Rand, sc *scenario.Scenario) {
	policies := []string{"reject", "drop_oldest"}
	sc.Topics = append(sc.Topics, scenario.TopicShape{
		Name:          "storm",
		Count:         1,
		Pubs:          4 + rng.Intn(5),
		Subs:          1 + rng.Intn(2),
		Capacity:      2 + rng.Intn(7),
		Policy:        policies[rng.Intn(len(policies))],
		PublishPeriod: ms(1 + rng.Intn(3)),
		ConsumePeriod: ms(4 + rng.Intn(7)),
	})
	if rng.Intn(2) == 0 {
		genGroups(rng, sc, 1)
	}
	horizon := sc.Duration.Std()
	sc.Churn = append(sc.Churn, scenario.ChurnPhase{
		At:          spec.Duration(horizon / 5),
		Every:       spec.Duration(horizon / 5),
		Action:      "add",
		Count:       2 + rng.Intn(4),
		Utilization: 0.01 + 0.02*rng.Float64(),
	})
}

func genBackpressure(rng *rand.Rand, sc *scenario.Scenario) {
	policies := []string{"drop_oldest", "latest", "reject"}
	for i := 0; i < 1+rng.Intn(2); i++ {
		sc.Topics = append(sc.Topics, scenario.TopicShape{
			Name:          fmt.Sprintf("slow%d", i),
			Count:         1 + rng.Intn(2),
			Pubs:          1 + rng.Intn(3),
			Subs:          1 + rng.Intn(3),
			Capacity:      4 + rng.Intn(13),
			Policy:        policies[rng.Intn(len(policies))],
			PublishPeriod: ms(1 + rng.Intn(4)),
			ConsumePeriod: ms(15 + rng.Intn(26)),
		})
	}
	genChurnMix(rng, sc, rng.Intn(2), false)
	maybeFailures(rng, sc)
}

func genAccelChain(rng *rand.Rand, sc *scenario.Scenario) {
	// The stale-grant race needs two MID-JOB waiters on the same second
	// pool that receive different boosts, so the two chain groups must
	// enter dsp from different outer pools (a shared outer pool would
	// boost both waiters to the same priority — no strict inversion). The
	// dsp-bound group holds dsp whole-job with a large wcet: its long
	// occupancy is the window in which both chain tasks park mid-job and
	// a hot gpu park can re-prioritise one of them.
	sc.Accels = []scenario.AccelDecl{
		{Name: "gpu"}, {Name: "aux"}, {Name: "dsp"},
	}
	sc.Groups = append(sc.Groups, scenario.TaskGroup{
		Name:        "chainA",
		Count:       1 + rng.Intn(2),
		Period:      periodDist(rng, 10, 13, 14, 18),
		Utilization: 0.08 + 0.06*rng.Float64(),
		Accel:       "gpu",
		AccelShare:  0.25 + 0.10*rng.Float64(),
		Accel2:      "dsp",
		Accel2Share: 0.25 + 0.10*rng.Float64(),
	})
	sc.Groups = append(sc.Groups, scenario.TaskGroup{
		Name:        "chainB",
		Count:       1 + rng.Intn(2),
		Period:      periodDist(rng, 6, 7, 8, 9),
		Utilization: 0.08 + 0.06*rng.Float64(),
		Accel:       "aux",
		AccelShare:  0.25 + 0.10*rng.Float64(),
		Accel2:      "dsp",
		Accel2Share: 0.25 + 0.10*rng.Float64(),
	})
	sc.Groups = append(sc.Groups, scenario.TaskGroup{
		Name:        "dspuser",
		Count:       1,
		Period:      periodDist(rng, 18, 20, 22, 26),
		Utilization: 0.35 + 0.15*rng.Float64(),
		Accel:       "dsp",
		AccelShare:  0.70 + 0.15*rng.Float64(),
	})
	sc.Groups = append(sc.Groups, scenario.TaskGroup{
		Name:        "hot",
		Count:       1 + rng.Intn(2),
		Period:      periodDist(rng, 2, 3, 3, 4),
		Utilization: 0.06 + 0.06*rng.Float64(),
		Accel:       "gpu",
		AccelShare:  0.40 + 0.20*rng.Float64(),
	})
	horizon := sc.Duration.Std()
	if rng.Intn(2) == 0 {
		sc.Churn = append(sc.Churn, scenario.ChurnPhase{
			At:          spec.Duration(horizon / 6),
			Every:       spec.Duration(horizon / 5),
			Action:      "ping_pong",
			Count:       1 + rng.Intn(3),
			Utilization: 0.02 + 0.04*rng.Float64(),
			Period:      periodDist(rng, 4, 8, 10, 25),
			Accel:       "gpu",
			AccelShare:  0.3,
		})
	}
}

// genSteal builds the imbalanced-load pattern under the global mapping,
// overriding any partitioned draw: a few heavy short-period tasks keep the
// shared queue backlogged while a near-idle majority pads the task table.
func genSteal(rng *rand.Rand, sc *scenario.Scenario) {
	sc.Mapping = ""
	sc.Groups = append(sc.Groups, scenario.TaskGroup{
		Name:         "heavy",
		Count:        2 + rng.Intn(3),
		Period:       periodDist(rng, 1, 2, 2, 4),
		Utilization:  0.25 + 0.15*rng.Float64(),
		OffsetJitter: rng.Intn(2) == 0,
	})
	sc.Groups = append(sc.Groups, scenario.TaskGroup{
		Name:        "idle",
		Count:       6 + rng.Intn(8),
		Period:      periodDist(rng, 40, 60, 80, 120),
		Utilization: 0.002 + 0.004*rng.Float64(),
	})
	if rng.Intn(2) == 0 {
		genTopics(rng, sc, 1)
	}
	horizon := sc.Duration.Std()
	sc.Churn = append(sc.Churn, scenario.ChurnPhase{
		At:     spec.Duration(horizon / 8),
		Every:  spec.Duration(horizon / 6),
		Action: "retune",
		Count:  2 + rng.Intn(3),
	})
	if rng.Intn(2) == 0 {
		sc.Churn = append(sc.Churn, scenario.ChurnPhase{
			At:          spec.Duration(horizon / 4),
			Every:       spec.Duration(horizon / 5),
			Action:      "ping_pong",
			Count:       2 + rng.Intn(3),
			Utilization: 0.01 + 0.02*rng.Float64(),
			Period:      periodDist(rng, 3, 6, 8, 20),
		})
	}
	maybeFailures(rng, sc)
}

func genCluster(rng *rand.Rand, sc *scenario.Scenario) {
	n := 2 + rng.Intn(2)
	ns := &scenario.NodesSpec{Count: n}
	if rng.Intn(2) == 0 {
		ns.LossRate = 0.02 + 0.08*rng.Float64()
	}
	if rng.Intn(3) == 0 {
		ns.ReorderRate = 0.01 + 0.04*rng.Float64()
	}
	if rng.Intn(2) == 0 {
		ns.SyncInterval = spec.Duration(durBetween(rng, 5*time.Millisecond, 20*time.Millisecond))
		skews := make([]spec.Duration, n)
		for i := 1; i < n; i++ {
			skews[i] = spec.Duration(time.Duration(rng.Intn(200)) * time.Microsecond)
		}
		ns.ClockSkew = skews
	}
	sc.Nodes = ns
	// One group per node: every member must host at least one task or its
	// application fails to build.
	for i := 0; i < n; i++ {
		sc.Groups = append(sc.Groups, scenario.TaskGroup{
			Name:        fmt.Sprintf("g%d", i),
			Count:       1 + rng.Intn(3),
			Period:      periodDist(rng, 2, 6, 15, 50),
			Utilization: 0.02 + 0.05*rng.Float64(),
			Node:        i,
		})
	}
	// At least one topic crosses nodes so the data plane carries frames.
	pubNodes := []int{rng.Intn(n)}
	subNodes := []int{(pubNodes[0] + 1) % n}
	if rng.Intn(2) == 0 {
		pubNodes = append(pubNodes, rng.Intn(n))
	}
	sc.Topics = append(sc.Topics, scenario.TopicShape{
		Name:          "wire",
		Count:         1 + rng.Intn(2),
		Pubs:          1 + rng.Intn(2),
		Subs:          1 + rng.Intn(2),
		Capacity:      8 + rng.Intn(25),
		PublishPeriod: ms(2 + rng.Intn(5)),
		ConsumePeriod: ms(3 + rng.Intn(8)),
		PubNodes:      pubNodes,
		SubNodes:      subNodes,
	})
	if rng.Intn(2) == 0 {
		horizon := sc.Duration.Std()
		sc.Churn = append(sc.Churn, scenario.ChurnPhase{
			At:          spec.Duration(horizon / 5),
			Every:       spec.Duration(horizon / 4),
			Action:      "cluster",
			Count:       1 + rng.Intn(3),
			Utilization: 0.01 + 0.02*rng.Float64(),
		})
	}
}

// clampTasks trims group counts and topic fan-in/out until the static task
// count fits the budget. Deterministic: always trims the current largest
// contributor.
func clampTasks(sc *scenario.Scenario, budget int) {
	for sc.TaskCount() > budget {
		bigGroup, bigTopic, most := -1, -1, 0
		for i := range sc.Groups {
			if sc.Groups[i].Count > most && sc.Groups[i].Count > 1 {
				most, bigGroup, bigTopic = sc.Groups[i].Count, i, -1
			}
		}
		for i := range sc.Topics {
			tp := &sc.Topics[i]
			if n := tp.Count * (tp.Pubs + tp.Subs); n > most && (tp.Count > 1 || tp.Pubs > 1 || tp.Subs > 1) {
				most, bigGroup, bigTopic = n, -1, i
			}
		}
		switch {
		case bigGroup >= 0:
			sc.Groups[bigGroup].Count--
		case bigTopic >= 0:
			tp := &sc.Topics[bigTopic]
			switch {
			case tp.Count > 1:
				tp.Count--
			case tp.Pubs >= tp.Subs && tp.Pubs > 1:
				tp.Pubs--
			case tp.Subs > 1:
				tp.Subs--
			}
		default:
			return // nothing left to trim
		}
	}
}

// scaleUtilisation rescales group utilisations so no node demands more
// than frac of its workers — admission headroom for churn to fight over.
func scaleUtilisation(sc *scenario.Scenario, frac float64) {
	perNode := map[int]float64{}
	for i := range sc.Groups {
		perNode[sc.Groups[i].Node] += float64(sc.Groups[i].Count) * sc.Groups[i].Utilization
	}
	worst := 1.0
	for _, u := range perNode { //yasmin:orderinvariant max over nodes is order-independent
		if f := u / (frac * float64(sc.Workers)); f > worst {
			worst = f
		}
	}
	if worst <= 1 {
		return
	}
	for i := range sc.Groups {
		sc.Groups[i].Utilization /= worst
		if sc.Groups[i].Utilization < 0.001 {
			sc.Groups[i].Utilization = 0.001
		}
	}
}
