package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/yasmin-rt/yasmin/internal/spec"
)

// WriteYAML serializes the scenario back into the dependency-free YAML
// subset yaml.go parses, so shrunk fuzz reproducers can be committed
// directly under scenarios/corpus/. The emitter is typed field-by-field
// (no reflection): Load(WriteYAML(sc)) round-trips to a DeepEqual-identical
// scenario, which write_yaml_test.go proves on every generated scenario.
// Zero-valued optional fields are omitted, mirroring their json omitempty
// tags, so a round-tripped scenario compares equal rather than gaining
// explicit zeros.
func (sc *Scenario) WriteYAML() []byte {
	w := &yamlWriter{}
	w.str(0, "name", sc.Name)
	if sc.Seed != 0 {
		w.int(0, "seed", sc.Seed)
	}
	w.dur(0, "duration", sc.Duration)
	w.int(0, "workers", int64(sc.Workers))
	if sc.Mapping != "" {
		w.str(0, "mapping", sc.Mapping)
	}
	if sc.Priority != "" {
		w.str(0, "priority", sc.Priority)
	}
	if sc.MaxPendingJobs != 0 {
		w.int(0, "max_pending_jobs", int64(sc.MaxPendingJobs))
	}
	if ns := sc.Nodes; ns != nil {
		w.key(0, "nodes")
		w.int(2, "count", int64(ns.Count))
		if ns.LossRate != 0 {
			w.float(2, "loss_rate", ns.LossRate)
		}
		if ns.ReorderRate != 0 {
			w.float(2, "reorder_rate", ns.ReorderRate)
		}
		if ns.SyncInterval != 0 {
			w.dur(2, "sync_interval", ns.SyncInterval)
		}
		if len(ns.ClockSkew) > 0 {
			w.durList(2, "clock_skew", ns.ClockSkew)
		}
	}
	if len(sc.Accels) > 0 {
		w.key(0, "accels")
		for i := range sc.Accels {
			a := &sc.Accels[i]
			w.item(2, "name", yamlString(a.Name))
			if a.Count != 0 {
				w.int(4, "count", int64(a.Count))
			}
		}
	}
	if sc.AccelWaitBound != 0 {
		w.dur(0, "accel_wait_bound", sc.AccelWaitBound)
	}
	if len(sc.Groups) > 0 {
		w.key(0, "groups")
		for i := range sc.Groups {
			g := &sc.Groups[i]
			w.item(2, "name", yamlString(g.Name))
			w.int(4, "count", int64(g.Count))
			w.dist(4, "period", &g.Period)
			w.float(4, "utilization", g.Utilization)
			if g.DeadlineRatio != 0 {
				w.float(4, "deadline_ratio", g.DeadlineRatio)
			}
			if g.OffsetJitter {
				w.bool(4, "offset_jitter", true)
			}
			if g.Accel != "" {
				w.str(4, "accel", g.Accel)
			}
			if g.AccelShare != 0 {
				w.float(4, "accel_share", g.AccelShare)
			}
			if g.Accel2 != "" {
				w.str(4, "accel2", g.Accel2)
			}
			if g.Accel2Share != 0 {
				w.float(4, "accel2_share", g.Accel2Share)
			}
			if g.Node != 0 {
				w.int(4, "node", int64(g.Node))
			}
		}
	}
	if len(sc.Topics) > 0 {
		w.key(0, "topics")
		for i := range sc.Topics {
			tp := &sc.Topics[i]
			w.item(2, "name", yamlString(tp.Name))
			w.int(4, "count", int64(tp.Count))
			w.int(4, "pubs", int64(tp.Pubs))
			w.int(4, "subs", int64(tp.Subs))
			w.int(4, "capacity", int64(tp.Capacity))
			if tp.Policy != "" {
				w.str(4, "policy", tp.Policy)
			}
			w.dur(4, "publish_period", tp.PublishPeriod)
			w.dur(4, "consume_period", tp.ConsumePeriod)
			if len(tp.PubNodes) > 0 {
				w.intList(4, "pub_nodes", tp.PubNodes)
			}
			if len(tp.SubNodes) > 0 {
				w.intList(4, "sub_nodes", tp.SubNodes)
			}
		}
	}
	if len(sc.Churn) > 0 {
		w.key(0, "churn")
		for i := range sc.Churn {
			cp := &sc.Churn[i]
			w.item(2, "at", yamlDur(cp.At))
			if cp.Every != 0 {
				w.dur(4, "every", cp.Every)
			}
			w.str(4, "action", cp.Action)
			if cp.Count != 0 {
				w.int(4, "count", int64(cp.Count))
			}
			if cp.Period.Min != 0 || cp.Period.Max != 0 || len(cp.Period.Choices) > 0 {
				w.dist(4, "period", &cp.Period)
			}
			if cp.Utilization != 0 {
				w.float(4, "utilization", cp.Utilization)
			}
			if cp.Accel != "" {
				w.str(4, "accel", cp.Accel)
			}
			if cp.AccelShare != 0 {
				w.float(4, "accel_share", cp.AccelShare)
			}
		}
	}
	if sc.Failures.TaskErrorRate != 0 {
		w.key(0, "failures")
		w.float(2, "task_error_rate", sc.Failures.TaskErrorRate)
	}
	return []byte(w.b.String())
}

// yamlWriter accumulates indented "key: value" lines.
type yamlWriter struct{ b strings.Builder }

func (w *yamlWriter) line(indent int, s string) {
	w.b.WriteString(strings.Repeat(" ", indent))
	w.b.WriteString(s)
	w.b.WriteByte('\n')
}

// key opens a nested block: "key:".
func (w *yamlWriter) key(indent int, k string) { w.line(indent, k+":") }

// item starts a sequence element with its first key: "- key: value".
func (w *yamlWriter) item(indent int, k, v string) { w.line(indent, "- "+k+": "+v) }

func (w *yamlWriter) str(indent int, k, v string) { w.line(indent, k+": "+yamlString(v)) }

func (w *yamlWriter) int(indent int, k string, v int64) {
	w.line(indent, k+": "+strconv.FormatInt(v, 10))
}

func (w *yamlWriter) float(indent int, k string, v float64) {
	w.line(indent, k+": "+strconv.FormatFloat(v, 'g', -1, 64))
}

func (w *yamlWriter) bool(indent int, k string, v bool) {
	w.line(indent, k+": "+strconv.FormatBool(v))
}

func (w *yamlWriter) dur(indent int, k string, v spec.Duration) {
	w.line(indent, k+": "+yamlDur(v))
}

// dist writes a Dist as a nested block.
func (w *yamlWriter) dist(indent int, k string, d *Dist) {
	w.key(indent, k)
	if len(d.Choices) > 0 {
		w.durList(indent+2, "choices", d.Choices)
		return
	}
	if d.Min != 0 {
		w.dur(indent+2, "min", d.Min)
	}
	if d.Max != 0 {
		w.dur(indent+2, "max", d.Max)
	}
}

// intList / durList write the one flow form the parser accepts: a flat
// scalar list.
func (w *yamlWriter) intList(indent int, k string, vs []int) {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	w.line(indent, fmt.Sprintf("%s: [%s]", k, strings.Join(parts, ", ")))
}

func (w *yamlWriter) durList(indent int, k string, vs []spec.Duration) {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = yamlDur(v)
	}
	w.line(indent, fmt.Sprintf("%s: [%s]", k, strings.Join(parts, ", ")))
}

// yamlDur renders a duration the way scenario files spell them ("250ms").
func yamlDur(d spec.Duration) string { return d.Std().String() }

// yamlString quotes s only when a bare spelling would parse as something
// else (number, bool, null, flow list, comment, nested key) or be
// whitespace-mangled.
func yamlString(s string) string {
	if needsQuoting(s) {
		return strconv.Quote(s)
	}
	return s
}

func needsQuoting(s string) bool {
	switch s {
	case "", "null", "~", "true", "false":
		return true
	}
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return true
	}
	if s != strings.TrimSpace(s) {
		return true
	}
	if strings.HasPrefix(s, "-") || strings.HasPrefix(s, "[") || strings.HasPrefix(s, "{") ||
		strings.HasPrefix(s, "\"") || strings.HasPrefix(s, "'") {
		return true
	}
	return strings.ContainsAny(s, ":#\n\t,]}")
}
