// Declarative live reconfiguration: Diff computes the transaction that
// turns one application spec into another, Plan.Apply (or the package-level
// SwitchSpec) stages it onto App.Reconfigure, and installModes compiles
// Spec.Modes into core mode presets so App.SwitchMode drives the same
// machinery from a task-subset description.
package spec

import (
	"fmt"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/rt"
)

// PlanChannel identifies a channel (and its endpoints at diff time) slated
// for removal.
type PlanChannel struct {
	Name string `json:"name"`
	Src  string `json:"src,omitempty"`
	Dst  string `json:"dst,omitempty"`
}

// Plan is the reconfiguration transaction Diff derives from two specs: the
// tasks to retire, admit and retune, and the topics/channels that come and
// go with them. Apply stages it onto a single App.Reconfigure transaction —
// validated, admission-tested and committed atomically, or rejected leaving
// the running application unchanged.
type Plan struct {
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Remove lists tasks of the old spec absent (or structurally changed)
	// in the new one; they drain at commit.
	Remove []string `json:"remove,omitempty"`
	// Add lists tasks of the new spec to admit (newly declared or the
	// re-declared halves of structural changes).
	Add []string `json:"add,omitempty"`
	// Retune lists tasks whose timing-only parameters changed.
	Retune []string `json:"retune,omitempty"`
	// AddTopics / RemoveTopics list pub-sub topics that exist in only one
	// of the specs (or changed definition: removed and re-added).
	AddTopics    []string `json:"add_topics,omitempty"`
	RemoveTopics []string `json:"remove_topics,omitempty"`
	// RemoveChannels lists channels to sever and delete.
	RemoveChannels []PlanChannel `json:"remove_channels,omitempty"`
	// Mode optionally installs an execution-mode word at commit.
	Mode *uint32 `json:"mode,omitempty"`

	to *Spec // target spec carrying task/topic definitions (not serialized)
}

// Empty reports whether the plan stages no change at all.
func (p *Plan) Empty() bool {
	return len(p.Remove) == 0 && len(p.Add) == 0 && len(p.Retune) == 0 &&
		len(p.AddTopics) == 0 && len(p.RemoveTopics) == 0 &&
		len(p.RemoveChannels) == 0 && p.Mode == nil
}

// Diff computes the Plan that reconfigures an application built from `from`
// into `to`. Tasks present in both specs with identical structure but
// different timing become retunes; structural changes (versions, wiring)
// become retire-and-readmit pairs. Both specs must validate.
func Diff(from, to *Spec) (*Plan, error) {
	if err := from.Validate(); err != nil {
		return nil, fmt.Errorf("spec: diff source: %w", err)
	}
	if err := to.Validate(); err != nil {
		return nil, fmt.Errorf("spec: diff target: %w", err)
	}
	p := &Plan{From: from.Name, To: to.Name, to: to}

	fromTask := make(map[string]*TaskSpec, len(from.Tasks))
	for i := range from.Tasks {
		fromTask[from.Tasks[i].Name] = &from.Tasks[i]
	}
	toTask := make(map[string]*TaskSpec, len(to.Tasks))
	for i := range to.Tasks {
		toTask[to.Tasks[i].Name] = &to.Tasks[i]
	}

	// Topics first: a changed topic forces its registered tasks through a
	// retire/readmit cycle (a live topic cannot be resized).
	forced := make(map[string]bool)
	fromTopic := make(map[string]*TopicSpec, len(from.Topics))
	for i := range from.Topics {
		fromTopic[from.Topics[i].Name] = &from.Topics[i]
	}
	toTopic := make(map[string]*TopicSpec, len(to.Topics))
	for i := range to.Topics {
		toTopic[to.Topics[i].Name] = &to.Topics[i]
	}
	for i := range from.Topics {
		ft := &from.Topics[i]
		tt, ok := toTopic[ft.Name]
		if ok && topicDefEqual(ft, tt) {
			continue
		}
		p.RemoveTopics = append(p.RemoveTopics, ft.Name)
		for _, tn := range ft.Pubs {
			forced[tn] = true
		}
		for _, tn := range ft.Subs {
			forced[tn] = true
		}
		if ok { // changed definition: re-add under the new one
			p.AddTopics = append(p.AddTopics, ft.Name)
		}
	}
	for i := range to.Topics {
		if _, ok := fromTopic[to.Topics[i].Name]; !ok {
			p.AddTopics = append(p.AddTopics, to.Topics[i].Name)
		}
	}

	// Channels absent or redefined in the target are severed; a redefined
	// channel forces its endpoints through retire/readmit, which re-creates
	// it under the new definition.
	toChan := make(map[string]*ChannelSpec, len(to.Channels))
	for i := range to.Channels {
		toChan[to.Channels[i].Name] = &to.Channels[i]
	}
	for i := range from.Channels {
		fc := &from.Channels[i]
		tc, ok := toChan[fc.Name]
		if ok && channelDefEqual(fc, tc) {
			continue
		}
		p.RemoveChannels = append(p.RemoveChannels, PlanChannel{Name: fc.Name, Src: fc.Src, Dst: fc.Dst})
		for _, tn := range []string{fc.Src, fc.Dst} {
			if tn != "" {
				forced[tn] = true
			}
		}
		if ok {
			for _, tn := range []string{tc.Src, tc.Dst} {
				if tn != "" {
					forced[tn] = true
				}
			}
		}
	}

	for i := range from.Tasks {
		if _, ok := toTask[from.Tasks[i].Name]; !ok {
			p.Remove = append(p.Remove, from.Tasks[i].Name)
		}
	}
	for i := range to.Tasks { // deterministic order: target declaration order
		name := to.Tasks[i].Name
		ft, existed := fromTask[name]
		switch {
		case !existed:
			p.Add = append(p.Add, name)
		case forced[name] || !taskStructEqual(from, to, ft, &to.Tasks[i]):
			p.Remove = append(p.Remove, name)
			p.Add = append(p.Add, name)
		case !taskTimingEqual(ft, &to.Tasks[i]):
			p.Retune = append(p.Retune, name)
		}
	}
	return p, nil
}

// Apply stages the plan onto one reconfiguration transaction of app. The
// app must have been built from the plan's source spec (names resolve
// against the live task set).
func (p *Plan) Apply(c rt.Ctx, app *core.App) error {
	if p.to == nil {
		return fmt.Errorf("spec: plan has no target spec (construct plans with Diff)")
	}
	return app.Reconfigure(c, func(tx *core.Reconfig) error {
		if err := p.to.stageTarget(tx, p.Add, p.Remove, p.Retune, p.AddTopics, p.RemoveTopics, p.RemoveChannels); err != nil {
			return err
		}
		if p.Mode != nil {
			tx.SetMode(*p.Mode)
		}
		return nil
	})
}

// SwitchSpec computes Diff(from, to) and applies it to the app in one
// admitted transaction — the declarative spelling of App.Reconfigure.
func SwitchSpec(c rt.Ctx, app *core.App, from, to *Spec) (*Plan, error) {
	p, err := Diff(from, to)
	if err != nil {
		return nil, err
	}
	if err := p.Apply(c, app); err != nil {
		return p, err
	}
	return p, nil
}

// installModes compiles Spec.Modes into core mode presets. Each preset's
// Build computes, at switch time, the task add/remove set that turns the
// app's current live tasks into the mode's active set, so arbitrary mode
// sequences (and partial states from earlier transactions) converge.
func (s *Spec) installModes(app *core.App) error {
	for i := range s.Modes {
		m := &s.Modes[i]
		active := m.activeSet(s)
		preset := core.ModePreset{
			Mode: m.Mode,
			Build: func(tx *core.Reconfig) error {
				var add, remove []string
				for ti := range s.Tasks {
					name := s.Tasks[ti].Name
					has := tx.HasTask(name)
					switch {
					case active[name] && !has:
						add = append(add, name)
					case !active[name] && has:
						remove = append(remove, name)
					}
				}
				return s.stageTarget(tx, add, remove, nil, nil, nil, nil)
			},
		}
		if err := app.InstallMode(m.Name, preset); err != nil {
			return err
		}
	}
	return nil
}

// stageTarget stages removals, additions and retunes against s (the target
// spec) on one transaction. Added tasks get their versions (synthesized
// when function-less), accelerator bindings, channels to other active tasks
// and topic registrations, exactly as a fresh Build would wire them.
func (s *Spec) stageTarget(tx *core.Reconfig, add, remove, retune []string,
	addTopics []string, removeTopics []string, removeChannels []PlanChannel) error {
	for _, name := range remove {
		if err := tx.RemoveTaskByName(name); err != nil {
			return fmt.Errorf("spec: remove task %q: %w", name, err)
		}
	}
	for _, pc := range removeChannels {
		cid := tx.TopicID(pc.Name)
		if cid < 0 {
			continue // already gone
		}
		if pc.Src != "" {
			src, dst := tx.TaskID(pc.Src), tx.TaskID(pc.Dst)
			if src >= 0 && dst >= 0 { // both endpoints survive: sever explicitly
				if err := tx.Disconnect(src, dst, cid); err != nil {
					return fmt.Errorf("spec: disconnect channel %q: %w", pc.Name, err)
				}
			}
		}
		if err := tx.RemoveTopic(cid); err != nil {
			return fmt.Errorf("spec: remove channel %q: %w", pc.Name, err)
		}
	}
	for _, name := range removeTopics {
		if err := tx.RemoveTopicByName(name); err != nil {
			return fmt.Errorf("spec: remove topic %q: %w", name, err)
		}
	}
	for _, name := range addTopics {
		ts := s.topicSpec(name)
		if ts == nil {
			return fmt.Errorf("spec: plan adds topic %q not in the target spec", name)
		}
		pol, err := core.ParsePolicy(ts.Policy)
		if err != nil {
			return err
		}
		if _, err := tx.AddTopic(ts.Name, core.TopicOpts{
			Capacity: ts.Capacity, Policy: pol, Priority: ts.Priority}); err != nil {
			return fmt.Errorf("spec: add topic %q: %w", name, err)
		}
	}

	// Stage all added tasks first so forward references resolve.
	addSet := make(map[string]bool, len(add))
	tids := make(map[string]core.TID, len(add))
	for _, name := range add {
		ts := s.taskSpec(name)
		if ts == nil {
			return fmt.Errorf("spec: plan adds task %q not in the target spec", name)
		}
		tid, err := tx.AddTask(ts.data())
		if err != nil {
			return fmt.Errorf("spec: add task %q: %w", name, err)
		}
		addSet[name] = true
		tids[name] = tid
	}

	// Channels touching an added task: ensure the channel exists and
	// connect it when both endpoints are active in the merged view.
	ins := make(map[string][]core.CID)
	outs := make(map[string][]core.CID)
	for i := range s.Channels {
		cs := &s.Channels[i]
		if cs.Src == "" {
			continue
		}
		if !addSet[cs.Src] && !addSet[cs.Dst] {
			continue
		}
		if !tx.HasTask(cs.Src) || !tx.HasTask(cs.Dst) {
			continue // other endpoint inactive in this configuration
		}
		cid := tx.TopicID(cs.Name)
		if cid < 0 {
			var err error
			if cid, err = tx.AddChannel(cs.Name, cs.Capacity); err != nil {
				return fmt.Errorf("spec: add channel %q: %w", cs.Name, err)
			}
		}
		if err := tx.ConnectDelayed(tx.TaskID(cs.Src), tx.TaskID(cs.Dst), cid, cs.Delay); err != nil {
			return fmt.Errorf("spec: connect channel %q: %w", cs.Name, err)
		}
		if cs.Capacity > 0 {
			ins[cs.Dst] = append(ins[cs.Dst], cid)
		}
		outs[cs.Src] = append(outs[cs.Src], cid)
	}

	// Topic registrations for added tasks; collect the endpoint lists the
	// synthesized bodies consume.
	tins := make(map[string][]core.CID)
	touts := make(map[string][]core.CID)
	for i := range s.Topics {
		tp := &s.Topics[i]
		cid := tx.TopicID(tp.Name)
		if cid < 0 {
			return fmt.Errorf("spec: topic %q not present in the live application (plans must add it)", tp.Name)
		}
		for _, pn := range tp.Pubs {
			if addSet[pn] {
				if err := tx.PubOn(tids[pn], cid); err != nil {
					return fmt.Errorf("spec: topic %q publisher %q: %w", tp.Name, pn, err)
				}
				touts[pn] = append(touts[pn], cid)
			}
		}
		for _, sn := range tp.Subs {
			if addSet[sn] {
				if err := tx.SubOn(tids[sn], cid); err != nil {
					return fmt.Errorf("spec: topic %q subscriber %q: %w", tp.Name, sn, err)
				}
				tins[sn] = append(tins[sn], cid)
			}
		}
	}

	// Versions (synthesized against the staged wiring when function-less)
	// and accelerator bindings.
	for _, name := range add {
		ts := s.taskSpec(name)
		tid := tids[name]
		for vi := range ts.Versions {
			v := &ts.Versions[vi]
			fn := v.Fn
			if fn == nil {
				fn = synthBody(ins[name], outs[name], tins[name], touts[name], v)
			}
			vid, err := tx.AddVersion(tid, fn, v.Args, v.props())
			if err != nil {
				return fmt.Errorf("spec: task %q version %d: %w", name, vi, err)
			}
			if v.Accel != "" {
				if err := tx.UseAccel(tid, vid, s.AccelID(v.Accel)); err != nil {
					return fmt.Errorf("spec: task %q version %d: %w", name, vi, err)
				}
			}
		}
	}

	for _, name := range retune {
		ts := s.taskSpec(name)
		if ts == nil {
			return fmt.Errorf("spec: plan retunes task %q not in the target spec", name)
		}
		tid := tx.TaskID(name)
		if tid < 0 {
			return fmt.Errorf("spec: retune: no live task %q", name)
		}
		if err := tx.Retune(tid, ts.data()); err != nil {
			return fmt.Errorf("spec: retune task %q: %w", name, err)
		}
	}
	return nil
}

func (s *Spec) taskSpec(name string) *TaskSpec {
	for i := range s.Tasks {
		if s.Tasks[i].Name == name {
			return &s.Tasks[i]
		}
	}
	return nil
}

func (s *Spec) topicSpec(name string) *TopicSpec {
	for i := range s.Topics {
		if s.Topics[i].Name == name {
			return &s.Topics[i]
		}
	}
	return nil
}

// taskTimingEqual compares the parameters Retune can change live.
func taskTimingEqual(a, b *TaskSpec) bool {
	return a.Period == b.Period && a.Deadline == b.Deadline && a.Offset == b.Offset &&
		a.Core == b.Core && a.Priority == b.Priority && a.Sporadic == b.Sporadic
}

// taskStructEqual compares everything a retune cannot change: the version
// list (extra-functional properties and accelerator bindings) and the
// task's channel/topic wiring in its spec.
func taskStructEqual(from, to *Spec, a, b *TaskSpec) bool {
	if len(a.Versions) != len(b.Versions) {
		return false
	}
	for i := range a.Versions {
		va, vb := &a.Versions[i], &b.Versions[i]
		if va.WCET != vb.WCET || va.Energy != vb.Energy || va.MinBattery != vb.MinBattery ||
			va.Quality != vb.Quality || va.Modes != vb.Modes || va.Mask != vb.Mask ||
			va.Accel != vb.Accel {
			return false
		}
	}
	return wiringKey(from, a.Name) == wiringKey(to, b.Name)
}

// wiringKey summarises a task's channel endpoints and topic registrations
// within a spec, order-independent of unrelated declarations.
func wiringKey(s *Spec, name string) string {
	key := ""
	for i := range s.Channels {
		c := &s.Channels[i]
		if c.Src == name {
			key += fmt.Sprintf("out:%s>%s/%d/%d;", c.Name, c.Dst, c.Capacity, c.Delay)
		}
		if c.Dst == name {
			key += fmt.Sprintf("in:%s<%s/%d/%d;", c.Name, c.Src, c.Capacity, c.Delay)
		}
	}
	for i := range s.Topics {
		tp := &s.Topics[i]
		for _, p := range tp.Pubs {
			if p == name {
				key += "pub:" + tp.Name + ";"
			}
		}
		for _, sb := range tp.Subs {
			if sb == name {
				key += "sub:" + tp.Name + ";"
			}
		}
	}
	return key
}

func topicDefEqual(a, b *TopicSpec) bool {
	if a.Capacity != b.Capacity || a.Policy != b.Policy || a.Priority != b.Priority {
		return false
	}
	return stringSetEqual(a.Pubs, b.Pubs) && stringSetEqual(a.Subs, b.Subs)
}

func channelDefEqual(a, b *ChannelSpec) bool {
	return a.Capacity == b.Capacity && a.Src == b.Src && a.Dst == b.Dst && a.Delay == b.Delay
}

func stringSetEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]int, len(a))
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		if seen[x] == 0 {
			return false
		}
		seen[x]--
	}
	return true
}
