package core

import (
	"github.com/yasmin-rt/yasmin/internal/rt"
)

// selectVersion picks the version to run for job j following the configured
// method (Section 3.2), preferring versions whose accelerator is free. When
// every admissible version targets a busy accelerator, it returns the
// accelerator of the preferred version in blockedOn so the caller parks the
// job there (with PIP). Called on w's fiber. The caller holds App.mu unless
// j is fastSel: then no version is accelerator-bound and the method is not
// SelectUser, so the first preference is returned without touching
// accelerator state.
func (a *App) selectVersion(c rt.Ctx, w *workerState, j *job) (vid VID, blockedOn HID) {
	if a.cfg.VersionSelect == SelectUser {
		return a.selectByUser(c, j)
	}
	t := j.t
	order := a.versionOrder(w, t)
	// First preference whose accelerator pool has an instance this job may
	// take (free, and not reserved for a more urgent parked waiter).
	for _, v := range order {
		h := t.versions[v].accel
		if h == NoAccel || a.poolAvailableForLocked(j, h) != NoAccel {
			return v, NoAccel
		}
	}
	// All admissible versions need busy accelerators: block on the top
	// preference's pool.
	return order[0], t.versions[order[0]].accel
}

// versionOrder lists t's versions by the configured method's preference
// into w's scratch. The choice depends only on the task's version table
// (immutable while the task has a live job), the mode/mask atomics and the
// battery (a leaf behind its own rank-6 lock). When no version is
// admissible under the method, it falls back to declaration order rather
// than dropping the job, so the result is never empty.
func (a *App) versionOrder(w *workerState, t *task) []VID {
	order := w.vselOrder[:0]
	switch a.cfg.VersionSelect {
	case SelectEnergy:
		order = a.orderByEnergy(t, order, w.vselRest)
	case SelectTradeoff:
		order = a.orderByTradeoff(t, order)
	case SelectMode:
		order = a.filterByMode(t, order)
	case SelectBitmask:
		order = a.filterByMask(t, order)
	}
	if len(order) == 0 {
		for i := range t.versions {
			order = append(order, VID(i))
		}
	}
	return order
}

// orderByEnergy implements SelectEnergy: among affordable versions (battery
// at or above MinBattery) prefer the highest Quality; unaffordable versions
// come last, cheapest first (graceful degradation). The unaffordable
// overflow goes into the worker-private scratch slice: version selection
// runs once per job, so a per-call allocation here was measurable on the
// hot path.
func (a *App) orderByEnergy(t *task, order, scratch []VID) []VID {
	level := a.batteryLevelFor(t)
	afford := order[:0]
	rest := scratch[:0]
	for i := range t.versions {
		p := &t.versions[i].props
		if p.MinBattery <= level {
			afford = append(afford, VID(i))
		} else {
			rest = append(rest, VID(i))
		}
	}
	// Sort affordable by Quality descending (stable insertion; tiny n).
	for i := 1; i < len(afford); i++ {
		for k := i; k > 0; k-- {
			qa := t.versions[afford[k]].props.Quality
			qb := t.versions[afford[k-1]].props.Quality
			if qa > qb {
				afford[k], afford[k-1] = afford[k-1], afford[k]
			} else {
				break
			}
		}
	}
	// Sort rest by EnergyBudget ascending.
	for i := 1; i < len(rest); i++ {
		for k := i; k > 0; k-- {
			ea := t.versions[rest[k]].props.EnergyBudget
			eb := t.versions[rest[k-1]].props.EnergyBudget
			if ea < eb {
				rest[k], rest[k-1] = rest[k-1], rest[k]
			} else {
				break
			}
		}
	}
	return append(afford, rest...)
}

// batteryLevelFor queries the task's battery callback, the app battery, or
// reports full charge.
func (a *App) batteryLevelFor(t *task) float64 {
	for i := range t.versions {
		if f := t.versions[i].props.GetBatteryStatus; f != nil {
			return f()
		}
	}
	if a.battery != nil {
		return a.battery.Level()
	}
	return 100
}

// orderByTradeoff implements SelectTradeoff: minimise
// alpha*WCET + (1-alpha)*energy, both normalised against the task's maxima.
func (a *App) orderByTradeoff(t *task, order []VID) []VID {
	var maxW, maxE float64
	for i := range t.versions {
		p := &t.versions[i].props
		if w := float64(p.WCET); w > maxW {
			maxW = w
		}
		if p.EnergyBudget > maxE {
			maxE = p.EnergyBudget
		}
	}
	score := func(v VID) float64 {
		p := &t.versions[v].props
		var w, e float64
		if maxW > 0 {
			w = float64(p.WCET) / maxW
		}
		if maxE > 0 {
			e = p.EnergyBudget / maxE
		}
		return a.cfg.TradeoffAlpha*w + (1-a.cfg.TradeoffAlpha)*e
	}
	for i := range t.versions {
		order = append(order, VID(i))
	}
	for i := 1; i < len(order); i++ {
		for k := i; k > 0 && score(order[k]) < score(order[k-1]); k-- {
			order[k], order[k-1] = order[k-1], order[k]
		}
	}
	return order
}

// filterByMode implements SelectMode: versions whose Modes bitmask includes
// the current mode (bit m set); Modes==0 serves every mode.
func (a *App) filterByMode(t *task, order []VID) []VID {
	mode := a.mode.Load()
	bit := uint32(1) << (mode % 32)
	for i := range t.versions {
		m := t.versions[i].props.Modes
		if m == 0 || m&bit != 0 {
			order = append(order, VID(i))
		}
	}
	return order
}

// filterByMask implements SelectBitmask: versions whose permission mask
// intersects the app's current mask.
func (a *App) filterByMask(t *task, order []VID) []VID {
	mask := a.maskBit.Load()
	for i := range t.versions {
		if t.versions[i].props.Mask&mask != 0 {
			order = append(order, VID(i))
		}
	}
	return order
}

// selectByUser implements SelectUser via the configured callback.
func (a *App) selectByUser(c rt.Ctx, j *job) (VID, HID) {
	t := j.t
	infos := make([]VersionInfo, len(t.versions))
	for i := range t.versions {
		v := &t.versions[i]
		info := VersionInfo{ID: VID(i), Props: v.props, Accel: v.accel}
		if v.accel != NoAccel {
			// Pool-level view: busy means no instance is available to this
			// job; the owner is the holder of the first busy instance.
			info.AccelBusy = a.poolAvailableForLocked(j, v.accel) == NoAccel
			for _, m := range a.poolMembers(v.accel) {
				if ac := &a.accels[m]; ac.busy && ac.holder != nil {
					info.AccelOwner = ac.holder.t.id
					break
				}
			}
		}
		infos[i] = info
	}
	battery := -1.0
	if a.battery != nil {
		battery = a.battery.Level()
	}
	st := SelectState{
		Now:     c.Now(),
		Mode:    a.mode.Load(),
		Mask:    a.maskBit.Load(),
		Battery: battery,
	}
	v := a.cfg.UserSelect(t.id, infos, st)
	if int(v) < 0 || int(v) >= len(t.versions) {
		// Defer: block on the first accelerator-bound version whose pool
		// has nothing available, or fall back to version 0.
		for i := range t.versions {
			if h := t.versions[i].accel; h != NoAccel && a.poolAvailableForLocked(j, h) == NoAccel {
				return VID(i), h
			}
		}
		return 0, NoAccel
	}
	if h := t.versions[v].accel; h != NoAccel && a.poolAvailableForLocked(j, h) == NoAccel {
		return v, h
	}
	return v, NoAccel
}
