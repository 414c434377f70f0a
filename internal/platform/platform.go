// Package platform models COTS heterogeneous hardware: CPU cores grouped in
// clusters (ARM big.LITTLE), hardware accelerators (GPU, crypto engines), and
// the per-primitive cost model that the simulation charges for middleware
// operations (context switches, queue manipulation, lock traffic, timer
// programming).
//
// Two presets mirror the paper's evaluation platforms: the Odroid-XU4
// (4 Cortex-A7 + 4 Cortex-A15 + Mali GPU, Section 4) and the Toradex Apalis
// TK1 (4 Cortex-A15 + NVIDIA Kepler GPU, Section 5).
package platform

import (
	"fmt"
	"time"
)

// CoreKind distinguishes energy-efficient from performance cores.
type CoreKind int

// Core kinds.
const (
	LittleCore CoreKind = iota + 1
	BigCore
)

func (k CoreKind) String() string {
	switch k {
	case LittleCore:
		return "LITTLE"
	case BigCore:
		return "big"
	default:
		return fmt.Sprintf("CoreKind(%d)", int(k))
	}
}

// Core describes one CPU core.
type Core struct {
	ID      int
	Kind    CoreKind
	Cluster int
	// Speed is the relative execution speed; task WCETs are divided by it.
	// The reference speed 1.0 is a big core of the preset platform.
	Speed float64
	// PowerActive and PowerIdle approximate the core's power draw in
	// milliwatts, used by the energy model.
	PowerActive float64
	PowerIdle   float64
}

// Accel describes a hardware accelerator (GPU, crypto engine, FPGA region).
// Accelerators are scarce: exactly one task version can hold one at a time,
// which is the contention that motivates multi-version tasks (Section 3.2).
type Accel struct {
	ID   int
	Name string
	// Speed is the relative speed factor applied to accelerator sections.
	Speed float64
	// PowerActive approximates the accelerator's active power draw in mW.
	PowerActive float64
}

// Platform is a description of a target board.
type Platform struct {
	Name   string
	Cores  []Core
	Accels []Accel
	Costs  CostModel
}

// NumCores returns the number of CPU cores.
func (pl *Platform) NumCores() int { return len(pl.Cores) }

// CoresOfKind returns the IDs of all cores of kind k, in ID order.
func (pl *Platform) CoresOfKind(k CoreKind) []int {
	var ids []int
	for i := range pl.Cores {
		if pl.Cores[i].Kind == k {
			ids = append(ids, pl.Cores[i].ID)
		}
	}
	return ids
}

// Core returns the core with the given ID.
func (pl *Platform) Core(id int) (*Core, error) {
	if id < 0 || id >= len(pl.Cores) {
		return nil, fmt.Errorf("platform %s: no core %d", pl.Name, id)
	}
	return &pl.Cores[id], nil
}

// AccelByName returns the accelerator with the given name.
func (pl *Platform) AccelByName(name string) (*Accel, error) {
	for i := range pl.Accels {
		if pl.Accels[i].Name == name {
			return &pl.Accels[i], nil
		}
	}
	return nil, fmt.Errorf("platform %s: no accelerator %q", pl.Name, name)
}

// Validate checks internal consistency of the description.
func (pl *Platform) Validate() error {
	if pl.Name == "" {
		return fmt.Errorf("platform: empty name")
	}
	if len(pl.Cores) == 0 {
		return fmt.Errorf("platform %s: no cores", pl.Name)
	}
	for i := range pl.Cores {
		c := &pl.Cores[i]
		if c.ID != i {
			return fmt.Errorf("platform %s: core %d has ID %d (must equal index)", pl.Name, i, c.ID)
		}
		if c.Speed <= 0 {
			return fmt.Errorf("platform %s: core %d has non-positive speed", pl.Name, i)
		}
	}
	for i := range pl.Accels {
		a := &pl.Accels[i]
		if a.ID != i {
			return fmt.Errorf("platform %s: accel %d has ID %d (must equal index)", pl.Name, i, a.ID)
		}
		if a.Name == "" {
			return fmt.Errorf("platform %s: accel %d has empty name", pl.Name, i)
		}
	}
	return pl.Costs.Validate()
}

// CostModel gives the virtual-time cost of the primitive operations that the
// middleware performs. The defaults are calibrated to the order of magnitude
// measured on ARMv7/ARMv8 COTS boards in the literature; the experiments only
// depend on their relative structure, not their absolute values.
type CostModel struct {
	// ContextSwitch is the cost of a full user-level context switch
	// (swapcontext: register save/restore, stack switch).
	ContextSwitch time.Duration
	// SignalDeliver is the cost for a pthread_kill signal to reach the
	// target thread and run its handler prologue.
	SignalDeliver time.Duration
	// ClockRead is the cost of clock_gettime(CLOCK_MONOTONIC).
	ClockRead time.Duration
	// TimerProgram is the cost of arming a timer / nanosleep syscall entry.
	TimerProgram time.Duration
	// QueueOpBase is the base cost of a ready-queue push or pop.
	QueueOpBase time.Duration
	// QueueOpPerItem is the additional cost per traversed/compared item
	// for dynamically allocated structures (pointer-chasing linked lists
	// and heap nodes: cache-miss-dominated).
	QueueOpPerItem time.Duration
	// StaticScanPerItem is the per-entry cost of scanning a statically
	// allocated contiguous array (YASMIN's MISRA-style task table):
	// prefetch-friendly, several times cheaper than QueueOpPerItem.
	StaticScanPerItem time.Duration
	// LockUncontended is the cost of acquiring a free mutex via syscall-less
	// fast path.
	LockUncontended time.Duration
	// SpinRetry is the cost of one failed test-and-set probe under
	// contention (cache-line bounce).
	SpinRetry time.Duration
	// FutexWait is the cost of a contended mutex acquisition that enters
	// the kernel (futex wait + wake).
	FutexWait time.Duration
	// MallocBase is the base cost of a dynamic allocation (the Mollison &
	// Anderson baseline allocates on the scheduling path; YASMIN does not).
	MallocBase time.Duration
	// MallocJitterMax bounds the extra, unpredictable allocation cost
	// (free-list walks, page faults). Sampled uniformly.
	MallocJitterMax time.Duration
	// DispatchIPI is the cost of kicking a remote core (inter-processor
	// interrupt / futex wake crossing clusters).
	DispatchIPI time.Duration
	// ChannelOp is the cost of one FIFO channel push or pop (also the base
	// cost of a topic publish or take).
	ChannelOp time.Duration
	// TopicFanoutPerSub is the additional publish cost per registered
	// subscriber of a topic: the per-cursor bookkeeping of fan-out delivery.
	// Fan-out shares one buffered entry among all subscribers, so this is a
	// cursor comparison, not a payload copy — an order of magnitude below
	// ChannelOp.
	TopicFanoutPerSub time.Duration
	// ReconfigBarrier is the fixed cost of committing a live reconfiguration
	// transaction: the quiescent barrier during which the application lock is
	// held while the task/topic/edge tables are rewritten. The per-entry scan
	// of those tables is charged on top via StaticScanPerItem.
	ReconfigBarrier time.Duration
}

// Validate rejects negative costs.
func (cm *CostModel) Validate() error {
	checks := []struct {
		name string
		d    time.Duration
	}{
		{"ContextSwitch", cm.ContextSwitch},
		{"SignalDeliver", cm.SignalDeliver},
		{"ClockRead", cm.ClockRead},
		{"TimerProgram", cm.TimerProgram},
		{"QueueOpBase", cm.QueueOpBase},
		{"QueueOpPerItem", cm.QueueOpPerItem},
		{"StaticScanPerItem", cm.StaticScanPerItem},
		{"LockUncontended", cm.LockUncontended},
		{"SpinRetry", cm.SpinRetry},
		{"FutexWait", cm.FutexWait},
		{"MallocBase", cm.MallocBase},
		{"MallocJitterMax", cm.MallocJitterMax},
		{"DispatchIPI", cm.DispatchIPI},
		{"ChannelOp", cm.ChannelOp},
		{"TopicFanoutPerSub", cm.TopicFanoutPerSub},
		{"ReconfigBarrier", cm.ReconfigBarrier},
	}
	for _, c := range checks {
		if c.d < 0 {
			return fmt.Errorf("cost model: %s is negative", c.name)
		}
	}
	return nil
}

// DefaultCosts returns the reference ARM COTS cost model.
func DefaultCosts() CostModel {
	return CostModel{
		ContextSwitch:     1200 * time.Nanosecond,
		SignalDeliver:     2500 * time.Nanosecond,
		ClockRead:         120 * time.Nanosecond,
		TimerProgram:      800 * time.Nanosecond,
		QueueOpBase:       150 * time.Nanosecond,
		QueueOpPerItem:    35 * time.Nanosecond,
		StaticScanPerItem: 7 * time.Nanosecond,
		LockUncontended:   60 * time.Nanosecond,
		SpinRetry:         80 * time.Nanosecond,
		FutexWait:         3500 * time.Nanosecond,
		MallocBase:        400 * time.Nanosecond,
		MallocJitterMax:   6000 * time.Nanosecond,
		DispatchIPI:       1800 * time.Nanosecond,
		ChannelOp:         90 * time.Nanosecond,
		TopicFanoutPerSub: 12 * time.Nanosecond,
		ReconfigBarrier:   4000 * time.Nanosecond,
	}
}

// OdroidXU4 returns the paper's Section 4 evaluation platform: a Samsung
// Exynos 5422 with 4 Cortex-A7 (LITTLE, cluster 0) + 4 Cortex-A15 (big,
// cluster 1) and a Mali-T628 GPU.
func OdroidXU4() *Platform {
	pl := &Platform{
		Name:  "odroid-xu4",
		Costs: DefaultCosts(),
	}
	for i := 0; i < 4; i++ {
		pl.Cores = append(pl.Cores, Core{
			ID: i, Kind: LittleCore, Cluster: 0,
			Speed: 0.45, PowerActive: 450, PowerIdle: 45,
		})
	}
	for i := 4; i < 8; i++ {
		pl.Cores = append(pl.Cores, Core{
			ID: i, Kind: BigCore, Cluster: 1,
			Speed: 1.0, PowerActive: 1550, PowerIdle: 95,
		})
	}
	pl.Accels = []Accel{{ID: 0, Name: "mali-t628", Speed: 1.0, PowerActive: 1800}}
	return pl
}

// ApalisTK1 returns the paper's Section 5 platform: a Toradex Apalis TK1
// Computer-on-Module (4 Cortex-A15 + NVIDIA Kepler GK20a GPU with 192 cores).
func ApalisTK1() *Platform {
	pl := &Platform{
		Name:  "apalis-tk1",
		Costs: DefaultCosts(),
	}
	for i := 0; i < 4; i++ {
		pl.Cores = append(pl.Cores, Core{
			ID: i, Kind: BigCore, Cluster: 0,
			Speed: 1.0, PowerActive: 1700, PowerIdle: 110,
		})
	}
	pl.Accels = []Accel{{ID: 0, Name: "kepler-gk20a", Speed: 1.0, PowerActive: 4000}}
	return pl
}

// Generic returns a homogeneous n-core platform with the default cost model,
// handy for unit tests and synthetic experiments.
func Generic(n int) *Platform {
	pl := &Platform{
		Name:  fmt.Sprintf("generic-%d", n),
		Costs: DefaultCosts(),
	}
	for i := 0; i < n; i++ {
		pl.Cores = append(pl.Cores, Core{
			ID: i, Kind: BigCore, Cluster: 0,
			Speed: 1.0, PowerActive: 1000, PowerIdle: 80,
		})
	}
	return pl
}

// GenericWithGPU returns a homogeneous n-core platform plus one GPU.
func GenericWithGPU(n int) *Platform {
	pl := Generic(n)
	pl.Name = fmt.Sprintf("generic-%d-gpu", n)
	pl.Accels = []Accel{{ID: 0, Name: "gpu0", Speed: 1.0, PowerActive: 2500}}
	return pl
}
