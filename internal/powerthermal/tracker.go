// Package powerthermal is the paper's power and thermal arithmetic:
// the DRAM energy of a run's activity (energy.go, Section 4.2), the
// stack's floorplan and the Section 2 area figures (floorplan.go), and
// a one-dimensional thermal model of the die stack (stack.go). From
// them it reproduces the Section 2.4 argument — a DRAM stack on a
// quad-core stays under the 85 °C rating — from measured activity: a
// per-window tracker that turns the counters a run keeps anyway into
// per-layer power and steps the transient model over the floorplan the
// configuration implies, and the whole-run steady-state row `-exp
// thermal` prints. It sees the machine only through a Machine, the
// small view internal/core fills.
package powerthermal

import (
	"stackedsim/internal/bus"
	"stackedsim/internal/config"
	"stackedsim/internal/dram"
	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
)

// DefaultWindow is the power/thermal sampling window in CPU cycles
// when the caller does not pick one.
const DefaultWindow = 1000

// DefaultThermalAccel compresses thermal time. The stack's dominant
// time constant (sink capacity x sink resistance) is tens of
// milliseconds, while a measured window simulates a few hundred
// microseconds — on the real timescale the dies would barely warm.
// Each simulated second therefore advances the thermal model by this
// many thermal seconds, so trajectories reach the temperatures a
// sustained run at the observed power would reach. Documented as a
// deliberate departure from HotSpot-style co-simulation in
// docs/OBSERVABILITY.md.
const DefaultThermalAccel = 1000.0

// trajCap bounds the stored temperature trajectory; when full, every
// other sample is dropped and the keep-stride doubles (deterministic
// decimation, independent of run length).
const trajCap = 2048

// Machine is what the tracker reads of the machine it watches: the
// configuration, every memory channel in walk order, and the μops
// committed so far (monotonic: a statistics reset does not rewind it).
type Machine struct {
	Cfg       *config.Config
	Channels  []Channel
	Committed func() uint64
}

// Channel is one memory channel of a Machine: its ranks and data bus
// under the name its DRAM goes by in reports ("mc0", "backing").
// OffChip marks the commodity channel behind a stack cache, whose energy
// is charged at DDR2 energies and never lands on a stacked die.
type Channel struct {
	Name    string
	Ranks   []*dram.Rank
	Bus     *bus.Bus
	OffChip bool
}

// TrajectoryPoint is one kept sample of the per-layer temperatures.
type TrajectoryPoint struct {
	Cycle int64     `json:"cycle"`
	TempC []float64 `json:"temp_c"`
}

// Layer is one die's slice of a State.
type Layer struct {
	Name            string  `json:"name"`
	PowerW          float64 `json:"power_w"`
	TempC           float64 `json:"temp_c"`
	PeakC           float64 `json:"peak_c"`
	OverLimitCycles int64   `json:"over_limit_cycles"`
}

// State is the tracker's current reading: last-window powers,
// current/peak temperatures and limit accounting. It is the monitor's
// /snapshot block as it stands.
type State struct {
	Windows          uint64  `json:"windows"`
	WindowCycles     int64   `json:"window_cycles"`
	ThermalAccel     float64 `json:"thermal_accel"`
	CPUPowerW        float64 `json:"cpu_power_w"`
	DRAMPowerW       float64 `json:"dram_power_w"`
	OffChipPowerW    float64 `json:"offchip_power_w"`
	TotalPowerW      float64 `json:"total_power_w"`
	MaxDRAMTempC     float64 `json:"max_dram_temp_c"`
	LimitC           float64 `json:"limit_c"`
	WithinLimit      bool    `json:"within_limit"`
	LimitExceedances uint64  `json:"limit_exceedances"`
	OverLimitCycles  uint64  `json:"over_limit_cycles"`
	OffChipTempC     float64 `json:"offchip_dram_temp_c"`
	OffChipPeakC     float64 `json:"offchip_peak_c"`
	Layers           []Layer `json:"layers"`
}

// Summary is the State plus the decimated temperature trajectory: the
// powerthermal.json export and the ledger's power/thermal payload.
type Summary struct {
	State
	Trajectory []TrajectoryPoint `json:"trajectory"`
}

// Tracker converts the event counters the simulation already keeps
// into per-layer power each sampling window and integrates the
// transient thermal model over the configured floorplan. It is purely
// observational: it reads counters and writes only its own state and
// registry metrics, so a tracked run is bit-identical to an untracked
// one (core's TestPowerThermalParity).
type Tracker struct {
	m     Machine
	place Placement
	stack *Stack

	dramP      Params
	every      int64
	hasOffchip bool // any off-chip DRAM (2D organization or backing channel)

	last      sim.Cycle
	prevRank  []Activity // per rank's cumulative counters, channel by channel
	prevBytes []uint64   // per channel bus
	prevUops  uint64
	layerUJ   []float64 // scratch: this window's energy per stack layer

	// Last-window results.
	cpuW, dramW, offW float64
	maxDRAMC, offC    float64
	over              bool

	// Since-reset accumulators.
	windows       uint64
	peakC         []float64
	overCycles    []int64
	offPeakC      float64
	offOverCycles uint64
	traj          []TrajectoryPoint
	stride        int64
	sinceKept     int64

	gCPUW, gDRAMW, gOffW, gTotalW *telemetry.Gauge
	gLayerW, gLayerC              []*telemetry.Gauge
	gMaxDRAMC, gOverLimit         *telemetry.Gauge
	cExceed, cOverCycles          *telemetry.Counter
}

// New builds a tracker over m with the given sampling window in cycles
// (<=0 picks DefaultWindow) and registers its metrics in reg. The
// caller ticks it every Every() cycles, after the machine's own
// components and before a time-series sampler, so each closed window is
// visible to the sample taken on the same cycle.
func New(m Machine, reg *telemetry.Registry, every int64) *Tracker {
	if every <= 0 {
		every = DefaultWindow
	}
	place := placementFor(m.Cfg)
	st := NewStack(place)
	// A placement with nothing stacked is the 2D organization: all its
	// DRAM is off-chip.
	ranks, offchip := 0, !place.Stacked()
	for _, ch := range m.Channels {
		ranks += len(ch.Ranks)
		offchip = offchip || ch.OffChip
	}
	t := &Tracker{
		m:          m,
		place:      place,
		stack:      st,
		dramP:      place.params(false),
		every:      every,
		hasOffchip: offchip,
		prevRank:   make([]Activity, ranks),
		prevBytes:  make([]uint64, len(m.Channels)),
		layerUJ:    make([]float64, len(st.Names)),
		peakC:      make([]float64, len(st.Names)),
		overCycles: make([]int64, len(st.Names)),
		stride:     1,
	}
	for i := range t.peakC {
		t.peakC[i] = AmbientC
	}
	t.gCPUW = reg.Gauge("power.cpu.w")
	t.gDRAMW = reg.Gauge("power.dram.w")
	t.gOffW = reg.Gauge("power.offchip.w")
	t.gTotalW = reg.Gauge("power.total.w")
	for _, name := range st.Names {
		t.gLayerW = append(t.gLayerW, reg.Gauge("power.layer."+name+".w"))
		t.gLayerC = append(t.gLayerC, reg.Gauge("thermal.layer."+name+".c"))
	}
	t.gMaxDRAMC = reg.Gauge("thermal.max_dram.c")
	t.gOverLimit = reg.Gauge("thermal.over_limit")
	t.cExceed = reg.Counter("thermal.limit.exceedances")
	t.cOverCycles = reg.Counter("thermal.over_limit.cycles")
	// Ambient starting point so samples before the first closed window
	// read sensibly.
	t.publishTemps()
	return t
}

// Every is the sampling window in cycles.
func (t *Tracker) Every() int64 { return t.every }

// Tick closes one sampling window: counter deltas -> per-layer energy
// -> per-layer power -> one transient thermal step.
func (t *Tracker) Tick(now sim.Cycle) {
	if now <= t.last {
		return
	}
	window := int64(now - t.last)
	t.last = now
	mhz := t.m.Cfg.CPUMHz
	seconds := float64(window) / (mhz * 1e6)

	clear(t.layerUJ)
	offUJ := 0.0

	// Counter deltas rank by rank, channel by channel (ResetStats zeroes
	// the earlier readings when the machine zeroes its counters, so none
	// runs backwards). A stacked rank's energy lands on its placed layer
	// (or off-chip in 2D); the backing channel's ranks are summed here and
	// accounted once, below.
	idx := 0
	var bytes uint64
	var back Activity
	for c, ch := range t.m.Channels {
		for _, rank := range ch.Ranks {
			cur := countRank(rank)
			prev := t.prevRank[idx]
			t.prevRank[idx] = cur
			idx++
			d := Activity{
				Activates:    cur.Activates - prev.Activates,
				Refreshes:    cur.Refreshes - prev.Refreshes,
				ColumnReads:  cur.ColumnReads - prev.ColumnReads,
				ColumnWrites: cur.ColumnWrites - prev.ColumnWrites,
				Ranks:        1,
			}
			if ch.OffChip {
				back.add(d)
				continue
			}
			b := Account(t.dramP, d, window, mhz)
			if t.place.Stacked() {
				t.layerUJ[t.place.dramBase()+t.place.LayerOfRank(idx-1)] += b.TotalUJ()
			} else {
				offUJ += b.TotalUJ()
			}
		}
		cur := ch.Bus.Stats().Bytes
		d := cur - t.prevBytes[c]
		t.prevBytes[c] = cur
		if ch.OffChip {
			back.BytesMoved = d
		} else {
			bytes += d
		}
	}

	// Channel IO energy: dissipated on the placement's IO dies, or in
	// the off-chip pins for the 2D organization.
	busUJ := float64(bytes) * t.dramP.BusPJPerByte * 1e-6
	if t.place.Stacked() {
		first, n := t.place.ioDies()
		per := busUJ / float64(n)
		for i := first; i < first+n; i++ {
			t.layerUJ[i] += per
		}
	} else {
		offUJ += busUJ
	}

	// Backing channel: commodity DIMMs off-chip.
	if back.Ranks > 0 {
		offUJ += Account(t.place.params(true), back, window, mhz).TotalUJ()
	}

	// Processor power from committed μops.
	uops := t.m.Committed()
	du := uops - t.prevUops
	t.prevUops = uops
	t.cpuW = DefaultCPU().PowerW(du, seconds)

	// Energy -> average power over the window; integrate the stack.
	t.stack.PowerW[0] = t.cpuW
	for i := 1; i < len(t.stack.PowerW); i++ {
		t.stack.PowerW[i] = t.layerUJ[i] * 1e-6 / seconds
	}
	t.stack.Step(seconds * DefaultThermalAccel)
	t.dramW = t.stack.TotalPowerW() - t.cpuW
	t.offW = offUJ * 1e-6 / seconds

	t.maxDRAMC = maxDRAMC(t.stack.tempC)
	t.offC = 0
	if t.hasOffchip {
		t.offC = OffChipDRAMTempC(t.offW)
		if t.offC > t.maxDRAMC {
			t.maxDRAMC = t.offC
		}
		if t.offC > t.offPeakC {
			t.offPeakC = t.offC
		}
		if t.offC > DRAMThermalLimitC {
			t.offOverCycles += uint64(window)
		}
	}

	// Limit accounting: an exceedance event per rising edge, plus the
	// cycles spent over the limit.
	over := t.maxDRAMC > DRAMThermalLimitC
	if over && !t.over {
		t.cExceed.Inc()
	}
	t.over = over
	if over {
		t.cOverCycles.Add(uint64(window))
	}

	t.windows++
	for i := range t.stack.Names {
		c := t.stack.TempC(i)
		if c > t.peakC[i] {
			t.peakC[i] = c
		}
		if i > 0 && c > DRAMThermalLimitC {
			t.overCycles[i] += window
		}
	}
	t.recordTrajectory(now)
	t.publish()
}

func (t *Tracker) recordTrajectory(now sim.Cycle) {
	t.sinceKept++
	if t.sinceKept < t.stride {
		return
	}
	t.sinceKept = 0
	t.traj = append(t.traj, TrajectoryPoint{Cycle: int64(now), TempC: t.stack.Temperatures()})
	if len(t.traj) >= trajCap {
		kept := t.traj[:0]
		for i := 0; i < len(t.traj); i += 2 {
			kept = append(kept, t.traj[i])
		}
		t.traj = kept
		t.stride *= 2
	}
}

func (t *Tracker) publish() {
	t.gCPUW.Set(t.cpuW)
	t.gDRAMW.Set(t.dramW)
	t.gOffW.Set(t.offW)
	t.gTotalW.Set(t.cpuW + t.dramW + t.offW)
	for i, w := range t.stack.PowerW {
		t.gLayerW[i].Set(w)
	}
	t.publishTemps()
	if t.over {
		t.gOverLimit.Set(1)
	} else {
		t.gOverLimit.Set(0)
	}
}

func (t *Tracker) publishTemps() {
	for i := range t.stack.Names {
		t.gLayerC[i].Set(t.stack.TempC(i))
	}
	t.gMaxDRAMC.Set(t.maxDRAMC)
}

// ResetStats restarts the reporting accumulators at the warmup/measure
// boundary. Temperatures deliberately carry over — the dies do not cool
// because measurement began — but peaks, over-limit cycles and the
// trajectory restart so the report covers the measured window.
func (t *Tracker) ResetStats() {
	// The component counters are zeroed at the same boundary; restart the
	// deltas. Committed is monotonic and survives the reset, so prevUops
	// keeps its value.
	clear(t.prevRank)
	clear(t.prevBytes)
	t.windows = 0
	clear(t.overCycles)
	for i := range t.peakC {
		t.peakC[i] = t.stack.TempC(i)
	}
	t.offPeakC = t.offC
	t.offOverCycles = 0
	t.traj = t.traj[:0]
	t.stride = 1
	t.sinceKept = 0
}

// State exports the tracker's current reading (see State).
func (t *Tracker) State() *State {
	s := &State{
		Windows:          t.windows,
		WindowCycles:     t.every,
		ThermalAccel:     DefaultThermalAccel,
		CPUPowerW:        t.cpuW,
		DRAMPowerW:       t.dramW,
		OffChipPowerW:    t.offW,
		TotalPowerW:      t.cpuW + t.dramW + t.offW,
		MaxDRAMTempC:     t.maxDRAMC,
		LimitC:           DRAMThermalLimitC,
		WithinLimit:      !t.over,
		LimitExceedances: t.cExceed.Value(),
		OverLimitCycles:  t.cOverCycles.Value(),
		OffChipTempC:     t.offC,
		OffChipPeakC:     t.offPeakC,
	}
	for i, name := range t.stack.Names {
		s.Layers = append(s.Layers, Layer{
			Name:            name,
			PowerW:          t.stack.PowerW[i],
			TempC:           t.stack.TempC(i),
			PeakC:           t.peakC[i],
			OverLimitCycles: t.overCycles[i],
		})
	}
	return s
}

// Summary exports the State and the trajectory kept so far.
func (t *Tracker) Summary() Summary {
	return Summary{State: *t.State(), Trajectory: append([]TrajectoryPoint(nil), t.traj...)}
}
