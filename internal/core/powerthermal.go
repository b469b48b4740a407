package core

import (
	"fmt"
	"strings"

	"stackedsim/internal/config"
	"stackedsim/internal/dram"
	"stackedsim/internal/floorplan"
	"stackedsim/internal/power"
	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
	"stackedsim/internal/thermal"
)

// DefaultPowerWindow is the power/thermal sampling window in CPU cycles
// when the caller does not pick one.
const DefaultPowerWindow = 1000

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

// rankWindow is a snapshot of one rank's cumulative event counters.
type rankWindow struct {
	act, ref, rd, wr uint64
}

// TrajectoryPoint is one kept sample of the per-layer temperatures.
type TrajectoryPoint struct {
	Cycle int64     `json:"cycle"`
	TempC []float64 `json:"temp_c"`
}

// PowerThermalLayer is one die's slice of a PowerThermalSummary.
type PowerThermalLayer struct {
	Name            string  `json:"name"`
	PowerW          float64 `json:"power_w"`
	TempC           float64 `json:"temp_c"`
	PeakC           float64 `json:"peak_c"`
	OverLimitCycles int64   `json:"over_limit_cycles"`
}

// PowerThermalSummary is the exported state of the tracker: last-window
// powers, current/peak temperatures, limit accounting and the decimated
// trajectory. Serializable as the powerthermal.json export and the
// monitor's /snapshot block.
type PowerThermalSummary struct {
	Windows          uint64              `json:"windows"`
	WindowCycles     int64               `json:"window_cycles"`
	ThermalAccel     float64             `json:"thermal_accel"`
	CPUPowerW        float64             `json:"cpu_power_w"`
	DRAMPowerW       float64             `json:"dram_power_w"`
	OffChipPowerW    float64             `json:"offchip_power_w"`
	TotalPowerW      float64             `json:"total_power_w"`
	MaxDRAMTempC     float64             `json:"max_dram_temp_c"`
	LimitC           float64             `json:"limit_c"`
	WithinLimit      bool                `json:"within_limit"`
	LimitExceedances uint64              `json:"limit_exceedances"`
	OverLimitCycles  uint64              `json:"over_limit_cycles"`
	OffChipTempC     float64             `json:"offchip_dram_temp_c"`
	OffChipPeakC     float64             `json:"offchip_peak_c"`
	Layers           []PowerThermalLayer `json:"layers"`
	Trajectory       []TrajectoryPoint   `json:"trajectory"`
}

// PowerThermal converts the event counters the simulation already keeps
// into per-layer power each sampling window and integrates the
// transient thermal model over the configured floorplan. It is purely
// observational: it reads counters and writes only its own state and
// registry metrics, so a tracked run is bit-identical to an untracked
// one (TestPowerThermalParity).
type PowerThermal struct {
	sys   *System
	place floorplan.Placement
	stack *thermal.Stack
	tr    *thermal.Transient

	dramP      power.Params
	cpuP       power.CPUParams
	accel      float64
	mhz        float64
	every      int64
	dramBase   int  // stack index of DRAM layer 0
	hasOffchip bool // any off-chip DRAM (2D organization or backing channel)

	last      sim.Cycle
	prevRank  []rankWindow // per rank, channel by channel
	prevBytes []uint64     // per channel bus
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

// placementFor maps a configuration onto the stack's floorplan: on-
// stack DRAM (BusDivider 1 — the TSV bus) spreads its ranks over
// LayersFor dies, with a separate peripheral-logic die under true-3D
// timing; the 2D organization keeps all DRAM off-chip.
func placementFor(cfg *config.Config) floorplan.Placement {
	if cfg.BusDivider > 1 {
		return floorplan.Placement{}
	}
	gb := cfg.MemoryGB
	if cfg.StackMode != config.StackMemory {
		gb = int(cfg.StackCapMB+1023) / 1024
		if gb < 1 {
			gb = 1
		}
	}
	logic := cfg.Timing == config.TimingTrue3D()
	return floorplan.NewPlacement(floorplan.LayersFor(gb, 1, false), cfg.RanksTotal, logic)
}

// AttachPowerThermal enables power/thermal tracking with the given
// sampling window in cycles (<=0 picks DefaultPowerWindow), registering
// its metrics in reg. Call after construction and before
// AttachTelemetry, so each closed window is visible to the sampler's
// time-series. A nil registry is a no-op (tracking stays absent).
func (s *System) AttachPowerThermal(reg *telemetry.Registry, every int64) *PowerThermal {
	if reg == nil {
		return nil
	}
	if every <= 0 {
		every = DefaultPowerWindow
	}
	place := placementFor(s.Cfg)
	st := thermal.NewStack(place.DRAMLayers, place.Logic)
	ranks := 0
	for _, ch := range s.channels {
		ranks += len(ch.mc.Ranks())
	}
	p := &PowerThermal{
		sys:        s,
		place:      place,
		stack:      st,
		tr:         thermal.NewTransient(st),
		dramP:      s.dramParams(),
		cpuP:       power.DefaultCPU(),
		accel:      DefaultThermalAccel,
		mhz:        s.Cfg.CPUMHz,
		every:      every,
		dramBase:   1,
		hasOffchip: !place.Stacked() || s.Stack != nil,
		prevRank:   make([]rankWindow, ranks),
		prevBytes:  make([]uint64, len(s.channels)),
		layerUJ:    make([]float64, len(st.Layers)),
		peakC:      make([]float64, len(st.Layers)),
		overCycles: make([]int64, len(st.Layers)),
		stride:     1,
	}
	if place.Logic {
		p.dramBase = 2
	}
	for i := range p.peakC {
		p.peakC[i] = st.AmbientC
	}
	p.gCPUW = reg.Gauge("power.cpu.w")
	p.gDRAMW = reg.Gauge("power.dram.w")
	p.gOffW = reg.Gauge("power.offchip.w")
	p.gTotalW = reg.Gauge("power.total.w")
	for _, l := range st.Layers {
		p.gLayerW = append(p.gLayerW, reg.Gauge("power.layer."+l.Name+".w"))
		p.gLayerC = append(p.gLayerC, reg.Gauge("thermal.layer."+l.Name+".c"))
	}
	p.gMaxDRAMC = reg.Gauge("thermal.max_dram.c")
	p.gOverLimit = reg.Gauge("thermal.over_limit")
	p.cExceed = reg.Counter("thermal.limit.exceedances")
	p.cOverCycles = reg.Counter("thermal.over_limit.cycles")
	// Ambient starting point so samples before the first closed window
	// read sensibly.
	p.publishTemps()
	s.Engine.RegisterEvery(int(every), 0, p)
	s.pt = p
	return p
}

// ctrDelta is cur-prev with a clamp for counters that were zeroed by
// ResetStats between windows (the warmup/measure boundary).
func ctrDelta(cur, prev uint64) uint64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}

func (w rankWindow) sub(prev rankWindow) rankWindow {
	return rankWindow{
		act: ctrDelta(w.act, prev.act),
		ref: ctrDelta(w.ref, prev.ref),
		rd:  ctrDelta(w.rd, prev.rd),
		wr:  ctrDelta(w.wr, prev.wr),
	}
}

// activity is the window as the energy model's input: ranks of them
// moving bytes over their channel.
func (w rankWindow) activity(ranks int, bytes uint64) power.Activity {
	return power.Activity{
		Activates:    w.act,
		ColumnReads:  w.rd,
		ColumnWrites: w.wr,
		Refreshes:    w.ref,
		BytesMoved:   bytes,
		Ranks:        ranks,
	}
}

func countRank(r *dram.Rank) rankWindow {
	var w rankWindow
	for _, b := range r.Banks {
		st := b.Stats()
		w.act += st.Activates
		w.ref += st.Refreshes
		w.rd += st.Reads
		w.wr += st.Writes
	}
	return w
}

// Tick closes one sampling window: counter deltas -> per-layer energy
// -> per-layer power -> one transient thermal step.
func (p *PowerThermal) Tick(now sim.Cycle) {
	if now <= p.last {
		return
	}
	window := int64(now - p.last)
	p.last = now
	seconds := float64(window) / (p.mhz * 1e6)

	clear(p.layerUJ)
	offUJ := 0.0

	// Counter deltas rank by rank, channel by channel. A stacked rank's
	// energy lands on its placed layer (or off-chip in 2D); the backing
	// channel's ranks are summed here and accounted once, below.
	idx := 0
	var bytes, backBytes uint64
	var back rankWindow
	for c, ch := range p.sys.channels {
		backing := ch.mc == p.sys.Backing
		for _, rank := range ch.mc.Ranks() {
			cur := countRank(rank)
			d := cur.sub(p.prevRank[idx])
			p.prevRank[idx] = cur
			idx++
			if backing {
				back = rankWindow{back.act + d.act, back.ref + d.ref, back.rd + d.rd, back.wr + d.wr}
				continue
			}
			b := power.Account(p.dramP, d.activity(1, 0), window, p.mhz)
			if p.place.Stacked() {
				p.layerUJ[p.dramBase+p.place.LayerOfRank(idx-1)] += b.TotalUJ()
			} else {
				offUJ += b.TotalUJ()
			}
		}
		cur := ch.mc.Bus().Stats().Bytes
		d := ctrDelta(cur, p.prevBytes[c])
		p.prevBytes[c] = cur
		if backing {
			backBytes = d
		} else {
			bytes += d
		}
	}

	// Channel IO energy: dissipated in the TSV drivers on the logic die
	// (spread across the DRAM dies when the peripheral logic lives on
	// them), or in the off-chip pins for the 2D organization.
	busUJ := float64(bytes) * p.dramP.BusPJPerByte * 1e-6
	switch {
	case !p.place.Stacked():
		offUJ += busUJ
	case p.place.Logic:
		p.layerUJ[1] += busUJ
	default:
		per := busUJ / float64(p.place.DRAMLayers)
		for i := 0; i < p.place.DRAMLayers; i++ {
			p.layerUJ[p.dramBase+i] += per
		}
	}

	// Backing channel: commodity DIMMs off-chip.
	if p.sys.Stack != nil {
		b := power.Account(power.DDR2(), back.activity(p.sys.Cfg.BackingRanks, backBytes), window, p.mhz)
		offUJ += b.TotalUJ()
	}

	// Processor power from committed μops (monotonic across ResetStats).
	var uops uint64
	for _, c := range p.sys.Cores {
		uops += c.Committed()
	}
	du := uops - p.prevUops
	p.prevUops = uops
	p.cpuW = p.cpuP.PowerW(du, seconds)

	// Energy -> average power over the window; integrate the stack.
	p.stack.Layers[0].PowerW = p.cpuW
	for i := 1; i < len(p.stack.Layers); i++ {
		p.stack.Layers[i].PowerW = p.layerUJ[i] * 1e-6 / seconds
	}
	p.tr.Step(seconds * p.accel)
	p.dramW = p.stack.TotalPowerW() - p.cpuW
	p.offW = offUJ * 1e-6 / seconds

	p.maxDRAMC = p.tr.MaxDRAMTempC()
	p.offC = 0
	if p.hasOffchip {
		p.offC = thermal.OffChipDRAMTempC(p.offW)
		if p.offC > p.maxDRAMC {
			p.maxDRAMC = p.offC
		}
		if p.offC > p.offPeakC {
			p.offPeakC = p.offC
		}
		if p.offC > thermal.DRAMThermalLimitC {
			p.offOverCycles += uint64(window)
		}
	}

	// Limit accounting: an exceedance event per rising edge, plus the
	// cycles spent over the limit.
	over := p.maxDRAMC > thermal.DRAMThermalLimitC
	if over && !p.over {
		p.cExceed.Inc()
	}
	p.over = over
	if over {
		p.cOverCycles.Add(uint64(window))
	}

	p.windows++
	for i := range p.stack.Layers {
		t := p.tr.TempC(i)
		if t > p.peakC[i] {
			p.peakC[i] = t
		}
		if i > 0 && t > thermal.DRAMThermalLimitC {
			p.overCycles[i] += window
		}
	}
	p.recordTrajectory(now)
	p.publish()
}

func (p *PowerThermal) recordTrajectory(now sim.Cycle) {
	p.sinceKept++
	if p.sinceKept < p.stride {
		return
	}
	p.sinceKept = 0
	p.traj = append(p.traj, TrajectoryPoint{Cycle: int64(now), TempC: p.tr.Temperatures()})
	if len(p.traj) >= trajCap {
		kept := p.traj[:0]
		for i := 0; i < len(p.traj); i += 2 {
			kept = append(kept, p.traj[i])
		}
		p.traj = kept
		p.stride *= 2
	}
}

func (p *PowerThermal) publish() {
	p.gCPUW.Set(p.cpuW)
	p.gDRAMW.Set(p.dramW)
	p.gOffW.Set(p.offW)
	p.gTotalW.Set(p.cpuW + p.dramW + p.offW)
	for i := range p.stack.Layers {
		p.gLayerW[i].Set(p.stack.Layers[i].PowerW)
	}
	p.publishTemps()
	if p.over {
		p.gOverLimit.Set(1)
	} else {
		p.gOverLimit.Set(0)
	}
}

func (p *PowerThermal) publishTemps() {
	for i := range p.stack.Layers {
		p.gLayerC[i].Set(p.tr.TempC(i))
	}
	p.gMaxDRAMC.Set(p.maxDRAMC)
}

// resetStats restarts the reporting accumulators at the warmup/measure
// boundary. Temperatures deliberately carry over — the dies do not cool
// because measurement began — but peaks, over-limit cycles and the
// trajectory restart so the report covers the measured window. Nil-safe
// (tracking absent).
func (p *PowerThermal) resetStats() {
	if p == nil {
		return
	}
	// The component counters were just zeroed; restart the deltas.
	// Committed() is monotonic and survives the reset, so prevUops keeps
	// its value.
	clear(p.prevRank)
	clear(p.prevBytes)
	p.windows = 0
	for i := range p.peakC {
		p.peakC[i] = p.tr.TempC(i)
		p.overCycles[i] = 0
	}
	p.offPeakC = p.offC
	p.offOverCycles = 0
	p.traj = p.traj[:0]
	p.stride = 1
	p.sinceKept = 0
}

// Summary exports the tracker state (see PowerThermalSummary).
func (p *PowerThermal) Summary() PowerThermalSummary {
	s := PowerThermalSummary{
		Windows:          p.windows,
		WindowCycles:     p.every,
		ThermalAccel:     p.accel,
		CPUPowerW:        p.cpuW,
		DRAMPowerW:       p.dramW,
		OffChipPowerW:    p.offW,
		TotalPowerW:      p.cpuW + p.dramW + p.offW,
		MaxDRAMTempC:     p.maxDRAMC,
		LimitC:           thermal.DRAMThermalLimitC,
		WithinLimit:      !p.over,
		LimitExceedances: p.cExceed.Value(),
		OverLimitCycles:  p.cOverCycles.Value(),
		OffChipTempC:     p.offC,
		OffChipPeakC:     p.offPeakC,
		Trajectory:       append([]TrajectoryPoint(nil), p.traj...),
	}
	for i, l := range p.stack.Layers {
		s.Layers = append(s.Layers, PowerThermalLayer{
			Name:            l.Name,
			PowerW:          l.PowerW,
			TempC:           p.tr.TempC(i),
			PeakC:           p.peakC[i],
			OverLimitCycles: p.overCycles[i],
		})
	}
	return s
}

// heatShades maps a normalized activity/temperature to a glyph.
const heatShades = " .:-=+*#%@"

func shade(v, max float64) byte {
	if max <= 0 || v <= 0 {
		return heatShades[0]
	}
	i := int(v / max * float64(len(heatShades)-1))
	if i >= len(heatShades) {
		i = len(heatShades) - 1
	}
	return heatShades[i]
}

// bankHeatmap renders per-bank accesses since the last ResetStats, one
// row per rank, one column per bank.
func (p *PowerThermal) bankHeatmap() string {
	type row struct {
		label string
		banks []uint64
		total uint64
	}
	var rows []row
	max := uint64(0)
	add := func(label string, r *dram.Rank) {
		rw := row{label: label}
		for _, b := range r.Banks {
			n := b.Stats().Accesses
			rw.banks = append(rw.banks, n)
			rw.total += n
			if n > max {
				max = n
			}
		}
		rows = append(rows, rw)
	}
	for _, ch := range p.sys.channels {
		for r, rank := range ch.mc.Ranks() {
			add(fmt.Sprintf("%s.rank%d", ch.dram, r), rank)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "  per-bank accesses (cols=banks, shade 0..%d):\n", max)
	for _, rw := range rows {
		sb.WriteString("    " + fmt.Sprintf("%-14s |", rw.label))
		for _, n := range rw.banks {
			sb.WriteByte(shade(float64(n), float64(max)))
		}
		fmt.Fprintf(&sb, "| %d\n", rw.total)
	}
	return sb.String()
}

// sparkWidth caps trajectory sparkline columns.
const sparkWidth = 64

func sparkline(vals []float64, lo, hi float64) string {
	if len(vals) == 0 {
		return ""
	}
	n := len(vals)
	cols := n
	if cols > sparkWidth {
		cols = sparkWidth
	}
	var sb strings.Builder
	for c := 0; c < cols; c++ {
		v := vals[c*n/cols]
		if hi > lo {
			sb.WriteByte(shade(v-lo, hi-lo))
		} else {
			sb.WriteByte(heatShades[0])
		}
	}
	return sb.String()
}

// thermalSteadyState converts a run's measured energy breakdown into
// per-layer powers on cfg's floorplan placement and returns the loaded
// steady-state stack plus the off-chip DRAM power. This is the
// whole-run average counterpart of the tracker's per-window pipeline:
// array energy spreads evenly over the placed DRAM dies, channel IO
// energy lands on the logic die (or the DRAM dies when the peripheral
// logic shares them), and the 2D organization plus any backing channel
// dissipate off-chip.
func thermalSteadyState(cfg *config.Config, m Metrics) (*thermal.Stack, float64) {
	place := placementFor(cfg)
	st := thermal.NewStack(place.DRAMLayers, place.Logic)
	seconds := float64(m.Cycles) / (cfg.CPUMHz * 1e6)
	if seconds <= 0 {
		return st, 0
	}
	var uops float64
	for _, ipc := range m.IPC {
		uops += ipc * float64(m.Cycles)
	}
	st.Layers[0].PowerW = power.DefaultCPU().PowerW(uint64(uops), seconds)
	offUJ := m.EnergyBacking.TotalUJ()
	if place.Stacked() {
		arrayUJ := m.Energy.TotalUJ() - m.Energy.BusUJ
		dramBase := 1
		if place.Logic {
			st.Layers[1].PowerW += m.Energy.BusUJ * 1e-6 / seconds
			dramBase = 2
		} else {
			arrayUJ += m.Energy.BusUJ
		}
		per := arrayUJ / float64(place.DRAMLayers) * 1e-6 / seconds
		for i := 0; i < place.DRAMLayers; i++ {
			st.Layers[dramBase+i].PowerW += per
		}
	} else {
		offUJ += m.Energy.TotalUJ()
	}
	return st, offUJ * 1e-6 / seconds
}

// ThermalFigure reproduces the Section 2.4 viability argument from
// measured energy instead of assumed layer powers: for each memory
// organization, the measured DRAM energy breakdown and committed work
// become per-layer powers on that organization's actual floorplan, and
// the steady-state model reports whether the hottest DRAM die stays
// within the 85C rating.
func (r *Runner) ThermalFigure() (*Figure, error) {
	mix := "VH1"
	t := &table{Figure: Figure{
		ID:      "Thermal",
		Title:   "Section 2.4: stack temperature from measured energy (mix " + mix + ")",
		Columns: []string{"dies", "cpu W", "stack-dram W", "offchip W", "cpu C", "worst DRAM C", "ok<=85C"},
		Notes: "(per-layer power from the measured DRAM energy breakdown on each config's floorplan;\n" +
			" worst DRAM C covers stacked dies and off-chip DIMMs; paper claim: <=85C)",
	}}
	for _, cfg := range []*config.Config{
		config.Baseline2D(),
		config.Simple3D(),
		config.Fast3D(),
		config.QuadMC(),
		config.Fast3D().WithStackCache(config.StackCache, 64),
		config.Fast3D().WithStackCache(config.StackMemCache, 64),
	} {
		// One run, one cell per column of its thermal row.
		cells := make([]cell, len(t.Columns))
		for i := range cells {
			cells[i] = r.mixCell(cfg, mix, func(m Metrics) float64 { return thermalRow(cfg, m)[i] })
		}
		t.row(cfg.Name, cells...)
	}
	return t.collect()
}

// thermalRow is ThermalFigure's row for cfg's measured run m, in column
// order.
func thermalRow(cfg *config.Config, m Metrics) [7]float64 {
	st, offW := thermalSteadyState(cfg, m)
	dramC := st.MaxDRAMTempC()
	place := placementFor(cfg)
	if !place.Stacked() || cfg.StackMode != config.StackMemory {
		if offC := thermal.OffChipDRAMTempC(offW); offC > dramC {
			dramC = offC
		}
	}
	ok := 0.0
	if dramC <= thermal.DRAMThermalLimitC {
		ok = 1
	}
	return [7]float64{
		float64(place.Dies()),
		st.Layers[0].PowerW,
		st.TotalPowerW() - st.Layers[0].PowerW,
		offW,
		st.Temperatures()[0],
		dramC,
		ok,
	}
}

// Report renders the run-end power/thermal block: per-layer table,
// limit accounting, bank heatmap and temperature trajectory.
func (p *PowerThermal) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "power/thermal (%d windows of %d cycles, thermal accel %gx):\n",
		p.windows, p.every, p.accel)
	fmt.Fprintf(&sb, "  %-12s %8s %8s %8s %12s\n", "layer", "W", "C", "peak C", "over cycles")
	for _, l := range p.Summary().Layers {
		fmt.Fprintf(&sb, "  %-12s %8.2f %8.1f %8.1f %12d\n",
			l.Name, l.PowerW, l.TempC, l.PeakC, l.OverLimitCycles)
	}
	if p.hasOffchip {
		fmt.Fprintf(&sb, "  %-12s %8.2f %8.1f %8.1f %12d\n",
			"offchip", p.offW, p.offC, p.offPeakC, p.offOverCycles)
	}
	fmt.Fprintf(&sb, "  worst-case DRAM: %.1fC (limit %.0fC, ok=%v); exceedances %d, over-limit cycles %d\n",
		p.maxDRAMC, thermal.DRAMThermalLimitC, !p.over, p.cExceed.Value(), p.cOverCycles.Value())
	sb.WriteString(p.bankHeatmap())
	if len(p.traj) > 0 {
		lo, hi := p.traj[0].TempC[0], p.traj[0].TempC[0]
		for _, tp := range p.traj {
			for _, t := range tp.TempC {
				if t < lo {
					lo = t
				}
				if t > hi {
					hi = t
				}
			}
		}
		fmt.Fprintf(&sb, "  temperature trajectory (%d samples, shade %.1f..%.1fC):\n", len(p.traj), lo, hi)
		vals := make([]float64, len(p.traj))
		for i, l := range p.stack.Layers {
			for s, tp := range p.traj {
				vals[s] = tp.TempC[i]
			}
			fmt.Fprintf(&sb, "    %-12s |%s| %.1fC\n", l.Name, sparkline(vals, lo, hi), p.tr.TempC(i))
		}
	}
	return sb.String()
}
