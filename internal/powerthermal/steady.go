package powerthermal

import (
	"stackedsim/internal/config"
	"stackedsim/internal/floorplan"
	"stackedsim/internal/power"
	"stackedsim/internal/thermal"
)

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

// SteadyColumns names the values of a SteadyRow, in order.
var SteadyColumns = []string{"dies", "cpu W", "stack-dram W", "offchip W", "cpu C", "worst DRAM C", "ok<=85C"}

// SteadyRow is cfg's row of the Section 2.4 figure for one measured run
// — its length, each core's IPC over it, and the energy the stacked
// channels and the off-chip backing channel (zero when there is none)
// spent. It converts the measured energy breakdown into per-layer
// powers on cfg's floorplan placement and reads the steady state the
// loaded stack settles at: the whole-run average counterpart of the
// tracker's per-window pipeline. Array energy spreads evenly over the
// placed DRAM dies, channel IO energy lands on the logic die (or the
// DRAM dies when the peripheral logic shares them), and the 2D
// organization plus any backing channel dissipate off-chip; worst DRAM C
// covers the stacked dies and the off-chip DIMMs.
func SteadyRow(cfg *config.Config, cycles uint64, ipcs []float64, energy, backing power.Breakdown) [7]float64 {
	place := placementFor(cfg)
	st := thermal.NewStack(place.DRAMLayers, place.Logic)
	offW := 0.0
	if seconds := float64(cycles) / (cfg.CPUMHz * 1e6); seconds > 0 {
		var uops float64
		for _, ipc := range ipcs {
			uops += ipc * float64(cycles)
		}
		st.Layers[0].PowerW = power.DefaultCPU().PowerW(uint64(uops), seconds)
		offUJ := backing.TotalUJ()
		if place.Stacked() {
			arrayUJ := energy.TotalUJ() - energy.BusUJ
			dramBase := 1
			if place.Logic {
				st.Layers[1].PowerW += energy.BusUJ * 1e-6 / seconds
				dramBase = 2
			} else {
				arrayUJ += energy.BusUJ
			}
			per := arrayUJ / float64(place.DRAMLayers) * 1e-6 / seconds
			for i := 0; i < place.DRAMLayers; i++ {
				st.Layers[dramBase+i].PowerW += per
			}
		} else {
			offUJ += energy.TotalUJ()
		}
		offW = offUJ * 1e-6 / seconds
	}
	dramC := st.MaxDRAMTempC()
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
