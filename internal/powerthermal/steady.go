package powerthermal

import "stackedsim/internal/config"

// SteadyColumns names the values of a SteadyRow, in order.
var SteadyColumns = []string{"dies", "cpu W", "stack-dram W", "offchip W", "cpu C", "worst DRAM C", "ok<=85C"}

// SteadyRow is cfg's row of the Section 2.4 figure for one measured run
// — its length, each core's IPC over it, and the energy the stacked
// channels and the off-chip backing channel (zero when there is none)
// spent. It converts the measured energy breakdown into per-layer
// powers on cfg's floorplan placement and reads the steady state the
// loaded stack settles at: the whole-run average counterpart of the
// tracker's per-window pipeline. Array energy spreads evenly over the
// placed DRAM dies, channel IO energy lands on the placement's IO dies,
// and the 2D organization plus any backing channel dissipate off-chip;
// worst DRAM C covers the stacked dies and the off-chip DIMMs.
func SteadyRow(cfg *config.Config, cycles uint64, ipcs []float64, energy, backing Breakdown) [7]float64 {
	place := placementFor(cfg)
	st := NewStack(place)
	offW := 0.0
	if seconds := float64(cycles) / (cfg.CPUMHz * 1e6); seconds > 0 {
		var uops float64
		for _, ipc := range ipcs {
			uops += ipc * float64(cycles)
		}
		st.PowerW[0] = DefaultCPU().PowerW(uint64(uops), seconds)
		offUJ := backing.TotalUJ()
		if place.Stacked() {
			arrayUJ := energy.TotalUJ() - energy.BusUJ
			if first, _ := place.ioDies(); first < place.dramBase() {
				st.PowerW[first] += energy.BusUJ * 1e-6 / seconds
			} else {
				// The IO dies are the DRAM dies: IO spreads with the array.
				arrayUJ += energy.BusUJ
			}
			per := arrayUJ / float64(place.DRAMLayers) * 1e-6 / seconds
			for i := 0; i < place.DRAMLayers; i++ {
				st.PowerW[place.dramBase()+i] += per
			}
		} else {
			offUJ += energy.TotalUJ()
		}
		offW = offUJ * 1e-6 / seconds
	}
	temps := st.Steady()
	dramC := maxDRAMC(temps)
	if !place.Stacked() || cfg.StackMode != config.StackMemory {
		if offC := OffChipDRAMTempC(offW); offC > dramC {
			dramC = offC
		}
	}
	ok := 0.0
	if dramC <= DRAMThermalLimitC {
		ok = 1
	}
	return [7]float64{
		float64(len(st.Names)),
		st.PowerW[0],
		st.TotalPowerW() - st.PowerW[0],
		offW,
		temps[0],
		dramC,
		ok,
	}
}
