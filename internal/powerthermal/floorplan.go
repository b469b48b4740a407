package powerthermal

import (
	"fmt"

	"stackedsim/internal/config"
	"stackedsim/internal/stats"
)

// The Section 2 area arithmetic: TSV bus footprints, DRAM density
// scaling and per-layer die size, the row-buffer SRAM budget that
// Section 4 trades against extra L2, and the placement of a
// configuration's ranks on the dies of its stack.

// TSV geometry from Gupta et al. as cited in Section 2.2.
const (
	// TSVPitchLowUM and TSVPitchHighUM bracket reported TSV pitches.
	TSVPitchLowUM  = 4.0
	TSVPitchHighUM = 10.0
	// tsvOverhead accounts for keep-out spacing, shielding and
	// power/ground TSVs around each signal; calibrated so a 1024-bit bus
	// at the 10um pitch occupies the paper's quoted 0.32mm^2.
	tsvOverhead = 3.125
)

// BusAreaMM2 reports the silicon area of a vertical bus of the given
// width in bits at a TSV pitch in micrometers.
func BusAreaMM2(bits int, pitchUM float64) float64 {
	if bits <= 0 || pitchUM <= 0 {
		return 0
	}
	um2 := float64(bits) * pitchUM * pitchUM * tsvOverhead
	return um2 / 1e6
}

// BusesPerCM2 reports how many such buses fit on a square centimeter
// (the paper: over three hundred 1Kb buses).
func BusesPerCM2(bits int, pitchUM float64) int {
	area := BusAreaMM2(bits, pitchUM)
	if area == 0 {
		return 0
	}
	return int(100.0 / area)
}

// DRAM density arithmetic from Section 2.4.
const (
	// Density80nm is the cited DRAM density at 80nm in Mb per mm^2.
	Density80nm = 10.9
)

// DensityAtNode scales DRAM density from 80nm to the given node,
// assuming ideal area scaling with feature size squared.
func DensityAtNode(nodeNM float64) float64 {
	if nodeNM <= 0 {
		return 0
	}
	scale := 80.0 / nodeNM
	return Density80nm * scale * scale
}

// LayerAreaMM2 reports the die area needed for capacityGB gigabytes on
// one layer at the given density in Mb/mm^2. One GB = 8192 Mb.
func LayerAreaMM2(capacityGB float64, densityMbPerMM2 float64) float64 {
	if densityMbPerMM2 <= 0 {
		return 0
	}
	return capacityGB * 8192 / densityMbPerMM2
}

// LayersFor reports how many stacked DRAM layers realize totalGB at
// perLayerGB per layer, plus one extra die when the peripheral logic is
// split onto its own layer (the Tezzaron-style true-3D organization).
func LayersFor(totalGB, perLayerGB int, separateLogic bool) int {
	if perLayerGB <= 0 || totalGB <= 0 {
		return 0
	}
	layers := (totalGB + perLayerGB - 1) / perLayerGB
	if separateLogic {
		layers++
	}
	return layers
}

// Placement maps the DRAM organization onto the dies of a processor
// stack: which stacked layer each rank lives on. Ranks spread evenly
// across the DRAM layers from the bottom of the stack upward (rank 0
// nearest the processor, where the vertical bus is shortest). The zero
// Placement means no stacked DRAM — the 2D organization, where every
// rank is off-chip.
type Placement struct {
	DRAMLayers int  // stacked DRAM dies (0 = all DRAM off-chip)
	Logic      bool // peripheral logic split onto its own die
	Ranks      int  // ranks spread across the DRAM layers
}

// placementFor maps a configuration onto the stack's floorplan: on-
// stack DRAM (BusDivider 1 — the TSV bus) spreads its ranks over one
// die per GB, with a separate peripheral-logic die under true-3D
// timing; the 2D organization keeps all DRAM off-chip.
func placementFor(cfg *config.Config) Placement {
	if cfg.BusDivider > 1 {
		return Placement{}
	}
	gb := cfg.MemoryGB
	if cfg.StackMode != config.StackMemory {
		gb = int(cfg.StackCapMB+1023) / 1024
		if gb < 1 {
			gb = 1
		}
	}
	return Placement{DRAMLayers: LayersFor(gb, 1, false), Logic: cfg.Timing == config.TimingTrue3D(), Ranks: cfg.RanksTotal}
}

// Stacked reports whether any DRAM is on-stack.
func (p Placement) Stacked() bool { return p.DRAMLayers > 0 }

// dramBase is the stack index of DRAM layer 0: above the processor, and
// above the logic die when there is one.
func (p Placement) dramBase() int {
	if p.Logic {
		return 2
	}
	return 1
}

// LayerOfRank reports which DRAM layer (0 = nearest the processor)
// holds the given stacked rank.
func (p Placement) LayerOfRank(rank int) int { return rank * p.DRAMLayers / p.Ranks }

// ioDies is where a stacked channel's IO energy lands: n stack layers
// from first — the TSV drivers on the logic die, or spread across the
// DRAM dies when the peripheral logic lives on them.
func (p Placement) ioDies() (first, n int) {
	if p.Logic {
		return 1, 1
	}
	return 1, p.DRAMLayers
}

// RowBufferBudgetBytes reports the SRAM held in row buffers: one
// page-sized entry per row-buffer-cache slot per bank (Section 4.1's
// 256KB-per-8-ranks arithmetic).
func RowBufferBudgetBytes(ranks, banksPerRank, pageBytes, entries int) int {
	if ranks <= 0 || banksPerRank <= 0 || pageBytes <= 0 || entries <= 0 {
		return 0
	}
	return ranks * banksPerRank * pageBytes * entries
}

// PaperReport renders the arithmetic the paper states only as text, at
// its parameters: Section 2.2's TSV bus area, Section 2.4's DRAM
// density and layer count, Section 4.1's row-buffer budget, and Section
// 2.4's thermal check — the steady-state worst-case DRAM temperature
// over stack heights and CPU powers, and the paper's own stack die by
// die.
func PaperReport() string {
	out := "TSV arithmetic (Section 2.2):\n"
	out += fmt.Sprintf("  1024-bit bus at %.0fum pitch: %.2f mm^2\n", TSVPitchHighUM, BusAreaMM2(1024, TSVPitchHighUM))
	out += fmt.Sprintf("  1Kb buses per cm^2: %d (paper: over three hundred)\n", BusesPerCM2(1024, TSVPitchHighUM))
	d50 := DensityAtNode(50)
	out += "DRAM density (Section 2.4):\n"
	out += fmt.Sprintf("  80nm: %.1f Mb/mm^2; 50nm: %.1f Mb/mm^2 (paper: 27.9)\n", Density80nm, d50)
	out += fmt.Sprintf("  1GB layer footprint at 50nm: %.0f mm^2 (paper: 294)\n", LayerAreaMM2(1, d50))
	out += fmt.Sprintf("  8GB stack: %d layers (+logic: %d)\n", LayersFor(8, 1, false), LayersFor(8, 1, true))
	out += "Row-buffer budget (Section 4.1):\n"
	out += fmt.Sprintf("  8 ranks x 8 banks x 4KB x 1 entry: %d KB (paper: 256KB)\n", RowBufferBudgetBytes(8, 8, 4096, 1)/1024)
	out += fmt.Sprintf("  16 ranks: %d KB total\n", RowBufferBudgetBytes(16, 8, 4096, 1)/1024)

	out += "\nWorst-case DRAM temperature vs stack height and CPU power (Section 2.4)\n"
	out += fmt.Sprintf("(ambient %.0fC, DRAM limit %.0fC, %.1fW per DRAM or logic die):\n\n", AmbientC, DRAMThermalLimitC, paperDieW)
	table := stats.NewTable("layers", "60W CPU", "80W CPU", "100W CPU", "130W CPU")
	for _, layers := range []int{2, 4, 8, 16} {
		row := []string{fmt.Sprintf("%d+logic", layers)}
		for _, cpuW := range []float64{60, 80, 100, 130} {
			c, mark := maxDRAMC(loadedStack(layers, true, cpuW, paperDieW).Steady()), ""
			if c > DRAMThermalLimitC {
				mark = " !"
			}
			row = append(row, fmt.Sprintf("%.1fC%s", c, mark))
		}
		table.AddRow(row...)
	}
	out += table.String()
	st := loadedStack(8, true, 80, paperDieW)
	temps := st.Steady()
	out += fmt.Sprintf("\nThe paper's stack: 8 DRAM dies + logic over an 80W quad-core, %.0fW total:\n", st.TotalPowerW())
	for i, name := range st.Names {
		out += fmt.Sprintf("  %-12s %6.1fW  %6.1fC\n", name, st.PowerW[i], temps[i])
	}
	worst := maxDRAMC(temps)
	out += fmt.Sprintf("  worst-case DRAM: %.1fC (limit %.0fC, ok=%v)\n", worst, DRAMThermalLimitC, worst <= DRAMThermalLimitC)
	return out
}

// paperDieW is the power of each DRAM and logic die in the Section 2.4
// check.
const paperDieW = 1.5

// loadedStack is a steady-state stack of dramLayers DRAM dies (and a
// logic die when logic is set) dissipating dieW each over a cpuW
// processor.
func loadedStack(dramLayers int, logic bool, cpuW, dieW float64) *Stack {
	s := NewStack(Placement{DRAMLayers: dramLayers, Logic: logic})
	for i := range s.PowerW {
		s.PowerW[i] = dieW
	}
	s.PowerW[0] = cpuW
	return s
}
