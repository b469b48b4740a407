package core

import (
	"fmt"

	"stackedsim/internal/config"
)

// Ablations runs the DESIGN.md ablation studies: each row isolates one
// design decision and reports the GM(H,VH) speedup against that
// decision's natural reference point.
func (r *Runner) Ablations() (*Figure, error) {
	t := &table{Figure: Figure{
		ID:      "Ablate",
		Title:   "Ablations: each design choice vs its reference (GM over H,VH mixes)",
		Columns: []string{"GM(H,VH)"},
	}}
	ablate := func(label string, base, cfg *config.Config) {
		t.row(label, r.gmCell(base, cfg, HighMixes()))
	}

	// 1. L2 bank interleaving: the Figure 5 page-aligned floorplan vs
	// line interleaving with a full L2-bank-to-MC crossbar.
	fast := config.Fast3D()
	aligned := config.QuadMC()
	crossed := config.QuadMC()
	crossed.L2PageInterleave = false
	crossed.Name = "3D-4mc-16rank-4rb-crossbar"
	ablate("interleave: 4KB page-aligned (Fig5)", fast, aligned)
	ablate("interleave: 64B line + crossbar", fast, crossed)

	// 2. Memory scheduling: FR-FCFS open-page vs strict FIFO.
	fifo := config.QuadMC()
	fifo.SchedFRFCFS = false
	fifo.Name = "3D-4mc-16rank-4rb-fifo"
	ablate("scheduler: FR-FCFS", fast, aligned)
	ablate("scheduler: FIFO", fast, fifo)

	// 3. MSHR implementation at 8x capacity: ideal CAM vs VBF vs plain
	// linear probing, against the baseline-size MSHR.
	dual := config.DualMC()
	for _, kind := range []config.MSHRKind{config.MSHRIdealCAM, config.MSHRVBF, config.MSHRLinearProbe} {
		ablate(fmt.Sprintf("mshr 8x: %s", kind), dual, dual.WithMSHR(8, kind, false))
	}

	// 4. Dynamic-resizer epoch length, against the static 8x MSHR.
	static := config.QuadMC().WithMSHR(8, config.MSHRIdealCAM, false)
	for _, epoch := range []int64{100_000, 200_000, 400_000} {
		dyn := config.QuadMC().WithMSHR(8, config.MSHRIdealCAM, true)
		dyn.DynEpochCycles = epoch
		dyn.Name = fmt.Sprintf("%s-epoch%dk", dyn.Name, epoch/1000)
		ablate(fmt.Sprintf("dynamic epoch %dk", epoch/1000), static, dyn)
	}

	// 5. Critical-word-first on the narrow stacked bus, vs widening the
	// bus to a full line — the Section 3 argument against relying on
	// CWF under multi-core contention.
	narrow := config.Simple3D()
	cwf := config.Simple3D()
	cwf.CriticalWordFirst = true
	cwf.Name = "3D-cwf"
	ablate("narrow bus + CWF (vs 3D)", narrow, cwf)
	ablate("full-line bus (vs 3D)", narrow, config.Wide3D())

	// 6. The paper's closing §5 observation: the scalable MHA is
	// uniquely required by 3D-stacked memory — on a conventional 2D
	// system other bottlenecks dominate and larger MSHRs buy nothing.
	d2 := config.Baseline2D()
	ablate("2D + 8x V+D MSHR (vs 2D)", d2, d2.WithMSHR(8, config.MSHRVBF, true))

	// 7. Smart refresh (citation [11]) on the aggressive organization,
	// where the 32ms on-stack retention doubles refresh overhead.
	smart := config.QuadMC()
	smart.SmartRefresh = true
	smart.Name = "3D-4mc-16rank-4rb-smartref"
	ablate("smart refresh (vs quad-MC)", config.QuadMC(), smart)
	return t.collect()
}

// MSHRBankingFigure isolates DESIGN.md deviation 2: how the MC-count
// trend changes when the constant 8-entry L2 MSHR budget is banked per
// controller (the Figure 5 floorplan) versus kept unified. Values are
// GM(H,VH) speedups over 3D-fast at single-entry row buffers.
func (r *Runner) MSHRBankingFigure() (*Figure, error) {
	t := &table{Figure: Figure{
		ID:      "Banking",
		Title:   "MSHR banking vs MC count (1RB, constant 8-entry aggregate); speedup over 3D-fast",
		Columns: []string{"banked (Fig5)", "unified"},
		Notes:   "(the unified variant needs cross-slice routing the Fig5 floorplan avoids)",
	}}
	base := config.Fast3D()
	for _, mcs := range []int{1, 2, 4} {
		banked := config.Aggressive(mcs, 16, 1)
		unified := config.Aggressive(mcs, 16, 1)
		unified.MSHRUnified = true
		unified.Name = banked.Name + "-unified"
		r.gmRow(t, fmt.Sprintf("%d MC / 16 ranks", mcs), base, []*config.Config{banked, unified}, HighMixes())
	}
	return t.collect()
}
