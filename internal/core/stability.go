package core

import (
	"fmt"
	"math"

	"stackedsim/internal/config"
	"stackedsim/internal/stats"
)

// StabilityFigure validates the scaled-down methodology itself: HMIPC
// for representative mixes across measurement-window lengths and seeds.
// A reproduction whose conclusions depended on the window or the seed
// would be worthless; this figure quantifies both sensitivities so
// EXPERIMENTS.md can bound them.
func (r *Runner) StabilityFigure() (*Figure, error) {
	mixes := []string{"VH1", "H1", "M1"}
	t := &table{Figure: Figure{
		ID:      "Stability",
		Title:   "Methodology check: HMIPC vs window length and seed (3D-fast)",
		Columns: mixes,
		Notes:   "(CV = stddev/mean over seeds 1-3; windows use the default seed)",
	}}

	// Window sweep at the default seed. Fresh sub-runners are keyed by
	// window so the memo cannot mix lengths; they share the parent's
	// worker pool so the sweep cannot oversubscribe the machine.
	for _, win := range []int64{200_000, 400_000, 800_000} {
		sub := r.child(win/4, win)
		var cells []cell
		for _, mix := range mixes {
			cells = append(cells, sub.mixCell(config.Fast3D(), mix, hmipc))
		}
		t.row(fmt.Sprintf("window %dk cycles", win/1000), cells...)
	}

	// Seed sweep at the runner's window: report the coefficient of
	// variation across three seeds.
	var cvs []cell
	for _, mix := range mixes {
		var perSeed []cell
		for seed := int64(1); seed <= 3; seed++ {
			cfg := config.Fast3D()
			cfg.Seed = seed
			cfg.Name = fmt.Sprintf("%s-seed%d", cfg.Name, seed)
			perSeed = append(perSeed, r.mixCell(cfg, mix, hmipc))
		}
		cvs = append(cvs, fold(func(xs []float64) float64 { return 100 * coefficientOfVariation(xs) }, perSeed))
	}
	t.row("seed CV (%)", cvs...)
	return t.collect()
}

// coefficientOfVariation returns stddev/mean (0 for degenerate input).
func coefficientOfVariation(xs []float64) float64 {
	mean := stats.Mean(xs)
	if mean == 0 || len(xs) < 2 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	variance := ss / float64(len(xs)-1)
	if variance <= 0 {
		return 0
	}
	return math.Sqrt(variance) / mean
}
