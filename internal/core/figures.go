package core

import (
	"fmt"

	"stackedsim/internal/config"
	"stackedsim/internal/stats"
	"stackedsim/internal/workload"
)

// Figures is the registry of experiments: every table and figure the
// harness generates, in the order `experiments` prints them. Name is
// the -exp name and Format the value format Render is given. It is the
// only list of experiments: the command, its help text and the golden
// tests all range over it.
var Figures = []struct {
	Name     string
	Format   string
	Generate func(*Runner) (*Figure, error)
}{
	{"table2a", "%.1f", (*Runner).Table2a},
	{"table2b", "%.3f", (*Runner).Table2b},
	{"fig4", "%.2f", (*Runner).Figure4},
	{"fig6a", "%.3f", (*Runner).Figure6a},
	{"fig6b", "%.3f", (*Runner).Figure6b},
	{"fig7a", "%.1f", func(r *Runner) (*Figure, error) { return r.Figure7(false) }},
	{"fig7b", "%.1f", func(r *Runner) (*Figure, error) { return r.Figure7(true) }},
	{"fig9a", "%.1f", func(r *Runner) (*Figure, error) { return r.Figure9(false) }},
	{"fig9b", "%.1f", func(r *Runner) (*Figure, error) { return r.Figure9(true) }},
	{"vbfprobes", "%.2f", (*Runner).VBFProbes},
	{"energy", "%.2f", (*Runner).EnergyFigure},
	{"banking", "%.3f", (*Runner).MSHRBankingFigure},
	{"stability", "%.4f", (*Runner).StabilityFigure},
	{"stackcap", "%.3f", (*Runner).StackCapacityFigure},
	{"thermal", "%.2f", (*Runner).ThermalFigure},
	{"ablations", "%.3f", (*Runner).Ablations},
	{"manycore", "%.4f", (*Runner).ManycoreFigure},
}

// A cell is one value of a figure, named by what it needs. Naming a
// cell — calling one of the constructors below — enqueues its runs on
// the Runner's pool at once; calling the cell waits for them. A
// generator therefore states its table once, top to bottom, and by the
// time collect makes its first wait the figure's whole run set is in
// the pool. Output cannot depend on the order runs were enqueued: every
// run is deterministic in isolation, and cells are collected in
// declaration order.
type cell func() (float64, error)

// table is a figure being declared: the header, and per row the cells
// that will fill it.
type table struct {
	Figure
	cells [][]cell
}

// row declares the next line of t.
func (t *table) row(label string, cells ...cell) {
	t.Rows = append(t.Rows, FigureRow{Label: label})
	t.cells = append(t.cells, cells)
}

// collect waits for t's cells in declaration order and returns the
// filled figure.
func (t *table) collect() (*Figure, error) {
	for i, cells := range t.cells {
		for _, c := range cells {
			v, err := c()
			if err != nil {
				return nil, err
			}
			t.Rows[i].Values = append(t.Rows[i].Values, v)
		}
	}
	return &t.Figure, nil
}

// The metrics cells read off a run.
func hmipc(m Metrics) float64 { return m.HMIPC }
func ipc0(m Metrics) float64  { return m.IPC[0] }

// constant is a value that needs no run (a paper column).
func constant(v float64) cell { return func() (float64, error) { return v, nil } }

// runCell is metric of the run of w under cfg.
func (r *Runner) runCell(cfg *config.Config, w workload.Workload, metric func(Metrics) float64) cell {
	in := r.start(cfg, w)
	return func() (float64, error) {
		<-in.done
		if in.err != nil {
			return 0, in.err
		}
		return metric(in.m), nil
	}
}

// mixCell is runCell for a Table 2b mix.
func (r *Runner) mixCell(cfg *config.Config, mix string, metric func(Metrics) float64) cell {
	w, err := workload.OfMix(mix)
	if err != nil {
		return func() (float64, error) { return 0, fmt.Errorf("core: %w", err) }
	}
	return r.runCell(cfg, w, metric)
}

// meanCell is the mean of metric over mixes under cfg.
func (r *Runner) meanCell(cfg *config.Config, mixes []string, metric func(Metrics) float64) cell {
	cells := make([]cell, len(mixes))
	for i, mix := range mixes {
		cells[i] = r.mixCell(cfg, mix, metric)
	}
	return fold(stats.Mean, cells)
}

// fold is f over the values of cells.
func fold(f func([]float64) float64, cells []cell) cell {
	return func() (float64, error) {
		xs := make([]float64, len(cells))
		for i, c := range cells {
			var err error
			if xs[i], err = c(); err != nil {
				return 0, err
			}
		}
		return f(xs), nil
	}
}

// speedupCell is Speedup(base, cfg, mix).
func (r *Runner) speedupCell(base, cfg *config.Config, mix string) cell {
	r.Prefetch(base, mix)
	r.Prefetch(cfg, mix)
	return func() (float64, error) { return r.Speedup(base, cfg, mix) }
}

// gmCell is GMSpeedup(base, cfg, mixes).
func (r *Runner) gmCell(base, cfg *config.Config, mixes []string) cell {
	r.Prefetch(base, mixes...)
	r.Prefetch(cfg, mixes...)
	return func() (float64, error) { return r.GMSpeedup(base, cfg, mixes) }
}
