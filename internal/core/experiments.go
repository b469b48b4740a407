package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stackedsim/internal/config"
	"stackedsim/internal/ledger"
	"stackedsim/internal/powerthermal"
	"stackedsim/internal/stats"
	"stackedsim/internal/workload"
)

// Runner executes and memoizes simulation runs for the experiment
// harness. Results are keyed by (config name, mix), so configurations
// compared within one harness invocation must carry distinct names
// (the config constructors guarantee this).
//
// The Runner is safe for concurrent use: Metrics, MixMetrics,
// Speedup and GMSpeedup may be called from any number of goroutines.
// Each simulation is an isolated System (its own engine, RNGs and
// stats), runs execute on a bounded worker pool of Workers goroutines,
// and every key is simulated exactly once (single-flight): duplicate
// requests block until the first finishes and share its result. Because
// every run is deterministic in isolation, the schedule cannot change
// results — a -j 1 sweep and a fully parallel one produce byte-identical
// figures, which TestParallelSequentialParity pins.
//
// Figure generators declare their tables as cells (figures.go), which
// puts a figure's whole run set in the pool before its first wait.
type Runner struct {
	// Warmup/Measure override the config's window when positive.
	Warmup  int64
	Measure int64
	// Progress, when non-nil, receives one line per completed run.
	// Writes are serialized; line order follows run completion.
	Progress io.Writer
	// Workers bounds concurrently executing simulations. 0 means
	// runtime.GOMAXPROCS(0). Set it before the first run request;
	// later changes are ignored.
	Workers int
	// Ctx, when non-nil, cancels queued and in-flight runs: workers
	// check it before starting and each simulation polls it between
	// cycle chunks, so a cancelled sweep returns within microseconds
	// with an error for every unfinished key. Memoized results stay
	// valid. Set it before the first run request.
	Ctx context.Context
	// RunTimeout, when positive, bounds each individual simulation's
	// wall time; a run that exceeds it fails with DeadlineExceeded
	// without affecting its siblings.
	RunTimeout time.Duration
	// Ledger, when non-nil, persists every successful run and serves
	// repeats from the store: a key whose content address is already
	// recorded is recalled without simulating (counted in
	// Status().LedgerHits), making warm sweeps near-instant. Recording
	// never alters results — the record is written after the run
	// completes, and a recalled Metrics round-trips exactly. Ledger
	// write failures are reported on Progress but do not fail the run.
	// Set before the first run request.
	Ledger *ledger.Ledger
	// Experiment labels this runner's manifests in the ledger (e.g.
	// "fig4").
	Experiment string
	// GitRevision is stamped into ledger manifests when known.
	GitRevision string

	// simulate runs one cell; nil means RunWorkload. Only a test sets
	// it, to put a panic inside execute: NewSystem validates every
	// config, so no real input can panic there.
	simulate func(context.Context, *config.Config, workload.Workload) (Metrics, error)

	// mu guards memo, sem's creation and reports, which holds one
	// RunReport per executed run (memo hits are not runs).
	mu      sync.Mutex
	memo    map[string]*inflight
	sem     chan struct{}
	reports []RunReport
	runs    atomic.Uint64
	// ledgerHits counts the runs recalled from the ledger.
	ledgerHits atomic.Int64

	progressMu sync.Mutex
}

// RunReport is the post-mortem of one executed run: what it was, how
// long it took, and how it ended (nil Err = success). Panics inside a
// simulation are recovered into Err with their stack, so one broken
// configuration fails its own key instead of killing the sweep.
type RunReport struct {
	Config      string
	Label       string
	WallSeconds float64
	Err         error
}

// RunnerStatus is what a finished sweep reports: how many runs the
// ledger served and one report per executed run, so a caller can name
// the runs that failed. Memo hits are not runs.
type RunnerStatus struct {
	// LedgerHits counts runs served from the result ledger instead of
	// being simulated (always 0 when no Ledger is attached).
	LedgerHits int64
	Reports    []RunReport
}

// Status reports the ledger hits and a copy of the per-run reports.
// Safe to call from any goroutine at any time.
func (r *Runner) Status() RunnerStatus {
	r.mu.Lock()
	reports := append([]RunReport(nil), r.reports...)
	r.mu.Unlock()
	return RunnerStatus{LedgerHits: r.ledgerHits.Load(), Reports: reports}
}

// inflight is the single-flight slot for one (config, mix) key: cfg is
// the config the key names, as run. done is closed once m/err are final.
type inflight struct {
	cfg  config.Config
	done chan struct{}
	m    Metrics
	err  error
}

// NewRunner returns a Runner with the given window override.
func NewRunner(warmup, measure int64) *Runner {
	return &Runner{Warmup: warmup, Measure: measure}
}

// child returns a Runner with different windows that shares this
// runner's worker pool and progress writer, so nested sweeps (e.g. the
// stability figure's window sweep) cannot oversubscribe the machine.
func (r *Runner) child(warmup, measure int64) *Runner {
	c := NewRunner(warmup, measure)
	c.Progress = r.Progress
	c.Workers = r.Workers
	c.Ctx = r.Ctx
	c.RunTimeout = r.RunTimeout
	c.Ledger = r.Ledger
	c.Experiment = r.Experiment
	c.GitRevision = r.GitRevision
	c.simulate = r.simulate
	c.sem = r.pool()
	return c
}

// Runs reports the number of simulations executed so far (memo hits and
// duplicate requests are not counted).
func (r *Runner) Runs() uint64 { return r.runs.Load() }

// pool returns the worker-slot semaphore, building it on first use.
func (r *Runner) pool() chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sem == nil {
		n := r.Workers
		if n < 1 {
			n = runtime.GOMAXPROCS(0)
		}
		r.sem = make(chan struct{}, n)
	}
	return r.sem
}

// apply returns cfg as the runner runs it, with its windows.
func (r *Runner) apply(cfg *config.Config) config.Config {
	c := *cfg
	if r.Warmup > 0 {
		c.WarmupCycles = r.Warmup
	}
	if r.Measure > 0 {
		c.MeasureCycles = r.Measure
	}
	return c
}

// start enqueues (cfg, w) without waiting and returns its single-flight
// slot, launching the run on the worker pool if this is the first
// request for the key. The config is copied before returning, so callers
// may mutate cfg afterwards. A key is the config's name and the
// workload's labels, so it must name one machine: a request whose
// config differs from the one the key already ran panics.
func (r *Runner) start(cfg *config.Config, w workload.Workload) *inflight {
	key := cfg.Name + "\x00" + strings.Join(w.Labels(), "\x00")
	run := r.apply(cfg)
	r.mu.Lock()
	if r.memo == nil {
		r.memo = map[string]*inflight{}
	}
	if in, ok := r.memo[key]; ok {
		r.mu.Unlock()
		if in.cfg != run {
			panic(fmt.Sprintf("core: run key %q names two different configs", strings.ReplaceAll(key, "\x00", " ")))
		}
		return in
	}
	in := &inflight{cfg: run, done: make(chan struct{})}
	r.memo[key] = in
	r.mu.Unlock()
	sem := r.pool()
	go func() {
		sem <- struct{}{}
		defer func() { <-sem }()
		started := time.Now()
		run := in.cfg // the simulation's own copy: in.cfg stays as the key ran it
		in.m, in.err = r.execute(&run, w)
		wall := time.Since(started).Seconds()
		r.mu.Lock()
		r.reports = append(r.reports, RunReport{Config: run.Name, Label: w.String(), WallSeconds: wall, Err: in.err})
		r.mu.Unlock()
		if in.err == nil {
			r.runs.Add(1)
			r.progressf("ran %-28s %-4s HMIPC=%.4f\n", run.Name, w, in.m.HMIPC)
		}
		close(in.done)
	}()
	return in
}

// execute runs one cell under the runner's context and timeout,
// converting a panic into that run's error (with the stack attached)
// so a defective configuration cannot take the whole sweep down.
func (r *Runner) execute(run *config.Config, w workload.Workload) (m Metrics, err error) {
	ctx := r.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// A sweep cancelled while this run was queued must not start it:
	// builds are cheap but full simulations are not.
	if err := ctx.Err(); err != nil {
		return Metrics{}, err
	}
	if r.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.RunTimeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("run panicked: %v\n%s", p, debug.Stack())
		}
	}()
	return r.cell(ctx, run, w)
}

// progressf writes one serialized line to the progress writer.
func (r *Runner) progressf(format string, args ...any) {
	if r.Progress == nil {
		return
	}
	r.progressMu.Lock()
	fmt.Fprintf(r.Progress, format, args...)
	r.progressMu.Unlock()
}

// cell is the run path of one (config, workload) cell: recall it from
// the ledger, else simulate it and record the result.
//
// A run whose content address is already recorded is recalled without
// simulating (the cross-process analogue of the in-process
// single-flight memo). Recall round-trips Metrics exactly, so a warm
// sweep is numerically identical to a cold one. The record is written
// once; a failed write is reported but never fails the run — losing a
// cache entry is recoverable, losing a finished simulation is not.
func (r *Runner) cell(ctx context.Context, run *config.Config, w workload.Workload) (Metrics, error) {
	simulate := r.simulate
	if simulate == nil {
		simulate = RunWorkload
	}
	labels := w.Labels()
	if r.Ledger != nil {
		if m, rec, err := Recall(r.Ledger, run, labels); err == nil && rec != nil {
			r.ledgerHits.Add(1)
			r.progressf("hit %-28s %-4s (ledger %s)\n", run.Name, strings.Join(labels, ","), rec.Manifest.ID)
			return m, nil
		}
	}
	started := time.Now()
	m, err := simulate(ctx, run, w)
	if err != nil || r.Ledger == nil {
		return m, err
	}
	rec, err := NewRunRecord(run, labels, &m, r.Experiment, r.GitRevision,
		started, time.Since(started).Seconds())
	if err == nil {
		_, err = r.Ledger.Put(rec)
	}
	if err != nil {
		r.progressf("ledger write failed for %s %s: %v\n", run.Name, strings.Join(labels, ","), err)
	}
	return m, nil
}

// Metrics runs (or recalls) w under cfg: every request for the same
// (config name, workload) shares one simulation through the memo, the
// ledger and the worker pool.
func (r *Runner) Metrics(cfg *config.Config, w workload.Workload) (Metrics, error) {
	in := r.start(cfg, w)
	<-in.done
	return in.m, in.err
}

// Prefetch enqueues each (cfg, mix) run without waiting for results, so
// a subsequent in-order collection loop finds the pool already
// saturated. Duplicate keys (already running or memoized) are free; an
// unknown mix is left for MixMetrics to report.
func (r *Runner) Prefetch(cfg *config.Config, mixes ...string) {
	for _, mix := range mixes {
		if w, err := workload.OfMix(mix); err == nil {
			r.start(cfg, w)
		}
	}
}

// MixMetrics runs (or recalls) the given Table 2b mix under cfg.
func (r *Runner) MixMetrics(cfg *config.Config, mix string) (Metrics, error) {
	w, err := workload.OfMix(mix)
	if err != nil {
		return Metrics{}, fmt.Errorf("core: %w", err)
	}
	return r.Metrics(cfg, w)
}

// Speedup reports cfg's HMIPC on mix relative to base's.
func (r *Runner) Speedup(base, cfg *config.Config, mix string) (float64, error) {
	b, err := r.MixMetrics(base, mix)
	if err != nil {
		return 0, err
	}
	m, err := r.MixMetrics(cfg, mix)
	if err != nil {
		return 0, err
	}
	return stats.Speedup(b.HMIPC, m.HMIPC), nil
}

// GMSpeedup reports the geometric-mean speedup of cfg over base across
// the given mixes.
func (r *Runner) GMSpeedup(base, cfg *config.Config, mixes []string) (float64, error) {
	var sp []float64
	for _, mix := range mixes {
		s, err := r.Speedup(base, cfg, mix)
		if err != nil {
			return 0, err
		}
		sp = append(sp, s)
	}
	return stats.GeoMean(sp), nil
}

// HighMixes returns the H and VH mix names (the paper's primary metric
// population).
func HighMixes() []string {
	var names []string
	for _, m := range workload.Mixes {
		if m.Group == "H" || m.Group == "VH" {
			names = append(names, m.Name)
		}
	}
	return names
}

// AllMixes returns every mix name.
func AllMixes() []string { return workload.MixNames() }

// Figure is a generic table of experiment results.
type Figure struct {
	ID      string
	Title   string
	Columns []string
	Rows    []FigureRow
	Notes   string
}

// FigureRow is one labeled row of values.
type FigureRow struct {
	Label  string
	Values []float64
}

// Render formats the figure as text.
func (f *Figure) Render(format string) string {
	t := stats.NewTable(append([]string{f.ID}, f.Columns...)...)
	for _, row := range f.Rows {
		t.AddFloats(row.Label, format, row.Values...)
	}
	s := f.Title + "\n" + t.String()
	if f.Notes != "" {
		s += f.Notes + "\n"
	}
	return s
}

// Figure4 reproduces the Section 3 comparison: speedups of the simple
// 3D-stacked organizations (3D, 3D-wide, 3D-fast) over off-chip 2D
// memory, per mix plus GM(H,VH) and GM(all).
func (r *Runner) Figure4() (*Figure, error) {
	base := config.Baseline2D()
	configs := []*config.Config{base, config.Simple3D(), config.Wide3D(), config.Fast3D()}
	t := &table{Figure: Figure{
		ID:    "Fig4",
		Title: "Figure 4: speedup of simple 3D-stacked memories over off-chip 2D",
	}}
	for _, c := range configs {
		t.Columns = append(t.Columns, c.Name)
	}
	r.speedupRows(t, base, configs)
	return t.collect()
}

// speedupRows declares the rows Figures 4, 7 and 9 share: each
// variant's speedup over base per mix, then over GM(H,VH) and GM(all).
func (r *Runner) speedupRows(t *table, base *config.Config, variants []*config.Config) {
	for _, mix := range AllMixes() {
		var cells []cell
		for _, c := range variants {
			cells = append(cells, r.speedupCell(base, c, mix))
		}
		t.row(mix, cells...)
	}
	r.gmRow(t, "GM(H,VH)", base, variants, HighMixes())
	r.gmRow(t, "GM(all)", base, variants, AllMixes())
}

// gmRow declares each variant's GM speedup over base across mixes.
func (r *Runner) gmRow(t *table, label string, base *config.Config, variants []*config.Config, mixes []string) {
	var cells []cell
	for _, c := range variants {
		cells = append(cells, r.gmCell(base, c, mixes))
	}
	t.row(label, cells...)
}

// Figure6a reproduces the rank/memory-controller sweep: speedup over
// 3D-fast for {1,2,4} MCs x {8,16} ranks (single-entry row buffers),
// plus spending the same transistor budget on +512KB / +1MB of L2.
func (r *Runner) Figure6a() (*Figure, error) {
	base := config.Fast3D()
	t := &table{Figure: Figure{
		ID:      "Fig6a",
		Title:   "Figure 6a: speedup over 3D-fast; rows = organization, cols = GM groups",
		Columns: []string{"GM(H,VH)", "GM(all)"},
	}}
	var variants []*config.Config
	for _, ranks := range []int{8, 16} {
		for _, mcs := range []int{1, 2, 4} {
			variants = append(variants, config.Aggressive(mcs, ranks, 1))
		}
	}
	for _, extraKB := range []int{512, 1024} {
		c := base.Clone()
		c.L2ExtraKB = extraKB
		c.Name = fmt.Sprintf("3D-fast+%dKB-L2", extraKB)
		variants = append(variants, c)
	}
	for _, c := range variants {
		t.row(c.Name, r.gmCell(base, c, HighMixes()), r.gmCell(base, c, AllMixes()))
	}
	return t.collect()
}

// Figure6b reproduces the row-buffer-cache sweep: 1-4 entries per bank
// on the 2MC/8-rank and 4MC/16-rank organizations, speedup over 3D-fast.
func (r *Runner) Figure6b() (*Figure, error) {
	base := config.Fast3D()
	t := &table{Figure: Figure{
		ID:      "Fig6b",
		Title:   "Figure 6b: row-buffer cache entries; speedup over 3D-fast",
		Columns: []string{"1RB", "2RBs", "3RBs", "4RBs"},
	}}
	for _, org := range []struct{ mcs, ranks int }{{2, 8}, {4, 16}} {
		var variants []*config.Config
		for rb := 1; rb <= 4; rb++ {
			variants = append(variants, config.Aggressive(org.mcs, org.ranks, rb))
		}
		r.gmRow(t, fmt.Sprintf("%dMC/%dR GM(H,VH)", org.mcs, org.ranks), base, variants, HighMixes())
		r.gmRow(t, fmt.Sprintf("%dMC/%dR GM(all)", org.mcs, org.ranks), base, variants, AllMixes())
	}
	return t.collect()
}

// mshrFigure runs an MSHR-variant comparison (percentage improvement
// per mix plus GM rows) against the dual-MC (a) or quad-MC (b)
// organization with 4-entry row buffers.
func (r *Runner) mshrFigure(num int, what string, quad bool, columns func(base *config.Config) []*config.Config) (*Figure, error) {
	base, ab, name := config.DualMC(), "a", "dual-MC/8-rank"
	if quad {
		base, ab, name = config.QuadMC(), "b", "quad-MC/16-rank"
	}
	t := &table{Figure: Figure{
		ID:    fmt.Sprintf("Fig%d%s", num, ab),
		Title: fmt.Sprintf("Figure %d%s: %s on %s", num, ab, what, name),
		Notes: "(values are % performance improvement over the baseline MSHR size)",
	}}
	variants := columns(base)
	for _, c := range variants {
		t.Columns = append(t.Columns, c.Name[len(base.Name)+1:])
	}
	r.speedupRows(t, base, variants)
	f, err := t.collect()
	if err != nil {
		return nil, err
	}
	for _, row := range f.Rows {
		for i, speedup := range row.Values {
			row.Values[i] = (speedup - 1) * 100
		}
	}
	return f, nil
}

// Figure7 reproduces the MSHR capacity sweep (2x/4x/8x/dynamic).
func (r *Runner) Figure7(quad bool) (*Figure, error) {
	return r.mshrFigure(7, "L2 MSHR capacity scaling", quad, func(base *config.Config) []*config.Config {
		return []*config.Config{
			base.WithMSHR(2, config.MSHRIdealCAM, false),
			base.WithMSHR(4, config.MSHRIdealCAM, false),
			base.WithMSHR(8, config.MSHRIdealCAM, false),
			base.WithMSHR(8, config.MSHRIdealCAM, true),
		}
	})
}

// Figure9 reproduces the scalable-MHA comparison: ideal 8x CAM vs the
// VBF-based direct-mapped MSHR vs dynamic resizing vs both (V+D).
func (r *Runner) Figure9(quad bool) (*Figure, error) {
	return r.mshrFigure(9, "scalable L2 MHA", quad, func(base *config.Config) []*config.Config {
		return []*config.Config{
			base.WithMSHR(8, config.MSHRIdealCAM, false), // ideal 8xMSHR
			base.WithMSHR(8, config.MSHRVBF, false),      // VBF
			base.WithMSHR(8, config.MSHRIdealCAM, true),  // Dynamic
			base.WithMSHR(8, config.MSHRVBF, true),       // V+D
		}
	})
}

// Table2a reproduces the per-benchmark MPKI column: each benchmark runs
// alone on a single core with a 6MB L2 (the paper's selection setup).
func (r *Runner) Table2a() (*Figure, error) {
	t := &table{Figure: Figure{
		ID:      "Table2a",
		Title:   "Table 2a: stand-alone L2 MPKI (6MB L2, single core)",
		Columns: []string{"paper MPKI", "measured MPKI"},
		Notes:   "(measured values are per kilo-muop over the scaled-down window)",
	}}
	cfg := config.Baseline2D()
	cfg.Cores = 1
	cfg.L2SizeKB = 6 * 1024
	cfg.Name = "2D-1core-6MB"
	mpki := func(m Metrics) float64 { return m.MPKI[0] }
	for _, spec := range workload.Specs {
		t.row(spec.Name, constant(spec.PaperMPKI), r.runCell(cfg, workload.Single(spec.Name), mpki))
	}
	return t.collect()
}

// Table2b reproduces the per-mix baseline HMIPC column on the 2D system.
func (r *Runner) Table2b() (*Figure, error) {
	t := &table{Figure: Figure{
		ID:      "Table2b",
		Title:   "Table 2b: baseline (2D) harmonic-mean IPC per mix",
		Columns: []string{"paper HMIPC", "measured HMIPC"},
	}}
	base := config.Baseline2D()
	for _, mix := range workload.Mixes {
		t.row(mix.Name, constant(mix.PaperHMIPC), r.mixCell(base, mix.Name, hmipc))
	}
	return t.collect()
}

// VBFProbes reproduces the Section 5.2 probe statistics: average MSHR
// probes per access (including the mandatory first access) on the H/VH
// mixes with the largest (8x) VBF MSHR.
func (r *Runner) VBFProbes() (*Figure, error) {
	t := &table{Figure: Figure{
		ID:      "VBF",
		Title:   "Section 5.2: VBF probes per MSHR access (paper: 2.31 dual-MC, 2.21 quad-MC)",
		Columns: []string{"probes/access"},
	}}
	probes := func(m Metrics) float64 { return m.ProbesPerAccess }
	t.row("dual-MC", r.meanCell(config.DualMC().WithMSHR(8, config.MSHRVBF, false), HighMixes(), probes))
	t.row("quad-MC", r.meanCell(config.QuadMC().WithMSHR(8, config.MSHRVBF, false), HighMixes(), probes))
	return t.collect()
}

// EnergyFigure quantifies the Section 4.2 power argument: dynamic DRAM
// energy per access as the row-buffer cache grows from 1 to 4 entries
// per bank (each hit avoids a full array activation), on the quad-MC
// organization over the H/VH mixes.
func (r *Runner) EnergyFigure() (*Figure, error) {
	t := &table{Figure: Figure{
		ID:      "Energy",
		Title:   "Section 4.2: dynamic DRAM energy per access vs row-buffer entries (quad-MC)",
		Columns: []string{"nJ/access", "row-hit rate"},
		Notes:   "(every row-buffer-cache hit avoids a full array activate+precharge)",
	}}
	for rb := 1; rb <= 4; rb++ {
		cfg := config.Aggressive(4, 16, rb)
		t.row(fmt.Sprintf("%d row buffer(s)", rb),
			r.meanCell(cfg, HighMixes(), func(m Metrics) float64 { return m.Energy.PerAccessNJ() }),
			r.meanCell(cfg, HighMixes(), func(m Metrics) float64 { return m.RowHitRate }))
	}
	return t.collect()
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
		Columns: powerthermal.SteadyColumns,
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
			cells[i] = r.mixCell(cfg, mix, func(m Metrics) float64 {
				return powerthermal.SteadyRow(cfg, m.Cycles, m.IPC, m.Energy, m.EnergyBacking)[i]
			})
		}
		t.row(cfg.Name, cells...)
	}
	return t.collect()
}

// ManycoreCoreCounts are the core counts the manycore experiment
// sweeps (each a perfect square, per the mesh).
var ManycoreCoreCounts = []int{16, 64, 256}

// ManycoreBenches are the workloads of the manycore sweep: the two
// coherence microbenchmarks that stress the directory (shared-data
// traffic) plus one private memory-bound benchmark from Table 2a that
// scales the MC/rank pressure the paper's 4-core sweeps measured.
var ManycoreBenches = []string{"read-mostly-shared", "producer-consumer", "mcf"}

// ManycoreFigure re-runs the paper's MC/rank-scaling and MSHR-capacity
// questions at 16, 64 and 256 cores on the coherent mesh machine: does
// quadrupling controllers/ranks still buy throughput when the cores
// outnumber the MCs 64:1, and how sensitive are the private L2s to
// their MSHR budget. Every core runs the same benchmark (HMIPC is
// reported) — the Table 2b mixes are 4-core artifacts.
func (r *Runner) ManycoreFigure() (*Figure, error) {
	t := &table{Figure: Figure{
		ID:      "Manycore",
		Title:   "Many-core scaling: HMIPC at 16/64/256 cores (private L2s, directory MESI, mesh NoC)",
		Columns: []string{"4mc/16rank", "16mc/64rank", "4mc/mshr-half"},
		Notes:   "(HMIPC; every core runs the row's benchmark — compare columns within a row, rows within a benchmark)",
	}}
	for _, n := range ManycoreCoreCounts {
		half := config.ManyCore(n, 4)
		half.PrivL2MSHRs /= 2
		half.Name += "-mshr" + fmt.Sprint(half.PrivL2MSHRs)
		for _, b := range ManycoreBenches {
			var cells []cell
			for _, c := range []*config.Config{config.ManyCore(n, 4), config.ManyCore(n, 16), half} {
				cells = append(cells, r.runCell(c, workload.Uniform(b, n), hmipc))
			}
			t.row(fmt.Sprintf("%s@%dc", b, n), cells...)
		}
	}
	return t.collect()
}

// CSV renders the figure as comma-separated values for spreadsheet
// import (EXPERIMENTS.md is generated from these).
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString(f.ID)
	for _, c := range f.Columns {
		b.WriteString(",")
		b.WriteString(csvEscape(c))
	}
	b.WriteString("\n")
	for _, row := range f.Rows {
		b.WriteString(csvEscape(row.Label))
		for _, v := range row.Values {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
