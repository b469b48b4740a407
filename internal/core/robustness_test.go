package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"stackedsim/internal/config"
	"stackedsim/internal/fault"
	"stackedsim/internal/sim"
	"stackedsim/internal/workload"
)

// faultyConfig is a small machine with an always-on mixed fault
// scenario covering every injection point.
func faultyConfig() *config.Config {
	cfg := config.Baseline2D()
	cfg.WarmupCycles = 10_000
	cfg.MeasureCycles = 40_000
	cfg.Faults = &fault.Scenario{
		Name: "test-mixed",
		Faults: []fault.Spec{
			{Kind: fault.KindBitError, MC: -1, Prob: 0.05, UncorrectablePct: 0.1},
			{Kind: fault.KindRankStuck, MC: 0, Rank: 2, From: 5_000, Until: 20_000},
			{Kind: fault.KindTSVDegraded, MC: 0, From: 25_000, Until: 35_000},
			{Kind: fault.KindMCFlap, MC: 0, From: 12_000, Until: 30_000, Period: 1_000, Duty: 0.25},
			{Kind: fault.KindMSHRParity, Prob: 0.01},
		},
	}
	return cfg
}

// TestFaultScenarioDeterminism pins the tentpole guarantee: a fixed
// seed and scenario produce bit-identical results on every run.
func TestFaultScenarioDeterminism(t *testing.T) {
	run := func() (Metrics, uint64) {
		sys, err := NewSystem(faultyConfig(), []string{"mcf", "libquantum"})
		if err != nil {
			t.Fatal(err)
		}
		m := sys.Run()
		return m, sys.Digest()
	}
	m1, d1 := run()
	m2, d2 := run()
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("same seed+scenario diverged:\n%+v\nvs\n%+v", m1, m2)
	}
	if d1 != d2 {
		t.Fatalf("digests diverged: %#x vs %#x", d1, d2)
	}
	if m1.Faults.Total() == 0 {
		t.Fatal("scenario injected no faults — the test exercises nothing")
	}
}

// TestDisabledInjectorParity pins the other half: with injection
// disabled — no scenario, an empty one, or one whose windows never
// open — results are bit-identical to the fault-free baseline.
func TestDisabledInjectorParity(t *testing.T) {
	base := func() *config.Config {
		cfg := config.Baseline2D()
		cfg.WarmupCycles = 10_000
		cfg.MeasureCycles = 30_000
		return cfg
	}
	run := func(cfg *config.Config) Metrics {
		sys, err := NewSystem(cfg, []string{"mcf", "milc"})
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Faults.Active() && sys.Faults == nil {
			t.Fatal("active scenario did not construct an injector")
		}
		return sys.Run()
	}
	want := run(base())

	empty := base()
	empty.Faults = &fault.Scenario{Name: "empty"}
	if m := run(empty); !reflect.DeepEqual(m, want) {
		t.Fatalf("empty scenario diverged from baseline:\n%+v\nvs\n%+v", m, want)
	}

	// Armed injector whose every window opens long after the run ends:
	// the injection points are live but must change nothing.
	inert := base()
	inert.Faults = &fault.Scenario{Name: "inert", Faults: []fault.Spec{
		{Kind: fault.KindBitError, MC: -1, Prob: 1, From: 1 << 40},
		{Kind: fault.KindRankStuck, MC: 0, Rank: 0, From: 1 << 40},
		{Kind: fault.KindTSVDead, MC: 0, From: 1 << 40, Until: 1<<40 + 1},
		{Kind: fault.KindMCStall, MC: 0, From: 1 << 40},
		{Kind: fault.KindMSHRParity, Prob: 1, From: 1 << 40},
	}}
	m := run(inert)
	if m.Faults.Total() != 0 {
		t.Fatalf("inert scenario injected faults: %+v", m.Faults)
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("constructed-but-inert injector diverged from baseline:\n%+v\nvs\n%+v", m, want)
	}
}

// TestSlicedRunParity pins that a run cut into Engine.RunCtx slices,
// with the statistics reset at the warmup boundary (the way bench/ times
// its measured window), is the uninterrupted run: metrics and digest are
// bit-identical. Slice boundaries land on exact cycles even where the
// engine would jump an idle span whole, and the 16-core directory/mesh
// machine carries its in-flight protocol traffic across them.
func TestSlicedRunParity(t *testing.T) {
	mesi := config.ManyCore(16, 4)
	mesi.WarmupCycles, mesi.MeasureCycles = 2_000, 10_000
	idle := config.Baseline2D()
	idle.WarmupCycles, idle.MeasureCycles = 2_000, 28_000
	for _, tc := range []struct {
		name       string
		cfg        *config.Config
		benchmarks []string
		slice      int64
		skips      bool
	}{
		// faults on: the injected stream must not notice the slices
		{"2D+faults", faultyConfig(), []string{"mcf", "libquantum"}, 7_000, false},
		{"mesi16", mesi, workload.Uniform("producer-consumer", 16).Benchmarks(), 2_500, false},
		// a slice finer than the typical idle span splits spans
		{"2D-skipping", idle, []string{"mcf", "libquantum"}, 1_000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			whole, err := NewSystem(tc.cfg, tc.benchmarks)
			if err != nil {
				t.Fatal(err)
			}
			want := whole.Run()
			wantDigest := whole.Digest()

			sliced, err := NewSystem(tc.cfg, tc.benchmarks)
			if err != nil {
				t.Fatal(err)
			}
			runSlices := func(n int64) {
				for left := n; left > 0; {
					k := min(left, tc.slice)
					if _, err := sliced.Engine.RunCtx(context.Background(), sim.Cycle(k)); err != nil {
						t.Fatal(err)
					}
					left -= k
				}
			}
			runSlices(tc.cfg.WarmupCycles)
			sliced.ResetStats()
			runSlices(tc.cfg.MeasureCycles)
			got := sliced.Collect()
			if tc.skips && sliced.Engine.CyclesSkipped() == 0 {
				t.Fatal("workload produced no skipped cycles; the slices split no idle span")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sliced run diverged from uninterrupted:\n%+v\nvs\n%+v", got, want)
			}
			if d := sliced.Digest(); d != wantDigest {
				t.Fatalf("sliced digest %#x, uninterrupted %#x", d, wantDigest)
			}
		})
	}
}

// TestCutOffRunRerunParity pins how a cut-off run is finished: a fresh
// machine built from the same config and rerun from cycle zero reaches
// the uninterrupted run's metrics and digest, faults included, whatever
// the cancelled machine left behind.
func TestCutOffRunRerunParity(t *testing.T) {
	benchmarks := []string{"mcf", "libquantum"}
	cfg := faultyConfig()

	uninterrupted, err := NewSystem(cfg, benchmarks)
	if err != nil {
		t.Fatal(err)
	}
	want := uninterrupted.Run()
	wantDigest := uninterrupted.Digest()

	cut, err := NewSystem(cfg, benchmarks)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut.Engine.Schedule(27_001, cancel)
	if _, err := cut.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cut-off run returned %v, want Canceled", err)
	}
	if stopped, total := int64(cut.Engine.Now()), cfg.WarmupCycles+cfg.MeasureCycles; stopped >= total {
		t.Fatalf("run was not cut off (stopped at %d of %d)", stopped, total)
	}

	rerun, err := NewSystem(cfg, benchmarks)
	if err != nil {
		t.Fatal(err)
	}
	if got := rerun.Run(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rerun diverged from uninterrupted:\n%+v\nvs\n%+v", got, want)
	}
	if d := rerun.Digest(); d != wantDigest {
		t.Fatalf("rerun digest %#x, uninterrupted %#x", d, wantDigest)
	}
}

// TestCancelledRunMetricsCoverElapsedWindow pins the "partial, still
// well-formed" promise of a cut-off run: its Cycles, bus-utilization
// denominator and static-energy window are the cycles actually measured,
// not the configured window the run never finished. A completed run
// measures exactly MeasureCycles, so its metrics are unaffected.
func TestCancelledRunMetricsCoverElapsedWindow(t *testing.T) {
	cfg := config.Simple3D()
	cfg.WarmupCycles = 10_000
	cfg.MeasureCycles = 2_000_000
	sys, err := NewSystem(cfg, []string{"S.all", "libquantum", "wupwise", "mcf"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sys.Engine.Schedule(40_001, cancel)
	m, err := sys.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want Canceled", err)
	}
	elapsed := uint64(sys.Engine.Now()) - uint64(cfg.WarmupCycles)
	if elapsed == 0 || elapsed >= uint64(cfg.MeasureCycles) {
		t.Fatalf("run measured %d of %d cycles; it was not cut off mid-window", elapsed, cfg.MeasureCycles)
	}
	if m.Cycles != elapsed {
		t.Errorf("Cycles = %d, want the %d cycles actually measured", m.Cycles, elapsed)
	}
	var busy uint64
	for _, mc := range sys.MCs {
		busy += mc.Bus().Stats().BusyCycles
	}
	if want := float64(busy) / float64(elapsed*uint64(len(sys.MCs))); m.BusUtilization != want || want > 1 || want < 0.1 {
		t.Errorf("BusUtilization = %v, want %v (busy cycles over the elapsed window, a saturated bus)", m.BusUtilization, want)
	}
	full, _ := sys.machine.Energy(cfg.MeasureCycles)
	if m.Energy.StaticUJ <= 0 || m.Energy.StaticUJ >= full.StaticUJ/10 {
		t.Errorf("static energy %v uJ covers more than the elapsed window (full window: %v uJ)", m.Energy.StaticUJ, full.StaticUJ)
	}
}

// TestRunnerCancellation pins that a cancelled sweep drains fast with
// partial results: memoized successes stay, unfinished keys fail with
// the context error, and the reports account for every run.
func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := NewRunner(2_000, 5_000)
	r.Workers = 2
	r.Ctx = ctx

	base := config.Baseline2D()
	if _, err := r.MixMetrics(base, "H1"); err != nil {
		t.Fatal(err)
	}
	cancel()
	start := time.Now()
	if _, err := r.MixMetrics(base, "H2"); !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel run returned %v, want Canceled", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("cancelled run took %v, want fast return", wall)
	}
	// The memoized pre-cancel result is still served.
	if _, err := r.MixMetrics(base, "H1"); err != nil {
		t.Fatalf("memoized result lost after cancel: %v", err)
	}
	st := r.Status()
	if ok, failed := countReports(st.Reports); ok != 1 || failed != 1 {
		t.Fatalf("reports %+v: %d ok / %d failed, want 1 / 1", st.Reports, ok, failed)
	}
	var failed *RunReport
	for i := range st.Reports {
		if st.Reports[i].Err != nil {
			failed = &st.Reports[i]
		}
	}
	if failed == nil || failed.Label != "H2" {
		t.Fatalf("reports %+v do not surface the failed H2 run", st.Reports)
	}
}

// TestRunnerPanicIsolation pins that a panicking run fails only its own
// key, with the stack in the error, while sibling runs complete.
func TestRunnerPanicIsolation(t *testing.T) {
	r := NewRunner(1_000, 2_000)
	r.Workers = 2
	r.simulate = func(ctx context.Context, cfg *config.Config, w workload.Workload) (Metrics, error) {
		if w.String() == "H2" {
			panic("injected test panic")
		}
		return RunWorkload(ctx, cfg, w)
	}
	h2, err := workload.OfMix("H2")
	if err != nil {
		t.Fatal(err)
	}
	boom := r.start(config.Baseline2D(), h2)
	<-boom.done
	if boom.err == nil || !strings.Contains(boom.err.Error(), "injected test panic") {
		t.Fatalf("panic not converted to error: %v", boom.err)
	}
	if !strings.Contains(boom.err.Error(), "robustness_test.go") {
		t.Fatalf("panic error carries no stack: %v", boom.err)
	}
	// The pool survives: a normal run on the same runner still works.
	if _, err := r.MixMetrics(config.Baseline2D(), "H1"); err != nil {
		t.Fatalf("runner broken after panic: %v", err)
	}
	st := r.Status()
	if ok, failed := countReports(st.Reports); ok != 1 || failed != 1 {
		t.Fatalf("reports %+v: %d ok / %d failed, want 1 / 1", st.Reports, ok, failed)
	}
}

// countReports counts the runs that completed and the runs that failed.
func countReports(reports []RunReport) (ok, failed int) {
	for _, rep := range reports {
		if rep.Err != nil {
			failed++
		} else {
			ok++
		}
	}
	return ok, failed
}

// TestRunnerRunTimeout pins the per-run deadline: a run that cannot
// finish inside RunTimeout fails with DeadlineExceeded on its own.
func TestRunnerRunTimeout(t *testing.T) {
	r := NewRunner(100_000, 10_000_000) // far too long for a nanosecond budget
	r.RunTimeout = time.Nanosecond
	if _, err := r.MixMetrics(config.Baseline2D(), "H1"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run returned %v, want DeadlineExceeded", err)
	}
}

// TestRunnerMemoKeyNamesOneMachine pins that the runner's memo key — a
// config's name and the workload's labels — names one machine: asking
// again with the same config shares the run, and asking with a
// different config under the same name panics, naming the key.
func TestRunnerMemoKeyNamesOneMachine(t *testing.T) {
	r := NewRunner(1_000, 2_000)
	r.simulate = func(context.Context, *config.Config, workload.Workload) (Metrics, error) { return Metrics{}, nil }
	h1, err := workload.OfMix("H1")
	if err != nil {
		t.Fatal(err)
	}
	first := r.start(config.Fast3D(), h1)
	if again := r.start(config.Fast3D(), h1); again != first {
		t.Fatal("the same config under the same key did not share its run")
	}
	<-first.done
	bigger := config.Fast3D()
	bigger.L2SizeKB *= 2
	defer func() {
		p := recover()
		if msg, _ := p.(string); !strings.Contains(msg, `"3D-fast mix:H1"`) {
			t.Fatalf("a second config named 3D-fast: recovered %v, want a panic naming the key", p)
		}
	}()
	r.start(bigger, h1)
}
