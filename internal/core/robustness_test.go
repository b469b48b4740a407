package core

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"stackedsim/internal/config"
	"stackedsim/internal/fault"
	"stackedsim/internal/power"
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

// TestCheckpointResumeParity interrupts a run mid-measure, resumes it
// from the checkpoint in a fresh system, and requires the result to be
// bit-identical to an uninterrupted run.
func TestCheckpointResumeParity(t *testing.T) {
	benchmarks := []string{"mcf", "libquantum"}
	cfg := faultyConfig() // faults on, so the fault stream must survive resume too

	uninterrupted, err := NewSystem(cfg, benchmarks)
	if err != nil {
		t.Fatal(err)
	}
	want := uninterrupted.Run()
	wantDigest := uninterrupted.Digest()

	path := filepath.Join(t.TempDir(), "run.ckpt")
	interrupted, err := NewSystem(cfg, benchmarks)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel from inside the simulation partway through the measured
	// window; the cancelled RunCheckpointed emits a final checkpoint, and
	// the sink writes each one over the last, as stacksim -checkpoint does.
	toFile := func(c *Checkpoint) error { return c.Write(path) }
	ctx, cancel := context.WithCancel(context.Background())
	interrupted.Engine.Schedule(27_001, cancel)
	if _, err := interrupted.RunCheckpointed(ctx, CheckpointPlan{Every: 7_000, Sink: toFile}); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want Canceled", err)
	}
	stopped := int64(interrupted.Engine.Now())
	if total := cfg.WarmupCycles + cfg.MeasureCycles; stopped >= total {
		t.Fatalf("run was not interrupted (stopped at %d of %d)", stopped, total)
	}

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Cycle != stopped {
		t.Fatalf("checkpoint at cycle %d, run stopped at %d", cp.Cycle, stopped)
	}
	resumed, err := NewSystemFromCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.RunCheckpointed(context.Background(), CheckpointPlan{Every: 7_000, From: cp, Sink: toFile})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed run diverged from uninterrupted:\n%+v\nvs\n%+v", got, want)
	}
	if d := resumed.Digest(); d != wantDigest {
		t.Fatalf("resumed digest %#x, uninterrupted %#x", d, wantDigest)
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
	full := power.Account(sys.dramParams(), sys.dramActivity(), cfg.MeasureCycles, cfg.CPUMHz)
	if m.Energy.StaticUJ <= 0 || m.Energy.StaticUJ >= full.StaticUJ/10 {
		t.Errorf("static energy %v uJ covers more than the elapsed window (full window: %v uJ)", m.Energy.StaticUJ, full.StaticUJ)
	}
}

// TestCheckpointSinkFromParity pins the fileless wire path a sim farm
// uses: checkpoints delivered through Sink, serialized, and resumed
// through From must reproduce an uninterrupted run bit-for-bit — no
// file ever touches disk. The 16-core row is the directory/mesh machine:
// its private L2s, directory banks and mesh replay to the same digest.
func TestCheckpointSinkFromParity(t *testing.T) {
	mesi := config.ManyCore(16, 4)
	mesi.WarmupCycles = 2_000
	mesi.MeasureCycles = 10_000
	for _, tc := range []struct {
		name       string
		cfg        *config.Config
		benchmarks []string
		cut, every int64
	}{
		// faults on: the injected stream must survive too
		{"2D+faults", faultyConfig(), []string{"mcf", "libquantum"}, 27_001, 7_000},
		{"mesi16", mesi, workload.Uniform("producer-consumer", 16).Benchmarks(), 6_501, 2_500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			uninterrupted, err := NewSystem(tc.cfg, tc.benchmarks)
			if err != nil {
				t.Fatal(err)
			}
			want := uninterrupted.Run()
			wantDigest := uninterrupted.Digest()

			interrupted, err := NewSystem(tc.cfg, tc.benchmarks)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			interrupted.Engine.Schedule(sim.Cycle(tc.cut), cancel)
			var last *Checkpoint
			_, runErr := interrupted.RunCheckpointed(ctx, CheckpointPlan{Every: tc.every, Sink: func(c *Checkpoint) error { last = c; return nil }})
			if !errors.Is(runErr, context.Canceled) {
				t.Fatalf("interrupted run returned %v, want Canceled", runErr)
			}
			if last == nil {
				t.Fatal("sink received no checkpoint")
			}
			if stopped := int64(interrupted.Engine.Now()); last.Cycle != stopped || stopped >= tc.cfg.WarmupCycles+tc.cfg.MeasureCycles {
				t.Fatalf("final sink checkpoint at cycle %d, run stopped at %d of %d", last.Cycle, stopped, tc.cfg.WarmupCycles+tc.cfg.MeasureCycles)
			}

			// Round-trip through JSON: the form a coordinator stores and a
			// successor worker receives in its lease.
			raw, err := json.Marshal(last)
			if err != nil {
				t.Fatal(err)
			}
			var from Checkpoint
			if err := json.Unmarshal(raw, &from); err != nil {
				t.Fatal(err)
			}
			resumed, err := NewSystemFromCheckpoint(&from)
			if err != nil {
				t.Fatal(err)
			}
			got, err := resumed.RunCheckpointed(context.Background(), CheckpointPlan{Every: tc.every, From: &from})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("From-resumed run diverged from uninterrupted:\n%+v\nvs\n%+v", got, want)
			}
			if d := resumed.Digest(); d != wantDigest {
				t.Fatalf("From-resumed digest %#x, uninterrupted %#x", d, wantDigest)
			}
		})
	}
}

// TestCheckpointDigestMismatch pins that resume refuses a checkpoint
// whose recorded digest the replay cannot reproduce.
func TestCheckpointDigestMismatch(t *testing.T) {
	cfg := config.Baseline2D()
	cfg.WarmupCycles = 5_000
	cfg.MeasureCycles = 20_000
	sys, err := NewSystem(cfg, []string{"mcf"})
	if err != nil {
		t.Fatal(err)
	}
	sys.Engine.Run(12_000)
	cp := sys.Checkpoint()
	cp.Digest ^= 1 // corrupt
	fresh, err := NewSystemFromCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fresh.RunCheckpointed(context.Background(), CheckpointPlan{From: cp})
	if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("resume with corrupt digest returned %v, want digest mismatch", err)
	}
}

// TestCheckpointLoadErrors pins the failure messages for unusable
// checkpoint files.
func TestCheckpointLoadErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if _, err := LoadCheckpoint(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("missing checkpoint loaded")
	}
	if _, err := LoadCheckpoint(write("empty.ckpt", "")); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty checkpoint: %v", err)
	}
	if _, err := LoadCheckpoint(write("trunc.ckpt", `{"version":1,"cycle":`)); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("truncated checkpoint: %v", err)
	}
	if _, err := LoadCheckpoint(write("vers.ckpt", `{"version":99}`)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version checkpoint: %v", err)
	}
}

// TestRunnerCancellation pins that a cancelled sweep drains fast with
// partial results: memoized successes stay, unfinished keys fail with
// the context error, and the counters account for every run.
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
	if st.Completed != 1 || st.Failed != 1 {
		t.Fatalf("status = %+v, want 1 completed / 1 failed", st)
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
	r.Farm = panicOnH2{}
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
	if st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("status = %+v, want 1 failed / 1 completed", st)
	}
}

// panicOnH2 is a farm backend that panics on mix H2 and simulates every
// other cell in-process.
type panicOnH2 struct{}

func (panicOnH2) Run(ctx context.Context, cfg *config.Config, labels []string) (Metrics, error) {
	if labels[0] == "mix:H2" {
		panic("injected test panic")
	}
	w, err := workload.ParseLabels(labels)
	if err != nil {
		return Metrics{}, err
	}
	return RunWorkload(ctx, cfg, w)
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
