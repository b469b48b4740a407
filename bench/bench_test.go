package main

import (
	"math"
	"regexp"
	"testing"
	"time"

	"stackedsim/internal/config"
	"stackedsim/internal/core"
	"stackedsim/internal/sim"
	"stackedsim/internal/workload"
)

// testLog sends the harness's failure reports to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}

// tinyHarness is the real suite at windows small enough for tier-1:
// every code path of the benchmark, none of its statistical weight.
// The coherent workloads shrink to a 16-core mesh as well: with 64
// producer-consumer cores some commit nothing for 40k cycles, which is
// a failed operation, and the full 260k-cycle window takes seconds.
func tinyHarness(t *testing.T) *harness {
	t.Helper()
	logOut = testLog{t}
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	suite := append([]benchWorkload(nil), workloads...)
	for i := range suite {
		w := &suite[i]
		switch w.name {
		case "idle1":
			w.warmup, w.measure, w.slice = 0, 60_000, 20_000
		case "sat4":
			w.warmup, w.measure, w.slice = 1_000, 4_000, 2_000
		case "fig4": // 48 runs
			w.warmup, w.measure = 500, 2_000
		default:
			w.warmup, w.measure, w.slice = 2_000, 20_000, 10_000
			w.base = func() *config.Config { return config.ManyCore(16, 4) }
			w.specs = w.specs[:16]
		}
	}
	return &harness{spec: spec, suite: suite, seed: 1, log: newSpanLog(), size: sizing{
		reps: 1, setupBuilds: 1, driveFor: 3 * time.Millisecond, obsCycles: 2_000, obsReps: 1,
	}}
}

// TestSmoke runs every workload timed and traced, every layer drive
// and every observer variant, and holds the emitted metrics against
// BENCHMARK.json: each declared name exactly once, nothing undeclared.
func TestSmoke(t *testing.T) {
	h := tinyHarness(t)
	shared := runDrives(h.seed, h.size.driveFor)
	shared.merge(h.observerCost())
	for i := range h.suite {
		w := &h.suite[i]
		set := h.timedSets([]*benchWorkload{w})[0]
		if err := h.err(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		e2e := medians(set.endToEnd(h.spec))
		if err := conform(h.spec.EndToEnd, e2e); err != nil {
			t.Errorf("%s end to end: %v", w.name, err)
		}
		for name, v := range e2e {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s %s = %v, want finite and positive", w.name, name, v)
			}
		}
		layer := h.traceWorkload(w, &set.reps[0], set.reps[0].runWall())
		if err := h.err(); err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		layer.merge(shared)
		if err := conform(h.spec.PerLayer, layer); err != nil {
			t.Errorf("%s per layer: %v", w.name, err)
		}
		for name, v := range layer {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s %s = %v", w.name, name, v)
			}
		}
	}
}

// TestSpecIsWellFormed holds BENCHMARK.json to the limits its readers
// set: names and units from the allowed alphabets, each name once, a
// bound on every end-to-end metric and none above a quarter, setup_s
// present, and the suite's workloads by exactly the declared names.
func TestSpecIsWellFormed(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range spec.Workloads {
		check(w.Name)
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d is declared as %q, the suite has %v", i, w.Name, workloads)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, the suite has %d", len(spec.Workloads), len(workloads))
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

// TestTickGroupsCoverEveryHandle pins the registration order the tick
// shares rest on, for the 4-core, 1-core and 64-core machines.
func TestTickGroupsCoverEveryHandle(t *testing.T) {
	h := &harness{suite: workloads}
	for _, name := range []string{"sat4", "idle1", "mesi64-wr"} {
		m, err := h.workload(name).build(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		sys := m.(*systemMachine).sys
		sys.Engine.Run(sim.Cycle(2_000))
		byLayer, err := ticksByLayer(sys)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sum uint64
		for _, n := range byLayer {
			sum += n
		}
		if sum != sys.Engine.TicksDelivered() || sum == 0 {
			t.Errorf("%s: groups hold %d ticks, engine delivered %d", name, sum, sys.Engine.TicksDelivered())
		}
		if byLayer["cpu"] == 0 || byLayer["memctrl"] == 0 {
			t.Errorf("%s: cpu %d and memctrl %d ticks; a busy machine ticks both", name, byLayer["cpu"], byLayer["memctrl"])
		}
	}
}

// TestWorkloadsAreTheMachinesUsersRun pins the two places where the
// harness rebuilds what a core entry point builds, so that it can pass
// the seed and wrap the sources: at seed 1 they must agree exactly.
func TestWorkloadsAreTheMachinesUsersRun(t *testing.T) {
	h := tinyHarness(t)

	sat4 := h.workload("sat4")
	m, err := sat4.build(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.run(nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	mix, _ := workload.MixByName("VH1")
	cfg := sat4.base()
	cfg.WarmupCycles, cfg.MeasureCycles = sat4.warmup, sat4.measure
	sys, err := core.NewSystem(cfg, mix.Benchmarks[:])
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if got.digest != sys.Digest() {
		t.Errorf("sat4 digest %016x, core.NewSystem on VH1 gives %016x", got.digest, sys.Digest())
	}

	fig4 := h.workload("fig4")
	fig, err := newFig4Machine(1, fig4.warmup, fig4.measure).figure(func() {})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NewRunner(fig4.warmup, fig4.measure).Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if fig.CSV() != want.CSV() {
		t.Errorf("fig4 differs from core.Runner.Figure4:\n%s\n%s", fig.CSV(), want.CSV())
	}
}

// TestQuartilesMatchPython: statistics.quantiles(v, n=4) of these ten
// values is [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{3}); q1 != 3 || med != 3 || q3 != 3 {
		t.Errorf("quartiles of one sample = %v %v %v", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	rate := metricSpec{Name: "sim_cycles_per_s", Better: "higher", Bound: 0.10}
	heap := metricSpec{Name: "live_heap_mb", Better: "lower", Bound: 0.10}
	sum := func(v ...float64) summary { return summarize("", v) }
	for _, c := range []struct {
		m        metricSpec
		old, cur summary
		want     string
	}{
		{rate, sum(100, 101, 102), sum(99, 101, 103), "within-bound"},
		{rate, sum(100, 101, 102), sum(80, 81, 82), "worse"},
		{rate, sum(100, 101, 102), sum(110, 111, 112), "better"},
		{rate, sum(80, 100, 120), sum(70, 85, 100), "unresolved"},
		{rate, sum(80, 100, 120), sum(130, 150, 170), "better"}, // wide, but every run wins
		{heap, sum(10), sum(12), "worse"},
		{heap, sum(10), sum(9.99), "better"},
		{heap, sum(10), sum(10), "within-bound"},
	} {
		if got := verdict(c.m, c.old, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: verdict %q, want %q", c.m.Name, c.old.Samples, c.cur.Samples, got, c.want)
		}
	}
}
