package core

import (
	"reflect"
	"sync"
	"testing"

	"stackedsim/internal/config"
	"stackedsim/internal/workload"
)

// TestParallelSequentialParity pins the tentpole determinism guarantee:
// a parallel sweep (-j > 1) and a sequential one (-j 1) produce
// identical Metrics for every (config, mix) pair, and byte-identical
// figure tables.
func TestParallelSequentialParity(t *testing.T) {
	configs := []*config.Config{config.Baseline2D(), config.Fast3D()}
	mixes := []string{"H1", "M1", "VH1"}

	seq := NewRunner(2_000, 8_000)
	seq.Workers = 1
	par := NewRunner(2_000, 8_000)
	par.Workers = 8
	for _, c := range configs {
		par.Prefetch(c, mixes...)
	}
	for _, c := range configs {
		for _, mix := range mixes {
			a, err := seq.MixMetrics(c, mix)
			if err != nil {
				t.Fatal(err)
			}
			b, err := par.MixMetrics(c, mix)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s/%s: sequential and parallel Metrics differ:\n%+v\nvs\n%+v", c.Name, mix, a, b)
			}
		}
	}
	if got := par.Runs(); got != uint64(len(configs)*len(mixes)) {
		t.Fatalf("parallel runner executed %d runs, want %d (single-flight dedup broken)", got, len(configs)*len(mixes))
	}
}

// TestParallelFigureByteParity renders the same figure from a -j 1 and
// a parallel runner and compares the rendered tables byte for byte.
func TestParallelFigureByteParity(t *testing.T) {
	render := func(workers int) string {
		r := NewRunner(2_000, 6_000)
		r.Workers = workers
		f, err := r.Figure4()
		if err != nil {
			t.Fatal(err)
		}
		return f.Render("%.4f") + f.CSV()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("figure tables differ between -j 1 and -j 8:\n%s\nvs\n%s", seq, par)
	}
}

// TestRunnerConcurrentCallers hammers one Runner from many goroutines
// over overlapping keys; run under -race (scripts/verify.sh does) this
// enforces that MixMetrics/Metrics/Speedup/GMSpeedup are safe to
// call concurrently, and the result comparison enforces single-flight
// consistency.
func TestRunnerConcurrentCallers(t *testing.T) {
	r := NewRunner(1_000, 4_000)
	base := config.Baseline2D()
	cfg := config.Fast3D()
	mixes := []string{"H1", "M1"}

	const callers = 8
	type result struct {
		m   Metrics
		gm  float64
		sp  float64
		sgl Metrics
	}
	results := make([]result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var res result
			var err error
			if res.m, err = r.MixMetrics(cfg, "H1"); err != nil {
				errs[i] = err
				return
			}
			if res.gm, err = r.GMSpeedup(base, cfg, mixes); err != nil {
				errs[i] = err
				return
			}
			if res.sp, err = r.Speedup(base, cfg, "M1"); err != nil {
				errs[i] = err
				return
			}
			if res.sgl, err = r.Metrics(base, workload.Single("mcf")); err != nil {
				errs[i] = err
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("caller %d observed different results than caller 0", i)
		}
	}
	// 2 configs x 2 mixes + 1 single run, regardless of caller count.
	if got := r.Runs(); got != 5 {
		t.Fatalf("executed %d runs, want 5 (single-flight dedup broken)", got)
	}
}

// TestRunnerChildSharesPool checks nested runners reuse the parent's
// worker slots and produce the same results as standalone ones.
func TestRunnerChildSharesPool(t *testing.T) {
	parent := NewRunner(2_000, 8_000)
	parent.Workers = 2
	child := parent.child(1_000, 4_000)
	standalone := NewRunner(1_000, 4_000)
	a, err := child.MixMetrics(config.Fast3D(), "M1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := standalone.MixMetrics(config.Fast3D(), "M1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("child runner produced different metrics than a standalone runner")
	}
}
