package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"stackedsim/internal/config"
	"stackedsim/internal/ledger"
	"stackedsim/internal/workload"
)

// TestLedgerParity pins the acceptance bit: a runner with a ledger
// attached produces Metrics bit-identical to one without — recording is
// purely an after-effect of the run.
func TestLedgerParity(t *testing.T) {
	mixes := []string{"H1", "VH1"}
	cfg := config.Fast3D()

	plain := NewRunner(1_000, 4_000)
	led, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	with := NewRunner(1_000, 4_000)
	with.Ledger = led
	with.Experiment = "parity"

	for _, mix := range mixes {
		a, err := plain.MixMetrics(cfg, mix)
		if err != nil {
			t.Fatal(err)
		}
		b, err := with.MixMetrics(cfg, mix)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: ledger-on and ledger-off Metrics differ:\n%+v\nvs\n%+v", mix, a, b)
		}
	}
	ms, err := led.Manifests()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(mixes) {
		t.Fatalf("ledger recorded %d runs, want %d", len(ms), len(mixes))
	}
	for _, m := range ms {
		if m.Config != cfg.Name || m.Experiment != "parity" || m.SimVersion != SimVersion {
			t.Fatalf("manifest provenance wrong: %+v", m)
		}
	}
}

// TestLedgerCacheHit pins the dedupe contract: a second runner over the
// same store recalls every (config, mix, seed) without simulating —
// Runs() stays 0, LedgerHits counts the recalls, and the recalled
// Metrics are bit-identical to the originals.
func TestLedgerCacheHit(t *testing.T) {
	dir := t.TempDir()
	mixes := []string{"H1", "M1"}
	cfg := config.Baseline2D()

	open := func() *Runner {
		led, err := ledger.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(1_000, 4_000)
		r.Ledger = led
		return r
	}

	cold := open()
	var progress strings.Builder
	warm := open()
	warm.Progress = &progress

	want := map[string]Metrics{}
	for _, mix := range mixes {
		m, err := cold.MixMetrics(cfg, mix)
		if err != nil {
			t.Fatal(err)
		}
		want[mix] = m
	}
	if cold.Runs() != uint64(len(mixes)) || cold.Status().LedgerHits != 0 {
		t.Fatalf("cold sweep: runs=%d hits=%d", cold.Runs(), cold.Status().LedgerHits)
	}

	for _, mix := range mixes {
		m, err := warm.MixMetrics(cfg, mix)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, want[mix]) {
			t.Fatalf("%s: recalled Metrics differ from simulated:\n%+v\nvs\n%+v", mix, m, want[mix])
		}
	}
	if warm.Runs() != uint64(len(mixes)) {
		t.Fatalf("warm sweep executed %d run functions, want %d", warm.Runs(), len(mixes))
	}
	if hits := warm.Status().LedgerHits; hits != int64(len(mixes)) {
		t.Fatalf("warm sweep ledger hits = %d, want %d", hits, len(mixes))
	}
	if !strings.Contains(progress.String(), "ledger") {
		t.Fatalf("progress should announce ledger hits, got:\n%s", progress.String())
	}
	// And the store still holds exactly one record per key.
	ms, err := warm.Ledger.Manifests()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(mixes) {
		t.Fatalf("store holds %d manifests, want %d", len(ms), len(mixes))
	}
}

// TestLedgerPutRetry pins the transient-write contract: a Put that
// keeps failing is retried with backoff, counted in LedgerWriteRetries,
// and never fails the run — the metrics still come back and the sweep
// continues.
func TestLedgerPutRetry(t *testing.T) {
	dir := t.TempDir()
	led, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(1_000, 4_000)
	r.Ledger = led
	var progress strings.Builder
	r.Progress = &progress

	// Break the store out from under the runner: runs/ becomes a file,
	// so every Put attempt fails at MkdirTemp.
	runs := filepath.Join(dir, "runs")
	if err := os.RemoveAll(runs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(runs, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := r.MixMetrics(config.Baseline2D(), "H1")
	if err != nil {
		t.Fatalf("run failed on ledger trouble: %v", err)
	}
	if m.Cycles == 0 {
		t.Fatal("run returned empty metrics")
	}
	if got := r.Status().LedgerWriteRetries; got != 2 {
		t.Fatalf("LedgerWriteRetries = %d, want 2 (3 attempts)", got)
	}
	if !strings.Contains(progress.String(), "ledger write failed") {
		t.Fatalf("progress should report the exhausted write, got:\n%s", progress.String())
	}
}

// TestRunIdentitySeedSensitivity: same config name with a different
// seed or window must not collide in the store.
func TestRunIdentitySeedSensitivity(t *testing.T) {
	a := config.Fast3D()
	b := config.Fast3D()
	b.Seed = a.Seed + 1
	idA, _, err := RunIdentity(a, []string{"mix:H1"})
	if err != nil {
		t.Fatal(err)
	}
	idB, _, _ := RunIdentity(b, []string{"mix:H1"})
	if idA == idB {
		t.Fatal("seed change did not change run identity")
	}
	c := a.Clone()
	c.MeasureCycles = a.MeasureCycles + 1
	idC, _, _ := RunIdentity(c, []string{"mix:H1"})
	if idA == idC {
		t.Fatal("window change did not change run identity")
	}
	idW, _, _ := RunIdentity(a, []string{"mix:H2"})
	if idA == idW {
		t.Fatal("workload change did not change run identity")
	}
}

// TestRunIDGoldens pins the content address of one run per workload
// role, captured before the Workload type owned the label spellings
// (window 50k+150k, seed 1, stackedsim-v8). A drift here orphans every
// recorded run and every farm job key; bump SimVersion and re-capture
// only when results really stopped being comparable.
func TestRunIDGoldens(t *testing.T) {
	table2a := config.Baseline2D()
	table2a.Cores = 1
	table2a.L2SizeKB = 6 * 1024
	table2a.Name = "2D-1core-6MB"
	vh1, err := workload.OfMix("VH1")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(50_000, 150_000)
	for _, c := range []struct {
		cfg  *config.Config
		w    workload.Workload
		want string
	}{
		{config.QuadMC(), vh1, "f5c6a041d1fd9e2e"},
		{table2a, workload.Single("mcf"), "72bc1d84c1b3b098"},
		{config.ManyCore(16, 4), workload.Uniform("producer-consumer", 16), "827d71d5ac2ab377"},
	} {
		id, _, err := RunIdentity(r.apply(c.cfg), c.w.Labels())
		if err != nil {
			t.Fatal(err)
		}
		if id != c.want {
			t.Errorf("%s %s: RunID %s, want %s", c.cfg.Name, c.w, id, c.want)
		}
	}
}
