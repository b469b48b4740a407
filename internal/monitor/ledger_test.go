package monitor

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stackedsim/internal/ledger"
)

// ledgerFixture builds a deterministic two-run store: a baseline and a
// candidate with one regressed metric, with the baseline pinned under
// the "blessed" tag. Record contents are fixed so the endpoint goldens
// are stable; the metrics the endpoints serve are derived from each
// record's summary.
func ledgerFixture(t *testing.T) (*ledger.Ledger, string, string) {
	t.Helper()
	l, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type cfg struct {
		Name string
		Seed int64
	}
	mk := func(name string, seed int64, hmipc float64) string {
		id, digest, err := ledger.RunID(cfg{name, seed}, []string{"mix:VH1"}, "golden-v1")
		if err != nil {
			t.Fatal(err)
		}
		rec := &ledger.Record{
			Manifest: ledger.Manifest{
				ID: id, ConfigDigest: digest, Config: name,
				Workload: []string{"mix:VH1"}, Seed: seed, Experiment: "golden",
				SimVersion: "golden-v1", StartedAt: "2026-08-08T00:00:00Z",
				WallSeconds: 2.5, Cycles: 600000,
			},
			Summary: []byte(fmt.Sprintf(`{"Config":%q,"HMIPC":%g,"MPKI":[5.25],"Energy":{"ReadUJ":91.5}}`, name, hmipc)),
		}
		if _, err := l.Put(rec); err != nil {
			t.Fatal(err)
		}
		return id
	}
	baseID := mk("quadMC", 1, 1.25)
	candID := mk("quadMC", 2, 1.10) // 12% below baseline: a breach at 5%
	if err := l.Tag("blessed", baseID); err != nil {
		t.Fatal(err)
	}
	return l, baseID, candID
}

func ledgerServer(t *testing.T) (*Server, *httptest.Server, string, string) {
	t.Helper()
	l, baseID, candID := ledgerFixture(t)
	s := &Server{Ledger: l}
	s.Collect(0)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, baseID, candID
}

// checkGolden compares got against the named golden file (run with
// -update to rewrite). Run IDs are content-derived and fixed, so the
// bodies are byte-stable.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("response drifted from golden %s.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestRunsEndpointGolden(t *testing.T) {
	_, ts, _, _ := ledgerServer(t)
	body, ctype := get(t, ts.URL+"/runs")
	if !strings.Contains(ctype, "application/json") {
		t.Fatalf("content type %q", ctype)
	}
	checkGolden(t, "runs_golden.json", body)
}

func TestRunsEndpointFilters(t *testing.T) {
	_, ts, baseID, _ := ledgerServer(t)
	var out struct {
		Runs []ledger.Manifest `json:"runs"`
	}
	body, _ := get(t, ts.URL+"/runs?experiment=golden")
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Runs) != 2 {
		t.Fatalf("experiment filter: %d runs, want 2", len(out.Runs))
	}
	body, _ = get(t, ts.URL+"/runs?digest="+baseID)
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Runs) != 1 || out.Runs[0].ID != baseID {
		t.Fatalf("digest filter: %+v", out.Runs)
	}
	body, _ = get(t, ts.URL+"/runs?experiment=none")
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Runs) != 0 {
		t.Fatalf("non-matching filter returned runs: %+v", out.Runs)
	}
}

func TestRunEndpointGolden(t *testing.T) {
	_, ts, baseID, _ := ledgerServer(t)
	body, _ := get(t, ts.URL+"/runs/"+baseID)
	checkGolden(t, "run_golden.json", body)
	// Tag and "latest" refs resolve through the same endpoint.
	tagged, _ := get(t, ts.URL+"/runs/blessed")
	if tagged != body {
		t.Fatal("tag ref served a different record than its run ID")
	}
	if resp, err := http.Get(ts.URL + "/runs/no-such-run"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown run = %d, want 404", resp.StatusCode)
		}
	}
}

func TestCompareEndpointGolden(t *testing.T) {
	_, ts, _, _ := ledgerServer(t)
	body, _ := get(t, ts.URL+"/compare?a=latest&b=blessed&threshold=0.05")
	checkGolden(t, "compare_golden.json", body)
	var out struct {
		Breaches int `json:"breaches"`
		Deltas   []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"deltas"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Breaches != 1 {
		t.Fatalf("breaches = %d, want 1 (hmipc regressed 12%%)", out.Breaches)
	}
	for _, d := range out.Deltas {
		if d.Name == "hmipc" && d.Kind != "breach" {
			t.Fatalf("hmipc kind = %s, want breach", d.Kind)
		}
	}
}

func TestCompareHTMLHighlights(t *testing.T) {
	_, ts, _, _ := ledgerServer(t)
	body, ctype := get(t, ts.URL+"/compare?a=latest&b=blessed&format=html")
	if !strings.Contains(ctype, "text/html") {
		t.Fatalf("content type %q", ctype)
	}
	if !strings.Contains(body, `class="breach"`) {
		t.Fatalf("breach row not highlighted:\n%s", body)
	}
	if !strings.Contains(body, "hmipc") {
		t.Fatal("metric names missing from HTML table")
	}
}

func TestCompareEndpointErrors(t *testing.T) {
	_, ts, _, _ := ledgerServer(t)
	for url, want := range map[string]int{
		"/compare":                                http.StatusBadRequest,
		"/compare?a=latest":                       http.StatusBadRequest,
		"/compare?a=latest&b=nope":                http.StatusNotFound,
		"/compare?a=latest&b=blessed&threshold=x": http.StatusBadRequest,
		// NaN and Inf parse, but no change would ever exceed them.
		"/compare?a=latest&b=blessed&threshold=NaN": http.StatusBadRequest,
		"/compare?a=latest&b=blessed&threshold=Inf": http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", url, resp.StatusCode, want)
		}
	}
}

func TestLedgerEndpointsWithoutLedger(t *testing.T) {
	s := &Server{}
	s.Collect(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, url := range []string{"/runs", "/runs/abc", "/compare?a=x&b=y"} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s without ledger = %d, want 404", url, resp.StatusCode)
		}
	}
}
