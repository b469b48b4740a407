package monitor

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stackedsim/internal/attrib"
	"stackedsim/internal/ledger"
	"stackedsim/internal/powerthermal"
	"stackedsim/internal/telemetry"
)

// testServer wires a Server to a small live registry plus attribution
// and progress sources, publishes one snapshot, and serves it.
func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	reg := telemetry.NewRegistry()
	reg.Counter("mc0.reads").Add(10)
	reg.Gauge("l2.mshr.occupancy").Set(3)
	reg.Distribution("mc0.queue.delay").Observe(7)

	col := attrib.NewCollector(reg, 1, 1, 1)
	tag := col.NewTag(100, 0)
	tag.EnterQueue(110, 0)
	tag.Sched(120, 0)
	tag.Data(150, true)
	col.Finish(tag, 160)

	s := &Server{
		Registry: reg,
		AttribFn: col.Breakdown,
		PowerThermalFn: func() *powerthermal.State {
			return &powerthermal.State{
				CPUPowerW:    79.5,
				DRAMPowerW:   11.5,
				TotalPowerW:  91,
				MaxDRAMTempC: 70.25,
				LimitC:       85,
				WithinLimit:  true,
				Layers: []powerthermal.Layer{
					{Name: "cpu", PowerW: 79.5, TempC: 68.5, PeakC: 68.5},
					{Name: "dram0", PowerW: 11.5, TempC: 70.25, PeakC: 70.25},
				},
			}
		},
		ProgressFn: func() Progress {
			return Progress{Queued: 1, Running: 2, Completed: 3, Failed: 0}
		},
	}
	s.Collect(5000)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	body, ctype := get(t, ts.URL+"/metrics")
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("content type %q is not Prometheus 0.0.4", ctype)
	}
	for _, want := range []string{
		"# TYPE stacksim_cycle gauge",
		"stacksim_cycle 5000",
		"# TYPE stacksim_mc0_reads counter",
		"stacksim_mc0_reads 10",
		"# TYPE stacksim_l2_mshr_occupancy gauge",
		"# TYPE stacksim_mc0_queue_delay summary",
		`stacksim_mc0_queue_delay{quantile="0.5"} 7`,
		"stacksim_mc0_queue_delay_count 1",
		"stacksim_attrib_requests 1",
		"# TYPE stacksim_runs_running gauge",
		"stacksim_runs_running 2",
		"# TYPE stacksim_runs_completed counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	_, ts := testServer(t)
	body, ctype := get(t, ts.URL+"/snapshot")
	if !strings.Contains(ctype, "application/json") {
		t.Fatalf("content type %q is not JSON", ctype)
	}
	var snap struct {
		Cycle         int64              `json:"cycle"`
		Metrics       map[string]float64 `json:"metrics"`
		Distributions []struct {
			Name  string `json:"name"`
			Count uint64 `json:"count"`
		} `json:"distributions"`
		Attribution *attrib.Breakdown `json:"attribution"`
		Progress    *Progress         `json:"progress"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot is not valid JSON: %v\n%s", err, body)
	}
	if snap.Cycle != 5000 {
		t.Fatalf("cycle = %d, want 5000", snap.Cycle)
	}
	if snap.Metrics["mc0.reads"] != 10 {
		t.Fatalf("metrics[mc0.reads] = %v, want 10", snap.Metrics["mc0.reads"])
	}
	if len(snap.Distributions) == 0 || snap.Distributions[0].Name != "mc0.queue.delay" {
		t.Fatalf("distributions = %+v", snap.Distributions)
	}
	if snap.Attribution == nil || snap.Attribution.Requests != 1 {
		t.Fatalf("attribution missing from snapshot: %+v", snap.Attribution)
	}
	if snap.Progress == nil || snap.Progress.Completed != 3 {
		t.Fatalf("progress missing from snapshot: %+v", snap.Progress)
	}
}

// TestSnapshotPowerThermal pins the power/thermal block of /snapshot:
// per-layer powers and temperatures with the limit verdict.
func TestSnapshotPowerThermal(t *testing.T) {
	_, ts := testServer(t)
	body, _ := get(t, ts.URL+"/snapshot")
	var snap struct {
		PowerThermal *powerthermal.State `json:"power_thermal"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	pt := snap.PowerThermal
	if pt == nil {
		t.Fatalf("/snapshot missing power_thermal block:\n%s", body)
	}
	if pt.CPUPowerW != 79.5 || pt.MaxDRAMTempC != 70.25 || !pt.WithinLimit {
		t.Fatalf("power_thermal block mangled: %+v", pt)
	}
	if len(pt.Layers) != 2 || pt.Layers[1].Name != "dram0" {
		t.Fatalf("layers mangled: %+v", pt.Layers)
	}
}

func TestHealthzCountsCollects(t *testing.T) {
	s, ts := testServer(t)
	var rep struct {
		Status   string `json:"status"`
		Collects int64  `json:"collects"`
	}
	body, _ := get(t, ts.URL+"/healthz")
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "ok" || rep.Collects != 1 {
		t.Fatalf("healthz = %q", body)
	}
	s.Collect(6000)
	body, _ = get(t, ts.URL+"/healthz")
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "ok" || rep.Collects != 2 {
		t.Fatalf("healthz after second collect = %q", body)
	}
}

// TestHealthzReadiness pins the structured readiness contract: a
// degraded check flips the overall status and the HTTP code to 503 (so
// `curl -fsS /healthz` is a working script gate). The check that goes
// degraded is the built-in one of an attached ledger whose index no
// longer parses; once the index is gone the store reads as empty and
// the report is 200 again.
func TestHealthzReadiness(t *testing.T) {
	s, ts := testServer(t)
	dir := t.TempDir()
	led, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Ledger = led
	index := filepath.Join(dir, "index.jsonl")
	if err := os.WriteFile(index, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz status = %d, want 503", resp.StatusCode)
	}
	var rep struct {
		Status string        `json:"status"`
		Checks []HealthCheck `json:"checks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "degraded" {
		t.Fatalf("overall status = %q, want degraded", rep.Status)
	}
	if len(rep.Checks) != 1 || rep.Checks[0].Name != "ledger" || rep.Checks[0].Status != "degraded" {
		t.Fatalf("checks = %+v", rep.Checks)
	}
	if err := os.Remove(index); err != nil {
		t.Fatal(err)
	}
	get(t, ts.URL+"/healthz") // asserts 200 when every check is ok
}

// TestSnapshotReflectsLatestCollect pins the swap semantics: handlers
// always see the most recent Collect, never a mix.
func TestSnapshotReflectsLatestCollect(t *testing.T) {
	s, ts := testServer(t)
	s.Registry.Counter("mc0.reads").Add(5)
	s.Collect(9000)
	body, _ := get(t, ts.URL+"/snapshot")
	if !strings.Contains(body, `"cycle": 9000`) {
		t.Fatalf("snapshot still serves the old collect:\n%s", body)
	}
	var snap jsonSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Metrics["mc0.reads"] != 15 {
		t.Fatalf("metrics[mc0.reads] = %v, want 15 after second collect", snap.Metrics["mc0.reads"])
	}
}

// TestStartServesRealListener exercises the production Start/Addr/Close
// path on an OS-assigned port.
func TestStartServesRealListener(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("evts").Inc()
	s := &Server{Registry: reg}
	s.Collect(1)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := s.Addr()
	if addr == "" {
		t.Fatal("Addr empty after Start")
	}
	body, _ := get(t, "http://"+addr+"/metrics")
	if !strings.Contains(body, "stacksim_evts 1") {
		t.Fatalf("live listener /metrics missing counter:\n%s", body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNilSourcesServeEmpty covers the experiments wiring: a Server with
// no registry (progress only) must still serve all endpoints.
func TestNilSourcesServeEmpty(t *testing.T) {
	s := &Server{ProgressFn: func() Progress { return Progress{Running: 4} }}
	s.Collect(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(body, "stacksim_runs_running 4") {
		t.Fatalf("progress-only /metrics missing runs gauge:\n%s", body)
	}
	body, _ = get(t, ts.URL+"/snapshot")
	if !strings.Contains(body, `"running": 4`) {
		t.Fatalf("progress-only /snapshot missing progress:\n%s", body)
	}
}

// TestSnapshotShowsRunReports pins the failed/slow-run surfacing: per-
// run reports supplied through Progress appear in /snapshot.
func TestSnapshotShowsRunReports(t *testing.T) {
	s := &Server{ProgressFn: func() Progress {
		return Progress{Completed: 1, Failed: 1, Runs: []RunReport{
			{Config: "3D-fast", Label: "H1", WallSeconds: 1.5},
			{Config: "3D-fast", Label: "H2", WallSeconds: 0.1, Err: "context canceled"},
		}}
	}}
	s.Collect(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := get(t, ts.URL+"/snapshot")
	var snap struct {
		Progress *Progress `json:"progress"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Progress == nil || len(snap.Progress.Runs) != 2 {
		t.Fatalf("snapshot runs = %+v", snap.Progress)
	}
	if snap.Progress.Runs[1].Err != "context canceled" {
		t.Fatalf("failed run not surfaced: %+v", snap.Progress.Runs[1])
	}
}

// TestShutdownGraceful pins that Shutdown stops the listener (new
// requests fail) and is safe both repeated and on a never-started
// server.
func TestShutdownGraceful(t *testing.T) {
	var idle Server
	if err := idle.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown of never-started server: %v", err)
	}
	s := &Server{}
	s.Collect(0)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	get(t, "http://"+addr+"/healthz")
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("listener still serving after Shutdown")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}
