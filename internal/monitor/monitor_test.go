package monitor

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stackedsim/internal/attrib"
	"stackedsim/internal/powerthermal"
	"stackedsim/internal/telemetry"
)

// testServer wires a Server to a small live registry plus attribution
// and power/thermal sources, publishes one snapshot, and serves it.
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

// TestNilSourcesServeEmpty: a Server with no registry and no sources
// still serves every endpoint, with only the cycle to report.
func TestNilSourcesServeEmpty(t *testing.T) {
	s := &Server{}
	s.Collect(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := get(t, ts.URL+"/metrics")
	if body != "# TYPE stacksim_cycle gauge\nstacksim_cycle 0\n" {
		t.Fatalf("empty /metrics = %q", body)
	}
	body, _ = get(t, ts.URL+"/snapshot")
	if !strings.Contains(body, `"cycle": 0`) || !strings.Contains(body, `"metrics": {}`) {
		t.Fatalf("empty /snapshot = %s", body)
	}
	get(t, ts.URL+"/dashboard")
	get(t, ts.URL+"/healthz")
}

// TestLedgerEndpointsWithoutLedger: the monitor is the view of one live
// run and serves no recorded runs (cmd/statsdiff -ledger-dir reads
// those), so the paths the run browser once had are not found.
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
			t.Fatalf("GET %s = %d, want 404", url, resp.StatusCode)
		}
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
