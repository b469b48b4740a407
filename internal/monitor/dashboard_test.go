package monitor_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"stackedsim/internal/config"
	"stackedsim/internal/core"
	"stackedsim/internal/monitor"
	"stackedsim/internal/telemetry"
)

// TestDashboardReadsSnapshot pins the data contract between the
// dashboard page and /snapshot on a real watched run: every metric name
// and JSON key the page's script reads is served, non-zero where a
// plotted signal cannot be zero, and the page spells each one as the
// snapshot does. A metric renamed in its component, or a key renamed in
// the page, leaves a chart silently empty; this test is what notices.
func TestDashboardReadsSnapshot(t *testing.T) {
	cfg := config.QuadMC()
	cfg.WarmupCycles = 2_000
	cfg.MeasureCycles = 10_000
	sys, err := core.NewSystem(cfg, []string{"S.all", "mcf", "S.copy", "milc"})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(telemetry.Options{Dir: t.TempDir(), SampleEvery: 1_000})
	pt := sys.AttachPowerThermal(tel.Reg(), 1_000)
	sys.AttachTelemetry(tel)
	srv := &monitor.Server{
		Registry:       tel.Reg(),
		PowerThermalFn: pt.State,
		// A sweep's server reports progress; ledger_hits is omitted
		// when zero, so serve one hit for the key to appear.
		ProgressFn: func() monitor.Progress { return monitor.Progress{Completed: 1, LedgerHits: 1} },
	}
	sys.Observe(1_000, srv)
	sys.Run()

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var snap map[string]any
	if err := json.Unmarshal([]byte(fetch(t, ts.URL+"/snapshot")), &snap); err != nil {
		t.Fatal(err)
	}
	page := fetch(t, ts.URL+"/dashboard")
	metrics, _ := snap["metrics"].(map[string]any)

	// Each value the script reads, as the script spells the read, and
	// where /snapshot holds it.
	for _, r := range []struct {
		page    string
		path    []string
		nonZero bool
	}{
		{"fetch(\"/snapshot\"", nil, false},
		{"d.cycle", []string{"cycle"}, true},
		{"d.metrics", []string{"metrics"}, false},
		{`m["engine.cycles_skipped"]`, []string{"metrics", "engine.cycles_skipped"}, true},
		{`m["power.total.w"]`, []string{"metrics", "power.total.w"}, true},
		{`m["thermal.max_dram.c"]`, []string{"metrics", "thermal.max_dram.c"}, true},
		{"d.power_thermal", []string{"power_thermal"}, false},
		{"pt.total_power_w", []string{"power_thermal", "total_power_w"}, true},
		{"pt.max_dram_temp_c", []string{"power_thermal", "max_dram_temp_c"}, true},
		{"d.progress.ledger_hits", []string{"progress", "ledger_hits"}, true},
	} {
		if !strings.Contains(page, r.page) {
			t.Errorf("the page does not read %s", r.page)
		}
		if r.path == nil {
			continue
		}
		v, ok := lookup(snap, r.path)
		if !ok {
			t.Errorf("/snapshot has no %s, which the page reads as %s", strings.Join(r.path, "."), r.page)
			continue
		}
		if n, _ := v.(float64); r.nonZero && n == 0 {
			t.Errorf("/snapshot's %s is zero on a running quadMC", strings.Join(r.path, "."))
		}
	}

	// The per-core and per-controller families the script matches by
	// pattern: committed μops are summed (some core commits), read-queue
	// depths are averaged (one per controller; an idle queue reads zero).
	for _, r := range []struct {
		pattern string
		want    int
		nonZero bool
	}{
		{`^core\d+\.committed$`, cfg.Cores, true},
		{`^mc\d+\.readq\.depth$`, cfg.MCs, false},
	} {
		if !strings.Contains(page, "/"+r.pattern+"/") {
			t.Errorf("the page does not match metrics by /%s/", r.pattern)
		}
		re := regexp.MustCompile(r.pattern)
		n, sum := 0, 0.0
		for name, v := range metrics {
			if re.MatchString(name) {
				n++
				sum += v.(float64)
			}
		}
		if n != r.want {
			t.Errorf("/snapshot has %d metrics matching %s, want %d", n, r.pattern, r.want)
		}
		if r.nonZero && sum == 0 {
			t.Errorf("the metrics matching %s sum to zero on a running quadMC", r.pattern)
		}
	}
}

// lookup walks a decoded JSON object along path.
func lookup(v any, path []string) (any, bool) {
	for _, k := range path {
		obj, ok := v.(map[string]any)
		if !ok {
			return nil, false
		}
		if v, ok = obj[k]; !ok {
			return nil, false
		}
	}
	return v, true
}

func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	return string(body)
}
