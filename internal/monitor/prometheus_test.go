package monitor

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stackedsim/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"mc0.reads":          "stacksim_mc0_reads",
		"attrib.stage.dram":  "stacksim_attrib_stage_dram",
		"l2.mshr.occupancy":  "stacksim_l2_mshr_occupancy",
		"odd-name with%char": "stacksim_odd_name_with_char",
		"already_fine_123":   "stacksim_already_fine_123",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPromValue(t *testing.T) {
	if got := promValue(42); got != "42" {
		t.Fatalf("integral value rendered %q", got)
	}
	if got := promValue(0.375); got != "0.375" {
		t.Fatalf("fractional value rendered %q", got)
	}
}

// TestPrometheusGolden renders a deterministic snapshot and compares it
// byte for byte against testdata/metrics_golden.txt: name escaping,
// counter-vs-gauge TYPE lines, summary quantiles, sorted order. Rerun
// with -update to regenerate after an intentional format change.
func TestPrometheusGolden(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Registered deliberately out of alphabetical order: the exposition
	// must sort by rendered name regardless.
	reg.Counter("mc0.reads").Add(10)
	reg.Gauge("l2.mshr.occupancy").Set(7)
	reg.Gauge("bus0.util").Set(0.375)
	d := reg.Distribution("mc0.queue.delay")
	for _, v := range []int{1, 2, 2, 3} {
		d.Observe(v)
	}
	reg.Counter("attrib.requests").Add(3)

	srv := &Server{Registry: reg}
	srv.Collect(12345)
	snap := srv.copySnapshot()

	var b strings.Builder
	writePrometheus(&b, &snap)
	got := b.String()

	golden := filepath.Join("testdata", "metrics_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPrometheusPowerThermalGolden pins the exposition of the power/
// thermal metric families the core tracker registers (power.* gauges
// per layer, thermal.* temperatures, and the limit-exceedance
// counters) against testdata/metrics_powerthermal_golden.txt. Rerun
// with -update after an intentional change.
func TestPrometheusPowerThermalGolden(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Gauge("power.cpu.w").Set(79.5)
	reg.Gauge("power.dram.w").Set(11.25)
	reg.Gauge("power.offchip.w").Set(2.5)
	reg.Gauge("power.total.w").Set(93.25)
	reg.Gauge("power.layer.cpu.w").Set(79.5)
	reg.Gauge("power.layer.dram-logic.w").Set(3.25)
	reg.Gauge("power.layer.dram0.w").Set(1)
	reg.Gauge("power.energy.total_uj").Set(1234.5)
	reg.Gauge("thermal.layer.cpu.c").Set(68.5)
	reg.Gauge("thermal.layer.dram-logic.c").Set(70.125)
	reg.Gauge("thermal.layer.dram0.c").Set(70.25)
	reg.Gauge("thermal.max_dram.c").Set(70.25)
	reg.Gauge("thermal.over_limit").Set(0)
	reg.Counter("thermal.limit.exceedances").Add(0)
	reg.Counter("thermal.over_limit.cycles").Add(0)

	srv := &Server{Registry: reg}
	srv.Collect(98765)
	snap := srv.copySnapshot()

	var b strings.Builder
	writePrometheus(&b, &snap)
	got := b.String()

	golden := filepath.Join("testdata", "metrics_powerthermal_golden.txt")
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
		t.Fatalf("power/thermal exposition drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPrometheusOrderIndependent pins that registration order cannot
// leak into the exposition: two registries with the same metrics in
// different orders must render identically.
func TestPrometheusOrderIndependent(t *testing.T) {
	render := func(names []string) string {
		reg := telemetry.NewRegistry()
		for _, n := range names {
			reg.Counter(n).Inc()
		}
		srv := &Server{Registry: reg}
		srv.Collect(1)
		snap := srv.copySnapshot()
		var b strings.Builder
		writePrometheus(&b, &snap)
		return b.String()
	}
	a := render([]string{"z.last", "a.first", "m.mid"})
	bb := render([]string{"m.mid", "z.last", "a.first"})
	if a != bb {
		t.Fatalf("registration order leaked into exposition:\n%s\nvs\n%s", a, bb)
	}
}
