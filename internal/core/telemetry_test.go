package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stackedsim/internal/config"
	"stackedsim/internal/telemetry"
)

func readFile(t *testing.T, dir, name string) ([]byte, error) {
	t.Helper()
	return os.ReadFile(filepath.Join(dir, name))
}

// telemetryRun builds a quad-MC system over mix VH1, attaches a fresh
// telemetry set and the attribution collector its trace is drawn from,
// runs a short window, and returns both.
func telemetryRun(t *testing.T, sampleEvery int64) (Metrics, *telemetry.Telemetry) {
	t.Helper()
	cfg := config.QuadMC()
	cfg.WarmupCycles = 5_000
	cfg.MeasureCycles = 20_000
	tel := telemetry.New(telemetry.Options{
		Dir:         t.TempDir(),
		SampleEvery: sampleEvery,
		TraceEvents: true,
		TraceSample: 8,
	})
	sys, err := NewSystem(cfg, []string{"S.all", "mcf", "S.copy", "milc"})
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachTelemetry(tel)
	sys.AttachAttrib(sys.NewAttribCollector(tel.Reg()))
	return sys.Run(), tel
}

// TestTelemetryDoesNotPerturbSimulation pins the core invariant: an
// instrumented run must produce bit-identical simulation results to an
// uninstrumented one — telemetry observes, never participates.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	cfg := config.QuadMC()
	cfg.WarmupCycles = 5_000
	cfg.MeasureCycles = 20_000
	plain, err := NewSystem(cfg, []string{"S.all", "mcf", "S.copy", "milc"})
	if err != nil {
		t.Fatal(err)
	}
	base := plain.Run()

	instr, tel := telemetryRun(t, 500)
	if base.HMIPC != instr.HMIPC {
		t.Fatalf("telemetry changed HMIPC: %v vs %v", base.HMIPC, instr.HMIPC)
	}
	for i := range base.IPC {
		if base.IPC[i] != instr.IPC[i] {
			t.Fatalf("telemetry changed core %d IPC: %v vs %v", i, base.IPC[i], instr.IPC[i])
		}
	}
	if base.DRAMReads != instr.DRAMReads || base.DRAMWrites != instr.DRAMWrites {
		t.Fatalf("telemetry changed DRAM traffic: %d/%d vs %d/%d",
			base.DRAMReads, base.DRAMWrites, instr.DRAMReads, instr.DRAMWrites)
	}
	if base.RowHitRate != instr.RowHitRate {
		t.Fatalf("telemetry changed row-hit rate: %v vs %v", base.RowHitRate, instr.RowHitRate)
	}
	if tel.Tracer.Len() == 0 {
		t.Fatal("tracer recorded no events on a missing-heavy mix")
	}
}

// TestTelemetryDeterministicExports runs the same configuration twice
// and requires byte-identical CSV and trace exports — no
// wall-clock time may leak into sampled data.
func TestTelemetryDeterministicExports(t *testing.T) {
	_, telA := telemetryRun(t, 1_000)
	_, telB := telemetryRun(t, 1_000)
	var csvA, csvB, trA, trB strings.Builder
	if err := telA.Sampler.WriteCSV(&csvA); err != nil {
		t.Fatal(err)
	}
	if err := telB.Sampler.WriteCSV(&csvB); err != nil {
		t.Fatal(err)
	}
	if csvA.String() != csvB.String() {
		t.Fatal("same seed+config produced different CSV time-series")
	}
	if err := telA.Tracer.WriteJSON(&trA); err != nil {
		t.Fatal(err)
	}
	if err := telB.Tracer.WriteJSON(&trB); err != nil {
		t.Fatal(err)
	}
	if trA.String() != trB.String() {
		t.Fatal("same seed+config produced different traces")
	}
}

// TestTelemetryMetricCoverage checks the wiring spans the hierarchy:
// the registry must carry cpu, L2-MSHR, MC, and DRAM metrics, and the
// sampler must collect rows for them.
func TestTelemetryMetricCoverage(t *testing.T) {
	_, tel := telemetryRun(t, 1_000)
	names := tel.Registry.Names()
	wantPrefixes := []string{"core0.", "l2.mshr", "mc0.", "dram.", "bus0."}
	for _, prefix := range wantPrefixes {
		found := false
		for _, n := range names {
			if strings.HasPrefix(n, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no metric with prefix %q among %d registered names", prefix, len(names))
		}
	}
	if len(names) < 5 {
		t.Fatalf("only %d metrics registered", len(names))
	}
	rows := tel.Sampler.Rows()
	if len(rows) < 10 {
		t.Fatalf("sampler collected %d rows over 25k cycles at 1k interval", len(rows))
	}
	// Committed μops are cumulative and the cores make progress, so the
	// series must move.
	last := rows[len(rows)-1]
	if len(last.Values) == 0 {
		t.Fatal("empty sample row")
	}
	moved := false
	for i := range rows[0].Values {
		if i < len(last.Values) && last.Values[i] != rows[0].Values[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("time-series is flat: gauges are not observing live state")
	}
}

// TestTelemetryExportWritesArtifacts exercises the full export path.
func TestTelemetryExportWritesArtifacts(t *testing.T) {
	cfg := config.DualMC()
	cfg.WarmupCycles = 2_000
	cfg.MeasureCycles = 8_000
	dir := t.TempDir()
	tel := telemetry.New(telemetry.Options{Dir: dir, SampleEvery: 500, TraceEvents: true, TraceSample: 4})
	sys, err := NewSystem(cfg, []string{"S.all", "mcf"})
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachTelemetry(tel)
	sys.AttachAttrib(sys.NewAttribCollector(tel.Reg()))
	sys.Run()
	err = tel.Export(telemetry.Manifest{Config: cfg.Name, Seed: cfg.Seed, Cycles: int64(sys.Engine.Now())})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"manifest.json", "timeseries.csv", "trace.json", "distributions.json"} {
		if _, err := readFile(t, dir, f); err != nil {
			t.Fatalf("missing export %s: %v", f, err)
		}
	}
}
