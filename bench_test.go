// Package stackedsim's root benchmarks regenerate every table and figure
// of the paper's evaluation (see DESIGN.md's per-experiment index).
//
// Each benchmark iteration executes the full experiment at a reduced
// simulation window so the suite completes on a laptop; cmd/experiments
// runs the same code with larger windows for the EXPERIMENTS.md numbers.
// Benchmarks report simulated workload-runs per wall-second implicitly
// through ns/op; correctness of the regenerated shapes is asserted so a
// regression cannot silently produce an empty figure.

package stackedsim

import (
	"testing"

	"stackedsim/internal/config"
	"stackedsim/internal/core"
	"stackedsim/internal/cpu"
	"stackedsim/internal/telemetry"
	"stackedsim/internal/thermal"
	"stackedsim/internal/workload"
)

// TestTelemetrySmokeParity is the tier-1 guard for the telemetry layer:
// a telemetry-enabled run must produce exactly the simulation results
// of a disabled run (telemetry counters may differ between builds; IPC
// and memory traffic must not).
func TestTelemetrySmokeParity(t *testing.T) {
	run := func(tel *telemetry.Telemetry) core.Metrics {
		cfg := config.QuadMC()
		cfg.WarmupCycles = 5_000
		cfg.MeasureCycles = 25_000
		sys, err := core.NewSystem(cfg, workload.Mixes[3].Benchmarks[:])
		if err != nil {
			t.Fatal(err)
		}
		sys.AttachTelemetry(tel)
		return sys.Run()
	}
	plain := run(nil)
	instr := run(telemetry.New(telemetry.Options{
		Dir: t.TempDir(), SampleEvery: 250, TraceEvents: true, TraceSample: 4,
	}))
	if plain.HMIPC != instr.HMIPC {
		t.Fatalf("telemetry changed HMIPC: %v vs %v", plain.HMIPC, instr.HMIPC)
	}
	for i := range plain.IPC {
		if plain.IPC[i] != instr.IPC[i] {
			t.Fatalf("telemetry changed core %d IPC: %v vs %v", i, plain.IPC[i], instr.IPC[i])
		}
	}
	if plain.DRAMReads != instr.DRAMReads || plain.DRAMWrites != instr.DRAMWrites ||
		plain.L2MissRate != instr.L2MissRate || plain.RowHitRate != instr.RowHitRate {
		t.Fatal("telemetry changed memory-system behaviour")
	}
}

// BenchmarkTelemetryOverhead measures the cost of a fully instrumented
// run (sampler + attribution + the trace drawn from it) against
// BenchmarkSimulatorThroughput's plain configuration; compare ns/op
// between the two to bound the overhead.
func BenchmarkTelemetryOverhead(b *testing.B) {
	cfg := config.QuadMC()
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 100_000
	for i := 0; i < b.N; i++ {
		mix, _ := workload.MixByName("VH1")
		sys, err := core.NewSystem(cfg, mix.Benchmarks[:])
		if err != nil {
			b.Fatal(err)
		}
		tel := telemetry.New(telemetry.Options{
			Dir: b.TempDir(), SampleEvery: 1_000, TraceEvents: true, TraceSample: 64,
		})
		sys.AttachTelemetry(tel)
		sys.AttachAttrib(sys.NewAttribCollector(tel.Reg()))
		sys.Run()
	}
	b.ReportMetric(float64(100_000), "cycles/op")
}

// benchRunner returns a Runner with laptop-scale windows.
func benchRunner() *core.Runner {
	return core.NewRunner(50_000, 150_000)
}

func requireRows(b *testing.B, f *core.Figure, err error, rows int) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if len(f.Rows) < rows {
		b.Fatalf("%s: %d rows, want >= %d", f.ID, len(f.Rows), rows)
	}
	for _, r := range f.Rows {
		if len(r.Values) == 0 {
			b.Fatalf("%s: empty row %q", f.ID, r.Label)
		}
	}
}

// BenchmarkTable2aMPKI regenerates the stand-alone MPKI column of
// Table 2a (28 single-core runs on a 6MB L2).
func BenchmarkTable2aMPKI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchRunner().Table2a()
		requireRows(b, f, err, len(workload.Specs))
	}
}

// BenchmarkTable2bHMIPC regenerates the per-mix baseline HMIPC column of
// Table 2b on the 2D system.
func BenchmarkTable2bHMIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchRunner().Table2b()
		requireRows(b, f, err, len(workload.Mixes))
	}
}

// BenchmarkFigure4 regenerates the Section 3 speedup comparison
// (2D / 3D / 3D-wide / 3D-fast across all twelve mixes plus GM rows).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchRunner().Figure4()
		requireRows(b, f, err, 14)
	}
}

// BenchmarkFigure6a regenerates the rank/MC sweep plus the +512KB/+1MB
// L2 comparison, as speedups over 3D-fast.
func BenchmarkFigure6a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchRunner().Figure6a()
		requireRows(b, f, err, 8)
	}
}

// BenchmarkFigure6b regenerates the row-buffer-cache entry sweep on the
// dual-MC and quad-MC organizations.
func BenchmarkFigure6b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchRunner().Figure6b()
		requireRows(b, f, err, 4)
	}
}

// BenchmarkFigure7a regenerates the MSHR capacity sweep on the dual-MC
// organization (2x/4x/8x/dynamic).
func BenchmarkFigure7a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchRunner().Figure7(false)
		requireRows(b, f, err, 14)
	}
}

// BenchmarkFigure7b regenerates the MSHR capacity sweep on the quad-MC
// organization.
func BenchmarkFigure7b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchRunner().Figure7(true)
		requireRows(b, f, err, 14)
	}
}

// BenchmarkFigure9a regenerates the scalable-MHA comparison (ideal CAM
// vs VBF vs dynamic vs V+D) on the dual-MC organization.
func BenchmarkFigure9a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchRunner().Figure9(false)
		requireRows(b, f, err, 14)
	}
}

// BenchmarkFigure9b regenerates the scalable-MHA comparison on the
// quad-MC organization.
func BenchmarkFigure9b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchRunner().Figure9(true)
		requireRows(b, f, err, 14)
	}
}

// BenchmarkVBFProbes regenerates the Section 5.2 probes-per-access
// statistic (paper: 2.31 dual-MC, 2.21 quad-MC).
func BenchmarkVBFProbes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchRunner().VBFProbes()
		requireRows(b, f, err, 2)
		for _, row := range f.Rows {
			if row.Values[0] < 1 {
				b.Fatalf("probes/access %v < 1", row.Values[0])
			}
		}
	}
}

// BenchmarkAblationInterleave compares the Figure 5 page-aligned L2
// interleaving against 64B interleaving with a crossbar (DESIGN.md
// ablation 1; part of the Ablations figure).
func BenchmarkAblationInterleave(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		aligned := config.QuadMC()
		crossed := config.QuadMC()
		crossed.L2PageInterleave = false
		crossed.Name = "3D-4mc-16rank-4rb-crossbar"
		sA, err := r.GMSpeedup(config.Fast3D(), aligned, core.HighMixes())
		if err != nil {
			b.Fatal(err)
		}
		sC, err := r.GMSpeedup(config.Fast3D(), crossed, core.HighMixes())
		if err != nil {
			b.Fatal(err)
		}
		if sA <= 0 || sC <= 0 {
			b.Fatalf("degenerate speedups %v / %v", sA, sC)
		}
	}
}

// BenchmarkAblationScheduler compares FR-FCFS against FIFO scheduling
// (DESIGN.md ablation 2).
func BenchmarkAblationScheduler(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		fifo := config.QuadMC()
		fifo.SchedFRFCFS = false
		fifo.Name = "3D-4mc-16rank-4rb-fifo"
		s, err := r.GMSpeedup(fifo, config.QuadMC(), core.HighMixes())
		if err != nil {
			b.Fatal(err)
		}
		if s < 1 {
			b.Logf("warning: FR-FCFS speedup over FIFO = %.3f", s)
		}
	}
}

// BenchmarkAblationMSHRKind compares the three MSHR implementations at
// 8x capacity (DESIGN.md ablation 3).
func BenchmarkAblationMSHRKind(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		base := config.DualMC()
		for _, kind := range []config.MSHRKind{config.MSHRIdealCAM, config.MSHRVBF, config.MSHRLinearProbe} {
			if _, err := r.GMSpeedup(base, base.WithMSHR(8, kind, false), core.HighMixes()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationDynamicEpoch sweeps the dynamic resizer's epoch
// length (DESIGN.md ablation 4).
func BenchmarkAblationDynamicEpoch(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		static := config.QuadMC().WithMSHR(8, config.MSHRIdealCAM, false)
		for _, epoch := range []int64{50_000, 100_000} {
			dyn := config.QuadMC().WithMSHR(8, config.MSHRIdealCAM, true)
			dyn.DynEpochCycles = epoch
			dyn.Name = dyn.Name + "-e" + string(rune('0'+epoch/50_000))
			if _, err := r.GMSpeedup(static, dyn, []string{"VH1", "HM2"}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkThermalCheck regenerates the Section 2.4 thermal feasibility
// result.
func BenchmarkThermalCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := thermal.NewCPUDRAMStack(8, 80, 1.5, true)
		if !s.WithinDRAMLimit() {
			b.Fatal("paper stack exceeds the DRAM thermal limit")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: cycles
// per wall-second for the quad-MC organization under the heaviest mix.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := config.QuadMC()
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 100_000
	for i := 0; i < b.N; i++ {
		if _, err := core.RunMix(cfg, "VH1"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(100_000), "cycles/op")
}

// BenchmarkSimulatorThroughputFullTick runs the throughput benchmark in
// the engine's compatibility mode — every component ticks every cycle,
// as the seed engine did. The ratio to BenchmarkSimulatorThroughput is
// the skip engine's speedup on a saturated machine; results are
// bit-identical either way (TestTickSchedulingParity).
func BenchmarkSimulatorThroughputFullTick(b *testing.B) {
	cfg := config.QuadMC()
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 100_000
	mix, _ := workload.MixByName("VH1")
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(cfg, mix.Benchmarks[:])
		if err != nil {
			b.Fatal(err)
		}
		sys.Engine.SetFullTick(true)
		sys.Run()
	}
	b.ReportMetric(float64(100_000), "cycles/op")
}

// idleHeavySystem builds the workload shape the skip-to-next-event
// engine accelerates most: a single core on the slow 2D baseline,
// pointer-chasing through a footprint far beyond the L2 with sparse,
// always-cold loads. Misses serialize (about one load per hundred
// μops keeps roughly one in the ROB), so the core spends most of each
// several-hundred-cycle off-chip round trip provably asleep, and the
// caches sleep with it.
func idleHeavySystem(b *testing.B, cycles int64) *core.System {
	b.Helper()
	spec := workload.Spec{
		Name:      "idlechase",
		Pattern:   workload.PointerChase,
		Footprint: 64 << 20,
		MemFrac:   1.0,
		ColdFrac:  1.0,
	}
	cfg := config.Baseline2D()
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = cycles
	src := workload.NewGenerator(spec, cfg.Seed)
	sys, err := core.NewSystemFromSources(cfg, []cpu.UOpSource{src}, []string{spec.Name})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

const idleHeavyCycles = 1_000_000

// BenchmarkSimulatorIdleHeavy measures cycles per wall-second on the
// idle-heavy machine with the skip engine on.
func BenchmarkSimulatorIdleHeavy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := idleHeavySystem(b, idleHeavyCycles)
		b.StartTimer()
		sys.Run()
	}
	b.ReportMetric(float64(idleHeavyCycles), "cycles/op")
}

// BenchmarkSimulatorIdleHeavyFullTick is the full-tick baseline for
// BenchmarkSimulatorIdleHeavy.
func BenchmarkSimulatorIdleHeavyFullTick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := idleHeavySystem(b, idleHeavyCycles)
		sys.Engine.SetFullTick(true)
		b.StartTimer()
		sys.Run()
	}
	b.ReportMetric(float64(idleHeavyCycles), "cycles/op")
}

// BenchmarkRequestPath measures the steady-state request path alone:
// the machine is built and warmed outside the timed region, so ns/op
// and allocs/op cover only simulation — misses allocating MSHR entries,
// requests traversing L2/DRAM, fills completing. With the request,
// tag, MSHR-entry and miss-node pools this should be allocation-free
// up to amortized slice growth; run with -benchmem and read allocs/op
// (the bench/ harness reports the same cost as allocs_per_kcycle).
func BenchmarkRequestPath(b *testing.B) {
	cfg := config.QuadMC()
	mix, _ := workload.MixByName("VH1")
	sys, err := core.NewSystem(cfg, mix.Benchmarks[:])
	if err != nil {
		b.Fatal(err)
	}
	sys.Engine.Run(20_000) // warm the pools, fill the queues
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Engine.Run(1_000)
	}
	b.ReportMetric(1_000, "cycles/op")
}

// BenchmarkEnergyRowBuffer regenerates the Section 4.2 energy extension:
// dynamic DRAM energy per access vs row-buffer-cache entries.
func BenchmarkEnergyRowBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchRunner().EnergyFigure()
		requireRows(b, f, err, 4)
		// Energy per access must not increase with more row buffers.
		first := f.Rows[0].Values[0]
		last := f.Rows[len(f.Rows)-1].Values[0]
		if last > first*1.05 {
			b.Fatalf("energy/access rose with row buffers: %.2f -> %.2f", first, last)
		}
	}
}
