package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"stackedsim/internal/config"
	"stackedsim/internal/powerthermal"
	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
)

func ptRun(t *testing.T, cfg *config.Config, track bool) (Metrics, uint64, *powerthermal.Tracker) {
	t.Helper()
	cfg.WarmupCycles = 5_000
	cfg.MeasureCycles = 20_000
	sys, err := NewSystem(cfg, []string{"S.all", "mcf", "S.copy", "milc"})
	if err != nil {
		t.Fatal(err)
	}
	var pt *powerthermal.Tracker
	if track {
		pt = sys.AttachPowerThermal(telemetry.NewRegistry(), 500)
		if pt == nil {
			t.Fatal("AttachPowerThermal returned nil with a live registry")
		}
	}
	m := sys.Run()
	return m, sys.Digest(), pt
}

// TestPowerThermalParity pins the tentpole invariant: a tracked run is
// bit-identical to an untracked one — the tracker reads counters the
// simulation keeps anyway and never feeds anything back.
func TestPowerThermalParity(t *testing.T) {
	for _, mk := range []struct {
		name string
		cfg  func() *config.Config
	}{
		{"quadMC", config.QuadMC},
		{"2D", config.Baseline2D},
		{"fast3D-cache", func() *config.Config {
			return config.Fast3D().WithStackCache(config.StackCache, 64)
		}},
	} {
		t.Run(mk.name, func(t *testing.T) {
			base, baseDig, _ := ptRun(t, mk.cfg(), false)
			inst, instDig, pt := ptRun(t, mk.cfg(), true)
			if baseDig != instDig {
				t.Fatalf("tracking changed the architectural digest: %x vs %x", baseDig, instDig)
			}
			if base.HMIPC != inst.HMIPC {
				t.Fatalf("tracking changed HMIPC: %v vs %v", base.HMIPC, inst.HMIPC)
			}
			if base.Energy != inst.Energy {
				t.Fatalf("tracking changed the energy breakdown: %+v vs %+v", base.Energy, inst.Energy)
			}
			if pt.Summary().Windows == 0 {
				t.Fatal("tracker closed no windows over the measured run")
			}
		})
	}
}

// TestTrackerAccountsTheRunsJoules pins that the tracker and the run
// charge the same DRAM energy. With windows that tile the measured
// window, the tracker's on-stack and off-chip DRAM power times each
// window's length sums to the run's stacked plus backing energy.
func TestTrackerAccountsTheRunsJoules(t *testing.T) {
	const window = 500
	for _, mk := range []struct {
		name string
		cfg  func() *config.Config
	}{
		{"2D", config.Baseline2D},
		{"quadMC", config.QuadMC},
		{"fast3D-cache", func() *config.Config {
			return config.Fast3D().WithStackCache(config.StackCache, 64)
		}},
	} {
		t.Run(mk.name, func(t *testing.T) {
			cfg := mk.cfg()
			cfg.WarmupCycles = 10 * window
			cfg.MeasureCycles = 40 * window
			sys, err := NewSystem(cfg, []string{"S.all", "mcf", "S.copy", "milc"})
			if err != nil {
				t.Fatal(err)
			}
			pt := sys.AttachPowerThermal(telemetry.NewRegistry(), window)
			seconds := window / (cfg.CPUMHz * 1e6)
			joules, windows := 0.0, 0
			// Behind the tracker: each tick reads the window it just closed.
			sys.Observe(window, sim.TickFunc(func(now sim.Cycle) {
				if now > sim.Cycle(cfg.WarmupCycles) {
					st := pt.State()
					joules += (st.DRAMPowerW + st.OffChipPowerW) * seconds
					windows++
				}
			}))
			m := sys.Run()
			if windows != 40 {
				t.Fatalf("%d windows closed in the measured window, want 40", windows)
			}
			want := m.Energy.TotalUJ() + m.EnergyBacking.TotalUJ()
			if (cfg.StackMode != config.StackMemory) != (m.EnergyBacking.TotalUJ() > 0) || want <= 0 {
				t.Fatalf("energy %v, backing %v: the run charged the wrong channels", m.Energy, m.EnergyBacking)
			}
			if got := joules * 1e6; math.Abs(got-want) > 1e-9*want {
				t.Fatalf("tracker accounted %.12g uJ, the run %.12g uJ", got, want)
			}
		})
	}
}

// TestPowerThermalDeterministic pins that two identical tracked runs
// agree bit-for-bit on the tracker state (no wall-clock leakage).
func TestPowerThermalDeterministic(t *testing.T) {
	_, _, a := ptRun(t, config.QuadMC(), true)
	_, _, b := ptRun(t, config.QuadMC(), true)
	ja, err := json.Marshal(a.Summary())
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b.Summary())
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("tracker state differs across identical runs:\n%s\nvs\n%s", ja, jb)
	}
	if a.Report() != b.Report() {
		t.Fatal("report differs across identical runs")
	}
}

// TestPowerThermalMetricsRegistered checks the registry families the
// golden /metrics test consumes.
func TestPowerThermalMetricsRegistered(t *testing.T) {
	cfg := config.QuadMC()
	cfg.WarmupCycles = 1_000
	cfg.MeasureCycles = 4_000
	sys, err := NewSystem(cfg, []string{"mcf"})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sys.AttachPowerThermal(reg, 0) // 0 -> powerthermal.DefaultWindow
	sys.Run()
	names := strings.Join(reg.Names(), "\n")
	for _, want := range []string{
		"power.cpu.w", "power.dram.w", "power.offchip.w", "power.total.w",
		"power.layer.cpu.w", "power.layer.dram-logic.w", "power.layer.dram7.w",
		"thermal.layer.cpu.c", "thermal.max_dram.c", "thermal.over_limit",
		"thermal.limit.exceedances", "thermal.over_limit.cycles",
	} {
		if !strings.Contains(names, want) {
			t.Fatalf("registry missing %q; have:\n%s", want, names)
		}
	}
	if sys.AttachPowerThermal(nil, 500) != nil {
		t.Fatal("nil registry did not disable tracking")
	}
}

// TestThermalFigure drives the -exp thermal pipeline end to end on
// reduced windows: six organizations, each within the 85C rating, with
// layer counts derived from the active config (satellite: no hardcoded
// NewCPUDRAMStack(8, 80, 1.5, true)).
func TestThermalFigure(t *testing.T) {
	f, err := tinyRunner().ThermalFigure()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(f.Rows))
	}
	dies := map[string]float64{
		"2D":      1,  // all DRAM off-chip
		"3D":      9,  // 8 DRAM layers, logic on them
		"3D-fast": 10, // + separate logic die
	}
	for _, row := range f.Rows {
		if want, ok := dies[row.Label]; ok && row.Values[0] != want {
			t.Fatalf("%s: %v dies, want %v", row.Label, row.Values[0], want)
		}
		// Stack-cache rows run a 64MB stack: one DRAM die (+logic).
		if strings.Contains(row.Label, "cache") && row.Values[0] > 3 {
			t.Fatalf("%s: %v dies for a 64MB stack", row.Label, row.Values[0])
		}
		cpuW, dramC, ok := row.Values[1], row.Values[5], row.Values[6]
		if cpuW < 25 || cpuW > 120 {
			t.Fatalf("%s: implausible CPU power %.1fW", row.Label, cpuW)
		}
		if dramC <= 0 || dramC > 200 {
			t.Fatalf("%s: implausible DRAM temperature %.1fC", row.Label, dramC)
		}
		if ok != 1 {
			t.Fatalf("%s: exceeds the 85C limit (%.1fC) — Section 2.4 claim broken", row.Label, dramC)
		}
	}
}

// TestEnergyGaugesMatchCollect pins the power.energy.* gauges, which
// share one computation per cycle and window: read at every sample they
// equal a fresh breakdown, at the end of the run each equals its field
// of Metrics.Energy (or EnergyBacking), and a ResetStats at the same
// cycle is not served the window before it.
func TestEnergyGaugesMatchCollect(t *testing.T) {
	for _, mk := range []struct {
		name string
		cfg  func() *config.Config
	}{
		{"quadMC", config.QuadMC},
		{"fast3D-cache", func() *config.Config {
			return config.Fast3D().WithStackCache(config.StackCache, 64)
		}},
	} {
		t.Run(mk.name, func(t *testing.T) {
			cfg := mk.cfg()
			cfg.WarmupCycles, cfg.MeasureCycles = 2_000, 8_000
			sys, err := NewSystem(cfg, []string{"S.all", "mcf", "S.copy", "milc"})
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			sys.instrumentEnergy(reg)
			gauges := func(b, backing powerthermal.Breakdown) map[string]float64 {
				want := map[string]float64{
					"power.energy.activate_uj": b.ActivateUJ,
					"power.energy.read_uj":     b.ReadUJ,
					"power.energy.write_uj":    b.WriteUJ,
					"power.energy.refresh_uj":  b.RefreshUJ,
					"power.energy.bus_uj":      b.BusUJ,
					"power.energy.static_uj":   b.StaticUJ,
					"power.energy.total_uj":    b.TotalUJ(),
				}
				if sys.Stack != nil {
					want["power.energy.backing_uj"] = backing.TotalUJ()
				}
				return want
			}
			check := func(when string, b, backing powerthermal.Breakdown) {
				t.Helper()
				for name, want := range gauges(b, backing) {
					if got := reg.Gauge(name).Value(); got != want {
						t.Fatalf("%s: %s reads %v, want %v", when, name, got, want)
					}
				}
			}
			samples := 0
			sys.Observe(500, sim.TickFunc(func(now sim.Cycle) {
				stack, backing := sys.machine.Energy(sys.measured())
				check("a sample", stack, backing)
				samples++
			}))
			m := sys.Run()
			if samples != 20 || m.Energy.TotalUJ() <= 0 || (sys.Stack != nil) != (m.EnergyBacking.TotalUJ() > 0) {
				t.Fatalf("%d samples, energy %v, backing %v: the run did not exercise the gauges", samples, m.Energy, m.EnergyBacking)
			}
			check("the run's end", m.Energy, m.EnergyBacking)
			sys.ResetStats()
			stack, backing := sys.machine.Energy(0)
			check("a reset at the run's last cycle", stack, backing)
		})
	}
}
