package powerthermal

import (
	"math"
	"testing"
)

func paperTransient() *Stack { return loadedStack(8, true, 80, 1.5) }

// The tentpole invariant: under constant power the transient model must
// converge to the steady state (Steady) of the same stack — the
// closed-form solution is the fixed point of the integration.
func TestTransientConvergesToSteadyState(t *testing.T) {
	tr := paperTransient()
	want := tr.Steady()
	// Longest time constant ~ (sum of capacities) * RSink ~ 0.04s; 10
	// seconds is hundreds of time constants.
	for i := 0; i < 100; i++ {
		tr.Step(0.1)
	}
	got := tr.Temperatures()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("layer %d: transient %.9f, steady-state %.9f", i, got[i], want[i])
		}
	}
	if math.Abs(maxDRAMC(got)-maxDRAMC(want)) > 1e-6 {
		t.Fatalf("worst DRAM: transient %.6f, steady %.6f", maxDRAMC(got), maxDRAMC(want))
	}
}

func TestTransientDeterministic(t *testing.T) {
	run := func() []float64 {
		tr := paperTransient()
		// An arbitrary but fixed power schedule, stepped with uneven dt.
		for i := 0; i < 50; i++ {
			tr.PowerW[0] = 40 + float64(i%7)*10
			tr.Step(0.001 + float64(i%3)*0.0005)
		}
		return tr.Temperatures()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("layer %d differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTransientStartsAtAmbientAndHeatsMonotonically(t *testing.T) {
	tr := paperTransient()
	for i, temp := range tr.Temperatures() {
		if temp != AmbientC {
			t.Fatalf("layer %d starts at %.1fC, want ambient %.1fC", i, temp, AmbientC)
		}
	}
	prev := tr.TempC(0)
	for i := 0; i < 20; i++ {
		tr.Step(0.001)
		cur := tr.TempC(0)
		if cur < prev-1e-12 {
			t.Fatalf("CPU cooled under constant power at step %d: %v -> %v", i, prev, cur)
		}
		prev = cur
	}
	if prev <= AmbientC {
		t.Fatal("no heating after 20ms under 80W")
	}
}

func TestTransientCoolsWhenPowerDrops(t *testing.T) {
	tr := paperTransient()
	for i := 0; i < 100; i++ {
		tr.Step(0.01)
	}
	hot := tr.TempC(0)
	clear(tr.PowerW)
	for i := 0; i < 200; i++ {
		tr.Step(0.01)
	}
	if got := tr.TempC(0); math.Abs(got-AmbientC) > 1e-3 {
		t.Fatalf("zero-power stack settled at %.4fC, want ambient %.1fC (was %.1fC)",
			got, AmbientC, hot)
	}
}

// A large dt must be substepped, not blown through the stability bound.
func TestTransientLargeStepIsStable(t *testing.T) {
	tr := paperTransient()
	tr.Step(100) // one call, ~2500 time constants
	want := tr.Steady()
	got := tr.Temperatures()
	for i := range want {
		if math.IsNaN(got[i]) || math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("layer %d after one 100s step: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTransientEdgeCases(t *testing.T) {
	cpu := NewStack(Placement{})
	cpu.Step(1)
	if maxDRAMC(cpu.Temperatures()) != 0 {
		t.Fatal("a stack without DRAM dies has a DRAM temperature")
	}

	tr := paperTransient()
	before := tr.Temperatures()
	tr.Step(0)
	tr.Step(-1)
	after := tr.Temperatures()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("non-positive dt changed state")
		}
	}
}

func TestNewStackShapes(t *testing.T) {
	if got := len(NewStack(Placement{}).Names); got != 1 {
		t.Fatalf("cpu-only stack has %d layers, want 1", got)
	}
	if got := len(NewStack(Placement{DRAMLayers: 8}).Names); got != 9 {
		t.Fatalf("8-die stack without its own logic die has %d layers, want 9", got)
	}
	if got := NewStack(Placement{DRAMLayers: 8, Logic: true}).Names; len(got) != 10 || got[1] != "dram-logic" || got[9] != "dram7" {
		t.Fatalf("8+logic stack has layers %v, want cpu, dram-logic, dram0..dram7", got)
	}
}

func TestOffChipDRAMTempC(t *testing.T) {
	if got := OffChipDRAMTempC(0); got != AmbientC {
		t.Fatalf("idle DIMM at %.1fC, want ambient", got)
	}
	// A 10W DIMM set must stay within the same 85C rating the paper
	// quotes for the stacked parts.
	if got := OffChipDRAMTempC(10); got > DRAMThermalLimitC {
		t.Fatalf("10W off-chip DRAM at %.1fC exceeds the rating", got)
	}
	if OffChipDRAMTempC(5) <= OffChipDRAMTempC(1) {
		t.Fatal("off-chip temperature not increasing with power")
	}
}
