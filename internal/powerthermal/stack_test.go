package powerthermal

import (
	"fmt"
	"testing"
)

func TestTemperaturesMonotoneUpward(t *testing.T) {
	s := loadedStack(8, true, 80, 1.5)
	temps := s.Steady()
	if len(temps) != 10 { // cpu + logic + 8 dram
		t.Fatalf("%d layers, want 10", len(temps))
	}
	for i := 1; i < len(temps); i++ {
		if temps[i] < temps[i-1] {
			t.Fatalf("temperature fell moving away from the sink: %v", temps)
		}
	}
}

func TestPaperStackWithinDRAMLimit(t *testing.T) {
	// The Section 2.4 finding: the 9-layer stack stays within the
	// Samsung thermal limit with a typical quad-core power budget.
	s := loadedStack(8, true, 80, 1.5)
	worst := maxDRAMC(s.Steady())
	if worst > DRAMThermalLimitC {
		t.Fatalf("paper stack exceeds DRAM limit: %.1fC", worst)
	}
	if worst <= AmbientC {
		t.Fatal("DRAM cooler than ambient")
	}
	// EXPERIMENTS.md quotes this stack's worst case as experiments -exp
	// tsv prints it.
	if got := fmt.Sprintf("%.1f", worst); got != "73.8" {
		t.Fatalf("paper stack's worst DRAM temperature = %s C, EXPERIMENTS.md quotes 73.8", got)
	}
}

func TestExcessivePowerTripsLimit(t *testing.T) {
	s := loadedStack(8, true, 400, 10)
	if worst := maxDRAMC(s.Steady()); worst <= DRAMThermalLimitC {
		t.Fatalf("400W stack reported within limit: %.1fC", worst)
	}
}

func TestCPUHotterThanDRAMBase(t *testing.T) {
	// The CPU sits closest to the sink but dissipates far more power;
	// the layer right above it must be within a few degrees (it passes
	// nearly no power itself).
	s := loadedStack(4, false, 80, 1.5)
	temps := s.Steady()
	if temps[1]-temps[0] > 5 {
		t.Fatalf("unexpected jump across the first bond: %v", temps)
	}
}

func TestTotalPower(t *testing.T) {
	s := loadedStack(8, true, 80, 1.5)
	want := 80 + 9*1.5
	if got := s.TotalPowerW(); got != want {
		t.Fatalf("TotalPowerW = %v, want %v", got, want)
	}
}

func TestMoreLayersRunHotter(t *testing.T) {
	t4 := maxDRAMC(loadedStack(4, true, 80, 1.5).Steady())
	t8 := maxDRAMC(loadedStack(8, true, 80, 1.5).Steady())
	if t8 <= t4 {
		t.Fatalf("8-layer stack (%.1fC) not hotter than 4-layer (%.1fC)", t8, t4)
	}
}
