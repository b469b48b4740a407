package thermal

import (
	"fmt"
	"strings"
	"testing"
)

func TestTemperaturesMonotoneUpward(t *testing.T) {
	s := NewCPUDRAMStack(8, 80, 1.5, true)
	temps := s.Temperatures()
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
	s := NewCPUDRAMStack(8, 80, 1.5, true)
	if !s.WithinDRAMLimit() {
		t.Fatalf("paper stack exceeds DRAM limit: %.1fC", s.MaxDRAMTempC())
	}
	if s.MaxDRAMTempC() <= s.AmbientC {
		t.Fatal("DRAM cooler than ambient")
	}
	// EXPERIMENTS.md quotes this stack's worst case as examples/thermal
	// prints it.
	if got := fmt.Sprintf("%.1f", s.MaxDRAMTempC()); got != "73.8" {
		t.Fatalf("paper stack's worst DRAM temperature = %s C, EXPERIMENTS.md quotes 73.8", got)
	}
}

func TestExcessivePowerTripsLimit(t *testing.T) {
	s := NewCPUDRAMStack(8, 400, 10, true)
	if s.WithinDRAMLimit() {
		t.Fatalf("400W stack reported within limit: %.1fC", s.MaxDRAMTempC())
	}
}

func TestCPUHotterThanDRAMBase(t *testing.T) {
	// The CPU sits closest to the sink but dissipates far more power;
	// the layer right above it must be within a few degrees (it passes
	// nearly no power itself).
	s := NewCPUDRAMStack(4, 80, 1.5, false)
	temps := s.Temperatures()
	if temps[1]-temps[0] > 5 {
		t.Fatalf("unexpected jump across the first bond: %v", temps)
	}
}

func TestTotalPower(t *testing.T) {
	s := NewCPUDRAMStack(8, 80, 1.5, true)
	want := 80 + 9*1.5
	if got := s.TotalPowerW(); got != want {
		t.Fatalf("TotalPowerW = %v, want %v", got, want)
	}
}

func TestMoreLayersRunHotter(t *testing.T) {
	t4 := NewCPUDRAMStack(4, 80, 1.5, true).MaxDRAMTempC()
	t8 := NewCPUDRAMStack(8, 80, 1.5, true).MaxDRAMTempC()
	if t8 <= t4 {
		t.Fatalf("8-layer stack (%.1fC) not hotter than 4-layer (%.1fC)", t8, t4)
	}
}

func TestReport(t *testing.T) {
	out := NewCPUDRAMStack(8, 80, 1.5, true).Report()
	for _, want := range []string{"cpu", "dram-logic", "dram7", "worst-case DRAM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestNewStackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0 DRAM layers did not panic")
		}
	}()
	NewCPUDRAMStack(0, 80, 1.5, false)
}

func TestEmptyStack(t *testing.T) {
	s := &Stack{}
	if len(s.Temperatures()) != 0 {
		t.Fatal("empty stack temperatures")
	}
	if s.MaxDRAMTempC() != 0 {
		t.Fatal("empty stack max temp")
	}
}
