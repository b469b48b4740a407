package powerthermal

import (
	"math"
	"strings"
	"testing"
)

func TestAccountComponents(t *testing.T) {
	p := Params{ActivatePJ: 1000, ReadColPJ: 100, WriteColPJ: 200, RefreshPJ: 500, BusPJPerByte: 1, StaticMWRank: 0}
	a := Activity{Activates: 10, ColumnReads: 20, ColumnWrites: 5, Refreshes: 4, BytesMoved: 1000, Ranks: 8}
	b := Account(p, a, 0, 0)
	if !approx(b.ActivateUJ, 10*1000*1e-6, 1e-9) {
		t.Fatalf("ActivateUJ = %v", b.ActivateUJ)
	}
	if !approx(b.ReadUJ, 20*100*1e-6, 1e-9) {
		t.Fatalf("ReadUJ = %v", b.ReadUJ)
	}
	if !approx(b.WriteUJ, 5*200*1e-6, 1e-9) {
		t.Fatalf("WriteUJ = %v", b.WriteUJ)
	}
	if !approx(b.RefreshUJ, 4*500*1e-6, 1e-9) {
		t.Fatalf("RefreshUJ = %v", b.RefreshUJ)
	}
	if !approx(b.BusUJ, 1000*1*1e-6, 1e-9) {
		t.Fatalf("BusUJ = %v", b.BusUJ)
	}
	if b.StaticUJ != 0 {
		t.Fatalf("StaticUJ = %v, want 0 with no time", b.StaticUJ)
	}
	if b.Accesses != 25 {
		t.Fatalf("Accesses = %d", b.Accesses)
	}
	if !approx(b.TotalUJ(), b.ActivateUJ+b.ReadUJ+b.WriteUJ+b.RefreshUJ+b.BusUJ, 1e-9) {
		t.Fatal("TotalUJ mismatch")
	}
}

func TestStaticEnergyScalesWithTimeAndRanks(t *testing.T) {
	p := Params{StaticMWRank: 100}
	// 1e9 cycles at 1000 MHz = 1 second; 100mW x 2 ranks = 200 mJ = 2e5 uJ.
	b := Account(p, Activity{Ranks: 2}, 1_000_000_000, 1000)
	if !approx(b.StaticUJ, 200_000, 1e-9) {
		t.Fatalf("StaticUJ = %v, want 200000", b.StaticUJ)
	}
	if b.DynamicUJ() != 0 {
		t.Fatalf("DynamicUJ = %v", b.DynamicUJ())
	}
}

func TestPerAccessNJ(t *testing.T) {
	p := Params{ReadColPJ: 1000}
	b := Account(p, Activity{ColumnReads: 10}, 0, 0)
	// 10 reads x 1000pJ = 0.01uJ dynamic over 10 accesses = 1nJ each.
	if !approx(b.PerAccessNJ(), 1, 1e-9) {
		t.Fatalf("PerAccessNJ = %v, want 1", b.PerAccessNJ())
	}
	var empty Breakdown
	if empty.PerAccessNJ() != 0 {
		t.Fatal("empty PerAccessNJ should be 0")
	}
}

func TestRowHitsCostLessThanActivations(t *testing.T) {
	p := DDR2()
	// Same access count; one workload hits the row buffer every time,
	// the other activates every time.
	hits := Account(p, Activity{ColumnReads: 100}, 0, 0)
	misses := Account(p, Activity{ColumnReads: 100, Activates: 100}, 0, 0)
	if hits.PerAccessNJ() >= misses.PerAccessNJ() {
		t.Fatalf("row hits (%.2fnJ) not cheaper than activations (%.2fnJ)",
			hits.PerAccessNJ(), misses.PerAccessNJ())
	}
}

func TestStackedIOCheaperThan2D(t *testing.T) {
	a := Activity{ColumnReads: 100, BytesMoved: 6400}
	offchip := Account(DDR2(), a, 0, 0)
	stacked := Account(Stacked3D(), a, 0, 0)
	if stacked.BusUJ >= offchip.BusUJ {
		t.Fatal("TSV IO not cheaper than off-chip IO")
	}
}

func TestCPUPower(t *testing.T) {
	p := DefaultCPU()
	if got := p.PowerW(0, 1); got != p.IdleW {
		t.Fatalf("idle power = %v, want %v", got, p.IdleW)
	}
	if got := p.PowerW(1000, 0); got != p.IdleW {
		t.Fatalf("zero-window power = %v, want idle floor", got)
	}
	// Four 4-wide 3333.3MHz cores committing flat out for one second:
	// the calibration target is the ~80W budget the thermal model assumes.
	full := uint64(4 * 4 * 3333.3e6)
	if got := p.PowerW(full, 1); math.Abs(got-80) > 2 {
		t.Fatalf("full-commit quad-core = %.1fW, want ~80W", got)
	}
	if p.PowerW(full/2, 1) >= p.PowerW(full, 1) {
		t.Fatal("power not increasing with committed work")
	}
}

func TestBreakdownString(t *testing.T) {
	b := Account(DDR2(), Activity{ColumnReads: 10, Activates: 5}, 0, 0)
	s := b.String()
	for _, want := range []string{"total", "activate", "nJ/access"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q: %s", want, s)
		}
	}
}
