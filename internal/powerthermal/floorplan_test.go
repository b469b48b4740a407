package powerthermal

import (
	"math"
	"strings"
	"testing"

	"stackedsim/internal/config"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBusAreaMatchesPaper(t *testing.T) {
	// "a 1024-bit bus would only require an area of 0.32mm^2"
	if got := BusAreaMM2(1024, TSVPitchHighUM); !approx(got, 0.32, 0.01) {
		t.Fatalf("1Kb bus area = %.3f mm^2, want 0.32", got)
	}
}

func TestBusesPerCM2MatchesPaper(t *testing.T) {
	// "a 1cm^2 chip could support over three hundred of these 1Kb buses"
	if got := BusesPerCM2(1024, TSVPitchHighUM); got < 300 || got > 320 {
		t.Fatalf("buses per cm^2 = %d, want just over 300", got)
	}
}

func TestBusAreaDegenerate(t *testing.T) {
	if BusAreaMM2(0, 10) != 0 || BusAreaMM2(1024, 0) != 0 {
		t.Fatal("degenerate bus area nonzero")
	}
	if BusesPerCM2(0, 10) != 0 {
		t.Fatal("degenerate bus count nonzero")
	}
}

func TestDensityScalingMatchesPaper(t *testing.T) {
	// "Scaling this to 50nm yields a density of 27.9Mb/mm^2"
	if got := DensityAtNode(50); !approx(got, 27.9, 0.1) {
		t.Fatalf("50nm density = %.2f, want 27.9", got)
	}
	if DensityAtNode(0) != 0 {
		t.Fatal("zero node density nonzero")
	}
}

func TestLayerAreaMatchesPaper(t *testing.T) {
	// "1GB per layer ... footprint requirement of 294mm^2"
	if got := LayerAreaMM2(1, DensityAtNode(50)); !approx(got, 294, 1) {
		t.Fatalf("1GB layer area = %.1f mm^2, want ~294", got)
	}
	if LayerAreaMM2(1, 0) != 0 {
		t.Fatal("zero-density area nonzero")
	}
}

func TestLayersForMatchesPaper(t *testing.T) {
	// "eight stacked layers (nine if the logic is implemented on a
	// separate layer)"
	if got := LayersFor(8, 1, false); got != 8 {
		t.Fatalf("LayersFor(8,1,false) = %d", got)
	}
	if got := LayersFor(8, 1, true); got != 9 {
		t.Fatalf("LayersFor(8,1,true) = %d", got)
	}
	if LayersFor(0, 1, false) != 0 || LayersFor(8, 0, false) != 0 {
		t.Fatal("degenerate layer count nonzero")
	}
	if got := LayersFor(9, 2, false); got != 5 {
		t.Fatalf("LayersFor(9,2) = %d, want 5 (round up)", got)
	}
}

func TestRowBufferBudgetMatchesPaper(t *testing.T) {
	// "This totals to 256KB of storage to implement all of the row
	// buffers" (8 ranks x 8 banks x 4KB).
	if got := RowBufferBudgetBytes(8, 8, 4096, 1); got != 256*1024 {
		t.Fatalf("row buffer budget = %d, want 256KB", got)
	}
	// "Increasing this to 16 [ranks] requires an additional 256KB".
	if got := RowBufferBudgetBytes(16, 8, 4096, 1); got != 512*1024 {
		t.Fatalf("16-rank budget = %d, want 512KB", got)
	}
	if RowBufferBudgetBytes(0, 8, 4096, 1) != 0 {
		t.Fatal("degenerate budget nonzero")
	}
}

func TestPlacement(t *testing.T) {
	// The paper's 8GB stack: 8 DRAM layers, 16 ranks, separate logic.
	p := placementFor(config.QuadMC())
	if p != (Placement{DRAMLayers: 8, Logic: true, Ranks: 16}) {
		t.Fatalf("quadMC placement %+v, want 8 DRAM layers + logic holding 16 ranks", p)
	}
	if !p.Stacked() {
		t.Fatal("stacked placement reports off-chip")
	}
	if got := len(NewStack(p).Names); got != 10 { // cpu + logic + 8 dram
		t.Fatalf("%d dies, want 10", got)
	}
	// Two ranks per layer, bottom-up.
	for rank := 0; rank < 16; rank++ {
		want := rank / 2
		if got := p.LayerOfRank(rank); got != want {
			t.Fatalf("LayerOfRank(%d) = %d, want %d", rank, got, want)
		}
	}
	// Fewer ranks than layers still covers the bottom layers evenly.
	sparse := Placement{DRAMLayers: 8, Ranks: 4}
	if got := sparse.LayerOfRank(3); got != 6 {
		t.Fatalf("sparse LayerOfRank(3) = %d, want 6", got)
	}
	// IO lands on the logic die when there is one, else on the DRAM dies.
	if first, n := p.ioDies(); first != 1 || n != 1 {
		t.Fatalf("quadMC IO dies %d+%d, want the logic die alone", first, n)
	}
	if first, n := sparse.ioDies(); first != sparse.dramBase() || n != 8 {
		t.Fatalf("IO dies %d+%d, want the 8 DRAM dies", first, n)
	}
}

func TestPlacementOffChip(t *testing.T) {
	p := placementFor(config.Baseline2D())
	if p != (Placement{}) || p.Stacked() {
		t.Fatalf("2D placement %+v claims stacked DRAM", p)
	}
	if got := len(NewStack(p).Names); got != 1 {
		t.Fatalf("2D stack has %d dies, want the processor alone", got)
	}
	if p.params(false) != DDR2() || placementFor(config.Fast3D()).params(true) != DDR2() {
		t.Fatal("off-chip DRAM not charged at DDR2 energies")
	}
	if placementFor(config.Fast3D()).params(false) != Stacked3D() {
		t.Fatal("stacked DRAM not charged at TSV energies")
	}
}

// TestPaperReportArithmetic checks the first half of the -exp tsv
// block: the Section 2 arithmetic at the paper's values.
func TestPaperReportArithmetic(t *testing.T) {
	out := PaperReport()
	for _, want := range []string{"0.32", "27.9", "294", "256", "layers"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestPaperReportThermal checks the second half of the -exp tsv block:
// the stack-height sweep and the paper's stack die by die.
func TestPaperReportThermal(t *testing.T) {
	out := PaperReport()
	for _, want := range []string{
		"layers    60W CPU  80W CPU  100W CPU  130W CPU", "16+logic",
		"cpu", "dram-logic", "dram7", "worst-case DRAM: 73.8C",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
