package workload

import (
	"testing"

	"stackedsim/internal/cpu"
)

func TestSpecsCoverTable2a(t *testing.T) {
	if len(Specs) != 28 {
		t.Fatalf("len(Specs) = %d, want 28", len(Specs))
	}
	seen := map[string]bool{}
	for _, s := range Specs {
		if seen[s.Name] {
			t.Fatalf("duplicate spec %q", s.Name)
		}
		seen[s.Name] = true
		if s.PaperMPKI <= 0 {
			t.Errorf("%s: PaperMPKI = %v", s.Name, s.PaperMPKI)
		}
		if s.Footprint == 0 || s.MemFrac <= 0 || s.MemFrac > 1 {
			t.Errorf("%s: bad parameters %+v", s.Name, s)
		}
	}
	// MPKI must be listed in the paper's descending order.
	for i := 1; i < len(Specs); i++ {
		if Specs[i].PaperMPKI > Specs[i-1].PaperMPKI {
			t.Errorf("Specs out of MPKI order at %s", Specs[i].Name)
		}
	}
}

func TestFootprintTracksMPKIBand(t *testing.T) {
	for _, s := range Specs {
		// High-MPKI benchmarks need footprints well above the 6MB L2.
		if s.PaperMPKI > 9 && s.Footprint <= 12*mb {
			t.Errorf("%s: high-miss benchmark with %dMB footprint", s.Name, s.Footprint/mb)
		}
		// Moderate benchmarks must have a small cold-access rate: the
		// product of memory fraction and cold fraction bounds MPKI.
		if s.PaperMPKI < 3 && s.MemFrac*s.EffectiveColdFrac() > 0.2 {
			t.Errorf("%s: moderate benchmark with cold rate %.3f", s.Name, s.MemFrac*s.EffectiveColdFrac())
		}
	}
}

func TestMixesCoverTable2b(t *testing.T) {
	if len(Mixes) != 12 {
		t.Fatalf("len(Mixes) = %d, want 12", len(Mixes))
	}
	groups := map[string]int{}
	for _, m := range Mixes {
		groups[m.Group]++
		for _, b := range m.Benchmarks {
			if _, ok := ByName(b); !ok {
				t.Errorf("mix %s references unknown benchmark %q", m.Name, b)
			}
		}
		if m.PaperHMIPC <= 0 {
			t.Errorf("mix %s: PaperHMIPC = %v", m.Name, m.PaperHMIPC)
		}
	}
	for _, g := range []string{"H", "VH", "HM", "M"} {
		if groups[g] != 3 {
			t.Errorf("group %s has %d mixes, want 3", g, groups[g])
		}
	}
}

func TestByNameAndMixByName(t *testing.T) {
	if _, ok := ByName("mcf"); !ok {
		t.Fatal("ByName(mcf) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) succeeded")
	}
	if m, ok := MixByName("VH2"); !ok || m.Benchmarks[0] != "S.copy" {
		t.Fatalf("MixByName(VH2) = %+v, %v", m, ok)
	}
	if len(MixNames()) != 12 {
		t.Fatal("MixNames wrong length")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	spec, _ := ByName("qsort")
	a := NewGenerator(spec, 7)
	b := NewGenerator(spec, 7)
	for i := 0; i < 1000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("divergence at %d: %+v vs %+v", i, x, y)
		}
	}
	c := NewGenerator(spec, 8)
	same := true
	for i := 0; i < 1000; i++ {
		if a.Next() != c.Next() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGeneratorMemFraction(t *testing.T) {
	for _, name := range []string{"S.all", "mcf", "gzip", "milc"} {
		spec, _ := ByName(name)
		g := NewGenerator(spec, 1)
		memOps := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if g.Next().Mem {
				memOps++
			}
		}
		got := float64(memOps) / n
		if got < spec.MemFrac*0.7 || got > spec.MemFrac*1.3 {
			t.Errorf("%s: mem fraction %.3f, want ~%.3f", name, got, spec.MemFrac)
		}
	}
}

func TestGeneratorFootprintRespected(t *testing.T) {
	for _, name := range []string{"S.copy", "tigr", "mcf", "gzip"} {
		spec, _ := ByName(name)
		g := NewGenerator(spec, 1)
		hotLimit := uint64(1)<<40 + spec.EffectiveHotBytes()
		for i := 0; i < 50000; i++ {
			op := g.Next()
			if !op.Mem {
				continue
			}
			inCold := op.VAddr < spec.Footprint
			inHot := op.VAddr >= 1<<40 && op.VAddr < hotLimit
			if !inCold && !inHot {
				t.Errorf("%s: address %#x outside footprint and hot ring", name, op.VAddr)
				break
			}
		}
	}
}

func TestStreamingWalksSequentially(t *testing.T) {
	spec, _ := ByName("libquantum") // single stream
	g := NewGenerator(spec, 1)
	var prev uint64
	first := true
	streamPC := uint64(0x100) << 20 // stream 0's PC; hot-ring ops differ
	for i := 0; i < 5000; i++ {
		op := g.Next()
		if !op.Mem || op.PC != streamPC {
			continue
		}
		if !first && op.VAddr != 0 { // wrap allowed
			if op.VAddr != prev+spec.Stride {
				t.Fatalf("non-sequential stream step: %#x after %#x", op.VAddr, prev)
			}
		}
		prev = op.VAddr
		first = false
	}
}

func TestChaseLoadsAreDependent(t *testing.T) {
	spec, _ := ByName("mcf")
	g := NewGenerator(spec, 1)
	dependent, coldLoads := 0, 0
	for i := 0; i < 50000; i++ {
		op := g.Next()
		// Cold chase loads live below the footprint; hot-ring accesses
		// sit at 1<<40 and are independent by design.
		if op.Mem && !op.Store && op.VAddr < spec.Footprint {
			coldLoads++
			if op.DependsOnPrev {
				dependent++
			}
		}
	}
	if coldLoads == 0 || dependent == 0 {
		t.Fatal("no dependent loads in mcf stream")
	}
	if float64(dependent)/float64(coldLoads) < 0.9 {
		t.Fatalf("only %d/%d cold loads dependent", dependent, coldLoads)
	}
}

func TestStreamingIsNotDependent(t *testing.T) {
	spec, _ := ByName("S.copy")
	g := NewGenerator(spec, 1)
	for i := 0; i < 5000; i++ {
		op := g.Next()
		if op.Mem && op.DependsOnPrev {
			t.Fatal("streaming load marked dependent")
		}
	}
}

func TestStoresRoughlyMatchStoreFrac(t *testing.T) {
	spec, _ := ByName("S.copy") // StoreFrac 0.5
	g := NewGenerator(spec, 1)
	stores, memOps := 0, 0
	for i := 0; i < 50000; i++ {
		op := g.Next()
		if op.Mem {
			memOps++
			if op.Store {
				stores++
			}
		}
	}
	got := float64(stores) / float64(memOps)
	if got < 0.3 || got > 0.7 {
		t.Fatalf("store fraction %.3f, want ~0.5", got)
	}
}

func TestMispredictsPresent(t *testing.T) {
	spec, _ := ByName("mcf")
	g := NewGenerator(spec, 1)
	mispred := 0
	for i := 0; i < 100000; i++ {
		if g.Next().Mispredict {
			mispred++
		}
	}
	if mispred == 0 {
		t.Fatal("no mispredicted branches generated")
	}
}

func TestGeneratorPanicsOnBadSpec(t *testing.T) {
	cases := []Spec{
		{Name: "x", Footprint: 0, MemFrac: 0.5},
		{Name: "x", Footprint: mb, MemFrac: 0},
		{Name: "x", Footprint: mb, MemFrac: 1.5},
	}
	for i, s := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			NewGenerator(s, 1)
		}()
	}
}

func TestUnknownPatternPanics(t *testing.T) {
	g := NewGenerator(Spec{Name: "x", Footprint: mb, MemFrac: 0.5, Pattern: Pattern(99)}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown pattern did not panic")
		}
	}()
	for i := 0; i < 10; i++ {
		g.Next()
	}
}

func TestPatternString(t *testing.T) {
	want := map[Pattern]string{Streaming: "streaming", Strided: "strided", RandomAccess: "random", PointerChase: "chase", Mixed: "mixed", Pattern(9): "unknown"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
}

var sinkOp cpu.UOp

func BenchmarkGeneratorNext(b *testing.B) {
	spec, _ := ByName("S.all")
	g := NewGenerator(spec, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkOp = g.Next()
	}
}

func TestSharedSpecsValidateAndResolve(t *testing.T) {
	if len(SharedSpecs) != 3 {
		t.Fatalf("len(SharedSpecs) = %d, want 3", len(SharedSpecs))
	}
	for _, s := range SharedSpecs {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %s: %v", s.Name, err)
		}
		if !s.Pattern.SharedPattern() {
			t.Errorf("spec %s: pattern %s is not a shared pattern", s.Name, s.Pattern)
		}
		got, ok := ByName(s.Name)
		if !ok || got.SharedBytes != s.SharedBytes {
			t.Errorf("ByName(%q) = %+v, %v", s.Name, got, ok)
		}
	}
}

func TestSharedPatternsEmitSharedOps(t *testing.T) {
	for _, s := range SharedSpecs {
		g := NewGenerator(s, 42)
		var shared, stores int
		for i := 0; i < 5000; i++ {
			op := g.Next()
			if !op.Mem {
				continue
			}
			if op.Shared {
				shared++
				if op.VAddr >= s.SharedBytes+64 {
					t.Fatalf("%s: shared access at %#x outside region %#x", s.Name, op.VAddr, s.SharedBytes)
				}
				if op.Store {
					stores++
				}
			}
		}
		if shared == 0 {
			t.Errorf("%s: no shared accesses in 5000 μops", s.Name)
		}
		if stores == 0 {
			t.Errorf("%s: no shared stores in 5000 μops", s.Name)
		}
	}
}
