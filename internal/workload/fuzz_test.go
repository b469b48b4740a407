package workload

import "testing"

// FuzzSpec drives NewGenerator with arbitrary spec parameters: any
// spec that Validate accepts must generate a μop stream without
// panicking, and every cold memory μop must stay inside the declared
// footprint (hot-ring accesses live at hotBase and above).
func FuzzSpec(f *testing.F) {
	f.Add(uint64(1<<20), int(Streaming), uint64(32), uint64(32), 2, 0.5, 0.3, 0.0, 0.5, 0.001, uint64(0))
	f.Add(uint64(64<<20), int(Strided), uint64(256), uint64(64), 4, 0.33, 0.2, 0.0, 0.24, 0.002, uint64(0))
	f.Add(uint64(48<<20), int(RandomAccess), uint64(0), uint64(0), 0, 0.4, 0.05, 0.0, 0.34, 0.004, uint64(0))
	f.Add(uint64(48<<20), int(PointerChase), uint64(0), uint64(0), 0, 0.32, 0.1, 0.0, 0.11, 0.008, uint64(0))
	f.Add(uint64(32<<20), int(Mixed), uint64(0), uint64(0), 0, 0.3, 0.25, 0.9, 0.03, 0.006, uint64(0))
	f.Add(uint64(63), int(RandomAccess), uint64(0), uint64(0), 0, 0.4, 0.2, 0.0, 1.0, 0.0, uint64(0))     // sub-line footprint
	f.Add(uint64(1<<10), int(Streaming), uint64(0), uint64(64), 1, 0.5, 0.5, 0.0, 1.0, 0.0, uint64(0))    // zero stride
	f.Add(uint64(1<<10), int(Streaming), uint64(64), uint64(4096), 1, 0.5, 0.5, 0.0, 1.0, 0.0, uint64(0)) // element > stream
	// Shared-data patterns (coherence microbenchmarks).
	f.Add(uint64(4<<20), int(ProducerConsumer), uint64(0), uint64(0), 0, 0.35, 0.5, 0.0, 1.0, 0.002, uint64(256<<10))
	f.Add(uint64(4<<20), int(LockContended), uint64(0), uint64(0), 0, 0.3, 0.5, 0.0, 1.0, 0.004, uint64(32<<10))
	f.Add(uint64(4<<20), int(ReadMostlyShared), uint64(0), uint64(0), 0, 0.35, 0.02, 0.0, 1.0, 0.002, uint64(2<<20))
	f.Add(uint64(4<<20), int(LockContended), uint64(0), uint64(0), 0, 0.3, 0.5, 0.0, 1.0, 0.0, uint64(63))    // sub-line shared region
	f.Add(uint64(4<<20), int(ProducerConsumer), uint64(0), uint64(0), 0, 0.3, 0.5, 0.0, 1.0, 0.0, uint64(64)) // one-line ring
	f.Fuzz(func(t *testing.T, footprint uint64, pattern int, stride, elem uint64, streams int,
		memFrac, storeFrac, randFrac, coldFrac, mispred float64, sharedBytes uint64) {
		s := Spec{
			Name:        "fuzz",
			Pattern:     Pattern(pattern),
			Footprint:   footprint % (1 << 32), // bound memory use
			Streams:     streams,
			ElemBytes:   elem,
			Stride:      stride,
			MemFrac:     memFrac,
			StoreFrac:   storeFrac,
			RandFrac:    randFrac,
			ColdFrac:    coldFrac,
			Mispred:     mispred,
			SharedBytes: sharedBytes % (1 << 32),
		}
		if err := s.Validate(); err != nil {
			t.Skip()
		}
		g := NewGenerator(s, 1)
		for i := 0; i < 2000; i++ {
			op := g.Next()
			if !op.Mem {
				continue
			}
			if op.VAddr >= hotBase {
				continue // hot-ring access
			}
			if op.Shared {
				// Shared μops live in the process-wide region and are
				// bounded by SharedBytes, not the private footprint.
				if op.VAddr >= s.SharedBytes+64 {
					t.Fatalf("shared μop %d at %#x escapes shared region %#x (pattern %s)",
						i, op.VAddr, s.SharedBytes, s.Pattern)
				}
				continue
			}
			if s.Pattern.SharedPattern() {
				t.Fatalf("μop %d: %s pattern emitted a private memory access at %#x",
					i, s.Pattern, op.VAddr)
			}
			// randomLine picks a line start inside the footprint; the
			// access itself may extend up to a line past it.
			if op.VAddr >= s.Footprint+64 {
				t.Fatalf("μop %d at %#x escapes footprint %#x (pattern %s)",
					i, op.VAddr, s.Footprint, s.Pattern)
			}
		}
	})
}

// TestSpecsAndCapacityValidate pins that every shipped spec — the
// Table 2a list and the synthetic capacity series — passes Validate,
// and that ByName round-trips capacity names.
func TestSpecsAndCapacityValidate(t *testing.T) {
	for _, s := range Specs {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %s: %v", s.Name, err)
		}
	}
	for _, sz := range []int{1, 2, 4, 8, 16, 32} {
		s := CapacitySpec(sz)
		if err := s.Validate(); err != nil {
			t.Errorf("capacity %dMB: %v", sz, err)
		}
		got, ok := ByName(s.Name)
		if !ok || got.Footprint != s.Footprint {
			t.Errorf("ByName(%q) = %+v, %v", s.Name, got, ok)
		}
	}
	if _, ok := ByName("cap0m"); ok {
		t.Error("ByName accepted cap0m")
	}
	if _, ok := ByName("capXm"); ok {
		t.Error("ByName accepted capXm")
	}
}
