package cache

import (
	"testing"
	"testing/quick"

	"stackedsim/internal/config"
	"stackedsim/internal/mem"
)

func TestArrayGeometry(t *testing.T) {
	a := NewArrayBySize("L2", 12*1024*1024, 24, 64)
	if a.Sets() != 8192 || a.Ways() != 24 {
		t.Fatalf("geometry = %d sets x %d ways", a.Sets(), a.Ways())
	}
	if a.SizeBytes() != 12*1024*1024 {
		t.Fatalf("SizeBytes = %d", a.SizeBytes())
	}
}

// TestArrayOneWordPerWay: a way's key, flags and LRU stamp share one
// word, so the tag store is sets*ways words — a private L2's 8-way set is
// one 64-byte host line.
func TestArrayOneWordPerWay(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{{32, 12}, {512, 24}, {1024, 8}, {533, 24}, {3, 5}} {
		if a := NewArray("t", g.sets, g.ways, 64); len(a.tags) != g.sets*g.ways {
			t.Errorf("%d x %d: %d words, want %d", g.sets, g.ways, len(a.tags), g.sets*g.ways)
		}
	}
}

// TestArrayKeyRange: the last line number config.MaxLines admits fills,
// and the next one, whose key would not fit 32 bits, panics rather than
// alias a line it truncates to.
func TestArrayKeyRange(t *testing.T) {
	a := NewArray("t", 1, 2, 64)
	last := mem.Addr((config.MaxLines - 1) * 64)
	a.Fill(last, true)
	if !a.Contains(last) || a.Contains(0) {
		t.Fatal("the last line's key aliases another line")
	}
	if victim, dirty, _ := a.Fill(0, false); victim != 0 || dirty {
		t.Fatalf("second fill evicted %#x", uint64(victim))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a line beyond the 32-bit key filled")
		}
	}()
	a.Fill(last+64, false)
}

func TestArrayMissThenHit(t *testing.T) {
	a := NewArray("t", 16, 2, 64)
	if a.Lookup(0x1000) {
		t.Fatal("hit in empty cache")
	}
	a.Fill(0x1000, false)
	if !a.Lookup(0x1000) {
		t.Fatal("miss after fill")
	}
	if a.Stats().Lookups != 2 || a.Stats().Hits != 1 {
		t.Fatalf("stats = %+v", *a.Stats())
	}
}

func TestArrayLRUEviction(t *testing.T) {
	a := NewArray("t", 1, 2, 64) // one set, two ways
	a.Fill(0*64, false)
	a.Fill(1*64, false)
	a.Lookup(0) // touch line 0: line 1 becomes LRU
	victim, dirty, evicted := a.Fill(2*64, false)
	if !evicted || victim != 64 || dirty {
		t.Fatalf("evicted %#x dirty=%v evicted=%v, want 0x40,false,true", uint64(victim), dirty, evicted)
	}
	if a.Contains(64) {
		t.Fatal("victim still present")
	}
	if !a.Contains(0) || !a.Contains(2*64) {
		t.Fatal("wrong line evicted")
	}
}

func TestArrayDirtyEviction(t *testing.T) {
	a := NewArray("t", 1, 1, 64)
	a.Fill(0, false)
	if !a.MarkDirty(0) {
		t.Fatal("MarkDirty on present line failed")
	}
	victim, dirty, evicted := a.Fill(64, false)
	if !evicted || victim != 0 || !dirty {
		t.Fatalf("dirty eviction = %#x %v %v", uint64(victim), dirty, evicted)
	}
}

func TestArrayMarkDirtyAbsent(t *testing.T) {
	a := NewArray("t", 4, 1, 64)
	if a.MarkDirty(0x1000) {
		t.Fatal("MarkDirty on absent line succeeded")
	}
}

func TestArrayFillPresentPanics(t *testing.T) {
	a := NewArray("t", 4, 2, 64)
	a.Fill(0x100, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double Fill did not panic")
		}
	}()
	a.Fill(0x100, false)
}

func TestArrayInvalidate(t *testing.T) {
	a := NewArray("t", 4, 1, 64)
	a.Fill(0x100, true)
	present, dirty := a.Invalidate(0x100)
	if !present || !dirty {
		t.Fatalf("Invalidate = %v,%v", present, dirty)
	}
	if a.Contains(0x100) {
		t.Fatal("line survives Invalidate")
	}
	present, _ = a.Invalidate(0x100)
	if present {
		t.Fatal("Invalidate of absent line reported present")
	}
}

func TestArrayContainsDoesNotTouchStats(t *testing.T) {
	a := NewArray("t", 4, 1, 64)
	a.Fill(0x100, false)
	a.Contains(0x100)
	if a.Stats().Lookups != 0 {
		t.Fatal("Contains counted as lookup")
	}
}

func TestArrayNonPow2Sets(t *testing.T) {
	// 25-way 12.5MB-equivalent slice: sets stay addressable via modulo.
	a := NewArray("t", 100, 2, 64)
	for i := 0; i < 300; i++ {
		ln := mem.Addr(i * 64)
		if !a.Contains(ln) {
			a.Fill(ln, false)
		}
	}
	// Each of the 100 sets took three lines, 100 apart, in two ways:
	// the newer two stay.
	for i := 0; i < 300; i++ {
		if got, want := a.Contains(mem.Addr(i*64)), i >= 100; got != want {
			t.Fatalf("line %d resident = %t, want %t", i, got, want)
		}
	}
}

func TestArrayPanicsOnBadGeometry(t *testing.T) {
	cases := []func(){
		func() { NewArray("t", 0, 1, 64) },
		func() { NewArray("t", 1, 0, 64) },
		func() { NewArray("t", 1, 1, 60) },
		func() { NewArrayBySize("t", 1000, 3, 64) },
		func() { NewArrayBySize("t", 0, 1, 64) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestArrayMissRate(t *testing.T) {
	a := NewArray("t", 4, 1, 64)
	if a.Stats().MissRate() != 0 {
		t.Fatal("empty MissRate should be 0")
	}
	a.Lookup(0)
	a.Fill(0, false)
	a.Lookup(0)
	if a.Stats().MissRate() != 0.5 {
		t.Fatalf("MissRate = %v, want 0.5", a.Stats().MissRate())
	}
}

// Property: a filled line remains resident until at least `ways` other
// distinct fills map to its set.
func TestArrayResidencyProperty(t *testing.T) {
	f := func(seed uint8) bool {
		a := NewArray("t", 8, 4, 64)
		target := mem.Addr(uint64(seed) * 64 * 8) // always set 0 after mod
		target = target % (8 * 64) * 8            // keep small
		target = target &^ 63
		if a.Contains(target) {
			return true
		}
		a.Fill(target, false)
		// Fill 3 more lines into the same set: target must survive.
		set := (uint64(target) / 64) % 8
		for k := 1; k <= 3; k++ {
			other := mem.Addr((uint64(k)*8 + set) * 64)
			if other != target && !a.Contains(other) {
				a.Fill(other, false)
			}
		}
		return a.Contains(target)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: eviction victims always come from the same set as the fill.
func TestArrayVictimSameSetProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		a := NewArray("t", 16, 2, 64)
		for _, raw := range addrs {
			ln := mem.Addr(raw) &^ 63
			if a.Contains(ln) {
				continue
			}
			victim, _, evicted := a.Fill(ln, false)
			if evicted {
				if (uint64(victim)/64)%16 != (uint64(ln)/64)%16 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
