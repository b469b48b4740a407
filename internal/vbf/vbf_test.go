package vbf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixSetGetClear(t *testing.T) {
	m := NewMatrix(8)
	if m.Size() != 8 || m.Bits() != 64 {
		t.Fatalf("Size/Bits = %d/%d", m.Size(), m.Bits())
	}
	m.Set(5, 2)
	if !m.Get(5, 2) {
		t.Fatal("Get after Set = false")
	}
	if m.Get(5, 3) || m.Get(2, 5) {
		t.Fatal("unset bits read true")
	}
	m.Clear(5, 2)
	if m.Get(5, 2) {
		t.Fatal("Get after Clear = true")
	}
}

func TestMatrixLargerThan64(t *testing.T) {
	m := NewMatrix(130)
	for _, c := range []int{0, 63, 64, 100, 129} {
		m.Set(129, c)
	}
	if m.PopRow(129) != 5 {
		t.Fatalf("PopRow = %d, want 5", m.PopRow(129))
	}
	if c, ok := m.NextSet(129, 64); !ok || c != 64 {
		t.Fatalf("NextSet(129,64) = %d,%v", c, ok)
	}
	if c, ok := m.NextSet(129, 65); !ok || c != 100 {
		t.Fatalf("NextSet(129,65) = %d,%v", c, ok)
	}
	if _, ok := m.NextSet(129, 130); ok {
		t.Fatal("NextSet beyond range should fail")
	}
}

func TestMatrixRowEmpty(t *testing.T) {
	m := NewMatrix(16)
	if !m.RowEmpty(3) {
		t.Fatal("fresh row not empty")
	}
	m.Set(3, 15)
	if m.RowEmpty(3) {
		t.Fatal("row with bit set reads empty")
	}
	m.Reset()
	if !m.RowEmpty(3) {
		t.Fatal("Reset did not clear")
	}
}

func TestMatrixNextSetFromNegative(t *testing.T) {
	m := NewMatrix(8)
	m.Set(0, 0)
	if c, ok := m.NextSet(0, -5); !ok || c != 0 {
		t.Fatalf("NextSet(0,-5) = %d,%v want 0,true", c, ok)
	}
}

func TestMatrixBoundsPanic(t *testing.T) {
	m := NewMatrix(8)
	for _, f := range []func(){
		func() { m.Set(8, 0) },
		func() { m.Set(0, 8) },
		func() { m.Get(-1, 0) },
		func() { m.Clear(0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestNewMatrixPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(0) did not panic")
		}
	}()
	NewMatrix(0)
}

// TestFigure8Walkthrough reproduces the exact example of Figure 8 in the
// paper: an 8-entry MSHR receiving misses to addresses 13, 22, 29 and 45.
func TestFigure8Walkthrough(t *testing.T) {
	tb := NewTable(8)

	// (a) Miss on 13: home 13 mod 8 = 5 -> entry 5, VBF row 5 col 0.
	slot, ok := tb.Allocate(13)
	if !ok || slot != 5 {
		t.Fatalf("alloc 13 -> slot %d, want 5", slot)
	}
	if !tb.Matrix().Get(5, 0) {
		t.Fatal("(a) VBF[5][0] not set")
	}

	// (b) Miss on 22: home 6 -> entry 6, row 6 col 0.
	slot, ok = tb.Allocate(22)
	if !ok || slot != 6 {
		t.Fatalf("alloc 22 -> slot %d, want 6", slot)
	}
	if !tb.Matrix().Get(6, 0) {
		t.Fatal("(b) VBF[6][0] not set")
	}

	// (c) Miss on 29: home 5 occupied, next free is entry 7 (two past
	// home), so row 5 col 2 is set.
	slot, ok = tb.Allocate(29)
	if !ok || slot != 7 {
		t.Fatalf("alloc 29 -> slot %d, want 7", slot)
	}
	if !tb.Matrix().Get(5, 2) {
		t.Fatal("(c) VBF[5][2] not set")
	}
	// Miss on 45: home 5, wraps to entry 0 (three past home).
	slot, ok = tb.Allocate(45)
	if !ok || slot != 0 {
		t.Fatalf("alloc 45 -> slot %d, want 0", slot)
	}
	if !tb.Matrix().Get(5, 3) {
		t.Fatal("(c) VBF[5][3] not set")
	}

	// (d) Search 29: parallel probe of entry 5 misses; VBF says next
	// candidate is two away; entry 7 hits. Two probes total.
	slot, probes, found := tb.Search(29)
	if !found || slot != 7 || probes != 2 {
		t.Fatalf("(d) Search(29) = slot %d probes %d found %v, want 7,2,true", slot, probes, found)
	}

	// (e) Deallocate 29: entry 7 freed, VBF row 5 col 2 cleared.
	tb.Free(7)
	if tb.Matrix().Get(5, 2) {
		t.Fatal("(e) VBF[5][2] not cleared on dealloc")
	}

	// (f) Search 45: probe entry 5 (miss), next set bit is col 3 ->
	// entry (5+3) mod 8 = 0, hit. Two probes — the paper notes plain
	// linear probing would have needed four (entries 5, 6, 7, 0).
	slot, probes, found = tb.Search(45)
	if !found || slot != 0 || probes != 2 {
		t.Fatalf("(f) Search(45) = slot %d probes %d found %v, want 0,2,true", slot, probes, found)
	}
	_, linProbes, linFound := tb.SearchLinear(45)
	if !linFound || linProbes != 4 {
		t.Fatalf("(f) linear Search(45) probes = %d found %v, want 4,true", linProbes, linFound)
	}
}

func TestTableDefiniteMissIsOneProbe(t *testing.T) {
	tb := NewTable(8)
	tb.Allocate(13) // row 5 in use
	// Address with home 2: row 2 is all-zero -> definite miss after the
	// mandatory parallel probe.
	_, probes, found := tb.Search(2)
	if found || probes != 1 {
		t.Fatalf("Search(2) = probes %d found %v, want 1,false", probes, found)
	}
}

func TestTableMissWithCollisionsProbesOnlySetBits(t *testing.T) {
	tb := NewTable(8)
	tb.Allocate(5)  // home 5, slot 5
	tb.Allocate(13) // home 5, slot 6
	tb.Allocate(21) // home 5, slot 7
	// Searching another home-5 address that is absent probes slot 5
	// (mandatory) then slots 6 and 7 (set bits), never the empty slots.
	_, probes, found := tb.Search(29)
	if found || probes != 3 {
		t.Fatalf("Search(29) = probes %d found %v, want 3,false", probes, found)
	}
}

func TestTableFullAllocationFails(t *testing.T) {
	tb := NewTable(4)
	for i := 0; i < 4; i++ {
		if _, ok := tb.Allocate(uint64(i)); !ok {
			t.Fatalf("Allocate %d failed early", i)
		}
	}
	if !tb.Full() {
		t.Fatal("Full() = false at capacity")
	}
	if _, ok := tb.Allocate(99); ok {
		t.Fatal("Allocate succeeded beyond capacity")
	}
}

func TestTableLimit(t *testing.T) {
	tb := NewTable(8)
	tb.SetLimit(2)
	if tb.Limit() != 2 {
		t.Fatalf("Limit = %d, want 2", tb.Limit())
	}
	tb.Allocate(1)
	tb.Allocate(2)
	if _, ok := tb.Allocate(3); ok {
		t.Fatal("Allocate exceeded limit")
	}
	// Raising the limit re-enables allocation.
	tb.SetLimit(4)
	if _, ok := tb.Allocate(3); !ok {
		t.Fatal("Allocate failed below raised limit")
	}
	// Clamping.
	tb.SetLimit(0)
	if tb.Limit() != 1 {
		t.Fatalf("Limit clamped to %d, want 1", tb.Limit())
	}
	tb.SetLimit(100)
	if tb.Limit() != 8 {
		t.Fatalf("Limit clamped to %d, want 8", tb.Limit())
	}
}

func TestTableLoweredLimitDoesNotEvict(t *testing.T) {
	tb := NewTable(8)
	for i := 0; i < 6; i++ {
		tb.Allocate(uint64(i))
	}
	tb.SetLimit(2)
	if tb.Len() != 6 {
		t.Fatalf("Len = %d after lowering limit, want 6", tb.Len())
	}
	// Existing entries stay searchable.
	for i := 0; i < 6; i++ {
		if _, _, found := tb.Search(uint64(i)); !found {
			t.Fatalf("entry %d lost after limit change", i)
		}
	}
}

func TestTableFreePanics(t *testing.T) {
	tb := NewTable(4)
	for _, slot := range []int{-1, 4, 1} { // 1 is unoccupied
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Free(%d) did not panic", slot)
				}
			}()
			tb.Free(slot)
		}()
	}
}

func TestTableWrapAroundAllocation(t *testing.T) {
	tb := NewTable(4)
	// All keys home to slot 3; they must wrap to 0, 1, 2.
	keys := []uint64{3, 7, 11, 15}
	wantSlots := []int{3, 0, 1, 2}
	for i, k := range keys {
		slot, ok := tb.Allocate(k)
		if !ok || slot != wantSlots[i] {
			t.Fatalf("Allocate(%d) = %d,%v want %d", k, slot, ok, wantSlots[i])
		}
	}
	for i, k := range keys {
		slot, _, found := tb.Search(k)
		if !found || slot != wantSlots[i] {
			t.Fatalf("Search(%d) = %d,%v", k, slot, found)
		}
	}
}

// TestLinearAcceptsAnySize fills a table whose size is not a power of
// two with keys that all home to slot 0, then frees them out of order:
// every free must clear the bit its allocation set (the probe index is
// the slot's distance from home), leaving row 0 empty.
func TestLinearAcceptsAnySize(t *testing.T) {
	tb := NewTable(12)
	slots := make([]int, 12)
	for i := range slots {
		var ok bool
		if slots[i], ok = tb.Allocate(uint64(i * 12)); !ok {
			t.Fatalf("Allocate %d failed", i)
		}
	}
	if !tb.Full() {
		t.Fatal("table not full after n allocations")
	}
	for _, i := range []int{7, 0, 11, 3, 5, 1, 9, 2, 10, 4, 8, 6} {
		tb.Free(slots[i])
	}
	if tb.Len() != 0 || !tb.Matrix().RowEmpty(0) {
		t.Fatalf("after freeing everything: %d live, row 0 empty = %v", tb.Len(), tb.Matrix().RowEmpty(0))
	}
}

func TestTableReset(t *testing.T) {
	tb := NewTable(8)
	tb.Allocate(13)
	tb.SetLimit(4)
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatal("Reset left live entries")
	}
	if tb.Limit() != 4 {
		t.Fatal("Reset changed the limit")
	}
	if _, _, found := tb.Search(13); found {
		t.Fatal("Reset entry still searchable")
	}
}

// TestVBFAgreesWithLinearProperty drives a random allocate/free/search
// workload and checks three invariants: (1) VBF search and linear search
// always agree on membership, (2) the VBF never produces a false negative
// against a shadow map, and (3) VBF probes never exceed linear probes.
func TestVBFAgreesWithLinearProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable(16)
		shadow := map[uint64]int{} // key -> slot
		for op := 0; op < 400; op++ {
			switch rng.Intn(3) {
			case 0: // allocate a new key
				key := uint64(rng.Intn(64))
				if _, dup := shadow[key]; dup {
					continue
				}
				if slot, ok := tb.Allocate(key); ok {
					shadow[key] = slot
				}
			case 1: // free a random live key
				for key, slot := range shadow {
					tb.Free(slot)
					delete(shadow, key)
					break
				}
			case 2: // search a random key
				key := uint64(rng.Intn(64))
				slot, probes, found := tb.Search(key)
				linSlot, linProbes, linFound := tb.SearchLinear(key)
				wantSlot, want := shadow[key]
				if found != want || linFound != want {
					return false
				}
				if want && (slot != wantSlot || linSlot != wantSlot) {
					return false
				}
				if probes > linProbes {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestVBFLiveCountMatchesMatrixPopulation checks that the number of set
// filter bits always equals the number of live entries.
func TestVBFLiveCountMatchesMatrixPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tb := NewTable(32)
	slots := []int{}
	for op := 0; op < 2000; op++ {
		if rng.Intn(2) == 0 && !tb.Full() {
			if s, ok := tb.Allocate(rng.Uint64()); ok {
				slots = append(slots, s)
			}
		} else if len(slots) > 0 {
			i := rng.Intn(len(slots))
			tb.Free(slots[i])
			slots = append(slots[:i], slots[i+1:]...)
		}
		pop := 0
		for r := 0; r < 32; r++ {
			pop += tb.Matrix().PopRow(r)
		}
		if pop != tb.Len() {
			t.Fatalf("op %d: %d set bits for %d live entries", op, pop, tb.Len())
		}
	}
}

func BenchmarkVBFSearchHalfFull(b *testing.B) {
	tb := NewTable(32)
	for i := 0; i < 16; i++ {
		tb.Allocate(uint64(i * 7))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Search(uint64((i * 7) % 112))
	}
}

func BenchmarkLinearSearchHalfFull(b *testing.B) {
	tb := NewTable(32)
	for i := 0; i < 16; i++ {
		tb.Allocate(uint64(i * 7))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.SearchLinear(uint64((i * 7) % 112))
	}
}
