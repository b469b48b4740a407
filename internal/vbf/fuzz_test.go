package vbf

import "testing"

// FuzzTableOps drives an arbitrary operation sequence against a shadow
// map: membership must always agree, probe counts must stay within the
// table size, and no operation may panic on valid inputs.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0, 0, 0, 128, 128, 64, 32, 16})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tb := NewTable(16)
		shadow := map[uint64]int{}
		for i := 0; i+1 < len(ops); i += 2 {
			key := uint64(ops[i+1] % 64)
			switch ops[i] % 3 {
			case 0:
				if _, dup := shadow[key]; dup {
					continue
				}
				if slot, ok := tb.Allocate(key); ok {
					shadow[key] = slot
				} else if len(shadow) < tb.Limit() {
					t.Fatalf("allocation failed below limit")
				}
			case 1:
				if slot, live := shadow[key]; live {
					tb.Free(slot)
					delete(shadow, key)
				}
			case 2:
				slot, probes, found := tb.Search(key)
				wantSlot, want := shadow[key]
				if found != want {
					t.Fatalf("Search(%d) found=%v want %v", key, found, want)
				}
				if want && slot != wantSlot {
					t.Fatalf("Search(%d) slot=%d want %d", key, slot, wantSlot)
				}
				if probes < 1 || probes > tb.Cap() {
					t.Fatalf("probes=%d out of range", probes)
				}
			}
			if tb.Len() != len(shadow) {
				t.Fatalf("Len=%d shadow=%d", tb.Len(), len(shadow))
			}
		}
	})
}
