package coherence

import (
	"testing"
	"unsafe"

	"stackedsim/internal/mem"
)

// TestDirEntryFitsOneSlot pins the table's layout: an entry with its
// first sharer word inline is one 64-byte host cache line, so the probe
// that finds a line has loaded everything a ≤ 64-core protocol step
// reads.
func TestDirEntryFitsOneSlot(t *testing.T) {
	if n := unsafe.Sizeof(dirEntry{}); n > 64 {
		t.Fatalf("dirEntry is %d bytes, want at most 64", n)
	}
}

// fuzzKeys is FuzzDirTable's key universe: 16 lines whose home is the
// last slot and 8 whose home is slot 0 at every table size up to 128
// slots, so their probe runs wrap past the end of the array into each
// other, then 40 lines wherever they hash.
func fuzzKeys() []mem.Addr {
	tb := newDirTable(1, 128)
	var wrap, zero, plain []mem.Addr
	for n := mem.Addr(1); len(wrap) < 16 || len(zero) < 8 || len(plain) < 40; n++ {
		line := n * 64
		switch h := tb.home(line + 1); {
		case h == 127 && len(wrap) < 16:
			wrap = append(wrap, line)
		case h == 0 && len(zero) < 8:
			zero = append(zero, line)
		case h != 0 && h != 127 && len(plain) < 40:
			plain = append(plain, line)
		}
	}
	return append(append(wrap, zero...), plain...)
}

// FuzzDirTable drives the directory table against a map through
// inserts, removals and the growth they cause. Each op byte names a key
// (low six bits) and an operation (top two: insert, remove, or a
// lookup). Every live entry carries its key's owner and sharers, which
// must survive the moves; after every operation each live key is found
// with its payload, each other key is absent and every free slot is
// clear.
func FuzzDirTable(f *testing.F) {
	// The last-slot run wraps into slot 0; removing its head must pull
	// the wrapped entries back across the end.
	f.Add(uint8(64), []byte{0x00, 0x01, 0x02, 0x10, 0x40, 0x80, 0x81, 0x82, 0x41, 0x90})
	f.Add(uint8(200), []byte{0x00, 0x10, 0x01, 0x11, 0x02, 0x12, 0x03, 0x40, 0x50, 0x41, 0x51, 0x42, 0x43})
	// Enough inserts to grow 8 → 16 → 32 → 64 with wrapped runs live.
	grow := make([]byte, 0, 128)
	for k := byte(0); k < 48; k++ {
		grow = append(grow, k)
	}
	for k := byte(0); k < 48; k += 3 {
		grow = append(grow, 0x40|k, 0x80|(k+1))
	}
	f.Add(uint8(255), grow)
	f.Add(uint8(1), []byte{0x18, 0x19, 0x00, 0x01, 0x1a, 0x02, 0x58, 0x40, 0x59, 0x41, 0x5a, 0x42, 0xc0})

	keys := fuzzKeys()
	f.Fuzz(func(t *testing.T, c uint8, ops []byte) {
		cores := int(c) + 1
		tb := newDirTable(cores, 8)
		shadow := map[mem.Addr]int{} // line -> key index
		fill := func(i, k int) {
			tb.slots[i].owner = k
			tb.setSharer(i, k%cores)
			tb.setSharer(i, cores-1-k%cores)
		}
		for n, op := range ops {
			k := int(op & 63)
			line := keys[k]
			switch op >> 6 {
			case 0, 3:
				if _, live := shadow[line]; !live {
					fill(tb.insert(line), k)
					shadow[line] = k
				}
			case 1:
				if _, live := shadow[line]; live {
					tb.remove(tb.find(line))
					delete(shadow, line)
				}
			}
			if tb.live != len(shadow) {
				t.Fatalf("op %d: %d live entries, want %d", n, tb.live, len(shadow))
			}
			for k, line := range keys {
				i := tb.find(line)
				if _, live := shadow[line]; !live {
					if i >= 0 {
						t.Fatalf("op %d: removed key %d found in slot %d", n, k, i)
					}
					continue
				}
				switch {
				case i < 0:
					t.Fatalf("op %d: live key %d not found", n, k)
				case tb.slots[i].owner != k:
					t.Fatalf("op %d: key %d's slot holds owner %d", n, k, tb.slots[i].owner)
				case !tb.isSharer(i, k%cores) || !tb.isSharer(i, cores-1-k%cores):
					t.Fatalf("op %d: key %d lost its sharers", n, k)
				}
				want := 2
				if k%cores == cores-1-k%cores {
					want = 1
				}
				if got := tb.sharerCount(i); got != want {
					t.Fatalf("op %d: key %d has %d sharers, want %d", n, k, got, want)
				}
			}
			for i := range tb.slots {
				if tb.slots[i].key != 0 {
					continue
				}
				if tb.slots[i].sharers != 0 || tb.sharerCount(i) != 0 || len(tb.slots[i].deferred) != 0 {
					t.Fatalf("op %d: free slot %d is not clear", n, i)
				}
			}
		}
	})
}

// BenchmarkDirectoryFind times one bank's line lookup: a table holding
// 8 k lines, half the lookups for lines it does not hold, consecutive
// lookups far apart so that the slot is cold in the host's caches, as
// it is in the machine.
func BenchmarkDirectoryFind(b *testing.B) {
	const lines = 8192
	tb := newDirTable(64, dirTableSlots)
	for n := 0; n < lines; n++ {
		tb.insert(mem.Addr(2*n) * 64)
	}
	n := 0
	for b.Loop() {
		l := n * 4099 % (2 * lines)
		if found := tb.find(mem.Addr(l)*64) >= 0; found != (l%2 == 0) {
			b.Fatalf("line %d: found = %v", l, found)
		}
		n++
	}
}
