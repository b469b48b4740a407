package coherence

import (
	"math/bits"

	"stackedsim/internal/mem"
)

// dirEntry tracks one line away from Invalid. It is a slot of its bank's
// dirTable: the table's array holds the entries themselves, one 64-byte
// slot each, so a lookup that finds the line has loaded its state and
// its sharers too.
type dirEntry struct {
	key mem.Addr // line + 1; zero marks a free slot
	// sharers is the exact sharer bitvector of cores 0-63; on a fabric
	// of more cores the table keeps the rest in its wide words.
	sharers uint64
	// req is the request being served while busy; reqWasSharer caches
	// its membership before the invalidations cleared the set.
	req *message
	// deferred queues requests that arrived while the line was busy,
	// replayed in order once it settles.
	deferred     []*message
	owner        int   // dirM / trBusyFwdS
	acksLeft     int32 // trBusyInv
	state        dstate
	reqWasSharer bool
}

// dirTable indexes one bank's lines: open addressing with linear
// probing over a power-of-two array of entries, grown by doubling
// before it is three-quarters full. Removal shifts the rest of the probe
// run back into the hole, so there are no tombstones, and a miss stops
// at the first free slot.
//
// An insert may grow the array and a removal moves other entries, so a
// slot index or *dirEntry is only good until the next insert or removal.
type dirTable struct {
	slots []dirEntry
	// wide holds the sharer words beyond the first, extra per slot:
	// slot i's are wide[i*extra : (i+1)*extra]. They move, clear and grow
	// with their slot; on 64 cores or fewer extra is zero and wide empty.
	wide  []uint64
	extra int
	live  int
	shift uint // 64 - log2(len(slots)): home keeps the hash's top bits
}

// newDirTable returns an empty table of slots entries (a power of two)
// for a fabric of cores cores.
func newDirTable(cores, slots int) dirTable {
	t := dirTable{extra: (cores+63)/64 - 1}
	t.alloc(slots)
	return t
}

// alloc gives the table an empty array of slots entries.
func (t *dirTable) alloc(slots int) {
	t.slots = make([]dirEntry, slots)
	t.wide = make([]uint64, slots*t.extra)
	t.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

// home is a key's first probe: Fibonacci hashing, whose top bits mix
// every bit of the line address.
func (t *dirTable) home(key mem.Addr) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns line's slot, or -1 when the line has no entry.
func (t *dirTable) find(line mem.Addr) int {
	key, mask := line+1, len(t.slots)-1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// insert gives line, which must have no entry, a fresh one at dirI and
// returns its slot.
func (t *dirTable) insert(line mem.Addr) int {
	if 4*(t.live+1) > 3*len(t.slots) {
		t.grow()
	}
	i := t.firstFree(line + 1)
	e := &t.slots[i]
	e.key, e.owner = line+1, -1
	t.live++
	return i
}

// firstFree returns the first free slot of key's probe run.
func (t *dirTable) firstFree(key mem.Addr) int {
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}

// remove frees slot i. Each later entry of the probe run whose home does
// not lie cyclically in (hole, j] moves back into the hole, which then
// moves to where it was; the freed entry's deferred slice, empty by now,
// keeps its capacity in the slot that ends up free.
func (t *dirTable) remove(i int) {
	keep := t.slots[i].deferred[:0]
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		h := t.home(t.slots[j].key)
		if i <= j && (h <= i || h > j) || i > j && h <= i && h > j {
			t.slots[i] = t.slots[j]
			copy(t.wideOf(i), t.wideOf(j))
			i = j
		}
	}
	t.slots[i] = dirEntry{deferred: keep}
	clear(t.wideOf(i))
	t.live--
}

// grow doubles the array and re-seats every entry.
func (t *dirTable) grow() {
	old := *t
	t.alloc(2 * len(old.slots))
	for i := range old.slots {
		if old.slots[i].key == 0 {
			continue
		}
		j := t.firstFree(old.slots[i].key)
		t.slots[j] = old.slots[i]
		copy(t.wideOf(j), old.wideOf(i))
	}
}

// entry returns slot i's entry, nil for i = -1 (no entry).
func (t *dirTable) entry(i int) *dirEntry {
	if i < 0 {
		return nil
	}
	return &t.slots[i]
}

func (t *dirTable) wideOf(i int) []uint64 { return t.wide[i*t.extra : (i+1)*t.extra] }

// word returns sharer word w (cores 64w to 64w+63) of slot i.
func (t *dirTable) word(i, w int) *uint64 {
	if w == 0 {
		return &t.slots[i].sharers
	}
	return &t.wide[i*t.extra+w-1]
}

func (t *dirTable) setSharer(i, c int) { *t.word(i, c/64) |= 1 << (c % 64) }

func (t *dirTable) isSharer(i, c int) bool { return *t.word(i, c/64)&(1<<(c%64)) != 0 }

func (t *dirTable) sharerCount(i int) int {
	n := bits.OnesCount64(t.slots[i].sharers)
	for _, w := range t.wideOf(i) {
		n += bits.OnesCount64(w)
	}
	return n
}

func (t *dirTable) clearSharers(i int) {
	t.slots[i].sharers = 0
	clear(t.wideOf(i))
}
