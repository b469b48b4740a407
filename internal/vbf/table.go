package vbf

import "fmt"

// Table is a direct-mapped, open-addressed table indexed by a Vector
// Bloom Filter — the complete Section 5.2 MSHR storage structure,
// reusable independently of the simulator. Keys are opaque uint64s (the
// MSHR stores line addresses).
//
// Slots are found with the hash key % N. On a collision the next free
// slot of the linear probe sequence (home, home+1, ...) is used, and the
// home row's bit for the probe index is set in the filter.
type Table struct {
	m        *Matrix
	keys     []uint64
	occupied []bool
	live     int
	limit    int // active capacity (<= len(keys)); dynamic resizing hook
}

// NewTable returns an empty table with n slots.
func NewTable(n int) *Table {
	if n < 1 {
		panic(fmt.Sprintf("vbf: table size %d must be >= 1", n))
	}
	return &Table{
		m:        NewMatrix(n),
		keys:     make([]uint64, n),
		occupied: make([]bool, n),
		limit:    n,
	}
}

// Cap reports the total slot count.
func (t *Table) Cap() int { return len(t.keys) }

// Limit reports the active capacity (see SetLimit).
func (t *Table) Limit() int { return t.limit }

// SetLimit restricts the table to its first limit slots, implementing the
// paper's dynamic MSHR capacity tuning (1×, ½×, ¼× of maximum). Lowering
// the limit never evicts live entries — allocation simply refuses when
// live >= limit — so in-flight misses drain naturally. limit is clamped
// to [1, Cap].
func (t *Table) SetLimit(limit int) {
	if limit < 1 {
		limit = 1
	}
	if limit > len(t.keys) {
		limit = len(t.keys)
	}
	t.limit = limit
}

// Len reports the number of live entries.
func (t *Table) Len() int { return t.live }

// Full reports whether allocation would fail.
func (t *Table) Full() bool { return t.live >= t.limit }

// Matrix exposes the underlying filter (read-only use intended).
func (t *Table) Matrix() *Matrix { return t.m }

func (t *Table) home(key uint64) int { return int(key % uint64(len(t.keys))) }

// Allocate inserts key and returns its slot, or ok=false when the table
// is at its active limit. The caller is responsible for not inserting a
// key that is already present (MSHRs search before allocating and merge
// secondary misses).
func (t *Table) Allocate(key uint64) (slot int, ok bool) {
	if t.Full() {
		return 0, false
	}
	n := len(t.keys)
	h := t.home(key)
	for d := 0; d < n; d++ {
		s := (h + d) % n
		if !t.occupied[s] {
			t.occupied[s] = true
			t.keys[s] = key
			t.m.Set(h, d)
			t.live++
			return s, true
		}
	}
	// live < limit <= n yet no free slot: impossible unless state is
	// corrupted.
	panic("vbf: occupancy inconsistent with live count")
}

// Search looks up key. probes is the number of table-entry accesses,
// including the mandatory first access that happens in parallel with the
// filter read; an all-zero row is a definite miss and still costs that
// single parallel access.
func (t *Table) Search(key uint64) (slot, probes int, found bool) {
	n := len(t.keys)
	h := t.home(key)
	// The home entry is probed in parallel with the VBF row read.
	probes = 1
	if t.occupied[h] && t.keys[h] == key {
		return h, probes, true
	}
	if t.m.RowEmpty(h) {
		return 0, probes, false
	}
	// Walk the remaining set bits of the row in probe-index order.
	// Index 0 (the home slot) was already covered by the mandatory
	// probe.
	for d, ok := t.m.NextSet(h, 1); ok; d, ok = t.m.NextSet(h, d+1) {
		s := (h + d) % n
		probes++
		if t.occupied[s] && t.keys[s] == key {
			return s, probes, true
		}
	}
	return 0, probes, false
}

// SearchLinear looks up key with plain linear probing and no filter: scan
// from the home slot until the key is found or every slot has been
// examined. This is the paper's strawman used to motivate the VBF.
func (t *Table) SearchLinear(key uint64) (slot, probes int, found bool) {
	n := len(t.keys)
	h := t.home(key)
	for d := 0; d < n; d++ {
		s := (h + d) % n
		probes++
		if t.occupied[s] && t.keys[s] == key {
			return s, probes, true
		}
	}
	return 0, probes, false
}

// Free releases the given slot, clearing its filter bit. It panics if the
// slot is not occupied (a double free is always a simulator bug).
func (t *Table) Free(slot int) {
	if slot < 0 || slot >= len(t.keys) || !t.occupied[slot] {
		panic(fmt.Sprintf("vbf: Free of empty or invalid slot %d", slot))
	}
	// The probe index a slot was allocated at is its distance from home.
	n := len(t.keys)
	h := t.home(t.keys[slot])
	t.m.Clear(h, (slot-h+n)%n)
	t.occupied[slot] = false
	t.keys[slot] = 0
	t.live--
}

// Reset empties the table without changing the limit.
func (t *Table) Reset() {
	t.m.Reset()
	for i := range t.keys {
		t.keys[i] = 0
		t.occupied[i] = false
	}
	t.live = 0
}
