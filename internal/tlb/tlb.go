// Package tlb models the translation lookaside buffers of Table 1
// (32-entry 4-way ITLB, 64-entry 4-way DTLB). A miss costs a fixed
// page-walk penalty added to the issuing operation's ready time.
package tlb

import (
	"fmt"
	"sort"
)

// Stats counts TLB events.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate reports misses/accesses.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type entry struct {
	vpage uint64
	valid bool
	used  uint64
}

// TLB is a set-associative translation cache keyed by virtual page
// number.
type TLB struct {
	sets  int
	ways  int
	ents  []entry
	clock uint64
	stats Stats
}

// New returns a TLB with entries total entries and the given
// associativity.
func New(entries, ways int) *TLB {
	if entries < 1 || ways < 1 || entries%ways != 0 {
		panic(fmt.Sprintf("tlb: %d entries / %d ways invalid", entries, ways))
	}
	return &TLB{sets: entries / ways, ways: ways, ents: make([]entry, entries)}
}

// Stats returns the counters.
func (t *TLB) Stats() *Stats { return &t.stats }

// Access looks up vpage, inserting it on a miss (hardware-walked TLB).
// It reports whether the access hit.
func (t *TLB) Access(vpage uint64) bool {
	t.stats.Accesses++
	set := int(vpage % uint64(t.sets))
	base := set * t.ways
	victim := base
	var oldest uint64 = ^uint64(0)
	for w := 0; w < t.ways; w++ {
		e := &t.ents[base+w]
		if e.valid && e.vpage == vpage {
			t.clock++
			e.used = t.clock
			return true
		}
		if !e.valid {
			oldest = 0
			victim = base + w
		} else if e.used < oldest {
			oldest = e.used
			victim = base + w
		}
	}
	t.stats.Misses++
	t.clock++
	t.ents[victim] = entry{vpage: vpage, valid: true, used: t.clock}
	return false
}

// Rehit leaves the TLB exactly as k consecutive Access(vpage) hits
// would: a caller that can prove its next k lookups are re-probes of a
// resident page (a core stalled on a full L1 MSHR file) settles them in
// one step instead of performing them.
func (t *TLB) Rehit(vpage uint64, k uint64) {
	base := int(vpage%uint64(t.sets)) * t.ways
	for w := 0; w < t.ways; w++ {
		if e := &t.ents[base+w]; e.valid && e.vpage == vpage {
			t.stats.Accesses += k
			t.clock += k
			e.used = t.clock
			return
		}
	}
	panic(fmt.Sprintf("tlb: Rehit of absent page %#x", vpage))
}

// ReplacementOrder lists the resident pages set by set, each set from
// least to most recently used — the order misses would evict them in.
func (t *TLB) ReplacementOrder() []uint64 {
	var out []uint64
	for base := 0; base < len(t.ents); base += t.ways {
		set := make([]entry, 0, t.ways)
		for _, e := range t.ents[base : base+t.ways] {
			if e.valid {
				set = append(set, e)
			}
		}
		sort.Slice(set, func(i, j int) bool { return set[i].used < set[j].used })
		for _, e := range set {
			out = append(out, e.vpage)
		}
	}
	return out
}

// ResetStats zeroes the counters (end of warmup).
func (t *TLB) ResetStats() { t.stats = Stats{} }
