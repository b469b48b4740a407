// Package tlb models the translation lookaside buffers of Table 1
// (32-entry 4-way ITLB, 64-entry 4-way DTLB). A miss costs a fixed
// page-walk penalty added to the issuing operation's ready time.
package tlb

import (
	"fmt"
	"math/bits"

	"stackedsim/internal/mem"
)

// noFrame marks an entry not yet given its page's frame: page bases are
// page-aligned, so no frame starts at the all-ones address.
const noFrame = ^mem.Addr(0)

type entry struct {
	vpage uint64
	frame mem.Addr // physical page base, noFrame until the entry's first hit
	valid bool
	used  uint64
}

// TLB is a set-associative translation cache keyed by virtual page
// number over one page table. An entry holds its page's physical base:
// the first hit after a fill asks the page table (which allocates the
// frame on first touch) and every later hit answers from the entry. A
// page's frame never changes once allocated, so a held base cannot go
// stale.
type TLB struct {
	ways      int
	setMask   uint64 // sets-1: a page's set is the low bits of its number
	pageShift uint   // log2 of the page size
	offMask   uint64 // the page-offset bits of an address
	pt        *mem.PageTable
	ents      []entry
	clock     uint64
}

// New returns a TLB over page table pt with entries total entries and
// the given associativity; the set count must be a power of two.
func New(entries, ways int, pt *mem.PageTable) *TLB {
	if ways < 1 || entries < ways || entries%ways != 0 || (entries/ways)&(entries/ways-1) != 0 {
		panic(fmt.Sprintf("tlb: %d entries / %d ways invalid", entries, ways))
	}
	sets := entries / ways
	return &TLB{
		ways:      ways,
		setMask:   uint64(sets - 1),
		pageShift: uint(bits.TrailingZeros64(pt.PageBytes())),
		offMask:   pt.PageBytes() - 1,
		pt:        pt,
		ents:      make([]entry, entries),
	}
}

// setBase reports where vpage's set starts in ents.
func (t *TLB) setBase(vpage uint64) int { return int(vpage&t.setMask) * t.ways }

// Access looks up v's page, inserting it on a miss (hardware-walked TLB).
// A hit reports v's physical address; a miss reports false and leaves the
// frame unallocated — the walk is paid before the retry that hits.
func (t *TLB) Access(v mem.VAddr) (mem.Addr, bool) {
	vpage := uint64(v) >> t.pageShift
	base := t.setBase(vpage)
	victim := base
	var oldest uint64 = ^uint64(0)
	for w := 0; w < t.ways; w++ {
		e := &t.ents[base+w]
		if e.valid && e.vpage == vpage {
			t.clock++
			e.used = t.clock
			off := mem.Addr(uint64(v) & t.offMask)
			if e.frame == noFrame {
				e.frame = t.pt.Translate(v) - off
			}
			return e.frame | off, true
		}
		if !e.valid {
			oldest = 0
			victim = base + w
		} else if e.used < oldest {
			oldest = e.used
			victim = base + w
		}
	}
	t.clock++
	t.ents[victim] = entry{vpage: vpage, frame: noFrame, valid: true, used: t.clock}
	return 0, false
}
