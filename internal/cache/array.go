// Package cache implements the cache hierarchy: passive set-associative
// arrays with LRU replacement, the L1 controllers (with MSHRs and
// prefetchers), and the banked shared L2 with its miss handling
// architecture — the structures whose organization Sections 4 and 5 of
// the paper rework for 3D stacking.
package cache

import (
	"fmt"
	"math/bits"

	"stackedsim/internal/mem"
)

// ArrayStats counts array-level events.
type ArrayStats struct {
	Lookups    uint64
	Hits       uint64
	Fills      uint64
	Evictions  uint64
	DirtyEvict uint64
}

// MissRate reports misses/lookups.
func (s *ArrayStats) MissRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Lookups-s.Hits) / float64(s.Lookups)
}

// A way's metadata word carries its LRU stamp above flagBits of flags —
// stamp<<flagBits | state<<stateShift | dirty: the dirty bit, then a state
// byte the array's owner defines (the private L2 keeps a line's MESI state
// there).
const (
	flagBits   = 9
	flagMask   = 1<<flagBits - 1
	dirtyFlag  = 1
	stateShift = 1
)

// prefetched is the state byte the L1 and the shared L2, whose arrays keep
// no other state there, give a line a prefetch installed and demand has
// not touched yet. Held in the way, the mark leaves with the line —
// eviction and Invalidate drop it — and a statistics reset keeps it.
const prefetched uint8 = 1

// Array is a passive set-associative cache array with true-LRU
// replacement. All addresses passed in must be line-aligned.
//
// The tag store is one slab of words, not an array of per-way structs: for
// each set in turn, its ways' keys and then its ways' metadata words. A
// key is the way's line number plus one (zero marks an invalid way), so
// the scan every operation starts with reads eight contiguous bytes a way
// and nothing else; the metadata — LRU stamp and flags — sits right behind
// the keys and is read only for the way a scan found and when a full set
// picks its victim. Stamps are unique, so the order of whole metadata
// words is the order of their stamps.
type Array struct {
	name      string
	sets      int
	ways      int
	lineBytes int
	lineShift uint
	setMask   uint64   // sets-1, used when sets is a power of two
	pow2      bool     // sets is a power of two
	tags      []uint64 // per set: ways keys, then ways metadata words
	clock     uint64   // LRU stamp source
	stats     ArrayStats
}

// NewArray returns an array with the given geometry. Sets may be any
// positive count (indexing uses modulo unless the count is a power of
// two), which lets the Figure 6a "+512KB / +1MB L2" variants widen
// associativity precisely.
func NewArray(name string, sets, ways, lineBytes int) *Array {
	if sets < 1 || ways < 1 {
		panic(fmt.Sprintf("cache %s: geometry %d sets x %d ways invalid", name, sets, ways))
	}
	if lineBytes < 1 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d must be a power of two", name, lineBytes))
	}
	return &Array{
		name:      name,
		sets:      sets,
		ways:      ways,
		lineBytes: lineBytes,
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setMask:   uint64(sets - 1),
		pow2:      sets&(sets-1) == 0,
		tags:      make([]uint64, 2*sets*ways),
	}
}

// NewArrayBySize derives the set count from a total size in bytes; the
// size must divide evenly into sets.
func NewArrayBySize(name string, sizeBytes, ways, lineBytes int) *Array {
	if sizeBytes <= 0 || sizeBytes%(ways*lineBytes) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by %d ways x %d bytes", name, sizeBytes, ways, lineBytes))
	}
	return NewArray(name, sizeBytes/(ways*lineBytes), ways, lineBytes)
}

// Sets reports the set count.
func (a *Array) Sets() int { return a.sets }

// Ways reports the associativity.
func (a *Array) Ways() int { return a.ways }

// SizeBytes reports the total capacity.
func (a *Array) SizeBytes() int { return a.sets * a.ways * a.lineBytes }

// Stats returns the counters.
func (a *Array) Stats() *ArrayStats { return &a.stats }

// index reports where lineAddr's set starts in the slab and the key a way
// holding the line carries.
func (a *Array) index(lineAddr mem.Addr) (base int, key uint64) {
	n := uint64(lineAddr) >> a.lineShift
	if a.pow2 {
		return int(n&a.setMask) * 2 * a.ways, n + 1
	}
	return int(n%uint64(a.sets)) * 2 * a.ways, n + 1
}

// find reports where the metadata word of lineAddr's way — the first
// matching one of its set — sits in the slab, or -1. The way's key is
// a.ways words before it.
func (a *Array) find(lineAddr mem.Addr) int {
	base, key := a.index(lineAddr)
	for w, k := range a.tags[base : base+a.ways] {
		if k == key {
			return base + a.ways + w
		}
	}
	return -1
}

// Lookup probes for lineAddr, updating LRU and stats on a hit.
func (a *Array) Lookup(lineAddr mem.Addr) bool {
	_, hit := a.LookupState(lineAddr)
	return hit
}

// LookupState is Lookup for an owner that keeps a state byte with each
// line: the scan that finds the way also reports its state (zero on a
// miss).
func (a *Array) LookupState(lineAddr mem.Addr) (state uint8, hit bool) {
	a.stats.Lookups++
	i := a.find(lineAddr)
	if i < 0 {
		return 0, false
	}
	a.stats.Hits++
	a.touch(i)
	return uint8(a.tags[i] >> stateShift), true
}

// Grant is the probe of an owner whose state byte decides whether a
// resident line can serve an access (a private L2's shared copy cannot
// serve a store). A line held in any state but deny counts as a lookup
// and a hit and becomes most recently used; an absent line, or one held
// in state deny, leaves stats and LRU alone. Either way one scan reports
// the line's state, zero if absent.
func (a *Array) Grant(lineAddr mem.Addr, deny uint8) (state uint8, ok bool) {
	i := a.find(lineAddr)
	if i < 0 {
		return 0, false
	}
	if state = uint8(a.tags[i] >> stateShift); state == deny {
		return state, false
	}
	a.stats.Lookups++
	a.stats.Hits++
	a.touch(i)
	return state, true
}

// touch makes the way whose metadata word sits at i most recently used.
func (a *Array) touch(i int) {
	a.clock++
	a.tags[i] = a.clock<<flagBits | a.tags[i]&flagMask
}

// Contains probes without touching LRU state or stats.
func (a *Array) Contains(lineAddr mem.Addr) bool { return a.find(lineAddr) >= 0 }

// MarkDirty sets the dirty bit; it reports false if the line is absent.
func (a *Array) MarkDirty(lineAddr mem.Addr) bool {
	i := a.find(lineAddr)
	if i < 0 {
		return false
	}
	a.tags[i] |= dirtyFlag
	return true
}

// State reports the state byte stored with lineAddr, zero if the line is
// absent. Like Contains it touches neither LRU state nor stats.
func (a *Array) State(lineAddr mem.Addr) uint8 {
	i := a.find(lineAddr)
	if i < 0 {
		return 0
	}
	return uint8(a.tags[i] >> stateShift)
}

// SetState replaces the state byte stored with lineAddr, leaving its
// dirty bit and LRU position alone; it reports false if the line is
// absent.
func (a *Array) SetState(lineAddr mem.Addr, state uint8) bool {
	i := a.find(lineAddr)
	if i < 0 {
		return false
	}
	a.tags[i] = a.tags[i]&^(0xff<<stateShift) | uint64(state)<<stateShift
	return true
}

// Fill inserts lineAddr (which must be absent), evicting the LRU way if
// the set is full. It returns the evicted line's address and dirtiness.
func (a *Array) Fill(lineAddr mem.Addr, dirty bool) (victim mem.Addr, victimDirty, evicted bool) {
	victim, flags, evicted := a.fill(lineAddr, dirty, 0)
	return victim, flags&dirtyFlag != 0, evicted
}

// FillState is Fill for an owner that keeps a state byte with each line:
// the new line carries state, and the evicted line's comes back with its
// address.
func (a *Array) FillState(lineAddr mem.Addr, dirty bool, state uint8) (victim mem.Addr, victimState uint8, evicted bool) {
	victim, flags, evicted := a.fill(lineAddr, dirty, state)
	return victim, uint8(flags >> stateShift), evicted
}

// fill installs the line in the first invalid way of its set, else in the
// way with the strictly oldest stamp, and returns the flags of the line
// that way held.
func (a *Array) fill(lineAddr mem.Addr, dirty bool, state uint8) (victim mem.Addr, victimFlags uint64, evicted bool) {
	base, key := a.index(lineAddr)
	keys, meta := a.tags[base:base+a.ways], a.tags[base+a.ways:base+2*a.ways]
	way := -1
	for w, k := range keys {
		if k == key {
			panic(fmt.Sprintf("cache %s: Fill of present line %#x", a.name, uint64(lineAddr)))
		}
		if k == 0 && way < 0 {
			way = w
		}
	}
	a.stats.Fills++
	if way < 0 {
		way = 0
		for w, m := range meta {
			if m < meta[way] {
				way = w
			}
		}
		evicted = true
		a.stats.Evictions++
		victim = mem.Addr((keys[way] - 1) << a.lineShift)
		victimFlags = meta[way] & flagMask
		if victimFlags&dirtyFlag != 0 {
			a.stats.DirtyEvict++
		}
	}
	flags := uint64(state) << stateShift
	if dirty {
		flags |= dirtyFlag
	}
	a.clock++
	keys[way] = key
	meta[way] = a.clock<<flagBits | flags
	return victim, victimFlags, evicted
}

// Invalidate drops lineAddr, reporting whether it was present and dirty.
func (a *Array) Invalidate(lineAddr mem.Addr) (wasPresent, wasDirty bool) {
	i := a.find(lineAddr)
	if i < 0 {
		return false, false
	}
	wasDirty = a.tags[i]&dirtyFlag != 0
	a.tags[i-a.ways], a.tags[i] = 0, 0
	return true, wasDirty
}

// ResetStats zeroes the counters (end of warmup).
func (a *Array) ResetStats() { a.stats = ArrayStats{} }
