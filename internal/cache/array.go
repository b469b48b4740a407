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

// A way is one word: key | dirty<<keyBits | state<<stateShift |
// stamp<<stampShift. The low 32 bits are the key — the way's line number
// plus one; an invalid way's whole word is zero — then the dirty bit, then
// a state byte the array's owner defines (the private L2 keeps a line's
// MESI state there), and in the top 23 bits the LRU stamp.
const (
	keyBits    = 32
	dirtyFlag  = 1 << keyBits
	stateShift = keyBits + 1
	stampShift = stateShift + 8
	keyMask    = 1<<keyBits - 1
	flagMask   = 1<<stampShift - dirtyFlag // the dirty bit and the state byte
	stampMask  = 1<<64 - 1<<stampShift
)

// prefetched is the state byte the L1 and the shared L2, whose arrays keep
// no other state there, give a line a prefetch installed and demand has
// not touched yet. Held in the way, the mark leaves with the line —
// eviction and Invalidate drop it — and a statistics reset keeps it.
const prefetched uint8 = 1

// Array is a passive set-associative cache array with true-LRU
// replacement. All addresses passed in must be line-aligned.
//
// The tag store is one slab of words, a set's ways side by side, and a
// way is one word: the scan every operation starts with reads eight
// contiguous bytes a way, and the words it loaded are the ones a full
// set picks its victim from. Within a set stamps are unique, so the
// order of whole words is the order of their stamps; renumber keeps them
// inside their 23-bit field.
type Array struct {
	name      string
	sets      int
	ways      int
	lineBytes int
	lineShift uint
	setMask   uint64   // sets-1, used when sets is a power of two
	pow2      bool     // sets is a power of two
	tags      []uint64 // per set: its ways' words
	clock     uint64   // the last stamp handed out, in its field
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
		tags:      make([]uint64, sets*ways),
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

// index reports where lineAddr's set starts in the slab, the line's
// number and the key a way holding the line carries.
func (a *Array) index(lineAddr mem.Addr) (base int, n uint64, key uint32) {
	n = uint64(lineAddr) >> a.lineShift
	if a.pow2 {
		return int(n&a.setMask) * a.ways, n, uint32(n + 1)
	}
	return int(n%uint64(a.sets)) * a.ways, n, uint32(n + 1)
}

// find reports where the word of lineAddr's way — the first matching one
// of its set — sits in the slab, or -1.
func (a *Array) find(lineAddr mem.Addr) int {
	base, _, key := a.index(lineAddr)
	for w, word := range a.tags[base : base+a.ways] {
		if uint32(word) == key {
			return base + w
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
	a.tags[i] = a.stamp() | a.tags[i]&^stampMask
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
	a.tags[i] = a.stamp() | a.tags[i]&^stampMask
	return state, true
}

// stamp advances the clock and returns it, renumbering first if the clock
// would overflow its field. A hit and a fill each take one, so the way
// they write becomes its set's most recently used.
func (a *Array) stamp() uint64 {
	if a.clock == stampMask {
		a.renumber()
	}
	a.clock += 1 << stampShift
	return a.clock
}

// renumber restamps each set's valid ways 1..n, oldest first, and restarts
// the clock above every set's n. Only a set's own stamps are ever compared,
// so each set keeps its LRU order exactly; invalid ways stay zero.
func (a *Array) renumber() {
	stamps := make([]uint64, a.ways)
	for base := 0; base < len(a.tags); base += a.ways {
		set := a.tags[base : base+a.ways]
		for w, word := range set {
			stamps[w] = 0
			if word != 0 {
				stamps[w] = 1 // one more than the ways older than this one
				for _, other := range set {
					if other != 0 && other < word {
						stamps[w]++
					}
				}
			}
		}
		for w, stamp := range stamps {
			if stamp != 0 {
				set[w] = stamp<<stampShift | set[w]&^stampMask
			}
		}
	}
	a.clock = uint64(a.ways) << stampShift
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
// that way held. A line whose number does not fit the key panics.
func (a *Array) fill(lineAddr mem.Addr, dirty bool, state uint8) (victim mem.Addr, victimFlags uint64, evicted bool) {
	base, n, key := a.index(lineAddr)
	if n >= keyMask {
		panic(fmt.Sprintf("cache %s: line %#x is beyond the 32-bit key", a.name, uint64(lineAddr)))
	}
	set := a.tags[base : base+a.ways]
	way := -1
	for w, word := range set {
		if uint32(word) == key {
			panic(fmt.Sprintf("cache %s: Fill of present line %#x", a.name, uint64(lineAddr)))
		}
		if word == 0 && way < 0 {
			way = w
		}
	}
	a.stats.Fills++
	if way < 0 {
		way = 0
		for w, word := range set {
			if word < set[way] {
				way = w
			}
		}
		evicted = true
		a.stats.Evictions++
		victim = mem.Addr((set[way]&keyMask - 1) << a.lineShift)
		victimFlags = set[way] & flagMask
		if victimFlags&dirtyFlag != 0 {
			a.stats.DirtyEvict++
		}
	}
	flags := uint64(state) << stateShift
	if dirty {
		flags |= dirtyFlag
	}
	set[way] = a.stamp() | flags | uint64(key)
	return victim, victimFlags, evicted
}

// Invalidate drops lineAddr, reporting whether it was present and dirty.
func (a *Array) Invalidate(lineAddr mem.Addr) (wasPresent, wasDirty bool) {
	i := a.find(lineAddr)
	if i < 0 {
		return false, false
	}
	wasDirty = a.tags[i]&dirtyFlag != 0
	a.tags[i] = 0
	return true, wasDirty
}

// ResetStats zeroes the counters (end of warmup).
func (a *Array) ResetStats() { a.stats = ArrayStats{} }
