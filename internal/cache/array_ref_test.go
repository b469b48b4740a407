package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"stackedsim/internal/mem"
)

// refArray is the array Array replaced: one struct per way, div/mod
// indexing, the victim scan that stops at the first invalid way. It is
// kept as the reference TestArrayMatchesReference drives Array against;
// the state byte is the one addition.
type refArray struct {
	sets, ways, lineBytes int
	lines                 []refLine
	clock                 uint64
	stats                 ArrayStats
}

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	state uint8
	used  uint64
}

func newRefArray(sets, ways, lineBytes int) *refArray {
	return &refArray{sets: sets, ways: ways, lineBytes: lineBytes, lines: make([]refLine, sets*ways)}
}

func (a *refArray) index(lineAddr mem.Addr) (set int, tag uint64) {
	n := uint64(lineAddr) / uint64(a.lineBytes)
	return int(n % uint64(a.sets)), n / uint64(a.sets)
}

func (a *refArray) find(lineAddr mem.Addr) *refLine {
	set, tag := a.index(lineAddr)
	for w := 0; w < a.ways; w++ {
		if l := &a.lines[set*a.ways+w]; l.valid && l.tag == tag {
			return l
		}
	}
	return nil
}

func (a *refArray) Lookup(lineAddr mem.Addr) bool {
	a.stats.Lookups++
	l := a.find(lineAddr)
	if l == nil {
		return false
	}
	a.stats.Hits++
	a.clock++
	l.used = a.clock
	return true
}

func (a *refArray) Contains(lineAddr mem.Addr) bool { return a.find(lineAddr) != nil }

func (a *refArray) MarkDirty(lineAddr mem.Addr) bool {
	l := a.find(lineAddr)
	if l == nil {
		return false
	}
	l.dirty = true
	return true
}

func (a *refArray) State(lineAddr mem.Addr) uint8 {
	if l := a.find(lineAddr); l != nil {
		return l.state
	}
	return 0
}

func (a *refArray) SetState(lineAddr mem.Addr, state uint8) bool {
	l := a.find(lineAddr)
	if l == nil {
		return false
	}
	l.state = state
	return true
}

func (a *refArray) FillState(lineAddr mem.Addr, dirty bool, state uint8) (victim mem.Addr, victimDirty bool, victimState uint8, evicted bool) {
	set, tag := a.index(lineAddr)
	if a.find(lineAddr) != nil {
		panic(fmt.Sprintf("reference: Fill of present line %#x", uint64(lineAddr)))
	}
	a.stats.Fills++
	base := set * a.ways
	victimWay := -1
	var oldest uint64 = ^uint64(0)
	for w := 0; w < a.ways; w++ {
		l := &a.lines[base+w]
		if !l.valid {
			victimWay = w
			evicted = false
			break
		}
		if l.used < oldest {
			oldest = l.used
			victimWay = w
			evicted = true
		}
	}
	l := &a.lines[base+victimWay]
	if evicted {
		a.stats.Evictions++
		victim = mem.Addr((l.tag*uint64(a.sets) + uint64(set)) * uint64(a.lineBytes))
		victimDirty, victimState = l.dirty, l.state
		if l.dirty {
			a.stats.DirtyEvict++
		}
	}
	a.clock++
	*l = refLine{tag: tag, valid: true, dirty: dirty, state: state, used: a.clock}
	return victim, victimDirty, victimState, evicted
}

func (a *refArray) Invalidate(lineAddr mem.Addr) (wasPresent, wasDirty bool) {
	l := a.find(lineAddr)
	if l == nil {
		return false, false
	}
	wasDirty = l.dirty
	*l = refLine{}
	return true, wasDirty
}

// TestArrayMatchesReference drives Array and the array of structs it
// replaced with the same seeded random operations over every geometry the
// machine builds — and two it does not — and requires every return value
// along the way and every counter at the end to agree.
func TestArrayMatchesReference(t *testing.T) { matchReference(t, 0) }

// TestArrayRenumberMatchesReference is the same drive with the array's
// clock moved to just below the top of its stamp field every ~1 k
// operations, so renumber runs hundreds of times (dozens in -short) with
// sets full and about to pick victims. The reference's clock never wraps:
// a renumber that lost or reversed a set's LRU order, or left an invalid
// way non-zero, shows as a different victim or a wrong eviction.
func TestArrayRenumberMatchesReference(t *testing.T) { matchReference(t, 1000) }

// matchReference runs the drive; with renumberEvery > 0 it moves the
// clock to within 8 stamps of overflow every renumberEvery operations and
// requires renumber to have run once for each time it did.
func matchReference(t *testing.T, renumberEvery int) {
	ops := 400_000
	if testing.Short() {
		ops = 40_000
	}
	for _, g := range []struct {
		name       string
		sets, ways int
	}{
		{"L1 32x12", 32, 12},
		{"L2 bank 512x24", 512, 24},
		{"private L2 1024x8", 1024, 8},
		{"Figure 6a bank 533x24", 533, 24},
		{"3x5", 3, 5},
		{"one set 1x4", 1, 4},
	} {
		t.Run(g.name, func(t *testing.T) {
			const lineBytes = 64
			a := NewArray(g.name, g.sets, g.ways, lineBytes)
			ref := newRefArray(g.sets, g.ways, lineBytes)
			rng := rand.New(rand.NewSource(int64(g.sets*100 + g.ways)))
			// Twice as many lines as the sets in use hold, so they fill,
			// evict and are refilled, and lookups both hit and miss. The
			// short drive keeps to the first 32 sets, or it would be over
			// before a large array evicted anything.
			setsUsed := g.sets
			if testing.Short() {
				setsUsed = min(setsUsed, 32)
			}
			lines := 2 * g.ways * g.sets // the span of line numbers drawn from
			moved, renumbered, last := 0, 0, uint64(0)
			for i := 0; i < ops; i++ {
				if renumberEvery > 0 {
					if a.clock < last {
						renumbered++
					}
					if i%renumberEvery == 0 {
						a.clock = stampMask - uint64(rng.Intn(8))<<stampShift
						moved++
					}
					last = a.clock
				}
				addr := mem.Addr((rng.Intn(2*g.ways)*g.sets + rng.Intn(setsUsed)) * lineBytes)
				dirty, state := rng.Intn(2) == 0, uint8(rng.Intn(256))
				switch op := rng.Intn(16); {
				case op < 6:
					if got, want := a.Lookup(addr), ref.Lookup(addr); got != want {
						t.Fatalf("op %d: Lookup(%#x) = %t, reference %t", i, uint64(addr), got, want)
					}
				case op < 10:
					// The machine fills only what it found absent; Fill
					// and FillState alternate so both see every case.
					if ref.Contains(addr) {
						continue
					}
					wv, wd, ws, we := ref.FillState(addr, dirty, state)
					if op&1 == 0 {
						v, s, e := a.FillState(addr, dirty, state)
						if v != wv || s != ws || e != we {
							t.Fatalf("op %d: FillState(%#x) = %#x, %d, %t; reference %#x, %d, %t", i, uint64(addr), uint64(v), s, e, uint64(wv), ws, we)
						}
					} else {
						v, d, e := a.Fill(addr, dirty)
						ref.SetState(addr, 0) // Fill installs state zero
						if v != wv || d != wd || e != we {
							t.Fatalf("op %d: Fill(%#x) = %#x, %t, %t; reference %#x, %t, %t", i, uint64(addr), uint64(v), d, e, uint64(wv), wd, we)
						}
					}
				case op < 11:
					if got, want := a.Contains(addr), ref.Contains(addr); got != want {
						t.Fatalf("op %d: Contains(%#x) = %t, reference %t", i, uint64(addr), got, want)
					}
				case op < 12:
					if got, want := a.MarkDirty(addr), ref.MarkDirty(addr); got != want {
						t.Fatalf("op %d: MarkDirty(%#x) = %t, reference %t", i, uint64(addr), got, want)
					}
				case op < 13:
					if got, want := a.State(addr), ref.State(addr); got != want {
						t.Fatalf("op %d: State(%#x) = %d, reference %d", i, uint64(addr), got, want)
					}
				case op < 14:
					if got, want := a.SetState(addr, state), ref.SetState(addr, state); got != want {
						t.Fatalf("op %d: SetState(%#x) = %t, reference %t", i, uint64(addr), got, want)
					}
				default:
					p, d := a.Invalidate(addr)
					wp, wd := ref.Invalidate(addr)
					if p != wp || d != wd {
						t.Fatalf("op %d: Invalidate(%#x) = %t, %t; reference %t, %t", i, uint64(addr), p, d, wp, wd)
					}
				}
			}
			if a.clock < last {
				renumbered++
			}
			if renumbered != moved {
				t.Errorf("clock moved to the top %d times, renumbered %d", moved, renumbered)
			}
			if *a.Stats() != ref.stats {
				t.Errorf("counters %+v, reference %+v", *a.Stats(), ref.stats)
			}
			if ref.stats.Evictions == 0 || ref.stats.DirtyEvict == 0 || ref.stats.Hits == 0 || ref.stats.Hits == ref.stats.Lookups {
				t.Errorf("the drive left a case out: %+v", ref.stats)
			}
			// Whatever either holds at the end, both hold, in the same state.
			for n := 0; n < lines; n++ {
				addr := mem.Addr(n * lineBytes)
				if a.Contains(addr) != ref.Contains(addr) || a.State(addr) != ref.State(addr) {
					t.Fatalf("line %#x: resident %t in state %d, reference %t in state %d",
						uint64(addr), a.Contains(addr), a.State(addr), ref.Contains(addr), ref.State(addr))
				}
			}
		})
	}
}

// BenchmarkArrayLookupMiss times the scan alone: a lookup that misses in
// a full 24-way set, over the shared L2's sixteen 512 x 24 banks and with
// consecutive lookups far apart, so that the set's metadata is cold in the
// host's caches, as it is in the machine.
func BenchmarkArrayLookupMiss(b *testing.B) {
	const banks, sets, ways, lineBytes = 16, 512, 24, 64
	var arrs [banks]*Array
	for i := range arrs {
		arrs[i] = NewArray("bench", sets, ways, lineBytes)
		for n := 0; n < sets*ways; n++ {
			arrs[i].Fill(mem.Addr(n*lineBytes), false)
		}
	}
	// Lines from sets*ways up map to every set in turn and are resident
	// in none; stepping 67 sets at a time keeps the host's prefetcher off
	// the next one.
	i := 0
	for b.Loop() {
		if arrs[i%banks].Lookup(mem.Addr((sets*ways + i*67%sets) * lineBytes)) {
			b.Fatal("hit on an absent line")
		}
		i++
	}
}

// BenchmarkArrayFillEvict times a fill into a full, host-cold 24-way set:
// the key scan that proves the line absent and the victim choice over the
// words it loaded. The sets are the shared L2's, visited as
// BenchmarkArrayLookupMiss visits them; each set's fills cycle through
// twice its ways of lines, so every fill is of an absent line and evicts.
func BenchmarkArrayFillEvict(b *testing.B) {
	const banks, sets, ways, lineBytes = 16, 512, 24, 64
	var arrs [banks]*Array
	for i := range arrs {
		arrs[i] = NewArray("bench", sets, ways, lineBytes)
		for n := 0; n < sets*ways; n++ {
			arrs[i].Fill(mem.Addr(n*lineBytes), false)
		}
	}
	var filled [banks][sets]int // fills into each set so far
	i := 0
	for b.Loop() {
		bank, set := i%banks, i*67%sets
		k := &filled[bank][set]
		tag := (ways + *k) % (2 * ways)
		*k++
		if _, _, evicted := arrs[bank].Fill(mem.Addr((tag*sets+set)*lineBytes), false); !evicted {
			b.Fatal("a fill into a full set evicted nothing")
		}
		i++
	}
}
