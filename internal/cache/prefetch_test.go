package cache

import (
	"testing"

	"stackedsim/internal/config"
	"stackedsim/internal/mem"
	"stackedsim/internal/sim"
)

// pfRig drives one controller that counts prefetch usefulness through the
// prefetched mark in its array's ways.
type pfRig struct {
	// prefetch installs line by a prefetch nobody waits for.
	prefetch func(line mem.Addr)
	// demand makes a demand load of line, lets any miss fill, and reports
	// whether it hit.
	demand func(line mem.Addr) bool
	// rivals are lines that, demanded in order, evict line from its set.
	rivals func(line mem.Addr) []mem.Addr
	// invalidate drops line from the array.
	invalidate func(line mem.Addr)
	useful     func() uint64
	reset      func()
}

// newL1PfRig is a 4-set, 2-way DL1 with its prefetchers off, so only the
// rig's own prefetches mark a line.
func newL1PfRig(t *testing.T) pfRig {
	port := &fakePort{}
	l1 := NewL1(L1Params{
		Array: NewArray("dl1", 4, 2, 64), Latency: 3, LineBytes: 64,
		MSHRs: 8, Below: port, IDs: &mem.IDSource{},
	})
	var now sim.Cycle
	served := 0
	serve := func() { // fill every request the L1 has sent
		for ; served < len(port.reqs); served++ {
			now++
			port.reqs[served].Complete(now)
		}
	}
	return pfRig{
		prefetch: func(line mem.Addr) { l1.maybePrefetch(now, 0, line); serve() },
		demand: func(line mem.Addr) bool {
			now++
			hit := l1.Access(now, 0, line, false, Waiter{}) == Hit
			serve()
			return hit
		},
		rivals:     func(line mem.Addr) []mem.Addr { return []mem.Addr{line + 4*64, line + 8*64} },
		invalidate: func(line mem.Addr) { l1.InvalidateLine(line) },
		useful:     func() uint64 { return l1.PrefetchStats().Useful },
		reset:      l1.ResetStats,
	}
}

// newL2PfRig is a shared L2 of four 128-set, 2-way banks over real
// controllers. Every demand carries a fresh PC, so the stride prefetcher
// never trains and the next-line prefetch it issues lands one line on,
// outside the set under test.
func newL2PfRig(t *testing.T) pfRig {
	rg := newL2Rig(t, func(c *config.Config) {
		c.L2SizeKB = 64
		c.L2Ways = 2
		c.L2Prefetch = true
	})
	pc := uint64(0)
	return pfRig{
		prefetch: func(line mem.Addr) {
			pc++
			rg.l2.trainPrefetch(rg.now, &mem.Request{Kind: mem.Read, PC: pc, Addr: line - 64, Line: line - 64})
			rg.run(1000)
		},
		demand: func(line mem.Addr) bool {
			pc++
			hits := rg.l2.Stats().Hits
			r := rg.read(pc, line, nil)
			r.PC = pc
			rg.l2.Submit(r, rg.now)
			rg.run(1000)
			return rg.l2.Stats().Hits > hits
		},
		// Page-interleaved: pages 8 apart share a bank and a set.
		rivals: func(line mem.Addr) []mem.Addr { return []mem.Addr{line + 8*4096, line + 16*4096} },
		// The shared L2 takes no protocol invalidations; this is the
		// array operation one would make.
		invalidate: func(line mem.Addr) { rg.l2.banks[rg.l2.bankFor(line)].arr.Invalidate(rg.l2.toLocal(line)) },
		useful:     func() uint64 { return rg.l2.PrefetchStats().Useful },
		reset:      rg.l2.ResetStats,
	}
}

// TestPrefetchMarkLivesInTheWay pins the prefetch-usefulness count the L1
// and the shared L2 keep in their arrays' state byte: the first demand hit
// on a prefetched line counts once and the second not at all; a line that
// leaves the array — evicted or invalidated — takes its mark along, so
// neither the line that takes its way nor its own demand refill counts;
// and a statistics reset keeps the mark, because a line prefetched during
// warmup can still prove useful.
func TestPrefetchMarkLivesInTheWay(t *testing.T) {
	const line = mem.Addr(0x10000)
	for _, ctl := range []struct {
		name string
		rig  func(*testing.T) pfRig
	}{
		{"L1", newL1PfRig},
		{"L2", newL2PfRig},
	} {
		for _, sc := range []struct {
			name string
			run  func(*testing.T, pfRig)
			want uint64
		}{
			{"counted once", func(t *testing.T, r pfRig) {
				r.demand(line)
				r.demand(line)
			}, 1},
			{"reset keeps the mark", func(t *testing.T, r pfRig) {
				r.reset()
				r.demand(line)
			}, 1},
			{"eviction clears it", func(t *testing.T, r pfRig) {
				rivals := r.rivals(line)
				for _, a := range rivals {
					r.demand(a)
				}
				for _, a := range rivals {
					if !r.demand(a) {
						t.Fatalf("rival %#x not resident", uint64(a))
					}
				}
				if r.demand(line) {
					t.Fatal("prefetched line survived its rivals")
				}
				r.demand(line)
			}, 0},
			{"invalidation clears it", func(t *testing.T, r pfRig) {
				r.invalidate(line)
				if r.demand(line) {
					t.Fatal("invalidated line still resident")
				}
				r.demand(line)
			}, 0},
		} {
			t.Run(ctl.name+"/"+sc.name, func(t *testing.T) {
				r := ctl.rig(t)
				r.prefetch(line)
				if n := r.useful(); n != 0 {
					t.Fatalf("Useful = %d before any demand", n)
				}
				sc.run(t, r)
				if n := r.useful(); n != sc.want {
					t.Fatalf("Useful = %d, want %d", n, sc.want)
				}
			})
		}
	}
}
