package cache

import (
	"reflect"
	"testing"

	"stackedsim/internal/config"
	"stackedsim/internal/mem"
	"stackedsim/internal/mshr"
	"stackedsim/internal/sim"
	"stackedsim/internal/stats"
)

// The scripts below drive an L2 whose single MSHR bank holds one entry,
// under an engine, against a memory that fills exactly when told. They
// run once with SetFullTick(true) — the L2 polls its set-aside head on
// every cycle — and once scheduled — it sleeps on the blocked head and
// settles the polls it skipped — and require the same counters, the
// same completion and re-issue cycles, and the values worked out by
// hand in the comments.
//
// Geometry: one array bank, one MC, a two-slot linear-probe MSHR bank
// limited to one entry, so a lookup that misses always costs 2 probes;
// L2 latency 9, MSHR probe latency 5, so an allocation at cycle c holds
// the bank's port until c + 9 + 2*5 + 5 and issues its read then.

const (
	lineA = mem.Addr(0x1000)
	lineB = mem.Addr(0x2000)
	lineC = mem.Addr(0x3000)
	lineP = mem.Addr(0x4000)
)

// scriptedMem is the memory below the L2: it accepts every request from
// cycle acceptFrom on, records when each line's read arrived, and
// completes a line's read on the cycle fillAt names.
type scriptedMem struct {
	fillAt     map[mem.Addr]sim.Cycle
	submitAt   map[mem.Addr]sim.Cycle
	pending    []*mem.Request
	acceptFrom sim.Cycle
}

func (m *scriptedMem) Submit(r *mem.Request, now sim.Cycle) bool {
	if now < m.acceptFrom {
		return false
	}
	m.submitAt[r.Line] = now
	m.pending = append(m.pending, r)
	return true
}

func (m *scriptedMem) Tick(now sim.Cycle) {
	for i, r := range m.pending {
		if m.fillAt[r.Line] == now {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			r.Complete(now)
			return
		}
	}
}

type blockedRig struct {
	eng     *sim.Engine
	l2      *L2
	mem     *scriptedMem
	l2Index int // the L2's position in the engine's tick order
	doneAt  map[uint64]sim.Cycle
	nextID  uint64
}

// newBlockedRig builds the machine. memFirst registers the memory before
// the L2, so a fill at cycle c reaches the L2's own slot in cycle c;
// otherwise it lands after that slot, as fills from the controllers do.
// A script that needs another geometry adjusts the configuration.
func newBlockedRig(fullTick, memFirst bool, fillAt map[mem.Addr]sim.Cycle, adjust ...func(*config.Config)) *blockedRig {
	cfg := config.QuadMC()
	cfg.MCs = 1
	cfg.L2Banks = 1
	cfg.L2SizeKB = 1024
	cfg.L2Prefetch = false
	cfg.L2MSHRs, cfg.L2MSHRMult = 2, 1
	cfg.L2MSHRKind = config.MSHRLinearProbe
	cfg.MSHRBankLat = 5
	for _, f := range adjust {
		f(cfg)
	}
	amap := mem.AddrMap{
		LineBytes: cfg.LineBytes, PageBytes: cfg.PageBytes,
		MCs: 1, RanksPerMC: cfg.RanksTotal, Banks: cfg.BanksPerRank,
	}
	rg := &blockedRig{
		eng:    sim.NewEngine(),
		mem:    &scriptedMem{fillAt: fillAt, submitAt: map[mem.Addr]sim.Cycle{}},
		doneAt: map[uint64]sim.Cycle{},
	}
	rg.eng.SetFullTick(fullTick)
	rg.l2 = NewL2(L2Params{Cfg: cfg, AMap: amap, MCs: []Port{rg.mem}, IDs: &mem.IDSource{}})
	rg.l2.MSHRBanks()[0].SetLimit(1)
	if memFirst {
		rg.eng.Register(rg.mem)
		rg.l2Index = 1
	}
	rg.l2.Register(rg.eng)
	if !memFirst {
		rg.eng.Register(rg.mem)
	}
	return rg
}

// submit hands the L2 a request for line from core 0 and returns its ID.
func (rg *blockedRig) submit(t *testing.T, kind mem.Kind, line mem.Addr) uint64 {
	t.Helper()
	rg.nextID++
	r := &mem.Request{ID: rg.nextID, Kind: kind, Addr: line, Line: line, Core: 0, Born: rg.eng.Now()}
	r.OnDone = func(r *mem.Request, now sim.Cycle) { rg.doneAt[r.ID] = now }
	if !rg.l2.Submit(r, rg.eng.Now()) {
		t.Fatalf("L2 rejected request %d", r.ID)
	}
	return r.ID
}

func (rg *blockedRig) runTo(c sim.Cycle) { rg.eng.Run(c - rg.eng.Now()) }

// blockedCounters is everything the polls of a set-aside head count.
type blockedCounters struct {
	L2   L2Stats
	MSHR mshr.Stats
}

// counters settles, as every reader of a sleeping L2's counters must,
// and snapshots them (the histogram by value: ResetStats replaces it).
func (rg *blockedRig) counters() blockedCounters {
	rg.eng.Settle()
	c := blockedCounters{L2: *rg.l2.Stats(), MSHR: *rg.l2.MSHRBanks()[0].Stats()}
	h := *c.MSHR.ProbeCounts
	c.MSHR.ProbeCounts = &h
	return c
}

func (rg *blockedRig) l2Ticks() uint64 { return rg.eng.TicksByComponent()[rg.l2Index] }

// blockedResult is what a script leaves behind, compared between the
// full-tick and the scheduled engine.
type blockedResult struct {
	Warm, Measured blockedCounters
	DoneAt         map[uint64]sim.Cycle
	SubmitAt       map[mem.Addr]sim.Cycle
}

// probeHistogram is the MSHR bank's probe histogram after n lookups of 2
// probes each (three buckets: capacity + 1).
func probeHistogram(n uint64) *stats.Histogram {
	h := stats.NewHistogram(3)
	h.AddN(2, n)
	return h
}

// TestBlockedHeadWaitsForFill: A takes the one entry at cycle 1; B, C and
// a second request for B's line are set aside at cycles 2, 3 and 4. The
// statistics are reset after cycle 7, in the middle of the first span; an
// L1 prefetch arrives at cycle 31 and is dropped on the full bank, which
// moves the port's busy time under the waiting head. A fills at 60, so B
// takes the entry and C becomes the blocked head; B fills at 120, so C
// takes it and B's second request, resident by then, completes as a hit.
func TestBlockedHeadWaitsForFill(t *testing.T) {
	for _, tc := range []struct {
		name     string
		memFirst bool
		// B and C are re-polled the cycle after A's and B's fill, or on
		// the very cycle when the memory ticks before the L2.
		pollB, pollC sim.Cycle
		accesses     uint64
	}{
		// Lookups after the reset: B's polls on cycles 8..61, the prefetch
		// at 31, C's polls on 61..121.
		{"fill after the L2's slot", false, 61, 121, 54 + 1 + 61},
		// B's polls on 8..60, the prefetch, C's on 60..120.
		{"fill before the L2's slot", true, 60, 120, 53 + 1 + 61},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b, c, b2, p uint64
			run := func(fullTick bool) (blockedResult, uint64) {
				rg := newBlockedRig(fullTick, tc.memFirst,
					map[mem.Addr]sim.Cycle{lineA: 60, lineB: 120, lineC: 180})
				rg.submit(t, mem.Read, lineA)
				b = rg.submit(t, mem.Read, lineB)
				c = rg.submit(t, mem.Read, lineC)
				b2 = rg.submit(t, mem.Read, lineB)
				rg.runTo(7)
				var res blockedResult
				res.Warm = rg.counters()
				rg.l2.ResetStats()
				rg.runTo(30)
				// An L1 prefetch cannot itself be set aside: a full bank
				// drops it on the spot. What it does to a waiting head is
				// move mshrBusy, from inside a real tick.
				p = rg.submit(t, mem.Prefetch, lineP)
				rg.runTo(200)
				res.Measured = rg.counters()
				res.DoneAt, res.SubmitAt = rg.doneAt, rg.mem.submitAt
				if n := rg.l2.InFlight(); n != 0 {
					t.Errorf("fullTick=%t: L2 still holds %d requests at cycle 200", fullTick, n)
				}
				return res, rg.l2Ticks()
			}
			full, fullTicks := run(true)
			fast, fastTicks := run(false)
			if !reflect.DeepEqual(full, fast) {
				t.Errorf("settled polls differ from polled ones:\nfull-tick: %+v\nscheduled: %+v", full, fast)
			}
			if fullTicks != 200 || fastTicks > 12 {
				t.Errorf("L2 ticked %d times under full-tick (want 200) and %d scheduled (want <= 12: it must sleep on a blocked head)", fullTicks, fastTicks)
			}

			for mode, res := range map[string]blockedResult{"full-tick": full, "scheduled": fast} {
				// Warmup: A's lookup, then B, C and B's second request at
				// the bank (cycles 2-4) and B's polls on cycles 3..7: nine
				// lookups in the MSHR bank.
				want := blockedCounters{
					L2:   L2Stats{Accesses: 4, DemandMisses: 1, MSHRStalls: 3},
					MSHR: mshr.Stats{Accesses: 9, Allocs: 1, Probes: 18, ProbeCounts: probeHistogram(9)},
				}
				if !reflect.DeepEqual(res.Warm, want) {
					t.Errorf("%s warmup counters:\n got %+v\nwant %+v", mode, res.Warm, want)
				}
				// Measured: the polls and the prefetch's lookup, and the
				// second request for B, a hit that never reaches the MSHR.
				want = blockedCounters{
					L2: L2Stats{Accesses: 1, Hits: 1, DemandMisses: 2},
					MSHR: mshr.Stats{Accesses: tc.accesses, Allocs: 2, Releases: 3, Probes: 2 * tc.accesses,
						ProbeCounts: probeHistogram(tc.accesses)},
				}
				if !reflect.DeepEqual(res.Measured, want) {
					t.Errorf("%s measured counters:\n got %+v (probes %+v)\nwant %+v (probes %+v)", mode,
						res.Measured, *res.Measured.MSHR.ProbeCounts, want, *want.MSHR.ProbeCounts)
				}
				// A read leaves for memory when its allocation releases the
				// port: 9 + 2*5 + 5 cycles after the poll that allocated.
				if got, want := res.SubmitAt[lineB], tc.pollB+24; got != want {
					t.Errorf("%s: B re-issued at cycle %d, want %d", mode, got, want)
				}
				if got, want := res.SubmitAt[lineC], tc.pollC+24; got != want {
					t.Errorf("%s: C re-issued at cycle %d, want %d", mode, got, want)
				}
				wantDone := map[uint64]sim.Cycle{1: 60, b: 120, c: 180, b2: tc.pollC + 9, p: 31}
				if !reflect.DeepEqual(res.DoneAt, wantDone) {
					t.Errorf("%s: completions %v, want %v", mode, res.DoneAt, wantDone)
				}
			}
		})
	}
}

// TestBlockedHeadWaitsForLimit: with A holding the one entry and B set
// aside, the limit rises to 2 after cycle 40 — the other event that can
// change what the bank tells B. B must be polled on cycle 41.
func TestBlockedHeadWaitsForLimit(t *testing.T) {
	run := func(fullTick bool) (blockedResult, uint64) {
		rg := newBlockedRig(fullTick, false, map[mem.Addr]sim.Cycle{lineA: 100, lineB: 110})
		rg.submit(t, mem.Read, lineA)
		rg.submit(t, mem.Read, lineB)
		rg.runTo(40)
		rg.l2.MSHRBanks()[0].SetLimit(2)
		rg.runTo(150)
		res := blockedResult{Measured: rg.counters(), DoneAt: rg.doneAt, SubmitAt: rg.mem.submitAt}
		return res, rg.l2Ticks()
	}
	full, _ := run(true)
	fast, fastTicks := run(false)
	if !reflect.DeepEqual(full, fast) {
		t.Errorf("settled polls differ from polled ones:\nfull-tick: %+v\nscheduled: %+v", full, fast)
	}
	if fastTicks > 6 {
		t.Errorf("scheduled L2 ticked %d times, want <= 6: it must sleep on a blocked head", fastTicks)
	}
	// A's lookup, B's at the bank, B's polls on cycles 3..41.
	if st := fast.Measured.MSHR; st.Accesses != 41 || st.Probes != 82 || st.Allocs != 2 {
		t.Errorf("MSHR bank counted %d lookups, %d probes, %d allocations; want 41, 82, 2", st.Accesses, st.Probes, st.Allocs)
	}
	if got := fast.SubmitAt[lineB]; got != 41+24 {
		t.Errorf("B re-issued at cycle %d, want %d", got, 41+24)
	}
}

// The scripts of TestBlockedHeadPolledOncePerChange keep the L2 ticking
// for real while a head stays blocked, which a fill-to-fill sleep never
// does. Two array banks, pages alternating between them: lineA and lineC
// live in bank 1, lineB, lineP and lineQ in bank 0.
const lineQ = mem.Addr(0x6000)

func twoArrayBanks(c *config.Config) { c.L2Banks = 2 }

// vbfBank gives the MSHR bank the Vector Bloom Filter, under which what a
// lookup that misses costs depends on what the bank holds: one probe of
// the home slot, plus one for every other entry that hashed there. All
// the lines here hash to the same one.
func vbfBank(c *config.Config) { c.L2MSHRKind = config.MSHRVBF }

// checkCounters compares what a script left behind with what was worked
// out by hand.
func checkCounters(t *testing.T, what string, got, want blockedCounters) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got %+v (probes %+v)\nwant %+v (probes %+v)",
			what, got, *got.MSHR.ProbeCounts, want, *want.MSHR.ProbeCounts)
	}
}

// blockLineP is how the two-bank scripts open: lineA is made resident
// (miss at cycle 1, fill at 40), lineB takes the one entry at cycle 41 and
// holds the port until 41+9+10+5 = 65, and lineP is set aside at 42.
func blockLineP(t *testing.T, rg *blockedRig) {
	rg.submit(t, mem.Read, lineA)
	rg.runTo(40)
	rg.submit(t, mem.Read, lineB)
	rg.submit(t, mem.Read, lineP)
}

// TestBlockedHeadPolledOncePerChange pins the contract drainMSHRWaiters
// keeps with a blocked head: asked for real once each time its MSHR bank
// changes, and otherwise counted — on the cycles the L2 ticks as on those
// it sleeps through. Each script runs under the full-tick engine, where
// every poll is made, and scheduled, and must leave the same counters and
// cycles behind, the hand-derived ones included; the number of polls made
// is the one thing that differs, and is worked out for both.
func TestBlockedHeadPolledOncePerChange(t *testing.T) {
	for _, sc := range []struct {
		name   string
		adjust func(*config.Config)
		fillAt map[mem.Addr]sim.Cycle
		// drive runs the script to its end; a script that resets the
		// statistics on the way returns what they read before.
		drive func(t *testing.T, rg *blockedRig) (warm blockedCounters)
		// Polls made of a set-aside head under each engine, and the least
		// number of ticks the scheduled L2 must have spent on other work.
		fullPolls, schedPolls, schedTicks uint64
		check                             func(t *testing.T, res blockedResult)
	}{
		{
			// With lineP waiting (blockLineP), twenty hits on lineA, in the
			// other array bank, are served on cycles 71..90 and complete on
			// 80..99: the L2 ticks on every one of those cycles and the
			// bank lineP waits on does not change. lineB fills at 150,
			// lineP is polled at 151 and takes the entry.
			name:   "hits stream into another bank",
			adjust: twoArrayBanks,
			fillAt: map[mem.Addr]sim.Cycle{lineA: 40, lineB: 150, lineP: 220},
			drive: func(t *testing.T, rg *blockedRig) (warm blockedCounters) {
				blockLineP(t, rg)
				for c := sim.Cycle(70); c < 90; c++ {
					rg.runTo(c)
					rg.submit(t, mem.Read, lineA)
				}
				rg.runTo(260)
				return warm
			},
			// Full tick polls lineP on cycles 43..151; scheduled, only on
			// 151, and the L2 also ticked on 71..99.
			fullPolls: 109, schedPolls: 1, schedTicks: 29,
			check: func(t *testing.T, res blockedResult) {
				// The MSHR bank sees the three misses and lineP's polls.
				want := blockedCounters{
					L2: L2Stats{Accesses: 23, Hits: 20, DemandMisses: 3, MSHRStalls: 1},
					MSHR: mshr.Stats{Accesses: 3 + 109, Allocs: 3, Releases: 3, Probes: 2 * (3 + 109),
						ProbeCounts: probeHistogram(3 + 109)},
				}
				checkCounters(t, "counters", res.Measured, want)
				if got := res.SubmitAt[lineP]; got != 151+24 {
					t.Errorf("lineP re-issued at cycle %d, want %d", got, 151+24)
				}
			},
		},
		{
			// With both entries usable, lineA and lineC take them at cycles
			// 1 and 2 and lineB is set aside at 3, its lookup costing two
			// probes (the home slot and lineC's). The limit drops to 1
			// after cycle 10: the bank has changed, so the next tick the
			// L2 makes for other reasons — issuing lineA's read at 20 —
			// polls, and learns nothing. lineC fills at 60: a poll at 61
			// finds the bank still full (one entry, limit 1) and the lookup
			// down to one probe. The limit returns to 2 after cycle 90 and
			// the poll at 91 allocates.
			name:   "another line fills under a lowered limit, then the limit rises",
			adjust: vbfBank,
			fillAt: map[mem.Addr]sim.Cycle{lineA: 130, lineC: 60, lineB: 180},
			drive: func(t *testing.T, rg *blockedRig) (warm blockedCounters) {
				bank := rg.l2.MSHRBanks()[0]
				bank.SetLimit(2)
				rg.submit(t, mem.Read, lineA)
				rg.submit(t, mem.Read, lineC)
				rg.submit(t, mem.Read, lineB)
				rg.runTo(10)
				bank.SetLimit(1)
				rg.runTo(90)
				bank.SetLimit(2)
				rg.runTo(220)
				return warm
			},
			// Full tick polls lineB on cycles 4..91; scheduled on 20, 61
			// and 91, and the L2 also ticked at 30 to issue lineC's read.
			fullPolls: 88, schedPolls: 3, schedTicks: 1,
			check: func(t *testing.T, res blockedResult) {
				// Lookups: the three at the bank (1, 1 and 2 probes), then
				// lineB's polls, 2 probes each on cycles 4..60 and 1 each on
				// 61..91.
				h := stats.NewHistogram(3)
				h.AddN(1, 2+31)
				h.AddN(2, 1+57)
				want := blockedCounters{
					L2: L2Stats{Accesses: 3, DemandMisses: 3, MSHRStalls: 1},
					MSHR: mshr.Stats{Accesses: 3 + 88, Allocs: 3, Releases: 3, Probes: 33 + 2*58,
						ProbeCounts: h},
				}
				checkCounters(t, "counters", res.Measured, want)
				// One probe at cycle 91: the port is held for 9 + 5 + 5.
				if got := res.SubmitAt[lineB]; got != 91+19 {
					t.Errorf("lineB re-issued at cycle %d, want %d", got, 91+19)
				}
			},
		},
		{
			// With lineP waiting (blockLineP), an L1 prefetch of lineQ is
			// dropped on the full bank at cycle 60 and holds the port until
			// 60+9+10 = 79, so lineP's polls wait for it again: 9 cycles at
			// 61 down to 1 at 69. Hits on lineA are served on cycles 62, 64
			// and 66, so that series is settled piecewise, on real ticks;
			// and the statistics are reset after cycle 63, between two of
			// them.
			name:   "a dropped prefetch and a statistics reset between real ticks",
			adjust: twoArrayBanks,
			fillAt: map[mem.Addr]sim.Cycle{lineA: 40, lineB: 150, lineP: 220},
			drive: func(t *testing.T, rg *blockedRig) (warm blockedCounters) {
				blockLineP(t, rg)
				rg.runTo(59)
				rg.submit(t, mem.Prefetch, lineQ)
				rg.runTo(61)
				rg.submit(t, mem.Read, lineA)
				rg.runTo(63)
				rg.submit(t, mem.Read, lineA)
				warm = rg.counters()
				rg.l2.ResetStats()
				rg.runTo(65)
				rg.submit(t, mem.Read, lineA)
				rg.runTo(260)
				return warm
			},
			// Scheduled ticks without a poll: 60 (the prefetch), 62, 64, 66
			// (hits), 65 (lineB's read issues), 71, 73, 75 (completions).
			fullPolls: 109, schedPolls: 1, schedTicks: 8,
			check: func(t *testing.T, res blockedResult) {
				// Before the reset: the misses of lineA, lineB and lineP,
				// the prefetch, and lineP's polls on 43..63.
				want := blockedCounters{
					L2: L2Stats{Accesses: 5, Hits: 1, DemandMisses: 2, MSHRStalls: 1},
					MSHR: mshr.Stats{Accesses: 4 + 21, Allocs: 2, Releases: 1, Probes: 2 * (4 + 21),
						ProbeCounts: probeHistogram(4 + 21)},
				}
				checkCounters(t, "counters before the reset", res.Warm, want)
				// After it: two hits, and lineP's polls on 64..151.
				want = blockedCounters{
					L2: L2Stats{Accesses: 2, Hits: 2, DemandMisses: 1},
					MSHR: mshr.Stats{Accesses: 88, Allocs: 1, Releases: 2, Probes: 2 * 88,
						ProbeCounts: probeHistogram(88)},
				}
				checkCounters(t, "counters after the reset", res.Measured, want)
			},
		},
	} {
		t.Run(sc.name, func(t *testing.T) {
			run := func(fullTick bool) (res blockedResult, polls, ticks uint64) {
				rg := newBlockedRig(fullTick, false, sc.fillAt, sc.adjust)
				res.Warm = sc.drive(t, rg)
				res.Measured = rg.counters()
				res.DoneAt, res.SubmitAt = rg.doneAt, rg.mem.submitAt
				if n := rg.l2.InFlight(); n != 0 {
					t.Errorf("fullTick=%t: L2 still holds %d requests at the end", fullTick, n)
				}
				return res, rg.l2.headPolls, rg.l2Ticks()
			}
			full, fullPolls, _ := run(true)
			fast, fastPolls, fastTicks := run(false)
			if !reflect.DeepEqual(full, fast) {
				t.Errorf("settled polls differ from polled ones:\nfull-tick: %+v\nscheduled: %+v", full, fast)
			}
			if fullPolls != sc.fullPolls {
				t.Errorf("full-tick engine polled a blocked head %d times, want %d: it must make every poll", fullPolls, sc.fullPolls)
			}
			if fastPolls != sc.schedPolls {
				t.Errorf("scheduled engine polled a blocked head %d times, want %d: once per change of its bank", fastPolls, sc.schedPolls)
			}
			if fastTicks < sc.schedPolls+sc.schedTicks {
				t.Errorf("scheduled L2 ticked %d times, want at least %d: the script must keep it ticking past a blocked head",
					fastTicks, sc.schedPolls+sc.schedTicks)
			}
			sc.check(t, fast)
		})
	}
}

// TestRefusedReadWaitsInOutbox: the memory refuses everything before
// cycle 50. A's read, issued at 1+9+2*5+5 = 25, waits in the L2's outbox
// toward the controller, is offered again each cycle the L2 ticks, and
// lands at 50 as the one read built for the entry; its fill at 80
// completes A.
func TestRefusedReadWaitsInOutbox(t *testing.T) {
	for _, fullTick := range []bool{true, false} {
		rg := newBlockedRig(fullTick, false, map[mem.Addr]sim.Cycle{lineA: 80})
		rg.mem.acceptFrom = 50
		a := rg.submit(t, mem.Read, lineA)
		rg.runTo(100)
		if got := rg.mem.submitAt[lineA]; got != 50 {
			t.Errorf("fullTick=%t: A's read reached memory at cycle %d, want 50", fullTick, got)
		}
		if got := rg.doneAt[a]; got != 80 {
			t.Errorf("fullTick=%t: A completed at cycle %d, want 80", fullTick, got)
		}
		if gets, _, _ := rg.l2.ids.PoolStats(); gets != 1 {
			t.Errorf("fullTick=%t: %d requests built, want the one read", fullTick, gets)
		}
		if n := rg.l2.InFlight(); n != 0 {
			t.Errorf("fullTick=%t: L2 still holds %d requests", fullTick, n)
		}
	}
}
