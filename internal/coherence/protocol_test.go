package coherence

import (
	"fmt"
	"slices"
	"testing"

	"stackedsim/internal/cache"
	"stackedsim/internal/config"
	"stackedsim/internal/mem"
	"stackedsim/internal/sim"
)

// testMC is a fixed-latency memory stand-in behind one directory bank.
type testMC struct {
	events  sim.EventQueue
	lat     sim.Cycle
	reads   int
	writes  int
	rejects int // reject this many submissions first (retry-path tests)
}

func (m *testMC) Submit(r *mem.Request, now sim.Cycle) bool {
	if m.rejects > 0 {
		m.rejects--
		return false
	}
	if r.Kind == mem.Writeback {
		m.writes++
		m.events.At(now+m.lat, func() {})
		r.Complete(now) // writes ack immediately; latency is irrelevant here
		return true
	}
	m.reads++
	m.events.AtCall(now+m.lat, func(arg any, at sim.Cycle) { arg.(*mem.Request).Complete(at) }, r)
	return true
}

func (m *testMC) Tick(now sim.Cycle) { m.events.FireDue(now) }

// rig is a minimal coherent machine: real private L2s, directories and
// mesh; real L1s above; stub memory below.
type rig struct {
	eng *sim.Engine
	f   *Fabric
	l1s []*cache.L1
	mcs []*testMC
	cfg *config.Config
}

func newRig(t *testing.T, cores, mcs int) *rig {
	t.Helper()
	cfg := config.ManyCore(cores, mcs)
	cfg.L1Prefetch = false // keep traffic exactly what the test issues
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	amap := mem.AddrMap{
		LineBytes: cfg.LineBytes, PageBytes: cfg.PageBytes,
		MCs: mcs, RanksPerMC: cfg.RanksPerMC(), Banks: cfg.BanksPerRank,
	}
	if err := amap.Validate(); err != nil {
		t.Fatal(err)
	}
	r := &rig{eng: sim.NewEngine(), cfg: cfg}
	ids := &mem.IDSource{}
	ports := make([]cache.Port, mcs)
	for i := range ports {
		mc := &testMC{lat: 40}
		r.mcs = append(r.mcs, mc)
		ports[i] = mc
	}
	r.f = New(Params{Cfg: cfg, AMap: amap, MCs: ports, IDs: ids})
	for c := 0; c < cores; c++ {
		l2 := r.f.L2(c)
		dl1 := cache.NewL1(cache.L1Params{
			Core:      c,
			Array:     cache.NewArrayBySize(fmt.Sprintf("tl1.%d", c), 4096, 4, cfg.LineBytes),
			Latency:   3,
			LineBytes: cfg.LineBytes,
			MSHRs:     8,
			Below:     l2,
			IDs:       ids,
			StoreHint: l2.StoreHint,
		})
		il1 := cache.NewL1(cache.L1Params{
			Core:      c,
			Array:     cache.NewArrayBySize(fmt.Sprintf("til1.%d", c), 4096, 4, cfg.LineBytes),
			Latency:   3,
			LineBytes: cfg.LineBytes,
			MSHRs:     8,
			Below:     l2,
			IDs:       ids,
		})
		l2.SetL1s(dl1, il1)
		r.l1s = append(r.l1s, dl1)
	}
	for _, l1 := range r.l1s {
		l1.SetHandle(r.eng.RegisterEvery(1, 0, l1))
	}
	r.f.Register(r.eng)
	for _, mc := range r.mcs {
		r.eng.RegisterEvery(1, 0, mc)
	}
	return r
}

// access schedules a load or store on a core's L1 at the given cycle,
// retrying while blocked, and returns a pointer that becomes true when
// the access completes.
func (r *rig) access(core int, at sim.Cycle, addr mem.Addr, store bool) *bool {
	done := new(bool)
	var try func()
	try = func() {
		now := r.eng.Now()
		switch r.l1s[core].Access(now, 0x400, addr, store, cache.Waiter{Fn: func(int, sim.Cycle) { *done = true }}) {
		case cache.Hit:
			*done = true
		case cache.Blocked:
			r.eng.Schedule(now+1, try)
		}
	}
	r.eng.Schedule(at, try)
	return done
}

const line0 = mem.Addr(0x1000)

func (r *rig) run(n sim.Cycle) { r.eng.Run(n) }

func TestReadMissGrantsExclusive(t *testing.T) {
	r := newRig(t, 4, 1)
	done := r.access(0, 1, line0, false)
	// While the memory read is outstanding the home bank must sit in
	// the BusyMemS transient.
	seen := false
	r.eng.Schedule(20, func() {
		if r.f.dirs[0].EntryState(line0) == "BusyMemS" {
			seen = true
		}
	})
	r.run(200)
	if !*done {
		t.Fatal("load never completed")
	}
	if !seen {
		t.Errorf("BusyMemS not observed mid-flight (state at 20 was %s)", r.f.dirs[0].EntryState(line0))
	}
	if st := r.f.L2(0).State(line0); st != psExcl {
		t.Errorf("lone reader state = %d, want E", st)
	}
	if st := r.f.dirs[0].EntryState(line0); st != "M" {
		t.Errorf("directory state = %s, want M (ownership granted)", st)
	}
	if r.mcs[0].reads != 1 {
		t.Errorf("memory reads = %d, want 1", r.mcs[0].reads)
	}
}

func TestSecondReaderForcesDemotion(t *testing.T) {
	r := newRig(t, 4, 1)
	r.access(0, 1, line0, false)
	done := r.access(1, 200, line0, false)
	seen := false
	probe := func() {
		if r.f.dirs[0].EntryState(line0) == "BusyFwdS" {
			seen = true
		}
	}
	for c := sim.Cycle(201); c < 260; c++ {
		r.eng.Schedule(c, probe)
	}
	r.run(600)
	if !*done {
		t.Fatal("second load never completed")
	}
	if !seen {
		t.Error("BusyFwdS not observed while the forward was in flight")
	}
	if st := r.f.L2(0).State(line0); st != psShared {
		t.Errorf("previous owner state = %d, want S", st)
	}
	if st := r.f.L2(1).State(line0); st != psShared {
		t.Errorf("requester state = %d, want S", st)
	}
	if st := r.f.dirs[0].EntryState(line0); st != "S" {
		t.Errorf("directory state = %s, want S", st)
	}
	if r.f.L2(0).Stats().FwdServed != 1 {
		t.Errorf("FwdServed = %d, want 1 (cache-to-cache read)", r.f.L2(0).Stats().FwdServed)
	}
	// The clean demotion (E) must not have written memory.
	if r.mcs[0].writes != 0 {
		t.Errorf("memory writes = %d, want 0 for a clean demotion", r.mcs[0].writes)
	}
}

func TestWriteMissInvalidatesSharers(t *testing.T) {
	r := newRig(t, 4, 1)
	r.access(0, 1, line0, false)
	r.access(1, 200, line0, false)
	done := r.access(2, 500, line0, true)
	seenInv, seenMemM := false, false
	probe := func() {
		switch r.f.dirs[0].EntryState(line0) {
		case "BusyInv":
			seenInv = true
		case "BusyMemM":
			seenMemM = true
		}
	}
	for c := sim.Cycle(501); c < 620; c++ {
		r.eng.Schedule(c, probe)
	}
	r.run(1000)
	if !*done {
		t.Fatal("store never completed")
	}
	if !seenInv {
		t.Error("BusyInv not observed while invalidations were outstanding")
	}
	if !seenMemM {
		t.Error("BusyMemM not observed after the acks (non-sharer needs data)")
	}
	if st := r.f.dirs[0].EntryState(line0); st != "M" {
		t.Errorf("directory state = %s, want M", st)
	}
	if st := r.f.L2(2).State(line0); st != psModified {
		t.Errorf("writer state = %d, want M", st)
	}
	for c := 0; c < 2; c++ {
		if st := r.f.L2(c).State(line0); st != 0 {
			t.Errorf("core %d state = %d, want I after invalidation", c, st)
		}
		if r.f.L2(c).Stats().InvRecv != 1 {
			t.Errorf("core %d InvRecv = %d, want 1", c, r.f.L2(c).Stats().InvRecv)
		}
	}
	if acks := r.f.dirs[0].Stats().InvAcks; acks != 2 {
		t.Errorf("InvAcks = %d, want 2", acks)
	}
}

// TestWideSharerInvalidation covers the sharer words past the first, on
// a fabric of more than 64 cores: sharers on both sides of core 63 are
// counted exactly, and a GetM sends one Inv to each other sharer, in
// ascending core order.
func TestWideSharerInvalidation(t *testing.T) {
	r := newRig(t, 81, 1)
	d := r.f.dirs[0]
	readers := []int{80, 3, 64, 62, 63}
	var done []*bool
	for n, c := range readers {
		done = append(done, r.access(c, sim.Cycle(1+300*n), line0, false))
	}
	r.run(5000)
	for n, ok := range done {
		if !*ok {
			t.Fatalf("core %d's load never completed", readers[n])
		}
	}
	i := d.lines.find(line0)
	if i < 0 || d.lines.state(i) != dirS {
		t.Fatalf("directory state = %s after the loads, want S", d.EntryState(line0))
	}
	if got := d.lines.sharerCount(i); got != len(readers) {
		t.Errorf("sharerCount = %d, want %d", got, len(readers))
	}
	for c := 0; c < 81; c++ {
		if got, want := d.lines.isSharer(i, c), slices.Contains(readers, c); got != want {
			t.Errorf("core %d: isSharer = %v, want %v", c, got, want)
		}
	}

	// With the bank's injection port held full, every Inv waits in the
	// bank's retry queue in the order the directory sent it.
	now := r.eng.Now()
	for r.f.mesh.Send(d.node, d.node+1, 8, nil, now) {
	}
	d.process(r.f.newMsg(mGetM, line0, 63), now)
	var got []int
	for h := d.out.Pop(); h != nil; h = d.out.Pop() {
		if h.Body.kind != mInv {
			t.Fatalf("bank sent %s to core %d, want only Invs", h.Body.kind, h.Dst)
		}
		got = append(got, h.Dst)
	}
	if want := []int{3, 62, 64, 80}; !slices.Equal(got, want) {
		t.Errorf("Invs sent to cores %v, want %v", got, want)
	}
	if i := d.lines.find(line0); d.lines.state(i) != trBusyInv || d.lines.txn(i).acksLeft != 4 || d.stats.InvSent != 4 {
		t.Errorf("after the GetM: state %s, %d acks awaited, %d Invs counted; want BusyInv, 4, 4", d.lines.state(i), d.lines.txn(i).acksLeft, d.stats.InvSent)
	}
}

func TestSharerUpgradeGetsAckM(t *testing.T) {
	r := newRig(t, 4, 1)
	r.access(0, 1, line0, false)
	r.access(1, 200, line0, false)
	// Core 1, already a sharer, writes: invalidate core 0, then the
	// grant is a dataless AckM.
	done := r.access(1, 500, line0, true)
	r.run(1000)
	if !*done {
		t.Fatal("upgrade store never completed")
	}
	if st := r.f.L2(1).State(line0); st != psModified {
		t.Errorf("upgrader state = %d, want M", st)
	}
	if st := r.f.L2(0).State(line0); st != 0 {
		t.Errorf("old sharer state = %d, want I", st)
	}
	if got := r.f.dirs[0].Stats().AckM; got != 1 {
		t.Errorf("AckM grants = %d, want 1", got)
	}
	// Core 1's read was served cache-to-cache and the upgrade is
	// dataless, so only core 0's cold miss touched memory.
	if r.mcs[0].reads != 1 {
		t.Errorf("memory reads = %d, want 1 (cold miss only)", r.mcs[0].reads)
	}
}

func TestOwnershipTransfersCacheToCache(t *testing.T) {
	r := newRig(t, 4, 1)
	r.access(0, 1, line0, true)
	done := r.access(3, 300, line0, true)
	r.run(800)
	if !*done {
		t.Fatal("second store never completed")
	}
	if st := r.f.L2(3).State(line0); st != psModified {
		t.Errorf("new owner state = %d, want M", st)
	}
	if st := r.f.L2(0).State(line0); st != 0 {
		t.Errorf("old owner state = %d, want I", st)
	}
	if got := r.f.dirs[0].Stats().FwdGetM; got != 1 {
		t.Errorf("FwdGetM = %d, want 1", got)
	}
	if got := r.f.Stats().C2CTransfers; got != 1 {
		t.Errorf("cache-to-cache transfers = %d, want 1", got)
	}
	// The dirty line moved core-to-core without touching memory.
	if r.mcs[0].reads != 1 || r.mcs[0].writes != 0 {
		t.Errorf("memory traffic = %d reads / %d writes, want 1/0", r.mcs[0].reads, r.mcs[0].writes)
	}
}

// TestDeferredQueueDrainsPastForwardAndForget pins the directory's
// liveness: A's GetM sits in BusyMemM while B's GetM and C's GetS defer
// behind it. Replaying B's GetM against dirM forwards it and forgets —
// no later event settles the line — so the replay must carry on to C's
// GetS itself, or C starves with the line stable.
func TestDeferredQueueDrainsPastForwardAndForget(t *testing.T) {
	r := newRig(t, 4, 1)
	doneA := r.access(0, 1, line0, true)
	doneB := r.access(1, 8, line0, true)
	doneC := r.access(2, 16, line0, false)

	maxDeferred := 0
	lines := &r.f.dirs[0].lines
	probe := func() {
		if i := lines.find(line0); i >= 0 && lines.txn(i) != nil {
			maxDeferred = max(maxDeferred, lines.txn(i).deferred.Len())
		}
	}
	for c := sim.Cycle(2); c < 120; c++ {
		r.eng.Schedule(c, probe)
	}
	r.run(20000)
	if maxDeferred != 2 {
		t.Fatalf("at most %d requests deferred at once, want 2: the scenario did not form", maxDeferred)
	}
	if !*doneA || !*doneB || !*doneC {
		t.Errorf("accesses stuck: A=%v B=%v C=%v (directory %s)", *doneA, *doneB, *doneC, r.f.dirs[0].EntryState(line0))
	}
	if n := r.f.DeferredRequests(); n != 0 {
		t.Errorf("%d requests still deferred", n)
	}
}

// TestDeferredRequestReplaysAgainstInvalidLine covers the other way a
// queue could strand: the owner's eviction returns the line to Invalid
// with a request still parked, and the replay must treat the entry the
// queue kept alive as an absent line, not drop the request. With settle
// draining whole queues no interleaving leaves a request parked on a
// stable line any more, so the state is built by hand.
func TestDeferredRequestReplaysAgainstInvalidLine(t *testing.T) {
	r := newRig(t, 4, 1)
	d := r.f.dirs[0]
	owned := r.access(0, 1, line0, true)
	r.run(2000)
	if !*owned || d.EntryState(line0) != "M" {
		t.Fatalf("setup: owned=%v state=%s", *owned, d.EntryState(line0))
	}
	getS := r.f.newMsg(mGetS, line0, 1)
	d.defer_(getS, d.lines.find(line0))
	d.process(r.f.newMsg(mPutM, line0, 0), r.eng.Now())
	if got := d.EntryState(line0); got != "BusyMemS" {
		t.Fatalf("line is %s after the eviction, want BusyMemS: the parked GetS was not replayed", got)
	}
	if rec := d.lines.txn(d.lines.find(line0)); rec.req != getS || rec.deferred.Len() != 0 {
		t.Fatalf("entry serves %v with %d still parked, want the parked GetS and none", rec.req, rec.deferred.Len())
	}
}

// TestTransactionRecordsGrowAndRecycle holds more lines in flight at one
// bank than its record slab starts with: 16 cores each miss on 8 lines
// of their own behind a slow memory, so the slab must grow, and every
// record must close as its line settles. A second wave, 8 cores reading
// the lines 8 others own, puts as many lines into BusyFwdS at once as
// the first wave's half; those reuse closed records, so the slab does
// not grow again.
func TestTransactionRecordsGrowAndRecycle(t *testing.T) {
	r := newRig(t, 16, 1)
	r.mcs[0].lat = 400
	d := r.f.dirs[0]
	lineOf := func(c, j int) mem.Addr { return line0 + mem.Addr(8*c+j)*64 }
	var done []*bool
	for c := 0; c < 16; c++ {
		for j := 0; j < 8; j++ {
			done = append(done, r.access(c, sim.Cycle(1+j), lineOf(c, j), false))
		}
	}
	peak := 0
	probe := func() { peak = max(peak, r.f.TransientLines()) }
	for c := sim.Cycle(1); c < 6000; c++ {
		r.eng.Schedule(c, probe)
	}
	drained := func(wave string) {
		t.Helper()
		for n, ok := range done {
			if !*ok {
				t.Fatalf("%s: access %d never completed", wave, n)
			}
		}
		if n := r.f.TransientLines(); n != 0 || len(d.lines.closed) != len(d.lines.txns) {
			t.Fatalf("%s: %d records open, %d of %d closed after every line settled", wave, n, len(d.lines.closed), len(d.lines.txns))
		}
	}
	r.run(3000)
	drained("first wave")
	grown := len(d.lines.txns)
	if peak <= dirTxns || grown < peak {
		t.Fatalf("first wave: at most %d lines in flight and %d records made, want more than the slab's %d and at least the peak", peak, grown, dirTxns)
	}

	peak, done = 0, nil
	for c := 0; c < 8; c++ {
		for j := 0; j < 8; j++ {
			done = append(done, r.access(c, sim.Cycle(3000+j), lineOf(c+8, j), false))
		}
	}
	r.run(6000)
	drained("second wave")
	if peak == 0 || len(d.lines.txns) != grown {
		t.Fatalf("second wave: at most %d lines in flight, slab of %d records after %d: the closed records were not reused", peak, len(d.lines.txns), grown)
	}
	for c := 8; c < 16; c++ {
		for j := 0; j < 8; j++ {
			if st := d.EntryState(lineOf(c, j)); st != "S" {
				t.Fatalf("line %#x is %s after the forwarded read, want S", uint64(lineOf(c, j)), st)
			}
		}
	}
}

// TestDeferralPathsAllocateNothing pins the hot-line paths of a warm
// machine to zero allocations. Writers on distinct cores store to one
// line at once: the first GetM makes it BusyMemM, the rest defer behind
// it, and settle replays them as a chain of forwards, each of which
// can overtake the fill that makes its target the owner, so the target
// holds it on its miss. Round one defers 2 GetMs; round two, the one
// measured, defers 7 behind a fresh line, so it reuses round one's
// closed record and the recycled misses with a deeper queue than they
// have held. First the same 8 cores store to 8 lines of their own,
// which defers nothing but grows the bank's inbox and lookup rings and
// the fabric's pools to round two's high-water marks.
//
// A last pair of rounds parks several L1 requests on one private-L2
// miss: core 8 issues reads of a line another core owns all at once, so
// one GetS leaves and the rest merge onto the miss. The measured round
// parks five reads, more than the first round's two, on an entry that
// comes recycled from the fabric's pool. It must allocate nothing, and
// the reads must complete in the order they arrived.
func TestDeferralPathsAllocateNothing(t *testing.T) {
	r := newRig(t, 16, 1)
	d := r.f.dirs[0]
	served := 0
	done := cache.Waiter{Fn: func(int, sim.Cycle) { served++ }}
	// store has core c store to lines[c], all in one cycle, and runs the
	// machine until every store completes, counting the cycles on which
	// some core's miss holds a forward that overtook its fill.
	var heldCycles uint64
	store := func(lines []mem.Addr) {
		served = 0
		now := r.eng.Now()
		for c, line := range lines {
			if r.l1s[c].Access(now, 0x400, line, true, done) != cache.Miss {
				t.Fatalf("core %d's store to line %#x did not miss", c, uint64(line))
			}
		}
		for range 2000 {
			r.run(1)
			for c, line := range lines {
				if m := r.f.L2(c).misses.Find(line); m != nil && m.fwd != nil {
					heldCycles++
					break
				}
			}
		}
		if served != len(lines) {
			t.Fatalf("%d of %d stores completed", served, len(lines))
		}
	}
	own := make([]mem.Addr, 8)
	for c := range own {
		own[c] = line0 + mem.Addr(c+1)*0x1000
	}
	hot := [][]mem.Addr{slices.Repeat([]mem.Addr{line0}, 3), slices.Repeat([]mem.Addr{line0 + 0x40}, 8)}
	r.run(1)
	store(own)
	if d.stats.Deferred != 0 {
		t.Fatalf("the stores to 8 lines deferred %d requests, want none", d.stats.Deferred)
	}

	deferred, held := make([]uint64, 0, 2), make([]uint64, 0, 2)
	round := 0
	allocs := testing.AllocsPerRun(1, func() {
		store(hot[round])
		deferred = append(deferred, d.stats.Deferred)
		held = append(held, heldCycles)
		round++
	})
	if round != 2 {
		t.Fatalf("%d rounds ran, want 2", round)
	}
	if deferred[0] != 2 || deferred[1] != 2+7 {
		t.Fatalf("the bank deferred %d then %d requests in all, want 2 then 9: the hot line did not form", deferred[0], deferred[1])
	}
	if held[0] == 0 || held[1] == held[0] {
		t.Fatalf("a forward was held behind an in-flight fill on %d then %d cycles in all, want some in each round", held[0], held[1])
	}
	if allocs != 0 {
		t.Errorf("round two allocated %v times, want 0", allocs)
	}
	if n := r.f.DeferredRequests(); n != 0 {
		t.Errorf("%d requests still deferred", n)
	}

	l2 := r.f.L2(8)
	order := make([]int, 0, 5)
	record := func(req *mem.Request, _ sim.Cycle) { order = append(order, req.OwnerIdx) }
	merges := l2.Stats().Merges
	round = 0
	allocs = testing.AllocsPerRun(1, func() {
		order = order[:0]
		now := r.eng.Now()
		for i := range []int{2, 5}[round] {
			req := r.f.ids.NewRequest()
			req.Kind, req.Addr, req.Line, req.Core = mem.Read, own[round], own[round], 8
			req.OwnerIdx, req.OnDone = i, record
			if !l2.Submit(req, now) {
				t.Fatalf("round %d: core 8's L2 refused read %d", round, i)
			}
		}
		r.run(2000)
		round++
	})
	if got := l2.Stats().Merges - merges; got != 1+4 {
		t.Fatalf("%d reads merged onto core 8's misses, want 1 then 4", got)
	}
	if !slices.Equal(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("the reads parked on one miss completed in the order %v, want the order they arrived, [0 1 2 3 4]", order)
	}
	if allocs != 0 {
		t.Errorf("a round of reads merging onto a recycled miss allocated %v times, want 0", allocs)
	}
}

// TestRetryPathsAllocateNothing drives, in an allocation-checked round,
// the places a message or request waits its turn: a burst of GetS from
// many cores for a few lines in a directory bank's inbox, the bank's
// memory reads its controller refuses (they wait in the bank's
// cache.Outbox), the Invs of a GetM against every other core, which
// overrun the bank's injection port and wait in its retry queue, L1
// misses a full private-L2 miss table refuses (they wait in the L1's
// Outbox), and loads that hit in the private L2 and wait out its hit
// latency. A deeper round toward the other bank first grows the
// machine's pools; AllocsPerRun's warm-up round then waits shallowly toward this
// bank, and the measured round deeper on every path, so a queue that
// grew by doubling would allocate there. It must allocate nothing.
func TestRetryPathsAllocateNothing(t *testing.T) {
	r := newRig(t, 16, 2)
	served := 0
	done := cache.Waiter{Fn: func(int, sim.Cycle) { served++ }}
	count := func(*mem.Request, sim.Cycle) { served++ }
	// access has each core in cores load (or store) the lines, all in
	// one cycle, each missing in its L1.
	access := func(cores []int, store bool, lines ...mem.Addr) {
		now := r.eng.Now()
		for _, c := range cores {
			for _, line := range lines {
				if r.l1s[c].Access(now, 0x400, line, store, done) != cache.Miss {
					t.Fatalf("core %d's access to line %#x did not miss in its L1", c, uint64(line))
				}
			}
		}
	}
	type waits struct {
		inbox, out             int
		rejected, stalls, hits uint64
	}
	var w waits
	// until runs the machine a cycle at a time until n accesses have
	// completed since the last call, noting the deepest inbox and retry
	// queue of bank d.
	until := func(d *Directory, n int) {
		for c := 0; served < n; c++ {
			if c == 5000 {
				t.Fatalf("%d of %d accesses completed in 5000 cycles", served, n)
			}
			r.run(1)
			w.inbox, w.out = max(w.inbox, d.inbox.Len()), max(w.out, d.out.Len())
		}
		served = 0
	}
	readers := make([]int, 15)
	for c := range readers {
		readers[c] = c + 1
	}
	lines := make([]mem.Addr, 0, 32)
	// round drives every path toward bank d, with core c's L1 refused
	// and hitting, at depth k: 0 (shallow) or 1 (deep), the readers
	// sharing ns lines.
	round := func(d *Directory, c, k, ns int, base mem.Addr) waits {
		l2 := r.f.L2(c)
		lines = lines[:0]
		for ln := base; len(lines) < cap(lines); ln += 0x40 {
			if r.f.homeDir(ln) == d {
				lines = append(lines, ln)
			}
		}
		shared, filled := lines[:ns], lines[ns:ns+l2.cap]
		refused := lines[ns+l2.cap : ns+l2.cap+1+3*k]
		w = waits{rejected: r.f.mesh.Stats().Rejected, stalls: l2.stats.MSHRStalls, hits: l2.stats.Hits}

		r.mcs[d.id].rejects = 1 + 2*k
		access(readers[:7+8*k], false, shared...)
		until(d, (7+8*k)*len(shared))
		access([]int{0}, true, shared[0])
		until(d, 1)

		now := r.eng.Now()
		for i, ln := range filled {
			req := r.f.ids.NewRequest()
			req.Kind, req.Addr, req.Line, req.Core, req.OnDone = mem.Read, ln, ln, c, count
			if !l2.Submit(req, now) {
				t.Fatalf("core %d's L2 refused read %d with its miss table not yet full", c, i)
			}
		}
		access([]int{c}, false, refused...)
		until(d, len(filled)+len(refused))
		access([]int{c}, false, filled[:2+6*k]...)
		until(d, 2+6*k)

		w.rejected = r.f.mesh.Stats().Rejected - w.rejected
		w.stalls, w.hits = l2.stats.MSHRStalls-w.stalls, l2.stats.Hits-w.hits
		return w
	}
	// The stub memory's event heap is not the machine's: grow it first.
	for range 256 {
		r.mcs[0].events.At(0, func() {})
	}
	r.run(1)
	round(r.f.dirs[1], 9, 1, 8, line0)
	var seen [2]waits
	n := 0
	allocs := testing.AllocsPerRun(1, func() {
		seen[n] = round(r.f.dirs[0], 8, n, 1+3*n, line0+mem.Addr(n+1)*0x100000)
		n++
	})
	if n != 2 {
		t.Fatalf("%d rounds ran, want 2", n)
	}
	one, two := seen[0], seen[1]
	if two.inbox <= one.inbox || two.out <= one.out || two.rejected == 0 || r.mcs[0].rejects != 0 || one.stalls == 0 || two.stalls <= one.stalls || one.hits != 2 || two.hits != 8 {
		t.Fatalf("rounds one and two waited %+v and %+v; want round two deeper in the inbox, the retry queue and the L1's refusals, injections refused, every memory refusal retried, and 2 then 8 L2 hits", one, two)
	}
	if allocs != 0 {
		t.Errorf("round two allocated %v times, want 0", allocs)
	}
	if n := r.f.InFlight(); n != 0 {
		t.Errorf("%d messages, misses or requests still in flight after the rounds", n)
	}
}

// TestMessageOnOneListAtATime: a message waits in one place at a time —
// an inbox, a retry queue, a line's deferred requests or the mesh — on
// the one link its header holds. Delivering it again while it waits,
// parking it elsewhere, or delivering it while the mesh still carries it
// panics.
func TestMessageOnOneListAtATime(t *testing.T) {
	r := newRig(t, 4, 1)
	d := r.f.dirs[0]
	now := r.eng.Now()
	waiting := r.f.newMsg(mGetS, line0, 1)
	d.recv(waiting, now)
	inMesh := r.f.newMsg(mGetS, line0, 1)
	r.f.L2(1).inject(inMesh, d.node, now)
	if r.f.mesh.InFlight() != 1 {
		t.Fatalf("%d messages in the mesh after an injection, want 1", r.f.mesh.InFlight())
	}
	for name, push := range map[string]func(){
		"a second delivery of an inbox's message":      func() { r.f.L2(1).recv(waiting, now) },
		"a retry queue, for an inbox's message":        func() { d.out.Push(&waiting.Header, &waiting.Link) },
		"the front of a retry queue":                   func() { d.out.PushFront(&waiting.Header, &waiting.Link) },
		"a line's deferred requests":                   func() { d.defer_(waiting, d.lines.insert(line0)) },
		"an inbox, for a message the mesh still holds": func() { d.recv(inMesh, now) },
		"a retry queue, for a message in the mesh":     func() { d.out.Push(&inMesh.Header, &inMesh.Link) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("parking %s did not panic", name)
				}
			}()
			push()
		}()
	}
	if h := d.inbox.Pop(); h == nil || h.Body != waiting || d.inbox.Len() != 0 || d.out.Len() != 0 {
		t.Fatal("a refused push changed a list")
	}
}

// forceEvict pushes an owned line out of a private L2 through the real
// eviction path, as a capacity victim would be.
func forceEvict(l2 *PrivateL2, ln mem.Addr, now sim.Cycle) {
	st := l2.State(ln)
	l2.arr.Invalidate(ln)
	l2.evict(ln, st, now)
}

func TestWritebackRaceServedFromBuffer(t *testing.T) {
	r := newRig(t, 4, 1)
	r.access(0, 1, line0, true) // core 0 owns the line dirty
	// Core 1's read and core 0's eviction race: the moment the home
	// bank commits to forwarding (BusyFwdS), the owner evicts — its
	// PutM crosses the in-flight FwdGetS, which must then be served
	// from the writeback buffer.
	done := r.access(1, 300, line0, false)
	seen := false
	for c := sim.Cycle(301); c < 400; c++ {
		at := c
		r.eng.Schedule(at, func() {
			if r.f.dirs[0].EntryState(line0) != "BusyFwdS" {
				return
			}
			seen = true
			if r.f.L2(0).State(line0) == psModified {
				forceEvict(r.f.L2(0), line0, at)
			}
		})
	}
	r.run(800)
	if !*done {
		t.Fatal("racing load never completed")
	}
	if !seen {
		t.Error("BusyFwdS not observed during the race")
	}
	if got := r.f.L2(0).Stats().FwdFromWB; got != 1 {
		t.Errorf("FwdFromWB = %d, want 1 (forward served from the writeback buffer)", got)
	}
	if got := r.f.dirs[0].Stats().WBRaces; got != 1 {
		t.Errorf("directory WBRaces = %d, want 1", got)
	}
	// The dirty data reached memory exactly once, via the racing PutM.
	if r.mcs[0].writes != 1 {
		t.Errorf("memory writes = %d, want 1 (no lost writeback)", r.mcs[0].writes)
	}
	if got := r.f.L2(0).WritebacksInFlight(); got != 0 {
		t.Errorf("writeback buffer holds %d entries after the ack, want 0", got)
	}
	// Only the requester shares: the evicted owner kept no copy.
	if st := r.f.dirs[0].EntryState(line0); st != "S" {
		t.Errorf("directory state = %s, want S", st)
	}
	if st := r.f.L2(1).State(line0); st != psShared {
		t.Errorf("requester state = %d, want S", st)
	}
	if st := r.f.L2(0).State(line0); st != 0 {
		t.Errorf("evicted owner state = %d, want I", st)
	}
}

func TestPlainEvictionWritesBack(t *testing.T) {
	r := newRig(t, 4, 1)
	r.access(0, 1, line0, true)
	r.eng.Schedule(300, func() { forceEvict(r.f.L2(0), line0, 300) })
	r.run(600)
	if r.mcs[0].writes != 1 {
		t.Errorf("memory writes = %d, want 1", r.mcs[0].writes)
	}
	if st := r.f.dirs[0].EntryState(line0); st != "I" {
		t.Errorf("directory state = %s, want I after PutM", st)
	}
	if got := r.f.L2(0).WritebacksInFlight(); got != 0 {
		t.Errorf("writeback buffer not drained: %d entries", got)
	}
}

func TestOrphanL1WritebackReachesMemory(t *testing.T) {
	r := newRig(t, 4, 1)
	ids := &mem.IDSource{}
	// An L1 writeback for a line the private L2 no longer holds must
	// still reach memory (state I at the directory): the orphan path.
	r.eng.Schedule(10, func() {
		wb := ids.NewRequest()
		wb.Kind = mem.Writeback
		wb.Addr = line0
		wb.Line = line0
		wb.Core = 0
		wb.Born = 10
		if !r.f.L2(0).Submit(wb, 10) {
			t.Error("orphan writeback rejected")
		}
	})
	r.run(300)
	if got := r.f.L2(0).Stats().OrphanWB; got != 1 {
		t.Errorf("OrphanWB = %d, want 1", got)
	}
	if r.mcs[0].writes != 1 {
		t.Errorf("memory writes = %d, want 1 (orphan data must not be lost)", r.mcs[0].writes)
	}
	if got := r.f.L2(0).WritebacksInFlight(); got != 0 {
		t.Errorf("writeback buffer not drained: %d entries", got)
	}
}

func TestMissHeldBehindUnackedEviction(t *testing.T) {
	r := newRig(t, 4, 1)
	mc := r.mcs[0]
	r.access(0, 1, line0, true)
	// Jam the controller so the eviction's WBAck is delayed, then miss
	// on the same line: the miss must wait for the buffer to drain
	// rather than race its own PutM at the directory.
	r.eng.Schedule(300, func() {
		mc.rejects = 30
		forceEvict(r.f.L2(0), line0, 300)
	})
	done := r.access(0, 305, line0, false)
	// Held: the load waits above the private L2, which opens no miss
	// while the line's eviction is in its writeback buffer.
	held := false
	for c := sim.Cycle(306); c < 600; c++ {
		r.eng.Schedule(c, func() {
			l2 := r.f.L2(0)
			if _, evicting := l2.wb[line0]; evicting && l2.misses.Find(line0) == nil && r.l1s[0].OutstandingMisses() > 0 {
				held = true
			}
		})
	}
	r.run(1200)
	if !*done {
		t.Fatal("post-eviction load never completed")
	}
	if !held {
		t.Error("the miss was not held behind the unacknowledged eviction")
	}
	if st := r.f.L2(0).State(line0); st != psExcl {
		t.Errorf("re-acquired state = %d, want E", st)
	}
	if st := r.f.dirs[0].EntryState(line0); st != "M" {
		t.Errorf("directory state = %s, want M (line re-owned, not retired)", st)
	}
}

func TestSharedDataAcrossDirectoryBanks(t *testing.T) {
	// 16 cores, 4 banks: lines spread across home directories by page,
	// and the whole machine still settles to a coherent state.
	r := newRig(t, 16, 4)
	lines := []mem.Addr{0x0000, 0x1000, 0x2000, 0x3000} // distinct pages → distinct banks
	for i, ln := range lines {
		for c := 0; c < 16; c++ {
			r.access(c, sim.Cycle(1+100*i+c), ln, false)
		}
	}
	writers := make([]*bool, len(lines))
	for i, ln := range lines {
		writers[i] = r.access(i, sim.Cycle(3000+200*i), ln, true)
	}
	r.run(10_000)
	homes := map[int]bool{}
	for i, ln := range lines {
		if !*writers[i] {
			t.Fatalf("writer %d never completed", i)
		}
		home := r.f.amap.MCOf(ln)
		homes[home] = true
		if st := r.f.dirs[home].EntryState(ln); st != "M" {
			t.Errorf("line %#x at bank %d: state %s, want M", uint64(ln), home, st)
		}
		if st := r.f.L2(i).State(ln); st != psModified {
			t.Errorf("writer %d state = %d, want M", i, st)
		}
		for c := 0; c < 16; c++ {
			if c == i {
				continue
			}
			if st := r.f.L2(c).State(ln); st != 0 {
				t.Errorf("core %d still holds line %#x in state %d", c, uint64(ln), st)
			}
		}
	}
	if len(homes) < 2 {
		t.Errorf("test lines landed on %d directory banks, want several", len(homes))
	}
	if s := r.f.Stats(); s.Invalidations == 0 {
		t.Error("no invalidations recorded across a 16-core shared workload")
	}
}

func TestMeshBackpressureRetriesInjection(t *testing.T) {
	r := newRig(t, 4, 1)
	// A tiny injection budget forces rejections; the retry queues must
	// deliver everything anyway.
	for c := 0; c < 4; c++ {
		for i := 0; i < 6; i++ {
			r.access(c, sim.Cycle(1+i), line0+mem.Addr(i*64), false)
		}
	}
	r.run(2000)
	ms := r.f.Mesh().Stats()
	if ms.Injected != ms.Delivered {
		t.Fatalf("injected %d != delivered %d: messages lost", ms.Injected, ms.Delivered)
	}
	for c := 0; c < 4; c++ {
		if n := r.f.L2(c).OutstandingMisses(); n != 0 {
			t.Errorf("core %d still has %d outstanding misses", c, n)
		}
	}
}
