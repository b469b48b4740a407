package memctrl

import (
	"testing"

	"stackedsim/internal/bus"
	"stackedsim/internal/dram"
	"stackedsim/internal/fault"
	"stackedsim/internal/mem"
	"stackedsim/internal/sim"
)

// faultSetup builds a controller over nRanks one-bank-group ranks with
// the given scenario compiled for its shape.
func faultSetup(t *testing.T, nRanks int, respond func(*mem.Request, sim.Cycle), specs ...fault.Spec) (*Controller, *fault.Injector) {
	t.Helper()
	in, err := fault.NewInjector(&fault.Scenario{Faults: specs}, 1, []int{nRanks})
	if err != nil {
		t.Fatal(err)
	}
	amap := mem.AddrMap{LineBytes: 64, PageBytes: 4096, MCs: 1, RanksPerMC: nRanks, Banks: 4}
	timing := dram.Timing{RAS: 30, RCD: 10, CAS: 10, WR: 10, RP: 10, RFC: 40}
	ranks := make([]*dram.Rank, nRanks)
	for i := range ranks {
		ranks[i] = dram.NewRank(timing, 4, 1, 0, 1000)
	}
	c := New(Params{
		AMap:      amap,
		Ranks:     ranks,
		QueueCap:  8,
		DataBus:   bus.New(8, 1, false),
		Divider:   sim.NewDivider(1),
		FRFCFS:    true,
		LineBytes: 64,
		Respond:   respond,
	})
	c.SetFaults(in.MC(0))
	return c, in
}

func TestStalledControllerDefersScheduling(t *testing.T) {
	var doneAt sim.Cycle
	c, in := faultSetup(t, 1, func(_ *mem.Request, now sim.Cycle) { doneAt = now },
		fault.Spec{Kind: fault.KindMCStall, MC: 0, From: 0, Until: 50})
	if !c.Submit(req(1, 0x1000, mem.Read), 0) {
		t.Fatal("Submit failed")
	}
	for now := sim.Cycle(1); now <= 200 && doneAt == 0; now++ {
		c.Tick(now)
	}
	// Unfaulted: scheduled at 1, done at 29. Stalled until 50: the first
	// free edge is 50, activate+CAS 20, bus 8 -> 78.
	if doneAt != 78 {
		t.Fatalf("completion at %d, want 78 (deferred past the stall window)", doneAt)
	}
	if st := in.Stats(); st.MCStallEdges == 0 {
		t.Fatal("stall edges not counted")
	}
}

func TestStuckRankBlocksThenDrains(t *testing.T) {
	var doneAt sim.Cycle
	c, in := faultSetup(t, 1, func(_ *mem.Request, now sim.Cycle) { doneAt = now },
		fault.Spec{Kind: fault.KindRankStuck, MC: 0, Rank: 0, From: 0, Until: 60})
	if !c.Submit(req(1, 0x1000, mem.Read), 0) {
		t.Fatal("Submit failed")
	}
	for now := sim.Cycle(1); now <= 200 && doneAt == 0; now++ {
		c.Tick(now)
	}
	// The only rank is stuck until 60: schedule at 60, data 80, bus 88.
	if doneAt != 88 {
		t.Fatalf("completion at %d, want 88 (after the rank unsticks)", doneAt)
	}
	if st := in.Stats(); st.RankBlocked == 0 {
		t.Fatal("blocked scheduler passes not counted")
	}
}

func TestDeadRankFailsOverToHealthyRank(t *testing.T) {
	var doneAt sim.Cycle
	c2, in2 := faultSetup(t, 2, func(_ *mem.Request, now sim.Cycle) { doneAt = now },
		fault.Spec{Kind: fault.KindRankDead, MC: 0, Rank: 0, From: 0, Failover: true})
	// Find a line that decodes to rank 0 so the failover path triggers.
	line := mem.Addr(0)
	amap := mem.AddrMap{LineBytes: 64, PageBytes: 4096, MCs: 1, RanksPerMC: 2, Banks: 4}
	for l := mem.Addr(0); l < 1<<20; l += 64 {
		if loc := amap.Decode(l); loc.Rank == 0 {
			line = l
			break
		}
	}
	if !c2.Submit(req(1, line, mem.Read), 0) {
		t.Fatal("Submit failed")
	}
	for now := sim.Cycle(1); now <= 200 && doneAt == 0; now++ {
		c2.Tick(now)
	}
	if doneAt == 0 {
		t.Fatal("failover request never completed")
	}
	if st := in2.Stats(); st.RankRemaps != 1 {
		t.Fatalf("remaps = %d, want 1", st.RankRemaps)
	}
	// The access must have landed on rank 1's banks, not the dead rank 0.
	var r0, r1 uint64
	for _, b := range c2.p.Ranks[0].Banks {
		r0 += b.Stats().Accesses
	}
	for _, b := range c2.p.Ranks[1].Banks {
		r1 += b.Stats().Accesses
	}
	if r0 != 0 || r1 != 1 {
		t.Fatalf("rank accesses = %d/%d, want 0/1 (remapped)", r0, r1)
	}
}

// TestQueuedRequestFailsOverWhenItsRankDies queues a request while its
// rank is healthy, keeps it waiting behind a busy bank until the rank
// dies with failover, and requires it to land on the failover rank: the
// MRQ may keep a request's decoded location, never its remap.
func TestQueuedRequestFailsOverWhenItsRankDies(t *testing.T) {
	const dies = 10
	done := 0
	c, in := faultSetup(t, 2, func(*mem.Request, sim.Cycle) { done++ },
		fault.Spec{Kind: fault.KindRankDead, MC: 0, Rank: 0, From: dies, Failover: true})
	// Two lines in one bank of rank 0, on different rows: the second
	// waits while the first holds the bank.
	var lines []mem.Addr
	first := c.p.AMap.Decode(0)
	for l := mem.Addr(0); len(lines) < 2 && l < 1<<24; l += 64 {
		if loc := c.p.AMap.Decode(l); loc.Rank == 0 && loc.Bank == first.Bank && (len(lines) == 0 || loc.Row != first.Row) {
			lines = append(lines, l)
		}
	}
	if first.Rank != 0 || len(lines) != 2 {
		t.Fatalf("found lines %v in rank 0 bank %d, want two rows", lines, first.Bank)
	}
	for i, l := range lines {
		if !c.Submit(req(uint64(i+1), l, mem.Read), 0) {
			t.Fatal("Submit failed")
		}
	}
	for now := sim.Cycle(1); now <= 300 && done < 2; now++ {
		c.Tick(now)
		if now == dies-1 && c.QueueLen() != 1 {
			t.Fatalf("%d requests queued the cycle before the rank dies, want the second one waiting", c.QueueLen())
		}
	}
	if done != 2 {
		t.Fatalf("%d of 2 requests completed", done)
	}
	if st := in.Stats(); st.RankRemaps != 1 {
		t.Fatalf("remaps = %d, want 1 (the request queued before the rank died)", st.RankRemaps)
	}
	var r0, r1 uint64
	for _, b := range c.p.Ranks[0].Banks {
		r0 += b.Stats().Accesses
	}
	for _, b := range c.p.Ranks[1].Banks {
		r1 += b.Stats().Accesses
	}
	if r0 != 1 || r1 != 1 {
		t.Fatalf("rank accesses = %d/%d, want 1/1 (the waiting request remapped)", r0, r1)
	}
}

func TestDeadRankWithoutFailoverWaitsForRecovery(t *testing.T) {
	var doneAt sim.Cycle
	c, _ := faultSetup(t, 1, func(_ *mem.Request, now sim.Cycle) { doneAt = now },
		fault.Spec{Kind: fault.KindRankDead, MC: 0, Rank: 0, From: 0, Until: 100})
	if !c.Submit(req(1, 0x1000, mem.Read), 0) {
		t.Fatal("Submit failed")
	}
	for now := sim.Cycle(1); now <= 300 && doneAt == 0; now++ {
		c.Tick(now)
	}
	// Blocked until the rank recovers at 100: data 120, bus 128.
	if doneAt != 128 {
		t.Fatalf("completion at %d, want 128 (after rank recovery)", doneAt)
	}
}
