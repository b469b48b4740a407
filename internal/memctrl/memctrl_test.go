package memctrl

import (
	"testing"

	"stackedsim/internal/bus"
	"stackedsim/internal/config"
	"stackedsim/internal/dram"
	"stackedsim/internal/mem"
	"stackedsim/internal/sim"
)

// testSetup builds a one-rank controller at 1 GHz with round timings.
func testSetup(t *testing.T, frfcfs bool, respond func(*mem.Request, sim.Cycle)) (*Controller, mem.AddrMap) {
	t.Helper()
	amap := mem.AddrMap{LineBytes: 64, PageBytes: 4096, MCs: 1, RanksPerMC: 1, Banks: 4}
	timing := dram.Timing{RAS: 30, RCD: 10, CAS: 10, WR: 10, RP: 10, RFC: 40}
	rank := dram.NewRank(timing, 4, 1, 0, 1000)
	// Overwrite banks with our explicit timing (NewRank already did).
	c := New(Params{
		AMap:      amap,
		Ranks:     []*dram.Rank{rank},
		QueueCap:  8,
		DataBus:   bus.New(8, 1, false), // 64B line = 8 cycles
		Divider:   sim.NewDivider(1),
		FRFCFS:    frfcfs,
		LineBytes: 64,
		Respond:   respond,
	})
	return c, amap
}

func req(id uint64, line mem.Addr, kind mem.Kind) *mem.Request {
	return &mem.Request{ID: id, Kind: kind, Addr: line, Line: line}
}

func TestSingleReadCompletes(t *testing.T) {
	var doneAt sim.Cycle
	var done *mem.Request
	c, _ := testSetup(t, true, func(r *mem.Request, now sim.Cycle) { done = r; doneAt = now })
	r := req(1, 0x1000, mem.Read)
	if !c.Submit(r, 0) {
		t.Fatal("Submit failed on empty MRQ")
	}
	for now := sim.Cycle(1); now <= 100 && done == nil; now++ {
		c.Tick(now)
	}
	if done != r {
		t.Fatal("request never completed")
	}
	// Scheduled at cycle 1, activate+CAS = 20 -> data at 21, +8 bus = 29.
	if doneAt != 29 {
		t.Fatalf("completion at %d, want 29", doneAt)
	}
	if c.Stats().Reads != 1 || c.Stats().Completed != 1 {
		t.Fatalf("stats = %+v", *c.Stats())
	}
}

// TestInFlightCoversScheduledAccesses pins what "drained" means for a
// channel: a scheduled access has left the MRQ but stays in flight —
// and fails CheckDrained — until its response callback has fired.
func TestInFlightCoversScheduledAccesses(t *testing.T) {
	responded := false
	c, _ := testSetup(t, true, func(*mem.Request, sim.Cycle) { responded = true })
	if c.InFlight() != 0 || c.CheckDrained() != nil {
		t.Fatalf("idle controller: InFlight %d, CheckDrained %v", c.InFlight(), c.CheckDrained())
	}
	c.Submit(req(1, 0x1000, mem.Read), 0)
	if c.InFlight() != 1 {
		t.Fatalf("InFlight = %d with one queued request, want 1", c.InFlight())
	}
	c.Tick(1) // scheduled: out of the MRQ, burst ends at cycle 29
	for now := sim.Cycle(2); now < 29; now++ {
		c.Tick(now)
		if c.QueueLen() != 0 || c.InFlight() != 1 || c.CheckDrained() == nil || responded {
			t.Fatalf("cycle %d: MRQ %d, InFlight %d, CheckDrained %v, responded %v; want a scheduled access in flight",
				now, c.QueueLen(), c.InFlight(), c.CheckDrained(), responded)
		}
	}
	c.Tick(29)
	if !responded || c.InFlight() != 0 || c.CheckDrained() != nil {
		t.Fatalf("after the response: responded %v, InFlight %d, CheckDrained %v", responded, c.InFlight(), c.CheckDrained())
	}
}

func TestMRQCapacityRejects(t *testing.T) {
	c, _ := testSetup(t, true, nil)
	for i := 0; i < 8; i++ {
		if !c.Submit(req(uint64(i), mem.Addr(i*4096), mem.Read), 0) {
			t.Fatalf("Submit %d rejected below capacity", i)
		}
	}
	if c.Submit(req(99, 0x0, mem.Read), 0) {
		t.Fatal("Submit accepted beyond capacity")
	}
	if !c.Full() {
		t.Fatal("Full() = false at capacity")
	}
	if c.Stats().Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", c.Stats().Rejected)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	completions := []uint64{}
	c, _ := testSetup(t, true, func(r *mem.Request, now sim.Cycle) {
		completions = append(completions, r.ID)
	})
	// Same bank (same page group): page 0 row X col 0, then a different
	// row in the same bank, then another access to the first row.
	// Bank mapping: pages 0,4,8... all map to bank 0 (MCs=1,Ranks=1,4 banks).
	rowA0 := req(1, 0x0, mem.Read)     // page 0 -> bank 0, row 0
	rowB := req(2, 4*4096*4, mem.Read) // page 16 -> bank 0, row 1
	rowA1 := req(3, 0x40, mem.Read)    // page 0 again (col 1)
	c.Submit(rowA0, 0)
	c.Submit(rowB, 0)
	c.Submit(rowA1, 0)
	for now := sim.Cycle(1); now <= 300 && len(completions) < 3; now++ {
		c.Tick(now)
	}
	if len(completions) != 3 {
		t.Fatalf("only %d completions", len(completions))
	}
	// FR-FCFS must reorder rowA1 ahead of rowB (row hit on open row 0).
	if completions[0] != 1 || completions[1] != 3 || completions[2] != 2 {
		t.Fatalf("completion order = %v, want [1 3 2]", completions)
	}
	if c.Stats().RowHits != 1 {
		t.Fatalf("RowHits = %d, want 1", c.Stats().RowHits)
	}
}

func TestFIFOPreservesOrder(t *testing.T) {
	completions := []uint64{}
	c, _ := testSetup(t, false, func(r *mem.Request, now sim.Cycle) {
		completions = append(completions, r.ID)
	})
	rowA0 := req(1, 0x0, mem.Read)
	rowB := req(2, 4*4096*4, mem.Read)
	rowA1 := req(3, 0x40, mem.Read)
	c.Submit(rowA0, 0)
	c.Submit(rowB, 0)
	c.Submit(rowA1, 0)
	for now := sim.Cycle(1); now <= 500 && len(completions) < 3; now++ {
		c.Tick(now)
	}
	if completions[0] != 1 || completions[1] != 2 || completions[2] != 3 {
		t.Fatalf("completion order = %v, want [1 2 3]", completions)
	}
}

func TestParallelBanksOverlap(t *testing.T) {
	var last sim.Cycle
	n := 0
	c, _ := testSetup(t, true, func(r *mem.Request, now sim.Cycle) { n++; last = now })
	// Two requests to different banks: pages 0 and 1.
	c.Submit(req(1, 0, mem.Read), 0)
	c.Submit(req(2, 4096, mem.Read), 0)
	for now := sim.Cycle(1); now <= 200 && n < 2; now++ {
		c.Tick(now)
	}
	// Serial banks would be >= 2*(20)+bus; overlapping banks pipeline:
	// second command issues at cycle 2, data at 22, bus [29,37].
	if last > 40 {
		t.Fatalf("parallel banks completed at %d, want <= 40", last)
	}
}

func TestWritebackCountsAsWrite(t *testing.T) {
	done := 0
	c, _ := testSetup(t, true, func(r *mem.Request, now sim.Cycle) { done++ })
	c.Submit(req(1, 0x1000, mem.Writeback), 0)
	for now := sim.Cycle(1); now <= 100 && done == 0; now++ {
		c.Tick(now)
	}
	if c.Stats().Writes != 1 || c.Stats().Reads != 0 {
		t.Fatalf("stats = %+v", *c.Stats())
	}
	if done != 1 {
		t.Fatal("writeback never completed")
	}
}

func TestSlowControllerClockDelaysScheduling(t *testing.T) {
	amap := mem.AddrMap{LineBytes: 64, PageBytes: 4096, MCs: 1, RanksPerMC: 1, Banks: 4}
	timing := dram.Timing{RAS: 30, RCD: 10, CAS: 10, WR: 10, RP: 10, RFC: 40}
	var fastDone, slowDone sim.Cycle
	mk := func(div int, out *sim.Cycle) *Controller {
		return New(Params{
			AMap:      amap,
			Ranks:     []*dram.Rank{dram.NewRank(timing, 4, 1, 0, 1000)},
			QueueCap:  8,
			DataBus:   bus.New(8, div, false),
			Divider:   sim.NewDivider(div),
			FRFCFS:    true,
			LineBytes: 64,
			Respond:   func(r *mem.Request, now sim.Cycle) { *out = now },
		})
	}
	fast, slow := mk(1, &fastDone), mk(4, &slowDone)
	fast.Submit(req(1, 0x1000, mem.Read), 0)
	slow.Submit(req(1, 0x1000, mem.Read), 0)
	for now := sim.Cycle(1); now <= 500; now++ {
		fast.Tick(now)
		slow.Tick(now)
	}
	if fastDone == 0 || slowDone == 0 {
		t.Fatal("requests did not complete")
	}
	if slowDone <= fastDone {
		t.Fatalf("slow-clock completion (%d) not after fast (%d)", slowDone, fastDone)
	}
}

func TestQueueWaitAccounting(t *testing.T) {
	// run submits the reads at cycle 0 and reports when the last completed.
	run := func(lines ...mem.Addr) sim.Cycle {
		var last sim.Cycle
		done := 0
		c, _ := testSetup(t, true, func(_ *mem.Request, now sim.Cycle) { done++; last = now })
		for i, line := range lines {
			c.Submit(req(uint64(i+1), line, mem.Read), 0)
		}
		for now := sim.Cycle(1); now <= 500 && done < len(lines); now++ {
			c.Tick(now)
		}
		if done != len(lines) {
			t.Fatalf("%d of %d reads completed", done, len(lines))
		}
		return last
	}
	// Two reads to the SAME bank, different rows: second waits for first.
	alone, behind := run(4*4096*4), run(0, 4*4096*4)
	if behind <= alone {
		t.Fatalf("read behind a bank conflict completed at %d, alone at %d: it did not wait in the queue", behind, alone)
	}
}

func TestNewValidation(t *testing.T) {
	amap := mem.AddrMap{LineBytes: 64, PageBytes: 4096, MCs: 1, RanksPerMC: 1, Banks: 1}
	timing := dram.TimingInCycles(config.Timing2D(), 1000)
	rank := dram.NewRank(timing, 1, 1, 0, 1000)
	good := Params{AMap: amap, Ranks: []*dram.Rank{rank}, QueueCap: 4, DataBus: bus.New(8, 1, false), LineBytes: 64}
	bad := []func(Params) Params{
		func(p Params) Params { p.Ranks = nil; return p },
		func(p Params) Params { p.QueueCap = 0; return p },
		func(p Params) Params { p.DataBus = nil; return p },
		func(p Params) Params { p.LineBytes = 0; return p },
	}
	for i, mutate := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad params %d did not panic", i)
				}
			}()
			New(mutate(good))
		}()
	}
}

func TestRowHitRate(t *testing.T) {
	var s Stats
	if s.RowHitRate() != 0 {
		t.Fatal("empty RowHitRate should be 0")
	}
	s.Reads, s.RowHits = 4, 1
	if s.RowHitRate() != 0.25 {
		t.Fatalf("RowHitRate = %v", s.RowHitRate())
	}
}

func TestCriticalWordFirstCompletesEarly(t *testing.T) {
	amap := mem.AddrMap{LineBytes: 64, PageBytes: 4096, MCs: 1, RanksPerMC: 1, Banks: 4}
	timing := dram.Timing{RAS: 30, RCD: 10, CAS: 10, WR: 10, RP: 10, RFC: 40}
	mk := func(cwf bool, out *sim.Cycle) *Controller {
		return New(Params{
			AMap: amap, Ranks: []*dram.Rank{dram.NewRank(timing, 4, 1, 0, 1000)},
			QueueCap: 8, DataBus: bus.New(8, 4, true), // 2D FSB: 16 cycles per line
			Divider: sim.NewDivider(4), FRFCFS: true, LineBytes: 64,
			CriticalWordFirst: cwf,
			Respond:           func(r *mem.Request, now sim.Cycle) { *out = now },
		})
	}
	var plain, early sim.Cycle
	a, b := mk(false, &plain), mk(true, &early)
	a.Submit(req(1, 0x1000, mem.Read), 0)
	b.Submit(req(1, 0x1000, mem.Read), 0)
	for now := sim.Cycle(1); now <= 200; now++ {
		a.Tick(now)
		b.Tick(now)
	}
	if plain == 0 || early == 0 {
		t.Fatal("requests did not complete")
	}
	// CWF must deliver 14 cycles earlier: first beat (2 cycles) instead
	// of the full 16-cycle line.
	if got := plain - early; got != 14 {
		t.Fatalf("CWF saved %d cycles, want 14", got)
	}
}

func TestCriticalWordFirstStillOccupiesBus(t *testing.T) {
	amap := mem.AddrMap{LineBytes: 64, PageBytes: 4096, MCs: 1, RanksPerMC: 1, Banks: 4}
	timing := dram.Timing{RAS: 30, RCD: 10, CAS: 10, WR: 10, RP: 10, RFC: 40}
	databus := bus.New(8, 4, true)
	done := 0
	c := New(Params{
		AMap: amap, Ranks: []*dram.Rank{dram.NewRank(timing, 4, 1, 0, 1000)},
		QueueCap: 8, DataBus: databus, Divider: sim.NewDivider(4),
		FRFCFS: true, LineBytes: 64, CriticalWordFirst: true,
		Respond: func(*mem.Request, sim.Cycle) { done++ },
	})
	c.Submit(req(1, 0x1000, mem.Read), 0)
	c.Submit(req(2, 0x2000, mem.Read), 0) // different bank, contends on the bus
	for now := sim.Cycle(1); now <= 400 && done < 2; now++ {
		c.Tick(now)
	}
	// Both lines crossed in full: 2 x 16 bus cycles.
	if databus.Stats().BusyCycles != 32 {
		t.Fatalf("bus busy %d cycles, want 32 (tails still occupy)", databus.Stats().BusyCycles)
	}
}

func TestCriticalWordFirstDoesNotApplyToWrites(t *testing.T) {
	var at sim.Cycle
	amap := mem.AddrMap{LineBytes: 64, PageBytes: 4096, MCs: 1, RanksPerMC: 1, Banks: 4}
	timing := dram.Timing{RAS: 30, RCD: 10, CAS: 10, WR: 10, RP: 10, RFC: 40}
	c := New(Params{
		AMap: amap, Ranks: []*dram.Rank{dram.NewRank(timing, 4, 1, 0, 1000)},
		QueueCap: 8, DataBus: bus.New(8, 1, false), Divider: sim.NewDivider(1),
		FRFCFS: true, LineBytes: 64, CriticalWordFirst: true,
		Respond: func(r *mem.Request, now sim.Cycle) { at = now },
	})
	c.Submit(req(1, 0x1000, mem.Writeback), 0)
	for now := sim.Cycle(1); now <= 100 && at == 0; now++ {
		c.Tick(now)
	}
	// Full 8-cycle transfer after the 21-cycle array access.
	if at != 29 {
		t.Fatalf("writeback completed at %d, want 29", at)
	}
}

func TestReadPriorityOverWritebacks(t *testing.T) {
	completions := []uint64{}
	c, _ := testSetup(t, true, func(r *mem.Request, now sim.Cycle) {
		completions = append(completions, r.ID)
	})
	// Submit writebacks first, then a read; the read must finish first.
	c.Submit(req(1, 4096*0, mem.Writeback), 0)
	c.Submit(req(2, 4096*1, mem.Writeback), 0)
	c.Submit(req(3, 4096*2, mem.Read), 0)
	for now := sim.Cycle(1); now <= 500 && len(completions) < 3; now++ {
		c.Tick(now)
	}
	if len(completions) != 3 {
		t.Fatalf("only %d completions", len(completions))
	}
	if completions[0] != 3 {
		t.Fatalf("first completion = req %d, want the read (3)", completions[0])
	}
}

// TestAttachMatchesPlainTicking pins the idle fast-path: a controller
// Attach-ed to an engine (which skips cycles the controller reported
// quiescent for) must complete the same requests on the same cycles,
// with the same stats, as one ticked manually every cycle — including
// refresh activity, which must wake a sleeping controller on its own.
func TestAttachMatchesPlainTicking(t *testing.T) {
	amap := mem.AddrMap{LineBytes: 64, PageBytes: 4096, MCs: 1, RanksPerMC: 1, Banks: 4}
	timing := dram.Timing{RAS: 30, RCD: 10, CAS: 10, WR: 10, RP: 10, RFC: 40}
	type completion struct {
		id uint64
		at sim.Cycle
	}
	// refreshMS=1 at 1 GHz gives a ~122-cycle refresh interval, so the
	// 600-cycle window crosses several refreshes while the MRQ is empty.
	mk := func(out *[]completion) *Controller {
		return New(Params{
			AMap:      amap,
			Ranks:     []*dram.Rank{dram.NewRank(timing, 4, 1, 1, 1000)},
			QueueCap:  8,
			DataBus:   bus.New(8, 4, false),
			Divider:   sim.NewDivider(4),
			FRFCFS:    true,
			LineBytes: 64,
			Respond: func(r *mem.Request, now sim.Cycle) {
				*out = append(*out, completion{r.ID, now})
			},
		})
	}
	submitAt := map[sim.Cycle][]*mem.Request{}
	for i := uint64(0); i < 6; i++ {
		// Staggered submissions with long idle gaps in between.
		at := sim.Cycle(1 + i*90)
		submitAt[at] = append(submitAt[at], req(i+1, mem.Addr(i*4096), mem.Read))
	}

	var plainDone []completion
	plain := mk(&plainDone)
	for now := sim.Cycle(1); now <= 600; now++ {
		for _, r := range submitAt[now] {
			if !plain.Submit(r, now) {
				t.Fatalf("plain Submit rejected at %d", now)
			}
		}
		plain.Tick(now)
	}

	var attDone []completion
	att := mk(&attDone)
	eng := sim.NewEngine()
	att.Attach(eng)
	for now := sim.Cycle(1); now <= 600; now++ {
		for _, r := range submitAt[now] {
			if !att.Submit(r, now) {
				t.Fatalf("attached Submit rejected at %d", now)
			}
		}
		eng.Step()
	}

	if len(plainDone) != 6 {
		t.Fatalf("plain controller completed %d requests, want 6", len(plainDone))
	}
	if len(attDone) != len(plainDone) {
		t.Fatalf("attached controller completed %d requests, plain completed %d", len(attDone), len(plainDone))
	}
	for i := range plainDone {
		if plainDone[i] != attDone[i] {
			t.Fatalf("completion %d differs: plain %+v vs attached %+v", i, plainDone[i], attDone[i])
		}
	}
	if *plain.Stats() != *att.Stats() {
		t.Fatalf("stats differ:\nplain:    %+v\nattached: %+v", *plain.Stats(), *att.Stats())
	}
	pb, ab := plain.Ranks()[0].Banks[0].Stats(), att.Ranks()[0].Banks[0].Stats()
	if *pb != *ab {
		t.Fatalf("bank stats differ:\nplain:    %+v\nattached: %+v", *pb, *ab)
	}
}

func TestWritebackReserveRejectsNearFull(t *testing.T) {
	c, _ := testSetup(t, true, nil) // queue cap 8, reserve 2
	for i := 0; i < 6; i++ {
		if !c.Submit(req(uint64(i), mem.Addr(i*4096), mem.Writeback), 0) {
			t.Fatalf("writeback %d rejected below reserve threshold", i)
		}
	}
	if c.Submit(req(99, 0x40000, mem.Writeback), 0) {
		t.Fatal("writeback accepted into reserved slots")
	}
	if !c.Submit(req(100, 0x41000, mem.Read), 0) {
		t.Fatal("read rejected despite reserved slots")
	}
}
