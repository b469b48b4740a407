package stackcache

import (
	"testing"

	"stackedsim/internal/bus"
	"stackedsim/internal/config"
	"stackedsim/internal/dram"
	"stackedsim/internal/mem"
	"stackedsim/internal/memctrl"
	"stackedsim/internal/sim"
)

// rig wires a layer to real stacked and backing controllers, ticked by
// hand, so each flow can be driven request by request. The controllers
// complete what they serve, as in a full system.
type rig struct {
	cfg     *config.Config
	l       *Layer
	stacked []*memctrl.Controller
	backing *memctrl.Controller
	now     sim.Cycle
}

// newRig builds a 1MB stack cache (16 ways x 4KB blocks = 16 sets in
// cache mode) over a single stacked MC. hot is required for memcache
// configs.
func newRig(t *testing.T, mode config.StackMode, mutate func(*config.Config), hot func(mem.Addr) bool) *rig {
	t.Helper()
	cfg := config.Fast3D().WithStackCache(mode, 1)
	if mutate != nil {
		mutate(cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config: %v", err)
	}
	amap := mem.AddrMap{
		LineBytes: cfg.LineBytes, PageBytes: cfg.PageBytes,
		MCs: cfg.MCs, RanksPerMC: cfg.RanksPerMC(), Banks: cfg.BanksPerRank,
	}
	rg := &rig{cfg: cfg}
	complete := func(r *mem.Request, now sim.Cycle) { r.Complete(now) }
	timing := dram.TimingInCycles(cfg.Timing, cfg.CPUMHz)
	for m := 0; m < cfg.MCs; m++ {
		ranks := make([]*dram.Rank, cfg.RanksPerMC())
		for r := range ranks {
			ranks[r] = dram.NewRank(timing, cfg.BanksPerRank, cfg.RowBufferEntries, 0, cfg.CPUMHz)
		}
		rg.stacked = append(rg.stacked, memctrl.New(memctrl.Params{
			ID: m, AMap: amap, Ranks: ranks,
			QueueCap: cfg.MRQPerMC(),
			DataBus:  bus.New(cfg.BusBytes, cfg.BusDivider, cfg.BusDDR),
			Divider:  sim.NewDivider(cfg.BusDivider),
			FRFCFS:   cfg.SchedFRFCFS, LineBytes: cfg.LineBytes,
			Respond: complete,
		}))
	}
	btiming := dram.TimingInCycles(cfg.BackingTiming, cfg.CPUMHz)
	branks := make([]*dram.Rank, cfg.BackingRanks)
	for r := range branks {
		branks[r] = dram.NewRank(btiming, cfg.BanksPerRank, 1, 0, cfg.CPUMHz)
	}
	bamap := mem.AddrMap{
		LineBytes: cfg.StackFillBytes, PageBytes: cfg.PageBytes,
		MCs: 1, RanksPerMC: cfg.BackingRanks, Banks: cfg.BanksPerRank,
	}
	rg.backing = memctrl.New(memctrl.Params{
		ID: cfg.MCs, AMap: bamap, Ranks: branks,
		QueueCap: cfg.BackingMRQ,
		DataBus:  bus.New(cfg.BackingBusBytes, cfg.BackingBusDivider, cfg.BackingBusDDR),
		Divider:  sim.NewDivider(cfg.BackingBusDivider),
		FRFCFS:   cfg.SchedFRFCFS, LineBytes: cfg.StackFillBytes,
		Respond: complete,
	})
	rg.l = New(Params{
		Cfg: cfg, AMap: amap,
		Stacked: rg.stacked, Backing: rg.backing,
		IDs: &mem.IDSource{}, Hot: hot,
	})
	return rg
}

// run advances the rig n cycles.
func (rg *rig) run(n sim.Cycle) {
	for i := sim.Cycle(0); i < n; i++ {
		rg.now++
		rg.l.Tick(rg.now)
		for _, mc := range rg.stacked {
			mc.Tick(rg.now)
		}
		rg.backing.Tick(rg.now)
	}
}

// read submits a demand read through the layer's front port, recording
// its completion cycle in done.
func (rg *rig) read(id uint64, addr mem.Addr, done *sim.Cycle) bool {
	line := addr &^ mem.Addr(rg.cfg.LineBytes-1)
	r := &mem.Request{ID: id, Kind: mem.Read, Addr: addr, Line: line, Core: 0, Born: rg.now}
	if done != nil {
		r.OnDone = func(_ *mem.Request, now sim.Cycle) { *done = now }
	}
	fronts := rg.l.Fronts()
	return fronts[rg.l.amap.MCOf(line)].Submit(r, rg.now)
}

// writeback submits an L2 writeback through the front port.
func (rg *rig) writeback(id uint64, addr mem.Addr) bool {
	line := addr &^ mem.Addr(rg.cfg.LineBytes-1)
	r := &mem.Request{ID: id, Kind: mem.Writeback, Addr: addr, Line: line, Core: 0, Born: rg.now}
	fronts := rg.l.Fronts()
	return fronts[rg.l.amap.MCOf(line)].Submit(r, rg.now)
}

// settle runs until the layer has no in-flight block fetches (or the
// cycle budget runs out).
func (rg *rig) settle(t *testing.T, budget sim.Cycle) {
	t.Helper()
	for i := sim.Cycle(0); i < budget; i += 100 {
		rg.run(100)
		if len(rg.l.pending) == 0 && rg.l.back.Len() == 0 {
			return
		}
	}
	t.Fatalf("layer did not settle in %d cycles: %s", budget, rg.l.Debug())
}

func TestSRAMMissFillsThenHits(t *testing.T) {
	rg := newRig(t, config.StackCache, nil, nil)
	var d1, d2 sim.Cycle
	if !rg.read(1, 0x40000, &d1) {
		t.Fatal("submit rejected")
	}
	rg.settle(t, 20_000)
	st := rg.l.Stats()
	if d1 == 0 {
		t.Fatal("cold read never completed")
	}
	if st.Probes != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("cold read: probes/hits/misses = %d/%d/%d, want 1/0/1", st.Probes, st.Hits, st.Misses)
	}
	if st.BackingReads != 1 || st.Fills != 1 {
		t.Fatalf("cold read: backing reads %d, fills %d, want 1/1", st.BackingReads, st.Fills)
	}
	missLat := d1

	start := rg.now
	// Same 4KB block, different line: must hit the installed block.
	if !rg.read(2, 0x40040, &d2) {
		t.Fatal("submit rejected")
	}
	rg.run(20_000)
	if d2 == 0 {
		t.Fatal("warm read never completed")
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("warm read: hits %d misses %d, want 1/1", st.Hits, st.Misses)
	}
	if st.BackingReads != 1 {
		t.Fatalf("warm read went off chip (backing reads %d)", st.BackingReads)
	}
	if hitLat := d2 - start; hitLat >= missLat {
		t.Fatalf("hit latency %d not below miss latency %d", hitLat, missLat)
	}
}

func TestMissMergeIssuesOneBackingRead(t *testing.T) {
	rg := newRig(t, config.StackCache, nil, nil)
	var d1, d2 sim.Cycle
	if !rg.read(1, 0x50000, &d1) || !rg.read(2, 0x50040, &d2) {
		t.Fatal("submit rejected")
	}
	rg.settle(t, 20_000)
	st := rg.l.Stats()
	if d1 == 0 || d2 == 0 {
		t.Fatalf("merged misses did not both complete (%d, %d)", d1, d2)
	}
	if st.Misses != 2 || st.MissMerges != 1 {
		t.Fatalf("misses %d merges %d, want 2/1", st.Misses, st.MissMerges)
	}
	if st.BackingReads != 1 || st.Fills != 1 {
		t.Fatalf("backing reads %d fills %d, want one shared fetch", st.BackingReads, st.Fills)
	}
}

func TestWritebackAbsorbAndForward(t *testing.T) {
	rg := newRig(t, config.StackCache, nil, nil)
	var d1 sim.Cycle
	if !rg.read(1, 0x40000, &d1) {
		t.Fatal("submit rejected")
	}
	rg.settle(t, 20_000)

	// Resident block: the writeback is absorbed and marks it dirty.
	if !rg.writeback(2, 0x40080) {
		t.Fatal("absorbable writeback rejected")
	}
	st := rg.l.Stats()
	if st.WritebacksIn != 1 || st.WritebacksOut != 0 {
		t.Fatalf("absorb: in %d out %d, want 1/0", st.WritebacksIn, st.WritebacksOut)
	}
	// Absent block: forwarded off chip, no allocation.
	if !rg.writeback(3, 0x900000) {
		t.Fatal("forwarded writeback rejected")
	}
	if st.WritebacksOut != 1 || st.BackingWrites != 1 {
		t.Fatalf("forward: out %d backing writes %d, want 1/1", st.WritebacksOut, st.BackingWrites)
	}
	if rg.l.tags.Contains(0x900000) {
		t.Fatal("forwarded writeback allocated a block")
	}
	rg.run(20_000)
}

func TestDirtyVictimGoesOffChip(t *testing.T) {
	rg := newRig(t, config.StackCache, nil, nil)
	// Install block 0 and dirty it.
	var d sim.Cycle
	if !rg.read(1, 0, &d) {
		t.Fatal("submit rejected")
	}
	rg.settle(t, 20_000)
	if !rg.writeback(2, 0x40) {
		t.Fatal("writeback rejected")
	}
	rg.run(2_000)

	// 16 sets of 4KB blocks: addresses k*64KB all index set 0. Filling
	// 16 more blocks evicts the dirty LRU block 0.
	setStride := mem.Addr(rg.l.tags.Sets() * rg.cfg.StackFillBytes)
	for k := 1; k <= rg.cfg.StackWays; k++ {
		if !rg.read(uint64(10+k), mem.Addr(k)*setStride, nil) {
			t.Fatalf("conflict read %d rejected", k)
		}
		rg.settle(t, 40_000)
	}
	st := rg.l.Stats()
	if st.WritebacksOut == 0 || st.BackingWrites < st.WritebacksOut {
		t.Fatalf("dirty victim never went off chip (out %d, backing writes %d)",
			st.WritebacksOut, st.BackingWrites)
	}
	if rg.l.tags.Contains(0) {
		t.Fatal("victim block still resident after conflict fills")
	}
}

func TestMemCacheHotRegionBypassesTags(t *testing.T) {
	hotLimit := mem.Addr(64 << 10)
	hot := func(a mem.Addr) bool { return a < hotLimit }
	rg := newRig(t, config.StackMemCache, nil, hot)

	var dh, dc sim.Cycle
	if !rg.read(1, 0x8000, &dh) {
		t.Fatal("hot read rejected")
	}
	rg.run(20_000)
	st := rg.l.Stats()
	if dh == 0 {
		t.Fatal("hot read never completed")
	}
	if st.DirectReads != 1 || st.Probes != 0 {
		t.Fatalf("hot read: direct %d probes %d, want 1/0", st.DirectReads, st.Probes)
	}
	if !rg.writeback(2, 0x8040) {
		t.Fatal("hot writeback rejected")
	}
	if st.DirectWrites != 1 {
		t.Fatalf("hot writeback: direct writes %d, want 1", st.DirectWrites)
	}
	// Cold addresses still take the tag path.
	if !rg.read(3, 0x200000, &dc) {
		t.Fatal("cold read rejected")
	}
	rg.settle(t, 20_000)
	if dc == 0 || st.Misses != 1 || st.BackingReads != 1 {
		t.Fatalf("cold read: done %d misses %d backing %d", dc, st.Misses, st.BackingReads)
	}
}

func TestNewPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("memory mode", func() {
		cfg := config.Fast3D()
		New(Params{Cfg: cfg, IDs: &mem.IDSource{}, Backing: &memctrl.Controller{}})
	})
	mustPanic("memcache without Hot", func() {
		rg := newRig(t, config.StackCache, nil, nil)
		cfg := rg.cfg.Clone()
		cfg.StackMode = config.StackMemCache
		cfg.StackHotFrac = 0.5
		New(Params{Cfg: cfg, AMap: rg.l.amap, Stacked: rg.stacked, Backing: rg.backing, IDs: &mem.IDSource{}})
	})
	// The L2 sends only reads and writebacks down.
	mustPanic("a write through a front", func() {
		rg := newRig(t, config.StackCache, nil, nil)
		rg.l.Fronts()[0].Submit(&mem.Request{ID: 1, Kind: mem.Write}, 0)
	})
}
