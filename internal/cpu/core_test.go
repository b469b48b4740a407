package cpu

import (
	"testing"

	"stackedsim/internal/cache"
	"stackedsim/internal/config"
	"stackedsim/internal/mem"
	"stackedsim/internal/sim"
	"stackedsim/internal/tlb"
)

// instantPort answers every request after a fixed delay when pump() runs.
// It counts the requests it accepted and notes when the first arrived.
type instantPort struct {
	delay   sim.Cycle
	pending []*mem.Request
	reject  bool
	sent    int
	firstAt sim.Cycle
}

func (p *instantPort) Submit(r *mem.Request, now sim.Cycle) bool {
	if p.reject {
		return false
	}
	if p.sent == 0 {
		p.firstAt = now
	}
	p.sent++
	p.pending = append(p.pending, r)
	return true
}

// ipc is the core's committed μops per cycle over the first n cycles.
func ipc(c *Core, n sim.Cycle) float64 { return float64(c.Stats().Committed) / float64(n) }

func (p *instantPort) pump(now sim.Cycle) {
	for _, r := range p.pending {
		r.Complete(now + p.delay)
	}
	p.pending = p.pending[:0]
}

// scriptSource replays a fixed μop slice, then repeats compute μops.
type scriptSource struct {
	ops []UOp
	i   int
}

func (s *scriptSource) Next() UOp {
	if s.i < len(s.ops) {
		op := s.ops[s.i]
		s.i++
		return op
	}
	return UOp{} // endless compute
}

func testCore(t *testing.T, src UOpSource, port cache.Port) *Core {
	t.Helper()
	cfg := config.Baseline2D()
	l1 := cache.NewL1(cache.L1Params{
		Core: 0, Array: cache.NewArray("dl1", 32, 12, 64), Latency: 3,
		LineBytes: 64, MSHRs: 8, Below: port, IDs: &mem.IDSource{},
	})
	pt := mem.NewPageTable(1<<32, 4096)
	return New(Params{
		ID: 0, Cfg: cfg, L1: l1,
		DTLB:   tlb.New(64, 4, pt),
		Pages:  pt,
		Source: src,
	})
}

func TestComputeOnlyIPCReachesCommitWidth(t *testing.T) {
	c := testCore(t, &scriptSource{}, &instantPort{})
	for now := sim.Cycle(1); now <= 2000; now++ {
		c.Tick(now)
	}
	if ipc := ipc(c, 2000); ipc < 3.5 {
		t.Fatalf("compute-only IPC = %.2f, want near 4", ipc)
	}
}

func TestLoadMissStallsUntilFill(t *testing.T) {
	port := &instantPort{delay: 0}
	src := &scriptSource{ops: []UOp{{Mem: true, VAddr: 0x10000, PC: 1}}}
	c := testCore(t, src, port)
	// Run without pumping: the load never completes, so commit stalls
	// after the ROB drains the younger compute μops... compute μops are
	// younger, so commit stalls AT the load (in-order commit).
	for now := sim.Cycle(1); now <= 300; now++ {
		c.Tick(now)
	}
	if got := c.Stats().Committed; got != 0 {
		t.Fatalf("committed %d μops past an outstanding oldest load", got)
	}
	// Now satisfy the miss: commit resumes.
	port.pump(301)
	for now := sim.Cycle(301); now <= 400; now++ {
		c.Tick(now)
	}
	if c.Stats().Committed == 0 {
		t.Fatal("commit never resumed after fill")
	}
}

func TestROBFillsWhileMissOutstanding(t *testing.T) {
	port := &instantPort{}
	src := &scriptSource{ops: []UOp{{Mem: true, VAddr: 0x10000, PC: 1}}}
	c := testCore(t, src, port)
	for now := sim.Cycle(1); now <= 300; now++ {
		c.Tick(now)
	}
	if c.occupancy != len(c.rob) {
		t.Fatalf("ROB holds %d of %d μops behind a stalled load, want it full", c.occupancy, len(c.rob))
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	// Two dependent loads to different lines: the second must not reach
	// the L1 before the first completes.
	port := &instantPort{}
	src := &scriptSource{ops: []UOp{
		{Mem: true, VAddr: 0x10000, PC: 1},
		{Mem: true, VAddr: 0x20000, PC: 2, DependsOnPrev: true},
	}}
	c := testCore(t, src, port)
	for now := sim.Cycle(1); now <= 100; now++ {
		c.Tick(now)
	}
	if len(port.pending) != 1 {
		t.Fatalf("%d requests in flight, want 1 (dependent load must wait)", len(port.pending))
	}
	port.pump(101)
	for now := sim.Cycle(101); now <= 200; now++ {
		c.Tick(now)
		port.pump(now) // complete everything immediately from here on
	}
	if port.sent != 2 {
		t.Fatalf("%d loads reached the memory, want 2", port.sent)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	port := &instantPort{}
	src := &scriptSource{ops: []UOp{
		{Mem: true, VAddr: 0x10000, PC: 1},
		{Mem: true, VAddr: 0x20000, PC: 2},
		{Mem: true, VAddr: 0x30000, PC: 3},
	}}
	c := testCore(t, src, port)
	for now := sim.Cycle(1); now <= 100; now++ {
		c.Tick(now)
	}
	if len(port.pending) != 3 {
		t.Fatalf("%d requests in flight, want 3 (MLP)", len(port.pending))
	}
}

func TestStoresRetireWithoutWaiting(t *testing.T) {
	port := &instantPort{}
	src := &scriptSource{ops: []UOp{{Mem: true, Store: true, VAddr: 0x10000, PC: 1}}}
	c := testCore(t, src, port)
	for now := sim.Cycle(1); now <= 100; now++ {
		c.Tick(now)
	}
	// The store miss is outstanding but the core keeps committing.
	if c.Stats().Committed < 100 {
		t.Fatalf("committed %d, store blocked retirement", c.Stats().Committed)
	}
	if port.sent != 1 {
		t.Fatalf("%d requests reached the memory, want the store's 1", port.sent)
	}
}

func TestMispredictStallsDispatch(t *testing.T) {
	mk := func(rate int) uint64 {
		var ops []UOp
		for i := 0; i < 4000; i++ {
			ops = append(ops, UOp{Mispredict: rate > 0 && i%rate == 0})
		}
		c := testCore(t, &scriptSource{ops: ops}, &instantPort{})
		for now := sim.Cycle(1); now <= 2000; now++ {
			c.Tick(now)
		}
		return c.Stats().Committed
	}
	clean, dirty := mk(0), mk(16)
	if dirty >= clean {
		t.Fatalf("mispredicts did not reduce throughput: %d vs %d", dirty, clean)
	}
}

func TestTLBWalkDelaysLoad(t *testing.T) {
	port := &instantPort{}
	src := &scriptSource{ops: []UOp{{Mem: true, VAddr: 0x10000, PC: 1}}}
	c := testCore(t, src, port)
	for now := sim.Cycle(1); now <= 5 && len(port.pending) == 0; now++ {
		c.Tick(now)
	}
	if len(port.pending) != 0 {
		t.Fatal("load reached L1 before the TLB walk completed")
	}
	for now := sim.Cycle(6); now <= 60 && len(port.pending) == 0; now++ {
		c.Tick(now)
	}
	if len(port.pending) != 1 {
		t.Fatal("load never issued after walk")
	}
	// Dispatched at 1, it misses the DTLB at 2 and pays the walk.
	if port.firstAt != 2+tlbWalkCycles {
		t.Fatalf("load reached the L1 at cycle %d, want %d", port.firstAt, 2+tlbWalkCycles)
	}
}

func TestResetStats(t *testing.T) {
	c := testCore(t, &scriptSource{}, &instantPort{})
	for now := sim.Cycle(1); now <= 100; now++ {
		c.Tick(now)
	}
	c.ResetStats()
	if c.Stats().Committed != 0 {
		t.Fatal("ResetStats incomplete")
	}
}

func TestL1BlockedRetries(t *testing.T) {
	// With only 1 MSHR and two independent loads to different lines, the
	// second load must wait for the first fill, then still complete.
	cfg := config.Baseline2D()
	port := &instantPort{}
	l1 := cache.NewL1(cache.L1Params{
		Core: 0, Array: cache.NewArray("dl1", 32, 12, 64), Latency: 3,
		LineBytes: 64, MSHRs: 1, Below: port, IDs: &mem.IDSource{},
	})
	src := &scriptSource{ops: []UOp{
		{Mem: true, VAddr: 0x10000, PC: 1},
		{Mem: true, VAddr: 0x20000, PC: 2},
	}}
	pt := mem.NewPageTable(1<<32, 4096)
	c := New(Params{ID: 0, Cfg: cfg, L1: l1, DTLB: tlb.New(64, 4, pt), Pages: pt, Source: src})
	for now := sim.Cycle(1); now <= 400; now++ {
		c.Tick(now)
		if now%50 == 0 {
			port.pump(now)
		}
	}
	if port.sent != 2 {
		t.Fatalf("%d loads reached the memory, want 2 after retry", port.sent)
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with nil components did not panic")
		}
	}()
	New(Params{})
}

// TestNewAllocatesNothingPerROBSlot pins that a core's loads share one
// fill waiter: building a core makes as many allocations with a
// 512-entry ROB as with a 16-entry one.
func TestNewAllocatesNothingPerROBSlot(t *testing.T) {
	pt := mem.NewPageTable(1<<32, 4096)
	l1 := cache.NewL1(cache.L1Params{
		Core: 0, Array: cache.NewArray("dl1", 32, 12, 64), Latency: 3,
		LineBytes: 64, MSHRs: 8, Below: &instantPort{}, IDs: &mem.IDSource{},
	})
	allocs := func(rob int) float64 {
		cfg := config.Baseline2D()
		cfg.ROBSize = rob
		p := Params{Cfg: cfg, L1: l1, DTLB: tlb.New(64, 4, pt), Pages: pt, Source: &scriptSource{}}
		return testing.AllocsPerRun(10, func() { New(p) })
	}
	if small, large := allocs(16), allocs(512); small != large {
		t.Fatalf("New made %v allocations with a 16-entry ROB and %v with a 512-entry one, want the same", small, large)
	}
}

func TestLoadPortLimitsIssueRate(t *testing.T) {
	// 8 independent loads, 1 load port: issue takes >= 8 cycles, so
	// after 4 cycles at most 4 can be in flight.
	var ops []UOp
	for i := 0; i < 8; i++ {
		ops = append(ops, UOp{Mem: true, VAddr: uint64(0x10000 * (i + 1)), PC: uint64(i)})
	}
	port := &instantPort{}
	c := testCore(t, &scriptSource{ops: ops}, port)
	for now := sim.Cycle(1); now <= 4; now++ {
		c.Tick(now)
	}
	if len(port.pending) > 4 {
		t.Fatalf("%d loads issued in 4 cycles with 1 port", len(port.pending))
	}
}

func TestCommitWidthBoundsRetirement(t *testing.T) {
	c := testCore(t, &scriptSource{}, &instantPort{})
	for now := sim.Cycle(1); now <= 1000; now++ {
		c.Tick(now)
	}
	if got := c.Stats().Committed; got > 4000 {
		t.Fatalf("committed %d in 1000 cycles, exceeds 4-wide commit", got)
	}
}

func TestStringDescribesCore(t *testing.T) {
	c := testCore(t, &scriptSource{}, &instantPort{})
	if s := c.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestROBSlotReuseGuard(t *testing.T) {
	// A late fill callback for a recycled ROB slot must not complete the
	// new occupant. Drive many loads with delayed completions and verify
	// the commit count stays exact (any mis-completion would let a load
	// commit before its data arrived, inflating committed counts or
	// panicking on double completion).
	var ops []UOp
	for i := 0; i < 200; i++ {
		ops = append(ops, UOp{Mem: true, VAddr: uint64(0x1000 * (i + 1)), PC: uint64(i % 7)})
	}
	port := &instantPort{}
	c := testCore(t, &scriptSource{ops: ops}, port)
	for now := sim.Cycle(1); now <= 5000; now++ {
		c.Tick(now)
		if now%97 == 0 {
			port.pump(now)
		}
	}
	port.pump(5001)
	for now := sim.Cycle(5001); now <= 5200; now++ {
		c.Tick(now)
	}
	if port.sent == 0 {
		t.Fatal("no loads issued")
	}
}

func testCoreWithIL1(t *testing.T, src UOpSource, port cache.Port) *Core {
	t.Helper()
	cfg := config.Baseline2D()
	mk := func(name string) *cache.L1 {
		return cache.NewL1(cache.L1Params{
			Core: 0, Array: cache.NewArray(name, 32, 12, 64), Latency: 3,
			LineBytes: 64, MSHRs: 8, Below: port, IDs: &mem.IDSource{},
		})
	}
	pt := mem.NewPageTable(1<<32, 4096)
	return New(Params{
		ID: 0, Cfg: cfg, L1: mk("dl1"), IL1: mk("il1"),
		DTLB: tlb.New(64, 4, pt), ITLB: tlb.New(32, 4, pt),
		Pages:  pt,
		Source: src,
	})
}

func TestFetchMissStallsDispatch(t *testing.T) {
	port := &instantPort{}
	c := testCoreWithIL1(t, &scriptSource{}, port)
	// First dispatch needs the first instruction line: an ITLB walk,
	// then an IL1 miss. Nothing commits until the fill arrives.
	for now := sim.Cycle(1); now <= 100; now++ {
		c.Tick(now)
	}
	if c.il1.OutstandingMisses() != 1 {
		t.Fatalf("%d IL1 misses outstanding on a cold front end, want 1", c.il1.OutstandingMisses())
	}
	if c.Stats().Committed != 0 {
		t.Fatalf("committed %d μops before the first fetch filled", c.Stats().Committed)
	}
	port.pump(101)
	for now := sim.Cycle(101); now <= 300; now++ {
		c.Tick(now)
	}
	if c.Stats().Committed == 0 {
		t.Fatal("commit never started after fetch fill")
	}
}

func TestFetchHitsAfterWarmLoop(t *testing.T) {
	port := &instantPort{}
	c := testCoreWithIL1(t, &scriptSource{}, port)
	for now := sim.Cycle(1); now <= 2000; now++ {
		c.Tick(now)
		if now%20 == 0 {
			port.pump(now)
		}
	}
	// The endless compute stream cycles through 64 PCs = a handful of
	// instruction lines: fetch misses, the only requests a compute
	// stream sends, must stay tiny.
	if port.sent > 20 {
		t.Fatalf("%d fetch misses for a loop-resident code footprint", port.sent)
	}
	if ipc := ipc(c, 2000); ipc < 3.0 {
		t.Fatalf("warm-loop IPC = %.2f with fetch modeling", ipc)
	}
}

func TestIdealFetchWithoutIL1(t *testing.T) {
	port := &instantPort{}
	c := testCore(t, &scriptSource{}, port)
	for now := sim.Cycle(1); now <= 100; now++ {
		c.Tick(now)
	}
	// Dispatch never waits on fetch: four μops a cycle from cycle 1,
	// each committed the cycle after, and nothing fetched from memory.
	if got, want := c.Stats().Committed, uint64(4*99); got != want || port.sent != 0 {
		t.Fatalf("committed %d μops (want %d) and sent %d requests (want 0) without an IL1", got, want, port.sent)
	}
}

func TestHaltStopsDispatchDrainsInFlight(t *testing.T) {
	port := &instantPort{}
	src := &scriptSource{ops: []UOp{
		{Mem: true, VAddr: 0x10000, PC: 1},
		{Mem: true, VAddr: 0x20000, PC: 2},
	}}
	c := testCore(t, src, port)
	for now := sim.Cycle(1); now <= 50; now++ {
		c.Tick(now)
	}
	c.Halt()
	committed := c.Committed()
	// In-flight loads drain once pumped; no new μops enter.
	port.pump(51)
	for now := sim.Cycle(51); now <= 300; now++ {
		c.Tick(now)
		port.pump(now)
	}
	if c.Committed() <= committed {
		t.Fatal("halted core never drained its ROB")
	}
	drained := c.Committed()
	for now := sim.Cycle(301); now <= 400; now++ {
		c.Tick(now)
	}
	if c.Committed() != drained {
		t.Fatal("halted core kept committing new work")
	}
}

func TestStoreBlockedRetriesAndCompletes(t *testing.T) {
	// A store that finds the L1 MSHRs full must retry, and go below once.
	cfg := config.Baseline2D()
	port := &instantPort{}
	l1 := cache.NewL1(cache.L1Params{
		Core: 0, Array: cache.NewArray("dl1", 32, 12, 64), Latency: 3,
		LineBytes: 64, MSHRs: 1, Below: port, IDs: &mem.IDSource{},
	})
	src := &scriptSource{ops: []UOp{
		{Mem: true, VAddr: 0x10000, PC: 1},              // load occupies the only MSHR
		{Mem: true, Store: true, VAddr: 0x20000, PC: 2}, // store blocked, retries
	}}
	pt := mem.NewPageTable(1<<32, 4096)
	c := New(Params{ID: 0, Cfg: cfg, L1: l1, DTLB: tlb.New(64, 4, pt), Pages: pt, Source: src})
	for now := sim.Cycle(1); now <= 600; now++ {
		c.Tick(now)
		if now%100 == 0 {
			port.pump(now)
		}
	}
	if port.sent != 2 {
		t.Fatalf("%d requests reached the memory, want the load's and the store's", port.sent)
	}
}
