// Package cpu implements the simplified out-of-order core model: 4-wide
// dispatch and commit, a 96-entry ROB, limited load/store ports,
// non-blocking caches underneath, dependent-load serialization, and a
// branch-misprediction front-end stall — the contention and memory-level
// parallelism behaviour that drives the paper's results.
package cpu

import (
	"fmt"

	"stackedsim/internal/cache"
	"stackedsim/internal/config"
	"stackedsim/internal/mem"
	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
	"stackedsim/internal/tlb"
)

// UOp is one micro-operation produced by a workload generator.
type UOp struct {
	// Mem marks a load or store; non-memory μops execute in one cycle.
	Mem   bool
	Store bool
	// VAddr is the virtual address of a memory μop.
	VAddr uint64
	// PC identifies the instruction for the stride prefetchers.
	PC uint64
	// DependsOnPrev serializes this memory μop behind the previous
	// memory μop in program order (pointer chasing).
	DependsOnPrev bool
	// Mispredict marks a branch that will be mispredicted, stalling the
	// front end for the pipeline refill penalty after it executes.
	Mispredict bool
	// Shared places the μop's address in the process-wide shared region
	// (mem.SharedSpace) instead of the core's private space, so the same
	// VAddr names the same line on every core. Only the shared-data
	// workload generators set it; coherence traffic needs it, the
	// private-space generators never do.
	Shared bool
}

// UOpSource supplies the dynamic μop stream of one program, one μop
// per Next. The μop is the caller's: the source keeps no reference to it.
type UOpSource interface {
	Next() UOp
}

// Batcher is a μop source that hands out its stream a batch at a time.
// Batch returns the next μops in program order, at least one. The slice
// and its backing array stay the source's: the caller never writes them
// and reads them only until it next pulls from the source, which may
// overwrite them. A core pulls from a source only through Batch; New
// wraps a source without it in a one-μop adapter.
type Batcher interface {
	Batch() []UOp
}

// oneOp adapts a source that only has Next into a Batcher of one-μop
// batches, each in the one-element slice op.
type oneOp struct {
	src UOpSource
	op  []UOp
}

func (o *oneOp) Batch() []UOp {
	o.op[0] = o.src.Next()
	return o.op
}

// Stats counts per-core retirement since the last ResetStats.
type Stats struct {
	Committed uint64
}

type robState uint8

const (
	stWaiting robState = iota // memory μop not yet issued
	stInFlight
	stDone
)

type robEntry struct {
	op      UOp
	state   robState
	readyAt sim.Cycle // completion time for time-based completions
	timed   bool      // readyAt is authoritative (vs callback)
	prevMem int       // ROB index of previous memory μop, -1 if none
	prevSeq uint64    // sequence of that producer (guards slot reuse)
	seq     uint64
}

// tlbWalkCycles is the fixed page-walk penalty on a DTLB miss.
const tlbWalkCycles = 30

// Core is one processor core.
type Core struct {
	id  int
	cfg *config.Config
	l1  *cache.L1
	dt  *tlb.TLB
	il1 *cache.L1      // optional instruction cache (nil = ideal fetch)
	it  *tlb.TLB       // optional ITLB
	pt  *mem.PageTable // translates fetches directly when there is no ITLB
	src Batcher

	// Fetch state: the source's current batch, of which batch[0] is the
	// next μop to dispatch (it waits there on instruction supply), the
	// last instruction line confirmed resident, and whether an IL1 fill
	// is outstanding.
	batch            []UOp
	lastFetchLine    mem.Addr
	pendingFetchLine mem.Addr
	fetchWait        bool

	rob        []robEntry
	head, tail int // ring: head = oldest, tail = next free
	occupancy  int
	lastMemIdx int // ROB index of most recent dispatched memory μop
	seq        uint64

	memQ sim.Queue[int] // ROB indices of unissued memory μops, oldest first

	fetchStallUntil sim.Cycle
	stats           Stats
	halted          bool
	committedTotal  uint64

	// Idle fast-path state (active only once SetHandle is called): the
	// core sleeps through cycles on which it would change nothing.
	handle    *sim.TickHandle
	l1Blocked bool // this tick, the L1 answered the head of memQ Blocked

	// loadFill is loadDone bound once: every load's L1 fill waiter
	// calls it with the load's ROB slot as Arg, so issuing a load
	// allocates no closure. fillSeq[i] records the μop sequence the slot
	// held at issue, preserving the stale-fill guard. fetchFill is the
	// IL1's waiter (fetchWait serializes instruction fills, so one is
	// enough).
	loadFill  func(idx int, now sim.Cycle)
	fillSeq   []uint64
	fetchFill cache.Waiter
}

// Params assembles a core.
type Params struct {
	ID     int
	Cfg    *config.Config
	L1     *cache.L1
	DTLB   *tlb.TLB
	Pages  *mem.PageTable
	Source UOpSource
	// IL1 and ITLB model the instruction-fetch path; both may be nil
	// for an ideal front end (unit tests, fetch-insensitive studies).
	// Without an ITLB, fetches translate through Pages directly.
	IL1  *cache.L1
	ITLB *tlb.TLB
}

// New builds a core.
func New(p Params) *Core {
	if p.Cfg == nil || p.L1 == nil || p.DTLB == nil || p.Pages == nil || p.Source == nil {
		panic("cpu: New missing a required component")
	}
	src, ok := p.Source.(Batcher)
	if !ok {
		src = &oneOp{src: p.Source, op: make([]UOp, 1)}
	}
	c := &Core{
		id:            p.ID,
		cfg:           p.Cfg,
		l1:            p.L1,
		dt:            p.DTLB,
		il1:           p.IL1,
		it:            p.ITLB,
		pt:            p.Pages,
		src:           src,
		rob:           make([]robEntry, p.Cfg.ROBSize),
		lastMemIdx:    -1,
		lastFetchLine: ^mem.Addr(0),
	}
	c.fillSeq = make([]uint64, len(c.rob))
	c.memQ.Reserve(len(c.rob)) // it holds ROB indices, so never more
	c.loadFill = c.loadDone
	c.fetchFill = cache.Waiter{Fn: c.fetchDone}
	return c
}

// loadDone is the L1 fill of the load issued from ROB slot idx.
func (c *Core) loadDone(idx int, _ sim.Cycle) {
	// Guard against the ROB slot having been recycled. A load's slot
	// cannot be reused while its fill is outstanding (it must complete
	// to commit), so at most one fill per slot is in flight and
	// comparing against the issue-time sequence is exact.
	if c.rob[idx].seq == c.fillSeq[idx] {
		c.rob[idx].state = stDone
	}
	c.handle.Wake()
}

// fetchDone is the IL1 fill of the outstanding instruction fetch.
func (c *Core) fetchDone(_ int, _ sim.Cycle) {
	c.fetchWait = false
	c.lastFetchLine = c.pendingFetchLine
	c.handle.Wake()
}

// SetHandle arms the idle fast-path: with an engine tick handle the
// core sleeps through cycles it can prove are stalls (waiting on a
// fill, a TLB walk, a front-end refill, a full ROB, or a full L1 MSHR
// file, which wakes it when an entry frees). Without it, behaviour is
// the seed tick-every-cycle model.
func (c *Core) SetHandle(h *sim.TickHandle) {
	c.handle = h
	c.l1.WakeOnFree(h)
}

// Stats returns the counters.
func (c *Core) Stats() *Stats { return &c.stats }

// Instrument registers this core's telemetry under "core<id>.*":
// instantaneous ROB and memory-queue occupancy, L1 outstanding misses,
// and cumulative committed μops. Pure reads — the core's behaviour is
// identical instrumented or not.
func (c *Core) Instrument(reg *telemetry.Registry) {
	name := fmt.Sprintf("core%d", c.id)
	reg.GaugeFunc(name+".rob.occupancy", func() float64 { return float64(c.occupancy) })
	reg.GaugeFunc(name+".memq.depth", func() float64 { return float64(c.memQ.Len()) })
	reg.GaugeFunc(name+".l1.outstanding", func() float64 { return float64(c.l1.OutstandingMisses()) })
	reg.GaugeFunc(name+".committed", func() float64 { return float64(c.committedTotal) })
}

// ResetStats zeroes the counters (end of warmup).
func (c *Core) ResetStats() { c.stats = Stats{} }

// Committed reports lifetime committed μops (ResetStats does not zero
// it); the dynamic MSHR tuner samples this.
func (c *Core) Committed() uint64 { return c.committedTotal }

// Halt stops the front end: no new μops dispatch, but queued work keeps
// issuing and retiring so in-flight memory traffic drains (used by
// System.DrainQuiesce and the invariant checker). Halt wakes the core
// so any sleep chosen under pre-halt dispatch rules is recomputed.
func (c *Core) Halt() {
	c.halted = true
	c.handle.Wake()
}

// Tick advances the core one cycle: retire, issue memory operations,
// then dispatch new μops.
func (c *Core) Tick(now sim.Cycle) {
	c.commit(now)
	c.issueMem(now)
	if !c.halted {
		c.dispatch(now)
	}
	c.sched(now)
}

// peekDone is entryDone without the state write: sched must not mutate
// ROB entries a full-tick run would only have touched on a later cycle.
func (c *Core) peekDone(i int, now sim.Cycle) bool {
	e := &c.rob[i]
	return e.state == stDone || (e.timed && now >= e.readyAt)
}

// sched decides how long the core can sleep after ticking at now. The
// core stays awake (sleep target now+1) whenever any pipeline stage
// could make progress on the next cycle. A head of memQ the L1 answered
// Blocked is not progress: the L1 wakes the core when an MSHR frees.
func (c *Core) sched(now sim.Cycle) {
	wake := sim.FarFuture

	if c.occupancy > 0 {
		e := &c.rob[c.head]
		if e.state == stDone {
			c.handle.SleepUntil(now + 1) // commit has work next cycle
			return
		}
		if e.timed && e.readyAt < wake {
			wake = e.readyAt
		}
		// An untimed in-flight head completes via its fill callback,
		// which wakes the core.
	}

	if !c.memQ.Empty() {
		e := &c.rob[c.memQ.At(0)]
		switch {
		case e.op.DependsOnPrev && e.prevMem >= 0 &&
			c.rob[e.prevMem].seq == e.prevSeq && !c.peekDone(e.prevMem, now):
			if p := &c.rob[e.prevMem]; p.timed && p.readyAt < wake {
				wake = p.readyAt
			}
			// An untimed producer is a load in this core: its fill
			// callback wakes us.
		case e.readyAt > now: // paying a TLB walk
			if e.readyAt < wake {
				wake = e.readyAt
			}
		case !c.l1Blocked:
			// Issueable next cycle (it only ran out of ports).
			c.handle.SleepUntil(now + 1)
			return
		}
	}

	// Dispatch that is time-gated resumes when the gate opens; one held
	// by a full ROB wakes via the commit-head candidates above, and one
	// waiting on an IL1 fill via its callback.
	if !c.halted {
		if c.fetchStallUntil > now+1 {
			wake = min(wake, c.fetchStallUntil)
		} else if c.occupancy < len(c.rob) && !c.fetchWait {
			c.handle.SleepUntil(now + 1) // dispatch can make progress
			return
		}
	}

	c.handle.SleepUntil(wake)
}

func (c *Core) commit(now sim.Cycle) {
	for n := 0; n < c.cfg.CommitWidth && c.occupancy > 0; n++ {
		e := &c.rob[c.head]
		if e.state != stDone {
			if e.timed && now >= e.readyAt {
				e.state = stDone
			} else {
				return
			}
		}
		if e.op.Mispredict {
			stall := now + sim.Cycle(c.cfg.MispredictPenalty)
			if stall > c.fetchStallUntil {
				c.fetchStallUntil = stall
			}
		}
		c.committedTotal++
		c.stats.Committed++
		if c.lastMemIdx == c.head {
			c.lastMemIdx = -1
		}
		if c.head++; c.head == len(c.rob) {
			c.head = 0
		}
		c.occupancy--
	}
}

// entryDone reports whether the ROB entry at index i has completed.
func (c *Core) entryDone(i int, now sim.Cycle) bool {
	e := &c.rob[i]
	if e.state == stDone {
		return true
	}
	if e.timed && now >= e.readyAt {
		e.state = stDone
		return true
	}
	return false
}

func (c *Core) issueMem(now sim.Cycle) {
	c.l1Blocked = false
	loads, stores := c.cfg.LoadPorts, c.cfg.StorePorts
	for !c.memQ.Empty() && (loads > 0 || stores > 0) {
		idx := c.memQ.At(0)
		e := &c.rob[idx]
		if e.op.DependsOnPrev && e.prevMem >= 0 &&
			c.rob[e.prevMem].seq == e.prevSeq && // producer still in the ROB
			!c.entryDone(e.prevMem, now) {
			return // dependent load serialized behind its producer
		}
		if now < e.readyAt {
			return // still paying a TLB walk
		}
		if e.op.Store {
			if stores == 0 {
				return
			}
		} else if loads == 0 {
			return
		}
		if !c.tryIssue(idx, now) {
			return // TLB walk started, or L1 blocked (MSHRs full)
		}
		c.memQ.Pop()
		if e.op.Store {
			stores--
		} else {
			loads--
		}
	}
}

// vaddr places a memory μop's address in its core-private or the
// process-wide shared space.
func (c *Core) vaddr(op *UOp) mem.VAddr {
	if op.Shared {
		return mem.SharedSpace(op.VAddr)
	}
	return mem.CoreSpace(c.id, op.VAddr)
}

// tryIssue performs the TLB and L1 access for the memory μop at ROB
// index idx. It reports false when the L1 cannot accept it.
func (c *Core) tryIssue(idx int, now sim.Cycle) bool {
	e := &c.rob[idx]
	paddr, hit := c.dt.Access(c.vaddr(&e.op))
	if !hit {
		// TLB miss: pay the walk; the μop stays queued and retries
		// when the walk completes.
		e.readyAt = now + tlbWalkCycles
		return false
	}
	if e.op.Store {
		// Stores retire through the store buffer: the μop completes at
		// issue; the cache access proceeds in the background.
		switch c.l1.Access(now, e.op.PC, paddr, true, cache.Waiter{}) {
		case cache.Blocked:
			c.l1Blocked = true
			return false
		}
		e.state = stDone
		return true
	}
	c.fillSeq[idx] = e.seq
	switch c.l1.Access(now, e.op.PC, paddr, false, cache.Waiter{Fn: c.loadFill, Arg: idx}) {
	case cache.Hit:
		e.timed = true
		e.readyAt = now + c.l1.Latency()
		e.state = stInFlight
	case cache.Miss:
		e.state = stInFlight
	case cache.Blocked:
		c.l1Blocked = true
		return false
	}
	return true
}

// instrBytes spaces synthetic PCs in the instruction address space.
const instrBytes = 4

// fetched checks instruction supply for op: true when the instruction's
// line is (now) resident in the IL1. A miss starts the fill and stalls
// dispatch until the line arrives.
func (c *Core) fetched(op *UOp, now sim.Cycle) bool {
	if c.il1 == nil {
		return true
	}
	if c.fetchWait {
		return false // fill outstanding
	}
	vaddr := mem.CoreSpace(c.id, 1<<44|op.PC*instrBytes)
	line := mem.Addr(uint64(vaddr)) &^ 63
	if line == c.lastFetchLine {
		return true // same line as the previous μop: already streamed in
	}
	var paddr mem.Addr
	if c.it == nil {
		paddr = c.pt.Translate(vaddr) // no ITLB: nothing to walk
	} else if p, hit := c.it.Access(vaddr); hit {
		paddr = p
	} else {
		// ITLB walk: charge it as front-end stall time.
		c.fetchStallUntil = now + tlbWalkCycles
		return false
	}
	switch c.il1.Access(now, op.PC, paddr, false, c.fetchFill) {
	case cache.Hit:
		c.lastFetchLine = line
		return true
	case cache.Miss:
		c.fetchWait = true
		// The fill callback records the line as resident.
		ln := line
		c.pendingFetchLine = ln
		return false
	default: // Blocked: retry next cycle
		return false
	}
}

func (c *Core) dispatch(now sim.Cycle) {
	if now < c.fetchStallUntil {
		return
	}
	for n := 0; n < c.cfg.DispatchWidth; n++ {
		if c.occupancy >= len(c.rob) {
			return
		}
		if len(c.batch) == 0 {
			c.batch = c.src.Batch()
		}
		op := &c.batch[0]
		if !c.fetched(op, now) {
			return // waiting on instruction supply
		}
		c.seq++
		e := &c.rob[c.tail]
		e.op = *op
		c.batch = c.batch[1:]
		e.prevMem, e.prevSeq, e.seq = c.lastMemIdx, 0, c.seq
		if c.lastMemIdx >= 0 {
			e.prevSeq = c.rob[c.lastMemIdx].seq
		}
		if e.op.Mem {
			e.state, e.timed, e.readyAt = stWaiting, false, 0
			c.memQ.Push(c.tail)
			c.lastMemIdx = c.tail
		} else {
			e.state, e.timed, e.readyAt = stInFlight, true, now+1
		}
		if c.tail++; c.tail == len(c.rob) {
			c.tail = 0
		}
		c.occupancy++
	}
}

// String describes the core for debugging.
func (c *Core) String() string {
	return fmt.Sprintf("core%d rob=%d/%d memQ=%d", c.id, c.occupancy, len(c.rob), c.memQ.Len())
}
