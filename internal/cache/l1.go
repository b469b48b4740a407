package cache

import (
	"fmt"

	"stackedsim/internal/mem"
	"stackedsim/internal/prefetch"
	"stackedsim/internal/sim"
)

// AccessOutcome is the immediate result of an L1 access.
type AccessOutcome int

const (
	// Hit: data available after the L1 latency.
	Hit AccessOutcome = iota
	// Miss: an MSHR was allocated or merged; the done callback fires
	// when the fill completes.
	Miss
	// Blocked: no MSHR available; the core must retry. The answer can
	// only change when an MSHR entry is freed, which wakes the core
	// (WakeOnFree), so it need not re-probe in between.
	Blocked
)

// Waiter is what an L1 miss runs when its line arrives: Fn(Arg, now).
// A component that waits on many misses keeps one method value in Fn
// and tells them apart by Arg (a core's ROB index), so issuing a miss
// allocates no closure — the idiom of mem.Request's Owner/OwnerIdx. The
// zero Waiter waits for nothing.
type Waiter struct {
	Fn  func(arg int, now sim.Cycle)
	Arg int
}

// l1Miss is one MSHR entry. Its waiters start out in inline, room the
// pool's slab pays for, so a miss with at most two loads waiting (most
// of them) never allocates a slice; one that outgrows it keeps the
// larger slice when the node is recycled.
type l1Miss struct {
	waiters  []Waiter
	inline   [2]Waiter
	dirty    bool // a store is merged: fill dirty
	prefetch bool // opened by the prefetcher, not a demand miss
}

// L1MissPool recycles L1 miss nodes. The L1s of one machine share one
// pool, so a 64-core machine grows one rather than 128; like the rest
// of a machine, it is used from one goroutine only.
type L1MissPool struct{ sim.Pool[l1Miss] }

// L1 is a private per-core data cache controller: a lockup-free cache
// with a fixed number of MSHRs, write-back write-allocate policy, and the
// Table 1 prefetchers (next-line plus IP-stride).
type L1 struct {
	core      int
	arr       *Array
	latency   sim.Cycle
	lineBytes int
	mshrCap   int
	misses    MissTable[l1Miss]
	out       Outbox // toward the level below
	ids       *mem.IDSource
	stride    *prefetch.Stride
	nextline  bool

	// Prefetch effectiveness (observation only). A line a prefetch
	// installed that demand has not yet touched carries the state byte
	// prefetched in its way.
	pfStats prefetch.Stats

	// handle, when set, lets the controller sleep whenever the outbox
	// is empty — Tick's only job is retrying rejected requests.
	handle *sim.TickHandle

	// owner is the tick handle of the core above, woken when an MSHR
	// entry is freed after an access was answered Blocked — the only
	// event that can change that answer, since a line enters the array
	// or the miss map only through the core's own accesses or a fill.
	owner      *sim.TickHandle
	sawBlocked bool

	// onDone is the prebuilt completion callback shared by every
	// request this controller issues (no per-miss closure), and pool
	// is where its miss nodes come from and go back to.
	onDone func(*mem.Request, sim.Cycle)
	pool   *L1MissPool

	// storeHint, when set, is notified of stores that complete inside
	// the L1 (hits and merges into in-flight misses) so a coherent
	// private L2 below can chase write permission for the line. Nil in
	// the shared-L2 seed configuration — behavior there is unchanged.
	storeHint func(line mem.Addr, now sim.Cycle)
}

// L1Params configures a controller.
type L1Params struct {
	Core      int
	Array     *Array
	Latency   sim.Cycle
	LineBytes int
	MSHRs     int
	Below     Port
	IDs       *mem.IDSource
	Prefetch  bool
	// StoreHint, when non-nil, receives every store that hits or merges
	// (see L1.storeHint). Coherent configurations pass the private L2's
	// upgrade path here.
	StoreHint func(line mem.Addr, now sim.Cycle)
	// Pool is the machine's shared miss-node pool; nil gives the L1
	// one of its own.
	Pool *L1MissPool
}

// NewL1 builds an L1 controller.
func NewL1(p L1Params) *L1 {
	if p.Array == nil || p.Below == nil || p.IDs == nil {
		panic("cache: NewL1 missing array, below port, or ID source")
	}
	if p.MSHRs < 1 {
		panic(fmt.Sprintf("cache: L1 MSHRs %d must be >= 1", p.MSHRs))
	}
	l := &L1{
		core:      p.Core,
		arr:       p.Array,
		latency:   p.Latency,
		lineBytes: p.LineBytes,
		mshrCap:   p.MSHRs,
		misses:    NewMissTable[l1Miss](p.MSHRs),
		out:       NewOutbox(p.Below),
		ids:       p.IDs,
		nextline:  p.Prefetch,
		storeHint: p.StoreHint,
		pool:      p.Pool,
	}
	if l.pool == nil {
		l.pool = new(L1MissPool)
	}
	if p.Prefetch {
		l.stride = prefetch.NewStride(64)
	}
	l.onDone = l.handleDone
	return l
}

// SetHandle arms the idle fast-path: the controller sleeps while its
// outbox is empty (the only per-cycle work it has) and wakes when the
// level below rejects a request.
func (l *L1) SetHandle(h *sim.TickHandle) {
	l.handle = h
	l.out.SetOwner(h)
	h.SleepUntil(sim.FarFuture)
}

// WakeOnFree names the core to wake when an MSHR entry frees up after a
// Blocked answer, so it need not poll a full MSHR file every cycle.
func (l *L1) WakeOnFree(core *sim.TickHandle) { l.owner = core }

// freeMSHR deletes and returns the MSHR entry for ln (nil if there is
// none) and, if the core was turned away since the last one freed, wakes
// it to retry.
func (l *L1) freeMSHR(ln mem.Addr) *l1Miss {
	m := l.misses.Remove(ln)
	if l.sawBlocked {
		l.sawBlocked = false
		l.owner.Wake()
	}
	return m
}

// newMiss returns a recycled (or fresh) miss node. A fresh node's
// waiters start in its inline room.
func (l *L1) newMiss(prefetch, dirty bool) *l1Miss {
	m := l.pool.Get()
	w := m.waiters[:0]
	if w == nil {
		w = m.inline[:0]
	}
	clear(m.waiters)
	*m = l1Miss{waiters: w, prefetch: prefetch, dirty: dirty}
	return m
}

// wait parks done on m. A store's zero Waiter waits for nothing and is
// not kept: a store also sets m.dirty, and every decision fill and drop
// make on a merged store (re-request a dropped prefetch, count a
// prefetch useful) reads len(m.waiters) > 0 || m.dirty, which m.dirty
// alone keeps true, so leaving it out changes none of them.
func (m *l1Miss) wait(done Waiter, store bool) {
	if store && done.Fn == nil {
		return
	}
	m.waiters = append(m.waiters, done)
}

// Latency reports the hit latency in cycles.
func (l *L1) Latency() sim.Cycle { return l.latency }

// OutstandingMisses reports live MSHR entries.
func (l *L1) OutstandingMisses() int { return l.misses.Len() }

// InFlight counts what the controller still holds: live MSHR entries
// and requests the level below rejected — among them victim writebacks,
// which hold no entry. Zero exactly when the L1 has drained.
func (l *L1) InFlight() int { return l.misses.Len() + l.out.Len() }

func (l *L1) line(a mem.Addr) mem.Addr { return a &^ mem.Addr(l.lineBytes-1) }

// Access performs a load or store at cycle now. On Hit the caller should
// treat the data as ready at now+Latency(). On Miss, done runs when the
// line arrives. On Blocked nothing was done and the core must retry.
func (l *L1) Access(now sim.Cycle, pc uint64, addr mem.Addr, store bool, done Waiter) AccessOutcome {
	ln := l.line(addr)
	if st, hit := l.arr.LookupState(ln); hit {
		if st == prefetched {
			l.pfStats.Useful++
			l.arr.SetState(ln, 0)
		}
		if store {
			l.arr.MarkDirty(ln)
			if l.storeHint != nil {
				l.storeHint(ln, now)
			}
		}
		l.train(now, pc, addr)
		return Hit
	}
	if m := l.misses.Find(ln); m != nil {
		// Secondary miss: merge.
		m.wait(done, store)
		if store {
			m.dirty = true
			if l.storeHint != nil {
				l.storeHint(ln, now)
			}
		}
		l.train(now, pc, addr)
		return Miss
	}
	if l.misses.Len() >= l.mshrCap {
		l.sawBlocked = true
		return Blocked
	}
	m := l.newMiss(false, store)
	m.wait(done, store)
	l.misses.Add(ln, m)
	r := l.ids.NewRequest()
	r.Kind = mem.Read // write-allocate: fetch the line even for stores
	r.Excl = store    // ownership intent for a coherent private L2
	r.Addr = addr
	r.Line = ln
	r.Core = l.core
	r.PC = pc
	r.Born = now
	r.OnDone = l.onDone
	l.out.Send(r, now)
	l.train(now, pc, addr)
	return Miss
}

// train feeds the prefetchers and issues at most one prefetch per access.
func (l *L1) train(now sim.Cycle, pc uint64, addr mem.Addr) {
	if !l.nextline {
		return
	}
	if next, ok := l.stride.Observe(pc, addr); ok {
		l.pfStats.StrideCandidates++
		l.maybePrefetch(now, pc, next)
		return
	}
	l.pfStats.NextLineCandidates++
	l.maybePrefetch(now, pc, prefetch.NextLine(addr, l.lineBytes))
}

func (l *L1) maybePrefetch(now sim.Cycle, pc uint64, addr mem.Addr) {
	ln := l.line(addr)
	if l.arr.Contains(ln) {
		return
	}
	if l.misses.Find(ln) != nil {
		return
	}
	if l.misses.Len() >= l.mshrCap {
		return // never stall demand traffic for a prefetch
	}
	l.pfStats.Issued++
	l.misses.Add(ln, l.newMiss(true, false))
	r := l.ids.NewRequest()
	r.Kind = mem.Prefetch
	r.Addr = addr
	r.Line = ln
	r.Core = l.core
	r.PC = pc
	r.Born = now
	r.OnDone = l.onDone
	l.out.Send(r, now)
}

// handleDone dispatches a completed request: dropped prefetches unwind,
// everything else fills.
func (l *L1) handleDone(r *mem.Request, now sim.Cycle) {
	if r.Dropped {
		l.drop(r, now)
		return
	}
	l.fill(r.Line, now)
}

// drop unwinds a prefetch the hierarchy discarded. If demand misses
// merged into it while it was in flight, the line is re-requested as
// demand traffic; otherwise the MSHR entry simply goes away.
func (l *L1) drop(r *mem.Request, now sim.Cycle) {
	m := l.misses.Find(r.Line)
	if m == nil {
		panic(fmt.Sprintf("cache: L1 drop for unknown line %#x", uint64(r.Line)))
	}
	if len(m.waiters) == 0 && !m.dirty {
		l.pfStats.Drops++
		l.freeMSHR(r.Line)
		l.pool.Put(m)
		return
	}
	// A demand access merged in: the data is needed after all.
	demand := l.ids.NewRequest()
	demand.Kind = mem.Read
	demand.Excl = m.dirty
	demand.Addr = r.Addr
	demand.Line = r.Line
	demand.Core = l.core
	demand.PC = r.PC
	demand.Born = now
	demand.OnDone = l.onDone
	l.out.Send(demand, now)
}

// fill handles a returning line: install it, write back any dirty victim,
// and wake the waiters.
func (l *L1) fill(ln mem.Addr, now sim.Cycle) {
	m := l.freeMSHR(ln)
	if m == nil {
		panic(fmt.Sprintf("cache: L1 fill for unknown line %#x", uint64(ln)))
	}
	// A prefetch-opened miss that demand merged into was useful on
	// arrival; an untouched one is marked in its way until a demand hit
	// (useful) or its eviction (wasted) decides.
	var st uint8
	if m.prefetch {
		if len(m.waiters) > 0 || m.dirty {
			l.pfStats.Useful++
		} else {
			st = prefetched
		}
	}
	victim, victimFlags, evicted := l.arr.fill(ln, m.dirty, st)
	if evicted && victimFlags&dirtyFlag != 0 {
		l.out.Send(l.ids.Writeback(victim, l.core, now), now)
	}
	for _, w := range m.waiters {
		if w.Fn != nil {
			w.Fn(w.Arg, now)
		}
	}
	l.pool.Put(m)
}

// Tick retries requests the level below rejected.
func (l *L1) Tick(now sim.Cycle) {
	l.out.Retry(now)
	if l.out.Len() == 0 {
		l.handle.SleepUntil(sim.FarFuture)
	}
}

// InvalidateLine removes a line on behalf of the coherence protocol (a
// directory invalidation or an ownership forward reaching the private
// L2 below). It reports whether the line was present and dirty; an
// in-flight miss for the same line is untouched — its fill belongs to
// the next coherence epoch and lands normally.
func (l *L1) InvalidateLine(ln mem.Addr) (wasPresent, wasDirty bool) {
	return l.arr.Invalidate(ln)
}

// PrefetchStats reports the L1 prefetcher's issue/usefulness counters.
func (l *L1) PrefetchStats() prefetch.Stats {
	s := l.pfStats
	if l.stride != nil {
		s.StrideTrained = l.stride.Trained
	}
	return s
}

// ResetStats zeroes the prefetch counters (end of warmup). Lines
// prefetched during warmup may still prove useful, so their marks survive.
func (l *L1) ResetStats() {
	l.pfStats = prefetch.Stats{}
	if l.stride != nil {
		l.stride.Trained = 0
	}
}
