package cache

import (
	"errors"
	"fmt"

	"stackedsim/internal/attrib"
	"stackedsim/internal/config"
	"stackedsim/internal/mem"
	"stackedsim/internal/mshr"
	"stackedsim/internal/prefetch"
	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
)

// L2Stats counts shared-L2 events.
type L2Stats struct {
	Accesses     uint64
	Hits         uint64
	DemandMisses uint64 // misses from demand (non-prefetch, non-writeback) traffic
	MSHRStalls   uint64 // cycles a bank head was blocked on a full MSHR
}

// mshrWaiters is one MSHR bank's set-aside misses, oldest first. Every
// cycle polls the head; a head the full bank turned away gets the same
// answer at the same cost until the bank changes, so it is polled for
// real once per change and every other poll — of a cycle the L2 slept
// through or of one it ticked on — is not made but counted (settle), from
// what the last real poll cost.
type mshrWaiters struct {
	q sim.Queue[*mem.Request]
	// What the head's last real poll found: the entry probes the MSHR
	// bank's lookup took, and that bank's change count.
	probes int
	seen   uint64
}

// turnedAway records the poll in which the full bank f refused the head.
func (w *mshrWaiters) turnedAway(f *mshr.File, probes int) {
	w.probes, w.seen = probes, f.Changes()
}

// l2bank is one bank of the shared cache: its own array slice and a
// bounded input queue, accepting one request per cycle.
type l2bank struct {
	arr  *Array
	inq  *sim.Queue[*mem.Request]
	busy sim.Cycle
}

// L2Params configures the shared L2 subsystem. MCs holds one
// downstream port per memory controller: the controllers themselves in
// the plain organization, or the stack-cache layer's per-MC fronts
// when the stacked DRAM operates as a cache.
type L2Params struct {
	Cfg  *config.Config
	AMap mem.AddrMap
	MCs  []Port
	IDs  *mem.IDSource
}

// L2 is the shared, banked second-level cache plus its miss handling
// architecture: per-MC MSHR banks (ideal CAM, linear-probe, or VBF;
// Section 5), routing to the memory controllers (aligned page
// interleaving per Figure 5, or line interleaving with a crossbar
// penalty), and the L2 prefetchers.
type L2 struct {
	cfg       *config.Config
	amap      mem.AddrMap
	banks     []*l2bank
	latency   sim.Cycle
	lineBytes int
	pageBytes int

	mshrBanks []*mshr.File
	mshrBusy  []sim.Cycle
	mshrLat   sim.Cycle

	mcs []Port
	rd  []Outbox // per MC: reads of allocated MSHR entries toward it
	wb  []Outbox // per MC: writebacks toward it
	// mshrWait holds misses that found their MSHR bank full. They are
	// set aside (the bank pipeline keeps flowing — a full MSHR must not
	// head-of-line-block unrelated hits) and retried as entries free up.
	mshrWait []mshrWaiters

	ids      *mem.IDSource
	stride   *prefetch.Stride
	events   sim.EventQueue
	now      sim.Cycle
	stats    L2Stats
	missesBy []uint64 // demand misses per core (MPKI accounting)

	// Prefetch effectiveness. A line an L2 prefetch brought in that
	// demand has not yet touched carries the state byte prefetched in its
	// bank array's way. Pure observation — never consulted for a
	// simulation decision.
	pfStats prefetch.Stats

	// crossPenalty is the extra latency for L2-bank-to-MC routing when
	// banking granularities are mismatched (line-interleaved L2 with
	// multiple MCs requires a full crossbar; Section 4.1).
	crossPenalty sim.Cycle

	// attrib (nil when disabled) opens a cycle-accounting tag on every
	// demand miss and folds it back in at the fill.
	attrib *attrib.Collector

	// handle, when set, lets the L2 sleep until its next self-scheduled
	// event or queued work; Submit, a refused writeback, a fill into a bank
	// with set-aside misses and a raised MSHR limit wake it. headPolls
	// counts the polls of the set-aside heads that were made, not settled.
	handle    *sim.TickHandle
	headPolls uint64

	// Prebuilt callbacks so the hot path schedules events and issues
	// reads without allocating closures: completeReq finishes a request
	// at its scheduled cycle, issueEntry (re)issues an MSHR entry, and
	// onFill receives a returning line (its entry rides in the derived
	// read's Owner/OwnerIdx fields).
	completeReq func(arg any, at sim.Cycle)
	issueEntry  func(arg any, at sim.Cycle)
	onFill      func(*mem.Request, sim.Cycle)
}

// bankQueueCap bounds each bank's input queue; a full queue pushes back
// to the L1s.
const bankQueueCap = 16

// NewL2 builds the shared L2 from the configuration. The mcs slice must
// have cfg.MCs controllers whose Respond callbacks complete requests
// (completion reaches this L2 through each read's OnDone handler).
func NewL2(p L2Params) *L2 {
	cfg := p.Cfg
	if cfg == nil || p.IDs == nil {
		panic("cache: NewL2 missing config or ID source")
	}
	if len(p.MCs) != cfg.MCs {
		panic(fmt.Sprintf("cache: %d MCs provided, config wants %d", len(p.MCs), cfg.MCs))
	}
	totalBytes := (cfg.L2SizeKB + cfg.L2ExtraKB) * 1024
	perBank := totalBytes / cfg.L2Banks
	sets := perBank / (cfg.L2Ways * cfg.LineBytes)
	if sets < 1 {
		panic("cache: L2 bank has zero sets")
	}
	l := &L2{
		cfg:          cfg,
		amap:         p.AMap,
		latency:      sim.Cycle(cfg.L2Latency),
		lineBytes:    cfg.LineBytes,
		pageBytes:    cfg.PageBytes,
		mcs:          p.MCs,
		ids:          p.IDs,
		mshrLat:      sim.Cycle(cfg.MSHRBankLat),
		missesBy:     make([]uint64, cfg.Cores),
		rd:           make([]Outbox, cfg.MCs),
		wb:           make([]Outbox, cfg.MCs),
		crossPenalty: 0,
	}
	if !cfg.L2PageInterleave && cfg.MCs > 1 {
		l.crossPenalty = 4
	}
	for m, mc := range p.MCs {
		l.rd[m] = NewOutbox(mc)
		l.wb[m] = NewOutbox(mc)
	}
	for b := 0; b < cfg.L2Banks; b++ {
		bank := &l2bank{
			arr: NewArray(fmt.Sprintf("L2b%d", b), sets, cfg.L2Ways, cfg.LineBytes),
			inq: sim.NewQueue[*mem.Request](bankQueueCap),
		}
		bank.inq.Reserve(bankQueueCap)
		l.banks = append(l.banks, bank)
	}
	mshrBanks := cfg.MCs
	if cfg.MSHRUnified {
		mshrBanks = 1
	}
	perMSHRBank := cfg.L2TotalMSHRs() / mshrBanks
	if perMSHRBank < 1 {
		perMSHRBank = 1
	}
	for m := 0; m < mshrBanks; m++ {
		l.mshrBanks = append(l.mshrBanks, mshr.New(cfg.L2MSHRKind, perMSHRBank))
	}
	l.mshrBusy = make([]sim.Cycle, mshrBanks)
	l.mshrWait = make([]mshrWaiters, mshrBanks)
	if cfg.L2Prefetch {
		l.stride = prefetch.NewStride(256)
	}
	l.completeReq = func(arg any, at sim.Cycle) { arg.(*mem.Request).Complete(at) }
	l.issueEntry = func(arg any, at sim.Cycle) {
		e := arg.(*mshr.Entry)
		l.issue(l.mshrFor(e.Line), e)
	}
	l.onFill = func(req *mem.Request, at sim.Cycle) {
		l.handleFill(req.OwnerIdx, req.Owner.(*mshr.Entry), req, at)
	}
	return l
}

// Register adds the L2 to the engine's tick order and arms the idle
// fast-path: after each Tick the L2 sleeps until its earliest pending
// event or queued request could act, staying awake while deferred MC
// submissions retry every cycle. Set-aside misses do not keep it awake:
// whatever can change what a full MSHR bank tells them wakes it.
func (l *L2) Register(e *sim.Engine) {
	l.handle = e.RegisterEvery(1, 0, l)
	l.handle.SleepUntil(sim.FarFuture)
	for _, f := range l.mshrBanks {
		f.WakeOnGrow(l.handle)
	}
	for m := range l.wb {
		l.rd[m].SetOwner(l.handle)
		l.wb[m].SetOwner(l.handle)
	}
}

// MSHRBanks exposes the MSHR files (for the dynamic resizer and stats).
func (l *L2) MSHRBanks() []*mshr.File { return l.mshrBanks }

// Instrument registers the shared-L2 metrics ("l2.*"). Cumulative
// hit/miss/stall counts come from the existing stats (sampled as
// monotone series); MSHR occupancy, set-aside queue depth, and bank
// input queues are live gauges; each MSHR bank also registers its
// probe-count distribution under "l2.mshr<m>.*".
func (l *L2) Instrument(reg *telemetry.Registry) {
	reg.GaugeFunc("l2.accesses", func() float64 { return float64(l.stats.Accesses) })
	reg.GaugeFunc("l2.hits", func() float64 { return float64(l.stats.Hits) })
	reg.GaugeFunc("l2.demand_misses", func() float64 { return float64(l.stats.DemandMisses) })
	reg.GaugeFunc("l2.mshr.stalls", func() float64 { return float64(l.stats.MSHRStalls) })
	reg.GaugeFunc("l2.mshr.waiters", func() float64 {
		n := 0
		for m := range l.mshrWait {
			n += l.mshrWait[m].q.Len()
		}
		return float64(n)
	})
	reg.GaugeFunc("l2.inq.depth", func() float64 {
		n := 0
		for _, b := range l.banks {
			n += b.inq.Len()
		}
		return float64(n)
	})
	for m, f := range l.mshrBanks {
		f.Instrument(reg, fmt.Sprintf("l2.mshr%d", m))
	}
	reg.GaugeFunc("prefetch.l2.issued", func() float64 { return float64(l.pfStats.Issued) })
	reg.GaugeFunc("prefetch.l2.useful", func() float64 { return float64(l.pfStats.Useful) })
	reg.GaugeFunc("prefetch.l2.stride_candidates", func() float64 { return float64(l.pfStats.StrideCandidates) })
	reg.GaugeFunc("prefetch.l2.nextline_candidates", func() float64 { return float64(l.pfStats.NextLineCandidates) })
	reg.GaugeFunc("prefetch.l2.accuracy", func() float64 { return l.PrefetchStats().Accuracy() })
}

// AttachAttrib enables memory-latency attribution: every demand miss
// gets a tag at detection, and the collector accumulates it when the
// fill completes. A nil collector disables attribution.
func (l *L2) AttachAttrib(col *attrib.Collector) { l.attrib = col }

// Stats returns the counters.
func (l *L2) Stats() *L2Stats { return &l.stats }

// DemandMissesByCore reports per-core L2 demand misses (for MPKI).
func (l *L2) DemandMissesByCore() []uint64 { return l.missesBy }

// DigestWords folds the L2's architectural counters into a run digest
// via emit, in a fixed order: the cache's own, then each MSHR bank's.
func (l *L2) DigestWords(emit func(...uint64)) {
	emit(l.stats.Accesses, l.stats.Hits, l.stats.MSHRStalls)
	for _, f := range l.mshrBanks {
		st := f.Stats()
		emit(st.Accesses, st.Probes)
	}
}

// InFlight counts the requests the L2 still holds: queued at a bank,
// set aside on a full MSHR bank, allocated in one, waiting as a
// writeback for a full MRQ, or scheduled to complete or issue later.
// Zero exactly when the L2 has drained.
func (l *L2) InFlight() int {
	n := l.events.Len()
	for _, b := range l.banks {
		n += b.inq.Len()
	}
	for m, f := range l.mshrBanks {
		n += f.Len() + l.mshrWait[m].q.Len()
	}
	for m := range l.wb {
		n += l.wb[m].Len()
	}
	return n
}

// CheckDrained reports what a quiesced L2 must not show: requests that
// never drained once the cores stopped issuing, or counters that do
// not balance.
func (l *L2) CheckDrained() error {
	var errs []error
	if n := l.InFlight(); n != 0 {
		errs = append(errs, fmt.Errorf("L2 holds %d requests after quiesce", n))
	}
	for i, f := range l.mshrBanks {
		// Entries allocated during warmup may release after the stats
		// reset, so releases can exceed allocs; fewer releases than
		// allocs after quiesce means entries were lost.
		if st := f.Stats(); st.Releases < st.Allocs {
			errs = append(errs, fmt.Errorf("mshr bank %d: %d allocs but only %d releases", i, st.Allocs, st.Releases))
		}
	}
	if l.stats.Hits > l.stats.Accesses {
		errs = append(errs, fmt.Errorf("L2: hits %d exceed accesses %d", l.stats.Hits, l.stats.Accesses))
	}
	return errors.Join(errs...)
}

// bankFor routes a line to an L2 bank: line interleaving in the
// traditional organization, page interleaving in the aligned Figure 5
// floorplan.
func (l *L2) bankFor(line mem.Addr) int {
	if l.cfg.L2PageInterleave {
		return int(uint64(line) / uint64(l.pageBytes) % uint64(len(l.banks)))
	}
	return int(uint64(line) / uint64(l.lineBytes) % uint64(len(l.banks)))
}

// mcFor routes a line to its memory controller.
func (l *L2) mcFor(line mem.Addr) int { return l.amap.MCOf(line) }

// mshrFor routes a line to its MSHR bank: the MC-aligned bank in the
// Figure 5 organization, or the single shared file when unified.
func (l *L2) mshrFor(line mem.Addr) int {
	if l.cfg.MSHRUnified {
		return 0
	}
	return l.mcFor(line)
}

// toLocal converts a global line address to a bank-local address by
// deleting the bank-selection bits, so a bank's array uses all of its
// sets. (Indexing a bank's array with the global line number would leave
// 15/16ths of its sets unreachable — every resident line shares the same
// bank-select residue.)
func (l *L2) toLocal(line mem.Addr) mem.Addr {
	nb := uint64(len(l.banks))
	if l.cfg.L2PageInterleave {
		page := uint64(line) / uint64(l.pageBytes)
		return mem.Addr(page/nb*uint64(l.pageBytes) + uint64(line)%uint64(l.pageBytes))
	}
	ln := uint64(line) / uint64(l.lineBytes)
	return mem.Addr(ln / nb * uint64(l.lineBytes))
}

// toGlobal inverts toLocal for bank's victim addresses.
func (l *L2) toGlobal(local mem.Addr, bank int) mem.Addr {
	nb := uint64(len(l.banks))
	if l.cfg.L2PageInterleave {
		page := uint64(local) / uint64(l.pageBytes)
		return mem.Addr((page*nb+uint64(bank))*uint64(l.pageBytes) + uint64(local)%uint64(l.pageBytes))
	}
	ln := uint64(local) / uint64(l.lineBytes)
	return mem.Addr((ln*nb + uint64(bank)) * uint64(l.lineBytes))
}

// Submit implements Port for the L1 controllers.
func (l *L2) Submit(r *mem.Request, now sim.Cycle) bool {
	b := l.banks[l.bankFor(r.Line)]
	if !b.inq.Push(r) {
		return false
	}
	l.handle.Wake()
	return true
}

// Tick processes one cycle: due events (hit completions, fills), then
// set-aside misses waiting on MSHR space — the polls of the cycles slept
// through since the last tick were settled just before — then one request
// per free bank, then MC submission retries.
func (l *L2) Tick(now sim.Cycle) {
	l.now = now
	l.events.FireDue(now)
	l.drainMSHRWaiters(now)
	for _, b := range l.banks {
		l.tickBank(b, now)
	}
	l.retryMCs(now)
	l.sched(now)
}

// Settle implements sim.Settler: the set-aside polls of the k cycles
// the L2 slept through leave their counts in its MSHR banks' stats.
func (l *L2) Settle(_, k sim.Cycle) {
	for m := range l.mshrWait {
		l.settle(m, k)
	}
}

// settle counts, without making them, k polls of MSHR bank m's set-aside
// head. Each would have missed in its full MSHR bank at what the last
// real poll cost. That holds for every cycle on which the bank is as the
// head's last real poll left it: the head's line can enter the array only
// in handleFill of its own MSHR entry, which would first have to be
// allocated, and is released, in this bank; and the lookup's cost and the
// bank's being full change only with an allocation, a release or a new
// limit. A release or a raised limit also wakes the L2, so the cycles it
// sleeps through always qualify; the cycle it wakes on qualifies if the
// bank's change count stands (drainMSHRWaiters).
func (l *L2) settle(m int, k sim.Cycle) {
	if w := &l.mshrWait[m]; !w.q.Empty() {
		l.mshrBanks[m].Relookup(w.probes, uint64(k))
	}
}

// sched chooses how long the L2 can sleep after ticking at now. Deferred
// MC submissions pin it awake: they retry every cycle. A set-aside head
// a full bank turned away does not: handleFill and a raised limit, the
// only things that can change the answer, wake the L2, and settle
// counts the polls in between. The exception is a bank whose lookups
// draw from the fault injector's shared random stream, where every poll
// is made, on its own cycle. Otherwise the next work is the earliest
// pending event or the earliest cycle a non-empty bank queue can be
// served.
func (l *L2) sched(now sim.Cycle) {
	for m := range l.mshrWait {
		if !l.mshrWait[m].q.Empty() && l.mshrBanks[m].DrawsFaults() {
			l.handle.SleepUntil(now + 1)
			return
		}
	}
	for m := range l.mcs {
		if l.rd[m].Len() > 0 || l.wb[m].Len() > 0 {
			l.handle.SleepUntil(now + 1)
			return
		}
	}
	wake := sim.FarFuture
	if c, ok := l.events.NextAt(); ok {
		wake = c
	}
	for _, b := range l.banks {
		if b.inq.Len() == 0 {
			continue
		}
		c := now + 1
		if b.busy > c {
			c = b.busy
		}
		if c < wake {
			wake = c
		}
	}
	l.handle.SleepUntil(wake)
}

// drainMSHRWaiters retries set-aside misses in arrival order as MSHR
// entries free up. A waiting line may have been filled by another
// request in the meantime, in which case it completes as a hit.
//
// A head whose bank has not changed since it was last turned away is not
// asked again: this cycle's poll is settled like those of the cycles slept
// through. Two kinds of poll are always made. A bank that draws faults
// spends the injector's random stream on each. Under a full-tick engine —
// the oracle the closed form is checked against — nothing is settled at
// all.
func (l *L2) drainMSHRWaiters(now sim.Cycle) {
	settles := !l.handle.FullTick()
	for m := range l.mshrWait {
		w := &l.mshrWait[m]
		if w.q.Empty() {
			continue
		}
		f := l.mshrBanks[m]
		if settles && w.seen == f.Changes() && !f.DrawsFaults() {
			l.settle(m, 1)
			continue
		}
		for r, ok := w.q.Peek(); ok; r, ok = w.q.Peek() {
			l.headPolls++
			arr := l.banks[l.bankFor(r.Line)].arr
			if st, hit := arr.LookupState(l.toLocal(r.Line)); hit {
				l.stats.Hits++
				l.notePrefetchUse(arr, r.Line, st)
				done := now + l.latency
				// The miss resolved while set aside: another request
				// filled the line, so the whole lifetime was MSHR wait
				// (the tag never reached an MC and telescopes to the
				// MSHR stage).
				l.attrib.Finish(r.Attrib, done)
				r.Attrib = nil
				l.events.AtCall(done, l.completeReq, r)
			} else if probes, fit := l.missPath(r, now); !fit {
				w.turnedAway(f, probes)
				break // still full; preserve order
			}
			w.q.Pop()
		}
	}
}

func (l *L2) tickBank(b *l2bank, now sim.Cycle) {
	if now < b.busy {
		return
	}
	r, ok := b.inq.Peek()
	if !ok {
		return
	}
	switch r.Kind {
	case mem.Writeback:
		b.inq.Pop()
		b.busy = now + 1
		if b.arr.Lookup(l.toLocal(r.Line)) {
			b.arr.MarkDirty(l.toLocal(r.Line))
			r.Complete(now)
			return
		}
		// Not present: forward a fresh writeback toward memory
		// (non-inclusive victim) and finish the original.
		l.wb[l.mcFor(r.Line)].Send(l.ids.Writeback(r.Line, -1, now), now)
		r.Complete(now)
		return
	default:
		l.stats.Accesses++
		if st, hit := b.arr.LookupState(l.toLocal(r.Line)); hit {
			b.inq.Pop()
			b.busy = now + 1
			l.stats.Hits++
			l.notePrefetchUse(b.arr, r.Line, st)
			l.events.AtCall(now+l.latency, l.completeReq, r)
			l.trainPrefetch(now, r)
			return
		}
		// Miss: open the cycle-accounting lifecycle (one nil check when
		// attribution is off), then consult the MSHR bank aligned with
		// this line's MC.
		if r.Attrib == nil && r.Kind.IsDemand() && r.Core >= 0 {
			r.Attrib = l.attrib.NewTag(now, r.Core)
		}
		if probes, ok := l.missPath(r, now); !ok {
			// MSHR full: set the miss aside so the bank keeps
			// serving unrelated requests (the capacity pressure the
			// Section 5 experiments measure).
			l.stats.MSHRStalls++
			m := l.mshrFor(r.Line)
			w := &l.mshrWait[m]
			if w.q.Empty() {
				// r is the head, and this was its poll.
				w.turnedAway(l.mshrBanks[m], probes)
			}
			w.q.Push(r)
		}
		b.inq.Pop()
		b.busy = now + 1
		l.trainPrefetch(now, r)
	}
}

// missPath runs the MSHR lookup/merge/allocate sequence for r. It
// reports false when the request cannot make progress (MSHR full), and
// the entry probes the lookup took either way.
func (l *L2) missPath(r *mem.Request, now sim.Cycle) (probes int, ok bool) {
	m := l.mshrFor(r.Line)
	f := l.mshrBanks[m]
	// The probe occupies the MSHR bank; model its serialization.
	start := now + l.latency + l.crossPenalty
	start = max(start, l.mshrBusy[m])
	entry, probes, found := f.Lookup(r.Line)
	busyFor := sim.Cycle(probes) * l.mshrLat
	if found {
		l.mshrBusy[m] = start + busyFor
		entry.Merge(r)
		return probes, true
	}
	if f.Full() {
		if r.Kind == mem.Prefetch && r.Core >= 0 {
			// Drop L1-originated prefetches rather than spend scarce
			// MSHR capacity on speculation; the L1 unwinds (and
			// re-issues as demand if a miss merged in meanwhile).
			l.mshrBusy[m] = start + busyFor
			r.Dropped = true
			r.Complete(now)
			return probes, true
		}
		// Demand misses wait for an entry. (L2-internal prefetches
		// never enter this path — trainPrefetch checks capacity.)
		return probes, false
	}
	if entry, ok = f.Allocate(r.Line, r); !ok {
		return probes, false
	}
	l.mshrBusy[m] = start + busyFor + l.mshrLat // allocation write
	r.Attrib.Alloc(l.mshrBusy[m])
	if r.Kind.IsDemand() && r.Core >= 0 {
		l.stats.DemandMisses++
		l.missesBy[r.Core]++
	}
	// Issue toward the MC once the MSHR access completes.
	l.events.AtCall(l.mshrBusy[m], l.issueEntry, entry)
	return probes, true
}

// issue sends the entry's memory read toward its controller; a full MRQ
// leaves it in the controller's outbox. mshrIdx identifies the MSHR bank
// holding the entry (needed for release); the destination controller
// comes from the address.
func (l *L2) issue(mshrIdx int, e *mshr.Entry) {
	primary := e.Primary()
	read := l.ids.NewRequest()
	read.Kind = mem.Read
	read.Addr = primary.Addr
	read.Line = e.Line
	read.Core = primary.Core
	read.PC = primary.PC
	read.Born = primary.Born
	read.Attrib = primary.Attrib
	read.Owner = e
	read.OwnerIdx = mshrIdx
	read.OnDone = l.onFill
	l.rd[l.mcFor(e.Line)].Send(read, l.now)
}

// retryMCs drains deferred writebacks and MC reads.
func (l *L2) retryMCs(now sim.Cycle) {
	for m := range l.mcs {
		// Writebacks first: they hold no MSHR and starve nothing above.
		l.wb[m].Retry(now)
		l.rd[m].Retry(now)
	}
}

// handleFill receives a line from memory: install it in the right bank,
// write back the victim if dirty, wake every waiter, release the entry.
func (l *L2) handleFill(mshrIdx int, e *mshr.Entry, read *mem.Request, at sim.Cycle) {
	// Prefetch accounting: a prefetch-initiated fill that a demand miss
	// merged into was useful immediately; otherwise the line is marked in
	// its way until a demand hit (useful) or its eviction (wasted) decides.
	var st uint8
	if p := e.Primary(); p != nil && p.Kind == mem.Prefetch && p.Core < 0 {
		demandWaiter := false
		for w := range e.Waiters.All() { // the primary, a prefetch, is none
			if w.Kind.IsDemand() {
				demandWaiter = true
				break
			}
		}
		if demandWaiter {
			l.pfStats.Useful++
		} else {
			st = prefetched
		}
	}
	bankIdx := l.bankFor(e.Line)
	b := l.banks[bankIdx]
	victim, victimFlags, evicted := b.arr.fill(l.toLocal(e.Line), e.Dirty, st)
	if evicted && victimFlags&dirtyFlag != 0 {
		victimLine := l.toGlobal(victim, bankIdx)
		// at, not l.now: a fill runs from a controller's tick, when l.now
		// is stale from the L2's last one.
		l.wb[l.mcFor(victimLine)].Send(l.ids.Writeback(victimLine, -1, at), at)
	}
	// Close the lifecycles: the primary's tag (carried by the derived
	// read) gets the full stage decomposition; merged secondaries
	// overlapped it, so only their end-to-end latency is recorded.
	l.attrib.Finish(read.Attrib, at)
	for w := e.Waiters.Pop(); w != nil; w = e.Waiters.Pop() {
		if w.Attrib != nil && w.Attrib.Merged {
			l.attrib.FinishMerged(w.Attrib, at)
		}
		if w.Core < 0 && w.Kind == mem.Prefetch {
			// L2-originated prefetch: the fill was the point, and nobody
			// above waits for the request trainPrefetch built.
			l.ids.Recycle(w)
			continue
		}
		w.Complete(at) // wakes the L1 fill handler (or the L1 prefetch)
	}
	l.mshrBanks[mshrIdx].Release(e)
	if !l.mshrWait[mshrIdx].q.Empty() {
		// The bank's set-aside head now finds its line resident or an
		// entry free: poll it on the next cycle the L2's slot comes up.
		l.handle.Wake()
	}
}

// notePrefetchUse records a demand hit on line, found in its bank array
// arr in state st: if an L2 prefetch brought the line in and demand had
// not yet used it, the prefetch was useful, and the mark goes.
func (l *L2) notePrefetchUse(arr *Array, line mem.Addr, st uint8) {
	if st == prefetched {
		l.pfStats.Useful++
		arr.SetState(l.toLocal(line), 0)
	}
}

// PrefetchStats reports the L2 prefetcher's issue/usefulness counters.
func (l *L2) PrefetchStats() prefetch.Stats {
	s := l.pfStats
	if l.stride != nil {
		s.StrideTrained = l.stride.Trained
	}
	return s
}

// trainPrefetch drives the L2 next-line/stride prefetchers with demand
// traffic and injects prefetch requests directly into the miss path.
func (l *L2) trainPrefetch(now sim.Cycle, r *mem.Request) {
	if l.stride == nil || r.Kind == mem.Prefetch || r.Kind == mem.Writeback {
		return
	}
	cand, ok := l.stride.Observe(r.PC, r.Addr)
	if ok {
		l.pfStats.StrideCandidates++
	} else {
		cand = prefetch.NextLine(r.Addr, l.lineBytes)
		l.pfStats.NextLineCandidates++
	}
	line := cand &^ mem.Addr(l.lineBytes-1)
	if l.banks[l.bankFor(line)].arr.Contains(l.toLocal(line)) {
		return
	}
	m := l.mshrFor(line)
	f := l.mshrBanks[m]
	if _, _, found := f.Lookup(line); found || f.Full() {
		return
	}
	l.pfStats.Issued++
	pf := l.ids.NewRequest()
	pf.Kind = mem.Prefetch
	pf.Addr = cand
	pf.Line = line
	pf.Core = -1
	pf.PC = r.PC
	pf.Born = now
	entry, ok2 := f.Allocate(line, pf)
	if !ok2 {
		l.ids.Recycle(pf)
		return
	}
	l.events.AtCall(now+l.mshrLat, l.issueEntry, entry)
}

// ResetStats zeroes the L2 counters, including per-core miss accounting
// and each MSHR bank's statistics (end of warmup). The prefetch marks
// survive: lines prefetched during warmup can still prove useful.
func (l *L2) ResetStats() {
	l.stats = L2Stats{}
	l.pfStats = prefetch.Stats{}
	if l.stride != nil {
		l.stride.Trained = 0
	}
	for i := range l.missesBy {
		l.missesBy[i] = 0
	}
	for _, f := range l.mshrBanks {
		f.ResetStats()
	}
}
