// Package stackcache models the die-stacked DRAM operating as a
// last-level cache or hybrid memory in front of a slow off-chip
// backing channel (Bakhshalipour et al., "Die-Stacked DRAM: Memory,
// Cache, or MemCache?").
//
// The layer interposes between the shared L2 and the stacked memory
// controllers: each stacked MC gets a front Port that the L2 submits
// to. In StackCache mode every cacheable request consults a
// set-associative, writeback tag directory kept at the fill
// granularity (a line up to a full page per block); hits ride the
// stacked channels exactly as before, misses enter the layer's own
// miss queue — merging requests to the same block, SMLA-style — and
// fetch the block over a narrow off-chip backing channel that reuses
// the 2D DRAM timing model. In StackMemCache mode a configurable hot
// region of the stack is direct-addressed stacked memory — the Hot
// predicate says which physical pages live there; core wires it to
// the page table so the earliest-touched frames fill the hot region
// first, modelling OS placement of hot pages — and only the remainder
// of the capacity operates as a cache.
//
// The tag directory is on-die SRAM, probed for StackTagLatency cycles
// before any stacked access: hits pay the probe then the stacked
// access, misses skip the stack entirely and go straight off chip. So
// every request that reaches a stacked controller is already resolved,
// and the stacked and backing controllers complete requests like any
// other channel.
//
// Deliberate simplifications, documented for the record: the SRAM tag
// port is pipelined (latency, no occupancy); a stack fill occupies the
// stacked channel as a single write regardless of fill granularity
// (the stack's internal bandwidth is the point of SMLA); dirty victim
// eviction sends the writeback off chip without modelling the stacked
// victim read; and writeback tag probes are free. The backing channel,
// by contrast, transfers full blocks — a page-granularity fill pays
// page-sized occupancy on the narrow off-chip bus.
//
// In StackMemory mode the layer is never constructed and the system is
// bit-identical to the pre-stackcache simulator (pinned by
// core.TestStackMemoryParity).
package stackcache

import (
	"fmt"

	"stackedsim/internal/cache"
	"stackedsim/internal/config"
	"stackedsim/internal/mem"
	"stackedsim/internal/memctrl"
	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
)

// Stats counts stack-cache events.
type Stats struct {
	Probes        uint64 // tag-directory probes by cacheable reads
	Hits          uint64 // probes that found the block resident
	Misses        uint64 // probes that went off chip
	MissMerges    uint64 // misses merged into an in-flight block fetch
	DirectReads   uint64 // memcache hot-region reads (direct-addressed)
	DirectWrites  uint64 // memcache hot-region writebacks
	Fills         uint64 // blocks installed from the backing channel
	WritebacksIn  uint64 // L2 writebacks absorbed by a resident block
	WritebacksOut uint64 // dirty blocks/lines sent off chip
	BackingReads  uint64 // block fetches issued to the backing channel
	BackingWrites uint64 // writebacks issued to the backing channel
}

// HitRate reports hits over tag probes that resolved (0 when none).
func (s *Stats) HitRate() float64 {
	n := s.Hits + s.Misses
	if n == 0 {
		return 0
	}
	return float64(s.Hits) / float64(n)
}

// Params configures the layer.
type Params struct {
	Cfg *config.Config
	// AMap is the CPU-side address map (routes blocks to stacked MCs).
	AMap mem.AddrMap
	// Stacked are the stacked-DRAM controllers.
	Stacked []*memctrl.Controller
	// Backing is the off-chip controller.
	Backing *memctrl.Controller
	IDs     *mem.IDSource
	// Hot reports whether a physical address lives in the memcache hot
	// region (direct-addressed stacked memory). Required in memcache
	// mode, ignored otherwise.
	Hot func(mem.Addr) bool
}

// Layer is the stack-cache model. It is built only when
// cfg.StackMode != StackMemory; no nil-receiver paths exist because
// disabled means absent.
type Layer struct {
	mode      config.StackMode
	fillBytes int
	hot       func(mem.Addr) bool // memcache: resident in the hot region

	tags    *cache.Array
	amap    mem.AddrMap
	stacked []*memctrl.Controller
	backing *memctrl.Controller
	ids     *mem.IDSource

	// pending holds the in-flight block fetches by block address, each
	// with the L2 reads waiting on it: later misses to the same block
	// merge instead of duplicating the off-chip read.
	pending map[mem.Addr]sim.List[*mem.Request]

	// Outboxes toward full MRQs, retried every cycle in Tick.
	back  cache.Outbox   // reads + writebacks toward the backing MC
	stack []cache.Outbox // per stacked MC: resolved traffic toward it

	probes *sim.Delay[*mem.Request] // tag probes awaiting their decision
	stats  Stats

	// handle, when set, lets the layer sleep while its outboxes are
	// empty until its next delayed tag decision; completion callbacks
	// that queue retry work from another component's tick wake it.
	handle *sim.TickHandle

	// fetchDone is the prebuilt completion of every block fetch (the
	// block address rides in Request.Line): no per-request closure.
	fetchDone func(r *mem.Request, now sim.Cycle)
}

// New builds the layer for a cache or memcache configuration.
func New(p Params) *Layer {
	cfg := p.Cfg
	if cfg == nil || p.IDs == nil || p.Backing == nil || len(p.Stacked) != cfg.MCs {
		panic("stackcache: New missing config, IDs, backing controller, or stacked MCs")
	}
	if cfg.StackMode == config.StackMemory {
		panic("stackcache: layer must not be constructed in memory mode")
	}
	if cfg.StackMode == config.StackMemCache && p.Hot == nil {
		panic("stackcache: memcache mode needs a Hot predicate")
	}
	capBytes := int64(cfg.StackCapMB) << 20
	cacheBytes := capBytes - cfg.StackHotBytes()
	sets := int(cacheBytes) / (cfg.StackWays * cfg.StackFillBytes)
	if sets < 1 {
		panic(fmt.Sprintf("stackcache: %d cacheable bytes yield zero sets (%d ways x %d-byte blocks)",
			cacheBytes, cfg.StackWays, cfg.StackFillBytes))
	}
	l := &Layer{
		mode:      cfg.StackMode,
		fillBytes: cfg.StackFillBytes,
		hot:       p.Hot,
		tags:      cache.NewArray("stacktags", sets, cfg.StackWays, cfg.StackFillBytes),
		amap:      p.AMap,
		stacked:   p.Stacked,
		backing:   p.Backing,
		ids:       p.IDs,
		pending:   make(map[mem.Addr]sim.List[*mem.Request]),
		back:      cache.NewOutbox(p.Backing),
		stack:     make([]cache.Outbox, len(p.Stacked)),
		probes:    sim.NewDelay[*mem.Request](sim.Cycle(cfg.StackTagLatency)),
	}
	for mc, c := range p.Stacked {
		l.stack[mc] = cache.NewOutbox(c)
	}
	l.fetchDone = func(r *mem.Request, at sim.Cycle) { l.finishMiss(r.Line, at) }
	return l
}

// SetHandle arms the idle fast-path: the layer sleeps while its
// outboxes are empty until its next delayed tag decision. It is called
// at construction, with the outboxes empty.
func (l *Layer) SetHandle(h *sim.TickHandle) {
	l.handle = h
	l.back.SetOwner(h)
	for mc := range l.stack {
		l.stack[mc].SetOwner(h)
	}
	h.SleepUntil(l.probes.NextAt())
}

// queued counts the traffic waiting in the outboxes for a full MRQ.
func (l *Layer) queued() int {
	n := l.back.Len()
	for mc := range l.stack {
		n += l.stack[mc].Len()
	}
	return n
}

// sched recomputes the wake cycle from the layer's full live state:
// awake next cycle while any outbox holds work (each is retried once
// per cycle), else asleep until the next delayed tag decision, else
// unboundedly.
func (l *Layer) sched(now sim.Cycle) {
	if l.queued() > 0 {
		l.handle.SleepUntil(now + 1)
		return
	}
	l.handle.SleepUntil(l.probes.NextAt())
}

// front adapts one stacked MC's share of the address space to the
// cache.Port the L2 submits to.
type front struct {
	l  *Layer
	mc int
}

func (f *front) Submit(r *mem.Request, now sim.Cycle) bool { return f.l.submit(f.mc, r, now) }

// Fronts returns the per-MC ports the L2 uses in place of the
// controllers themselves.
func (l *Layer) Fronts() []cache.Port {
	ports := make([]cache.Port, len(l.stacked))
	for i := range ports {
		ports[i] = &front{l: l, mc: i}
	}
	return ports
}

// Stats returns the counters.
func (l *Layer) Stats() *Stats { return &l.stats }

// block aligns an address to the fill granularity.
func (l *Layer) block(a mem.Addr) mem.Addr { return a &^ mem.Addr(l.fillBytes-1) }

// direct reports whether an address bypasses the tag path entirely
// (the memcache hot region).
func (l *Layer) direct(a mem.Addr) bool {
	return l.mode == config.StackMemCache && l.hot(a)
}

// submit is the front entry point for L2 traffic: demand/prefetch
// reads and writebacks. A false return means "retry later" (the L2's
// own queues hold the request), exactly as a controller's Submit.
func (l *Layer) submit(mc int, r *mem.Request, now sim.Cycle) bool {
	switch r.Kind {
	case mem.Read:
		if l.direct(r.Line) {
			if l.stacked[mc].Submit(r, now) {
				l.stats.DirectReads++
				return true
			}
			return false
		}
		// The probe takes StackTagLatency cycles, then the hit proceeds
		// on the stack or the miss goes off chip. The request is
		// accepted here; the layer owns it until resolution.
		r.Attrib.Probe(now)
		l.probes.Push(now, r)
		l.sched(now)
		return true
	case mem.Writeback:
		return l.submitWriteback(mc, r, now)
	}
	panic(fmt.Sprintf("stackcache: the L2 sent %v down; it sends only reads and writebacks", r))
}

// submitWriteback routes an L2 writeback: hot region → stacked memory;
// resident block → absorb (mark dirty, occupy the stacked channel);
// absent block → forward off chip without allocating.
func (l *Layer) submitWriteback(mc int, r *mem.Request, now sim.Cycle) bool {
	if l.direct(r.Line) {
		if l.stacked[mc].Submit(r, now) {
			l.stats.DirectWrites++
			return true
		}
		return false
	}
	blk := l.block(r.Line)
	if l.tags.Contains(blk) {
		if l.stacked[mc].Submit(r, now) {
			l.tags.MarkDirty(blk)
			l.stats.WritebacksIn++
			return true
		}
		// Rejected: the retry re-probes (the block may be gone by then).
		return false
	}
	if l.backing.Submit(r, now) {
		l.stats.WritebacksOut++
		l.stats.BackingWrites++
		return true
	}
	return false
}

// resolve applies the tag decision StackTagLatency cycles after the
// probe.
func (l *Layer) resolve(r *mem.Request, now sim.Cycle) {
	l.stats.Probes++
	blk := l.block(r.Line)
	if l.tags.Lookup(blk) {
		l.stats.Hits++
		l.toStacked(r, now)
		return
	}
	l.stats.Misses++
	r.Attrib.StackResolve(now)
	l.forwardMiss(r, now)
}

// forwardMiss sends a cacheable read off chip, merging with any
// in-flight fetch of the same block.
func (l *Layer) forwardMiss(r *mem.Request, now sim.Cycle) {
	blk := l.block(r.Line)
	w, merge := l.pending[blk]
	w.Push(r, &r.Link)
	l.pending[blk] = w
	if merge {
		l.stats.MissMerges++
		return
	}
	fetch := l.ids.NewRequest()
	fetch.Kind = mem.Read
	fetch.Addr = blk
	fetch.Line = blk
	fetch.Core = r.Core
	fetch.PC = r.PC
	fetch.Born = now
	// The fetch carries no attribution tag: the original tag's
	// StackResolve→Done interval is the off-chip stage by definition,
	// and the backing MC must not overwrite the stacked checkpoints.
	fetch.OnDone = l.fetchDone
	l.stats.BackingReads++
	l.back.Send(fetch, now)
}

// finishMiss installs a fetched block and completes every waiter.
func (l *Layer) finishMiss(blk mem.Addr, at sim.Cycle) {
	w, ok := l.pending[blk]
	if !ok {
		panic(fmt.Sprintf("stackcache: fill for unknown block %#x", uint64(blk)))
	}
	delete(l.pending, blk)
	if !l.tags.Contains(blk) {
		victim, victimDirty, evicted := l.tags.Fill(blk, false)
		l.stats.Fills++
		if evicted && victimDirty {
			l.stats.WritebacksOut++
			l.stats.BackingWrites++
			l.back.Send(l.ids.Writeback(victim, -1, at), at)
		}
		// Model the fill's occupancy on the stacked channel with a
		// fire-and-forget write.
		fill := l.ids.NewRequest()
		fill.Kind = mem.Write
		fill.Addr = blk
		fill.Line = blk
		fill.Core = -1
		fill.Born = at
		l.toStacked(fill, at)
	}
	for r := w.Pop(); r != nil; r = w.Pop() {
		r.Complete(at)
	}
}

// toStacked sends resolved traffic to the owning stacked MC.
func (l *Layer) toStacked(r *mem.Request, now sim.Cycle) {
	l.stack[l.amap.MCOf(r.Line)].Send(r, now)
}

// Tick applies the tag decisions that fall due and retries the outboxes.
func (l *Layer) Tick(now sim.Cycle) {
	for r, at, ok := l.probes.Pop(now); ok; r, at, ok = l.probes.Pop(now) {
		l.resolve(r, at)
	}
	l.back.Retry(now)
	for mc := range l.stack {
		l.stack[mc].Retry(now)
	}
	l.sched(now)
}

// Instrument registers the "stackcache.*" metrics.
func (l *Layer) Instrument(reg *telemetry.Registry) {
	reg.GaugeFunc("stackcache.probes", func() float64 { return float64(l.stats.Probes) })
	reg.GaugeFunc("stackcache.hits", func() float64 { return float64(l.stats.Hits) })
	reg.GaugeFunc("stackcache.misses", func() float64 { return float64(l.stats.Misses) })
	reg.GaugeFunc("stackcache.miss_merges", func() float64 { return float64(l.stats.MissMerges) })
	reg.GaugeFunc("stackcache.hit_rate", func() float64 { return l.stats.HitRate() })
	reg.GaugeFunc("stackcache.direct_reads", func() float64 { return float64(l.stats.DirectReads) })
	reg.GaugeFunc("stackcache.direct_writes", func() float64 { return float64(l.stats.DirectWrites) })
	reg.GaugeFunc("stackcache.fills", func() float64 { return float64(l.stats.Fills) })
	reg.GaugeFunc("stackcache.writebacks_in", func() float64 { return float64(l.stats.WritebacksIn) })
	reg.GaugeFunc("stackcache.writebacks_out", func() float64 { return float64(l.stats.WritebacksOut) })
	reg.GaugeFunc("stackcache.backing_reads", func() float64 { return float64(l.stats.BackingReads) })
	reg.GaugeFunc("stackcache.backing_writes", func() float64 { return float64(l.stats.BackingWrites) })
	reg.GaugeFunc("stackcache.pending", func() float64 { return float64(len(l.pending)) })
	reg.GaugeFunc("stackcache.backing_queue", func() float64 { return float64(l.backing.QueueLen()) })
}

// ResetStats zeroes the counters and the tag array's statistics (end
// of warmup). Resident blocks and in-flight fetches survive.
func (l *Layer) ResetStats() {
	l.stats = Stats{}
	l.tags.ResetStats()
}

// DigestWords folds the layer's counters into a run digest via emit,
// in a fixed order.
func (l *Layer) DigestWords(emit func(...uint64)) {
	st := &l.stats
	emit(st.Probes, st.Hits, st.Misses, st.MissMerges, st.DirectReads, st.DirectWrites,
		st.Fills, st.WritebacksIn, st.WritebacksOut, st.BackingReads, st.BackingWrites)
}

// InFlight counts the work the layer still holds: block fetches in
// flight, traffic waiting for a full MRQ, and tag decisions not yet
// due. A fill or a forwarded writeback holds no L2 MSHR entry, so
// nothing above the layer vouches for it. Zero exactly when the layer
// has drained.
func (l *Layer) InFlight() int { return len(l.pending) + l.queued() + l.probes.Len() }

// CheckDrained reports a quiesced layer that still holds work.
func (l *Layer) CheckDrained() error {
	if n := l.InFlight(); n != 0 {
		return fmt.Errorf("stack layer holds %d requests after quiesce: %s", n, l.Debug())
	}
	return nil
}

// Debug summarizes live layer state for diagnostics.
func (l *Layer) Debug() string {
	s := fmt.Sprintf("stackcache{mode=%s pending=%d backQ=%d", l.mode, len(l.pending), l.back.Len())
	for mc := range l.stack {
		if n := l.stack[mc].Len(); n > 0 {
			s += fmt.Sprintf(" stackQ%d=%d", mc, n)
		}
	}
	return s + "}"
}
