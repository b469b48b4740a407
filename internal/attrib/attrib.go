// Package attrib implements end-to-end memory-latency attribution
// (cycle accounting) for demand L2 misses: every miss carries a Tag
// stamped with per-stage timestamps as it flows L2 miss → MSHR
// alloc/wait → stack-cache probe → MC queue → DRAM array (ACT/CAS/
// precharge or row-buffer-cache hit) → channel burst → off-chip
// backing round trip → fill, and a Collector
// accumulates the per-stage cycle sums and histograms into the
// telemetry registry under "attrib.*" names.
//
// The decomposition is conservative by construction: the stage
// durations are consecutive differences over the timestamp chain, so
// for every finished miss they sum exactly to the end-to-end miss
// latency (pinned by internal/core's conservation test). That is what
// makes a reported speedup decomposable — "quad-MC shortened the queue
// stage, not the array stage" is a statement about these sums.
//
// The same tags are the Chrome trace's only source: a collector given a
// tracer (Collector.Trace) samples tags as it opens them and draws each
// sampled one, when it finishes, from the same timestamp chain.
//
// Like internal/telemetry, the subsystem is nil-safe end to end: a nil
// *Collector hands out nil *Tags, and every stamp on a nil tag is a
// no-op, so instrumented components pay one nil check when attribution
// is disabled and simulation results are bit-identical either way.
package attrib

import (
	"fmt"
	"strings"

	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
)

// Stage indexes one interval of a demand miss's lifetime.
type Stage int

const (
	// StageMSHR runs from L2 miss detection to the stack-cache probe
	// (or, with the stack in plain memory mode, straight to MRQ
	// acceptance): probe serialization, full-MSHR set-aside wait, and
	// full-MRQ retries. Under directory coherence it ends at NoC
	// injection instead — the private L2's miss handling and any wait
	// for mesh injection credits.
	StageMSHR Stage = iota
	// StageNoc is the mesh traversal time: the request's flight from
	// the private L2 to its home directory bank plus the data
	// response's flight back to the requester. Zero outside directory
	// coherence (the timestamps are never stamped and collapse away).
	StageNoc
	// StageCoherence runs from the request reaching its home directory
	// bank to the protocol handing it onward: directory occupancy and
	// lookup, waiting serialized behind a busy line, invalidation
	// round trips, owner forwarding, and retries submitting to the
	// co-located MC. On a cache-to-cache transfer it covers the whole
	// directory+owner path. Zero outside directory coherence.
	StageCoherence
	// StageStackHit runs from the stack-cache layer first seeing the
	// request to its acceptance into a stacked MC's MRQ: the SRAM tag
	// lookup latency plus any wait for a free MRQ slot. Zero in memory
	// mode (the layer does not exist).
	StageStackHit
	// StageQueue runs from MRQ acceptance to the scheduler picking the
	// request (FR-FCFS queueing plus controller-clock edge alignment).
	StageQueue
	// StageDRAM runs from scheduling to the array's first delivery
	// attempt: ACT/CAS (and any precharge/write-recovery) on a row
	// miss, CAS alone on a row-buffer-cache hit.
	StageDRAM
	// StageRetry covers fault-recovery latency between the first array
	// delivery attempt and the corrected delivery: ECC correction
	// penalties and detected-uncorrectable re-reads injected by
	// internal/fault. Zero on every access in a fault-free run.
	StageRetry
	// StageBus runs from corrected array delivery to the stack-cache
	// hit/miss resolution (or, when the request never goes off chip, to
	// completion): waiting for the channel data bus plus the burst
	// itself (shortened under critical-word-first delivery).
	StageBus
	// StageOffchip runs from the stack-cache miss resolution to
	// completion: the entire backing-channel round trip — off-chip MRQ
	// queueing, the slow 2D array access, the narrow bus burst, and the
	// fill back into the stack. Zero on stack hits and in memory mode.
	StageOffchip
	// NumStages counts the stages.
	NumStages
)

var stageNames = [NumStages]string{"mshr", "noc", "coherence", "stackhit", "queue", "dram", "retry", "bus", "offchip"}

func (s Stage) String() string {
	if s >= 0 && s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Tag rides one demand L2 miss from detection to fill. Components
// stamp it through nil-safe methods; unset checkpoints stay zero
// (cycle 0 precedes every simulated event) and collapse their stage to
// zero cycles in Stages.
type Tag struct {
	Core int
	MC   int
	Rank int
	// RowHit records whether the DRAM access hit an open row or
	// row-buffer-cache entry.
	RowHit bool
	// Merged marks a secondary miss that joined a live MSHR entry; its
	// stages overlap the primary's, so only its end-to-end latency is
	// recorded (into attrib.merged.latency).
	Merged bool
	// TraceID is nonzero on a tag the collector sampled for the Chrome
	// trace: the tag's place in creation order, counted from 1, which
	// every event drawn from it carries as its "miss" argument.
	TraceID uint64

	MissAt      sim.Cycle // L2 detected the demand miss
	AllocAt     sim.Cycle // MSHR entry allocation completed
	InjectAt    sim.Cycle // request injected into the NoC (directory coherence only)
	NocAt       sim.Cycle // request reached its home directory bank (directory coherence only)
	ProbeAt     sim.Cycle // stack-cache layer first saw the request (cache modes only)
	QueueAt     sim.Cycle // accepted into the MC's MRQ
	SchedAt     sim.Cycle // MC scheduler picked the request
	FirstDataAt sim.Cycle // DRAM array's first delivery attempt
	DataAt      sim.Cycle // corrected data delivered (== FirstDataAt fault-free)
	BurstAt     sim.Cycle // burst started on the channel data bus
	StackAt     sim.Cycle // stack-cache miss resolved; off-chip forwarding began
	RespAt      sim.Cycle // data response injected back into the NoC (directory coherence only)
	DoneAt      sim.Cycle // completion reached the L2 fill

	// DRAM micro-phases: cycles within StageDRAM spent in each timing
	// phase of the array access (all but CAS are zero on a row hit).
	WriteRec  sim.Cycle
	Precharge sim.Cycle
	Activate  sim.Cycle
	CAS       sim.Cycle

	// dead marks a tag whose lifecycle Finish/FinishMerged already
	// closed; it sits in the collector's pool until NewTag resurrects
	// it. Guards against a tag being finished twice, which would put it
	// in the pool twice and silently share one tag between two future
	// misses.
	dead bool
}

// Alloc stamps MSHR allocation completion.
func (t *Tag) Alloc(now sim.Cycle) {
	if t == nil {
		return
	}
	t.AllocAt = now
}

// MarkMerged marks the tag as a secondary (merged) miss.
func (t *Tag) MarkMerged() {
	if t == nil {
		return
	}
	t.Merged = true
}

// Inject stamps the request's injection into the NoC toward its home
// directory. Retried injections re-stamp it, so the final value is the
// accepted attempt.
func (t *Tag) Inject(now sim.Cycle) {
	if t == nil {
		return
	}
	t.InjectAt = now
}

// NocArrive stamps the request's delivery at its home directory bank.
func (t *Tag) NocArrive(now sim.Cycle) {
	if t == nil {
		return
	}
	t.NocAt = now
}

// RespInject stamps the data response's injection into the NoC back
// toward the requesting private L2 (by the directory after a memory
// access, or by the owning cache on a cache-to-cache forward).
func (t *Tag) RespInject(now sim.Cycle) {
	if t == nil {
		return
	}
	t.RespAt = now
}

// Probe stamps the stack-cache layer first seeing the request. Retried
// submissions re-stamp it, so the final value is the accepted attempt.
func (t *Tag) Probe(now sim.Cycle) {
	if t == nil {
		return
	}
	t.ProbeAt = now
}

// StackResolve stamps the stack-cache miss decision: everything after
// this until completion is the off-chip backing channel's latency.
func (t *Tag) StackResolve(now sim.Cycle) {
	if t == nil {
		return
	}
	t.StackAt = now
}

// EnterQueue stamps acceptance into controller mc's MRQ.
func (t *Tag) EnterQueue(now sim.Cycle, mc int) {
	if t == nil {
		return
	}
	t.QueueAt = now
	t.MC = mc
}

// Sched stamps the scheduler pick and the serving rank.
func (t *Tag) Sched(now sim.Cycle, rank int) {
	if t == nil {
		return
	}
	t.SchedAt = now
	t.Rank = rank
}

// Data stamps array delivery and whether it was a row-buffer hit.
func (t *Tag) Data(at sim.Cycle, rowHit bool) {
	if t == nil {
		return
	}
	t.FirstDataAt = at
	t.DataAt = at
	t.RowHit = rowHit
}

// Retry pushes corrected delivery out by extra cycles of fault
// recovery (ECC correction, uncorrectable-error re-reads). The delay
// lands in StageRetry; FirstDataAt keeps the fault-free delivery time
// so StageDRAM stays comparable across faulty and clean runs.
func (t *Tag) Retry(extra sim.Cycle) {
	if t == nil || extra <= 0 {
		return
	}
	t.DataAt += extra
}

// Burst stamps the start of the channel data-bus burst.
func (t *Tag) Burst(at sim.Cycle) {
	if t == nil {
		return
	}
	t.BurstAt = at
}

// DRAMPhases records the timing-phase split of the array access.
func (t *Tag) DRAMPhases(writeRec, precharge, activate, cas sim.Cycle) {
	if t == nil {
		return
	}
	t.WriteRec, t.Precharge, t.Activate, t.CAS = writeRec, precharge, activate, cas
}

// Total reports the end-to-end miss latency.
func (t *Tag) Total() sim.Cycle { return t.DoneAt - t.MissAt }

// segStage names the stage each segment of a tag's boundary chain
// counts toward, in time order: segments 0–8 are stages 0–8, and the
// noc stage, the one non-contiguous stage, comes back as segment 9 — it
// holds the request's outbound flight (inject→arrive) and the
// response's return flight (resp→done).
var segStage = [...]Stage{StageMSHR, StageNoc, StageCoherence, StageStackHit,
	StageQueue, StageDRAM, StageRetry, StageBus, StageOffchip, StageNoc}

// bounds is the lifetime's boundary chain, MissAt through DoneAt: segment
// i runs from bounds[i] to bounds[i+1] and counts toward segStage[i].
// Unreached checkpoints collapse right-to-left to the next stamped one
// (e.g. a miss whose line was filled by another request while it waited
// for MSHR space never visited the MC; a stack-cache miss under
// tags-in-SRAM skips the stacked MC entirely, so queue/dram/bus
// collapse into the off-chip stage boundary; outside directory
// coherence the NoC timestamps are never stamped, so noc and coherence
// are exactly zero and the remaining seven stages keep their
// shared-L2 values), attributing the whole wait to the stage the
// request was actually stuck in. Stages and the trace both read it, so
// the trace's spans tile a miss exactly as the stage sums conserve it.
func (t *Tag) bounds() [len(segStage) + 1]sim.Cycle {
	b := [...]sim.Cycle{t.MissAt, t.InjectAt, t.NocAt, t.ProbeAt, t.QueueAt, t.SchedAt,
		t.FirstDataAt, t.DataAt, t.StackAt, t.RespAt, t.DoneAt}
	for i := len(b) - 2; i > 0; i-- {
		if b[i] == 0 {
			b[i] = b[i+1]
		}
	}
	return b
}

// Stages decomposes the lifetime into the nine stages; the sum
// telescopes to exactly Total() for every finished tag.
func (t *Tag) Stages() (st [NumStages]sim.Cycle) {
	b := t.bounds()
	for i, s := range segStage {
		st[s] += b[i+1] - b[i]
	}
	return st
}

// latencyBuckets sizes the end-to-end and per-stage histograms: miss
// latencies reach several hundred CPU cycles on the 2D organization,
// well past the registry's default 256 buckets.
const latencyBuckets = 4096

// Collector owns the "attrib.*" metrics and folds finished tags into
// them: global per-stage sums and histograms, plus per-core, per-MC
// and per-rank cycle sums. A nil *Collector is the disabled state.
type Collector struct {
	requests  *telemetry.Counter
	merged    *telemetry.Counter
	rowHits   *telemetry.Counter
	latency   *telemetry.Distribution
	mergedLat *telemetry.Distribution

	stageCycles [NumStages]*telemetry.Counter
	stageDist   [NumStages]*telemetry.Distribution

	phaseWriteRec  *telemetry.Counter
	phasePrecharge *telemetry.Counter
	phaseActivate  *telemetry.Counter
	phaseCAS       *telemetry.Counter

	coreReqs   []*telemetry.Counter
	coreCycles [][NumStages]*telemetry.Counter
	mcReqs     []*telemetry.Counter
	mcCycles   [][NumStages]*telemetry.Counter
	rankReqs   []*telemetry.Counter
	rankDRAM   []*telemetry.Counter
	ranksPerMC int

	// Check, when set, receives every finished primary tag before it is
	// accumulated; the conservation tests use it to assert the stage
	// sum equals the end-to-end latency on live traffic.
	Check func(t *Tag)

	// trace receives the sampled tags (Trace); created counts the tags
	// NewTag opened, the order the trace samples them in.
	trace   *telemetry.Tracer
	created uint64

	// tags recycles finished tags: a tag's lifecycle ends inside
	// Finish/FinishMerged (callers drop their reference immediately
	// after), so the collector reuses the object for the next miss.
	// Confined to the single simulation goroutine, like the rest of
	// the collector's mutable state.
	tags sim.Pool[Tag]
}

// NewCollector registers the attribution metrics for a machine of the
// given shape and returns the collector. A nil registry returns a nil
// collector, which hands out nil tags — attribution fully disabled.
func NewCollector(reg *telemetry.Registry, cores, mcs, ranksPerMC int) *Collector {
	if reg == nil {
		return nil
	}
	c := &Collector{ranksPerMC: ranksPerMC}
	c.requests = reg.Counter("attrib.requests")
	c.merged = reg.Counter("attrib.merged")
	c.rowHits = reg.Counter("attrib.rowhits")
	c.latency = reg.DistributionN("attrib.latency", latencyBuckets)
	c.mergedLat = reg.DistributionN("attrib.merged.latency", latencyBuckets)
	for st := Stage(0); st < NumStages; st++ {
		c.stageCycles[st] = reg.Counter(fmt.Sprintf("attrib.stage.%s.cycles", st))
		c.stageDist[st] = reg.DistributionN(fmt.Sprintf("attrib.stage.%s", st), latencyBuckets)
	}
	c.phaseWriteRec = reg.Counter("attrib.dram.writerec.cycles")
	c.phasePrecharge = reg.Counter("attrib.dram.precharge.cycles")
	c.phaseActivate = reg.Counter("attrib.dram.activate.cycles")
	c.phaseCAS = reg.Counter("attrib.dram.cas.cycles")
	for i := 0; i < cores; i++ {
		c.coreReqs = append(c.coreReqs, reg.Counter(fmt.Sprintf("attrib.core%d.requests", i)))
		var sc [NumStages]*telemetry.Counter
		for st := Stage(0); st < NumStages; st++ {
			sc[st] = reg.Counter(fmt.Sprintf("attrib.core%d.%s.cycles", i, st))
		}
		c.coreCycles = append(c.coreCycles, sc)
	}
	for m := 0; m < mcs; m++ {
		c.mcReqs = append(c.mcReqs, reg.Counter(fmt.Sprintf("attrib.mc%d.requests", m)))
		var sc [NumStages]*telemetry.Counter
		for st := Stage(0); st < NumStages; st++ {
			sc[st] = reg.Counter(fmt.Sprintf("attrib.mc%d.%s.cycles", m, st))
		}
		c.mcCycles = append(c.mcCycles, sc)
		for r := 0; r < ranksPerMC; r++ {
			c.rankReqs = append(c.rankReqs, reg.Counter(fmt.Sprintf("attrib.mc%d.rank%d.requests", m, r)))
			c.rankDRAM = append(c.rankDRAM, reg.Counter(fmt.Sprintf("attrib.mc%d.rank%d.dram.cycles", m, r)))
		}
	}
	return c
}

// Trace has the collector sample the tags it opens for tr — one in
// every tr-sampled, in creation order — and draw each sampled tag into
// tr when it finishes. A nil tr, the default, traces nothing.
func (c *Collector) Trace(tr *telemetry.Tracer) {
	if c != nil {
		c.trace = tr
	}
}

// NewTag opens a lifecycle for a demand miss first seen by the L2 at
// cycle now. A nil collector returns a nil tag, whose every stamp is a
// no-op — disabled attribution costs callers one nil check.
func (c *Collector) NewTag(now sim.Cycle, core int) *Tag {
	if c == nil {
		return nil
	}
	t := c.tags.Get()
	*t = Tag{Core: core, MC: -1, Rank: -1, MissAt: now}
	if c.trace.Samples(c.created) {
		t.TraceID = c.created + 1
	}
	c.created++
	return t
}

// recycle returns a finished tag to the pool. Finishing the same tag
// twice panics rather than corrupting two future misses' accounting.
func (c *Collector) recycle(t *Tag) {
	if t.dead {
		panic("attrib: tag finished twice")
	}
	t.dead = true
	c.tags.Put(t)
}

// Finish closes a primary miss's lifecycle at cycle done and folds its
// stage decomposition into every breakdown. Nil collector or tag is a
// no-op.
func (c *Collector) Finish(t *Tag, done sim.Cycle) {
	if c == nil || t == nil {
		return
	}
	t.DoneAt = done
	if c.Check != nil {
		c.Check(t)
	}
	st := t.Stages()
	c.requests.Inc()
	c.latency.Observe(int(t.Total()))
	if t.RowHit {
		c.rowHits.Inc()
	}
	for i := Stage(0); i < NumStages; i++ {
		c.stageCycles[i].Add(uint64(st[i]))
		c.stageDist[i].Observe(int(st[i]))
	}
	c.phaseWriteRec.Add(uint64(t.WriteRec))
	c.phasePrecharge.Add(uint64(t.Precharge))
	c.phaseActivate.Add(uint64(t.Activate))
	c.phaseCAS.Add(uint64(t.CAS))
	if t.Core >= 0 && t.Core < len(c.coreReqs) {
		c.coreReqs[t.Core].Inc()
		for i := Stage(0); i < NumStages; i++ {
			c.coreCycles[t.Core][i].Add(uint64(st[i]))
		}
	}
	if t.MC >= 0 && t.MC < len(c.mcReqs) {
		c.mcReqs[t.MC].Inc()
		for i := Stage(0); i < NumStages; i++ {
			c.mcCycles[t.MC][i].Add(uint64(st[i]))
		}
		if t.Rank >= 0 && t.Rank < c.ranksPerMC {
			idx := t.MC*c.ranksPerMC + t.Rank
			c.rankReqs[idx].Inc()
			c.rankDRAM[idx].Add(uint64(st[StageDRAM]))
		}
	}
	if t.TraceID != 0 {
		c.render(t)
	}
	c.recycle(t)
}

// FinishMerged closes a secondary (merged) miss: only its end-to-end
// latency is recorded, since its stages overlap the primary's. A
// sampled one is marked in the trace by an mshr.merge instant on its
// core's track at the cycle it missed.
func (c *Collector) FinishMerged(t *Tag, done sim.Cycle) {
	if c == nil || t == nil {
		return
	}
	t.DoneAt = done
	c.merged.Inc()
	c.mergedLat.Observe(int(t.Total()))
	if t.TraceID != 0 {
		c.trace.Instant(c.trace.Track("cores", fmt.Sprintf("core%d", t.Core)), "mshr.merge", t.MissAt,
			fmt.Sprintf(`{"miss":%d}`, t.TraceID))
	}
	c.recycle(t)
}

// render draws a finished, sampled primary into the trace from its own
// timestamps. On a lane of its core's track: an l2.miss span from miss
// to fill, tiled by one span per non-empty segment of the boundary
// chain, named for the segment's stage, with mshr.alloc and fill
// instants. For a miss an MC scheduled, on the MC's track the
// mrq.enqueue instant and the burst — from its start on the data bus to
// the end of the bus stage, so it includes the hand-off to the next hop
// — and on the rank's track the activate (or cas.rowhit) instant and
// the dram.access span, from scheduling to corrected delivery.
func (c *Collector) render(t *Tag) {
	tr, args, b := c.trace, fmt.Sprintf(`{"miss":%d}`, t.TraceID), t.bounds()
	core := tr.Lane("cores", fmt.Sprintf("core%d", t.Core), t.MissAt, t.DoneAt)
	tr.Complete(core, "l2.miss", t.MissAt, t.DoneAt, args)
	if t.AllocAt != 0 {
		tr.Instant(core, "mshr.alloc", t.AllocAt, args)
	}
	for i, s := range segStage {
		if b[i+1] > b[i] {
			tr.Complete(core, s.String(), b[i], b[i+1], args)
		}
	}
	tr.Instant(core, "fill", t.DoneAt, args)
	if t.Rank < 0 {
		return
	}
	mc, rank := fmt.Sprintf("mc%d", t.MC), fmt.Sprintf("mc%d.rank%d", t.MC, t.Rank)
	tr.Instant(tr.Track("mcs", mc), "mrq.enqueue", t.QueueAt, args)
	busEnd := b[StageBus+1]
	tr.Complete(tr.Lane("mcs", mc, t.BurstAt, busEnd), "burst", t.BurstAt, busEnd, args)
	act := "activate"
	if t.RowHit {
		act = "cas.rowhit"
	}
	tr.Instant(tr.Track("dram", rank), act, t.SchedAt, args)
	tr.Complete(tr.Lane("dram", rank, t.SchedAt, t.DataAt), "dram.access", t.SchedAt, t.DataAt, args)
}

// StageSummary is one stage's line of the breakdown.
type StageSummary struct {
	Stage       string  `json:"stage"`
	Cycles      uint64  `json:"cycles"`
	Share       float64 `json:"share"` // of total attributed cycles
	MeanPerMiss float64 `json:"mean_per_miss"`
	P50         int     `json:"p50"`
	P90         int     `json:"p90"`
	P99         int     `json:"p99"`
}

// GroupRow is one per-core/per-MC/per-rank row of stage cycle sums.
type GroupRow struct {
	Label     string `json:"label"`
	Requests  uint64 `json:"requests"`
	MSHR      uint64 `json:"mshr_cycles"`
	Noc       uint64 `json:"noc_cycles,omitempty"`
	Coherence uint64 `json:"coherence_cycles,omitempty"`
	StackHit  uint64 `json:"stackhit_cycles"`
	Queue     uint64 `json:"queue_cycles"`
	DRAM      uint64 `json:"dram_cycles"`
	Retry     uint64 `json:"retry_cycles"`
	Bus       uint64 `json:"bus_cycles"`
	Offchip   uint64 `json:"offchip_cycles"`
}

// DRAMPhases is the timing-phase split of the DRAM stage.
type DRAMPhases struct {
	WriteRecovery uint64 `json:"write_recovery_cycles"`
	Precharge     uint64 `json:"precharge_cycles"`
	Activate      uint64 `json:"activate_cycles"`
	CAS           uint64 `json:"cas_cycles"`
}

// Breakdown is a point-in-time decomposition of where memory-request
// cycles went, JSON-marshalable for /snapshot and attrib.json.
type Breakdown struct {
	Requests    uint64         `json:"requests"`
	Merged      uint64         `json:"merged"`
	RowHits     uint64         `json:"row_hits"`
	TotalCycles uint64         `json:"total_cycles"`
	MeanLatency float64        `json:"mean_latency"`
	P50         int            `json:"p50"`
	P90         int            `json:"p90"`
	P99         int            `json:"p99"`
	Stages      []StageSummary `json:"stages"`
	DRAM        DRAMPhases     `json:"dram_phases"`
	PerCore     []GroupRow     `json:"per_core,omitempty"`
	PerMC       []GroupRow     `json:"per_mc,omitempty"`
	PerRank     []GroupRow     `json:"per_rank,omitempty"`
}

func groupRows(label string, reqs []*telemetry.Counter, cycles [][NumStages]*telemetry.Counter) []GroupRow {
	var rows []GroupRow
	for i, rc := range reqs {
		rows = append(rows, GroupRow{
			Label:     fmt.Sprintf("%s%d", label, i),
			Requests:  rc.Value(),
			MSHR:      cycles[i][StageMSHR].Value(),
			Noc:       cycles[i][StageNoc].Value(),
			Coherence: cycles[i][StageCoherence].Value(),
			StackHit:  cycles[i][StageStackHit].Value(),
			Queue:     cycles[i][StageQueue].Value(),
			DRAM:      cycles[i][StageDRAM].Value(),
			Retry:     cycles[i][StageRetry].Value(),
			Bus:       cycles[i][StageBus].Value(),
			Offchip:   cycles[i][StageOffchip].Value(),
		})
	}
	return rows
}

// Breakdown snapshots the accumulated attribution. Nil collector
// (attribution disabled) returns nil.
func (c *Collector) Breakdown() *Breakdown {
	if c == nil {
		return nil
	}
	b := &Breakdown{
		Requests: c.requests.Value(),
		Merged:   c.merged.Value(),
		RowHits:  c.rowHits.Value(),
		DRAM: DRAMPhases{
			WriteRecovery: c.phaseWriteRec.Value(),
			Precharge:     c.phasePrecharge.Value(),
			Activate:      c.phaseActivate.Value(),
			CAS:           c.phaseCAS.Value(),
		},
	}
	if h := c.latency.Histogram(); h != nil {
		b.MeanLatency = h.MeanValue()
		qs := h.Quantiles(0.50, 0.90, 0.99)
		b.P50, b.P90, b.P99 = qs[0], qs[1], qs[2]
	}
	for st := Stage(0); st < NumStages; st++ {
		b.TotalCycles += c.stageCycles[st].Value()
	}
	for st := Stage(0); st < NumStages; st++ {
		s := StageSummary{Stage: st.String(), Cycles: c.stageCycles[st].Value()}
		if b.TotalCycles > 0 {
			s.Share = float64(s.Cycles) / float64(b.TotalCycles)
		}
		if h := c.stageDist[st].Histogram(); h != nil {
			s.MeanPerMiss = h.MeanValue()
			qs := h.Quantiles(0.50, 0.90, 0.99)
			s.P50, s.P90, s.P99 = qs[0], qs[1], qs[2]
		}
		b.Stages = append(b.Stages, s)
	}
	b.PerCore = groupRows("core", c.coreReqs, c.coreCycles)
	b.PerMC = groupRows("mc", c.mcReqs, c.mcCycles)
	for i, rc := range c.rankReqs {
		b.PerRank = append(b.PerRank, GroupRow{
			Label:    fmt.Sprintf("mc%d.rank%d", i/c.ranksPerMC, i%c.ranksPerMC),
			Requests: rc.Value(),
			DRAM:     c.rankDRAM[i].Value(),
		})
	}
	return b
}

// Table renders the breakdown as an aligned text table (the run-end
// report stacksim prints and docs/OBSERVABILITY.md's worked example).
func (b *Breakdown) Table() string {
	if b == nil {
		return "attribution: disabled\n"
	}
	var w strings.Builder
	fmt.Fprintf(&w, "memory-latency attribution: %d demand misses (%d merged), mean %.1f cycles  p50=%d p90=%d p99=%d\n",
		b.Requests, b.Merged, b.MeanLatency, b.P50, b.P90, b.P99)
	fmt.Fprintf(&w, "  %-6s %12s %7s %11s %6s %6s %6s\n", "stage", "cycles", "share", "mean/miss", "p50", "p90", "p99")
	for _, s := range b.Stages {
		fmt.Fprintf(&w, "  %-6s %12d %6.1f%% %11.1f %6d %6d %6d\n",
			s.Stage, s.Cycles, 100*s.Share, s.MeanPerMiss, s.P50, s.P90, s.P99)
	}
	if d := b.DRAM; d.WriteRecovery+d.Precharge+d.Activate+d.CAS > 0 {
		fmt.Fprintf(&w, "  dram phases: activate=%d cas=%d precharge=%d writerec=%d cycles\n",
			d.Activate, d.CAS, d.Precharge, d.WriteRecovery)
	}
	section := func(name string, rows []GroupRow) {
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(&w, "  per %s: %-10s %9s %12s %12s %12s %12s %12s %12s %12s %12s %12s\n",
			name, "", "misses", "mshr", "noc", "coherence", "stackhit", "queue", "dram", "retry", "bus", "offchip")
		for _, r := range rows {
			fmt.Fprintf(&w, "    %-12s %11d %12d %12d %12d %12d %12d %12d %12d %12d %12d\n",
				r.Label, r.Requests, r.MSHR, r.Noc, r.Coherence, r.StackHit, r.Queue, r.DRAM, r.Retry, r.Bus, r.Offchip)
		}
	}
	section("core", b.PerCore)
	section("MC", b.PerMC)
	if len(b.PerRank) > 0 {
		fmt.Fprintf(&w, "  per rank: %-12s %7s %12s\n", "", "misses", "dram")
		for _, r := range b.PerRank {
			fmt.Fprintf(&w, "    %-12s %11d %12d\n", r.Label, r.Requests, r.DRAM)
		}
	}
	return w.String()
}
