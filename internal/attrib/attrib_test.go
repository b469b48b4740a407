package attrib

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
)

// fullTag builds a tag with every checkpoint stamped in order.
func fullTag() *Tag {
	t := &Tag{Core: 1, MissAt: 100}
	t.Alloc(102)
	t.EnterQueue(110, 0)
	t.Sched(130, 2)
	t.Data(170, false)
	t.Burst(175)
	t.DRAMPhases(0, 15, 13, 12)
	t.DoneAt = 190
	return t
}

func TestStagesTelescopeToTotal(t *testing.T) {
	tag := fullTag()
	st := tag.Stages()
	// 110-100, no noc/coherence/stack probe, 130-110, 170-130, no retry, 190-170, no offchip
	want := [NumStages]sim.Cycle{10, 0, 0, 0, 20, 40, 0, 20, 0}
	if st != want {
		t.Fatalf("stages = %v, want %v", st, want)
	}
	var sum sim.Cycle
	for _, s := range st {
		sum += s
	}
	if sum != tag.Total() {
		t.Fatalf("stage sum %d != total %d", sum, tag.Total())
	}
}

// A miss whose line was filled by another request never reaches the MC:
// QueueAt/SchedAt/DataAt stay zero and must collapse forward so the
// whole wait lands in StageMSHR and the sum still telescopes.
func TestStagesCollapseUnsetCheckpoints(t *testing.T) {
	tag := &Tag{MissAt: 50, DoneAt: 80}
	st := tag.Stages()
	if st != [NumStages]sim.Cycle{30, 0, 0, 0, 0, 0, 0, 0, 0} {
		t.Fatalf("all-unset stages = %v, want [30 0 0 0 0 0 0 0 0]", st)
	}

	// Queued but never scheduled (e.g. finished via a racing fill):
	// the residue lands in StageQueue.
	tag = &Tag{MissAt: 50, QueueAt: 60, DoneAt: 80}
	st = tag.Stages()
	if st != [NumStages]sim.Cycle{10, 0, 0, 0, 20, 0, 0, 0, 0} {
		t.Fatalf("queue-only stages = %v, want [10 0 0 0 20 0 0 0 0]", st)
	}

	var sum sim.Cycle
	for _, s := range st {
		sum += s
	}
	if sum != tag.Total() {
		t.Fatalf("stage sum %d != total %d with unset checkpoints", sum, tag.Total())
	}
}

func TestNilTagAndCollectorAreNoOps(t *testing.T) {
	var c *Collector
	tag := c.NewTag(5, 0)
	if tag != nil {
		t.Fatal("nil collector must hand out nil tags")
	}
	// Every stamp on a nil tag must be a safe no-op.
	tag.Alloc(1)
	tag.Probe(1)
	tag.StackResolve(1)
	tag.MarkMerged()
	tag.EnterQueue(2, 0)
	tag.Sched(3, 1)
	tag.Data(4, true)
	tag.Burst(5)
	tag.DRAMPhases(1, 2, 3, 4)
	c.Finish(tag, 6)
	c.FinishMerged(tag, 6)
	if b := c.Breakdown(); b != nil {
		t.Fatalf("nil collector breakdown = %v, want nil", b)
	}
	if got := c.Breakdown().Table(); got != "attribution: disabled\n" {
		t.Fatalf("disabled table = %q", got)
	}
	if NewCollector(nil, 4, 2, 4) != nil {
		t.Fatal("nil registry must yield a nil collector")
	}
}

func TestFinishAccumulatesBreakdowns(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCollector(reg, 2, 2, 2)

	tag := c.NewTag(100, 1)
	if tag.MC != -1 || tag.Rank != -1 {
		t.Fatalf("fresh tag MC/Rank = %d/%d, want -1/-1", tag.MC, tag.Rank)
	}
	tag.Alloc(102)
	tag.EnterQueue(110, 1)
	tag.Sched(130, 1)
	tag.Data(170, false)
	tag.Burst(175)
	tag.DRAMPhases(0, 15, 13, 12)

	checked := false
	c.Check = func(got *Tag) {
		checked = true
		if got != tag {
			t.Fatal("Check must receive the finishing tag")
		}
	}
	c.Finish(tag, 190)
	if !checked {
		t.Fatal("Check hook did not run")
	}
	c.Check = nil

	// Second request: a row hit on core 0, mc 0, rank 0.
	hit := c.NewTag(200, 0)
	hit.EnterQueue(201, 0)
	hit.Sched(205, 0)
	hit.Data(217, true)
	hit.DRAMPhases(0, 0, 0, 12)
	c.Finish(hit, 230)

	// A merged secondary only contributes count and end-to-end latency.
	sec := c.NewTag(120, 1)
	sec.MarkMerged()
	if !sec.Merged {
		t.Fatal("MarkMerged did not set Merged")
	}
	c.FinishMerged(sec, 190)

	b := c.Breakdown()
	if b.Requests != 2 || b.Merged != 1 || b.RowHits != 1 {
		t.Fatalf("requests/merged/rowhits = %d/%d/%d, want 2/1/1", b.Requests, b.Merged, b.RowHits)
	}
	// Stage sums over both primaries: total = 90 + 30 cycles.
	if b.TotalCycles != 120 {
		t.Fatalf("total attributed cycles = %d, want 120", b.TotalCycles)
	}
	var stageSum uint64
	for _, s := range b.Stages {
		stageSum += s.Cycles
	}
	if stageSum != b.TotalCycles {
		t.Fatalf("stage cycles sum %d != TotalCycles %d", stageSum, b.TotalCycles)
	}
	if b.DRAM.Precharge != 15 || b.DRAM.Activate != 13 || b.DRAM.CAS != 24 {
		t.Fatalf("dram phases = %+v", b.DRAM)
	}
	if len(b.PerCore) != 2 || len(b.PerMC) != 2 || len(b.PerRank) != 4 {
		t.Fatalf("group rows = %d/%d/%d, want 2/2/4", len(b.PerCore), len(b.PerMC), len(b.PerRank))
	}
	if b.PerCore[1].Requests != 1 || b.PerMC[1].Requests != 1 {
		t.Fatalf("per-core/per-MC attribution missed: %+v / %+v", b.PerCore[1], b.PerMC[1])
	}
	if b.PerRank[3].Requests != 1 || b.PerRank[3].Label != "mc1.rank1" {
		t.Fatalf("rank row = %+v, want 1 request at mc1.rank1", b.PerRank[3])
	}
	// Mirrors in the registry: the same values must be scrapeable.
	if v := reg.Counter("attrib.requests").Value(); v != 2 {
		t.Fatalf("attrib.requests = %d, want 2", v)
	}
	if v := reg.Counter("attrib.stage.dram.cycles").Value(); v != 52 {
		t.Fatalf("attrib.stage.dram.cycles = %d, want 52 (40+12)", v)
	}

	tbl := c.Breakdown().Table()
	for _, want := range []string{"2 demand misses (1 merged)", "mshr", "noc", "coherence", "stackhit", "queue", "dram", "retry", "bus", "offchip", "mc1.rank1"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
	if _, err := json.Marshal(b); err != nil {
		t.Fatalf("breakdown must be JSON-marshalable: %v", err)
	}
}

// TestRetryStageTelescopes pins the fault-recovery stage: Retry pushes
// corrected delivery (and thus the burst) later, the delay lands in
// StageRetry alone, and the sum still telescopes to Total.
func TestRetryStageTelescopes(t *testing.T) {
	tag := fullTag()
	tag.Retry(25)     // ECC retry after first delivery at 170
	tag.BurstAt = 200 // burst follows corrected delivery at 195
	tag.DoneAt = 215  // fill 25 cycles later than the clean run
	st := tag.Stages()
	want := [NumStages]sim.Cycle{10, 0, 0, 0, 20, 40, 25, 20, 0}
	if st != want {
		t.Fatalf("stages = %v, want %v", st, want)
	}
	if st[StageRetry] != 25 {
		t.Fatalf("retry stage = %d, want 25", st[StageRetry])
	}
	var sum sim.Cycle
	for _, s := range st {
		sum += s
	}
	if sum != tag.Total() {
		t.Fatalf("stage sum %d != total %d", sum, tag.Total())
	}
	// Retry on a nil tag and non-positive extras are no-ops.
	var nilTag *Tag
	nilTag.Retry(10)
	before := tag.DataAt
	tag.Retry(0)
	tag.Retry(-5)
	if tag.DataAt != before {
		t.Fatal("non-positive Retry must not move DataAt")
	}
}

// TestStackStagesTelescope pins the stack-cache stages across the
// two request shapes the layer produces, and a full stacked chain
// followed by a stack miss.
func TestStackStagesTelescope(t *testing.T) {
	sum := func(st [NumStages]sim.Cycle) sim.Cycle {
		var s sim.Cycle
		for _, v := range st {
			s += v
		}
		return s
	}

	// Hit: probe at 104, tag latency + MRQ wait until
	// acceptance at 110, then the usual stacked access.
	hit := fullTag()
	hit.Probe(104)
	st := hit.Stages()
	want := [NumStages]sim.Cycle{4, 0, 0, 6, 20, 40, 0, 20, 0}
	if st != want {
		t.Fatalf("sram-hit stages = %v, want %v", st, want)
	}
	if sum(st) != hit.Total() {
		t.Fatalf("sram-hit sum %d != total %d", sum(st), hit.Total())
	}

	// Miss: the request never visits a stacked MC —
	// queue/dram/bus collapse into the miss decision, and everything
	// after it is the off-chip stage.
	miss := &Tag{MissAt: 100, ProbeAt: 104, StackAt: 108, DoneAt: 300}
	st = miss.Stages()
	want = [NumStages]sim.Cycle{4, 0, 0, 4, 0, 0, 0, 0, 192}
	if st != want {
		t.Fatalf("sram-miss stages = %v, want %v", st, want)
	}
	if sum(st) != miss.Total() {
		t.Fatalf("sram-miss sum %d != total %d", sum(st), miss.Total())
	}

	// Full chain, then a miss: every stacked checkpoint is stamped
	// before StackResolve, and the backing round trip follows. The layer
	// probes its tags before any stacked access, so it never sends this
	// shape, but Tag.Stages still has to telescope it.
	dmiss := fullTag()
	dmiss.Probe(100)
	dmiss.StackResolve(190)
	dmiss.DoneAt = 400
	st = dmiss.Stages()
	want = [NumStages]sim.Cycle{0, 0, 0, 10, 20, 40, 0, 20, 210}
	if st != want {
		t.Fatalf("full-chain-miss stages = %v, want %v", st, want)
	}
	if sum(st) != dmiss.Total() {
		t.Fatalf("full-chain-miss sum %d != total %d", sum(st), dmiss.Total())
	}
}

// TestCoherentStagesTelescope pins the directory-coherence stages for
// the two response shapes the protocol produces: a home-directory
// memory access and a cache-to-cache forward that never touches DRAM.
func TestCoherentStagesTelescope(t *testing.T) {
	sum := func(st [NumStages]sim.Cycle) sim.Cycle {
		var s sim.Cycle
		for _, v := range st {
			s += v
		}
		return s
	}

	// Memory path: inject 106, reach directory 118, MRQ accept 125,
	// schedule 130, data 160, response injected 170, fill 185. The noc
	// stage is the split interval (12 out + 15 back), coherence is the
	// directory's 118→125 handling, and bus absorbs the burst plus the
	// directory's response turnaround (160→170).
	mem := &Tag{MissAt: 100}
	mem.Inject(106)
	mem.NocArrive(118)
	mem.EnterQueue(125, 0)
	mem.Sched(130, 1)
	mem.Data(160, false)
	mem.RespInject(170)
	mem.DoneAt = 185
	st := mem.Stages()
	want := [NumStages]sim.Cycle{6, 27, 7, 0, 5, 30, 0, 10, 0}
	if st != want {
		t.Fatalf("memory-path stages = %v, want %v", st, want)
	}
	if sum(st) != mem.Total() {
		t.Fatalf("memory-path sum %d != total %d", sum(st), mem.Total())
	}

	// Cache-to-cache: the owner injects the response; the whole
	// directory+forward+owner path lands in coherence, and DRAM stages
	// stay zero.
	c2c := &Tag{MissAt: 100}
	c2c.Inject(104)
	c2c.NocArrive(112)
	c2c.RespInject(140)
	c2c.DoneAt = 150
	st = c2c.Stages()
	want = [NumStages]sim.Cycle{4, 18, 28, 0, 0, 0, 0, 0, 0}
	if st != want {
		t.Fatalf("cache-to-cache stages = %v, want %v", st, want)
	}
	if sum(st) != c2c.Total() {
		t.Fatalf("cache-to-cache sum %d != total %d", sum(st), c2c.Total())
	}
}

func TestStageString(t *testing.T) {
	want := []string{"mshr", "noc", "coherence", "stackhit", "queue", "dram", "retry", "bus", "offchip"}
	for st := Stage(0); st < NumStages; st++ {
		if st.String() != want[st] {
			t.Fatalf("stage %d = %q, want %q", int(st), st.String(), want[st])
		}
	}
	if s := Stage(11).String(); s != "stage(11)" {
		t.Fatalf("out-of-range stage = %q", s)
	}
}

// TestTagPoolReuseAndDoubleFinishPanics pins the pooled tag lifecycle:
// a finished tag returns to the collector's free list and is reused
// fully reset, and finishing the same tag twice panics rather than
// silently corrupting two future misses' accounting.
func TestTagPoolReuseAndDoubleFinishPanics(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCollector(reg, 2, 2, 2)
	tag := c.NewTag(10, 1)
	tag.Probe(12)
	tag.RowHit = true
	c.Finish(tag, 40)

	reused := c.NewTag(50, 0)
	if reused != tag {
		t.Fatal("NewTag after Finish did not reuse the pooled tag")
	}
	if reused.MissAt != 50 || reused.Core != 0 || reused.RowHit || reused.ProbeAt != 0 {
		t.Fatalf("recycled tag not reset: %+v", reused)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("double Finish did not panic")
		}
	}()
	c.FinishMerged(reused, 60)
	c.Finish(reused, 70)
}

// TestTagPoolHandsOutFinishedFirst pins the tag pool on its slabs: the
// tags a finish returned go out again before any fresh one, and a
// double finish still panics.
func TestTagPoolHandsOutFinishedFirst(t *testing.T) {
	c := NewCollector(telemetry.NewRegistry(), 1, 1, 1)
	tags := make([]*Tag, 8)
	for i := range tags {
		tags[i] = c.NewTag(sim.Cycle(i), 0)
	}
	for _, tag := range tags[:3] {
		c.Finish(tag, 100)
	}
	for i := range 3 {
		if tag := c.NewTag(200, 0); !slices.Contains(tags[:3], tag) || tag.MissAt != 200 {
			t.Fatalf("NewTag %d with 3 finished returned %p %+v, not one of them reset", i, tag, *tag)
		}
	}
	if tag := c.NewTag(300, 0); slices.Contains(tags, tag) {
		t.Fatalf("NewTag with none finished returned the live %p", tag)
	}
	c.Finish(tags[5], 400)
	defer func() {
		if recover() == nil {
			t.Fatal("double Finish did not panic")
		}
	}()
	c.Finish(tags[5], 500)
}
