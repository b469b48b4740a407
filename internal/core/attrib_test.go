package core

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"stackedsim/internal/attrib"
	"stackedsim/internal/config"
	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
)

// attribRun builds a system over the given config, attaches an
// attribution collector (optionally with a per-tag check, and drawing
// into tr's trace when tr is non-nil), runs a short window, and returns
// the metrics plus the collector.
func attribRun(t *testing.T, cfg *config.Config, check func(*attrib.Tag), tr *telemetry.Tracer) (Metrics, *attrib.Collector) {
	t.Helper()
	cfg.WarmupCycles = 5_000
	cfg.MeasureCycles = 20_000
	benches := []string{"S.all", "mcf", "S.copy", "milc"}
	if cfg.Coherent() {
		// Coherent machines run a shared-data benchmark on every core
		// so the noc and coherence stages carry real traffic.
		benches = make([]string, cfg.Cores)
		for i := range benches {
			benches[i] = "producer-consumer"
		}
	}
	sys, err := NewSystem(cfg, benches)
	if err != nil {
		t.Fatal(err)
	}
	sys.tracer = tr
	col := sys.NewAttribCollector(telemetry.NewRegistry())
	col.Check = check
	sys.AttachAttrib(col)
	return sys.Run(), col
}

// TestAttributionConservation pins the tentpole invariant on live
// traffic: for every finished primary miss, across organizations with
// very different pipelines (off-chip FSB, on-stack single MC, four
// banked MCs, the directory/mesh machine, a stack cache), the stage
// durations sum exactly to the end-to-end latency. No cycle may be
// double-counted or dropped. The Chrome trace drawn from the same tags
// must tile each sampled miss exactly as its stages do.
func TestAttributionConservation(t *testing.T) {
	configs := []*config.Config{config.Baseline2D(), config.Fast3D(), config.QuadMC(), config.ManyCore(16, 4), stackConfigs()[0]}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			finished := 0
			tr := telemetry.NewTracer(8)
			sampled := map[uint64][attrib.NumStages]sim.Cycle{}
			_, col := attribRun(t, cfg, func(tag *attrib.Tag) {
				if tag.TraceID != 0 {
					sampled[tag.TraceID] = tag.Stages()
				}
				finished++
				st := tag.Stages()
				var sum sim.Cycle
				for _, s := range st {
					sum += s
				}
				if sum != tag.Total() {
					t.Fatalf("miss #%d (core %d, mc %d): stages %v sum to %d, total is %d",
						finished, tag.Core, tag.MC, st, sum, tag.Total())
				}
				if tag.Total() <= 0 {
					t.Fatalf("miss #%d finished with non-positive latency %d", finished, tag.Total())
				}
				for i, s := range st {
					if s < 0 {
						t.Fatalf("miss #%d: negative stage %v = %d", finished, attrib.Stage(i), s)
					}
				}
			}, tr)
			if finished == 0 {
				t.Fatal("no demand misses finished — attribution is not wired")
			}
			checkTraceTiles(t, tr, sampled)
			b := col.Breakdown()
			if b.Requests != uint64(finished) {
				t.Fatalf("breakdown counts %d requests, Check saw %d", b.Requests, finished)
			}
			// The aggregate must conserve too: summed stage counters equal
			// the summed end-to-end latencies (mean × count, exactly —
			// both sides are integer cycle sums).
			var stageSum uint64
			for _, s := range b.Stages {
				stageSum += s.Cycles
			}
			if stageSum != b.TotalCycles {
				t.Fatalf("stage sums %d != TotalCycles %d", stageSum, b.TotalCycles)
			}
		})
	}
}

// checkTraceTiles holds a trace to the tags it was drawn from: every
// sampled primary (its stages by TraceID) has an l2.miss span whose
// stage spans, on the same lane and in time order, tile it end to end
// and sum per stage to the tag's decomposition; and no thread holds two
// overlapping spans of one name.
func checkTraceTiles(t *testing.T, tr *telemetry.Tracer, sampled map[uint64][attrib.NumStages]sim.Cycle) {
	t.Helper()
	if len(sampled) == 0 || tr.Dropped() != 0 {
		t.Fatalf("%d sampled misses finished, %d trace events dropped", len(sampled), tr.Dropped())
	}
	var buf strings.Builder
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name     string
			Ph       string
			Pid, Tid int
			TS       sim.Cycle `json:"ts"`
			Dur      sim.Cycle `json:"dur"`
			Args     struct{ Miss uint64 }
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatal(err)
	}
	stageOf := map[string]attrib.Stage{}
	for s := attrib.Stage(0); s < attrib.NumStages; s++ {
		stageOf[s.String()] = s
	}
	type lane struct{ pid, tid int }
	type span struct {
		lane       lane
		name       string
		start, end sim.Cycle
	}
	misses := map[uint64]span{}
	segs := map[uint64][]span{}
	byName := map[span][]span{} // keyed by lane and name only
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		s := span{lane{e.Pid, e.Tid}, e.Name, e.TS, e.TS + e.Dur}
		byName[span{lane: s.lane, name: s.name}] = append(byName[span{lane: s.lane, name: s.name}], s)
		if e.Name == "l2.miss" {
			misses[e.Args.Miss] = s
		} else if _, ok := stageOf[e.Name]; ok {
			segs[e.Args.Miss] = append(segs[e.Args.Miss], s)
		}
	}
	for id, want := range sampled {
		m, ok := misses[id]
		if !ok {
			t.Fatalf("sampled miss %d has no l2.miss span", id)
		}
		sort.Slice(segs[id], func(i, j int) bool { return segs[id][i].start < segs[id][j].start })
		at, got := m.start, [attrib.NumStages]sim.Cycle{}
		for _, s := range segs[id] {
			if s.lane != m.lane || s.start != at {
				t.Fatalf("miss %d: %s span %d–%d on %v does not continue its l2.miss on %v at %d", id, s.name, s.start, s.end, s.lane, m.lane, at)
			}
			got[stageOf[s.name]] += s.end - s.start
			at = s.end
		}
		if at != m.end || got != want {
			t.Fatalf("miss %d: stage spans end at %d and sum to %v; l2.miss ends at %d, stages are %v", id, at, got, m.end, want)
		}
	}
	for k, ss := range byName {
		sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
		for i := 1; i < len(ss); i++ {
			if ss[i].start < ss[i-1].end {
				t.Fatalf("thread %v holds overlapping %q spans %d–%d and %d–%d", k.lane, k.name, ss[i-1].start, ss[i-1].end, ss[i].start, ss[i].end)
			}
		}
	}
}

// TestAttributionBreakdownCoverage checks the per-core/per-MC/per-rank
// fan-out on the quad-MC machine: every row present, group totals
// consistent with the global ones.
func TestAttributionBreakdownCoverage(t *testing.T) {
	_, col := attribRun(t, config.QuadMC(), nil, nil)
	b := col.Breakdown()
	if len(b.PerCore) != 4 || len(b.PerMC) != 4 || len(b.PerRank) != 16 {
		t.Fatalf("group rows = %d cores / %d MCs / %d ranks, want 4/4/16",
			len(b.PerCore), len(b.PerMC), len(b.PerRank))
	}
	var coreReqs, mcReqs uint64
	for _, r := range b.PerCore {
		coreReqs += r.Requests
	}
	for _, r := range b.PerMC {
		mcReqs += r.Requests
	}
	if coreReqs != b.Requests {
		t.Fatalf("per-core requests sum %d != total %d", coreReqs, b.Requests)
	}
	// Every finished primary entered exactly one MC on this machine (no
	// set-aside path should dominate a 25k-cycle window).
	if mcReqs == 0 || mcReqs > b.Requests {
		t.Fatalf("per-MC requests sum %d vs total %d", mcReqs, b.Requests)
	}
	// DRAM phase cycles live inside the DRAM stage.
	phases := b.DRAM.WriteRecovery + b.DRAM.Precharge + b.DRAM.Activate + b.DRAM.CAS
	var dramStage uint64
	for _, s := range b.Stages {
		if s.Stage == "dram" {
			dramStage = s.Cycles
		}
	}
	if phases == 0 || phases > dramStage {
		t.Fatalf("dram phases %d exceed dram stage %d", phases, dramStage)
	}
}

// TestAttributionDoesNotPerturbSimulation pins the acceptance
// criterion: attribution observes, never participates — results with it
// attached are bit-identical to results without.
func TestAttributionDoesNotPerturbSimulation(t *testing.T) {
	for _, mk := range []func() *config.Config{config.Baseline2D, config.QuadMC} {
		cfg := mk()
		cfg.WarmupCycles = 5_000
		cfg.MeasureCycles = 20_000
		plain, err := NewSystem(cfg, []string{"S.all", "mcf", "S.copy", "milc"})
		if err != nil {
			t.Fatal(err)
		}
		base := plain.Run()

		instr, col := attribRun(t, mk(), nil, nil)
		if col.Breakdown().Requests == 0 {
			t.Fatalf("%s: attribution recorded nothing", cfg.Name)
		}
		if base.HMIPC != instr.HMIPC {
			t.Fatalf("%s: attribution changed HMIPC: %v vs %v", cfg.Name, base.HMIPC, instr.HMIPC)
		}
		for i := range base.IPC {
			if base.IPC[i] != instr.IPC[i] {
				t.Fatalf("%s: attribution changed core %d IPC: %v vs %v", cfg.Name, i, base.IPC[i], instr.IPC[i])
			}
		}
		if base.DRAMReads != instr.DRAMReads || base.DRAMWrites != instr.DRAMWrites {
			t.Fatalf("%s: attribution changed DRAM traffic: %d/%d vs %d/%d",
				cfg.Name, base.DRAMReads, base.DRAMWrites, instr.DRAMReads, instr.DRAMWrites)
		}
		if base.RowHitRate != instr.RowHitRate {
			t.Fatalf("%s: attribution changed row-hit rate: %v vs %v", cfg.Name, base.RowHitRate, instr.RowHitRate)
		}
	}
}
