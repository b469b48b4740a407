package core

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"stackedsim/internal/cache"
	"stackedsim/internal/config"
	"stackedsim/internal/cpu"
	"stackedsim/internal/tlb"
	"stackedsim/internal/workload"
)

// TestTickSchedulingParity pins the second tentpole guarantee: the
// divider-aware / idle-skip tick scheduling is an optimization only.
// Running the same system with SetFullTick(true) — the seed engine's
// tick-everything behavior — must produce bit-identical Metrics.
//
// Baseline2D stresses the divider-4 FSB domain, QuadMC the multi-MC
// wake logic, the SmartRefresh variant the refresh wake source, Fast3D
// the ratio-1 stacked controllers, the stack-cache variants the
// stacked-layer sleep discipline (SRAM tag events, miss forwarding,
// and the off-chip backing channel in both cache and memcache modes),
// and the 16-core MESI config the coherence fabric's sleep/wake
// discipline (private-L2 inboxes, directory banks, mesh routers).
func TestTickSchedulingParity(t *testing.T) {
	smart := config.QuadMC()
	smart.SmartRefresh = true
	smart.Name = "3D-4mc-16rank-4rb-smartref"
	configs := []*config.Config{
		config.Baseline2D(),
		config.QuadMC(),
		smart,
		config.Fast3D(),
		config.Fast3D().WithStackCache(config.StackCache, 64),
		config.Fast3D().WithStackCache(config.StackMemCache, 64),
		config.ManyCore(16, 4),
	}
	for _, cfg := range configs {
		cfg.WarmupCycles = 5_000
		cfg.MeasureCycles = 20_000
		mix, ok := workload.MixByName("H1")
		if !ok {
			t.Fatal("mix H1 missing")
		}
		benches := mix.Benchmarks[:]
		if cfg.Coherent() {
			// Every core hammers the same shared ring: maximal protocol
			// traffic (upgrades, invalidations, forwards, races) for
			// the scheduling-parity check.
			benches = make([]string, cfg.Cores)
			for i := range benches {
				benches[i] = "producer-consumer"
			}
		}
		run := func(fullTick bool) (Metrics, uint64, []coreSide) {
			sys, err := NewSystem(cfg, benches)
			if err != nil {
				t.Fatal(err)
			}
			sys.Engine.SetFullTick(fullTick)
			m := sys.Run()
			return m, sys.Digest(), coreSides(sys)
		}
		full, fullDigest, fullSides := run(true)
		fast, fastDigest, fastSides := run(false)
		if !reflect.DeepEqual(full, fast) || fullDigest != fastDigest {
			t.Errorf("%s: idle-skip scheduling changed results:\nfull-tick: %016x %+v\nscheduled: %016x %+v",
				cfg.Name, fullDigest, full, fastDigest, fast)
		}
		for i := range fullSides {
			if !reflect.DeepEqual(fullSides[i], fastSides[i]) {
				t.Errorf("%s core %d: lazily settled counters differ:\nfull-tick: %+v\nscheduled: %+v",
					cfg.Name, i, fullSides[i], fastSides[i])
			}
		}
	}
}

// coreSide is everything a core leaves behind in itself, its DL1 and
// its DTLB — the state a sleeping core settles in closed form, which
// Metrics does not read.
type coreSide struct {
	CPU      cpu.Stats
	L1       cache.L1Stats
	Array    cache.ArrayStats
	TLB      tlb.Stats
	TLBOrder []uint64
}

// coreSides snapshots every core's side state; call it after Run or
// Collect, which flush the lazily counted spans.
func coreSides(s *System) []coreSide {
	out := make([]coreSide, len(s.Cores))
	for i, c := range s.Cores {
		out[i] = coreSide{*c.Stats(), *s.L1s[i].Stats(), *s.L1s[i].ArrayStats(),
			*s.TLBs[i].Stats(), s.TLBs[i].ReplacementOrder()}
	}
	return out
}

// TestCheckpointAcrossSkippedRegion pins that checkpoint/resume and the
// idle-skip engine compose: checkpoint boundaries land on exact cycles
// even when the run loop is jumping idle spans, the digest taken at
// such a boundary matches the replayed one, and the final metrics are
// bit-identical to an uninterrupted run. The config and workload are
// chosen so that skipping is actually happening (asserted below) —
// a checkpoint cadence finer than the typical idle span forces many
// boundaries to split spans the engine would otherwise jump whole.
func TestCheckpointAcrossSkippedRegion(t *testing.T) {
	cfg := config.Baseline2D()
	cfg.WarmupCycles = 2_000
	cfg.MeasureCycles = 28_000
	benchmarks := []string{"mcf", "libquantum"}

	uninterrupted, err := NewSystem(cfg, benchmarks)
	if err != nil {
		t.Fatal(err)
	}
	want := uninterrupted.Run()
	if uninterrupted.Engine.CyclesSkipped() == 0 {
		t.Fatal("workload produced no skipped cycles; test exercises nothing")
	}
	wantDigest := uninterrupted.Digest()

	path := filepath.Join(t.TempDir(), "skip.ckpt")
	interrupted, err := NewSystem(cfg, benchmarks)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	interrupted.Engine.Schedule(17_501, cancel)
	if _, err := interrupted.RunCheckpointed(ctx, CheckpointPlan{Every: 1_000, Path: path}); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want Canceled", err)
	}

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewSystemFromCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.RunCheckpointed(context.Background(), CheckpointPlan{Every: 1_000, Path: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resume across skipped regions diverged:\n%+v\nvs\n%+v", got, want)
	}
	if d := resumed.Digest(); d != wantDigest {
		t.Fatalf("resumed digest %#x, uninterrupted %#x", d, wantDigest)
	}
}

// TestSaturatedCoresDoNotPoll is the efficiency floor under the
// wake-on-free rule: with every core stalled on full MSHRs most of the
// time, the engine must deliver few ticks per cycle. Polling cores
// alone cost 4 ticks/cycle on the 4-core machine (5.2 in all) and 64
// (66.7 in all) on the 64-core one.
func TestSaturatedCoresDoNotPoll(t *testing.T) {
	vh1, _ := workload.MixByName("VH1")
	sharers := make([]string, 64)
	for i := range sharers {
		sharers[i] = "producer-consumer"
	}
	for _, tc := range []struct {
		cfg     *config.Config
		benches []string
		floor   float64
	}{
		{config.QuadMC(), vh1.Benchmarks[:], 2.5},
		{config.ManyCore(64, 4), sharers, 10},
	} {
		tc.cfg.WarmupCycles = 5_000
		tc.cfg.MeasureCycles = 45_000
		sys, err := NewSystem(tc.cfg, tc.benches)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run()
		perCycle := float64(sys.Engine.TicksDelivered()) / float64(sys.Engine.Now())
		t.Logf("%s: %.2f ticks/cycle", tc.cfg.Name, perCycle)
		if perCycle >= tc.floor {
			t.Errorf("%s: %.2f ticks/cycle, want < %v: stalled cores are being ticked", tc.cfg.Name, perCycle, tc.floor)
		}
	}
}
