package core

import (
	"reflect"
	"testing"

	"stackedsim/internal/attrib"
	"stackedsim/internal/config"
	"stackedsim/internal/sim"
)

// stackRun builds and runs a short mix, returning metrics and digest.
func stackRun(t *testing.T, cfg *config.Config) (Metrics, uint64) {
	t.Helper()
	sys, err := NewSystem(cfg, []string{"mcf", "milc"})
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Run()
	return m, sys.Digest()
}

// TestStackMemoryParity pins the acceptance criterion: a config with
// every stack knob populated but StackMode = memory is bit-identical
// to one that never heard of the stack-cache package — the layer and
// its backing channel are absent, not merely idle.
func TestStackMemoryParity(t *testing.T) {
	base := func() *config.Config {
		cfg := config.Fast3D()
		cfg.WarmupCycles = 10_000
		cfg.MeasureCycles = 30_000
		return cfg
	}
	want, wantD := stackRun(t, base())

	cfg := base().WithStackCache(config.StackCache, 64)
	cfg.StackMode = config.StackMemory // knobs set, mode off
	cfg.Name = base().Name
	sys, err := NewSystem(cfg, []string{"mcf", "milc"})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Stack != nil || sys.Backing != nil {
		t.Fatal("memory mode constructed stack-cache components")
	}
	got := sys.Run()
	gotD := sys.Digest()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("memory mode with stack knobs diverged:\n%+v\nvs\n%+v", got, want)
	}
	if gotD != wantD {
		t.Fatalf("digests diverged: %#x vs %#x", gotD, wantD)
	}
}

// stackConfigs enumerates the two stack organizations under test:
// cache and memcache.
func stackConfigs() []*config.Config {
	var out []*config.Config
	for _, mode := range []config.StackMode{config.StackCache, config.StackMemCache} {
		cfg := config.Fast3D().WithStackCache(mode, 8)
		if mode == config.StackMemCache {
			// A small hot region (128 KB = 32 frames) so short test
			// windows drive traffic through both the direct path and
			// the tag path.
			cfg.StackHotFrac = 1.0 / 64
		}
		out = append(out, cfg)
	}
	return out
}

// TestStackDeterminism: a fixed seed replays bit-identically in every
// stack mode (the layer introduces no map-iteration or time
// dependence into the simulation).
func TestStackDeterminism(t *testing.T) {
	for _, cfg := range stackConfigs() {
		cfg.WarmupCycles = 5_000
		cfg.MeasureCycles = 20_000
		t.Run(cfg.Name, func(t *testing.T) {
			m1, d1 := stackRun(t, cfg.Clone())
			m2, d2 := stackRun(t, cfg.Clone())
			if !reflect.DeepEqual(m1, m2) {
				t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", m1, m2)
			}
			if d1 != d2 {
				t.Fatalf("digests diverged: %#x vs %#x", d1, d2)
			}
		})
	}
}

// TestStackAttributionConservation extends the attribution telescope
// to the stack path: with the stackhit and offchip stages in play, the
// seven stage durations still sum exactly to every miss's end-to-end
// latency, and the stack actually exercises both new stages.
func TestStackAttributionConservation(t *testing.T) {
	for _, cfg := range stackConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			finished := 0
			_, col := attribRun(t, cfg, func(tag *attrib.Tag) {
				finished++
				st := tag.Stages()
				var sum sim.Cycle
				for _, s := range st {
					sum += s
				}
				if sum != tag.Total() {
					t.Fatalf("miss #%d: stages %v sum to %d, total is %d",
						finished, st, sum, tag.Total())
				}
				for i, s := range st {
					if s < 0 {
						t.Fatalf("miss #%d: negative stage %v = %d", finished, attrib.Stage(i), s)
					}
				}
			}, nil)
			if finished == 0 {
				t.Fatal("no demand misses finished")
			}
			b := col.Breakdown()
			var stageSum, offchip uint64
			for _, s := range b.Stages {
				stageSum += s.Cycles
				if s.Stage == "offchip" {
					offchip = s.Cycles
				}
			}
			if stageSum != b.TotalCycles {
				t.Fatalf("stage sums %d != TotalCycles %d", stageSum, b.TotalCycles)
			}
			if offchip == 0 {
				t.Fatal("no off-chip cycles attributed — the stack path is not stamping")
			}
		})
	}
}

// TestStackTrafficSanity checks the layer's flows on live traffic:
// tag probes resolve one way or the other, misses fill from the
// backing channel, and the memcache hot region sees direct traffic.
func TestStackTrafficSanity(t *testing.T) {
	for _, cfg := range stackConfigs() {
		cfg.WarmupCycles = 5_000
		cfg.MeasureCycles = 30_000
		t.Run(cfg.Name, func(t *testing.T) {
			m, _ := stackRun(t, cfg)
			if m.Stack.Probes == 0 {
				t.Fatal("no tag probes")
			}
			if m.Stack.Hits+m.Stack.Misses != m.Stack.Probes {
				t.Fatalf("hits %d + misses %d != probes %d",
					m.Stack.Hits, m.Stack.Misses, m.Stack.Probes)
			}
			if m.Stack.Fills == 0 || m.Stack.BackingReads == 0 {
				t.Fatalf("no backing fills (fills=%d reads=%d)", m.Stack.Fills, m.Stack.BackingReads)
			}
			if m.BackingReads == 0 {
				t.Fatal("backing controller served no reads")
			}
			if cfg.StackMode == config.StackMemCache && m.Stack.DirectReads == 0 {
				t.Fatal("memcache hot region saw no direct reads")
			}
			if cfg.StackMode == config.StackCache && (m.Stack.DirectReads != 0 || m.Stack.DirectWrites != 0) {
				t.Fatalf("cache mode produced direct traffic (%d/%d)",
					m.Stack.DirectReads, m.Stack.DirectWrites)
			}
		})
	}
}

// TestStackCacheBackingRefusals pins the stack layer's refusal-and-retry
// path on a live machine: 3D-fast with a 1 MB stack cache filled a line
// at a time, 64 L2 MSHRs and a small L2 above it and a 4-entry MRQ on
// the off-chip channel below, so block fetches, dirty victims and
// forwarded writebacks all find that MRQ full and wait in the layer's
// outboxes. Refusal count and digest are the parent's — recorded when
// those queues were slices drained with q = q[1:] — so the same
// submissions still land on the same cycles.
func TestStackCacheBackingRefusals(t *testing.T) {
	cfg := config.Fast3D().WithMSHR(8, config.MSHRVBF, false).WithStackCache(config.StackCache, 1)
	cfg.StackFillBytes = 64
	cfg.L2SizeKB = 384
	cfg.BackingMRQ = 4
	cfg.WarmupCycles, cfg.MeasureCycles = 20_000, 100_000
	sys, err := NewSystem(cfg, []string{"mcf", "milc", "lbm", "libquantum"})
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Run()
	if m.Stack.BackingWrites == 0 {
		t.Error("no writeback went off chip: only the fetch path was exercised")
	}
	if n := sys.Backing.Stats().Rejected; n != 54120 {
		t.Errorf("the backing MRQ refused %d submissions, the parent's run 54120", n)
	}
	if d := sys.Digest(); d != 0x8270da7e7834df43 {
		t.Errorf("digest %#016x, the parent's %#016x", d, uint64(0x8270da7e7834df43))
	}
}
