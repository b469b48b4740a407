package core

import (
	"reflect"
	"slices"
	"testing"

	"stackedsim/internal/config"
	"stackedsim/internal/cpu"
	"stackedsim/internal/workload"
)

// nextOnly hides a source's Batch, so the core reaches it through
// cpu.New's one-μop adapter, a Next per dispatched μop.
type nextOnly struct{ src cpu.UOpSource }

func (n nextOnly) Next() cpu.UOp { return n.src.Next() }

// TestBatchedSupplyParity pins that how a core pulls its μops is not
// simulated: the same Generators feed a machine identically whether the
// cores take them a batch at a time or, behind a Next-only wrapper, one
// by one. The benchmark's traced runs wrap every source that way and
// require the untraced run's digest, so the two must agree bit for bit.
// The machines are the 4-core 2D one on H1, quadMC on VH1, and a
// 16-core MESI machine on read-mostly-shared.
func TestBatchedSupplyParity(t *testing.T) {
	mix := func(name string) []string {
		m, ok := workload.MixByName(name)
		if !ok {
			t.Fatalf("mix %s missing", name)
		}
		return m.Benchmarks[:]
	}
	for _, c := range []struct {
		cfg     *config.Config
		benches []string
	}{
		{config.Baseline2D(), mix("H1")},
		{config.QuadMC(), mix("VH1")},
		{config.ManyCore(16, 4), slices.Repeat([]string{"read-mostly-shared"}, 16)},
	} {
		cfg := short(c.cfg)
		t.Run(cfg.Name, func(t *testing.T) {
			run := func(wrap bool) (Metrics, uint64) {
				sources := make([]cpu.UOpSource, len(c.benches))
				for i, name := range c.benches {
					spec, ok := workload.ByName(name)
					if !ok {
						t.Fatalf("benchmark %s missing", name)
					}
					// NewSystem's seeding, so the batched run is the
					// machine every other test builds.
					g := workload.NewGenerator(spec, cfg.Seed+int64(i)*7919)
					sources[i] = g
					if wrap {
						sources[i] = nextOnly{g}
					}
				}
				sys, err := NewSystemFromSources(cfg, sources, c.benches)
				if err != nil {
					t.Fatal(err)
				}
				m := sys.Run()
				return m, sys.Digest()
			}
			batched, batchedDigest := run(false)
			single, singleDigest := run(true)
			if batchedDigest != singleDigest {
				t.Errorf("digest %016x batched, %016x one μop at a time", batchedDigest, singleDigest)
			}
			if !reflect.DeepEqual(batched, single) {
				t.Errorf("metrics differ:\nbatched %+v\nsingle  %+v", batched, single)
			}
		})
	}
}
