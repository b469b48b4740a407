package core

import (
	"testing"

	"stackedsim/internal/config"
	"stackedsim/internal/fault"
	"stackedsim/internal/workload"
)

// TestDigestGoldens pins one machine of every shape the composition
// layer can build — single and banked channels, VBF MSHRs under the
// dynamic resizer, both stack modes, a faulted backing channel and the
// coherent many-core fabric — to the digest it had before System
// started walking its parts through the channel view and the
// second-level seam. The 2D+mrq4 row, added later, is the one whose
// controller refuses shared-L2 reads. Digest word order is the walk order, so a part
// visited out of turn (or twice, or not at all) moves a value here.
// The 64-core rows (a shorter window: they are the slowest machines
// here) are the benchmark's two: the read-mostly one is the only machine
// whose directory banks are link-bound at their injection port, so their
// retry queues run tens deep and the mesh stalls on credits throughout;
// the producer-consumer one drives write sharing over the same mesh.
//
// Each machine is then drained, and must come to rest whole: nothing in
// flight, every part's drained-state check clean, and every pooled
// request handed out back in the pool.
func TestDigestGoldens(t *testing.T) {
	mix := func(name string) []string {
		m, ok := workload.MixByName(name)
		if !ok {
			t.Fatalf("mix %s missing", name)
		}
		return m.Benchmarks[:]
	}
	uniform := func(n int, bench string) []string {
		b := make([]string, n)
		for i := range b {
			b[i] = bench
		}
		return b
	}
	faulted := config.Fast3D().WithStackCache(config.StackCache, 64)
	faulted.Name += "+g"
	faulted.Faults = &fault.Scenario{
		Name: "g",
		Faults: []fault.Spec{
			{Kind: fault.KindBitError, MC: -1, Prob: 0.01, UncorrectablePct: 0.2},
			// View 1 is the backing channel: Fast3D has one stacked MC.
			{Kind: fault.KindTSVDegraded, MC: 1, From: 60_000, Until: 120_000},
			{Kind: fault.KindMSHRParity, Prob: 0.01},
		},
	}
	// A four-entry MRQ, under the eight-entry L2 MSHR file, refuses
	// shared-L2 reads, which then wait in the L2's read outbox.
	mrq4 := config.Baseline2D()
	mrq4.Name += "+mrq4"
	mrq4.MRQTotal = 4
	for _, g := range []struct {
		cfg     *config.Config
		benches []string
		digest  uint64
		faults  uint64
	}{
		{config.Baseline2D(), mix("VH1"), 0x5a2ea57e26925c3e, 0},
		{config.QuadMC(), mix("VH1"), 0x78a73a9f3ab59498, 0},
		{mrq4, mix("VH1"), 0x762e7f326f8ee69d, 0},
		{config.DualMC().WithMSHR(8, config.MSHRVBF, true), mix("H1"), 0xa75d28e9a47b6670, 0},
		{config.Fast3D().WithStackCache(config.StackCache, 64), mix("VH1"), 0x4490a933e86cb418, 0},
		{config.Fast3D().WithStackCache(config.StackMemCache, 64), mix("VH1"), 0xb23e37ea24c2151c, 0},
		{faulted, mix("VH1"), 0x248fdeed27064a5a, 2226},
		{config.ManyCore(16, 4), uniform(16, "producer-consumer"), 0x377dbc1d72e7f3b5, 0},
		{config.ManyCore(64, 4), uniform(64, "read-mostly-shared"), 0x3b191bbd3d8e8b71, 0},
		{config.ManyCore(64, 4), uniform(64, "producer-consumer"), 0x0450c452ae8aa0ca, 0},
	} {
		cfg := short(g.cfg)
		if cfg.Cores == 64 {
			cfg.WarmupCycles, cfg.MeasureCycles = 10_000, 30_000
		}
		t.Run(cfg.Name, func(t *testing.T) {
			sys, err := NewSystem(cfg, g.benches)
			if err != nil {
				t.Fatal(err)
			}
			m := sys.Run()
			if d := sys.Digest(); d != g.digest {
				t.Errorf("digest %016x, golden %016x", d, g.digest)
			}
			if n := m.Faults.Total(); n != g.faults {
				t.Errorf("%d faults injected, golden %d", n, g.faults)
			}
			if g.benches[0] == "read-mostly-shared" && (m.NoC.Rejected < 10_000 || m.NoC.CreditStalls < 100_000) {
				t.Errorf("mesh refused %d sends and stalled %d times on credits: the saturated regime was not reached",
					m.NoC.Rejected, m.NoC.CreditStalls)
			}
			if !sys.DrainQuiesce(2_000_000) {
				t.Fatalf("did not quiesce: %d requests still in flight", sys.inFlight())
			}
			if err := sys.CheckInvariants(); err != nil {
				t.Error(err)
			}
			if rep := sys.EngineReport(); rep.PoolPuts != rep.PoolGets || rep.PoolGets == 0 {
				t.Errorf("request pool: %d handed out, %d returned", rep.PoolGets, rep.PoolPuts)
			}
		})
	}
}
