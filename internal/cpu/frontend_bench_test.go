package cpu_test

import (
	"testing"

	"stackedsim/internal/cache"
	"stackedsim/internal/config"
	"stackedsim/internal/cpu"
	"stackedsim/internal/mem"
	"stackedsim/internal/sim"
	"stackedsim/internal/tlb"
	"stackedsim/internal/workload"
)

// BenchmarkCoreFrontEnd times the core's own per-μop work: one core with
// Table 1's IL1, DL1 (prefetchers on) and TLBs, over a port that answers
// every miss on the cycle it was sent, running namd, whose memory μops
// are 28 % of its stream and nearly all hit its L1-resident hot ring.
// So the core dispatches, issues and commits close to its width on every
// cycle, and what a cycle costs is mostly the batch, the ROB and the
// fetch, TLB and L1 hit paths. An iteration is 1,000 cycles; it reports
// ns per committed μop.
func BenchmarkCoreFrontEnd(b *testing.B) {
	cfg := config.Baseline2D()
	port := &cpu.InstantPort{}
	ids := &mem.IDSource{}
	newL1 := func(kind string) *cache.L1 {
		return cache.NewL1(cache.L1Params{
			Array:     cache.NewArrayBySize(kind, cfg.L1SizeKB*1024, cfg.L1Ways, cfg.LineBytes),
			Latency:   sim.Cycle(cfg.L1Latency),
			LineBytes: cfg.LineBytes,
			MSHRs:     cfg.L1MSHRs,
			Below:     port,
			IDs:       ids,
			Prefetch:  cfg.L1Prefetch,
		})
	}
	pt := mem.NewPageTable(1<<32, uint64(cfg.PageBytes))
	spec, _ := workload.ByName("namd")
	c := cpu.New(cpu.Params{
		Cfg:    cfg,
		L1:     newL1("dl1"),
		DTLB:   tlb.New(64, 4, pt),
		IL1:    newL1("il1"),
		ITLB:   tlb.New(32, 4, pt),
		Pages:  pt,
		Source: workload.NewGenerator(spec, 1),
	})
	var now sim.Cycle
	run := func(cycles sim.Cycle) {
		for end := now + cycles; now < end; {
			now++
			c.Tick(now)
			port.Pump(now)
		}
	}
	run(10_000) // the caches, TLBs and prefetchers warm, the pools grown
	start, from := now, c.Committed()
	for b.Loop() {
		run(1000)
	}
	committed := c.Committed() - from
	if committed == 0 {
		b.Fatal("the core committed nothing")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(committed), "ns/uop")
	b.ReportMetric(float64(committed)/float64(now-start), "uops/cycle")
}
