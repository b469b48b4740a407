package cpu

import (
	"testing"

	"stackedsim/internal/cache"
	"stackedsim/internal/config"
	"stackedsim/internal/mem"
	"stackedsim/internal/tlb"
)

// BenchmarkLoadHit times what a load that hits in both the DTLB and the
// DL1 costs the core's issue path: the DTLB hit, which answers the
// physical address from its entry, then the DL1 tag hit, which reads the
// line's prefetch mark from the way its scan found (and trains the
// prefetchers). The DL1 has Table 1's geometry, prefetchers on; the line
// was brought in by a next-line prefetch, so the first hit counts it
// useful and every later one finds the mark gone.
func BenchmarkLoadHit(b *testing.B) {
	cfg := config.Baseline2D()
	port := &instantPort{}
	l1 := cache.NewL1(cache.L1Params{
		Array:     cache.NewArrayBySize("dl1", cfg.L1SizeKB*1024, cfg.L1Ways, cfg.LineBytes),
		LineBytes: cfg.LineBytes,
		MSHRs:     cfg.L1MSHRs,
		Below:     port,
		IDs:       &mem.IDSource{},
		Prefetch:  true,
	})
	pt := mem.NewPageTable(1<<32, uint64(cfg.PageBytes))
	dt := tlb.New(64, 4, pt)
	v := mem.CoreSpace(0, 0x12340)
	dt.Access(v) // the walk
	paddr, _ := dt.Access(v)
	// A demand miss on the line before brings this one in by prefetch.
	l1.Access(0, 1, paddr-mem.Addr(cfg.LineBytes), false, cache.Waiter{})
	port.pump(1)
	const pc = 2
	for b.Loop() {
		p, hit := dt.Access(v)
		if !hit || l1.Access(3, pc, p, false, cache.Waiter{}) != cache.Hit {
			b.Fatal("load missed")
		}
	}
	if n := l1.PrefetchStats().Useful; n != 1 {
		b.Fatalf("prefetch counted useful %d times, want once", n)
	}
}
