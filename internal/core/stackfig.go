package core

import (
	"fmt"

	"stackedsim/internal/config"
	"stackedsim/internal/workload"
)

// stackCapSweepMB is the working-set sweep of the stack capacity
// figure: footprints from well under to well over the stack capacity.
var stackCapSweepMB = []int{1, 2, 4, 8, 16, 32}

// stackCapStackMB is the stacked-DRAM capacity the cache/memcache
// organizations get in the figure.
const stackCapStackMB = 2

// StackCapacityFigure compares the three uses of a capacity-limited
// die-stacked DRAM (memory / cache / memcache, internal/stackcache) as
// a capacity-stress working set (workload.CapacitySpec) sweeps across
// the stack capacity. The L2 is shrunk to 256KB so the stack, not the
// SRAM hierarchy, serves the working set. Columns: all-off-chip 2D and
// all-stacked 3D IPC bounds, then IPC and stack hit rate for cache and
// memcache modes with a small stack. The crossover: while the
// footprint fits, memcache rides its directly-addressed hot region at
// full 3D speed and beats cache, which pays the tag path on every
// access; once the footprint exceeds capacity, memcache's static hot
// region holds pages that are no hotter than the rest and its IPC
// falls to the 2D bound, while cache keeps adapting and stays above.
func (r *Runner) StackCapacityFigure() (*Figure, error) {
	small := func(c *config.Config, name string) *config.Config {
		d := c.Clone()
		d.L2SizeKB = 256
		d.Name = name
		return d
	}
	offchip := small(config.Baseline2D(), "2D-256K-L2")
	stackmem := small(config.Fast3D(), "3D-256K-L2")
	cacheCfg := small(config.Fast3D(), "3D-256K-L2").WithStackCache(config.StackCache, stackCapStackMB)
	memcCfg := small(config.Fast3D(), "3D-256K-L2").WithStackCache(config.StackMemCache, stackCapStackMB)
	// 256B fills: a fill captures a short sequential run but a miss
	// doesn't drag a whole 4KB page over the narrow backing channel.
	cacheCfg.StackFillBytes = 256
	memcCfg.StackFillBytes = 256

	t := &table{Figure: Figure{
		ID:    "StackCap",
		Title: fmt.Sprintf("Stack capacity sweep: %dMB stack as memory/cache/memcache, 256KB L2", stackCapStackMB),
		Columns: []string{
			"2D IPC", "3D-mem IPC",
			"cache IPC", "cache hit", "memcache IPC", "memcache hit",
		},
		Notes: "(hit = stack tag hit rate; memcache hot-region hits bypass the tags and are not probes)",
	}}
	hit := func(m Metrics) float64 { return m.StackHitRate }
	for _, sz := range stackCapSweepMB {
		bench := fmt.Sprintf("cap%dm", sz)
		w := workload.Single(bench)
		t.row(bench,
			r.runCell(offchip, w, ipc0), r.runCell(stackmem, w, ipc0),
			r.runCell(cacheCfg, w, ipc0), r.runCell(cacheCfg, w, hit),
			r.runCell(memcCfg, w, ipc0), r.runCell(memcCfg, w, hit))
	}
	return t.collect()
}
