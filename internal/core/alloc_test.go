package core

import (
	"runtime"
	"slices"
	"testing"

	"stackedsim/internal/config"
	"stackedsim/internal/workload"
)

// mallocs counts the heap allocations f makes, with one P so that only
// f's goroutine allocates meanwhile.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// h1Machine returns the 4-core 2D machine running mix H1 at seed 1,
// with a 2k + 8k-cycle window.
func h1Machine(t *testing.T) *System {
	t.Helper()
	cfg := config.Baseline2D()
	cfg.Seed = 1
	cfg.WarmupCycles, cfg.MeasureCycles = 2_000, 8_000
	h1, _ := workload.MixByName("H1")
	sys, err := NewSystem(cfg, h1.Benchmarks[:])
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestMachineAllocations bounds what one short run of a paper figure
// allocates: a machine's bookkeeping comes in slabs (pools, a rank's
// banks and row buffers) and a core's loads share one fill waiter.
// Pools grown a node at a time and a closure per ROB slot make 774
// allocations to build the machine and 379 to run it. On the 64-core
// machine, a miss pool per L1 and per private L2, a waiter slice per
// miss node and memory queues grown by doubling make 3,488 in the run;
// one pool per machine and kind, waiters threaded through the requests
// (or held inline) and queues sized once make 523, and 130 in the 4-core
// run. With the endpoints' inboxes and retry queues, the outboxes and the
// private L2s' hits as lists threaded through the messages and requests,
// and the bounded queues sized when built, the runs make 100 and 176
// (the bounds allow a fifth and a quarter more). What the 64-core run
// still allocates is pool slabs, page-table leaves, the directory
// tables' doubling and the controllers' completion heaps.
func TestMachineAllocations(t *testing.T) {
	h1Machine(t) // the first build in a process also fills package-level tables
	var sys *System
	if n := mallocs(func() { sys = h1Machine(t) }); n > 450 {
		t.Errorf("building a 4-core 2D machine made %d allocations, want at most 450", n)
	}
	if n := mallocs(func() { sys.Run() }); n > 120 {
		t.Errorf("a 2k + 8k-cycle run made %d allocations, want at most 120", n)
	}

	// The 64-core directory machine, read-mostly: each core's DL1, IL1
	// and private L2 would grow miss bookkeeping of its own if they did
	// not draw from one pool per machine.
	cfg := config.ManyCore(64, 4)
	cfg.Seed = 1
	cfg.WarmupCycles, cfg.MeasureCycles = 10_000, 40_000
	many, err := NewSystem(cfg, slices.Repeat([]string{"read-mostly-shared"}, 64))
	if err != nil {
		t.Fatal(err)
	}
	if n := mallocs(func() { many.Run() }); n > 220 {
		t.Errorf("a 64-core 10k + 40k-cycle run made %d allocations, want at most 220", n)
	}
}

// BenchmarkNewSystem measures building the machines every figure and
// the many-core study start from: the 4-core 2D machine of Figure 4,
// and the 64-core directory machine.
func BenchmarkNewSystem(b *testing.B) {
	h1, _ := workload.MixByName("H1")
	machines := []struct {
		name    string
		cfg     *config.Config
		benches []string
	}{
		{"2D-H1", config.Baseline2D(), h1.Benchmarks[:]},
		{"manycore64", config.ManyCore(64, 4), slices.Repeat([]string{"read-mostly-shared"}, 64)},
	}
	for _, m := range machines {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := NewSystem(m.cfg, m.benches); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
