package core

import (
	"testing"

	"stackedsim/internal/config"
	"stackedsim/internal/workload"
)

// FuzzManyCoreDrains runs the directory/mesh machine in a fuzzed shape —
// one shared-data generator or mcf on every core, a seed, 4 or 16 cores,
// 1, 2 or 4 MCs — for 20,000 cycles, then halts the cores and
// requires every request to drain and every part to balance. A protocol
// that strands a request (a deferred queue nobody replays, a sleeper
// nobody wakes) fails the drain.
func FuzzManyCoreDrains(f *testing.F) {
	benches := []string{"mcf"}
	for _, s := range workload.SharedSpecs {
		benches = append(benches, s.Name)
	}
	for bench := range benches {
		f.Add(uint8(bench), int64(bench+1), true, uint8(bench%3))
	}
	f.Add(uint8(1), int64(7), false, uint8(0))
	f.Add(uint8(2), int64(3), false, uint8(2))
	f.Fuzz(func(t *testing.T, bench uint8, seed int64, many bool, mcs uint8) {
		cores := 4
		if many {
			cores = 16
		}
		cfg := config.ManyCore(cores, 1<<(mcs%3))
		cfg.Seed = seed
		cfg.WarmupCycles, cfg.MeasureCycles = 0, 20_000
		progs := make([]string, cores)
		for i := range progs {
			progs[i] = benches[int(bench)%len(benches)]
		}
		sys, err := NewSystem(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run()
		if !sys.DrainQuiesce(500_000) {
			t.Fatalf("%s %s seed %d: %d requests still in flight after the drain", cfg.Name, progs[0], seed, sys.inFlight())
		}
		if err := sys.CheckInvariants(); err != nil {
			t.Fatalf("%s %s seed %d: %v", cfg.Name, progs[0], seed, err)
		}
	})
}
