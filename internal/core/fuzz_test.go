package core

import (
	"testing"

	"stackedsim/internal/config"
	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
	"stackedsim/internal/workload"
)

// FuzzManyCoreDrains runs the directory/mesh machine in a fuzzed shape —
// one shared-data generator or mcf on every core, a seed, 4 or 16 cores,
// 1, 2 or 4 MCs, the default private L2s or 16 KB ones — for 20,000
// cycles, then halts the cores and requires every request to drain and
// every part to balance. A protocol that strands a request (a deferred
// queue nobody replays, a sleeper nobody wakes) fails the drain. The
// small private L2s evict owned lines within the window, so their seeds
// reach the directory's PutM paths: the acknowledgement and, with
// read-mostly-shared on 16 cores, the writeback race.
func FuzzManyCoreDrains(f *testing.F) {
	benches := []string{"mcf"}
	for _, s := range workload.SharedSpecs {
		benches = append(benches, s.Name)
	}
	for bench := range benches {
		f.Add(uint8(bench), int64(bench+1), true, uint8(bench%3), false)
	}
	f.Add(uint8(1), int64(7), false, uint8(0), false)
	f.Add(uint8(2), int64(3), false, uint8(2), false)
	f.Add(uint8(0), int64(1), false, uint8(0), true) // mcf
	f.Add(uint8(1), int64(2), false, uint8(2), true) // producer-consumer
	f.Add(uint8(3), int64(4), true, uint8(1), true)  // read-mostly-shared
	f.Add(uint8(3), int64(4), true, uint8(2), true)
	f.Fuzz(func(t *testing.T, bench uint8, seed int64, many bool, mcs uint8, smallL2 bool) {
		cores := 4
		if many {
			cores = 16
		}
		cfg := config.ManyCore(cores, 1<<(mcs%3))
		if smallL2 {
			cfg.PrivL2KB = 16
		}
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
			t.Fatalf("%s %s seed %d: %d requests still in flight after the drain:\n%v", cfg.Name, progs[0], seed, sys.inFlight(), sys.CheckInvariants())
		}
		if err := sys.CheckInvariants(); err != nil {
			t.Fatalf("%s %s seed %d: %v", cfg.Name, progs[0], seed, err)
		}
	})
}

// TestDirTransientGauge reads coherence.dir_transient, the directory
// lines in flight across the banks, on a 16-core MESI machine: above
// zero while the producers and consumers run, zero once the machine has
// drained.
func TestDirTransientGauge(t *testing.T) {
	cfg := config.ManyCore(16, 4)
	cfg.WarmupCycles, cfg.MeasureCycles = 0, 20_000
	progs := make([]string, cfg.Cores)
	for i := range progs {
		progs[i] = "producer-consumer"
	}
	sys, err := NewSystem(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sys.Coh.Instrument(reg)
	g := reg.Gauge("coherence.dir_transient")
	peak := 0.0
	sys.Observe(97, sim.TickFunc(func(sim.Cycle) { peak = max(peak, g.Value()) }))
	sys.Run()
	if peak == 0 {
		t.Fatal("no directory line was in flight at any reading mid-run")
	}
	if !sys.DrainQuiesce(500_000) {
		t.Fatalf("%d requests still in flight after the drain", sys.inFlight())
	}
	if v := g.Value(); v != 0 {
		t.Fatalf("coherence.dir_transient = %v after the drain, want 0", v)
	}
}
