package core

import (
	"fmt"
	"reflect"
	"testing"

	"stackedsim/internal/cache"
	"stackedsim/internal/config"
	"stackedsim/internal/cpu"
	"stackedsim/internal/fault"
	"stackedsim/internal/mshr"
	"stackedsim/internal/prefetch"
	"stackedsim/internal/sim"
	"stackedsim/internal/workload"
)

// TestTickSchedulingParity pins the second tentpole guarantee: the
// divider-aware / idle-skip tick scheduling is an optimization only.
// Running the same system with SetFullTick(true) — the seed engine's
// tick-everything behavior — must produce bit-identical Metrics,
// bit-identical counters in what a sleeping L2 settles in closed form
// instead of counting (l2Side), and the same counts in the cores
// (coreSide).
//
// Baseline2D stresses the divider-4 FSB domain, QuadMC the multi-MC
// wake logic, the SmartRefresh variant the refresh wake source, Fast3D
// the ratio-1 stacked controllers, the stack-cache variants the
// stacked-layer sleep discipline (SRAM tag events, miss forwarding,
// and the off-chip backing channel in both cache and memcache modes),
// and the 16-core MESI config the coherence fabric's sleep/wake
// discipline (private-L2 inboxes, directory banks, mesh routers); the
// 64-core read-mostly one keeps the directory banks' retry queues deep
// and the mesh short of credits, which no smaller machine does, and the
// 64-core producer-consumer one is the benchmark's write-sharing machine,
// where most of 265 entries sleep until woken at any moment. The
// VH1 runs keep the L2's MSHR banks full, so its set-aside misses wait
// asleep for a fill: as is, under the dynamic resizer (the limit rises
// while heads wait), and with probe-parity faults (each lookup draws
// from the injector's random stream, so that L2 must not sleep on them
// at all).
//
// The midRun rows are also read while they run, the way the monitor
// reads: Collect, Digest and the side state, from a ticker behind every
// component of the machine, on three cycles that are a boundary of
// nothing (the first is three cycles past the warmup reset). A sleeper
// that registers with the engine but forgets to settle shows here, where
// no tick of its own comes to catch it up before the counters are read.
// They also carry an observer: a ticker attached with Observe on a period
// that divides nothing, which reads the side state on each of its ticks
// and never settles anything itself. That is the seam's promise — whoever
// watches through Observe reads settled counters.
func TestTickSchedulingParity(t *testing.T) {
	smart := config.QuadMC()
	smart.SmartRefresh = true
	smart.Name = "3D-4mc-16rank-4rb-smartref"
	dyn := config.DualMC().WithMSHR(8, config.MSHRVBF, true)
	dyn.DynSampleCycles, dyn.DynEpochCycles = 1_500, 4_000
	parity := config.QuadMC()
	parity.Name += "+mshr-parity"
	parity.Faults = &fault.Scenario{Name: "mshr-parity", Faults: []fault.Spec{
		{Kind: fault.KindMSHRParity, Prob: 0.02},
	}}
	for _, tc := range []struct {
		cfg    *config.Config
		mix    string
		midRun bool
	}{
		{config.Baseline2D(), "H1", false},
		{config.QuadMC(), "H1", false},
		{smart, "H1", false},
		{config.Fast3D(), "H1", false},
		{config.Fast3D().WithStackCache(config.StackCache, 64), "H1", false},
		{config.Fast3D().WithStackCache(config.StackMemCache, 64), "H1", false},
		{config.ManyCore(16, 4), "producer-consumer", true},
		{config.ManyCore(64, 4), "read-mostly-shared", false},
		{config.ManyCore(64, 4), "producer-consumer", true},
		{config.QuadMC(), "VH1", true},
		{dyn, "VH1", true},
		{parity, "VH1", false},
	} {
		cfg := tc.cfg
		cfg.WarmupCycles = 5_000
		cfg.MeasureCycles = 20_000
		var benches []string
		if cfg.Coherent() {
			// Every core runs the same shared-data benchmark: the
			// writers give maximal protocol traffic (upgrades,
			// invalidations, forwards, races), the readers a saturated
			// mesh.
			benches = make([]string, cfg.Cores)
			for i := range benches {
				benches[i] = tc.mix
			}
		} else {
			mix, ok := workload.MixByName(tc.mix)
			if !ok {
				t.Fatalf("mix %s missing", tc.mix)
			}
			benches = mix.Benchmarks[:]
		}
		name := cfg.Name + "/" + tc.mix
		run := func(fullTick bool) (Metrics, uint64, []coreSide, l2Side, []string) {
			sys, err := NewSystem(cfg, benches)
			if err != nil {
				t.Fatal(err)
			}
			sys.Engine.SetFullTick(fullTick)
			var mid []string // spelled out on the spot: the histograms move on
			if tc.midRun {
				sys.Engine.Register(sim.TickFunc(func(now sim.Cycle) {
					if now == 5_003 || now == 11_117 || now == 17_501 {
						mid = append(mid, fmt.Sprintf("cycle %d: %+v digest %016x cores %+v L2 %s",
							now, sys.Collect(), sys.Digest(), coreSides(sys), l2Sides(sys)))
					}
				}))
				sys.Observe(1_117, sim.TickFunc(func(now sim.Cycle) {
					mid = append(mid, fmt.Sprintf("observed at %d: cores %+v L2 %s", now, coreSides(sys), l2Sides(sys)))
				}))
			}
			// Whether the resizer finished a training round: it was seen
			// training, then holding a setting.
			trained, settled := false, false
			if r := sys.Resizer; r != nil {
				sys.Engine.Register(sim.TickFunc(func(sim.Cycle) {
					trained = trained || r.Training()
					settled = settled || trained && !r.Training()
				}))
			}
			m := sys.Run()
			if sys.Resizer != nil && !settled {
				t.Fatalf("%s: the resizer never finished a training round; the limit did not move", name)
			}
			return m, sys.Digest(), coreSides(sys), l2Sides(sys), mid
		}
		full, fullDigest, fullSides, fullL2, fullMid := run(true)
		fast, fastDigest, fastSides, fastL2, fastMid := run(false)
		if want := 3 + 25_000/1_117; tc.midRun && len(fullMid) != want {
			t.Fatalf("%s: read %d times mid-run, want %d", name, len(fullMid), want)
		}
		for i := range fullMid {
			if fullMid[i] != fastMid[i] {
				t.Errorf("%s: a reading taken mid-run differs:\nfull-tick: %s\nscheduled: %s", name, fullMid[i], fastMid[i])
			}
		}
		if !reflect.DeepEqual(full, fast) || fullDigest != fastDigest {
			t.Errorf("%s: idle-skip scheduling changed results:\nfull-tick: %016x %+v\nscheduled: %016x %+v",
				name, fullDigest, full, fastDigest, fast)
		}
		for i := range fullSides {
			if !reflect.DeepEqual(fullSides[i], fastSides[i]) {
				t.Errorf("%s core %d: lazily settled counters differ:\nfull-tick: %+v\nscheduled: %+v",
					name, i, fullSides[i], fastSides[i])
			}
		}
		if !reflect.DeepEqual(fullL2, fastL2) {
			t.Errorf("%s L2: lazily settled counters differ:\nfull-tick: %s\nscheduled: %s", name, fullL2, fastL2)
		}
	}
}

// coreSide is what a core counts in itself and its DL1 beyond Metrics.
type coreSide struct {
	CPU      cpu.Stats
	Prefetch prefetch.Stats
}

// coreSides snapshots every core's side state; call it after Run or
// Collect, which settle the lazily counted spans, or from an observer.
func coreSides(s *System) []coreSide {
	out := make([]coreSide, len(s.Cores))
	for i, c := range s.Cores {
		out[i] = coreSide{*c.Stats(), s.L1s[i].PrefetchStats()}
	}
	return out
}

// l2Side is everything the shared L2 counts: its own statistics and
// every MSHR bank's, probe histogram included — what a sleeping L2
// settles for the polls of its set-aside misses. Zero in coherent mode,
// which has no shared L2.
type l2Side struct {
	L2    cache.L2Stats
	MSHRs []mshr.Stats // ProbeCounts is compared through the pointer
}

// String spells the histograms out (%+v would print their addresses).
func (s l2Side) String() string {
	out := fmt.Sprintf("%+v", s.L2)
	for _, st := range s.MSHRs {
		h := *st.ProbeCounts
		st.ProbeCounts = nil
		out += fmt.Sprintf(" mshr %+v probes %+v", st, h)
	}
	return out
}

// l2Sides snapshots the shared L2's side state; like coreSides, call it
// after Run or Collect.
func l2Sides(s *System) l2Side {
	var out l2Side
	if s.L2 == nil {
		return out
	}
	out.L2 = *s.L2.Stats()
	for _, f := range s.L2.MSHRBanks() {
		out.MSHRs = append(out.MSHRs, *f.Stats())
	}
	return out
}

// TestSaturatedCoresDoNotPoll is the efficiency floor under the
// wake-on-free rules: with every core stalled on full MSHRs most of the
// time, and the shared L2's set-aside misses waiting on full MSHR banks,
// the engine must deliver few ticks per cycle. Polling cores alone cost
// 4 ticks/cycle on the 4-core machine (5.2 in all) and 64 (66.7 in all)
// on the 64-core one; a polling L2 one more, on every cycle, on the
// 4-core machine (1.62 in all).
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
		{config.QuadMC(), vh1.Benchmarks[:], 1.3},
		{config.ManyCore(64, 4), sharers, 10},
	} {
		tc.cfg.WarmupCycles = 5_000
		tc.cfg.MeasureCycles = 45_000
		sys, err := NewSystem(tc.cfg, tc.benches)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run()
		cycles := float64(sys.Engine.Now())
		perCycle := float64(sys.Engine.TicksDelivered()) / cycles
		t.Logf("%s: %.2f ticks/cycle", tc.cfg.Name, perCycle)
		if perCycle >= tc.floor {
			t.Errorf("%s: %.2f ticks/cycle, want < %v: stalled components are being ticked", tc.cfg.Name, perCycle, tc.floor)
		}
		if sys.L2 != nil {
			// The shared L2 registers after the cores, DL1s and IL1s.
			l2 := float64(sys.Engine.TicksByComponent()[3*len(sys.Cores)]) / cycles
			t.Logf("%s: L2 %.2f ticks/cycle", tc.cfg.Name, l2)
			if l2 >= 0.5 {
				t.Errorf("%s: the L2 ticks on %.2f of all cycles, want < 0.5: it is polling full MSHR banks", tc.cfg.Name, l2)
			}
		}
	}
}
