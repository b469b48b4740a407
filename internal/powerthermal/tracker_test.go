package powerthermal

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"stackedsim/internal/bus"
	"stackedsim/internal/config"
	"stackedsim/internal/dram"
	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
)

// machine is a hand-built view of cfg's machine: the channels core
// would enter, with ranks and buses nothing drives, and a committed
// count the test advances. work moves their counters the way a window
// of simulation would.
type machine struct {
	Machine
	uops uint64
}

func newMachine(cfg *config.Config) *machine {
	f := &machine{}
	f.Machine = Machine{Cfg: cfg, Committed: func() uint64 { return f.uops }}
	channel := func(name string, b *bus.Bus, ranks, rowBufs int, offChip bool) {
		ch := Channel{Name: name, Bus: b, OffChip: offChip}
		timing := dram.TimingInCycles(cfg.Timing, cfg.CPUMHz)
		for r := 0; r < ranks; r++ {
			ch.Ranks = append(ch.Ranks, dram.NewRank(timing, cfg.BanksPerRank, rowBufs, cfg.RefreshMS, cfg.CPUMHz))
		}
		f.Channels = append(f.Channels, ch)
	}
	for c := 0; c < cfg.MCs; c++ {
		channel(fmt.Sprintf("mc%d", c), bus.New(cfg.BusBytes, cfg.BusDivider, cfg.BusDDR),
			cfg.RanksPerMC(), cfg.RowBufferEntries, false)
	}
	if cfg.StackMode != config.StackMemory {
		channel("backing", bus.New(cfg.BackingBusBytes, cfg.BackingBusDivider, cfg.BackingBusDDR),
			cfg.BackingRanks, 1, true)
	}
	return f
}

// work is one window's activity: n accesses to one bank of every rank
// (one activate for every four), their lines over the channel's bus,
// and 1000 μops committed.
func (f *machine) work(n uint64) {
	f.uops += 1000
	for _, ch := range f.Channels {
		for r, rank := range ch.Ranks {
			st := rank.Banks[r%len(rank.Banks)].Stats()
			st.Accesses += n
			st.Reads += n - n/4
			st.Writes += n / 4
			st.Activates += n / 4
			ch.Bus.Stats().Bytes += 64 * n
		}
	}
}

// run ticks a tracker over cfg's hand-built machine through a warmup
// window, the statistics reset a run makes there, and 40 measured
// windows of 500 cycles.
func run(t *testing.T, cfg *config.Config) (*Tracker, *telemetry.Registry) {
	t.Helper()
	f := newMachine(cfg)
	reg := telemetry.NewRegistry()
	tr := New(f.Machine, reg, 500)
	if tr.Every() != 500 {
		t.Fatalf("window %d, want 500", tr.Every())
	}
	now := sim.Cycle(0)
	for w := 0; w < 10; w++ {
		f.work(8)
		now += 500
		tr.Tick(now)
	}
	// The warmup boundary: the machine zeroes its counters, the tracker
	// restarts its deltas and accumulators.
	for _, ch := range f.Channels {
		ch.Bus.ResetStats()
		for _, rank := range ch.Ranks {
			for _, b := range rank.Banks {
				b.ResetStats()
			}
		}
	}
	tr.ResetStats()
	for w := 0; w < 40; w++ {
		f.work(8)
		now += 500
		tr.Tick(now)
	}
	return tr, reg
}

// TestTracking checks the tracked quantities: the dies warm above
// ambient under load, every temperature stays finite and ordered
// sanely, the reset restarts the accumulators but not the temperatures,
// and the summary serializes.
func TestTracking(t *testing.T) {
	tr, reg := run(t, config.QuadMC())
	s := tr.Summary()
	if s.Windows != 40 || s.WindowCycles != 500 {
		t.Fatalf("%d windows of %d cycles since the reset, want 40 of 500", s.Windows, s.WindowCycles)
	}
	// quadMC is a true-3D 8GB stack: cpu + logic + 8 DRAM dies.
	if len(s.Layers) != 10 {
		t.Fatalf("%d layers, want 10", len(s.Layers))
	}
	if s.Layers[0].Name != "cpu" || s.Layers[1].Name != "dram-logic" {
		t.Fatalf("unexpected layer order: %s, %s", s.Layers[0].Name, s.Layers[1].Name)
	}
	if s.CPUPowerW < 25 {
		t.Fatalf("CPU power %.1fW below the idle floor", s.CPUPowerW)
	}
	if s.DRAMPowerW <= 0 || s.OffChipPowerW != 0 {
		t.Fatalf("stacked run: %.2fW on the stack, %.2fW off-chip", s.DRAMPowerW, s.OffChipPowerW)
	}
	if s.Layers[0].TempC <= AmbientC {
		t.Fatalf("CPU die at %.1fC did not warm above ambient", s.Layers[0].TempC)
	}
	for _, l := range s.Layers {
		if l.PeakC < l.TempC-1e-9 {
			t.Fatalf("layer %s peak %.2fC below current %.2fC", l.Name, l.PeakC, l.TempC)
		}
	}
	if s.MaxDRAMTempC <= 0 || s.MaxDRAMTempC > 200 {
		t.Fatalf("implausible worst-case DRAM temperature %.1fC", s.MaxDRAMTempC)
	}
	// The Section 2.4 claim at this load.
	if !s.WithinLimit || s.LimitExceedances != 0 {
		t.Fatalf("light quadMC load tripped the thermal limit: %+v", s)
	}
	// The sampler's view: the gauges carry what the summary reports.
	if got := reg.Gauge("power.total.w").Value(); got != s.TotalPowerW {
		t.Fatalf("power.total.w gauge %v, summary %v", got, s.TotalPowerW)
	}
	if len(s.Trajectory) != 40 || s.Trajectory[0].Cycle != 5_500 {
		t.Fatalf("trajectory of %d samples from cycle %d, want 40 from 5500 (restarted at the reset)",
			len(s.Trajectory), s.Trajectory[0].Cycle)
	}
	if s.Trajectory[0].TempC[0] <= AmbientC {
		t.Fatal("the reset cooled the dies: temperatures must carry over the warmup boundary")
	}
	if got := len(s.Trajectory[0].TempC); got != len(s.Layers) {
		t.Fatalf("trajectory samples carry %d temps for %d layers", got, len(s.Layers))
	}
	// The summary must serialize (it becomes powerthermal.json), the
	// trajectory last and the monitor's block without it.
	full, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	block, err := json.Marshal(tr.State())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(block), "trajectory") || !strings.HasPrefix(string(full), strings.TrimSuffix(string(block), "}")+`,"trajectory":[`) {
		t.Fatalf("summary is not the state followed by the trajectory:\n%s\n%s", block, full)
	}
}

// TestOffChip2D checks the 2D organization: a CPU-only stack whose
// DRAM heat shows up off-chip.
func TestOffChip2D(t *testing.T) {
	tr, _ := run(t, config.Baseline2D())
	s := tr.State()
	if len(s.Layers) != 1 || s.Layers[0].Name != "cpu" {
		t.Fatalf("2D stack layers: %+v", s.Layers)
	}
	if s.OffChipPowerW <= 0 {
		t.Fatal("2D run dissipated no off-chip DRAM power")
	}
	if s.DRAMPowerW != 0 {
		t.Fatalf("2D run reports %.2fW on-stack DRAM power", s.DRAMPowerW)
	}
	if s.OffChipTempC <= AmbientC {
		t.Fatalf("off-chip DRAM at %.1fC under load", s.OffChipTempC)
	}
	if s.MaxDRAMTempC != s.OffChipTempC {
		t.Fatalf("2D worst-case DRAM %.2fC != off-chip %.2fC", s.MaxDRAMTempC, s.OffChipTempC)
	}
}

// TestReport checks the run-end report carries the per-layer table,
// the bank heatmap under the channels' names, and the trajectory
// sparklines.
func TestReport(t *testing.T) {
	tr, _ := run(t, config.Fast3D().WithStackCache(config.StackMemCache, 64))
	out := tr.Report()
	for _, want := range []string{
		"power/thermal (40 windows of 500 cycles", "cpu", "worst-case DRAM", "per-bank accesses",
		"mc0.rank0", "backing.rank0", "offchip", "temperature trajectory (40 samples",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
