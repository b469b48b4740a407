// Package core assembles the complete simulated machine — cores, L1s,
// shared banked L2, MSHR banks, memory controllers and the (optionally
// 3D-stacked) DRAM — from a config.Config, and provides the experiment
// runner used by the paper-reproduction harness.
package core

import (
	"context"
	"fmt"
	"hash/fnv"

	"stackedsim/internal/attrib"
	"stackedsim/internal/bus"
	"stackedsim/internal/cache"
	"stackedsim/internal/coherence"
	"stackedsim/internal/config"
	"stackedsim/internal/cpu"
	"stackedsim/internal/dram"
	"stackedsim/internal/fault"
	"stackedsim/internal/mem"
	"stackedsim/internal/memctrl"
	"stackedsim/internal/mshr"
	"stackedsim/internal/noc"
	"stackedsim/internal/powerthermal"
	"stackedsim/internal/prefetch"
	"stackedsim/internal/sim"
	"stackedsim/internal/stackcache"
	"stackedsim/internal/stats"
	"stackedsim/internal/telemetry"
	"stackedsim/internal/tlb"
	"stackedsim/internal/workload"
)

// System is one fully wired machine executing a multi-programmed mix.
type System struct {
	Cfg    *config.Config
	Engine *sim.Engine

	Cores []*cpu.Core
	L1s   []*cache.L1
	IL1s  []*cache.L1
	// L2 is the shared banked L2 (seed mode). In coherent many-core
	// mode it is nil and Coh — private per-core L2s under directory
	// MESI, connected by a mesh NoC — takes its place. Exactly one of
	// the two is non-nil; seed mode never constructs the fabric, so
	// seed runs stay bit-identical. second is whichever of the two the
	// machine has, for everything that need not know which.
	L2     *cache.L2
	Coh    *coherence.Fabric
	second secondLevel
	// MCs are the stacked memory channels: each controller owns its
	// data bus and ranks (Bus, Ranks).
	MCs   []*memctrl.Controller
	Pages *mem.PageTable
	TLBs  []*tlb.TLB
	ITLBs []*tlb.TLB
	AMap  mem.AddrMap

	// Stack is the die-stacked cache/memcache layer interposed between
	// the L2 and the stacked controllers, and Backing the off-chip
	// channel behind it. Both are nil in StackMemory mode — disabled
	// means absent, keeping that mode bit-identical to the seed
	// simulator.
	Stack   *stackcache.Layer
	Backing *memctrl.Controller
	// channels is every memory channel in walk order: MCs, then
	// Backing when there is one.
	channels []channel
	// machine is the view of the machine the power/thermal package
	// reads (the tracker, and the energy of Collect and the energy
	// gauges): the configuration, channels and committed μops.
	machine powerthermal.Machine

	Resizer *mshr.Resizer
	// resetters are the observers (see Observe) that restart their own
	// accounting when ResetStats zeroes the machine's.
	resetters []interface{ ResetStats() }
	// statsSince is the cycle of the last ResetStats, so poll-driven
	// energy gauges can convert counter state into wall time.
	statsSince sim.Cycle
	// Faults is the compiled fault injector (nil when cfg.Faults is nil
	// or fault-free — the disabled state is bit-identical to the seed
	// simulator).
	Faults *fault.Injector
	// Labels name the per-core μop streams (benchmark names for
	// generator-driven runs, file names for trace replays).
	Labels []string

	// ids is the shared request ID source and object pool.
	ids *mem.IDSource
	// l1Misses is the one miss-node pool of all the machine's L1s.
	l1Misses cache.L1MissPool
	// tracer is AttachTelemetry's, for NewAttribCollector's collectors.
	tracer *telemetry.Tracer
}

// secondLevel is what System asks of the second-level organization
// without knowing which one it is: the shared banked L2 (*cache.L2) or
// the private L2s under a directory and mesh (*coherence.Fabric).
// Construction, the per-core L1 wiring and Collect's
// organization-specific fields are the only places that tell them
// apart.
type secondLevel interface {
	Register(e *sim.Engine)
	Instrument(reg *telemetry.Registry)
	AttachAttrib(col *attrib.Collector)
	ResetStats()
	DemandMissesByCore() []uint64
	DigestWords(emit func(...uint64))
	// InFlight is zero exactly when the level holds no traffic;
	// CheckDrained says what a quiesced level still holds or lost.
	InFlight() int
	CheckDrained() error
}

// channel is one memory channel as the walkers see it: a controller —
// which owns its data bus and ranks — under the names its bus and DRAM
// go by in metrics and reports ("bus0"/"mc0" on the stack, "bus.backing"/
// "backing" behind it). Named field, not embedded: the view must not grow
// the controller's method set (and unused Tick/Submit wrappers with it).
type channel struct {
	mc        *memctrl.Controller
	bus, dram string
}

// NewSystem builds a machine running the named benchmarks, one per core.
// Fewer benchmarks than cores leaves the remaining cores idle (used for
// the single-threaded Table 2a runs).
func NewSystem(cfg *config.Config, benchmarks []string) (*System, error) {
	sources := make([]cpu.UOpSource, len(benchmarks))
	for i, name := range benchmarks {
		spec, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("core: unknown benchmark %q", name)
		}
		sources[i] = workload.NewGenerator(spec, cfg.Seed+int64(i)*7919)
	}
	return NewSystemFromSources(cfg, sources, benchmarks)
}

// NewSystemFromSources builds a machine whose cores execute arbitrary
// μop sources — e.g. trace.Reader replays recorded with cmd/tracegen —
// labeled for reporting.
func NewSystemFromSources(cfg *config.Config, sources []cpu.UOpSource, labels []string) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sources) == 0 || len(sources) > cfg.Cores {
		return nil, fmt.Errorf("core: %d sources for %d cores", len(sources), cfg.Cores)
	}
	if len(labels) != len(sources) {
		return nil, fmt.Errorf("core: %d labels for %d sources", len(labels), len(sources))
	}
	for i, src := range sources {
		if src == nil {
			return nil, fmt.Errorf("core: source %d is nil", i)
		}
	}
	s := &System{
		Cfg:    cfg,
		Engine: sim.NewEngine(),
		Pages:  mem.NewPageTable(uint64(cfg.MemoryGB)<<30, uint64(cfg.PageBytes)),
	}
	s.AMap = mem.AddrMap{
		LineBytes:  cfg.LineBytes,
		PageBytes:  cfg.PageBytes,
		MCs:        cfg.MCs,
		RanksPerMC: cfg.RanksPerMC(),
		Banks:      cfg.BanksPerRank,
	}
	if err := s.AMap.Validate(); err != nil {
		return nil, err
	}

	// Fault injection. An absent or fault-free scenario keeps Faults
	// nil — the fully disabled state, bit-identical to a build that
	// never heard of the fault package (TestDisabledInjectorParity).
	stacked := cfg.StackMode != config.StackMemory
	if cfg.Faults.Active() {
		// One view per channel, bounded by its own rank count; the
		// off-chip backing channel's (index cfg.MCs) follows the stacked
		// ones.
		ranks := make([]int, cfg.MCs, cfg.MCs+1)
		for i := range ranks {
			ranks[i] = cfg.RanksPerMC()
		}
		if stacked {
			ranks = append(ranks, cfg.BackingRanks)
		}
		inj, err := fault.NewInjector(cfg.Faults, cfg.Seed, ranks)
		if err != nil {
			return nil, err
		}
		inj.SetClock(s.Engine.Now)
		s.Faults = inj
	}

	// DRAM + controllers. Every channel completes what it serves: in
	// cache/memcache modes the stack-cache layer (built below) has
	// resolved a request before it reaches a stacked MC.
	complete := func(r *mem.Request, now sim.Cycle) { r.Complete(now) }
	timing := dram.TimingInCycles(cfg.Timing, cfg.CPUMHz)
	for m := 0; m < cfg.MCs; m++ {
		ranks := make([]*dram.Rank, cfg.RanksPerMC())
		for r := range ranks {
			ranks[r] = dram.NewRank(timing, cfg.BanksPerRank, cfg.RowBufferEntries, cfg.RefreshMS, cfg.CPUMHz)
			if cfg.SmartRefresh {
				rowsPerBank := (int64(cfg.MemoryGB) << 30) / int64(cfg.RanksTotal*cfg.BanksPerRank*cfg.PageBytes)
				ranks[r].EnableSmartRefresh(rowsPerBank)
			}
		}
		s.MCs = append(s.MCs, s.newChannel(fmt.Sprintf("bus%d", m), fmt.Sprintf("mc%d", m), memctrl.Params{
			ID:                m,
			AMap:              s.AMap,
			Ranks:             ranks,
			QueueCap:          cfg.MRQPerMC(),
			DataBus:           bus.New(cfg.BusBytes, cfg.BusDivider, cfg.BusDDR),
			Divider:           sim.NewDivider(cfg.BusDivider),
			LineBytes:         cfg.LineBytes,
			CriticalWordFirst: cfg.CriticalWordFirst,
			Respond:           complete,
		}))
	}

	// Shared L2 + MHA. In cache/memcache modes the stack-cache layer
	// and its off-chip backing channel interpose between the two: the
	// L2 submits to the layer's fronts, which route hits over the
	// stacked MCs above and misses over the narrow backing channel.
	ids := &mem.IDSource{}
	s.ids = ids
	ports := make([]cache.Port, len(s.MCs))
	for i, mc := range s.MCs {
		ports[i] = mc
	}
	if stacked {
		btiming := dram.TimingInCycles(cfg.BackingTiming, cfg.CPUMHz)
		branks := make([]*dram.Rank, cfg.BackingRanks)
		for r := range branks {
			// Commodity off-chip DIMMs: single row buffer per bank,
			// 64 ms refresh, no smart-refresh.
			branks[r] = dram.NewRank(btiming, cfg.BanksPerRank, 1, 64, cfg.CPUMHz)
		}
		// The backing channel transfers whole blocks at the fill
		// granularity, so its address map's "line" is the stack block.
		bamap := mem.AddrMap{
			LineBytes:  cfg.StackFillBytes,
			PageBytes:  cfg.PageBytes,
			MCs:        1,
			RanksPerMC: cfg.BackingRanks,
			Banks:      cfg.BanksPerRank,
		}
		if err := bamap.Validate(); err != nil {
			return nil, fmt.Errorf("core: backing channel address map: %w", err)
		}
		s.Backing = s.newChannel("bus.backing", "backing", memctrl.Params{
			ID:        cfg.MCs,
			AMap:      bamap,
			Ranks:     branks,
			QueueCap:  cfg.BackingMRQ,
			DataBus:   bus.New(cfg.BackingBusBytes, cfg.BackingBusDivider, cfg.BackingBusDDR),
			Divider:   sim.NewDivider(cfg.BackingBusDivider),
			LineBytes: cfg.StackFillBytes,
			Respond:   complete,
		})
		// The memcache hot region holds the first-touched pages: the
		// frames the allocator handed out while the region still had
		// room, modelling OS placement of hot pages in stacked memory.
		var hot func(mem.Addr) bool
		if cfg.StackMode == config.StackMemCache {
			s.Pages.TrackHot(uint64(cfg.StackHotBytes() / int64(cfg.PageBytes)))
			hot = s.Pages.Hot
		}
		s.Stack = stackcache.New(stackcache.Params{
			Cfg:     cfg,
			AMap:    s.AMap,
			Stacked: s.MCs,
			Backing: s.Backing,
			IDs:     ids,
			Hot:     hot,
		})
		ports = s.Stack.Fronts()
	}
	if cfg.Coherent() {
		// Many-core mode: private per-core L2s, directory banks
		// co-located with the stacked controllers, and the mesh that
		// connects them. Validation already pinned this mode to plain
		// stacked memory with no faults and static MSHRs.
		s.Coh = coherence.New(coherence.Params{Cfg: cfg, AMap: s.AMap, MCs: ports, IDs: ids})
		s.second = s.Coh
	} else {
		s.L2 = cache.NewL2(cache.L2Params{Cfg: cfg, AMap: s.AMap, MCs: ports, IDs: ids})
		s.second = s.L2
		for _, f := range s.L2.MSHRBanks() {
			f.SetFaults(s.Faults.MSHR())
		}
	}

	// Cores with private L1s and their μop sources.
	s.Labels = append([]string(nil), labels...)
	newL1 := func(kind string, c int, below cache.Port, storeHint func(mem.Addr, sim.Cycle)) *cache.L1 {
		return cache.NewL1(cache.L1Params{
			Core:      c,
			Array:     cache.NewArrayBySize(fmt.Sprintf("%s.%d", kind, c), cfg.L1SizeKB*1024, cfg.L1Ways, cfg.LineBytes),
			Latency:   sim.Cycle(cfg.L1Latency),
			LineBytes: cfg.LineBytes,
			MSHRs:     cfg.L1MSHRs,
			Below:     below,
			IDs:       ids,
			Prefetch:  cfg.L1Prefetch, // Table 1: next-line, on the IL1 too
			StoreHint: storeHint,
			Pool:      &s.l1Misses,
		})
	}
	for c := 0; c < len(sources); c++ {
		var l1, il1 *cache.L1
		if s.Coh != nil {
			// The private L2 chases write permission for stores that
			// complete inside the DL1, and invalidates its L1s on
			// remote writes.
			pl2 := s.Coh.L2(c)
			l1, il1 = newL1("dl1", c, pl2, pl2.StoreHint), newL1("il1", c, pl2, nil)
			pl2.SetL1s(l1, il1)
		} else {
			l1, il1 = newL1("dl1", c, s.L2, nil), newL1("il1", c, s.L2, nil)
		}
		s.L1s = append(s.L1s, l1)
		s.IL1s = append(s.IL1s, il1)
		dt := tlb.New(64, 4, s.Pages)
		s.TLBs = append(s.TLBs, dt)
		it := tlb.New(32, 4, s.Pages)
		s.ITLBs = append(s.ITLBs, it)
		s.Cores = append(s.Cores, cpu.New(cpu.Params{
			ID:     c,
			Cfg:    cfg,
			L1:     l1,
			DTLB:   dt,
			IL1:    il1,
			ITLB:   it,
			Pages:  s.Pages,
			Source: sources[c],
		}))
	}

	// Dynamic MSHR capacity tuning (Section 5.1).
	if cfg.DynamicMSHR {
		s.Resizer = mshr.NewResizer(s.L2.MSHRBanks(), s.committed,
			sim.Cycle(cfg.DynSampleCycles), sim.Cycle(cfg.DynEpochCycles))
	}

	// Tick order: cores issue first, then L1 retries, then the L2, then
	// the controllers, then the tuner. Every component registers with an
	// idle fast-path handle so cycles it can prove it has no work on are
	// never visited; completion callbacks always flow from a
	// later-registered component to an earlier one, so a Wake during
	// cycle T reaches the sleeper on T+1 exactly as a full tick would.
	for _, c := range s.Cores {
		c.SetHandle(s.Engine.RegisterEvery(1, 0, c))
	}
	for _, l1 := range s.L1s {
		l1.SetHandle(s.Engine.RegisterEvery(1, 0, l1))
	}
	for _, il1 := range s.IL1s {
		il1.SetHandle(s.Engine.RegisterEvery(1, 0, il1))
	}
	s.second.Register(s.Engine)
	if s.Stack != nil {
		s.Stack.SetHandle(s.Engine.RegisterEvery(1, 0, s.Stack))
	}
	for _, ch := range s.channels {
		ch.mc.Attach(s.Engine)
	}
	if s.Resizer != nil {
		s.Resizer.SetHandle(s.Engine.RegisterEvery(1, 0, s.Resizer))
	}
	s.machine = powerthermal.Machine{Cfg: s.Cfg, Committed: s.committed, Channels: make([]powerthermal.Channel, len(s.channels))}
	for i, ch := range s.channels {
		s.machine.Channels[i] = powerthermal.Channel{
			Name: ch.dram, Ranks: ch.mc.Ranks(), Bus: ch.mc.Bus(), OffChip: ch.mc == s.Backing,
		}
	}
	return s, nil
}

// newChannel builds one memory channel — a controller over its data bus
// and ranks — and enters it in the channel view under the names its bus
// and DRAM go by. The stacked channels and the off-chip backing channel
// differ only in the parameters they pass.
func (s *System) newChannel(busName, dramName string, p memctrl.Params) *memctrl.Controller {
	// The same per-controller fault view is shared by the bus, the
	// banks and the scheduler so they agree on what is broken when.
	view := s.Faults.MC(p.ID)
	p.DataBus.SetFaults(view)
	for _, rank := range p.Ranks {
		for _, bank := range rank.Banks {
			bank.SetFaults(view)
		}
	}
	p.FRFCFS = s.Cfg.SchedFRFCFS
	mc := memctrl.New(p)
	mc.SetFaults(view)
	s.channels = append(s.channels, channel{mc, busName, dramName})
	return mc
}

// committed is the μops every core has committed since cycle zero
// (monotonic across ResetStats).
func (s *System) committed() uint64 {
	var n uint64
	for _, c := range s.Cores {
		n += c.Committed()
	}
	return n
}

// Observe registers t, something that watches the machine, to tick
// every `every` cycles behind all of its components — in call order
// behind earlier observers, so one that publishes (the power/thermal
// tracker) is attached before one that samples what it published. The
// engine's sleepers are settled before each of t's ticks, so an observer
// cannot read a counter a sleeping component has yet to count; and when
// t has a ResetStats method, ResetStats calls it at the warmup boundary.
func (s *System) Observe(every int, t sim.Ticker) {
	s.Engine.RegisterEvery(every, 0, sim.TickFunc(func(now sim.Cycle) {
		if now%sim.Cycle(every) != 0 {
			return // SetFullTick(true) ticks everything on every cycle
		}
		s.Engine.Settle()
		t.Tick(now)
	}))
	if r, ok := t.(interface{ ResetStats() }); ok {
		s.resetters = append(s.resetters, r)
	}
}

// EngineReport summarizes the event-driven core's work avoidance and
// the request pool's effectiveness over the simulation so far.
type EngineReport struct {
	Cycles         uint64 // cycles simulated
	TicksDelivered uint64 // component Tick calls actually made
	CyclesSkipped  uint64 // cycles jumped without visiting any component
	SkipRatio      float64
	TicksPerCycle  float64
	PoolGets       uint64 // requests handed out
	PoolHits       uint64 // ... that reused a pooled object
	PoolPuts       uint64 // completed requests returned to the pool
	PoolHitRate    float64
}

// EngineReport gathers the efficiency counters.
func (s *System) EngineReport() EngineReport {
	r := EngineReport{
		Cycles:         uint64(s.Engine.Now()),
		TicksDelivered: s.Engine.TicksDelivered(),
		CyclesSkipped:  uint64(s.Engine.CyclesSkipped()),
	}
	r.PoolGets, r.PoolHits, r.PoolPuts = s.ids.PoolStats()
	if r.Cycles > 0 {
		r.SkipRatio = float64(r.CyclesSkipped) / float64(r.Cycles)
		r.TicksPerCycle = float64(r.TicksDelivered) / float64(r.Cycles)
	}
	if r.PoolGets > 0 {
		r.PoolHitRate = float64(r.PoolHits) / float64(r.PoolGets)
	}
	return r
}

// AttachTelemetry wires tel through every component and registers the
// interval sampler as an observer, so each sample reflects the end of
// its cycle. Call it after construction and before Run. All
// instrumentation is read-only (gauges poll live state; the trace is
// drawn from finished attribution tags, see NewAttribCollector), so an
// instrumented run produces exactly the simulation results of an
// uninstrumented one. A nil tel is a no-op.
func (s *System) AttachTelemetry(tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	reg := tel.Reg()
	s.tracer = tel.Trace()
	for _, c := range s.Cores {
		c.Instrument(reg)
	}
	s.second.Instrument(reg)
	// Registration order is CSV column order: a group of channels lists
	// its controllers, then its buses, then its ranks; the stack layer
	// sits between the stacked channels and the backing one.
	instrument := func(chs []channel) {
		for _, ch := range chs {
			ch.mc.Instrument(reg)
		}
		for _, ch := range chs {
			ch.mc.Bus().Instrument(reg, ch.bus)
		}
		for _, ch := range chs {
			for r, rank := range ch.mc.Ranks() {
				rank.Instrument(reg, fmt.Sprintf("dram.%s.rank%d", ch.dram, r))
			}
		}
	}
	instrument(s.channels[:len(s.MCs)])
	if s.Stack != nil {
		s.Stack.Instrument(reg)
		instrument(s.channels[len(s.MCs):])
	}
	s.Faults.Instrument(reg)
	s.instrumentEnergy(reg)
	s.instrumentEngine(reg)
	// Per-window skipped-cycle column: keeps time-series plots honest
	// when the engine jumps idle spans — a flat IPC window next to a
	// large cycles_skipped.window is idle time, not stalled time.
	tel.Sampler.TrackWindow("engine.cycles_skipped")
	if tel.Sampler != nil {
		// Registered last so each sample reflects the end of its cycle,
		// and on the sampler's own interval so non-boundary cycles skip
		// it entirely. The sampler is per-engine state: concurrent
		// systems each carry their own.
		s.Observe(int(tel.Sampler.Every()), tel.Sampler)
	}
}

// AttachPowerThermal enables power/thermal tracking with the given
// sampling window in cycles (<=0 picks powerthermal.DefaultWindow),
// registering its metrics in reg. Call after construction and before
// AttachTelemetry, so each closed window is visible to the sampler's
// time-series. A nil registry is a no-op (tracking stays absent).
func (s *System) AttachPowerThermal(reg *telemetry.Registry, every int64) *powerthermal.Tracker {
	if reg == nil {
		return nil
	}
	t := powerthermal.New(s.machine, reg, every)
	s.Observe(int(t.Every()), t)
	return t
}

// AttachAttrib enables memory-latency attribution: col's "attrib.*"
// metrics accumulate a per-stage cycle breakdown of every demand L2
// miss. The collector is purely observational — tags are stamped with
// cycles the simulation computes anyway — so an attributed run is
// bit-identical to an unattributed one. A nil collector is a no-op.
func (s *System) AttachAttrib(col *attrib.Collector) { s.second.AttachAttrib(col) }

// NewAttribCollector registers an attribution collector shaped for this
// system's machine (cores, MCs, ranks) in reg, drawing the Chrome trace
// when AttachTelemetry came first with a tracer. Nil registry → nil
// collector (disabled).
func (s *System) NewAttribCollector(reg *telemetry.Registry) *attrib.Collector {
	col := attrib.NewCollector(reg, s.Cfg.Cores, s.Cfg.MCs, s.Cfg.RanksPerMC())
	col.Trace(s.tracer)
	return col
}

// instrumentEngine registers the "engine.*" efficiency gauges: how much
// tick work the skip-to-next-event engine avoided and how well the
// request pool recycles.
func (s *System) instrumentEngine(reg *telemetry.Registry) {
	reg.GaugeFunc("engine.ticks_delivered", func() float64 { return float64(s.Engine.TicksDelivered()) })
	reg.GaugeFunc("engine.cycles_skipped", func() float64 { return float64(s.Engine.CyclesSkipped()) })
	reg.GaugeFunc("engine.skip_ratio", func() float64 { return s.EngineReport().SkipRatio })
	reg.GaugeFunc("engine.ticks_per_cycle", func() float64 { return s.EngineReport().TicksPerCycle })
	reg.GaugeFunc("engine.pool_hit_rate", func() float64 { return s.EngineReport().PoolHitRate })
	reg.GaugeFunc("engine.pool_gets", func() float64 { return float64(s.EngineReport().PoolGets) })
	reg.GaugeFunc("engine.pool_puts", func() float64 { return float64(s.EngineReport().PoolPuts) })
}

// instrumentEnergy registers the cumulative DRAM energy breakdown as
// poll-driven gauges, so the sampler's time-series (and statsdiff) can
// gate on energy regressions. Values are microjoules accumulated since
// the last ResetStats — at the final sample, the measured window's
// energy, matching Metrics.Energy. One sampler row reads every gauge at
// one cycle, so the breakdowns are computed once per cycle and window:
// a walk of every bank, not one per gauge.
func (s *System) instrumentEnergy(reg *telemetry.Registry) {
	var (
		at, since      sim.Cycle = -1, -1
		stack, backing powerthermal.Breakdown
	)
	energies := func() (powerthermal.Breakdown, powerthermal.Breakdown) {
		if now := s.Engine.Now(); now != at || s.statsSince != since {
			at, since = now, s.statsSince
			stack, backing = s.machine.Energy(s.measured())
		}
		return stack, backing
	}
	energy := func() powerthermal.Breakdown { b, _ := energies(); return b }
	reg.GaugeFunc("power.energy.activate_uj", func() float64 { return energy().ActivateUJ })
	reg.GaugeFunc("power.energy.read_uj", func() float64 { return energy().ReadUJ })
	reg.GaugeFunc("power.energy.write_uj", func() float64 { return energy().WriteUJ })
	reg.GaugeFunc("power.energy.refresh_uj", func() float64 { return energy().RefreshUJ })
	reg.GaugeFunc("power.energy.bus_uj", func() float64 { return energy().BusUJ })
	reg.GaugeFunc("power.energy.static_uj", func() float64 { return energy().StaticUJ })
	reg.GaugeFunc("power.energy.total_uj", func() float64 { return energy().TotalUJ() })
	if s.Stack != nil {
		reg.GaugeFunc("power.energy.backing_uj", func() float64 { _, b := energies(); return b.TotalUJ() })
	}
}

// measured is the window the statistics cover: the cycles simulated
// since the last ResetStats. It equals MeasureCycles for a completed
// run and is shorter for one cut off mid-window, which keeps a partial
// run's rates (bus utilization, static energy) within their bounds.
func (s *System) measured() int64 { return int64(s.Engine.Now() - s.statsSince) }

// ResetStats zeroes every component's statistics (end of warmup).
func (s *System) ResetStats() {
	// Close any idle span in flight so the skipped cycles land in the
	// warmup counters about to be zeroed, not the measurement.
	s.Engine.Settle()
	s.statsSince = s.Engine.Now()
	for _, r := range s.resetters {
		r.ResetStats()
	}
	for i := range s.Cores {
		s.Cores[i].ResetStats()
		s.L1s[i].ResetStats()
		s.IL1s[i].ResetStats()
	}
	s.second.ResetStats()
	if s.Stack != nil {
		s.Stack.ResetStats()
	}
	for _, ch := range s.channels {
		ch.mc.ResetStats()
		ch.mc.Bus().ResetStats()
		for _, rank := range ch.mc.Ranks() {
			for _, bank := range rank.Banks {
				bank.ResetStats()
			}
		}
	}
}

// Metrics summarizes one measured run.
type Metrics struct {
	Config     string
	Benchmarks []string
	Cycles     uint64

	IPC   []float64 // per core
	HMIPC float64
	MPKI  []float64 // per core, demand L2 misses per kilo-μop

	L2MissRate      float64
	RowHitRate      float64
	BusUtilization  float64
	ProbesPerAccess float64
	MSHRFullStalls  uint64 // misses set aside on a full MSHR bank
	DRAMReads       uint64
	DRAMWrites      uint64

	// Energy is the DRAM energy breakdown of the measured window
	// (Section 4.2's power argument), using off-chip IO energies for
	// the 2D organization and TSV energies for stacked ones.
	Energy powerthermal.Breakdown
	// EnergyBacking is the off-chip backing channel's energy (DDR2 IO;
	// zero in StackMemory mode, where the channel is absent).
	EnergyBacking powerthermal.Breakdown

	// RefreshSkipRate is the fraction of refresh commands smart refresh
	// elided (0 unless config.SmartRefresh).
	RefreshSkipRate float64

	// Faults counts injected fault events and their cost (all zero when
	// the run had no fault scenario).
	Faults fault.Stats

	// Stack summarizes the die-stacked layer when it runs as a cache or
	// memcache (all zero in plain memory mode), and BackingReads/Writes
	// count the accesses the off-chip backing channel served.
	Stack         stackcache.Stats
	StackHitRate  float64
	BackingReads  uint64
	BackingWrites uint64

	// PrefetchL1 aggregates the prefetcher issue/usefulness counters of
	// every DL1 and IL1; PrefetchL2 is the shared L2's.
	PrefetchL1 prefetch.Stats
	PrefetchL2 prefetch.Stats

	// Coherence and NoC summarize the directory protocol and the mesh
	// in many-core coherent mode (all zero under the shared L2).
	Coherence coherence.Stats
	NoC       noc.Stats
}

// Run executes warmup then the measured window and returns the metrics.
func (s *System) Run() Metrics {
	m, _ := s.RunContext(context.Background())
	return m
}

// RunContext is Run with cancellation: warmup, the end-of-warmup
// statistics reset, then the measured window, polling ctx between cycle
// chunks. On cancellation it returns the metrics collected so far
// (partial, still well-formed) along with ctx's error, so sweeps can
// export what completed. A cut-off run is finished by running it again:
// every run is deterministic from its config and seed.
func (s *System) RunContext(ctx context.Context) (Metrics, error) {
	_, err := s.Engine.RunCtx(ctx, sim.Cycle(s.Cfg.WarmupCycles))
	if err == nil {
		s.ResetStats()
		_, err = s.Engine.RunCtx(ctx, sim.Cycle(s.Cfg.MeasureCycles))
	}
	return s.Collect(), err
}

// Collect gathers metrics for the elapsed measured window.
func (s *System) Collect() Metrics {
	s.Engine.Settle() // make sleep-skipped cycles visible
	elapsed := s.measured()
	m := Metrics{
		Config: s.Cfg.Name,
		Cycles: uint64(elapsed),
	}
	missesBy := s.second.DemandMissesByCore()
	for i, c := range s.Cores {
		st := c.Stats()
		m.Benchmarks = append(m.Benchmarks, s.Labels[i])
		ipc := 0.0
		if elapsed > 0 {
			ipc = float64(st.Committed) / float64(elapsed)
		}
		m.IPC = append(m.IPC, ipc)
		if st.Committed > 0 {
			m.MPKI = append(m.MPKI, 1000*float64(missesBy[i])/float64(st.Committed))
		} else {
			m.MPKI = append(m.MPKI, 0)
		}
	}
	m.HMIPC = stats.HarmonicMean(m.IPC)
	if s.Coh != nil {
		cs := s.Coh.Stats()
		m.L2MissRate = cs.MissRate()
		m.MSHRFullStalls = cs.MSHRStalls
		m.Coherence = cs
		m.NoC = *s.Coh.Mesh().Stats()
	} else {
		l2 := s.L2.Stats()
		if l2.Accesses > 0 {
			m.L2MissRate = float64(l2.Accesses-l2.Hits) / float64(l2.Accesses)
		}
		m.MSHRFullStalls = l2.MSHRStalls
		var probes, accesses uint64
		for _, f := range s.L2.MSHRBanks() {
			probes += f.Stats().Probes
			accesses += f.Stats().Accesses
		}
		if accesses > 0 {
			m.ProbesPerAccess = float64(probes) / float64(accesses)
		}
		m.PrefetchL2 = s.L2.PrefetchStats()
	}
	var rowHits, dramAcc, busBusy, skipped, issued uint64
	for _, mc := range s.MCs {
		st := mc.Stats()
		rowHits += st.RowHits
		dramAcc += st.Reads + st.Writes
		m.DRAMReads += st.Reads
		m.DRAMWrites += st.Writes
		busBusy += mc.Bus().Stats().BusyCycles
		for _, rank := range mc.Ranks() {
			skipped += rank.Skipped
			issued += rank.Issued
		}
	}
	if dramAcc > 0 {
		m.RowHitRate = float64(rowHits) / float64(dramAcc)
	}
	if elapsed > 0 {
		m.BusUtilization = float64(busBusy) / float64(uint64(elapsed)*uint64(len(s.MCs)))
	}
	m.Energy, m.EnergyBacking = s.machine.Energy(elapsed)
	if skipped+issued > 0 {
		m.RefreshSkipRate = float64(skipped) / float64(skipped+issued)
	}
	m.Faults = s.Faults.Stats()
	if s.Stack != nil {
		m.Stack = *s.Stack.Stats()
		m.StackHitRate = m.Stack.HitRate()
		bst := s.Backing.Stats()
		m.BackingReads = bst.Reads
		m.BackingWrites = bst.Writes
	}
	for i := range s.L1s {
		m.PrefetchL1.Add(s.L1s[i].PrefetchStats())
		m.PrefetchL1.Add(s.IL1s[i].PrefetchStats())
	}
	return m
}

// Digest folds the architectural state visible through statistics —
// per-core commit counts, cache/controller/bank/bus counters and the
// fault log — into one FNV-1a hash. Two systems that simulated the
// same cycles from the same inputs have equal digests.
func (s *System) Digest() uint64 {
	s.Engine.Settle()
	h := fnv.New64a()
	word := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	word(uint64(s.Engine.Now()))
	for _, c := range s.Cores {
		word(c.Committed())
	}
	s.second.DigestWords(word)
	channelWords := func(mc *memctrl.Controller) {
		st := mc.Stats()
		word(st.Reads, st.Writes, st.RowHits)
		bst := mc.Bus().Stats()
		word(bst.Bytes, bst.BusyCycles)
		for _, rank := range mc.Ranks() {
			for _, bank := range rank.Banks {
				bs := bank.Stats()
				word(bs.Accesses, bs.Activates, bs.Refreshes)
			}
		}
	}
	for _, mc := range s.MCs {
		channelWords(mc)
	}
	if s.Stack != nil {
		// The layer's words sit where it does: after the stacked
		// channels it fronts, before the backing channel behind it.
		s.Stack.DigestWords(word)
		channelWords(s.Backing)
	}
	fs := s.Faults.Stats()
	word(fs.BitErrorsCorrected, fs.BitErrorsUncorrectable, fs.ECCRetryCycles,
		fs.RankBlocked, fs.RankRemaps, fs.MCStallEdges,
		fs.LinkDegradedTransfers, fs.LinkDeadWaitCycles, fs.MSHRParityErrors)
	return h.Sum64()
}

// RunWorkload builds cfg's machine for w and runs it under ctx: the one
// build-and-run step behind the Runner.
func RunWorkload(ctx context.Context, cfg *config.Config, w workload.Workload) (Metrics, error) {
	sys, err := NewSystem(cfg, w.Benchmarks())
	if err != nil {
		return Metrics{}, err
	}
	return sys.RunContext(ctx)
}
