// Package config holds every simulation parameter and the named presets
// used by the paper's evaluation (Table 1 plus the Section 3-5 sweeps).
package config

import (
	"fmt"

	"stackedsim/internal/fault"
)

// MSHRKind selects the L2 miss-handling-architecture implementation.
type MSHRKind int

const (
	// MSHRIdealCAM is the idealized single-cycle fully-associative MSHR
	// the paper uses as its (impractical) reference.
	MSHRIdealCAM MSHRKind = iota
	// MSHRLinearProbe is a direct-mapped hash table with linear probing
	// and no filter: every probe costs a cycle.
	MSHRLinearProbe
	// MSHRVBF is the direct-mapped MSHR accelerated by the Vector Bloom
	// Filter (the paper's Section 5 proposal).
	MSHRVBF
)

func (k MSHRKind) String() string {
	switch k {
	case MSHRIdealCAM:
		return "ideal-cam"
	case MSHRLinearProbe:
		return "linear-probe"
	case MSHRVBF:
		return "vbf"
	}
	return fmt.Sprintf("mshrkind(%d)", int(k))
}

// StackMode selects how the die-stacked DRAM is used (see
// internal/stackcache). The zero value is the seed behaviour: the
// stack is the whole of main memory.
type StackMode int

const (
	// StackMemory direct-addresses the stack as all of main memory —
	// today's behaviour, bit-identical to the pre-stackcache simulator.
	StackMemory StackMode = iota
	// StackCache treats the stack as a set-associative writeback
	// last-level cache in front of a slow off-chip backing channel.
	StackCache
	// StackMemCache splits the stack: a hot region is direct-addressed
	// memory, the remainder acts as cache for everything else.
	StackMemCache
)

func (m StackMode) String() string {
	switch m {
	case StackMemory:
		return "memory"
	case StackCache:
		return "cache"
	case StackMemCache:
		return "memcache"
	}
	return fmt.Sprintf("stackmode(%d)", int(m))
}

// ParseStackMode maps the -stack-mode flag spelling to a StackMode.
func ParseStackMode(s string) (StackMode, error) {
	switch s {
	case "memory":
		return StackMemory, nil
	case "cache":
		return StackCache, nil
	case "memcache":
		return StackMemCache, nil
	}
	return 0, fmt.Errorf("config: unknown stack mode %q (want memory, cache or memcache)", s)
}

// CoherenceMode selects how cores share the memory hierarchy. The zero
// value is the seed behaviour: one shared, banked L2.
type CoherenceMode int

const (
	// CoherenceShared is the paper's organization: all cores share one
	// banked L2; no coherence protocol is needed below the L1s.
	CoherenceShared CoherenceMode = iota
	// CoherencePrivate gives each core a private L2 kept coherent by a
	// directory-based MESI protocol, with directory banks co-located
	// with the stacked memory controllers (one per vertical slice).
	// Requires TopoMesh.
	CoherencePrivate
)

func (m CoherenceMode) String() string {
	switch m {
	case CoherenceShared:
		return "shared"
	case CoherencePrivate:
		return "mesi"
	}
	return fmt.Sprintf("coherence(%d)", int(m))
}

// ParseCoherenceMode maps the -coherence flag spelling to a mode.
func ParseCoherenceMode(s string) (CoherenceMode, error) {
	switch s {
	case "shared":
		return CoherenceShared, nil
	case "mesi":
		return CoherencePrivate, nil
	}
	return 0, fmt.Errorf("config: unknown coherence mode %q (want shared or mesi)", s)
}

// Topology selects the on-chip interconnect between the cores' caches
// and the memory controllers. The zero value is the seed behaviour: an
// implicit point-to-point connection with no modeled contention.
type Topology int

const (
	// TopoBus is the implicit interconnect of the shared-L2
	// organization (the L2 banks and MCs are directly wired).
	TopoBus Topology = iota
	// TopoMesh is a 2D mesh NoC (internal/noc) carrying
	// core-to-directory-to-MC traffic; requires a square core count.
	TopoMesh
)

func (t Topology) String() string {
	switch t {
	case TopoBus:
		return "bus"
	case TopoMesh:
		return "mesh"
	}
	return fmt.Sprintf("topology(%d)", int(t))
}

// DRAMTiming carries the array timing parameters in nanoseconds. The
// consuming DRAM model rounds them up to CPU cycles.
type DRAMTiming struct {
	TRASns float64 // activate -> precharge minimum
	TRCDns float64 // activate -> column command
	TCASns float64 // column command -> first data (CL)
	TWRns  float64 // end of write data -> precharge
	TRPns  float64 // precharge -> activate
}

// Timing2D is the commodity DDR2 timing from Table 1 (Samsung datasheet).
func Timing2D() DRAMTiming {
	return DRAMTiming{TRASns: 36, TRCDns: 12, TCASns: 12, TWRns: 12, TRPns: 12}
}

// TimingTrue3D is the "true" 3D-split array timing: a 32.5% reduction per
// Tezzaron's five-layer datasheet numbers, as used for 3D-fast in Table 1.
func TimingTrue3D() DRAMTiming {
	return DRAMTiming{TRASns: 24.3, TRCDns: 8.1, TCASns: 8.1, TWRns: 8.1, TRPns: 8.1}
}

// Config is a complete simulation configuration. Build presets with the
// constructors below and tweak fields before passing it to core.NewSystem.
type Config struct {
	Name string

	// Processor (Table 1, Penryn-derived quad-core).
	Cores             int
	CPUMHz            float64
	DispatchWidth     int // μops/cycle into the ROB
	CommitWidth       int // μops/cycle retired
	ROBSize           int
	LoadPorts         int
	StorePorts        int
	MispredictPenalty int // minimum fetch->exec refill, cycles

	// L1 data/instruction caches.
	LineBytes  int
	L1SizeKB   int
	L1Ways     int
	L1Latency  int // cycles (paper: 2 + 1 addr computation)
	L1MSHRs    int
	L1Prefetch bool // next-line + IP-stride

	// Shared L2.
	L2SizeKB         int
	L2ExtraKB        int // Figure 6a: spend row-buffer budget on L2 instead
	L2Ways           int
	L2Banks          int
	L2Latency        int // cycles
	L2MSHRs          int // baseline total entries (8); multiplied below
	L2PageInterleave bool
	L2Prefetch       bool

	// Interconnect between the L2/MSHRs and the memory controllers, and
	// between the MCs and DRAM. BusDivider is CPU cycles per bus cycle
	// (4 = the 833.3MHz FSB of the 2D baseline, 1 = on-stack at core
	// clock). BusBytes is the data width (8 = 64-bit, 64 = full line).
	BusBytes   int
	BusDivider int
	BusDDR     bool

	// Memory controllers.
	MCs         int
	MRQTotal    int // aggregate request-queue capacity across all MCs
	SchedFRFCFS bool
	// CriticalWordFirst delivers the demand word of a read after the
	// first bus beat; the rest of the line still occupies the bus.
	// Section 3 discusses why CWF hides narrow buses for single
	// programs but not under multi-core contention.
	CriticalWordFirst bool

	// DRAM organization.
	MemoryGB         int
	RanksTotal       int
	BanksPerRank     int
	PageBytes        int
	RowBufferEntries int // per bank; >1 = row-buffer cache (LRU)
	Timing           DRAMTiming
	RefreshMS        int // 64 off-chip, 32 on-stack (hotter)
	// SmartRefresh elides refresh commands for row groups that demand
	// accesses already restored (Ghosh & Lee, the paper's citation
	// [11]) — an extension experiment.
	SmartRefresh bool

	// L2 miss handling architecture (Section 5).
	L2MSHRKind  MSHRKind
	L2MSHRMult  int  // capacity multiplier over L2MSHRs: 1, 2, 4, 8
	DynamicMSHR bool // sampling-based 1x / 0.5x / 0.25x resizing
	// MSHRUnified keeps one shared MSHR file instead of banking it per
	// memory controller. The Figure 5 floorplan requires banking; the
	// unified variant exists to isolate how much of the MC-scaling
	// behaviour is really MSHR-capacity partitioning (see DESIGN.md
	// deviation 2).
	MSHRUnified bool
	MSHRBankLat int // access latency of one MSHR probe, cycles
	// Dynamic-resizer cadence: cycles per training sample and cycles to
	// hold the winning setting before resampling.
	DynSampleCycles int64
	DynEpochCycles  int64

	// Workload window (scaled-down SimPoint substitute).
	WarmupCycles  int64
	MeasureCycles int64
	Seed          int64

	// Die-stacked DRAM operating mode (internal/stackcache). With
	// StackMemory every knob below is ignored and nothing extra is
	// constructed; with StackCache/StackMemCache the stacked channels
	// cache a larger off-chip memory reached through a backing channel.
	StackMode StackMode
	// StackCapMB is the stacked DRAM capacity when it acts as a cache.
	StackCapMB int
	// StackWays is the stack cache's set associativity.
	StackWays int
	// StackTagsInSRAM must be true in cache and memcache mode: the stack
	// cache's tags live in an on-die SRAM directory probed in
	// StackTagLatency cycles before any stacked access. The field stays
	// because every config's JSON, and so every RunID, carries it.
	StackTagsInSRAM bool
	// StackTagLatency is the SRAM tag-probe latency in CPU cycles.
	StackTagLatency int
	// StackFillBytes is the allocation/fill granularity: LineBytes for
	// line fills up to PageBytes for page fills (power of two).
	StackFillBytes int
	// StackHotFrac is the StackMemCache split: this fraction of the
	// stack capacity is direct-addressed hot memory, the rest is cache.
	StackHotFrac float64
	// Backing channel: the slow off-chip memory behind the stack cache.
	// Reuses the 2D DRAM model behind a narrow bus.
	BackingTiming     DRAMTiming
	BackingRanks      int
	BackingBusBytes   int
	BackingBusDivider int
	BackingBusDDR     bool
	BackingMRQ        int

	// Faults, when non-nil, arms the deterministic fault-injection
	// scenario for this run (see internal/fault). The scenario is
	// read-only after construction and shared by Clone copies; nil
	// keeps the memory system fault-free.
	Faults *fault.Scenario

	// Many-core scale-out (internal/coherence + internal/noc). The zero
	// values are the seed behaviour — shared L2, implicit bus, no new
	// subsystems constructed — and the omitempty tags keep the zero
	// values out of the run-identity JSON, so every pre-existing
	// configuration keeps its ledger RunID.
	Coherence CoherenceMode `json:",omitempty"`
	Topology  Topology      `json:",omitempty"`
	// Mesh NoC shape (TopoMesh): link width in bytes per cycle, wire
	// latency per hop, router pipeline depth, and per-port input buffer
	// capacity in messages (the credit count).
	MeshLinkBytes     int `json:",omitempty"`
	MeshLinkLatency   int `json:",omitempty"`
	MeshRouterLatency int `json:",omitempty"`
	MeshBufPkts       int `json:",omitempty"`
	// Private per-core L2 geometry (CoherencePrivate) and the directory
	// bank lookup latency in cycles.
	PrivL2KB      int `json:",omitempty"`
	PrivL2Ways    int `json:",omitempty"`
	PrivL2Latency int `json:",omitempty"`
	PrivL2MSHRs   int `json:",omitempty"`
	DirLatency    int `json:",omitempty"`
}

// MaxLines bounds the lines a memory may hold: a cache way names its line
// by number plus one in a 32-bit key (cache.Array), so a line number must
// stay below MaxLines. This is a bound of the tag store, not a knob.
const MaxLines = 1<<32 - 1

// Validate reports the first problem with the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("config: Cores = %d", c.Cores)
	case c.CPUMHz <= 0:
		return fmt.Errorf("config: CPUMHz = %g", c.CPUMHz)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("config: LineBytes = %d, need power of two", c.LineBytes)
	case c.L1SizeKB <= 0 || c.L1Ways <= 0 || c.L1MSHRs <= 0:
		return fmt.Errorf("config: bad L1 geometry %d KB / %d ways / %d mshrs", c.L1SizeKB, c.L1Ways, c.L1MSHRs)
	case c.L2SizeKB <= 0 || c.L2Ways <= 0 || c.L2Banks <= 0 || c.L2MSHRs <= 0:
		return fmt.Errorf("config: bad L2 geometry")
	case c.L2ExtraKB < 0:
		return fmt.Errorf("config: L2ExtraKB = %d", c.L2ExtraKB)
	case c.BusBytes <= 0 || c.BusDivider <= 0:
		return fmt.Errorf("config: bad bus %d bytes / div %d", c.BusBytes, c.BusDivider)
	case c.MCs <= 0 || c.MRQTotal < c.MCs:
		return fmt.Errorf("config: %d MCs need MRQTotal >= MCs, have %d", c.MCs, c.MRQTotal)
	case c.RanksTotal <= 0 || c.RanksTotal%c.MCs != 0:
		return fmt.Errorf("config: RanksTotal %d must be a positive multiple of MCs %d", c.RanksTotal, c.MCs)
	case c.BanksPerRank <= 0:
		return fmt.Errorf("config: BanksPerRank = %d", c.BanksPerRank)
	case c.PageBytes <= 0 || c.PageBytes&(c.PageBytes-1) != 0:
		return fmt.Errorf("config: PageBytes = %d", c.PageBytes)
	case c.RowBufferEntries <= 0:
		return fmt.Errorf("config: RowBufferEntries = %d", c.RowBufferEntries)
	case c.L2MSHRMult <= 0:
		return fmt.Errorf("config: L2MSHRMult = %d", c.L2MSHRMult)
	case c.MemoryGB <= 0:
		return fmt.Errorf("config: MemoryGB = %d", c.MemoryGB)
	case float64(c.MemoryGB)*(1<<30)/float64(c.LineBytes) > MaxLines:
		return fmt.Errorf("config: %d GB of %d-byte lines is more than the %d lines a cache can name", c.MemoryGB, c.LineBytes, MaxLines)
	case c.L2Banks%c.MCs != 0:
		return fmt.Errorf("config: L2Banks %d must be a multiple of MCs %d", c.L2Banks, c.MCs)
	case c.L1SizeKB*1024%(c.L1Ways*c.LineBytes) != 0:
		return fmt.Errorf("config: L1 of %d KB does not divide into sets of %d ways x %d bytes", c.L1SizeKB, c.L1Ways, c.LineBytes)
	case !c.Coherent() && (c.L2SizeKB+c.L2ExtraKB)*1024/c.L2Banks < c.L2Ways*c.LineBytes:
		// A bank may end in a partial set (Figure 6a's 533-set banks
		// drop the remainder), but it must hold one.
		return fmt.Errorf("config: L2 of %d KB in %d banks leaves a bank no set of %d ways x %d bytes",
			c.L2SizeKB+c.L2ExtraKB, c.L2Banks, c.L2Ways, c.LineBytes)
	}
	if err := c.validateStack(); err != nil {
		return err
	}
	if err := c.validateManycore(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}

// validateManycore checks the coherence and NoC knobs. In the seed
// organization (shared L2, implicit bus) they are all ignored, so any
// values are accepted — but more than 4 cores needs the scale-out
// hierarchy, since the shared banked L2 does not model the crossbar
// contention that dominates beyond that point.
func (c *Config) validateManycore() error {
	if c.Coherence == CoherenceShared && c.Topology == TopoBus {
		if c.Cores > 4 {
			return fmt.Errorf("config: %d cores need the directory/mesh hierarchy (Coherence=mesi); the shared L2 tops out at 4", c.Cores)
		}
		return nil
	}
	dim := c.MeshDim()
	switch {
	case c.Coherence != CoherencePrivate:
		return fmt.Errorf("config: Coherence = %d, want shared or mesi", int(c.Coherence))
	case c.Topology != TopoMesh:
		return fmt.Errorf("config: Coherence=mesi requires Topology=mesh, have %s", c.Topology)
	case dim*dim != c.Cores:
		return fmt.Errorf("config: the mesh needs a square core count, have %d (not a perfect square)", c.Cores)
	case c.Cores%c.MCs != 0:
		return fmt.Errorf("config: MCs %d must divide Cores %d (one directory bank per vertical slice)", c.MCs, c.Cores)
	case c.StackMode != StackMemory:
		return fmt.Errorf("config: coherence mode supports StackMode=memory only, have %s", c.StackMode)
	case c.Faults != nil:
		return fmt.Errorf("config: fault injection is not supported under directory coherence")
	case c.DynamicMSHR:
		return fmt.Errorf("config: DynamicMSHR resizes the shared L2's MSHRs; not applicable to private L2s")
	case c.MeshLinkBytes <= 0:
		return fmt.Errorf("config: MeshLinkBytes = %d", c.MeshLinkBytes)
	case c.MeshLinkLatency <= 0 || c.MeshRouterLatency <= 0:
		return fmt.Errorf("config: mesh latencies %d link / %d router, need >= 1", c.MeshLinkLatency, c.MeshRouterLatency)
	case c.MeshBufPkts <= 0:
		return fmt.Errorf("config: MeshBufPkts = %d", c.MeshBufPkts)
	case c.PrivL2KB <= 0 || c.PrivL2Ways <= 0 || c.PrivL2MSHRs <= 0:
		return fmt.Errorf("config: bad private L2 geometry %d KB / %d ways / %d mshrs", c.PrivL2KB, c.PrivL2Ways, c.PrivL2MSHRs)
	case c.PrivL2KB*1024%(c.PrivL2Ways*c.LineBytes) != 0:
		return fmt.Errorf("config: private L2 of %d KB does not divide into sets of %d ways x %d bytes", c.PrivL2KB, c.PrivL2Ways, c.LineBytes)
	case c.PrivL2Latency <= 0:
		return fmt.Errorf("config: PrivL2Latency = %d", c.PrivL2Latency)
	case c.DirLatency <= 0:
		return fmt.Errorf("config: DirLatency = %d", c.DirLatency)
	}
	return nil
}

// validateStack checks the stack-cache knobs. In StackMemory mode they
// are all ignored, so any values (including zero) are accepted.
func (c *Config) validateStack() error {
	switch c.StackMode {
	case StackMemory:
		return nil
	case StackCache, StackMemCache:
	default:
		return fmt.Errorf("config: StackMode = %d, want memory/cache/memcache", int(c.StackMode))
	}
	capBytes := int64(c.StackCapMB) << 20
	switch {
	case c.StackCapMB <= 0:
		return fmt.Errorf("config: StackCapMB = %d in %s mode", c.StackCapMB, c.StackMode)
	case capBytes > int64(c.MemoryGB)<<30:
		return fmt.Errorf("config: stack capacity %d MB exceeds memory %d GB", c.StackCapMB, c.MemoryGB)
	case c.StackWays <= 0:
		return fmt.Errorf("config: StackWays = %d", c.StackWays)
	case c.StackFillBytes < c.LineBytes || c.StackFillBytes > c.PageBytes ||
		c.StackFillBytes&(c.StackFillBytes-1) != 0:
		return fmt.Errorf("config: StackFillBytes = %d, need a power of two in [LineBytes=%d, PageBytes=%d]",
			c.StackFillBytes, c.LineBytes, c.PageBytes)
	case capBytes%int64(c.StackWays*c.StackFillBytes) != 0:
		return fmt.Errorf("config: stack capacity %d MB not divisible into %d ways of %d-byte blocks",
			c.StackCapMB, c.StackWays, c.StackFillBytes)
	case !c.StackTagsInSRAM:
		return fmt.Errorf("config: StackTagsInSRAM = false in %s mode; the stack cache keeps its tags in SRAM", c.StackMode)
	case c.StackTagLatency < 1:
		return fmt.Errorf("config: StackTagLatency = %d, need >= 1", c.StackTagLatency)
	case c.StackHotFrac < 0 || c.StackHotFrac >= 1:
		return fmt.Errorf("config: StackHotFrac = %g, need [0, 1)", c.StackHotFrac)
	case c.StackMode == StackMemCache && c.StackHotFrac == 0:
		return fmt.Errorf("config: memcache mode with StackHotFrac = 0 is plain cache mode; set a split or use cache")
	case c.BackingRanks <= 0:
		return fmt.Errorf("config: BackingRanks = %d", c.BackingRanks)
	case c.BackingBusBytes <= 0 || c.BackingBusDivider <= 0:
		return fmt.Errorf("config: bad backing bus %d bytes / div %d", c.BackingBusBytes, c.BackingBusDivider)
	case c.BackingMRQ <= 0:
		return fmt.Errorf("config: BackingMRQ = %d", c.BackingMRQ)
	}
	return nil
}

// StackHotBytes reports the direct-addressed split of the stack in
// StackMemCache mode (page-aligned), zero otherwise.
func (c *Config) StackHotBytes() int64 {
	if c.StackMode != StackMemCache {
		return 0
	}
	hot := int64(float64(int64(c.StackCapMB)<<20) * c.StackHotFrac)
	return hot &^ int64(c.PageBytes-1)
}

// Coherent reports whether this configuration uses the directory-based
// private-L2 hierarchy instead of the seed's shared L2.
func (c *Config) Coherent() bool { return c.Coherence == CoherencePrivate }

// MeshDim reports the side length of the square mesh (isqrt of Cores).
// Only meaningful when dim*dim == Cores, which Validate enforces for
// TopoMesh configurations.
func (c *Config) MeshDim() int {
	d := 0
	for (d+1)*(d+1) <= c.Cores {
		d++
	}
	return d
}

// L2TotalMSHRs reports the total L2 MSHR entry count after the multiplier.
func (c *Config) L2TotalMSHRs() int { return c.L2MSHRs * c.L2MSHRMult }

// RanksPerMC reports ranks owned by each controller.
func (c *Config) RanksPerMC() int { return c.RanksTotal / c.MCs }

// MRQPerMC reports the per-controller request-queue share of the constant
// 32-entry aggregate (Section 4.1).
func (c *Config) MRQPerMC() int { return c.MRQTotal / c.MCs }

// Clone returns a deep copy (Config has no reference fields, so this is a
// plain value copy kept as a method for call-site clarity).
func (c *Config) Clone() *Config {
	dup := *c
	return &dup
}

// baseline returns the Table 1 processor with everything except the
// memory organization filled in.
func baseline() *Config {
	return &Config{
		Cores:             4,
		CPUMHz:            3333.3,
		DispatchWidth:     4,
		CommitWidth:       4,
		ROBSize:           96,
		LoadPorts:         1,
		StorePorts:        1,
		MispredictPenalty: 14,

		LineBytes:  64,
		L1SizeKB:   24,
		L1Ways:     12,
		L1Latency:  3, // 2-cycle + 1 address computation
		L1MSHRs:    8,
		L1Prefetch: true,

		L2SizeKB:   12 * 1024,
		L2Ways:     24,
		L2Banks:    16,
		L2Latency:  9,
		L2MSHRs:    8,
		L2Prefetch: true,

		MRQTotal:    32,
		SchedFRFCFS: true,

		MemoryGB:         8,
		BanksPerRank:     8,
		PageBytes:        4096,
		RowBufferEntries: 1,

		L2MSHRKind:      MSHRIdealCAM,
		L2MSHRMult:      1,
		MSHRBankLat:     1,
		DynSampleCycles: 20_000,
		DynEpochCycles:  200_000,

		WarmupCycles:  200_000,
		MeasureCycles: 1_000_000,
		Seed:          1,
	}
}

// Baseline2D is the paper's 2D configuration: off-chip DDR2 DRAM behind a
// 64-bit 833.3MHz front-side bus, one memory controller, eight ranks.
func Baseline2D() *Config {
	c := baseline()
	c.Name = "2D"
	c.BusBytes = 8
	c.BusDivider = 4
	c.BusDDR = true
	c.MCs = 1
	c.RanksTotal = 8
	c.Timing = Timing2D()
	c.RefreshMS = 64
	return c
}

// Simple3D stacks the same commodity DRAM on the processor: the bus and
// memory controller now run at core clock, but the arrays are unchanged.
func Simple3D() *Config {
	c := Baseline2D()
	c.Name = "3D"
	c.BusDivider = 1
	c.BusDDR = false
	c.RefreshMS = 32 // on-stack: hotter, faster leakage
	return c
}

// Wide3D widens the 3D bus to a full 64-byte cache line per transfer.
func Wide3D() *Config {
	c := Simple3D()
	c.Name = "3D-wide"
	c.BusBytes = 64
	return c
}

// Fast3D adds the "true" 3D-split arrays: stacked bitcells over a
// dedicated high-speed logic layer, shrinking array timing by 32.5%.
// This is the Section 3 endpoint and the Section 4 comparison baseline.
func Fast3D() *Config {
	c := Wide3D()
	c.Name = "3D-fast"
	c.Timing = TimingTrue3D()
	return c
}

// Aggressive returns a Section 4 organization on top of Fast3D with the
// given number of memory controllers, total ranks and row-buffer-cache
// entries per bank. Page-aligned L2 interleaving and banked MSHRs/MCs are
// enabled — the streamlined "vertical slice" floorplan of Figure 5.
func Aggressive(mcs, ranks, rowBufs int) *Config {
	c := Fast3D()
	c.Name = fmt.Sprintf("3D-%dmc-%drank-%drb", mcs, ranks, rowBufs)
	c.MCs = mcs
	c.RanksTotal = ranks
	c.RowBufferEntries = rowBufs
	c.L2PageInterleave = true
	return c
}

// DualMC is the paper's "2 MCs, 8 ranks, 4 row buffers" configuration
// used throughout Section 5.
func DualMC() *Config { return Aggressive(2, 8, 4) }

// QuadMC is the paper's "4 MCs, 16 ranks, 4 row buffers" configuration.
func QuadMC() *Config { return Aggressive(4, 16, 4) }

// ManyCore returns the scale-out organization: cores private L2s kept
// coherent by directory banks co-located with mcs stacked memory
// controllers, all connected by a square 2D mesh. The DRAM side follows
// the Aggressive recipe (4 ranks per controller, 4 row-buffer entries
// per bank), and the MRQ/MSHR aggregates scale with the core count so
// per-slice resources match the 4-core QuadMC slice.
func ManyCore(cores, mcs int) *Config {
	c := Aggressive(mcs, 4*mcs, 4).WithMESI(cores)
	c.Name = fmt.Sprintf("3D-%dc-%dmc-mesh", cores, mcs)
	// Keep the seed's per-slice provisioning: 8 MRQ entries and 4 L2
	// banks per controller, as in QuadMC.
	c.MRQTotal = 8 * mcs
	c.L2Banks = mcs * 4
	return c
}

// WithMESI derives a copy with the given number of cores, each behind a
// private L2 kept coherent by a MESI directory over a 2D mesh: the
// -coherence mesi organization on top of any preset, and ManyCore's.
func (c *Config) WithMESI(cores int) *Config {
	d := c.Clone()
	d.Cores = cores
	d.Coherence = CoherencePrivate
	d.Topology = TopoMesh

	d.MeshLinkBytes = 16
	d.MeshLinkLatency = 1
	d.MeshRouterLatency = 2
	d.MeshBufPkts = 8

	d.PrivL2KB = 512
	d.PrivL2Ways = 8
	d.PrivL2Latency = 9
	d.PrivL2MSHRs = 16
	d.DirLatency = 4
	d.Name = fmt.Sprintf("%s-%dc-mesh", c.Name, cores)
	return d
}

// WithStackCache derives a copy operating the stacked DRAM in the
// given mode with the given capacity and sensible defaults for every
// other stack knob: 16-way, page-granularity fills, a 2-cycle SRAM tag
// directory, a 50/50 memcache split, and a commodity 2D backing
// channel (4 ranks behind a 64-bit FSB-speed DDR bus, 32-entry MRQ).
// Tweak fields on the result before building the system.
func (c *Config) WithStackCache(mode StackMode, capMB int) *Config {
	d := c.Clone()
	d.StackMode = mode
	d.StackCapMB = capMB
	d.StackWays = 16
	d.StackTagsInSRAM = true
	d.StackTagLatency = 2
	d.StackFillBytes = d.PageBytes
	d.StackHotFrac = 0
	if mode == StackMemCache {
		d.StackHotFrac = 0.5
	}
	d.BackingTiming = Timing2D()
	d.BackingRanks = 4
	d.BackingBusBytes = 8
	d.BackingBusDivider = 4
	d.BackingBusDDR = true
	d.BackingMRQ = 32
	d.Name = fmt.Sprintf("%s-%s%dMB", c.Name, mode, capMB)
	return d
}

// WithMSHR derives a copy with the given L2 MSHR capacity multiplier,
// implementation kind, and dynamic-resizing flag.
func (c *Config) WithMSHR(mult int, kind MSHRKind, dynamic bool) *Config {
	d := c.Clone()
	d.L2MSHRMult = mult
	d.L2MSHRKind = kind
	d.DynamicMSHR = dynamic
	suffix := fmt.Sprintf("%dxMSHR-%s", mult, kind)
	if dynamic {
		suffix += "-dyn"
	}
	d.Name = c.Name + "-" + suffix
	return d
}
