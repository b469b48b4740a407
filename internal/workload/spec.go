// Package workload provides synthetic stand-ins for the paper's
// benchmarks (Table 2a) and the multi-programmed mixes built from them
// (Table 2b).
//
// The real binaries (SPEC 2000/2006, BioBench, MediaBench, MiBench,
// Stream) and their SimPoint samples are not available here, so each
// benchmark is modeled as a parameterized μop-stream generator that
// reproduces the properties the evaluation actually depends on: the L2
// miss rate band, spatial locality (row-buffer friendliness), memory-
// level parallelism (independent streams vs dependent pointer chases),
// and store intensity. Footprints are chosen so that the 6MB/12MB L2s of
// the paper land in the same hit/miss regime as the originals.
package workload

import "fmt"

// Pattern classifies a generator's address behaviour.
type Pattern int

const (
	// Streaming walks one or more arrays sequentially, never reusing a
	// line (Stream, libquantum, lbm).
	Streaming Pattern = iota
	// Strided walks arrays with a fixed large stride (dense FP codes:
	// swim, mgrid, applu, milc...).
	Strided
	// RandomAccess touches uniformly random lines of the footprint with
	// full MLP (tigr, mummer).
	RandomAccess
	// PointerChase touches random lines with each load dependent on the
	// previous one (mcf, omnetpp, astar).
	PointerChase
	// Mixed alternates sequential runs with random jumps (qsort, gzip,
	// bzip2, integer codes).
	Mixed
	// ProducerConsumer writes a sliding window of shared lines and reads
	// a trailing window, so lines migrate core-to-core through the
	// coherence protocol (many-core runs; single-core runs see plain
	// read/write traffic on a small region).
	ProducerConsumer
	// LockContended hammers a handful of shared lock lines with
	// load-then-store sequences, the worst case for invalidation and
	// ownership-transfer traffic.
	LockContended
	// ReadMostlyShared reads random lines of a shared table with rare
	// stores, each of which invalidates every reader's copy.
	ReadMostlyShared
)

func (p Pattern) String() string {
	switch p {
	case Streaming:
		return "streaming"
	case Strided:
		return "strided"
	case RandomAccess:
		return "random"
	case PointerChase:
		return "chase"
	case Mixed:
		return "mixed"
	case ProducerConsumer:
		return "producer-consumer"
	case LockContended:
		return "lock-contended"
	case ReadMostlyShared:
		return "read-mostly-shared"
	}
	return "unknown"
}

// SharedPattern reports whether p emits μops into the process-wide
// shared region (mem.SharedSpace) rather than per-core private space.
func (p Pattern) SharedPattern() bool {
	switch p {
	case ProducerConsumer, LockContended, ReadMostlyShared:
		return true
	}
	return false
}

// Spec describes one benchmark's synthetic model.
type Spec struct {
	Name      string
	Suite     string
	PaperMPKI float64 // Table 2a, 6MB L2, single-threaded

	Pattern   Pattern
	Footprint uint64  // bytes of distinct data touched
	Streams   int     // concurrent arrays for Streaming/Strided
	ElemBytes uint64  // bytes consumed per memory μop along a stream
	Stride    uint64  // address step between stream elements
	MemFrac   float64 // fraction of μops that touch memory
	StoreFrac float64 // fraction of memory μops that are stores
	Mispred   float64 // branch mispredictions per μop
	RandFrac  float64 // for Mixed: probability a memory μop jumps

	// ColdFrac is the fraction of memory μops that follow the cold
	// (pattern-driven, cache-missing) path; the remainder walk a small
	// L1-resident hot ring. It is the primary MPKI calibration knob:
	// MPKI ≈ 1000 · MemFrac · ColdFrac · P(line boundary). Zero means 1.0
	// (all cold).
	ColdFrac float64
	// HotBytes sizes the hot ring (default 16KB, L1-resident).
	HotBytes uint64

	// SharedBytes sizes the process-wide shared region the shared
	// patterns (ProducerConsumer, LockContended, ReadMostlyShared)
	// touch. Every core addresses the same region, so in coherent
	// many-core mode these μops drive the directory protocol.
	SharedBytes uint64
}

// EffectiveColdFrac returns ColdFrac with its zero-default applied.
func (s Spec) EffectiveColdFrac() float64 {
	if s.ColdFrac == 0 {
		return 1.0
	}
	return s.ColdFrac
}

// EffectiveHotBytes returns HotBytes with its zero-default applied.
func (s Spec) EffectiveHotBytes() uint64 {
	if s.HotBytes == 0 {
		return 16 * kb
	}
	return s.HotBytes
}

const (
	kb = 1024
	mb = 1024 * 1024
)

// Validate reports the first problem that would make NewGenerator
// panic or emit a degenerate stream: a footprint too small to hold a
// cache line, a fraction outside its range, a stream pattern with no
// step, or an unknown pattern.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("workload: empty name")
	case s.Footprint < 64:
		return fmt.Errorf("workload %s: footprint %d below one cache line", s.Name, s.Footprint)
	case s.MemFrac <= 0 || s.MemFrac > 1:
		return fmt.Errorf("workload %s: MemFrac %v outside (0, 1]", s.Name, s.MemFrac)
	case s.StoreFrac < 0 || s.StoreFrac > 1:
		return fmt.Errorf("workload %s: StoreFrac %v outside [0, 1]", s.Name, s.StoreFrac)
	case s.RandFrac < 0 || s.RandFrac > 1:
		return fmt.Errorf("workload %s: RandFrac %v outside [0, 1]", s.Name, s.RandFrac)
	case s.Mispred < 0 || s.Mispred >= 1:
		return fmt.Errorf("workload %s: Mispred %v outside [0, 1)", s.Name, s.Mispred)
	case s.ColdFrac < 0 || s.ColdFrac > 1:
		return fmt.Errorf("workload %s: ColdFrac %v outside [0, 1]", s.Name, s.ColdFrac)
	case s.Streams < 0:
		return fmt.Errorf("workload %s: %d streams", s.Name, s.Streams)
	}
	switch s.Pattern {
	case Streaming, Strided:
		if s.Stride == 0 || s.ElemBytes == 0 {
			return fmt.Errorf("workload %s: %s pattern needs Stride and ElemBytes > 0 (got %d/%d)",
				s.Name, s.Pattern, s.Stride, s.ElemBytes)
		}
		streams := s.Streams
		if streams < 1 {
			streams = 1
		}
		if s.Footprint/uint64(streams) < s.ElemBytes {
			return fmt.Errorf("workload %s: %d streams leave less than one %d-byte element each",
				s.Name, streams, s.ElemBytes)
		}
	case RandomAccess, PointerChase, Mixed:
	case ProducerConsumer, LockContended, ReadMostlyShared:
		if s.SharedBytes < 64 {
			return fmt.Errorf("workload %s: %s pattern needs SharedBytes >= one cache line (got %d)",
				s.Name, s.Pattern, s.SharedBytes)
		}
	default:
		return fmt.Errorf("workload %s: unknown pattern %d", s.Name, int(s.Pattern))
	}
	return nil
}

// CapacitySpec returns a capacity-stress workload with a working set
// of exactly sizeMB: sequential runs punctuated by uniform random
// jumps over the footprint and no hot ring, so reuse exists (page
// fills amortize) but only a cache at least as large as the footprint
// captures it. The stackcap experiment sweeps it against stack
// capacities to show the memory/cache/memcache crossover. ByName
// resolves "cap<N>m".
func CapacitySpec(sizeMB int) Spec {
	return Spec{
		Name:      fmt.Sprintf("cap%dm", sizeMB),
		Suite:     "synthetic",
		Pattern:   Mixed,
		RandFrac:  0.7,
		Footprint: uint64(sizeMB) * mb,
		MemFrac:   0.40,
		StoreFrac: 0.20,
		Mispred:   0.002,
		ColdFrac:  1,
	}
}

// SharedSpecs are the shared-data microbenchmarks driving the
// directory-MESI coherence protocol in many-core mode. They are kept
// out of Specs (the pinned Table 2a list) but resolve through ByName.
var SharedSpecs = []Spec{
	{Name: "producer-consumer", Suite: "coherence", Pattern: ProducerConsumer,
		Footprint: 4 * mb, SharedBytes: 256 * kb,
		MemFrac: 0.35, StoreFrac: 0.50, Mispred: 0.002, ColdFrac: 1},
	{Name: "lock-contended", Suite: "coherence", Pattern: LockContended,
		Footprint: 4 * mb, SharedBytes: 32 * kb,
		MemFrac: 0.30, StoreFrac: 0.50, Mispred: 0.004, ColdFrac: 1},
	{Name: "read-mostly-shared", Suite: "coherence", Pattern: ReadMostlyShared,
		Footprint: 4 * mb, SharedBytes: 2 * mb,
		MemFrac: 0.35, StoreFrac: 0.02, Mispred: 0.002, ColdFrac: 1},
}

// Specs is the Table 2a benchmark list. PaperMPKI values are copied from
// the paper; the generator parameters are this reproduction's
// calibration.
var Specs = []Spec{
	{Name: "S.copy", Suite: "Stream", PaperMPKI: 326.9, Pattern: Streaming, Footprint: 64 * mb, Streams: 2, ElemBytes: 32, Stride: 32, MemFrac: 0.62, StoreFrac: 0.50, Mispred: 0.001},
	{Name: "S.add", Suite: "Stream", PaperMPKI: 313.2, Pattern: Streaming, Footprint: 96 * mb, Streams: 3, ElemBytes: 32, Stride: 32, MemFrac: 0.60, StoreFrac: 0.33, Mispred: 0.001},
	{Name: "S.all", Suite: "Stream", PaperMPKI: 282.2, Pattern: Streaming, Footprint: 96 * mb, Streams: 3, ElemBytes: 32, Stride: 32, MemFrac: 0.55, StoreFrac: 0.40, Mispred: 0.001},
	{Name: "S.triad", Suite: "Stream", PaperMPKI: 254.0, Pattern: Streaming, Footprint: 96 * mb, Streams: 3, ElemBytes: 32, Stride: 32, MemFrac: 0.45, StoreFrac: 0.33, Mispred: 0.001},
	{Name: "S.scale", Suite: "Stream", PaperMPKI: 252.1, Pattern: Streaming, Footprint: 64 * mb, Streams: 2, ElemBytes: 32, Stride: 32, MemFrac: 0.45, StoreFrac: 0.50, Mispred: 0.001},
	{Name: "tigr", Suite: "BioBench", PaperMPKI: 170.6, Pattern: RandomAccess, Footprint: 64 * mb, MemFrac: 0.40, StoreFrac: 0.05, Mispred: 0.004, ColdFrac: 0.34},
	{Name: "qsort", Suite: "MiBench", PaperMPKI: 153.6, Pattern: Mixed, Footprint: 48 * mb, RandFrac: 0.8, MemFrac: 0.42, StoreFrac: 0.35, Mispred: 0.006, ColdFrac: 1},
	{Name: "libquantum", Suite: "I'06", PaperMPKI: 134.5, Pattern: Streaming, Footprint: 48 * mb, Streams: 1, ElemBytes: 32, Stride: 32, MemFrac: 0.40, StoreFrac: 0.25, Mispred: 0.002, ColdFrac: 0.54},
	{Name: "soplex", Suite: "F'06", PaperMPKI: 80.2, Pattern: Mixed, Footprint: 48 * mb, RandFrac: 0.35, MemFrac: 0.35, StoreFrac: 0.15, Mispred: 0.005, ColdFrac: 0.75},
	{Name: "milc", Suite: "F'06", PaperMPKI: 52.6, Pattern: Strided, Footprint: 48 * mb, Streams: 4, ElemBytes: 64, Stride: 256, MemFrac: 0.33, StoreFrac: 0.20, Mispred: 0.002, ColdFrac: 0.24},
	{Name: "wupwise", Suite: "F'00", PaperMPKI: 40.4, Pattern: Strided, Footprint: 32 * mb, Streams: 3, ElemBytes: 64, Stride: 320, MemFrac: 0.30, StoreFrac: 0.20, Mispred: 0.002, ColdFrac: 0.2},
	{Name: "equake", Suite: "F'00", PaperMPKI: 37.3, Pattern: Mixed, Footprint: 32 * mb, RandFrac: 0.9, MemFrac: 0.33, StoreFrac: 0.15, Mispred: 0.003, ColdFrac: 0.55},
	{Name: "lbm", Suite: "F'06", PaperMPKI: 36.5, Pattern: Streaming, Footprint: 64 * mb, Streams: 2, ElemBytes: 160, Stride: 160, MemFrac: 0.38, StoreFrac: 0.45, Mispred: 0.001, ColdFrac: 0.13},
	{Name: "mcf", Suite: "I'06", PaperMPKI: 35.1, Pattern: PointerChase, Footprint: 48 * mb, MemFrac: 0.32, StoreFrac: 0.10, Mispred: 0.008, ColdFrac: 0.11},
	{Name: "mummer", Suite: "BioBench", PaperMPKI: 29.2, Pattern: RandomAccess, Footprint: 32 * mb, MemFrac: 0.30, StoreFrac: 0.05, Mispred: 0.004, ColdFrac: 0.086},
	{Name: "swim", Suite: "F'00", PaperMPKI: 18.7, Pattern: Strided, Footprint: 24 * mb, Streams: 3, ElemBytes: 64, Stride: 512, MemFrac: 0.30, StoreFrac: 0.25, Mispred: 0.001, ColdFrac: 0.095},
	{Name: "omnetpp", Suite: "I'06", PaperMPKI: 14.6, Pattern: PointerChase, Footprint: 20 * mb, MemFrac: 0.28, StoreFrac: 0.20, Mispred: 0.007, ColdFrac: 0.046},
	{Name: "applu", Suite: "F'06", PaperMPKI: 12.2, Pattern: Strided, Footprint: 18 * mb, Streams: 2, ElemBytes: 64, Stride: 640, MemFrac: 0.30, StoreFrac: 0.20, Mispred: 0.001, ColdFrac: 0.06},
	{Name: "mgrid", Suite: "F'06", PaperMPKI: 9.2, Pattern: Strided, Footprint: 14 * mb, Streams: 2, ElemBytes: 64, Stride: 768, MemFrac: 0.30, StoreFrac: 0.15, Mispred: 0.001, ColdFrac: 0.046},
	{Name: "apsi", Suite: "F'06", PaperMPKI: 3.9, Pattern: Strided, Footprint: 8 * mb, Streams: 2, ElemBytes: 64, Stride: 512, MemFrac: 0.28, StoreFrac: 0.15, Mispred: 0.002, ColdFrac: 0.021},
	{Name: "h264", Suite: "Media-II", PaperMPKI: 2.9, Pattern: Mixed, Footprint: 32 * mb, RandFrac: 0.9, MemFrac: 0.30, StoreFrac: 0.25, Mispred: 0.005, ColdFrac: 0.058},
	{Name: "mesa", Suite: "Media-I", PaperMPKI: 2.4, Pattern: Mixed, Footprint: 32 * mb, RandFrac: 0.9, MemFrac: 0.28, StoreFrac: 0.25, Mispred: 0.003, ColdFrac: 0.051},
	{Name: "gzip", Suite: "I'00", PaperMPKI: 1.4, Pattern: Mixed, Footprint: 32 * mb, RandFrac: 0.9, MemFrac: 0.30, StoreFrac: 0.25, Mispred: 0.006, ColdFrac: 0.028},
	{Name: "astar", Suite: "I'06", PaperMPKI: 1.4, Pattern: PointerChase, Footprint: 2 * mb, MemFrac: 0.28, StoreFrac: 0.10, Mispred: 0.008, ColdFrac: 0.0044},
	{Name: "zeusmp", Suite: "F'06", PaperMPKI: 1.4, Pattern: Strided, Footprint: 3 * mb, Streams: 2, ElemBytes: 64, Stride: 256, MemFrac: 0.28, StoreFrac: 0.20, Mispred: 0.002, ColdFrac: 0.0075},
	{Name: "bzip2", Suite: "I'06", PaperMPKI: 1.4, Pattern: Mixed, Footprint: 32 * mb, RandFrac: 0.9, MemFrac: 0.30, StoreFrac: 0.25, Mispred: 0.006, ColdFrac: 0.028},
	{Name: "vortex", Suite: "I'00", PaperMPKI: 1.3, Pattern: Mixed, Footprint: 32 * mb, RandFrac: 0.9, MemFrac: 0.30, StoreFrac: 0.25, Mispred: 0.005, ColdFrac: 0.026},
	{Name: "namd", Suite: "F'06", PaperMPKI: 1.0, Pattern: Strided, Footprint: 16 * mb, Streams: 2, ElemBytes: 64, Stride: 128, MemFrac: 0.28, StoreFrac: 0.15, Mispred: 0.002, ColdFrac: 0.009},
}

// ByName returns the spec for a benchmark name. Besides the Table 2a
// list it resolves "cap<N>m" to CapacitySpec(N), e.g. "cap16m".
func ByName(name string) (Spec, bool) {
	for _, s := range Specs {
		if s.Name == name {
			return s, true
		}
	}
	for _, s := range SharedSpecs {
		if s.Name == name {
			return s, true
		}
	}
	var sizeMB int
	if n, err := fmt.Sscanf(name, "cap%dm", &sizeMB); err == nil && n == 1 && sizeMB > 0 {
		if s := CapacitySpec(sizeMB); s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Mix is one Table 2b multi-programmed workload.
type Mix struct {
	Name       string
	Group      string // H, VH, HM, M
	Benchmarks [4]string
	PaperHMIPC float64 // baseline 2D HMIPC from Table 2b
}

// Mixes is the Table 2b list.
var Mixes = []Mix{
	{Name: "H1", Group: "H", Benchmarks: [4]string{"S.all", "libquantum", "wupwise", "mcf"}, PaperHMIPC: 0.153},
	{Name: "H2", Group: "H", Benchmarks: [4]string{"tigr", "soplex", "equake", "mummer"}, PaperHMIPC: 0.105},
	{Name: "H3", Group: "H", Benchmarks: [4]string{"qsort", "milc", "lbm", "swim"}, PaperHMIPC: 0.406},
	{Name: "VH1", Group: "VH", Benchmarks: [4]string{"S.all", "S.all", "S.all", "S.all"}, PaperHMIPC: 0.065},
	{Name: "VH2", Group: "VH", Benchmarks: [4]string{"S.copy", "S.scale", "S.add", "S.triad"}, PaperHMIPC: 0.058},
	{Name: "VH3", Group: "VH", Benchmarks: [4]string{"tigr", "libquantum", "qsort", "soplex"}, PaperHMIPC: 0.098},
	{Name: "HM1", Group: "HM", Benchmarks: [4]string{"tigr", "equake", "applu", "astar"}, PaperHMIPC: 0.138},
	{Name: "HM2", Group: "HM", Benchmarks: [4]string{"libquantum", "mcf", "apsi", "bzip2"}, PaperHMIPC: 0.386},
	{Name: "HM3", Group: "HM", Benchmarks: [4]string{"milc", "swim", "mesa", "namd"}, PaperHMIPC: 0.907},
	{Name: "M1", Group: "M", Benchmarks: [4]string{"omnetpp", "apsi", "gzip", "bzip2"}, PaperHMIPC: 1.323},
	{Name: "M2", Group: "M", Benchmarks: [4]string{"applu", "h264", "astar", "vortex"}, PaperHMIPC: 1.319},
	{Name: "M3", Group: "M", Benchmarks: [4]string{"mgrid", "mesa", "zeusmp", "namd"}, PaperHMIPC: 1.523},
}

// MixByName returns the mix with the given name.
func MixByName(name string) (Mix, bool) {
	for _, m := range Mixes {
		if m.Name == name {
			return m, true
		}
	}
	return Mix{}, false
}

// MixNames returns every mix name in table order.
func MixNames() []string {
	names := make([]string, len(Mixes))
	for i, m := range Mixes {
		names[i] = m.Name
	}
	return names
}
