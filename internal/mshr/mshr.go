// Package mshr implements the miss-status handling register files of the
// paper: the idealized fully-associative CAM, the direct-mapped table with
// linear probing, and the Vector-Bloom-Filter-accelerated table of
// Section 5, plus the sampling-based dynamic capacity tuner.
//
// All three kinds share the same storage (a vbf.Table, which is a correct
// associative store), so hit/miss behaviour and merging are identical
// across kinds; only the probe-count accounting — and therefore the
// simulated lookup latency — differs. This mirrors the paper, where the
// VBF design targets the latency/scalability of the structure, not its
// semantics.
package mshr

import (
	"fmt"

	"stackedsim/internal/config"
	"stackedsim/internal/fault"
	"stackedsim/internal/mem"
	"stackedsim/internal/sim"
	"stackedsim/internal/stats"
	"stackedsim/internal/telemetry"
	"stackedsim/internal/vbf"
)

// Entry tracks one outstanding miss line and the requests merged into it.
type Entry struct {
	Line    mem.Addr
	slot    int
	Waiters sim.List[*mem.Request] // all requests for this line, primary first
	Dirty   bool                   // a merged write must leave the line dirty
}

// Primary returns the request that allocated the entry.
func (e *Entry) Primary() *mem.Request { return e.Waiters.Head() }

// Merge attaches a secondary miss. A request joining a live entry
// (i.e. any waiter after the primary) overlaps the primary's lifecycle,
// so its attribution tag, if any, collapses to a merged-latency-only
// observation.
func (e *Entry) Merge(r *mem.Request) {
	if e.Waiters.Head() != nil {
		r.Attrib.MarkMerged()
	}
	e.Waiters.Push(r, &r.Link)
	if r.Kind == mem.Write {
		e.Dirty = true
	}
}

// Stats aggregates File counters.
type Stats struct {
	Accesses    uint64 // lookups
	Allocs      uint64
	Releases    uint64 // entries freed
	Probes      uint64 // total entry probes across lookups
	ProbeCounts *stats.Histogram
}

// ProbesPerAccess reports mean probes per lookup — the §5.2 metric
// (2.31 dual-MC, 2.21 quad-MC in the paper).
func (s *Stats) ProbesPerAccess() float64 { return stats.Ratio(s.Probes, s.Accesses) }

// File is one MSHR bank.
type File struct {
	kind    config.MSHRKind
	table   *vbf.Table
	entries []*Entry // indexed by table slot
	stats   Stats
	changes uint64 // entries allocated and released, limits set

	// probeDist, when instrumented, mirrors per-lookup probe counts
	// into the telemetry registry (nil = disabled, no-op).
	probeDist *telemetry.Distribution

	// flt, when set, injects probe parity errors: an affected lookup
	// costs one extra probe (the re-read after the parity check
	// fails). Nil = fault-free.
	flt *fault.MSHRView

	// owner, when set, is woken when the active limit rises: like a
	// released entry, room a full bank did not have before.
	owner *sim.TickHandle

	// pool recycles released entries so steady-state miss traffic
	// allocates no Entry objects.
	pool sim.Pool[Entry]
}

// New returns an empty MSHR bank of the given kind and capacity.
func New(kind config.MSHRKind, capacity int) *File {
	if capacity < 1 {
		panic(fmt.Sprintf("mshr: capacity %d must be >= 1", capacity))
	}
	return &File{
		kind:    kind,
		table:   vbf.NewTable(capacity),
		entries: make([]*Entry, capacity),
		stats:   Stats{ProbeCounts: stats.NewHistogram(capacity + 1)},
	}
}

// Kind reports the implementation kind.
func (f *File) Kind() config.MSHRKind { return f.kind }

// Cap reports total entries.
func (f *File) Cap() int { return f.table.Cap() }

// Limit reports the active capacity.
func (f *File) Limit() int { return f.table.Limit() }

// SetLimit adjusts the active capacity (dynamic tuning).
func (f *File) SetLimit(n int) {
	was := f.table.Limit()
	f.table.SetLimit(n)
	f.changes++
	if f.table.Limit() > was {
		f.owner.Wake()
	}
}

// WakeOnGrow names the component to wake when the active limit rises,
// so whoever a full bank turned away need not poll it every cycle. (An
// entry is released only by that component's own fill handling.)
func (f *File) WakeOnGrow(owner *sim.TickHandle) { f.owner = owner }

// Changes reports how many times the bank has changed: while the count
// stands, a repeated lookup finds what the last one found, in as many
// probes, and Full answers as it did. Whoever a full bank turned away can
// tell from it that asking again is pointless — and count the repeat with
// Relookup instead.
func (f *File) Changes() uint64 { return f.changes }

// Len reports live entries.
func (f *File) Len() int { return f.table.Len() }

// Full reports whether Allocate would fail.
func (f *File) Full() bool { return f.table.Full() }

// Stats returns a snapshot pointer (read-only use intended).
func (f *File) Stats() *Stats { return &f.stats }

// SetFaults points the bank at the fault injector's MSHR view. A nil
// view (the default) is fault-free.
func (f *File) SetFaults(v *fault.MSHRView) { f.flt = v }

// DrawsFaults reports whether a lookup can draw from the fault
// injector's random stream. Such lookups are events of their own — a
// repeat is not known to cost what the last one did, and skipping one
// shifts the stream under every other fault site — so they can be
// neither skipped nor counted by Relookup.
func (f *File) DrawsFaults() bool { return f.flt.Draws() }

// key converts a line address to the table key. Low bits below the line
// offset are already stripped by the caller; dividing by the line size
// spreads consecutive lines across consecutive slots, matching the mod-N
// indexing of the paper's example.
func key(line mem.Addr) uint64 { return uint64(line) / 64 }

// Lookup searches for line. probes is the simulated entry-access count:
// always 1 for the ideal CAM, the filtered walk for VBF, and the full
// linear scan otherwise.
func (f *File) Lookup(line mem.Addr) (e *Entry, probes int, found bool) {
	var slot int
	switch f.kind {
	case config.MSHRIdealCAM:
		slot, _, found = f.table.Search(key(line))
		probes = 1
	case config.MSHRVBF:
		slot, probes, found = f.table.Search(key(line))
	case config.MSHRLinearProbe:
		slot, probes, found = f.table.SearchLinear(key(line))
	default:
		panic(fmt.Sprintf("mshr: unknown kind %v", f.kind))
	}
	if f.flt.ProbeParity() {
		probes++
	}
	f.stats.Accesses++
	f.stats.Probes += uint64(probes)
	f.stats.ProbeCounts.Add(probes)
	f.probeDist.Observe(probes)
	if !found {
		return nil, probes, false
	}
	return f.entries[slot], probes, true
}

// Relookup counts n repeats of a lookup that missed in probes entry
// probes, exactly as n Lookup calls on the unchanged table would.
func (f *File) Relookup(probes int, n uint64) {
	f.stats.Accesses += n
	f.stats.Probes += uint64(probes) * n
	f.stats.ProbeCounts.AddN(probes, n)
	f.probeDist.ObserveN(probes, n)
}

// Allocate creates an entry for line with r as the primary miss. The
// caller must have established via Lookup that the line is absent.
func (f *File) Allocate(line mem.Addr, r *mem.Request) (*Entry, bool) {
	slot, ok := f.table.Allocate(key(line))
	if !ok {
		return nil, false
	}
	f.stats.Allocs++
	f.changes++
	e := f.pool.Get()
	*e = Entry{Line: line, slot: slot}
	if r != nil {
		e.Merge(r)
	}
	f.entries[slot] = e
	return e, true
}

// Release frees the entry (after its fill completed and its waiters
// were popped and serviced).
func (f *File) Release(e *Entry) {
	if f.entries[e.slot] != e {
		panic(fmt.Sprintf("mshr: Release of stale entry for line %#x", uint64(e.Line)))
	}
	f.table.Free(e.slot)
	f.entries[e.slot] = nil
	f.stats.Releases++
	f.changes++
	f.pool.Put(e)
}

// Instrument registers this bank's metrics under the given name prefix
// (e.g. "l2.mshr0"): live occupancy and active limit as gauges, plus
// the per-lookup probe-count distribution. A nil registry disables
// everything at zero cost.
func (f *File) Instrument(reg *telemetry.Registry, name string) {
	reg.GaugeFunc(name+".occupancy", func() float64 { return float64(f.Len()) })
	reg.GaugeFunc(name+".limit", func() float64 { return float64(f.Limit()) })
	f.probeDist = reg.Distribution(name + ".probes")
}

// ForEach visits every live entry (slot order).
func (f *File) ForEach(fn func(*Entry)) {
	for _, e := range f.entries {
		if e != nil {
			fn(e)
		}
	}
}

// ResetStats zeroes the counters (end of warmup).
func (f *File) ResetStats() {
	f.stats = Stats{ProbeCounts: stats.NewHistogram(f.Cap() + 1)}
}
