// Package dram models the stacked (or off-chip) DRAM arrays: per-bank
// timing state machines with tRCD/tCAS/tRP/tRAS/tWR constraints,
// multi-entry row-buffer caches managed LRU (the paper's Section 4.2
// "cached DRAM"), and periodic refresh whose interval shrinks from 64ms
// to 32ms when the DRAM is stacked over a hot processor.
package dram

import (
	"fmt"

	"stackedsim/internal/attrib"
	"stackedsim/internal/config"
	"stackedsim/internal/fault"
	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
)

// Timing holds the array timing parameters converted to CPU cycles
// (rounded up, as in the paper).
type Timing struct {
	RAS sim.Cycle // activate -> precharge minimum
	RCD sim.Cycle // activate -> column command
	CAS sim.Cycle // column command -> data
	WR  sim.Cycle // write recovery before precharge
	RP  sim.Cycle // precharge duration
	RFC sim.Cycle // refresh occupancy per refresh command
}

// TimingInCycles converts nanosecond timing to CPU cycles at cpuMHz.
// tRFC is approximated as one full row cycle (tRAS+tRP); Table 1 does not
// list it and it only sets the (small) refresh overhead.
func TimingInCycles(t config.DRAMTiming, cpuMHz float64) Timing {
	return Timing{
		RAS: sim.CyclesForNanos(t.TRASns, cpuMHz),
		RCD: sim.CyclesForNanos(t.TRCDns, cpuMHz),
		CAS: sim.CyclesForNanos(t.TCASns, cpuMHz),
		WR:  sim.CyclesForNanos(t.TWRns, cpuMHz),
		RP:  sim.CyclesForNanos(t.TRPns, cpuMHz),
		RFC: sim.CyclesForNanos(t.TRASns+t.TRPns, cpuMHz),
	}
}

// rbEntry is one row-buffer-cache entry.
type rbEntry struct {
	row   int64
	dirty bool
}

// BankStats counts per-bank events.
type BankStats struct {
	Accesses  uint64
	Reads     uint64 // column reads (Accesses = Reads + Writes)
	Writes    uint64 // column writes, incl. writebacks
	RowHits   uint64
	Activates uint64
	Refreshes uint64
}

// Bank is one DRAM bank: a bitcell array fronted by a small fully-
// associative row-buffer cache. The zero value is not usable; use
// NewBank.
//
// The bank is a passive timing model driven by the memory controller: the
// controller checks Ready/HasRow to schedule, then calls Access, which
// returns the cycle at which data is available and occupies the bank
// until then.
type Bank struct {
	timing    Timing
	rb        []rbEntry // MRU first; its capacity is the cache's
	busyUntil sim.Cycle
	lastAct   sim.Cycle // most recent activate, for the tRAS constraint
	stats     BankStats

	// flt, when set, injects transient bit errors into reads (ECC
	// correction and uncorrectable-retry penalties). Nil = fault-free.
	flt *fault.MCView
}

// NewBank returns an idle bank with the given row-buffer-cache capacity:
// the one bank of a rank that never refreshes.
func NewBank(t Timing, rowBufEntries int) *Bank {
	return NewRank(t, 1, rowBufEntries, 0, 0).Banks[0]
}

// Stats returns the bank's counters.
func (b *Bank) Stats() *BankStats { return &b.stats }

// SetFaults points the bank at its controller's fault-injection view.
// A nil view (the default) is fault-free.
func (b *Bank) SetFaults(v *fault.MCView) { b.flt = v }

// Ready reports whether the bank can accept a command at cycle now.
func (b *Bank) Ready(now sim.Cycle) bool { return now >= b.busyUntil }

// BusyUntil reports when the bank frees up.
func (b *Bank) BusyUntil() sim.Cycle { return b.busyUntil }

// HasRow reports whether row is held by a row-buffer entry, i.e. whether
// an access would be a row-buffer hit. Used by FR-FCFS scheduling.
func (b *Bank) HasRow(row int64) bool {
	for _, e := range b.rb {
		if e.row == row {
			return true
		}
	}
	return false
}

// OpenRows reports the number of live row-buffer entries.
func (b *Bank) OpenRows() int { return len(b.rb) }

// touch moves the entry at index i to MRU position.
func (b *Bank) touch(i int) {
	if i == 0 {
		return
	}
	e := b.rb[i]
	copy(b.rb[1:i+1], b.rb[0:i])
	b.rb[0] = e
}

// Access performs a read or write of row at cycle now, which must satisfy
// Ready(now). It returns the cycle data is available (read) or accepted
// (write) and whether the access hit in the row-buffer cache. The bank is
// busy until the returned cycle.
func (b *Bank) Access(now sim.Cycle, row int64, write bool) (dataAt sim.Cycle, rowHit bool) {
	return b.access(now, row, write, nil)
}

// AccessTagged is Access plus cycle accounting: the array-delivery
// timestamp and the WR/precharge/activate/CAS phase split are stamped
// onto tag (nil tag = plain Access).
func (b *Bank) AccessTagged(now sim.Cycle, row int64, write bool, tag *attrib.Tag) (dataAt sim.Cycle, rowHit bool) {
	return b.access(now, row, write, tag)
}

func (b *Bank) access(now sim.Cycle, row int64, write bool, tag *attrib.Tag) (dataAt sim.Cycle, rowHit bool) {
	if now < b.busyUntil {
		panic(fmt.Sprintf("dram: Access at %d while busy until %d", now, b.busyUntil))
	}
	b.stats.Accesses++
	if write {
		b.stats.Writes++
	} else {
		b.stats.Reads++
	}
	for i := range b.rb {
		if b.rb[i].row == row {
			// Row-buffer hit: column access only.
			b.stats.RowHits++
			b.touch(i)
			if write {
				b.rb[0].dirty = true
			}
			dataAt = now + b.timing.CAS
			tag.Data(dataAt, true)
			tag.DRAMPhases(0, 0, 0, b.timing.CAS)
			dataAt = b.faultDelay(now, dataAt, write, tag)
			b.busyUntil = dataAt
			return dataAt, true
		}
	}
	// Miss: bring the row into the row-buffer cache.
	start := now
	var writeRec, precharge sim.Cycle
	if len(b.rb) == cap(b.rb) {
		// Evict the LRU entry. Its sense amps must be precharged, and a
		// dirty entry must complete write recovery first. Precharge also
		// respects the tRAS minimum since that row's activation; we
		// track the bank-wide most-recent activate as a conservative
		// proxy rather than per-entry timestamps.
		victim := b.rb[len(b.rb)-1]
		b.rb = b.rb[:len(b.rb)-1]
		if victim.dirty {
			start += b.timing.WR
			writeRec = b.timing.WR
		}
		afterWR := start
		if earliest := b.lastAct + b.timing.RAS; start < earliest {
			start = earliest
		}
		start += b.timing.RP
		// The tRAS wait counts as precharge time: the sense amps cannot
		// close the old row earlier.
		precharge = start - afterWR
	}
	// Activate the requested row into an entry, then column access.
	b.stats.Activates++
	b.lastAct = start
	b.rb = append(b.rb, rbEntry{})
	copy(b.rb[1:], b.rb[0:len(b.rb)-1])
	b.rb[0] = rbEntry{row: row, dirty: write}
	dataAt = start + b.timing.RCD + b.timing.CAS
	tag.Data(dataAt, false)
	tag.DRAMPhases(writeRec, precharge, b.timing.RCD, b.timing.CAS)
	dataAt = b.faultDelay(now, dataAt, write, tag)
	b.busyUntil = dataAt
	return dataAt, false
}

// faultDelay applies any injected bit-error penalty to a read's
// delivery: ECC correction latency, or detection plus re-reads for
// uncorrectable errors. The bank stays busy through the recovery and
// the delay is attributed to the tag's retry stage. Writes are
// unaffected (errors surface on read).
func (b *Bank) faultDelay(now, dataAt sim.Cycle, write bool, tag *attrib.Tag) sim.Cycle {
	if write || b.flt == nil {
		return dataAt
	}
	p := b.flt.ReadPenalty(now, b.timing.CAS)
	if p == 0 {
		return dataAt
	}
	tag.Retry(p)
	return dataAt + p
}

// Refresh blocks the bank for one refresh command starting no earlier
// than now (or when the bank frees up) and invalidates the row-buffer
// cache, since refresh reads and rewrites the rows through the sense
// amps. Dirty entries are written back as part of the operation.
func (b *Bank) Refresh(now sim.Cycle) {
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	b.busyUntil = start + b.timing.RFC
	b.rb = b.rb[:0]
	b.stats.Refreshes++
}

// Rank groups banks that share a refresh schedule. Smart-refresh
// skipping (see refresh.go) is enabled with EnableSmartRefresh.
type Rank struct {
	Banks    []*Bank
	interval sim.Cycle // tREFI in CPU cycles
	next     sim.Cycle
	cmd      int64 // rolling refresh command index
	trackers []*refreshTracker

	// Skipped counts refresh commands elided by smart refresh; Issued
	// counts commands actually sent (both per bank).
	Skipped uint64
	Issued  uint64
}

// rowsPerRefreshPeriod is the number of refresh commands that must be
// issued per retention period (8K-row refresh, standard for DDR2).
const rowsPerRefreshPeriod = 8192

// NewRank builds a rank of banks banks with the given timing, row-buffer
// capacity, and retention period in milliseconds (0 disables refresh).
func NewRank(t Timing, banks, rowBufEntries, refreshMS int, cpuMHz float64) *Rank {
	if banks < 1 {
		panic(fmt.Sprintf("dram: rank needs >= 1 bank, got %d", banks))
	}
	if rowBufEntries < 1 {
		panic(fmt.Sprintf("dram: row buffer entries %d must be >= 1", rowBufEntries))
	}
	// The banks are one slab and their row-buffer caches another, cut
	// into one slice per bank whose capacity is the cache's: a bank's
	// accesses fill it and never grow it.
	slab := make([]Bank, banks)
	rbs := make([]rbEntry, banks*rowBufEntries)
	r := &Rank{Banks: make([]*Bank, banks)}
	for i := range r.Banks {
		rb := rbs[i*rowBufEntries : i*rowBufEntries : (i+1)*rowBufEntries]
		slab[i] = Bank{timing: t, rb: rb, lastAct: -1 << 62}
		r.Banks[i] = &slab[i]
	}
	if refreshMS > 0 {
		ns := float64(refreshMS) * 1e6 / rowsPerRefreshPeriod
		r.interval = sim.CyclesForNanos(ns, cpuMHz)
		if r.interval < 1 {
			r.interval = 1
		}
		r.next = r.interval
	}
	return r
}

// Instrument registers the rank's metrics under the given name prefix
// (e.g. "dram.mc0.rank3"): open row-buffer entries across the banks as
// a gauge, and cumulative activate/row-hit/refresh counts summed over
// the banks.
func (r *Rank) Instrument(reg *telemetry.Registry, name string) {
	sum := func(read func(*BankStats) uint64) func() float64 {
		return func() float64 {
			var n uint64
			for _, b := range r.Banks {
				n += read(b.Stats())
			}
			return float64(n)
		}
	}
	reg.GaugeFunc(name+".openrows", func() float64 {
		n := 0
		for _, b := range r.Banks {
			n += b.OpenRows()
		}
		return float64(n)
	})
	reg.GaugeFunc(name+".rowhit", sum(func(s *BankStats) uint64 { return s.RowHits }))
	reg.GaugeFunc(name+".activates", sum(func(s *BankStats) uint64 { return s.Activates }))
	reg.GaugeFunc(name+".refreshes", sum(func(s *BankStats) uint64 { return s.Refreshes }))
	reg.GaugeFunc(name+".reads", sum(func(s *BankStats) uint64 { return s.Reads }))
	reg.GaugeFunc(name+".writes", sum(func(s *BankStats) uint64 { return s.Writes }))
}

// RefreshInterval reports tREFI in CPU cycles (0 = disabled).
func (r *Rank) RefreshInterval() sim.Cycle { return r.interval }

// NextRefresh reports the cycle the next refresh command is due; ok is
// false when refresh is disabled. Tick is a no-op on cycles before it,
// so a controller may skip straight to this cycle when it is otherwise
// idle (the engine's idle fast-path).
func (r *Rank) NextRefresh() (c sim.Cycle, ok bool) {
	if r.interval == 0 {
		return 0, false
	}
	return r.next, true
}

// Tick issues refresh commands when due. All banks in the rank refresh
// together (all-bank refresh, as in DDR2); with smart refresh enabled,
// banks whose due row group is fresh skip their command.
func (r *Rank) Tick(now sim.Cycle) {
	if r.interval == 0 || now < r.next {
		return
	}
	for i, b := range r.Banks {
		if len(r.trackers) > 0 && r.trackers[i].fresh(r.cmd, now) {
			r.Skipped++
			continue
		}
		r.Issued++
		b.Refresh(now)
	}
	r.cmd++
	r.next += r.interval
}

// ResetStats zeroes the bank counters (end of warmup).
func (b *Bank) ResetStats() { b.stats = BankStats{} }
