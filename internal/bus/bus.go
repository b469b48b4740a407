// Package bus models the shared data buses of the memory system: the
// 64-bit 833.3MHz DDR front-side bus of the 2D baseline, and the on-stack
// TSV buses of the 3D organizations (core-clocked, optionally widened to
// a full cache line — the paper's "3D-wide").
//
// The model is a reservation timeline: a transfer occupies the bus for
// ceil(bytes/width) beats, each beat taking divider CPU cycles (halved
// when double-data-rate). Requests arriving while the bus is busy queue
// behind the current reservation; the accumulated wait is the bus
// contention that Section 3 identifies as a first-order bottleneck.
package bus

import (
	"fmt"

	"stackedsim/internal/attrib"
	"stackedsim/internal/fault"
	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
)

// Stats counts bus activity.
type Stats struct {
	Bytes      uint64 // payload bytes moved
	BusyCycles uint64 // cycles the wires were driven
	WaitCycles uint64 // cycles transfers spent queued behind others
}

// Bus is a single shared data path.
type Bus struct {
	widthBytes int
	div        sim.Cycle
	ddr        bool
	nextFree   sim.Cycle
	stats      Stats

	// flt, when set, injects TSV link faults: dead windows push
	// transfers out, degraded windows stretch them. Nil = fault-free.
	flt *fault.MCView
}

// New returns a bus of widthBytes data width whose clock is the CPU clock
// divided by divider, optionally double-pumped (DDR).
func New(widthBytes, divider int, ddr bool) *Bus {
	if widthBytes < 1 || divider < 1 {
		panic(fmt.Sprintf("bus: width %d / divider %d must be >= 1", widthBytes, divider))
	}
	return &Bus{widthBytes: widthBytes, div: sim.Cycle(divider), ddr: ddr}
}

// Stats returns the counters.
func (b *Bus) Stats() *Stats { return &b.stats }

// SetFaults points the bus at its controller's fault-injection view.
// A nil view (the default) is fault-free.
func (b *Bus) SetFaults(v *fault.MCView) { b.flt = v }

// TransferCycles reports how many CPU cycles moving n bytes occupies the
// bus: ceil(n/width) beats at divider CPU cycles per beat (halved for
// DDR), minimum one cycle.
func (b *Bus) TransferCycles(n int) sim.Cycle {
	if n <= 0 {
		return 0
	}
	beats := sim.Cycle((n + b.widthBytes - 1) / b.widthBytes)
	per := b.div
	if b.ddr {
		per = (per + 1) / 2
	}
	c := beats * per
	if c < 1 {
		c = 1
	}
	return c
}

// TransferCyclesAt is TransferCycles under the link conditions at
// cycle at: a degraded TSV link stretches the transfer by its width
// factor. Callers estimating delivery times (critical-word-first)
// must use this so their estimate matches what Reserve will book.
func (b *Bus) TransferCyclesAt(at sim.Cycle, n int) sim.Cycle {
	c := b.TransferCycles(n)
	if f := b.flt.LinkFactor(at); f > 1 {
		c *= sim.Cycle(f)
	}
	return c
}

// Reserve books the bus for an n-byte transfer that is ready at cycle
// now. It returns when the transfer starts (after any queued wait) and
// when the last byte is delivered. Zero-byte transfers return (now, now)
// without touching the bus.
func (b *Bus) Reserve(now sim.Cycle, n int) (start, end sim.Cycle) {
	dur := b.TransferCycles(n)
	if dur == 0 {
		return now, now
	}
	start = now
	if b.nextFree > start {
		b.stats.WaitCycles += uint64(b.nextFree - start)
		start = b.nextFree
	}
	if b.flt != nil {
		// A dead link window pushes the burst past its end; a degraded
		// window stretches the transfer by the width factor.
		start = b.flt.LinkDelay(start)
		if f := b.flt.LinkFactor(start); f > 1 {
			dur *= sim.Cycle(f)
			b.flt.NoteDegraded()
		}
	}
	end = start + dur
	b.nextFree = end
	b.stats.Bytes += uint64(n)
	b.stats.BusyCycles += uint64(dur)
	return start, end
}

// ReserveTagged is Reserve plus cycle accounting: the burst-start
// cycle (after any queued wait) is stamped onto tag, so the tag's bus
// stage separates channel contention from the transfer itself (nil tag
// = plain Reserve).
func (b *Bus) ReserveTagged(now sim.Cycle, n int, tag *attrib.Tag) (start, end sim.Cycle) {
	start, end = b.Reserve(now, n)
	tag.Burst(start)
	return start, end
}

// Instrument registers the bus counters under the given name prefix
// (e.g. "bus0"). The sampled series are cumulative; per-interval rates
// are first differences in post-processing.
func (b *Bus) Instrument(reg *telemetry.Registry, name string) {
	reg.GaugeFunc(name+".busy_cycles", func() float64 { return float64(b.stats.BusyCycles) })
	reg.GaugeFunc(name+".wait_cycles", func() float64 { return float64(b.stats.WaitCycles) })
	reg.GaugeFunc(name+".bytes", func() float64 { return float64(b.stats.Bytes) })
}

// Utilization reports BusyCycles over the given elapsed cycles.
func (b *Bus) Utilization(elapsed sim.Cycle) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(b.stats.BusyCycles) / float64(elapsed)
}

// ResetStats zeroes the counters (end of warmup).
func (b *Bus) ResetStats() { b.stats = Stats{} }
