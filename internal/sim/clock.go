package sim

// Divider models a clock domain whose frequency is the CPU frequency
// divided by an integer ratio. A ratio of 1 is the CPU domain itself.
//
// The paper's baseline runs the FSB and off-chip memory controller at
// 833.3 MHz against a 3.333 GHz core — a divider of 4 — while the
// 3D-stacked organizations run them at core speed (divider 1).
type Divider struct {
	ratio Cycle
}

// NewDivider returns a divider with the given CPU-cycles-per-domain-cycle
// ratio. Ratios below 1 are rounded up to 1.
func NewDivider(ratio int) Divider {
	if ratio < 1 {
		ratio = 1
	}
	return Divider{ratio: Cycle(ratio)}
}

// Ratio reports CPU cycles per domain cycle.
func (d Divider) Ratio() Cycle { return d.ratio }

// Edge reports whether the slower domain has a rising edge at CPU cycle
// now, i.e. whether a component in this domain should act.
func (d Divider) Edge(now Cycle) bool { return now%d.ratio == 0 }

// ToCPU converts a duration in domain cycles to CPU cycles.
func (d Divider) ToCPU(domainCycles Cycle) Cycle { return domainCycles * d.ratio }

// NextEdge reports the first cycle >= now at which the domain has an edge.
func (d Divider) NextEdge(now Cycle) Cycle {
	if rem := now % d.ratio; rem != 0 {
		return now + d.ratio - rem
	}
	return now
}

// CyclesForNanos converts a duration in nanoseconds to CPU cycles at the
// given CPU frequency in MHz, rounding up so that timing constraints are
// never optimistically shortened. This matches the paper's note that all
// DRAM timings are rounded up to integral multiples of the CPU cycle time.
func CyclesForNanos(ns float64, cpuMHz float64) Cycle {
	if ns <= 0 {
		return 0
	}
	cycles := ns * cpuMHz / 1e3
	c := Cycle(cycles)
	if float64(c) < cycles {
		c++
	}
	return c
}
