package cpu

import "stackedsim/internal/sim"

// InstantPort is the tests' instantPort, for the benchmarks of package
// cpu_test, which may import the workload generators (package cpu may
// not: they import it).
type InstantPort = instantPort

// Pump completes every request the port holds, at now.
func (p *instantPort) Pump(now sim.Cycle) { p.pump(now) }
