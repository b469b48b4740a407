package powerthermal

import "fmt"

// The thermal model: a one-dimensional RC network of the die stack,
// standing in for the HotSpot analysis the paper performs but omits for
// space. The qualitative result it must reproduce (Section 2.4): the
// worst-case temperature anywhere in the DRAM stack stays within the
// DRAM's rated thermal limit.
//
// Heat flows from every die through the dies below it into the heat
// sink (Figure 2 topology: sink, then the processor die, then the DRAM
// dies). In steady state the temperature rise across each interface is
// the interface's thermal resistance times the total power flowing
// through it — the power dissipated at or above that interface. With
// per-die heat capacities the same network is a first-order RC chain,
// integrated with an explicit-Euler scheme whose exact fixed point is
// that steady state: at the fixed point the net heat flow into every
// die is zero, which telescopes into the same prefix-sum relation the
// closed form solves.
//
// This is a deliberate simplification of a HotSpot-style analysis: one
// node per die (no lateral resolution), constant resistances and
// capacities, and heat sunk only through the bottom of the stack. See
// docs/OBSERVABILITY.md for the assumption list.

// DRAMThermalLimitC is the maximum operating temperature of the Samsung
// DDR2 parts the paper bases its memory on (85C standard rating; the
// paper compensates for on-stack heat with a 32ms refresh).
const DRAMThermalLimitC = 85.0

// The network's constants.
const (
	// RSinkKPerW is the sink+spreader resistance to ambient of a
	// high-end heat sink.
	RSinkKPerW = 0.25
	// RLayerKPerW is the resistance of one thinned die plus its
	// thermocompression bond. Thinned wafers (10-100um) keep it small.
	RLayerKPerW = 0.08
	// AmbientC is the in-case ambient temperature.
	AmbientC = 45.0
	// dimmRKPerW is the junction-to-ambient resistance of an off-chip
	// DRAM device on a DIMM in case airflow — no heat sink, but also no
	// processor underneath.
	dimmRKPerW = 3.0

	// Lumped heat capacities. A 100mm2 silicon die is ~1.6 J/(K*cm3);
	// at full 300um thickness that is ~0.05 J/K plus spreader mass for
	// the processor, and ~0.01 J/K for a thinned (~50um) DRAM or logic
	// die with its bond layer.
	cpuCapJPerK = 0.08
	dieCapJPerK = 0.01

	// eulerStepMargin keeps explicit Euler well inside its stability
	// bound (h < C/(sum of adjacent conductances)).
	eulerStepMargin = 0.2
)

// OffChipDRAMTempC estimates the steady-state temperature of off-chip
// DRAM dissipating powerW across its DIMMs (they share the same case
// ambient as the stack but their own convection path): the 2D
// organization's and a stack cache's backing channel's.
func OffChipDRAMTempC(powerW float64) float64 {
	return AmbientC + dimmRKPerW*powerW
}

// Stack is the die stack of a placement as a thermal network: one
// processor die ("cpu") against the heat sink, a peripheral logic die
// ("dram-logic") when the placement splits one off, and the DRAM dies
// ("dram0" upward) above them. Its transient temperatures start at
// ambient.
type Stack struct {
	Names  []string  // dies from the heat sink upward
	PowerW []float64 // per-die power, read by Steady and Step

	tempC []float64 // current temperature per die
	next  []float64 // scratch for one Euler step
	g     []float64 // g[i] = conductance from die i to the node below
	capJK []float64 // heat capacity per die
	hmax  float64   // the longest stable Euler substep
}

// NewStack builds the stack of place with zero die powers. Set PowerW
// before querying temperatures.
func NewStack(place Placement) *Stack {
	names := []string{"cpu"}
	if place.Logic {
		names = append(names, "dram-logic")
	}
	for i := 0; i < place.DRAMLayers; i++ {
		names = append(names, fmt.Sprintf("dram%d", i))
	}
	n := len(names)
	s := &Stack{
		Names:  names,
		PowerW: make([]float64, n),
		tempC:  make([]float64, n),
		next:   make([]float64, n),
		g:      make([]float64, n),
		capJK:  make([]float64, n),
	}
	for i := range names {
		c, r := dieCapJPerK, RLayerKPerW
		if i == 0 {
			// The processor: full-thickness die plus spreader, coupled to
			// ambient through the sink.
			c, r = cpuCapJPerK, RSinkKPerW
		}
		s.capJK[i] = c
		s.g[i] = 1 / r
		s.tempC[i] = AmbientC
	}
	for i := 0; i < n; i++ {
		gSum := s.g[i]
		if i+1 < n {
			gSum += s.g[i+1]
		}
		if h := eulerStepMargin * s.capJK[i] / gSum; i == 0 || h < s.hmax {
			s.hmax = h
		}
	}
	return s
}

// TotalPowerW reports the power of the whole stack.
func (s *Stack) TotalPowerW() float64 {
	total := 0.0
	for _, w := range s.PowerW {
		total += w
	}
	return total
}

// Steady returns the closed-form steady-state temperature of each die
// in stack order.
func (s *Stack) Steady() []float64 {
	n := len(s.PowerW)
	temps := make([]float64, n)
	// Power flowing through the interface below die i = sum of power at
	// dies i..n-1.
	above := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		above[i] = above[i+1] + s.PowerW[i]
	}
	t := AmbientC + RSinkKPerW*above[0]
	temps[0] = t
	for i := 1; i < n; i++ {
		t += RLayerKPerW * above[i]
		temps[i] = t
	}
	return temps
}

// Step advances the transient temperatures by dt seconds under the
// current PowerW. The step is substepped to stay within the
// explicit-Euler stability bound, so any dt is safe; the result is
// deterministic for a given power sequence.
func (s *Stack) Step(dt float64) {
	if dt <= 0 {
		return
	}
	steps := 1
	if dt > s.hmax {
		steps = int(dt/s.hmax) + 1
	}
	h := dt / float64(steps)
	n := len(s.tempC)
	for range steps {
		for i := 0; i < n; i++ {
			below := AmbientC
			if i > 0 {
				below = s.tempC[i-1]
			}
			flow := s.PowerW[i] + s.g[i]*(below-s.tempC[i])
			if i+1 < n {
				flow += s.g[i+1] * (s.tempC[i+1] - s.tempC[i])
			}
			s.next[i] = s.tempC[i] + h*flow/s.capJK[i]
		}
		copy(s.tempC, s.next)
	}
}

// Temperatures returns a copy of the current transient temperatures in
// stack order.
func (s *Stack) Temperatures() []float64 { return append([]float64(nil), s.tempC...) }

// TempC reports the current transient temperature of die i.
func (s *Stack) TempC(i int) float64 { return s.tempC[i] }

// maxDRAMC reports the hottest DRAM or DRAM-logic die of temps, a
// stack's temperatures in stack order: every die above the processor
// (0 when there is none).
func maxDRAMC(temps []float64) float64 {
	max := 0.0
	for _, c := range temps[1:] {
		if c > max {
			max = c
		}
	}
	return max
}
