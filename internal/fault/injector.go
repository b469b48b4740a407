package fault

import (
	"fmt"
	"math/rand"

	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
)

// Stats counts injected faults and their cost. All fields are plain
// counters updated from the single-threaded simulation loop.
type Stats struct {
	// BitErrorsCorrected counts DRAM reads that took an ECC
	// correction penalty; BitErrorsUncorrectable counts detected-
	// uncorrectable events (each forced re-read counts once).
	BitErrorsCorrected     uint64
	BitErrorsUncorrectable uint64
	// ECCRetryCycles sums the extra delivery cycles injected by ECC
	// corrections and re-reads (the attrib "retry" stage's fault
	// contribution).
	ECCRetryCycles uint64
	// RankBlocked counts scheduler queries that found a request's rank
	// stuck or dead with no failover target.
	RankBlocked uint64
	// RankRemaps counts requests actually scheduled onto a failover
	// rank in place of a dead one.
	RankRemaps uint64
	// MCStallEdges counts controller-clock edges skipped while the
	// controller was stalled or flapping.
	MCStallEdges uint64
	// LinkDegradedTransfers counts bursts sent over a width-degraded
	// TSV link; LinkDeadWaitCycles sums cycles bursts waited for a
	// dead link window to close.
	LinkDegradedTransfers uint64
	LinkDeadWaitCycles    uint64
	// MSHRParityErrors counts injected MSHR probe parity errors (each
	// costs one re-probe).
	MSHRParityErrors uint64
}

// Total reports the total number of injected fault events.
func (s Stats) Total() uint64 {
	return s.BitErrorsCorrected + s.BitErrorsUncorrectable + s.RankRemaps +
		s.MCStallEdges + s.LinkDegradedTransfers + s.MSHRParityErrors
}

// Injector compiles a Scenario for a concrete machine shape and hands
// out per-component views. All probabilistic draws share one seeded
// stream, consumed in deterministic engine order (the simulation loop
// is single-threaded), so a fixed seed + scenario replays
// bit-identically. A nil *Injector is the disabled state: it hands
// out nil views whose every query is the fault-free answer.
type Injector struct {
	scenario *Scenario
	rng      *rand.Rand
	clock    func() sim.Cycle
	mcs      []*MCView
	mshr     *MSHRView
	stats    Stats
}

// seedMix decorrelates the fault stream from the workload generators,
// which are seeded from the same run seed (splitmix64's increment).
const seedMix = int64(-0x61c8864680b583eb) // 0x9e3779b97f4a7c15 as int64

// NewInjector compiles scenario for a machine with one channel per
// entry of ranksByMC — each entry that channel's rank count, view m
// serving channel m — validating per-machine bounds. A stack-cache
// machine lists its off-chip backing channel after the stacked ones, so
// scenarios can target it with its own rank bound. A nil or fault-free
// scenario still yields a working (but inert) injector; callers that
// want full disablement pass no scenario and keep a nil *Injector
// instead.
func NewInjector(scenario *Scenario, runSeed int64, ranksByMC []int) (*Injector, error) {
	if err := scenario.Validate(); err != nil {
		return nil, err
	}
	seed := runSeed ^ seedMix
	if scenario != nil && scenario.Seed != 0 {
		seed = scenario.Seed
	}
	in := &Injector{scenario: scenario, rng: rand.New(rand.NewSource(seed))}
	in.mshr = &MSHRView{in: in}
	for m, nr := range ranksByMC {
		in.mcs = append(in.mcs, &MCView{in: in, mc: m, nRanks: nr, rankStuck: make([][]window, nr), rankDead: make([][]deadSpec, nr)})
	}
	if scenario == nil {
		return in, nil
	}
	for i, f := range scenario.Faults {
		if f.MC >= len(ranksByMC) {
			return nil, fmt.Errorf("fault scenario %q, fault #%d (%s): mc %d out of range (machine has %d)", scenario.Name, i, f.Kind, f.MC, len(ranksByMC))
		}
		switch f.Kind {
		case KindRankStuck, KindRankDead:
			// A targeted fault must name a rank the controller has; a
			// broadcast fault (MC < 0) must fit at least one controller
			// and is skipped on any with fewer ranks.
			maxRanks := 0
			if f.MC >= 0 {
				maxRanks = ranksByMC[f.MC]
			} else {
				for _, nr := range ranksByMC {
					if nr > maxRanks {
						maxRanks = nr
					}
				}
			}
			if f.Rank >= maxRanks {
				return nil, fmt.Errorf("fault scenario %q, fault #%d (%s): rank %d out of range (%d per MC)", scenario.Name, i, f.Kind, f.Rank, maxRanks)
			}
		case KindMSHRParity:
			in.mshr.specs = append(in.mshr.specs, probSpec{win: window{f.From, f.Until}, prob: f.Prob})
			continue
		}
		for _, v := range in.mcs {
			if f.MC >= 0 && f.MC != v.mc {
				continue
			}
			if (f.Kind == KindRankStuck || f.Kind == KindRankDead) && f.Rank >= v.nRanks {
				continue
			}
			v.add(f)
		}
	}
	return in, nil
}

// SetClock supplies the simulation clock used where an injection
// point has no cycle argument of its own (MSHR lookups). Core wires
// it to the engine; a nil clock reads as cycle 0.
func (in *Injector) SetClock(fn func() sim.Cycle) {
	if in == nil {
		return
	}
	in.clock = fn
}

// Scenario returns the compiled scenario (nil for a nil injector).
func (in *Injector) Scenario() *Scenario {
	if in == nil {
		return nil
	}
	return in.scenario
}

// Active reports whether any fault is armed.
func (in *Injector) Active() bool { return in != nil && in.scenario.Active() }

// Stats snapshots the injection counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// MC returns controller m's view; nil injector (or out-of-range m)
// returns a nil view, which injects nothing.
func (in *Injector) MC(m int) *MCView {
	if in == nil || m < 0 || m >= len(in.mcs) {
		return nil
	}
	return in.mcs[m]
}

// MSHR returns the MSHR view; nil injector returns a nil view.
func (in *Injector) MSHR() *MSHRView {
	if in == nil {
		return nil
	}
	return in.mshr
}

// Instrument mirrors the injection counters into the registry under
// "fault.*". Nil injector or registry is a no-op.
func (in *Injector) Instrument(reg *telemetry.Registry) {
	if in == nil || reg == nil {
		return
	}
	active := 0.0
	if in.Active() {
		active = 1.0
	}
	reg.GaugeFunc("fault.active", func() float64 { return active })
	reg.GaugeFunc("fault.biterror.corrected", func() float64 { return float64(in.stats.BitErrorsCorrected) })
	reg.GaugeFunc("fault.biterror.uncorrectable", func() float64 { return float64(in.stats.BitErrorsUncorrectable) })
	reg.GaugeFunc("fault.ecc.retry.cycles", func() float64 { return float64(in.stats.ECCRetryCycles) })
	reg.GaugeFunc("fault.rank.blocked", func() float64 { return float64(in.stats.RankBlocked) })
	reg.GaugeFunc("fault.rank.remaps", func() float64 { return float64(in.stats.RankRemaps) })
	reg.GaugeFunc("fault.mc.stall.edges", func() float64 { return float64(in.stats.MCStallEdges) })
	reg.GaugeFunc("fault.link.degraded.transfers", func() float64 { return float64(in.stats.LinkDegradedTransfers) })
	reg.GaugeFunc("fault.link.dead.wait.cycles", func() float64 { return float64(in.stats.LinkDeadWaitCycles) })
	reg.GaugeFunc("fault.mshr.parity.errors", func() float64 { return float64(in.stats.MSHRParityErrors) })
}

// now reads the wired clock (cycle 0 when unset).
func (in *Injector) now() sim.Cycle {
	if in.clock == nil {
		return 0
	}
	return in.clock()
}

// bitSpec, flapSpec, deadSpec, degradeSpec, probSpec are the compiled
// per-view forms of Spec.
type bitSpec struct {
	win    window
	prob   float64
	uncorr float64
	ecc    sim.Cycle
}

type flapSpec struct {
	win      window
	period   sim.Cycle
	stallLen sim.Cycle
}

type deadSpec struct {
	win      window
	failover bool
}

type degradeSpec struct {
	win    window
	factor int
}

type probSpec struct {
	win  window
	prob float64
}

// MCView is one controller's lens on the injector: the dram banks,
// the TSV data bus, and the scheduler of controller mc query it at
// their injection points. A nil view answers everything fault-free.
type MCView struct {
	in     *Injector
	mc     int
	nRanks int

	stalls    []window
	flaps     []flapSpec
	rankStuck [][]window   // per rank
	rankDead  [][]deadSpec // per rank
	degraded  []degradeSpec
	linkDead  []window
	bitErrs   []bitSpec
}

func (v *MCView) add(f Spec) {
	switch f.Kind {
	case KindBitError:
		ecc := f.ECCLatency
		if ecc == 0 {
			ecc = DefaultECCLatency
		}
		v.bitErrs = append(v.bitErrs, bitSpec{win: window{f.From, f.Until}, prob: f.Prob, uncorr: f.UncorrectablePct, ecc: ecc})
	case KindRankStuck:
		v.rankStuck[f.Rank] = append(v.rankStuck[f.Rank], window{f.From, f.Until})
	case KindRankDead:
		v.rankDead[f.Rank] = append(v.rankDead[f.Rank], deadSpec{win: window{f.From, f.Until}, failover: f.Failover})
	case KindTSVDegraded:
		factor := f.WidthFactor
		if factor == 0 {
			factor = 2
		}
		v.degraded = append(v.degraded, degradeSpec{win: window{f.From, f.Until}, factor: factor})
	case KindTSVDead:
		v.linkDead = append(v.linkDead, window{f.From, f.Until})
	case KindMCStall:
		v.stalls = append(v.stalls, window{f.From, f.Until})
	case KindMCFlap:
		stallLen := sim.Cycle(f.Duty * float64(f.Period))
		if stallLen < 1 {
			stallLen = 1
		}
		v.flaps = append(v.flaps, flapSpec{win: window{f.From, f.Until}, period: f.Period, stallLen: stallLen})
	}
}

// StallEdge reports whether the controller must skip scheduling on
// this controller-clock edge (stall window or flap duty); the
// controller calls it once per edge, and stalled edges are counted.
func (v *MCView) StallEdge(now sim.Cycle) bool {
	if v == nil {
		return false
	}
	stalled := false
	for _, w := range v.stalls {
		if w.contains(now) {
			stalled = true
			break
		}
	}
	if !stalled {
		for _, f := range v.flaps {
			if f.win.contains(now) && (now-f.win.from)%f.period < f.stallLen {
				stalled = true
				break
			}
		}
	}
	if stalled {
		v.in.stats.MCStallEdges++
	}
	return stalled
}

func (v *MCView) stuckAt(now sim.Cycle, rank int) bool {
	if rank < 0 || rank >= len(v.rankStuck) {
		return false
	}
	for _, w := range v.rankStuck[rank] {
		if w.contains(now) {
			return true
		}
	}
	return false
}

// deadAt reports whether rank is dead at now, and whether any
// covering spec allows failover.
func (v *MCView) deadAt(now sim.Cycle, rank int) (dead, failover bool) {
	if rank < 0 || rank >= len(v.rankDead) {
		return false, false
	}
	for _, d := range v.rankDead[rank] {
		if d.win.contains(now) {
			dead = true
			failover = failover || d.failover
		}
	}
	return dead, failover
}

// FailoverTarget reports the healthy rank that requests for a dead,
// failover-enabled rank remap to at cycle now: the next higher rank
// index (mod rank count) that is not itself dead. Pure — the caller
// counts actual remaps via NoteRemap when it schedules one.
func (v *MCView) FailoverTarget(now sim.Cycle, rank int) (int, bool) {
	if v == nil {
		return 0, false
	}
	dead, failover := v.deadAt(now, rank)
	if !dead || !failover {
		return 0, false
	}
	for i := 1; i < v.nRanks; i++ {
		cand := (rank + i) % v.nRanks
		if d, _ := v.deadAt(now, cand); !d {
			return cand, true
		}
	}
	return 0, false
}

// RankBlocked reports whether rank cannot be scheduled at now: stuck,
// or dead with no reachable failover target. Each blocked query is
// counted (one per queued request per scheduler scan).
func (v *MCView) RankBlocked(now sim.Cycle, rank int) bool {
	if v == nil {
		return false
	}
	if v.stuckAt(now, rank) {
		v.in.stats.RankBlocked++
		return true
	}
	if dead, _ := v.deadAt(now, rank); dead {
		if _, ok := v.FailoverTarget(now, rank); !ok {
			v.in.stats.RankBlocked++
			return true
		}
	}
	return false
}

// NoteRemap counts a request actually scheduled onto a failover rank.
func (v *MCView) NoteRemap() {
	if v == nil {
		return
	}
	v.in.stats.RankRemaps++
}

// ReadPenalty draws the bit-error outcome for one DRAM read issued at
// now whose CAS latency is cas, and returns the extra delivery cycles:
// zero (no error), the ECC correction latency, or detection plus one
// re-read (CAS + ECC) per uncorrectable attempt, bounded by
// maxReadRetries. The penalty is accumulated into the stats.
func (v *MCView) ReadPenalty(now, cas sim.Cycle) sim.Cycle {
	if v == nil || len(v.bitErrs) == 0 {
		return 0
	}
	var penalty sim.Cycle
	for _, sp := range v.bitErrs {
		if !sp.win.contains(now) {
			continue
		}
		if v.in.rng.Float64() >= sp.prob {
			continue
		}
		if sp.uncorr > 0 && v.in.rng.Float64() < sp.uncorr {
			// Detected-uncorrectable: the ECC check flags the read and
			// the controller re-reads the open row. Each retry can hit
			// another transient error; after maxReadRetries attempts
			// the (transient) error is assumed cleared.
			v.in.stats.BitErrorsUncorrectable++
			penalty += sp.ecc + cas
			for try := 1; try < maxReadRetries; try++ {
				if v.in.rng.Float64() >= sp.prob*sp.uncorr {
					break
				}
				v.in.stats.BitErrorsUncorrectable++
				penalty += sp.ecc + cas
			}
		} else {
			v.in.stats.BitErrorsCorrected++
			penalty += sp.ecc
		}
	}
	if penalty > 0 {
		v.in.stats.ECCRetryCycles += uint64(penalty)
	}
	return penalty
}

// LinkDelay returns the earliest cycle >= start at which the TSV data
// bus is alive, pushing the burst past any dead-link windows; waited
// cycles are counted.
func (v *MCView) LinkDelay(start sim.Cycle) sim.Cycle {
	if v == nil || len(v.linkDead) == 0 {
		return start
	}
	orig := start
	// Windows may abut or overlap; iterate until none contains start
	// (Validate guarantees every dead window is finite, so start only
	// moves forward and the loop terminates).
	for moved := true; moved; {
		moved = false
		for _, w := range v.linkDead {
			if w.contains(start) {
				start = w.until
				moved = true
			}
		}
	}
	if start > orig {
		v.in.stats.LinkDeadWaitCycles += uint64(start - orig)
	}
	return start
}

// LinkFactor reports the transfer-time multiplier of the TSV data bus
// at cycle at (1 = full width). Pure — the bus counts degraded
// transfers via NoteDegraded when it actually reserves one.
func (v *MCView) LinkFactor(at sim.Cycle) int {
	if v == nil {
		return 1
	}
	factor := 1
	for _, d := range v.degraded {
		if d.win.contains(at) && d.factor > factor {
			factor = d.factor
		}
	}
	return factor
}

// NoteDegraded counts a burst actually sent over a degraded link.
func (v *MCView) NoteDegraded() {
	if v == nil {
		return
	}
	v.in.stats.LinkDegradedTransfers++
}

// MSHRView is the L2 MSHR banks' lens on the injector.
type MSHRView struct {
	in    *Injector
	specs []probSpec
}

// Draws reports whether ProbeParity can consume the injector's random
// stream: the scenario has a probe-parity fault (in or out of its
// window). A nil view never draws.
func (v *MSHRView) Draws() bool { return v != nil && len(v.specs) > 0 }

// ProbeParity draws whether this MSHR lookup suffers a probe parity
// error (costing the caller one re-probe). The current cycle comes
// from the injector's wired clock, since Lookup carries no timestamp.
func (v *MSHRView) ProbeParity() bool {
	if !v.Draws() {
		return false
	}
	now := v.in.now()
	for _, sp := range v.specs {
		if !sp.win.contains(now) {
			continue
		}
		if v.in.rng.Float64() < sp.prob {
			v.in.stats.MSHRParityErrors++
			return true
		}
	}
	return false
}
