package powerthermal

import (
	"fmt"

	"stackedsim/internal/dram"
)

// The DRAM energy accounting behind the paper's Section 4.2 argument:
// every row-buffer-cache hit avoids the energy of a full array access
// (activate + restore + precharge), so multi-entry row buffers keep
// paying off in power even after their latency benefit saturates.
//
// The model is event-based: the simulator already counts activates,
// column accesses, refreshes and transferred bytes; this file attaches
// per-event energies (DDR2-era magnitudes derived from datasheet IDD
// values) plus per-rank static power, and produces a breakdown.

// Params holds per-event energies in picojoules and static power in
// milliwatts.
type Params struct {
	ActivatePJ   float64 // row activate + restore + precharge (full array access)
	ReadColPJ    float64 // column read from an open row buffer
	WriteColPJ   float64 // column write into an open row buffer
	RefreshPJ    float64 // one refresh command, one bank
	BusPJPerByte float64 // IO/termination energy per byte moved
	StaticMWRank float64 // background power per rank
}

// DDR2 returns representative energies for the 512Mb-class DDR2 parts of
// Table 1, driven over an off-chip bus.
func DDR2() Params {
	return Params{
		ActivatePJ:   2500,
		ReadColPJ:    500,
		WriteColPJ:   550,
		RefreshPJ:    5000,
		BusPJPerByte: 20,
		StaticMWRank: 75,
	}
}

// Stacked3D returns energies for on-stack DRAM: the same arrays, but the
// off-chip IO drivers are replaced by TSVs (orders of magnitude less
// capacitance) and shorter internal buses shave the column energy.
func Stacked3D() Params {
	p := DDR2()
	p.BusPJPerByte = 0.5
	p.ReadColPJ = 400
	p.WriteColPJ = 440
	return p
}

// params picks the energies a channel is charged at: off-chip DDR2 IO
// for a stack cache's backing channel and for every channel of the 2D
// organization, TSV IO for stacked DRAM.
func (p Placement) params(offChip bool) Params {
	if offChip || !p.Stacked() {
		return DDR2()
	}
	return Stacked3D()
}

// Activity is the event summary of one measured window, gathered from
// bank and bus counters.
type Activity struct {
	Activates    uint64 // full array accesses (row-buffer misses)
	ColumnReads  uint64 // scheduled DRAM reads
	ColumnWrites uint64 // scheduled DRAM writes (incl. writebacks)
	Refreshes    uint64 // refresh commands x banks
	BytesMoved   uint64 // data-bus traffic
	Ranks        int
}

// Accesses reports total column accesses.
func (a Activity) Accesses() uint64 { return a.ColumnReads + a.ColumnWrites }

func (a *Activity) add(b Activity) {
	a.Activates += b.Activates
	a.ColumnReads += b.ColumnReads
	a.ColumnWrites += b.ColumnWrites
	a.Refreshes += b.Refreshes
	a.BytesMoved += b.BytesMoved
	a.Ranks += b.Ranks
}

// countRank is one rank's event counters since the last statistics
// reset. Its banks count exactly the column accesses their controller
// scheduled, one for one.
func countRank(r *dram.Rank) Activity {
	a := Activity{Ranks: 1}
	for _, b := range r.Banks {
		st := b.Stats()
		a.Activates += st.Activates
		a.Refreshes += st.Refreshes
		a.ColumnReads += st.Reads
		a.ColumnWrites += st.Writes
	}
	return a
}

// activity is the channel's event counters since the last statistics
// reset: its ranks' and its data bus's.
func (ch Channel) activity() Activity {
	a := Activity{BytesMoved: ch.Bus.Stats().Bytes}
	for _, r := range ch.Ranks {
		a.add(countRank(r))
	}
	return a
}

// Energy accounts what m's channels spent since the machine's last
// statistics reset, elapsed cycles ago: the stacked channels together
// (stack) and the off-chip backing channel (backing, zero when there is
// none). At the end of a run it is the measured window's energy.
func (m Machine) Energy(elapsed int64) (stack, backing Breakdown) {
	var st, back Activity
	for _, ch := range m.Channels {
		if ch.OffChip {
			back.add(ch.activity())
		} else {
			st.add(ch.activity())
		}
	}
	place := placementFor(m.Cfg)
	return Account(place.params(false), st, elapsed, m.Cfg.CPUMHz),
		Account(place.params(true), back, elapsed, m.Cfg.CPUMHz)
}

// Breakdown is the accounted energy of one measured window, in
// microjoules.
type Breakdown struct {
	ActivateUJ float64
	ReadUJ     float64
	WriteUJ    float64
	RefreshUJ  float64
	BusUJ      float64
	StaticUJ   float64

	Accesses uint64
}

// TotalUJ sums the components.
func (b Breakdown) TotalUJ() float64 {
	return b.ActivateUJ + b.ReadUJ + b.WriteUJ + b.RefreshUJ + b.BusUJ + b.StaticUJ
}

// DynamicUJ is the total minus static.
func (b Breakdown) DynamicUJ() float64 { return b.TotalUJ() - b.StaticUJ }

// PerAccessNJ reports dynamic energy per DRAM access in nanojoules —
// the metric that falls as row-buffer-cache hits displace activations.
func (b Breakdown) PerAccessNJ() float64 {
	if b.Accesses == 0 {
		return 0
	}
	return 1000 * b.DynamicUJ() / float64(b.Accesses)
}

func (b Breakdown) String() string {
	return fmt.Sprintf("total %.1fuJ (activate %.1f, read %.1f, write %.1f, refresh %.1f, bus %.1f, static %.1f; %.2fnJ/access)",
		b.TotalUJ(), b.ActivateUJ, b.ReadUJ, b.WriteUJ, b.RefreshUJ, b.BusUJ, b.StaticUJ, b.PerAccessNJ())
}

// CPUParams models processor power from committed work: a constant
// idle/leakage floor plus a fixed dynamic energy per committed uop.
type CPUParams struct {
	IdleW float64 // leakage + clock tree, zero commits
	UopPJ float64 // dynamic energy per committed uop
}

// DefaultCPU calibrates the Table 1 quad-core to the 80W-class budget
// the thermal analysis assumes: four 4-wide cores at 3.33GHz committing
// flat out dissipate ~80W, of which ~25W is the idle floor.
func DefaultCPU() CPUParams { return CPUParams{IdleW: 25, UopPJ: 1030} }

// PowerW reports average processor power over a window that committed
// uops in seconds of wall time.
func (p CPUParams) PowerW(uops uint64, seconds float64) float64 {
	if seconds <= 0 {
		return p.IdleW
	}
	return p.IdleW + float64(uops)*p.UopPJ*1e-12/seconds
}

const pjToUJ = 1e-6

// Account converts an activity summary into energy. elapsedCycles and
// cpuMHz convert the window to wall time for static power.
func Account(p Params, a Activity, elapsedCycles int64, cpuMHz float64) Breakdown {
	b := Breakdown{
		ActivateUJ: float64(a.Activates) * p.ActivatePJ * pjToUJ,
		ReadUJ:     float64(a.ColumnReads) * p.ReadColPJ * pjToUJ,
		WriteUJ:    float64(a.ColumnWrites) * p.WriteColPJ * pjToUJ,
		RefreshUJ:  float64(a.Refreshes) * p.RefreshPJ * pjToUJ,
		BusUJ:      float64(a.BytesMoved) * p.BusPJPerByte * pjToUJ,
		Accesses:   a.Accesses(),
	}
	if cpuMHz > 0 && elapsedCycles > 0 {
		seconds := float64(elapsedCycles) / (cpuMHz * 1e6)
		b.StaticUJ = p.StaticMWRank * float64(a.Ranks) * seconds * 1000 // mW·s = mJ; ×1000 -> uJ
	}
	return b
}
