package telemetry

import (
	"io"
	"strconv"
	"strings"

	"stackedsim/internal/sim"
)

// Sample is one time-series row: every scalar metric's value at a
// sample point. Values align with the registry's name order at the time
// the sample was taken; rows taken before a late registration are
// zero-padded on export.
type Sample struct {
	Cycle  sim.Cycle
	Values []float64
	// Window holds the per-window deltas of the metrics registered with
	// TrackWindow, in TrackWindow order: this sample's cumulative value
	// minus the previous sample's. Exported as "<name>.window" columns.
	Window []float64
}

// Sampler snapshots the registry every Every cycles. Register it with
// the simulation engine (it is a sim.Ticker); it must tick after the
// components it observes, i.e. be registered last, so a sample reflects
// the end of the cycle it is stamped with.
//
// The sampler only reads component state, so its presence cannot change
// simulation results. A nil *Sampler is a no-op Ticker.
type Sampler struct {
	reg    *Registry
	every  sim.Cycle
	rows   []Sample
	window []string
	prev   map[string]float64
}

// NewSampler returns a sampler snapshotting reg every `every` cycles
// (minimum 1).
func NewSampler(reg *Registry, every sim.Cycle) *Sampler {
	if every < 1 {
		every = 1
	}
	return &Sampler{reg: reg, every: every}
}

// Every reports the sample interval in cycles. Callers wiring the
// sampler into an engine may register it with RegisterEvery(Every(), 0)
// so non-boundary cycles are skipped entirely; Tick keeps its own
// boundary check so plain Register wiring stays correct too.
func (s *Sampler) Every() sim.Cycle {
	if s == nil {
		return 1
	}
	return s.every
}

// TrackWindow adds a derived per-window column for a cumulative metric:
// each sample additionally records name's delta since the previous
// sample, exported as "<name>.window" after the registry columns. This
// keeps time-series plots honest for counters that jump across
// idle-skipped spans (e.g. engine.cycles_skipped) — the cumulative
// column shows the running total, the window column shows how much of
// each interval was skipped. Delta state lives in the sampler, not in a
// registry gauge, so polling the registry elsewhere (monitor snapshots)
// cannot perturb it. Call before the run starts; duplicate names are
// ignored.
func (s *Sampler) TrackWindow(name string) {
	if s == nil {
		return
	}
	for _, n := range s.window {
		if n == name {
			return
		}
	}
	s.window = append(s.window, name)
}

// Tick snapshots the registry on sample boundaries.
func (s *Sampler) Tick(now sim.Cycle) {
	if s == nil || now%s.every != 0 {
		return
	}
	s.Snapshot(now)
}

// Snapshot forces a sample at cycle now regardless of the interval
// (used for the final partial interval at the end of a run).
func (s *Sampler) Snapshot(now sim.Cycle) {
	if s == nil {
		return
	}
	vals := make([]float64, 0, len(s.reg.order))
	for _, name := range s.reg.order {
		if v, ok := s.reg.value(name); ok {
			vals = append(vals, v)
		}
	}
	var win []float64
	if len(s.window) > 0 {
		if s.prev == nil {
			s.prev = make(map[string]float64, len(s.window))
		}
		win = make([]float64, len(s.window))
		for i, name := range s.window {
			cur, _ := s.reg.value(name)
			win[i] = cur - s.prev[name]
			s.prev[name] = cur
		}
	}
	s.rows = append(s.rows, Sample{Cycle: now, Values: vals, Window: win})
}

// Finalize closes the time-series at the end of a run: when the run's
// final cycle is not a sample boundary, the tail partial interval is
// captured as one last sample stamped with now. Idempotent — if the
// last row already sits at now (a boundary hit or an earlier Finalize),
// nothing is added.
func (s *Sampler) Finalize(now sim.Cycle) {
	if s == nil {
		return
	}
	if n := len(s.rows); n > 0 && s.rows[n-1].Cycle == now {
		return
	}
	s.Snapshot(now)
}

// Rows reports the collected samples.
func (s *Sampler) Rows() []Sample {
	if s == nil {
		return nil
	}
	return s.rows
}

// scalarNames reports the registry's counter/gauge names in column
// order (distributions carry no per-interval scalar).
func (s *Sampler) scalarNames() []string {
	names := make([]string, 0, len(s.reg.order))
	for _, name := range s.reg.order {
		if _, ok := s.reg.value(name); ok {
			names = append(names, name)
		}
	}
	return names
}

// windowNames reports the derived per-window column names in
// TrackWindow order.
func (s *Sampler) windowNames() []string {
	names := make([]string, len(s.window))
	for i, n := range s.window {
		names[i] = n + ".window"
	}
	return names
}

// formatValue renders v compactly and deterministically: integers
// without a decimal point, everything else with %g.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteCSV writes the time-series with a "cycle,<metric>,..." header.
// Output is deterministic for a deterministic run.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if s == nil {
		return nil
	}
	names := s.scalarNames()
	winNames := s.windowNames()
	var b strings.Builder
	b.WriteString("cycle")
	for _, n := range names {
		b.WriteByte(',')
		b.WriteString(n)
	}
	for _, n := range winNames {
		b.WriteByte(',')
		b.WriteString(n)
	}
	b.WriteByte('\n')
	for _, row := range s.rows {
		b.WriteString(strconv.FormatInt(int64(row.Cycle), 10))
		for i := range names {
			b.WriteByte(',')
			if i < len(row.Values) {
				b.WriteString(formatValue(row.Values[i]))
			} else {
				b.WriteByte('0')
			}
		}
		for i := range winNames {
			b.WriteByte(',')
			if i < len(row.Window) {
				b.WriteString(formatValue(row.Window[i]))
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
