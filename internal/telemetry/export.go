package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"stackedsim/internal/sim"
)

// Options configures one run's telemetry.
type Options struct {
	// Dir receives every export file (created if missing).
	Dir string
	// SampleEvery is the time-series interval in cycles (0 = no sampler).
	SampleEvery int64
	// TraceEvents enables the Chrome trace, which an attribution
	// collector draws from its tags (internal/attrib).
	TraceEvents bool
	// TraceSample admits one in N demand-miss lifecycles to the trace
	// (<=1 = every one).
	TraceSample int
}

// Telemetry bundles one run's registry, sampler, and tracer. A nil
// *Telemetry is the disabled state: Reg() and Trace() return nil, which
// in turn hand out nil (no-op) handles, so call sites never branch.
type Telemetry struct {
	Registry *Registry
	Sampler  *Sampler
	Tracer   *Tracer
	opts     Options
}

// New builds the telemetry set for opts.
func New(opts Options) *Telemetry {
	t := &Telemetry{Registry: NewRegistry(), opts: opts}
	if opts.SampleEvery > 0 {
		t.Sampler = NewSampler(t.Registry, sim.Cycle(opts.SampleEvery))
	}
	if opts.TraceEvents {
		t.Tracer = NewTracer(opts.TraceSample)
	}
	return t
}

// Reg returns the registry (nil when telemetry is disabled).
func (t *Telemetry) Reg() *Registry {
	if t == nil {
		return nil
	}
	return t.Registry
}

// Trace returns the tracer (nil when disabled or tracing is off).
func (t *Telemetry) Trace() *Tracer {
	if t == nil {
		return nil
	}
	return t.Tracer
}

// Manifest records how a run was produced, written alongside the
// exports so a results directory is self-describing. Wall-clock fields
// live only here — never in the sampled data.
type Manifest struct {
	Config      string            `json:"config"`
	Seed        int64             `json:"seed"`
	Workload    []string          `json:"workload,omitempty"`
	Flags       map[string]string `json:"flags,omitempty"`
	GitDescribe string            `json:"git_describe,omitempty"`
	StartedAt   string            `json:"started_at,omitempty"` // RFC3339
	WallSeconds float64           `json:"wall_seconds,omitempty"`
	Cycles      int64             `json:"cycles"`
	TraceEvents int               `json:"trace_events"`
	TraceDrops  uint64            `json:"trace_drops,omitempty"`
	Samples     int               `json:"samples"`
}

// distSummary is the exported form of one Distribution.
type distSummary struct {
	Name    string  `json:"name"`
	Count   uint64  `json:"count"`
	Mean    float64 `json:"mean"`
	P50     int     `json:"p50"`
	P90     int     `json:"p90"`
	P99     int     `json:"p99"`
	Summary string  `json:"summary"`
}

// Export writes every artifact of the run into opts.Dir: manifest.json,
// timeseries.csv, distributions.json, and trace.json
// (only the files whose producer was enabled). The manifest's trace and
// sample counts are filled in here.
func (t *Telemetry) Export(man Manifest) error {
	if t == nil {
		return nil
	}
	if t.opts.Dir == "" {
		return fmt.Errorf("telemetry: Export with empty Dir")
	}
	if err := os.MkdirAll(t.opts.Dir, 0o755); err != nil {
		return err
	}
	// Close the time-series on the run's final cycle so the tail
	// partial interval is never silently dropped from the exports.
	t.Sampler.Finalize(sim.Cycle(man.Cycles))
	man.TraceEvents = t.Tracer.Len()
	man.TraceDrops = t.Tracer.Dropped()
	man.Samples = len(t.Sampler.Rows())

	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(t.opts.Dir, "manifest.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}

	if t.Sampler != nil {
		if err := writeTo(filepath.Join(t.opts.Dir, "timeseries.csv"), t.Sampler.WriteCSV); err != nil {
			return err
		}
	}

	var dists []distSummary
	t.Registry.Distributions(func(name string, d *Distribution) {
		h := d.Histogram()
		qs := h.Quantiles(0.50, 0.90, 0.99)
		dists = append(dists, distSummary{
			Name: name, Count: h.Count(), Mean: h.MeanValue(),
			P50: qs[0], P90: qs[1], P99: qs[2], Summary: h.Summary(),
		})
	})
	if len(dists) > 0 {
		data, err := json.MarshalIndent(dists, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(t.opts.Dir, "distributions.json"), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}

	if t.Tracer != nil {
		if err := writeTo(filepath.Join(t.opts.Dir, "trace.json"), t.Tracer.WriteJSON); err != nil {
			return err
		}
	}
	return nil
}

func writeTo(path string, fn func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
