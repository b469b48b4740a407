// Package telemetry provides run-time observability for the simulator:
// a metrics registry of named counters, gauges and distributions, an
// interval sampler that snapshots every metric into a cycle-stamped
// time-series (exported as CSV), and a structured event tracer
// emitting Chrome trace_event JSON for sampled request lifecycles.
//
// The subsystem is designed around two invariants:
//
//   - Zero overhead when disabled. Every handle type (*Counter, *Gauge,
//     *Distribution) and the *Tracer are nil-safe: a nil receiver makes
//     every method a no-op, so instrumented components hold plain
//     (possibly nil) pointers and never branch on an "enabled" flag.
//     A nil *Registry hands out nil handles.
//
//   - Determinism. Sampled data is cycle-stamped only — no wall-clock
//     time ever enters the time-series or the trace, so two runs with
//     the same seed and configuration produce byte-identical exports.
//     Wall-clock time appears solely in the run manifest.
//
// Metric names are hierarchical, dot-separated, lowercase:
// component, instance, then metric — e.g. "mc0.readq.depth",
// "l2.mshr0.occupancy", "dram.rank3.rowhit". See docs/OBSERVABILITY.md.
package telemetry

import (
	"fmt"

	"stackedsim/internal/stats"
)

// Counter is a monotonically increasing event count. The zero of a
// counter is its registration; ResetStats-style zeroing is intentional
// not supported — reset windows are derived in post-processing from the
// cycle column. A nil *Counter is a no-op.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value reports the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous level (queue depth, occupancy). It is
// either set-driven (Set from the instrumented component) or
// poll-driven (a GaugeFunc read at each sample point). A nil *Gauge is
// a no-op.
type Gauge struct {
	v  float64
	fn func() float64
}

// Set records the current level. Calls on a poll-driven gauge are
// ignored: the function is authoritative.
func (g *Gauge) Set(v float64) {
	if g == nil || g.fn != nil {
		return
	}
	g.v = v
}

// Value reports the current level, polling the backing function if any.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.fn != nil {
		return g.fn()
	}
	return g.v
}

// Distribution accumulates integer observations (probe counts, queue
// delays) into a histogram exported as count/mean/p50/p90/p99 at the
// end of the run. A nil *Distribution is a no-op.
type Distribution struct {
	h *stats.Histogram
}

// Observe records one observation (clamped at 0).
func (d *Distribution) Observe(v int) { d.ObserveN(v, 1) }

// ObserveN records n observations of v.
func (d *Distribution) ObserveN(v int, n uint64) {
	if d == nil {
		return
	}
	d.h.AddN(v, n)
}

// Histogram exposes the underlying histogram (nil on a nil receiver).
func (d *Distribution) Histogram() *stats.Histogram {
	if d == nil {
		return nil
	}
	return d.h
}

// Summary renders the distribution's p50/p90/p99/mean line ("empty" for
// a nil or observation-free distribution).
func (d *Distribution) Summary() string {
	if d == nil {
		return "empty"
	}
	return d.h.Summary()
}

// distBuckets bounds Distribution histograms; values beyond accumulate
// in the overflow bucket, which Quantiles reports as the bucket count.
const distBuckets = 256

// Registry holds every registered metric. Registration order is
// preserved and is the export column order, so a deterministic wiring
// order yields deterministic exports. A nil *Registry hands out nil
// handles, making disabled telemetry free at every call site.
//
// Registration is idempotent per (name, kind): asking again for an
// existing name of the same kind returns the original handle, so two
// components may share a counter. Re-registering a name as a different
// kind panics — that is always a wiring bug.
type Registry struct {
	byName map[string]any
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]any)}
}

func register[T any](r *Registry, name string, make_ func() T) T {
	if prev, ok := r.byName[name]; ok {
		h, ok := prev.(T)
		if !ok {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as a different kind (%T)", name, prev))
		}
		return h
	}
	h := make_()
	r.byName[name] = h
	r.order = append(r.order, name)
	return h
}

// Counter returns the counter registered under name, creating it if
// needed. Nil registry → nil handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return register(r, name, func() *Counter { return new(Counter) })
}

// Gauge returns the set-driven gauge registered under name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return register(r, name, func() *Gauge { return new(Gauge) })
}

// GaugeFunc registers a poll-driven gauge whose value is fn() at each
// sample point. Registering over an existing set-driven gauge of the
// same name upgrades it to poll-driven.
func (r *Registry) GaugeFunc(name string, fn func() float64) *Gauge {
	if r == nil {
		return nil
	}
	g := register(r, name, func() *Gauge { return new(Gauge) })
	g.fn = fn
	return g
}

// Distribution returns the distribution registered under name.
func (r *Registry) Distribution(name string) *Distribution {
	if r == nil {
		return nil
	}
	return register(r, name, func() *Distribution {
		return &Distribution{h: stats.NewHistogram(distBuckets)}
	})
}

// DistributionN is Distribution with an explicit bucket count, for
// observations whose range outgrows the default (e.g. end-to-end miss
// latencies in cycles). Idempotent on name; the first registration
// fixes the bucket count.
func (r *Registry) DistributionN(name string, buckets int) *Distribution {
	if r == nil {
		return nil
	}
	return register(r, name, func() *Distribution {
		return &Distribution{h: stats.NewHistogram(buckets)}
	})
}

// Names reports every registered metric name in registration order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	return append([]string(nil), r.order...)
}

// value reads the current scalar value of the named counter or gauge;
// distributions are not part of the scalar time-series.
func (r *Registry) value(name string) (float64, bool) {
	switch h := r.byName[name].(type) {
	case *Counter:
		return float64(h.Value()), true
	case *Gauge:
		return h.Value(), true
	}
	return 0, false
}

// MetricKind distinguishes scalar metric kinds for renderers that need
// to declare them (e.g. Prometheus TYPE lines).
type MetricKind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter MetricKind = iota
	// KindGauge is an instantaneous level.
	KindGauge
)

// Scalars visits every registered counter and gauge in registration
// order with its kind and current value.
func (r *Registry) Scalars(fn func(name string, kind MetricKind, v float64)) {
	if r == nil {
		return
	}
	for _, name := range r.order {
		switch h := r.byName[name].(type) {
		case *Counter:
			fn(name, KindCounter, float64(h.Value()))
		case *Gauge:
			fn(name, KindGauge, h.Value())
		}
	}
}

// Distributions visits every registered distribution in order.
func (r *Registry) Distributions(fn func(name string, d *Distribution)) {
	if r == nil {
		return
	}
	for _, name := range r.order {
		if d, ok := r.byName[name].(*Distribution); ok {
			fn(name, d)
		}
	}
}
