package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"stackedsim/internal/config"
	"stackedsim/internal/ledger"
)

// SimVersion names the simulator's result semantics and feeds the
// ledger's content address: bump it whenever a change makes previously
// recorded results non-comparable (timing model, workload generation,
// metric definitions), so stale ledger entries stop matching instead of
// silently serving wrong answers. Performance-only and observability
// changes do not bump it.
const SimVersion = "stackedsim-v8"

// RunIdentity computes the ledger content address of a run: the applied
// config (which carries seed and warmup/measure window) plus the
// workload labels (e.g. "mix:VH1" or "single:mcf") under the current
// SimVersion.
func RunIdentity(cfg *config.Config, workload []string) (id, digest string, err error) {
	return ledger.RunID(cfg, workload, SimVersion)
}

// FlattenScalars decomposes a JSON-marshalable value into a flat
// metric-name -> value map: struct fields and map keys become dotted
// path segments, array elements become numeric segments ("ipc.0"), and
// only numeric leaves are kept. Used to turn a Metrics result into the
// ledger's metrics.json when no telemetry registry ran.
func FlattenScalars(v any) (map[string]float64, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var tree any
	if err := json.Unmarshal(raw, &tree); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	flattenInto(out, "", tree)
	return out, nil
}

func flattenInto(out map[string]float64, prefix string, v any) {
	switch t := v.(type) {
	case float64:
		out[prefix] = t
	case bool:
		val := 0.0
		if t {
			val = 1
		}
		out[prefix] = val
	case map[string]any:
		for k, sub := range t {
			key := strings.ToLower(k)
			if prefix != "" {
				key = prefix + "." + key
			}
			flattenInto(out, key, sub)
		}
	case []any:
		for i, sub := range t {
			flattenInto(out, fmt.Sprintf("%s.%d", prefix, i), sub)
		}
	}
}

// NewRunRecord assembles one completed run's ledger entry. metrics is
// the run-end metric map (the telemetry registry's final scalars when
// one ran, otherwise pass nil to flatten m instead). The Metrics result
// itself is stored as the summary payload and recalled verbatim on a
// cache hit.
func NewRunRecord(cfg *config.Config, workload []string, m *Metrics, eng EngineReport,
	metrics map[string]float64, experiment, gitRev string, startedAt time.Time, wallSeconds float64,
) (*ledger.Record, error) {
	id, digest, err := RunIdentity(cfg, workload)
	if err != nil {
		return nil, err
	}
	if metrics == nil {
		if metrics, err = FlattenScalars(m); err != nil {
			return nil, err
		}
	}
	summary, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return &ledger.Record{
		Manifest: ledger.Manifest{
			ID:           id,
			ConfigDigest: digest,
			Config:       cfg.Name,
			Workload:     workload,
			Seed:         cfg.Seed,
			Experiment:   experiment,
			SimVersion:   SimVersion,
			GitRevision:  gitRev,
			StartedAt:    startedAt.UTC().Format(time.RFC3339),
			WallSeconds:  wallSeconds,
			Cycles:       int64(m.Cycles),
			Engine: ledger.EngineStats{
				TicksDelivered: eng.TicksDelivered,
				CyclesSkipped:  eng.CyclesSkipped,
				TicksPerCycle:  eng.TicksPerCycle,
				SkipRatio:      eng.SkipRatio,
				PoolHitRate:    eng.PoolHitRate,
			},
		},
		Metrics: metrics,
		Summary: summary,
	}, nil
}

// RecallMetrics decodes a recorded run's summary payload back into the
// harness result it was built from. JSON float64 values round-trip
// exactly, so a recalled Metrics is numerically identical to the
// original — the property that makes serving a sweep from the ledger
// indistinguishable from re-simulating it.
func RecallMetrics(rec *ledger.Record) (Metrics, error) {
	var m Metrics
	if len(rec.Summary) == 0 {
		return m, fmt.Errorf("run %s has no summary payload", rec.Manifest.ID)
	}
	if err := json.Unmarshal(rec.Summary, &m); err != nil {
		return m, fmt.Errorf("run %s summary is corrupt: %w", rec.Manifest.ID, err)
	}
	return m, nil
}

// Recall looks a run up in led by its content address and decodes the
// recorded metrics — numerically identical to re-simulating. A run the
// ledger does not hold returns a nil record and no error.
func Recall(led *ledger.Ledger, cfg *config.Config, workload []string) (Metrics, *ledger.Record, error) {
	id, _, err := RunIdentity(cfg, workload)
	if err != nil || !led.Has(id) {
		return Metrics{}, nil, err
	}
	rec, err := led.Get(id)
	if err != nil {
		return Metrics{}, nil, err
	}
	m, err := RecallMetrics(rec)
	return m, rec, err
}
