package core

import (
	"encoding/json"
	"fmt"
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

// NewRunRecord assembles one completed run's ledger entry: the
// manifest and m as the summary, which is recalled verbatim on a cache
// hit and from which the ledger derives the run's metrics.
func NewRunRecord(cfg *config.Config, workload []string, m *Metrics,
	experiment, gitRev string, startedAt time.Time, wallSeconds float64,
) (*ledger.Record, error) {
	id, digest, err := RunIdentity(cfg, workload)
	if err != nil {
		return nil, err
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
		},
		Summary: summary,
	}, nil
}

// Recall looks a run up in led by its content address and decodes its
// summary back into the Metrics it was recorded from. JSON float64
// values round-trip exactly, so a recalled Metrics is numerically
// identical to re-simulating — the property that makes serving a sweep
// from the ledger indistinguishable from running it. A run the ledger
// does not hold returns a nil record and no error.
func Recall(led *ledger.Ledger, cfg *config.Config, workload []string) (Metrics, *ledger.Record, error) {
	var m Metrics
	id, _, err := RunIdentity(cfg, workload)
	if err != nil || !led.Has(id) {
		return m, nil, err
	}
	rec, err := led.Get(id)
	if err != nil {
		return m, nil, err
	}
	if err := json.Unmarshal(rec.Summary, &m); err != nil {
		return m, rec, fmt.Errorf("run %s summary is corrupt: %w", id, err)
	}
	return m, rec, nil
}
