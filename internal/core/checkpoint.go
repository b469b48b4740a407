package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"stackedsim/internal/config"
	"stackedsim/internal/sim"
)

// Checkpoint is a replay cursor for a long run. The simulator's live
// state (event-queue closures, per-component queues) cannot be
// serialized, but every run is deterministic from its config and seed,
// so a checkpoint records only where the run was — the full Config,
// the benchmark list and the cycle count — plus a Digest of the
// architectural statistics at that cycle. Resume rebuilds the machine
// and fast-forwards to Cycle; the digest then proves the replay landed
// on exactly the state that was checkpointed.
type Checkpoint struct {
	Version    int            `json:"version"`
	Config     *config.Config `json:"config"`
	Benchmarks []string       `json:"benchmarks"`
	Cycle      int64          `json:"cycle"`
	Digest     uint64         `json:"digest"`
}

// checkpointVersion guards the on-disk format: a checkpoint written by
// a simulator whose digest inputs changed must not silently resume.
const checkpointVersion = 1

// Write atomically persists the checkpoint: the JSON lands in a
// temporary file in the target directory and is renamed into place, so
// a crash mid-write never leaves a truncated checkpoint behind.
func (c *Checkpoint) Write(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Validate checks structural soundness. Checkpoints arrive from disk
// (LoadCheckpoint) but also over the wire — a farm coordinator hands a
// dead worker's last uploaded checkpoint to its successor — so the
// checks live here, independent of any file path.
func (c *Checkpoint) Validate() error {
	if c.Version != checkpointVersion {
		return fmt.Errorf("has format version %d, this build reads %d", c.Version, checkpointVersion)
	}
	if c.Config == nil || len(c.Benchmarks) == 0 || c.Cycle < 0 {
		return fmt.Errorf("is incomplete")
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("checkpoint %s is empty (truncated write?)", path)
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("checkpoint %s is corrupt: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("checkpoint %s %v", path, err)
	}
	return &c, nil
}

// NewSystemFromCheckpoint rebuilds the checkpointed machine at cycle
// zero; RunCheckpointed with From then fast-forwards it.
func NewSystemFromCheckpoint(c *Checkpoint) (*System, error) {
	return NewSystem(c.Config, c.Benchmarks)
}

// Checkpoint snapshots the run's replay cursor at the current cycle.
func (s *System) Checkpoint() *Checkpoint {
	return &Checkpoint{
		Version:    checkpointVersion,
		Config:     s.Cfg,
		Benchmarks: append([]string(nil), s.Labels...),
		Cycle:      int64(s.Engine.Now()),
		Digest:     s.Digest(),
	}
}

// CheckpointPlan configures RunCheckpointed: hand Sink a checkpoint
// every Every cycles (0 = only on cancellation), and, with From,
// fast-forward to that checkpoint before continuing.
//
// Where a checkpoint comes from and goes to is the caller's: stacksim
// loads From with LoadCheckpoint and its Sink is Checkpoint.Write; a farm
// worker gets From in its lease and its Sink keeps the latest for the
// next heartbeat. Sink is called on the simulating goroutine with a
// freshly built Checkpoint the callee may retain; its error ends the run.
type CheckpointPlan struct {
	Every int64
	From  *Checkpoint
	Sink  func(*Checkpoint) error
}

// advance steps the simulation to absolute cycle target under ctx,
// applying the end-of-warmup statistics reset exactly where Run would,
// so a run split across any number of advance calls (or processes, via
// checkpoints) accumulates the same measured-window statistics as an
// uninterrupted one.
func (s *System) advance(ctx context.Context, target sim.Cycle) error {
	warm := sim.Cycle(s.Cfg.WarmupCycles)
	if now := s.Engine.Now(); now < warm {
		stop := warm
		if target < warm {
			stop = target
		}
		if _, err := s.Engine.RunCtx(ctx, stop-now); err != nil {
			return err
		}
		if s.Engine.Now() == warm {
			s.ResetStats()
		}
	}
	if now := s.Engine.Now(); now < target {
		_, err := s.Engine.RunCtx(ctx, target-now)
		return err
	}
	return nil
}

// RunCheckpointed is the one run loop: it executes the run (warmup +
// measured window) emitting periodic checkpoints, optionally resuming
// from one first; with an empty plan it is RunContext. On
// cancellation it emits a final checkpoint at the interrupted cycle —
// so the run can be picked up where it stopped — and returns the
// partial metrics with ctx's error. Resume verifies the replayed state
// against the checkpoint's digest and refuses to continue from a
// divergent simulation (wrong binary, edited config, wrong seed).
func (s *System) RunCheckpointed(ctx context.Context, plan CheckpointPlan) (Metrics, error) {
	total := sim.Cycle(s.Cfg.WarmupCycles + s.Cfg.MeasureCycles)
	if s.Cfg.WarmupCycles == 0 && s.Engine.Now() == 0 {
		// An empty warmup still ends: advance resets only on reaching the
		// end of a warmup it ran, and Run has always reset here.
		s.ResetStats()
	}
	if cp := plan.From; cp != nil {
		if err := cp.Validate(); err != nil {
			return Metrics{}, fmt.Errorf("checkpoint %v", err)
		}
		if sim.Cycle(cp.Cycle) > total {
			return Metrics{}, fmt.Errorf("checkpoint is at cycle %d, beyond this run's %d total cycles", cp.Cycle, total)
		}
		if err := s.advance(ctx, sim.Cycle(cp.Cycle)); err != nil {
			return s.Collect(), err
		}
		if d := s.Digest(); d != cp.Digest {
			return Metrics{}, fmt.Errorf("checkpoint digest mismatch: replayed %#x, recorded %#x (different binary, config or seed?)", d, cp.Digest)
		}
	}
	for s.Engine.Now() < total {
		next := total
		if plan.Every > 0 {
			if at := sim.Cycle((int64(s.Engine.Now())/plan.Every + 1) * plan.Every); at < next {
				next = at
			}
		}
		if err := s.advance(ctx, next); err != nil {
			if plan.Sink != nil {
				if werr := plan.Sink(s.Checkpoint()); werr != nil {
					return s.Collect(), fmt.Errorf("%w (and checkpoint write failed: %v)", err, werr)
				}
			}
			return s.Collect(), err
		}
		if plan.Sink != nil && plan.Every > 0 && s.Engine.Now() < total {
			if err := plan.Sink(s.Checkpoint()); err != nil {
				return s.Collect(), err
			}
		}
	}
	return s.Collect(), nil
}
