package farm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"stackedsim/internal/config"
	"stackedsim/internal/core"
	"stackedsim/internal/ledger"
	"stackedsim/internal/workload"
)

// Worker claims jobs from a coordinator one at a time, simulating each
// under a heartbeat-renewed lease. Failure handling end to end:
//
//   - The heartbeat goroutine uploads the run's latest checkpoint every
//     third of the lease TTL. If the coordinator answers 410 (lease
//     lost), the worker cancels the run and abandons it — some other
//     worker owns the job now.
//   - A cancelled Run context (SIGTERM drain) stops the simulation at
//     the next cycle-chunk boundary; the final checkpoint is handed
//     back with a releasing heartbeat and the worker deregisters, so
//     its successor resumes instead of restarting.
//   - A panicking or failing simulation completes the job with its
//     error (plus stack), charging the job's retry budget instead of
//     killing the worker.
type Worker struct {
	Client *Client
	// Name identifies this worker's leases and heartbeats; it must be
	// unique within the pool.
	Name string
	// Poll is the idle wait between lease attempts when the queue is
	// empty (default 250ms).
	Poll time.Duration
	// CheckpointEvery is the cycle interval between checkpoint
	// snapshots (default 1_000_000). Shorter intervals tighten the
	// failover window at the cost of more snapshot work.
	CheckpointEvery int64
	// Log, when non-nil, receives one line per job event.
	Log io.Writer
}

// opTimeout bounds the off-run coordinator calls (complete, release,
// deregister) that must not hang a draining worker forever.
const opTimeout = 30 * time.Second

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		fmt.Fprintf(w.Log, "worker %s: "+format+"\n", append([]any{w.Name}, args...)...)
	}
}

// Run leases and executes jobs until ctx is cancelled, then drains:
// the in-flight job (if any) is checkpointed and released, and the
// worker deregisters from the pool.
func (w *Worker) Run(ctx context.Context) error {
	if w.Client == nil || w.Name == "" {
		return fmt.Errorf("farm: worker needs a Client and a Name")
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	for ctx.Err() == nil {
		job, err := w.Client.Lease(ctx, w.Name)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			w.logf("lease failed: %v", err)
			if sleepCtx(ctx, poll) != nil {
				break
			}
			continue
		}
		if job == nil {
			if sleepCtx(ctx, poll) != nil {
				break
			}
			continue
		}
		w.process(ctx, job)
	}
	dctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if err := w.Client.Deregister(dctx, w.Name); err != nil {
		w.logf("deregister failed: %v", err)
	} else {
		w.logf("drained and deregistered")
	}
	return ctx.Err()
}

// process runs one leased job to an outcome: completion, graceful
// checkpoint-and-release (drain), or abandonment (lease lost).
func (w *Worker) process(ctx context.Context, job *LeasedJob) {
	defer func() {
		if p := recover(); p != nil {
			w.complete(job, nil, 0, fmt.Sprintf("worker panic: %v\n%s", p, debug.Stack()))
		}
	}()
	w.logf("leased %s attempt %d (resume=%v)", job.ID, job.Attempt, len(job.Checkpoint) > 0)
	started := time.Now()

	var mu sync.Mutex
	var latest *core.Checkpoint
	sink := func(cp *core.Checkpoint) error {
		mu.Lock()
		latest = cp
		mu.Unlock()
		return nil
	}
	latestJSON := func() json.RawMessage {
		mu.Lock()
		cp := latest
		mu.Unlock()
		if cp == nil {
			return nil
		}
		raw, err := json.Marshal(cp)
		if err != nil {
			return nil
		}
		return raw
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var abandoned atomic.Bool
	stopHB := make(chan struct{})
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		interval := time.Duration(job.LeaseMS) * time.Millisecond / 3
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stopHB:
				return
			case <-t.C:
				hctx, hcancel := context.WithTimeout(context.Background(), opTimeout)
				err := w.Client.Heartbeat(hctx, w.Name, job.ID, latestJSON(), false)
				hcancel()
				if errors.Is(err, ErrLeaseLost) {
					abandoned.Store(true)
					cancel()
					return
				}
				if err != nil {
					// Transient heartbeat trouble already ate the
					// client's retry budget; keep simulating — the
					// worst case is a lease expiry we would also
					// survive.
					w.logf("heartbeat for %s failed: %v", job.ID, err)
				}
			}
		}
	}()

	m, sys, runErr := RunJob(runCtx, job, w.CheckpointEvery, sink)
	close(stopHB)
	hbDone.Wait()

	switch {
	case runErr == nil:
		rec, err := core.NewRunRecord(sys.Cfg, job.Workload, &m, "farm", "", started, time.Since(started).Seconds())
		if err != nil {
			w.complete(job, nil, 0, fmt.Sprintf("record assembly failed: %v", err))
			return
		}
		w.complete(job, rec, sys.Digest(), "")
		w.logf("completed %s digest=%#x", job.ID, sys.Digest())
	case abandoned.Load():
		w.logf("abandoned %s (lease lost)", job.ID)
	case ctx.Err() != nil:
		// Draining: hand the final checkpoint back with the lease.
		hctx, hcancel := context.WithTimeout(context.Background(), opTimeout)
		err := w.Client.Heartbeat(hctx, w.Name, job.ID, latestJSON(), true)
		hcancel()
		if err != nil {
			w.logf("release of %s failed: %v", job.ID, err)
		} else {
			w.logf("released %s with checkpoint", job.ID)
		}
	default:
		w.complete(job, nil, 0, runErr.Error())
		w.logf("failed %s: %v", job.ID, runErr)
	}
}

// complete reports an outcome with a bounded background context: the
// result of a finished simulation must land even while the worker's
// own context is draining.
func (w *Worker) complete(job *LeasedJob, rec *ledger.Record, digest uint64, errMsg string) {
	cctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if err := w.Client.Complete(cctx, w.Name, job.ID, rec, digest, errMsg); err != nil {
		// The lease will expire and the job re-dispatches; determinism
		// makes the redo identical, so nothing is corrupted — only
		// this attempt's work is lost.
		w.logf("complete for %s failed: %v", job.ID, err)
	}
}

// RunJob executes one leased job's simulation: decode the cell, build
// the system, optionally resume from the lease's checkpoint, and run
// with periodic checkpoints delivered to sink. Exposed so tests (and
// any embedder) can run the exact worker execution path without a
// coordinator; the returned System provides the Digest.
func RunJob(ctx context.Context, job *LeasedJob, every int64, sink func(*core.Checkpoint) error) (core.Metrics, *core.System, error) {
	var cfg config.Config
	if err := json.Unmarshal(job.Config, &cfg); err != nil {
		return core.Metrics{}, nil, fmt.Errorf("farm: job %s config does not decode: %w", job.ID, err)
	}
	w, err := workload.ParseLabels(job.Workload)
	if err != nil {
		return core.Metrics{}, nil, fmt.Errorf("farm: job %s: %w", job.ID, err)
	}
	var from *core.Checkpoint
	if len(job.Checkpoint) > 0 {
		from = new(core.Checkpoint)
		if err := json.Unmarshal(job.Checkpoint, from); err != nil {
			return core.Metrics{}, nil, fmt.Errorf("farm: job %s checkpoint does not decode: %w", job.ID, err)
		}
	}
	sys, err := core.NewSystem(&cfg, w.Benchmarks())
	if err != nil {
		return core.Metrics{}, nil, err
	}
	if every <= 0 {
		every = 1_000_000
	}
	m, err := sys.RunCheckpointed(ctx, core.CheckpointPlan{Every: every, From: from, Sink: sink})
	return m, sys, err
}
