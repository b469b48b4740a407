package farm

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"stackedsim/internal/config"
	"stackedsim/internal/core"
	"stackedsim/internal/ledger"
)

// failoverCell is a cell long enough to cross several checkpoint
// boundaries mid-measure.
func failoverCell(t *testing.T) Cell {
	t.Helper()
	cfg := config.Baseline2D()
	cfg.WarmupCycles = 20_000
	cfg.MeasureCycles = 60_000
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return Cell{Config: raw, Workload: []string{"mix:H1"}}
}

// TestShardFailoverParity is the acceptance pin for failover: a worker
// killed mid-run whose job is resumed by a successor from the last
// uploaded checkpoint produces metrics and an architectural digest
// bit-identical to an uninterrupted run.
func TestShardFailoverParity(t *testing.T) {
	cell := failoverCell(t)
	const every = int64(30_000)

	whole := &LeasedJob{ID: "whole", Config: cell.Config, Workload: cell.Workload, Attempt: 1}
	wantM, wantSys, err := RunJob(context.Background(), whole, every, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest := wantSys.Digest()

	// Worker A dies immediately after uploading its first checkpoint —
	// the harshest failover point, with the most work left to replay.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var uploaded json.RawMessage
	jobA := &LeasedJob{ID: "a", Config: cell.Config, Workload: cell.Workload, Attempt: 1}
	_, _, errA := RunJob(ctx, jobA, every, func(cp *core.Checkpoint) error {
		if uploaded == nil {
			raw, merr := json.Marshal(cp)
			if merr != nil {
				t.Error(merr)
			}
			uploaded = raw
			cancel()
		}
		return nil
	})
	if errA == nil {
		t.Fatal("interrupted run reported no error")
	}
	if uploaded == nil {
		t.Fatal("no checkpoint reached the sink before the kill")
	}

	// Worker B resumes from A's wire-format checkpoint.
	jobB := &LeasedJob{ID: "b", Config: cell.Config, Workload: cell.Workload, Attempt: 2, Checkpoint: uploaded}
	gotM, gotSys, err := RunJob(context.Background(), jobB, every, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotM, wantM) {
		t.Fatalf("failover run diverged from uninterrupted:\n%+v\nvs\n%+v", gotM, wantM)
	}
	if d := gotSys.Digest(); d != wantDigest {
		t.Fatalf("failover digest %#x, uninterrupted %#x", d, wantDigest)
	}
}

// TestWorkerFailoverEndToEnd drives the whole protocol with a real
// coordinator and a real Worker: worker A leases the job, uploads a
// checkpoint, and vanishes without a word; the lease expires; worker B
// picks the job up as attempt 2 and lands a result identical to an
// uninterrupted run — exactly one completion, none lost, none
// duplicated.
func TestWorkerFailoverEndToEnd(t *testing.T) {
	cell := failoverCell(t)
	const every = int64(20_000)

	ref := &LeasedJob{ID: "ref", Config: cell.Config, Workload: cell.Workload, Attempt: 1}
	_, refSys, err := RunJob(context.Background(), ref, every, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest := refSys.Digest()

	led, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Real clock: the lease must expire while the test waits it out.
	coord := NewCoordinator(Params{
		Ledger:      led,
		Lease:       300 * time.Millisecond,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		MaxAttempts: 5,
	})
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL)
	ctx := context.Background()

	sub, err := client.Submit(ctx, cell)
	if err != nil {
		t.Fatal(err)
	}

	// Worker A: lease, simulate to the first checkpoint, upload it,
	// then go silent forever.
	jobA, err := client.Lease(ctx, "wA")
	if err != nil || jobA == nil {
		t.Fatalf("lease A = %v, %v", jobA, err)
	}
	actx, acancel := context.WithCancel(ctx)
	defer acancel()
	var uploaded json.RawMessage
	_, _, errA := RunJob(actx, jobA, every, func(cp *core.Checkpoint) error {
		if uploaded == nil {
			raw, merr := json.Marshal(cp)
			if merr != nil {
				t.Error(merr)
			}
			uploaded = raw
			acancel()
		}
		return nil
	})
	if errA == nil || uploaded == nil {
		t.Fatalf("worker A did not die mid-run (err=%v)", errA)
	}
	if err := client.Heartbeat(ctx, "wA", jobA.ID, uploaded, false); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond) // lease TTL + slack

	// Worker B: the real lease/heartbeat/complete loop.
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	w := &Worker{Client: client, Name: "wB", Poll: 20 * time.Millisecond, CheckpointEvery: every}
	done := make(chan struct{})
	go func() {
		w.Run(wctx)
		close(done)
	}()

	js := awaitOutcome(t, client, sub.ID)
	wcancel()
	<-done

	if js.State != StateDone {
		t.Fatalf("job ended %s (errors %v), want done", js.State, js.Errors)
	}
	if js.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one expiry, one failover)", js.Attempts)
	}
	if js.Digest != wantDigest {
		t.Fatalf("failover digest %#x, uninterrupted %#x", js.Digest, wantDigest)
	}
	s, err := client.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != 1 || s.JobsDone != 1 || s.Expirations != 1 {
		t.Fatalf("status = %+v", s)
	}
	// Exactly one record landed in the ledger.
	ms, err := led.Manifests()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("ledger holds %d records, want 1", len(ms))
	}
}

// awaitOutcome polls a job until it is done or quarantined.
func awaitOutcome(t *testing.T, client *Client, id string) *JobStatus {
	t.Helper()
	deadline := time.After(60 * time.Second)
	for {
		js, err := client.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if js.State == StateQuarantined || js.State == StateDone {
			return js
		}
		select {
		case <-deadline:
			t.Fatalf("job stuck in state %s", js.State)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestPoisonJobQuarantine pins the quarantine path end to end: a cell
// that passes submit-time validation but cannot build a machine burns
// its retry budget through a real worker and quarantines with its
// error chain, without wedging the worker.
func TestPoisonJobQuarantine(t *testing.T) {
	cfg := config.Baseline2D()
	cfg.WarmupCycles = 1_000
	cfg.MeasureCycles = 1_000
	cfg.Cores = 2 // mix:H1 needs 4 sources: decodes fine, fails at NewSystem
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell := Cell{Config: raw, Workload: []string{"mix:H1"}}

	coord := NewCoordinator(Params{
		Lease:       5 * time.Second,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		MaxAttempts: 2,
	})
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL)
	ctx := context.Background()

	sub, err := client.Submit(ctx, cell)
	if err != nil {
		t.Fatal(err)
	}

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	w := &Worker{Client: client, Name: "w1", Poll: 10 * time.Millisecond, CheckpointEvery: 1_000}
	done := make(chan struct{})
	go func() {
		w.Run(wctx)
		close(done)
	}()

	js := awaitOutcome(t, client, sub.ID)
	wcancel()
	<-done

	if js.State != StateQuarantined {
		t.Fatalf("poison job ended %s, want quarantined", js.State)
	}
	if len(js.Errors) != 2 {
		t.Fatalf("error chain has %d entries, want 2: %v", len(js.Errors), js.Errors)
	}
	for _, e := range js.Errors {
		if !strings.Contains(e, "cores") {
			t.Fatalf("error chain lost the cause: %v", js.Errors)
		}
	}
	s, err := client.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s.JobsQuarantined != 1 || s.Failures != 2 || s.Completed != 0 {
		t.Fatalf("status = %+v", s)
	}
}

// TestBadGeometryJobFailsWorkerSurvives: a config arrives as JSON off the
// wire, and one whose caches do not divide into sets used to reach a
// panic in the array constructor. It must fail as an error — RunJob
// returns it, the coordinator quarantines the job with the cause — and
// the worker that drew it must go on to run the next job.
func TestBadGeometryJobFailsWorkerSurvives(t *testing.T) {
	cellOf := func(cfg *config.Config) Cell {
		cfg.WarmupCycles, cfg.MeasureCycles = 1_000, 1_000
		raw, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return Cell{Config: raw, Workload: []string{"mix:H1"}}
	}
	l1 := config.QuadMC()
	l1.L1Ways = 5
	l2 := config.QuadMC()
	l2.L2SizeKB, l2.L2Ways = 1, 7
	for _, bad := range []*config.Config{l1, l2} {
		cell := cellOf(bad)
		job := &LeasedJob{ID: "bad", Config: cell.Config, Workload: cell.Workload, Attempt: 1}
		if _, _, err := RunJob(context.Background(), job, 1_000, nil); err == nil {
			t.Fatalf("RunJob built a machine from L1Ways=%d L2SizeKB=%d L2Ways=%d", bad.L1Ways, bad.L2SizeKB, bad.L2Ways)
		}
	}

	coord := NewCoordinator(Params{
		Lease:       5 * time.Second,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		MaxAttempts: 1,
	})
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL)
	ctx := context.Background()

	wctx, wcancel := context.WithCancel(ctx)
	w := &Worker{Client: client, Name: "w1", Poll: 10 * time.Millisecond, CheckpointEvery: 1_000}
	done := make(chan struct{})
	go func() {
		w.Run(wctx)
		close(done)
	}()
	defer func() {
		wcancel()
		<-done
	}()

	// The bad job first, then a good one: the same worker draws both.
	for _, step := range []struct {
		cell  Cell
		state string
	}{
		{cellOf(l1), StateQuarantined},
		{cellOf(config.Baseline2D()), StateDone},
	} {
		sub, err := client.Submit(ctx, step.cell)
		if err != nil {
			t.Fatal(err)
		}
		js := awaitOutcome(t, client, sub.ID)
		if js.State != step.state {
			t.Fatalf("job ended %s (%v), want %s", js.State, js.Errors, step.state)
		}
		if step.state == StateQuarantined &&
			(len(js.Errors) != 1 || !strings.Contains(js.Errors[0], "L1 of") || strings.Contains(js.Errors[0], "panic")) {
			t.Fatalf("the job failed with %q, want the config error and no panic", js.Errors)
		}
	}
}
