package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"stackedsim/internal/config"
	"stackedsim/internal/core"
	"stackedsim/internal/ledger"
)

// fakeClock is a deterministic time source: every lease-expiry and
// backoff path is exercised by advancing it, never by sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testCell builds a small valid cell; vary seed for distinct job IDs.
func testCell(t *testing.T, seed int64) Cell {
	t.Helper()
	cfg := config.Baseline2D()
	cfg.WarmupCycles = 1000
	cfg.MeasureCycles = 4000
	cfg.Seed = seed
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return Cell{Config: raw, Workload: []string{"mix:H1"}}
}

// coordHarness is a coordinator under httptest with its fake clock.
type coordHarness struct {
	c     *Coordinator
	clock *fakeClock
	ts    *httptest.Server
}

func newHarness(t *testing.T, p Params) *coordHarness {
	t.Helper()
	clock := newFakeClock()
	p.Clock = clock.Now
	c := NewCoordinator(p)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return &coordHarness{c: c, clock: clock, ts: ts}
}

func (h *coordHarness) post(t *testing.T, path string, body, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(h.ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func (h *coordHarness) submit(t *testing.T, cell Cell) SubmitResponse {
	t.Helper()
	var out SubmitResponse
	if code := h.post(t, "/farm/submit", cell, &out); code != http.StatusOK {
		t.Fatalf("submit = %d", code)
	}
	return out
}

func (h *coordHarness) lease(t *testing.T, worker string) (*LeasedJob, int) {
	t.Helper()
	var out LeasedJob
	code := h.post(t, "/farm/lease", LeaseRequest{Worker: worker}, &out)
	if code == http.StatusNoContent {
		return nil, code
	}
	if code != http.StatusOK {
		t.Fatalf("lease = %d", code)
	}
	return &out, code
}

func (h *coordHarness) status(t *testing.T) Status {
	t.Helper()
	resp, err := http.Get(h.ts.URL + "/farm/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s Status
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// sameJSON compares two JSON documents semantically: the coordinator's
// indenting encoder may reflow raw checkpoint bytes without changing
// their content.
func sameJSON(t *testing.T, a, b json.RawMessage) bool {
	t.Helper()
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(va, vb)
}

// record builds a minimal-but-valid completion record for a cell.
func completionFor(t *testing.T, cell Cell, digest uint64) *ledger.Record {
	t.Helper()
	var cfg config.Config
	if err := json.Unmarshal(cell.Config, &cfg); err != nil {
		t.Fatal(err)
	}
	m := core.Metrics{Config: cfg.Name, Benchmarks: []string{"x"}, Cycles: 5000}
	rec, err := core.NewRunRecord(&cfg, cell.Workload, &m, "test", "", time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestSubmitIdempotent pins the dedupe contract: the same cell twice
// yields the same job, once in the queue.
func TestSubmitIdempotent(t *testing.T) {
	h := newHarness(t, Params{})
	a := h.submit(t, testCell(t, 1))
	b := h.submit(t, testCell(t, 1))
	if a.ID != b.ID {
		t.Fatalf("same cell got two jobs: %s vs %s", a.ID, b.ID)
	}
	if a.State != StateQueued || b.State != StateQueued {
		t.Fatalf("states = %s, %s", a.State, b.State)
	}
	s := h.status(t)
	if s.JobsQueued != 1 || s.Submitted != 2 {
		t.Fatalf("status = %+v", s)
	}
}

// TestSubmitServedFromLedger pins zero-dispatch warm starts: a cell
// whose RunID is already in the coordinator's ledger comes back done,
// summary inline, and nothing reaches the queue.
func TestSubmitServedFromLedger(t *testing.T) {
	led, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cell := testCell(t, 7)
	if _, err := led.Put(completionFor(t, cell, 0)); err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, Params{Ledger: led})
	res := h.submit(t, cell)
	if res.State != StateDone || len(res.Summary) == 0 {
		t.Fatalf("ledgered cell not served inline: %+v", res)
	}
	s := h.status(t)
	if s.LedgerHits != 1 || s.Dispatched != 0 || s.JobsQueued != 0 {
		t.Fatalf("status = %+v", s)
	}
}

// TestSubmitInvalidCell pins early poison-job rejection: a workload
// that cannot resolve is a 400 at submit, not a quarantine later.
func TestSubmitInvalidCell(t *testing.T) {
	h := newHarness(t, Params{})
	cell := testCell(t, 1)
	cell.Workload = []string{"mix:NOPE"}
	if code := h.post(t, "/farm/submit", cell, nil); code != http.StatusBadRequest {
		t.Fatalf("bad workload submit = %d, want 400", code)
	}
	cell = testCell(t, 1)
	cell.Config = json.RawMessage(`"not a config"`)
	if code := h.post(t, "/farm/submit", cell, nil); code != http.StatusBadRequest {
		t.Fatalf("bad config submit = %d, want 400", code)
	}
}

// TestQueueOverflowSheds pins graceful shedding: past MaxQueue the
// coordinator answers 429 with a Retry-After instead of growing
// without bound, and capacity freed by a completion is usable again.
func TestQueueOverflowSheds(t *testing.T) {
	h := newHarness(t, Params{MaxQueue: 2})
	h.submit(t, testCell(t, 1))
	h.submit(t, testCell(t, 2))
	raw, _ := json.Marshal(testCell(t, 3))
	resp, err := http.Post(h.ts.URL+"/farm/submit", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if s := h.status(t); s.Shed != 1 {
		t.Fatalf("shed = %d, want 1", s.Shed)
	}

	// Complete one job; the shed cell now fits.
	cell1 := testCell(t, 1)
	job, _ := h.lease(t, "w1")
	if job == nil {
		t.Fatal("no job leased")
	}
	var out SubmitResponse
	if code := h.post(t, "/farm/complete", CompleteRequest{
		Worker: "w1", ID: job.ID, Digest: 42, Record: completionFor(t, cell1, 42),
	}, &out); code != http.StatusOK {
		t.Fatalf("complete = %d", code)
	}
	if res := h.submit(t, testCell(t, 3)); res.State != StateQueued {
		t.Fatalf("post-drain submit state = %s", res.State)
	}
}

// TestLeaseExpiryRedispatch is the fake-clock lease test: a worker
// that stops heartbeating loses the job after the TTL, the next lease
// re-dispatches it (attempt 2) carrying the dead worker's checkpoint,
// and the dead worker's late heartbeat gets 410 Gone.
func TestLeaseExpiryRedispatch(t *testing.T) {
	lease := 10 * time.Second
	h := newHarness(t, Params{Lease: lease, BackoffBase: time.Second, MaxAttempts: 5})
	sub := h.submit(t, testCell(t, 1))

	job, _ := h.lease(t, "w1")
	if job == nil || job.Attempt != 1 || len(job.Checkpoint) != 0 {
		t.Fatalf("first lease = %+v", job)
	}
	// Heartbeat with a checkpoint inside the TTL renews the lease.
	cp := json.RawMessage(`{"version":1,"cycle":3000}`)
	if code := h.post(t, "/farm/heartbeat", HeartbeatRequest{Worker: "w1", ID: job.ID, Checkpoint: cp}, nil); code != http.StatusOK {
		t.Fatalf("heartbeat = %d", code)
	}
	h.clock.Advance(lease / 2)
	if code := h.post(t, "/farm/heartbeat", HeartbeatRequest{Worker: "w1", ID: job.ID}, nil); code != http.StatusOK {
		t.Fatalf("renewal heartbeat = %d", code)
	}
	// Renewal moved the deadline: the job must still be held.
	h.clock.Advance(lease / 2)
	if j, code := h.lease(t, "w2"); j != nil {
		t.Fatalf("job re-dispatched while lease held (code %d)", code)
	}

	// Now let it expire. Re-dispatch waits out the backoff window.
	h.clock.Advance(lease)
	if j, _ := h.lease(t, "w2"); j != nil {
		t.Fatal("job re-dispatched before its backoff window")
	}
	if s := h.status(t); s.Expirations != 1 || s.Failures != 1 {
		t.Fatalf("status after expiry = %+v", s)
	}
	h.clock.Advance(3 * time.Second) // past base backoff + max jitter
	job2, _ := h.lease(t, "w2")
	if job2 == nil {
		t.Fatal("job not re-dispatched after backoff")
	}
	if job2.ID != sub.ID || job2.Attempt != 2 {
		t.Fatalf("re-dispatch = %+v", job2)
	}
	if !sameJSON(t, job2.Checkpoint, cp) {
		t.Fatalf("re-dispatch lost the checkpoint: %s", job2.Checkpoint)
	}

	// The dead worker wakes up: its lease is gone.
	var gone errorResponse
	code := h.post(t, "/farm/heartbeat", HeartbeatRequest{Worker: "w1", ID: job.ID}, &gone)
	if code != http.StatusGone {
		t.Fatalf("stale heartbeat = %d, want 410", code)
	}
}

// TestRetryBudgetQuarantine pins bounded retries: MaxAttempts failures
// quarantine the job with its full error chain, visible on submit.
func TestRetryBudgetQuarantine(t *testing.T) {
	h := newHarness(t, Params{MaxAttempts: 2, BackoffBase: time.Second})
	sub := h.submit(t, testCell(t, 1))

	for attempt := 1; ; attempt++ {
		job, _ := h.lease(t, "w1")
		if job == nil {
			h.clock.Advance(10 * time.Second)
			job, _ = h.lease(t, "w1")
			if job == nil {
				t.Fatal("job unavailable while budget remains")
			}
		}
		var out SubmitResponse
		h.post(t, "/farm/complete", CompleteRequest{
			Worker: "w1", ID: job.ID, Error: fmt.Sprintf("boom %d", attempt),
		}, &out)
		if out.State == StateQuarantined {
			if attempt != 2 {
				t.Fatalf("quarantined after %d failures, want 2", attempt)
			}
			break
		}
	}
	res := h.submit(t, testCell(t, 1))
	if res.State != StateQuarantined || len(res.Errors) != 2 {
		t.Fatalf("quarantined job view = %+v", res)
	}
	if !strings.Contains(res.Errors[0], "boom 1") || !strings.Contains(res.Errors[1], "boom 2") {
		t.Fatalf("error chain mangled: %v", res.Errors)
	}
	if s := h.status(t); s.JobsQuarantined != 1 || s.JobsQueued != 0 {
		t.Fatalf("status = %+v", s)
	}
	if s, _ := h.c.Health(); s != "degraded" {
		t.Fatalf("health with quarantined jobs = %q, want degraded", s)
	}
	_ = sub
}

// TestBackoffBounds pins the backoff shape: base·2^(n-1) capped at
// max, jitter within +50%.
func TestBackoffBounds(t *testing.T) {
	c := NewCoordinator(Params{BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second})
	for n := 1; n <= 6; n++ {
		want := 100 * time.Millisecond << (n - 1)
		if want > time.Second {
			want = time.Second
		}
		for i := 0; i < 50; i++ {
			got := c.backoffLocked(n)
			if got < want || got > want+want/2 {
				t.Fatalf("backoff(%d) = %v, want [%v, %v]", n, got, want, want+want/2)
			}
		}
	}
}

// TestGracefulRelease pins the drain path: a releasing heartbeat
// requeues the job at the front with its checkpoint, charging no
// failure, and deregister does the same for a worker that still holds
// a job.
func TestGracefulRelease(t *testing.T) {
	h := newHarness(t, Params{})
	h.submit(t, testCell(t, 1))
	h.submit(t, testCell(t, 2))

	job, _ := h.lease(t, "w1")
	cp := json.RawMessage(`{"version":1,"cycle":2000}`)
	if code := h.post(t, "/farm/heartbeat", HeartbeatRequest{Worker: "w1", ID: job.ID, Checkpoint: cp, Release: true}, nil); code != http.StatusOK {
		t.Fatalf("release = %d", code)
	}
	if s := h.status(t); s.Failures != 0 || s.JobsQueued != 2 {
		t.Fatalf("status after release = %+v", s)
	}
	// Front of the queue: the released job dispatches before the other.
	job2, _ := h.lease(t, "w2")
	if job2.ID != job.ID || !sameJSON(t, job2.Checkpoint, cp) || job2.Attempt != 2 {
		t.Fatalf("released job re-lease = %+v", job2)
	}

	// Deregister while holding: same semantics, worker gone from pool.
	if code := h.post(t, "/farm/deregister", DeregisterRequest{Worker: "w2"}, nil); code != http.StatusNoContent {
		t.Fatalf("deregister = %d", code)
	}
	s := h.status(t)
	if s.JobsQueued != 2 || s.JobsRunning != 0 {
		t.Fatalf("status after deregister = %+v", s)
	}
	for _, w := range s.Workers {
		if w.Name == "w2" {
			t.Fatal("w2 still registered")
		}
	}
}

// TestCompleteFirstWins pins exactly-once results under races: a slow
// worker whose lease expired can still land the result; the
// re-dispatched copy's completion is an idempotent no-op, and the
// done state survives both.
func TestCompleteFirstWins(t *testing.T) {
	lease := 5 * time.Second
	h := newHarness(t, Params{Lease: lease, BackoffBase: time.Millisecond, MaxAttempts: 10})
	cell := testCell(t, 1)
	h.submit(t, cell)

	job, _ := h.lease(t, "w1")
	h.clock.Advance(2 * lease) // w1's lease expires
	// The first lease after expiry runs the sweep, which stamps the
	// backoff window; it cannot claim the job in the same request.
	if j, _ := h.lease(t, "w2"); j != nil {
		t.Fatalf("leased inside the backoff window: %+v", j)
	}
	h.clock.Advance(time.Second) // past backoff (base 1ms)
	job2, _ := h.lease(t, "w2")
	if job2 == nil || job2.Attempt != 2 {
		t.Fatalf("re-lease = %+v", job2)
	}
	// w1 (the original holder) finishes anyway — deterministic result.
	var first SubmitResponse
	h.post(t, "/farm/complete", CompleteRequest{Worker: "w1", ID: job.ID, Digest: 7, Record: completionFor(t, cell, 7)}, &first)
	if first.State != StateDone {
		t.Fatalf("late first completion = %+v", first)
	}
	// w2's duplicate lands as a no-op.
	var second SubmitResponse
	h.post(t, "/farm/complete", CompleteRequest{Worker: "w2", ID: job.ID, Digest: 7, Record: completionFor(t, cell, 7)}, &second)
	if second.State != StateDone {
		t.Fatalf("duplicate completion = %+v", second)
	}
	if s := h.status(t); s.Completed != 1 || s.JobsDone != 1 {
		t.Fatalf("status = %+v", s)
	}
}

// TestCompleteUnderAnotherAddressIsRefused: a worker built from another
// simulator version addresses its record under another run ID. The
// coordinator holds the record to the job's own address, so the foreign
// record never reaches the ledger, the attempt is charged as a failure,
// and the error chain says why.
func TestCompleteUnderAnotherAddressIsRefused(t *testing.T) {
	led, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, Params{Ledger: led, MaxAttempts: 1})
	cell := testCell(t, 1)
	h.submit(t, cell)
	job, _ := h.lease(t, "w1")

	rec := completionFor(t, cell, 7)
	var cfg config.Config
	if err := json.Unmarshal(cell.Config, &cfg); err != nil {
		t.Fatal(err)
	}
	if rec.Manifest.ID, _, err = ledger.RunID(&cfg, cell.Workload, "another-version"); err != nil {
		t.Fatal(err)
	}
	if code := h.post(t, "/farm/complete", CompleteRequest{Worker: "w1", ID: job.ID, Digest: 7, Record: rec}, nil); code != http.StatusConflict {
		t.Fatalf("foreign-address completion = %d, want 409", code)
	}
	if led.Has(rec.Manifest.ID) || led.Has(job.ID) {
		t.Fatal("a refused completion reached the ledger")
	}
	res := h.submit(t, cell)
	if res.State != StateQuarantined || len(res.Errors) != 1 || !strings.Contains(res.Errors[0], "another simulator version") {
		t.Fatalf("job after a foreign completion = %+v", res)
	}
	if s := h.status(t); s.Failures != 1 || s.Completed != 0 {
		t.Fatalf("status = %+v", s)
	}
}

// TestWorkerPoolHealth pins the /healthz wiring input: pending work
// with no live workers is degraded; a live worker or an idle pool is
// ok.
func TestWorkerPoolHealth(t *testing.T) {
	h := newHarness(t, Params{Lease: 10 * time.Second})
	if s, d := h.c.Health(); s != "ok" {
		t.Fatalf("idle pool health = %q (%s)", s, d)
	}
	h.submit(t, testCell(t, 1))
	if s, d := h.c.Health(); s != "degraded" {
		t.Fatalf("pending work, no workers: health = %q (%s)", s, d)
	}
	h.lease(t, "w1") // registers and takes the job
	if s, d := h.c.Health(); s != "ok" {
		t.Fatalf("live worker health = %q (%s)", s, d)
	}
	// Worker goes silent: after two lease periods it is no longer
	// live, and its expired job is pending again.
	h.clock.Advance(25 * time.Second)
	if s, d := h.c.Health(); s != "degraded" {
		t.Fatalf("silent worker health = %q (%s)", s, d)
	}
}
