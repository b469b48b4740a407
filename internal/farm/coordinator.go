package farm

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"stackedsim/internal/config"
	"stackedsim/internal/core"
	"stackedsim/internal/ledger"
	"stackedsim/internal/workload"
)

// Params configures a Coordinator. Zero values pick the defaults noted
// on each field.
type Params struct {
	// Ledger, when non-nil, backs the job store: already-recorded cells
	// are served at submit time without dispatch, and completed jobs
	// are persisted so a coordinator restart loses nothing that
	// finished. The farm's whole idempotence story rides on this being
	// the same content-addressed store the rest of the tooling uses.
	Ledger *ledger.Ledger
	// Lease is the heartbeat deadline (default 15s). A worker that goes
	// this long without a heartbeat loses the job.
	Lease time.Duration
	// MaxQueue bounds pending (queued + running) jobs; submissions past
	// it are shed with 429 + Retry-After (default 1024).
	MaxQueue int
	// MaxAttempts is the failure budget per job — expired leases and
	// error completions both count — before it is quarantined
	// (default 3).
	MaxAttempts int
	// BackoffBase/BackoffMax shape the re-dispatch delay after a
	// failure: base·2^(n-1) capped at max, plus up to 50% jitter
	// (defaults 250ms / 30s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed makes the jitter sequence reproducible in tests (0 = 1).
	Seed int64
	// Clock is the time source; tests inject a fake one so lease expiry
	// and backoff are exercised without sleeping (default time.Now).
	Clock func() time.Time
}

// job is the coordinator's record of one cell.
type job struct {
	id        string
	cell      Cell
	state     string
	attempts  int // dispatches
	failures  int // expired leases + error completions
	notBefore time.Time
	worker    string
	expires   time.Time
	errors    []string
	summary   json.RawMessage
	digest    uint64
}

type workerInfo struct {
	lastSeen time.Time
	job      string
}

// Coordinator owns the job table. All state lives under one mutex —
// jobs are coarse (whole simulations), so handler critical sections are
// microseconds against multi-second leases.
type Coordinator struct {
	p Params

	mu      sync.Mutex
	jobs    map[string]*job
	queue   []string // dispatch order; lease scans for the first eligible entry
	workers map[string]*workerInfo
	rng     *rand.Rand

	submitted   int64
	dispatched  int64
	ledgerHits  int64
	completed   int64
	failures    int64
	expirations int64
	shed        int64
}

// NewCoordinator fills p's defaults and returns an empty coordinator.
func NewCoordinator(p Params) *Coordinator {
	if p.Lease <= 0 {
		p.Lease = 15 * time.Second
	}
	if p.MaxQueue <= 0 {
		p.MaxQueue = 1024
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 250 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 30 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Clock == nil {
		p.Clock = time.Now
	}
	return &Coordinator{
		p:       p,
		jobs:    make(map[string]*job),
		workers: make(map[string]*workerInfo),
		rng:     rand.New(rand.NewSource(p.Seed)),
	}
}

// Handler returns the /farm/ mux. Routes are absolute, so the handler
// can be mounted directly on the monitor mux (Server.FarmHandler) or
// served stand-alone.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /farm/submit", c.handleSubmit)
	mux.HandleFunc("POST /farm/lease", c.handleLease)
	mux.HandleFunc("POST /farm/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /farm/complete", c.handleComplete)
	mux.HandleFunc("POST /farm/deregister", c.handleDeregister)
	mux.HandleFunc("GET /farm/status", c.handleStatus)
	return mux
}

// now reads the clock. Callers must hold no assumption that it is
// monotonic across fake-clock adjustments.
func (c *Coordinator) now() time.Time { return c.p.Clock() }

// sweepLocked expires leases whose heartbeat deadline has passed.
// Called at the top of every handler under mu — lazy expiry instead of
// a background timer keeps the coordinator fully deterministic under a
// fake clock.
func (c *Coordinator) sweepLocked(now time.Time) {
	for _, j := range c.jobs {
		if j.state == StateRunning && now.After(j.expires) {
			c.expirations++
			c.failLocked(j, now, fmt.Sprintf("lease expired on worker %q (attempt %d)", j.worker, j.attempts))
		}
	}
}

// failLocked charges one failure and either requeues the job with
// backoff or quarantines it.
func (c *Coordinator) failLocked(j *job, now time.Time, reason string) {
	c.failures++
	j.failures++
	j.errors = append(j.errors, reason)
	if w := c.workers[j.worker]; w != nil && w.job == j.id {
		w.job = ""
	}
	j.worker = ""
	if j.failures >= c.p.MaxAttempts {
		j.state = StateQuarantined
		c.dequeueLocked(j.id)
		return
	}
	j.state = StateQueued
	j.notBefore = now.Add(c.backoffLocked(j.failures))
	c.enqueueLocked(j.id, true)
}

// backoffLocked returns the re-dispatch delay after the n-th failure:
// base·2^(n-1) capped at max, plus up to 50% jitter so a herd of
// same-failure jobs does not re-dispatch in lockstep.
func (c *Coordinator) backoffLocked(n int) time.Duration {
	d := c.p.BackoffBase
	for i := 1; i < n && d < c.p.BackoffMax; i++ {
		d *= 2
	}
	if d > c.p.BackoffMax {
		d = c.p.BackoffMax
	}
	return d + time.Duration(c.rng.Float64()*float64(d)/2)
}

// enqueueLocked adds id to the dispatch order (front = next). Released
// and failed jobs go to the front, so a cell already dispatched once
// finishes before fresh work starts.
func (c *Coordinator) enqueueLocked(id string, front bool) {
	for _, q := range c.queue {
		if q == id {
			return
		}
	}
	if front {
		c.queue = append([]string{id}, c.queue...)
		return
	}
	c.queue = append(c.queue, id)
}

func (c *Coordinator) dequeueLocked(id string) {
	for i, q := range c.queue {
		if q == id {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

// pendingLocked counts jobs occupying queue capacity.
func (c *Coordinator) pendingLocked() int {
	n := 0
	for _, j := range c.jobs {
		if j.state == StateQueued || j.state == StateRunning {
			n++
		}
	}
	return n
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// handleSubmit registers one cell. The job ID is the cell's run identity
// under this binary's simulator version, recomputed from the decoded
// config server-side, so it is what the local ledger would compute for
// the same cell; handleComplete holds every worker's record to it.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var cell Cell
	if !decodeBody(w, r, &cell) {
		return
	}
	var cfg config.Config
	if err := json.Unmarshal(cell.Config, &cfg); err != nil {
		writeError(w, http.StatusBadRequest, "cell config does not decode: %v", err)
		return
	}
	if _, err := workload.ParseLabels(cell.Workload); err != nil {
		writeError(w, http.StatusBadRequest, "cell workload is invalid: %v", err)
		return
	}
	id, _, err := core.RunIdentity(&cfg, cell.Workload)
	if err != nil {
		writeError(w, http.StatusBadRequest, "cell is not addressable: %v", err)
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.sweepLocked(now)
	c.submitted++

	if j, ok := c.jobs[id]; ok {
		writeJSON(w, http.StatusOK, submitViewLocked(j))
		return
	}
	if c.p.Ledger != nil && c.p.Ledger.Has(id) {
		if rec, err := c.p.Ledger.Get(id); err == nil {
			c.ledgerHits++
			j := &job{id: id, cell: cell, state: StateDone, summary: rec.Summary}
			c.jobs[id] = j
			writeJSON(w, http.StatusOK, submitViewLocked(j))
			return
		}
	}
	if c.pendingLocked() >= c.p.MaxQueue {
		c.shed++
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(c.p.Lease)))
		writeError(w, http.StatusTooManyRequests, "queue full (%d pending), retry later", c.p.MaxQueue)
		return
	}
	j := &job{id: id, cell: cell, state: StateQueued}
	c.jobs[id] = j
	c.enqueueLocked(id, false)
	writeJSON(w, http.StatusOK, submitViewLocked(j))
}

// retryAfterSeconds suggests a Retry-After for shed load: one lease
// period (jobs can't drain faster than that under failure), floored at
// 1s so clients always back off a beat.
func retryAfterSeconds(lease time.Duration) int {
	s := int(lease / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

func submitViewLocked(j *job) SubmitResponse {
	return SubmitResponse{
		ID:      j.id,
		State:   j.state,
		Summary: j.summary,
		Digest:  j.digest,
		Errors:  append([]string(nil), j.errors...),
	}
}

// handleLease hands the first eligible queued job to the requesting
// worker, or 204 when none is ready (backoff windows count as not
// ready).
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, "lease needs a worker name")
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.sweepLocked(now)
	c.touchWorkerLocked(req.Worker, now)

	for i, id := range c.queue {
		j := c.jobs[id]
		if j == nil || j.state != StateQueued || now.Before(j.notBefore) {
			continue
		}
		c.queue = append(c.queue[:i], c.queue[i+1:]...)
		j.state = StateRunning
		j.worker = req.Worker
		j.expires = now.Add(c.p.Lease)
		j.attempts++
		c.dispatched++
		c.workers[req.Worker].job = j.id
		writeJSON(w, http.StatusOK, LeasedJob{
			ID:       j.id,
			Config:   j.cell.Config,
			Workload: j.cell.Workload,
			Attempt:  j.attempts,
			LeaseMS:  c.p.Lease.Milliseconds(),
		})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) touchWorkerLocked(name string, now time.Time) {
	wi := c.workers[name]
	if wi == nil {
		wi = &workerInfo{}
		c.workers[name] = wi
	}
	wi.lastSeen = now
}

// handleHeartbeat renews a lease. 410 Gone tells a worker its lease was
// lost — the job expired and may already be running elsewhere, so the
// worker must abandon it. Release=true is the graceful path: job back to
// the front of the queue, no failure charged.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.sweepLocked(now)
	c.touchWorkerLocked(req.Worker, now)

	j := c.jobs[req.ID]
	if j == nil {
		writeError(w, http.StatusNotFound, "no job %q", req.ID)
		return
	}
	if j.state != StateRunning || j.worker != req.Worker {
		writeError(w, http.StatusGone, "lease on %q lost (state %s, held by %q)", req.ID, j.state, j.worker)
		return
	}
	if req.Release {
		j.state = StateQueued
		j.worker = ""
		j.notBefore = time.Time{}
		c.workers[req.Worker].job = ""
		c.enqueueLocked(j.id, true)
		writeJSON(w, http.StatusOK, map[string]string{"state": j.state})
		return
	}
	j.expires = now.Add(c.p.Lease)
	writeJSON(w, http.StatusOK, map[string]string{"state": j.state})
}

// handleComplete lands a result or a failure. Completions are
// idempotent and first-wins: a slow worker whose lease expired can
// still land its (deterministically identical) result, and the
// re-dispatched copy's later completion is a no-op — zero lost, zero
// duplicated cells.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.sweepLocked(now)
	c.touchWorkerLocked(req.Worker, now)

	j := c.jobs[req.ID]
	if j == nil {
		writeError(w, http.StatusNotFound, "no job %q", req.ID)
		return
	}
	if j.state == StateDone {
		writeJSON(w, http.StatusOK, submitViewLocked(j))
		return
	}
	if req.Error != "" {
		// Only the current lease holder can charge a failure; an error
		// from a worker whose lease already expired was charged at
		// expiry and the job may be running elsewhere.
		if j.state == StateRunning && j.worker == req.Worker {
			c.failLocked(j, now, fmt.Sprintf("worker %q attempt %d: %s", req.Worker, j.attempts, req.Error))
		}
		writeJSON(w, http.StatusOK, submitViewLocked(j))
		return
	}
	if req.Record == nil || len(req.Record.Summary) == 0 {
		writeError(w, http.StatusBadRequest, "completion for %q has neither record nor error", req.ID)
		return
	}
	if got := req.Record.Manifest.ID; got != j.id {
		// The worker addressed its result differently: it runs another
		// simulator version, so its numbers do not answer this cell.
		// Charged like an error completion, so a pool of such workers
		// quarantines the job instead of cycling it forever.
		reason := fmt.Sprintf("worker %q attempt %d: record addressed %s, not %s (another simulator version)",
			req.Worker, j.attempts, got, j.id)
		if j.state == StateRunning && j.worker == req.Worker {
			c.failLocked(j, now, reason)
		}
		writeError(w, http.StatusConflict, "%s", reason)
		return
	}
	j.state = StateDone
	j.summary = req.Record.Summary
	j.digest = req.Digest
	if wi := c.workers[j.worker]; wi != nil && wi.job == j.id {
		wi.job = ""
	}
	j.worker = ""
	c.dequeueLocked(j.id)
	c.completed++
	if c.p.Ledger != nil {
		if _, err := c.p.Ledger.Put(req.Record); err != nil {
			// The result is still served from memory; only restart
			// durability is lost. Surface it on the job's error chain.
			j.errors = append(j.errors, fmt.Sprintf("ledger write failed: %v", err))
		}
	}
	writeJSON(w, http.StatusOK, submitViewLocked(j))
}

// handleDeregister removes a worker from the pool, releasing any job it
// still holds (graceful, no failure charged).
func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req DeregisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.sweepLocked(now)
	if wi := c.workers[req.Worker]; wi != nil {
		if j := c.jobs[wi.job]; j != nil && j.state == StateRunning && j.worker == req.Worker {
			j.state = StateQueued
			j.worker = ""
			j.notBefore = time.Time{}
			c.enqueueLocked(j.id, true)
		}
		delete(c.workers, req.Worker)
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleStatus serves the pool summary, or one job's detail with ?id=.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.sweepLocked(now)

	if id := r.URL.Query().Get("id"); id != "" {
		j := c.jobs[id]
		if j == nil {
			writeError(w, http.StatusNotFound, "no job %q", id)
			return
		}
		writeJSON(w, http.StatusOK, c.jobViewLocked(j))
		return
	}
	writeJSON(w, http.StatusOK, c.statusLocked(now))
}

func (c *Coordinator) jobViewLocked(j *job) JobStatus {
	return JobStatus{
		ID:       j.id,
		State:    j.state,
		Workload: j.cell.Workload,
		Attempts: j.attempts,
		Failures: j.failures,
		Worker:   j.worker,
		Errors:   append([]string(nil), j.errors...),
		Summary:  j.summary,
		Digest:   j.digest,
	}
}

func (c *Coordinator) statusLocked(now time.Time) Status {
	s := Status{
		Submitted:   c.submitted,
		Dispatched:  c.dispatched,
		LedgerHits:  c.ledgerHits,
		Completed:   c.completed,
		Failures:    c.failures,
		Expirations: c.expirations,
		Shed:        c.shed,
		Workers:     []WorkerStatus{},
	}
	for _, j := range c.jobs {
		switch j.state {
		case StateQueued:
			s.JobsQueued++
		case StateRunning:
			s.JobsRunning++
		case StateDone:
			s.JobsDone++
		case StateQuarantined:
			s.JobsQuarantined++
		}
	}
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wi := c.workers[name]
		s.Workers = append(s.Workers, WorkerStatus{
			Name:       name,
			Job:        wi.job,
			LastSeenMS: now.Sub(wi.lastSeen).Milliseconds(),
			Live:       c.liveLocked(wi, now),
		})
	}
	return s
}

// liveLocked: a worker is live while it has contacted the coordinator
// within two lease periods (idle workers poll at least once per lease).
func (c *Coordinator) liveLocked(wi *workerInfo, now time.Time) bool {
	return now.Sub(wi.lastSeen) <= 2*c.p.Lease
}

// Health reports the pool's readiness for /healthz: degraded when work
// is pending but no live worker can take it, or when jobs have been
// quarantined.
func (c *Coordinator) Health() (status, detail string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.sweepLocked(now)
	live := 0
	for _, wi := range c.workers {
		if c.liveLocked(wi, now) {
			live++
		}
	}
	pending, quarantined := 0, 0
	for _, j := range c.jobs {
		switch j.state {
		case StateQueued, StateRunning:
			pending++
		case StateQuarantined:
			quarantined++
		}
	}
	detail = fmt.Sprintf("workers=%d live=%d pending=%d quarantined=%d", len(c.workers), live, pending, quarantined)
	if pending > 0 && live == 0 {
		return "degraded", detail + " (pending work, no live workers)"
	}
	if quarantined > 0 {
		return "degraded", detail + " (quarantined jobs need attention)"
	}
	return "ok", detail
}
