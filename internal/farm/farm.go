// Package farm is the distributed experiment service: a coordinator
// that shards sweep cells into jobs keyed by the run ledger's content
// address, and workers that claim those jobs under time-bounded leases.
//
// Robustness is the design center, not a bolt-on:
//
//   - Submission is idempotent. A cell's job ID is its ledger RunID, so
//     duplicate submissions collapse onto the in-flight job and cells
//     whose result is already ledgered are served without dispatch.
//   - Leases are renewed by heartbeat. A worker that stops heartbeating
//     (crash, network flap, preemption) loses its lease; the job is
//     re-dispatched with exponential backoff + jitter to the next
//     worker, which reruns the cell from cycle zero. Determinism makes
//     the failover result bit-identical to an uninterrupted run
//     (TestShardFailoverParity pins this).
//   - Degradation is graceful: a full queue sheds submissions with
//     429 plus Retry-After instead of collapsing, jobs that exhaust
//     their retry budget are quarantined with their error chain rather
//     than wedging the sweep, and SIGTERM drains workers (stop the run,
//     hand the lease back, deregister).
//
// The coordinator mounts on the monitor mux under /farm/; core.Runner
// reaches it through Client, which implements core.FarmBackend.
package farm

import (
	"encoding/json"

	"stackedsim/internal/ledger"
)

// Job states, as reported by /farm/status.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateQuarantined = "quarantined"
)

// Cell is one unit of submitted work: a fully applied config (window,
// seed, organization) plus the canonical workload labels
// (workload.Workload.Labels). The coordinator decodes Config, parses the
// labels — an unresolvable workload is a 400 at submit instead of a
// poison job that burns its whole retry budget — and recomputes the
// ledger RunID server-side, so the job key cannot be spoofed by a
// client sending a mismatched ID.
type Cell struct {
	Config   json.RawMessage `json:"config"`
	Workload []string        `json:"workload"`
}

// SubmitResponse reports the job a cell collapsed onto. For an
// already-done cell (ledger hit or finished job) Summary carries the
// result inline, so the client never needs a second round trip.
type SubmitResponse struct {
	ID      string          `json:"id"`
	State   string          `json:"state"`
	Summary json.RawMessage `json:"summary,omitempty"`
	Digest  uint64          `json:"digest,omitempty"`
	Errors  []string        `json:"errors,omitempty"`
}

// LeaseRequest asks for one job on behalf of a worker.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeasedJob is one dispatched job: the cell to simulate, which attempt
// this is, and the lease TTL the worker must renew within.
type LeasedJob struct {
	ID       string          `json:"id"`
	Config   json.RawMessage `json:"config"`
	Workload []string        `json:"workload"`
	Attempt  int             `json:"attempt"`
	LeaseMS  int64           `json:"lease_ms"`
}

// HeartbeatRequest renews a lease. Release hands the job back
// gracefully — requeued at the front, no failure charged — which is how
// a draining worker exits mid-run.
type HeartbeatRequest struct {
	Worker  string `json:"worker"`
	ID      string `json:"id"`
	Release bool   `json:"release,omitempty"`
}

// CompleteRequest finishes a job: either a full ledger record plus the
// run's architectural digest, or an error (which charges the job's
// retry budget and eventually quarantines it).
type CompleteRequest struct {
	Worker string         `json:"worker"`
	ID     string         `json:"id"`
	Digest uint64         `json:"digest,omitempty"`
	Record *ledger.Record `json:"record,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// DeregisterRequest removes a worker from the pool, requeueing any job
// it still holds.
type DeregisterRequest struct {
	Worker string `json:"worker"`
}

// JobStatus is the /farm/status?id= view of one job.
type JobStatus struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Workload []string        `json:"workload"`
	Attempts int             `json:"attempts"`
	Failures int             `json:"failures"`
	Worker   string          `json:"worker,omitempty"`
	Errors   []string        `json:"errors,omitempty"`
	Summary  json.RawMessage `json:"summary,omitempty"`
	Digest   uint64          `json:"digest,omitempty"`
}

// WorkerStatus is the coordinator's view of one registered worker.
type WorkerStatus struct {
	Name       string `json:"name"`
	Job        string `json:"job,omitempty"`
	LastSeenMS int64  `json:"last_seen_ms"`
	Live       bool   `json:"live"`
}

// Status is the /farm/status summary.
type Status struct {
	JobsQueued      int            `json:"jobs_queued"`
	JobsRunning     int            `json:"jobs_running"`
	JobsDone        int            `json:"jobs_done"`
	JobsQuarantined int            `json:"jobs_quarantined"`
	Submitted       int64          `json:"submitted_total"`
	Dispatched      int64          `json:"dispatched_total"`
	LedgerHits      int64          `json:"ledger_hits_total"`
	Completed       int64          `json:"completed_total"`
	Failures        int64          `json:"failures_total"`
	Expirations     int64          `json:"expirations_total"`
	Shed            int64          `json:"shed_total"`
	Workers         []WorkerStatus `json:"workers"`
}

// errorResponse is the JSON body of every non-2xx farm response.
type errorResponse struct {
	Error string `json:"error"`
}
