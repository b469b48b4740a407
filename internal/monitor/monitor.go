// Package monitor serves a live observability plane for a running
// simulation over HTTP: /metrics (Prometheus text exposition rendered
// from the telemetry registry), /snapshot (a JSON point-in-time dump
// including the attribution breakdown and parallel-runner progress),
// /healthz, and the stdlib pprof handlers. With a run ledger attached
// it also serves the cross-run surface — /runs (list + filter), /runs/
// {id} (full manifest + metrics), /compare?a=&b= (threshold-classified
// delta) — and a live /dashboard page that polls /snapshot.
//
// The simulation loop and the HTTP handlers never share the registry:
// the loop publishes a snapshot under a brief mutex via Collect (wired
// as an engine ticker), handlers copy it under the same mutex and
// render outside it. A slow scraper therefore can never block a
// simulated cycle, and the registry — which is not safe for concurrent
// access — is only ever read from the simulation goroutine. Collect
// does no per-watcher work. Ledger handlers read only the append-only
// store on disk, never the simulation.
package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"stackedsim/internal/attrib"
	"stackedsim/internal/ledger"
	"stackedsim/internal/powerthermal"
	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
)

// Progress counts a parallel runner's simulations by state. All fields
// are cumulative except Queued and Running, which are instantaneous.
type Progress struct {
	Queued    int64 `json:"queued"`
	Running   int64 `json:"running"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// LedgerHits counts runs served from the result ledger instead of
	// being simulated.
	LedgerHits int64 `json:"ledger_hits,omitempty"`
	// LedgerWriteRetries counts retried transient ledger write failures
	// (the ledger.write_retries metric).
	LedgerWriteRetries int64 `json:"ledger_write_retries,omitempty"`
	// Runs, when supplied, lists every executed run so /snapshot shows
	// which ones failed (Err != "") and which ran slow.
	Runs []RunReport `json:"runs,omitempty"`
}

// HealthCheck is one named readiness probe in the /healthz report.
// Status is "ok", "degraded" (serving but impaired: unreachable
// ledger, a farm with pending work and no live workers) or "down".
type HealthCheck struct {
	Name   string `json:"name"`
	Status string `json:"status"`
	Detail string `json:"detail,omitempty"`
}

// RunReport mirrors core.RunReport on the wire: one executed run's
// identity, wall time, and outcome (empty Err = success).
type RunReport struct {
	Config      string  `json:"config"`
	Label       string  `json:"label"`
	WallSeconds float64 `json:"wall_seconds"`
	Err         string  `json:"error,omitempty"`
}

// scalar is one counter/gauge value frozen at snapshot time.
type scalar struct {
	name string
	kind telemetry.MetricKind
	v    float64
}

// distribution is one distribution summary frozen at snapshot time.
type distribution struct {
	name  string
	count uint64
	sum   uint64
	mean  float64
	p50   int
	p90   int
	p99   int
}

// snapshot is the mutex-guarded state shared between the simulation
// goroutine (writer) and the HTTP handlers (readers).
type snapshot struct {
	cycle   sim.Cycle
	scalars []scalar
	dists   []distribution
	attrib  *attrib.Breakdown
	pt      *powerthermal.State
}

// Server is the HTTP observability plane for one process. Configure
// the exported fields before Start; they are read-only afterwards.
type Server struct {
	// Registry, when set, is snapshotted by Collect. It must only be
	// touched from the goroutine calling Collect (the simulation loop).
	Registry *telemetry.Registry
	// AttribFn, when set, supplies the attribution breakdown for each
	// snapshot. Called from the Collect goroutine only.
	AttribFn func() *attrib.Breakdown
	// PowerThermalFn, when set, supplies the power/thermal block for
	// each snapshot (the tracker's State: no trajectory). Called from the
	// Collect goroutine only.
	PowerThermalFn func() *powerthermal.State
	// ProgressFn, when set, supplies live runner progress. Unlike the
	// registry it is polled from handler goroutines, so it must be
	// safe for concurrent use (core.Runner's Status is atomics-backed).
	ProgressFn func() Progress
	// Ledger, when set, backs the /runs, /runs/{id} and /compare
	// endpoints. The ledger is safe for concurrent use and its handlers
	// only touch the on-disk store, never the simulation. It also adds
	// a built-in "ledger" reachability check to /healthz.
	Ledger *ledger.Ledger
	// HealthFn, when set, contributes extra readiness checks to
	// /healthz (e.g. the farm coordinator's worker-pool liveness).
	// Polled from handler goroutines; must be safe for concurrent use.
	HealthFn func() []HealthCheck
	// FarmHandler, when set, is mounted under /farm/ — the sim-farm
	// coordinator's job API rides on the same mux and lifecycle as the
	// observability plane. The handler is generic so monitor stays free
	// of the farm package (and core with it).
	FarmHandler http.Handler

	mu       sync.Mutex
	snap     snapshot
	collects atomic.Int64

	ln  net.Listener
	srv *http.Server
}

// Collect publishes the current registry state (and attribution
// breakdown) as the served snapshot. It implements sim.Ticker so the
// engine can drive it at a fixed interval; the handlers only ever see
// the state as of the last call.
func (s *Server) Collect(now sim.Cycle) {
	var snap snapshot
	snap.cycle = now
	s.Registry.Scalars(func(name string, kind telemetry.MetricKind, v float64) {
		snap.scalars = append(snap.scalars, scalar{name: name, kind: kind, v: v})
	})
	s.Registry.Distributions(func(name string, d *telemetry.Distribution) {
		h := d.Histogram()
		qs := h.Quantiles(0.50, 0.90, 0.99)
		snap.dists = append(snap.dists, distribution{
			name: name, count: h.Count(), sum: h.Sum(), mean: h.MeanValue(),
			p50: qs[0], p90: qs[1], p99: qs[2],
		})
	})
	if s.AttribFn != nil {
		snap.attrib = s.AttribFn()
	}
	if s.PowerThermalFn != nil {
		snap.pt = s.PowerThermalFn()
	}
	s.mu.Lock()
	s.snap = snap
	s.mu.Unlock()
	s.collects.Add(1)
}

// Tick implements sim.Ticker; register with e.g.
// engine.RegisterEvery(10000, 0, srv).
func (s *Server) Tick(now sim.Cycle) { s.Collect(now) }

// copySnapshot returns the published snapshot. The slices are replaced
// wholesale by Collect, never mutated in place, so sharing the backing
// arrays with handlers is safe.
func (s *Server) copySnapshot() snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

// progress polls ProgressFn (zero Progress when unset).
func (s *Server) progress() (Progress, bool) {
	if s.ProgressFn == nil {
		return Progress{}, false
	}
	return s.ProgressFn(), true
}

// Handler builds the monitor mux (also used by httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/runs", s.handleRuns)
	mux.HandleFunc("/runs/{id}", s.handleRun)
	mux.HandleFunc("/compare", s.handleCompare)
	mux.HandleFunc("/dashboard", s.handleDashboard)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if s.FarmHandler != nil {
		mux.Handle("/farm/", s.FarmHandler)
	}
	return mux
}

// Start begins serving on addr (e.g. ":8080", or ":0" to pick a free
// port — see Addr). The listener is bound synchronously, so a nil
// error means the endpoints are live; serving then proceeds on a
// background goroutine for the life of the process.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("monitor: %w", err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener immediately, dropping in-flight scrapes.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// Shutdown stops the server gracefully: the listener closes at once
// (no new scrapes) while in-flight requests get until ctx is done to
// finish. A server that never Started shuts down trivially.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

// healthReport is the /healthz wire format: an overall status (the
// worst of the checks), the snapshot count, and each named check.
type healthReport struct {
	Status   string        `json:"status"`
	Collects int64         `json:"collects"`
	Checks   []HealthCheck `json:"checks,omitempty"`
}

// healthRank orders statuses for the overall roll-up; unknown strings
// rank as down so a misbehaving check can never mask a problem.
func healthRank(status string) int {
	switch status {
	case "ok":
		return 0
	case "degraded":
		return 1
	default:
		return 2
	}
}

// handleHealthz serves the structured readiness report. HTTP status is
// exit-code-friendly for scripts: 200 only when every check is ok, 503
// otherwise — `curl -fsS /healthz` fails exactly when the process is
// degraded. A bare server with no checks is always ok (liveness).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	report := healthReport{Status: "ok", Collects: s.collects.Load()}
	if s.Ledger != nil {
		check := HealthCheck{Name: "ledger", Status: "ok"}
		if ms, err := s.Ledger.Manifests(); err != nil {
			check.Status = "degraded"
			check.Detail = err.Error()
		} else {
			check.Detail = fmt.Sprintf("runs=%d", len(ms))
		}
		report.Checks = append(report.Checks, check)
	}
	if s.HealthFn != nil {
		report.Checks = append(report.Checks, s.HealthFn()...)
	}
	for _, c := range report.Checks {
		if healthRank(c.Status) > healthRank(report.Status) {
			report.Status = c.Status
		}
	}
	code := http.StatusOK
	if report.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(report) //nolint:errcheck // best-effort over HTTP
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.copySnapshot()
	var prog *Progress
	if p, ok := s.progress(); ok {
		prog = &p
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writePrometheus(w, &snap, prog)
}

// jsonSnapshot is the /snapshot wire format.
type jsonSnapshot struct {
	Cycle         int64               `json:"cycle"`
	Metrics       map[string]float64  `json:"metrics"`
	Distributions []jsonDist          `json:"distributions,omitempty"`
	Attribution   *attrib.Breakdown   `json:"attribution,omitempty"`
	PowerThermal  *powerthermal.State `json:"power_thermal,omitempty"`
	Progress      *Progress           `json:"progress,omitempty"`
}

type jsonDist struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int     `json:"p50"`
	P90   int     `json:"p90"`
	P99   int     `json:"p99"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	snap := s.copySnapshot()
	out := jsonSnapshot{
		Cycle:        int64(snap.cycle),
		Metrics:      make(map[string]float64, len(snap.scalars)),
		Attribution:  snap.attrib,
		PowerThermal: snap.pt,
	}
	for _, sc := range snap.scalars {
		out.Metrics[sc.name] = sc.v
	}
	for _, d := range snap.dists {
		out.Distributions = append(out.Distributions, jsonDist{
			Name: d.name, Count: d.count, Mean: d.mean, P50: d.p50, P90: d.p90, P99: d.p99,
		})
	}
	if p, ok := s.progress(); ok {
		out.Progress = &p
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out) //nolint:errcheck // best-effort over HTTP
}
