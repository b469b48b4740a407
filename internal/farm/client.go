package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"stackedsim/internal/config"
	"stackedsim/internal/core"
	"stackedsim/internal/ledger"
)

// ErrLeaseLost reports a heartbeat rejected with 410 Gone: the lease
// expired (or the job finished elsewhere) and the worker must abandon
// the run.
var ErrLeaseLost = errors.New("farm: lease lost")

// Client talks to a coordinator, absorbing the transient failures a
// farm lives with: network errors and 5xx responses are retried with
// exponential backoff + jitter up to Attempts, and 429 shed-load
// responses honor Retry-After for as long as the caller's context
// allows (waiting out a full queue is not a failure).
type Client struct {
	// Base is the coordinator root, e.g. "http://127.0.0.1:9090".
	Base string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
	// Attempts bounds tries per call for transient failures
	// (default 8).
	Attempts int
	// RetryBase/RetryMax shape the retry backoff (defaults 100ms/5s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Poll is the result-poll interval for Run (default 200ms).
	Poll time.Duration
}

// NewClient returns a Client for addr ("host:port" or a full URL).
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{Base: strings.TrimRight(addr, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) attempts() int {
	if c.Attempts > 0 {
		return c.Attempts
	}
	return 8
}

func (c *Client) backoff(attempt int) time.Duration {
	base, max := c.RetryBase, c.RetryMax
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// apiError is a non-2xx response that is not transient.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("farm: coordinator returned %d: %s", e.status, e.msg)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do POSTs in (or GETs when in is nil) to path, decoding a 2xx body
// into out (when non-nil). Transient failures are retried; permanent
// ones surface the server's error message. A 204 leaves out untouched;
// callers distinguish it by the returned status.
func (c *Client) do(ctx context.Context, method, path string, in, out any) (status int, err error) {
	var body []byte
	if in != nil {
		if body, err = json.Marshal(in); err != nil {
			return 0, fmt.Errorf("farm: encode %s: %w", path, err)
		}
	}
	for attempt := 1; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, rerr := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
		if rerr != nil {
			return 0, rerr
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, derr := c.httpClient().Do(req)
		if derr != nil {
			if ctx.Err() != nil {
				return 0, ctx.Err()
			}
			if attempt >= c.attempts() {
				return 0, fmt.Errorf("farm: %s failed after %d attempts: %w", path, attempt, derr)
			}
			if err := sleepCtx(ctx, c.backoff(attempt)); err != nil {
				return 0, err
			}
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			// Shed load: wait as told and try again without consuming
			// the transient-failure budget. Bounded by ctx.
			wait := c.backoff(1)
			if s, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && s > 0 {
				wait = time.Duration(s) * time.Second
			}
			if err := sleepCtx(ctx, wait); err != nil {
				return resp.StatusCode, err
			}
			continue
		case resp.StatusCode >= 500:
			if attempt >= c.attempts() {
				return resp.StatusCode, fmt.Errorf("farm: %s failed after %d attempts: %s", path, attempt, apiMessage(resp.StatusCode, data))
			}
			if err := sleepCtx(ctx, c.backoff(attempt)); err != nil {
				return resp.StatusCode, err
			}
			continue
		case resp.StatusCode == http.StatusGone:
			return resp.StatusCode, fmt.Errorf("%w: %s", ErrLeaseLost, apiMessage(resp.StatusCode, data))
		case resp.StatusCode >= 400:
			return resp.StatusCode, &apiError{status: resp.StatusCode, msg: apiMessage(resp.StatusCode, data)}
		case resp.StatusCode == http.StatusNoContent:
			return resp.StatusCode, nil
		default:
			if out != nil {
				if err := json.Unmarshal(data, out); err != nil {
					return resp.StatusCode, fmt.Errorf("farm: decode %s response: %w", path, err)
				}
			}
			return resp.StatusCode, nil
		}
	}
}

func apiMessage(status int, data []byte) string {
	var e errorResponse
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return http.StatusText(status)
}

// Submit registers a cell and returns the job it collapsed onto.
func (c *Client) Submit(ctx context.Context, cell Cell) (*SubmitResponse, error) {
	var out SubmitResponse
	if _, err := c.do(ctx, http.MethodPost, "/farm/submit", cell, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Lease asks for one job; nil means none is ready.
func (c *Client) Lease(ctx context.Context, worker string) (*LeasedJob, error) {
	var out LeasedJob
	status, err := c.do(ctx, http.MethodPost, "/farm/lease", LeaseRequest{Worker: worker}, &out)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNoContent {
		return nil, nil
	}
	return &out, nil
}

// Heartbeat renews (or with release=true hands back) a lease. Returns
// ErrLeaseLost when the coordinator no longer recognizes the lease.
func (c *Client) Heartbeat(ctx context.Context, worker, id string, release bool) error {
	_, err := c.do(ctx, http.MethodPost, "/farm/heartbeat",
		HeartbeatRequest{Worker: worker, ID: id, Release: release}, nil)
	return err
}

// Complete lands a finished job's record (or its error).
func (c *Client) Complete(ctx context.Context, worker, id string, rec *ledger.Record, digest uint64, runErr string) error {
	_, err := c.do(ctx, http.MethodPost, "/farm/complete",
		CompleteRequest{Worker: worker, ID: id, Digest: digest, Record: rec, Error: runErr}, nil)
	return err
}

// Deregister removes a worker from the pool.
func (c *Client) Deregister(ctx context.Context, worker string) error {
	_, err := c.do(ctx, http.MethodPost, "/farm/deregister", DeregisterRequest{Worker: worker}, nil)
	return err
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var out JobStatus
	if _, err := c.do(ctx, http.MethodGet, "/farm/status?id="+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Status fetches the pool summary.
func (c *Client) Status(ctx context.Context) (*Status, error) {
	var out Status
	if _, err := c.do(ctx, http.MethodGet, "/farm/status", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Run submits one cell and waits for its result — the core.FarmBackend
// implementation behind `experiments -farm`. A cell that is already
// done (ledger hit or finished job) returns without a second round
// trip; otherwise Run polls the job until it lands or quarantines.
func (c *Client) Run(ctx context.Context, cfg *config.Config, workload []string) (core.Metrics, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return core.Metrics{}, fmt.Errorf("farm: encode config: %w", err)
	}
	sub, err := c.Submit(ctx, Cell{Config: raw, Workload: workload})
	if err != nil {
		return core.Metrics{}, err
	}
	poll := c.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	state, summary, errs := sub.State, sub.Summary, sub.Errors
	for {
		switch state {
		case StateDone:
			var m core.Metrics
			if err := json.Unmarshal(summary, &m); err != nil {
				return core.Metrics{}, fmt.Errorf("farm: job %s summary is corrupt: %w", sub.ID, err)
			}
			return m, nil
		case StateQuarantined:
			return core.Metrics{}, fmt.Errorf("farm: job %s quarantined after retries: %s", sub.ID, strings.Join(errs, "; "))
		}
		if err := sleepCtx(ctx, poll); err != nil {
			return core.Metrics{}, err
		}
		js, err := c.Job(ctx, sub.ID)
		if err != nil {
			return core.Metrics{}, err
		}
		state, summary, errs = js.State, js.Summary, js.Errors
	}
}
