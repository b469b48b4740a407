package farm

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// retryClient is a Client with millisecond backoff for fast tests.
func retryClient(url string) *Client {
	c := NewClient(url)
	c.RetryBase = time.Millisecond
	c.RetryMax = 2 * time.Millisecond
	return c
}

// TestClientRetriesTransient pins the transient taxonomy: 5xx responses
// are retried with backoff and the call succeeds once the server does.
func TestClientRetriesTransient(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"flaky"}`, http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"id":"x","state":"queued"}`))
	}))
	t.Cleanup(ts.Close)

	sub, err := retryClient(ts.URL).Submit(context.Background(), Cell{})
	if err != nil {
		t.Fatalf("submit through flaky server: %v", err)
	}
	if sub.ID != "x" || calls.Load() != 3 {
		t.Fatalf("sub=%+v calls=%d", sub, calls.Load())
	}
}

// TestClientRetryBudgetExhausted pins the bound: persistent 5xx burns
// exactly Attempts tries, then surfaces the failure.
func TestClientRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusBadGateway)
	}))
	t.Cleanup(ts.Close)

	c := retryClient(ts.URL)
	c.Attempts = 3
	_, err := c.Submit(context.Background(), Cell{})
	if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
}

// TestClientShedDoesNotConsumeBudget pins 429 handling: shed-load
// responses wait and retry without touching the transient-failure
// budget — a full queue is backpressure, not an error.
func TestClientShedDoesNotConsumeBudget(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 3 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"id":"x","state":"queued"}`))
	}))
	t.Cleanup(ts.Close)

	c := retryClient(ts.URL)
	c.Attempts = 1 // three sheds would exhaust any budget they consumed
	sub, err := c.Submit(context.Background(), Cell{})
	if err != nil {
		t.Fatalf("submit through shedding server: %v", err)
	}
	if sub.ID != "x" || calls.Load() != 4 {
		t.Fatalf("sub=%+v calls=%d", sub, calls.Load())
	}
}

// TestClientHonorsRetryAfter pins that a 429's Retry-After delay is
// obeyed rather than the default backoff.
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"id":"x","state":"queued"}`))
	}))
	t.Cleanup(ts.Close)

	start := time.Now()
	if _, err := retryClient(ts.URL).Submit(context.Background(), Cell{}); err != nil {
		t.Fatal(err)
	}
	if wait := time.Since(start); wait < 900*time.Millisecond {
		t.Fatalf("retried after %v, want >= Retry-After (1s)", wait)
	}
}

// TestClientLeaseLost pins the 410 mapping: a heartbeat on an expired
// lease comes back as ErrLeaseLost, which the worker matches with
// errors.Is to abandon the run.
func TestClientLeaseLost(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusGone)
		w.Write([]byte(`{"error":"lease expired"}`))
	}))
	t.Cleanup(ts.Close)

	err := retryClient(ts.URL).Heartbeat(context.Background(), "w1", "job", false)
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("err = %v, want ErrLeaseLost", err)
	}
	if !strings.Contains(err.Error(), "lease expired") {
		t.Fatalf("server detail lost: %v", err)
	}
}

// TestClientPermanentError pins that other 4xx responses surface the
// server's message immediately, with no retries.
func TestClientPermanentError(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad cell"}`, http.StatusBadRequest)
	}))
	t.Cleanup(ts.Close)

	_, err := retryClient(ts.URL).Submit(context.Background(), Cell{})
	if err == nil || !strings.Contains(err.Error(), "bad cell") {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("400 was retried: %d calls", calls.Load())
	}
}
