package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fastOpts keeps test retries in the millisecond range.
func fastOpts() Options {
	return Options{
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		MaxAttempts: 5,
	}
}

func TestRetriesBackpressureThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, `{"stats":{"nodes":5}}`)
	}))
	defer srv.Close()

	c := New(srv.URL, fastOpts())
	res, err := c.IngestJSONL(context.Background(), []byte(`{"id":1,"labels":["A"]}`))
	if err != nil {
		t.Fatalf("IngestJSONL: %v", err)
	}
	if res.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", res.Attempts)
	}
	if c.Retries() != 2 {
		t.Fatalf("Retries = %d, want 2", c.Retries())
	}
}

func TestSameIdempotencyKeyAcrossRetries(t *testing.T) {
	var mu sync.Mutex
	var keys []string
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			w.WriteHeader(http.StatusInternalServerError) // ambiguous: work may have happened
			return
		}
		fmt.Fprint(w, `{"replayed":true,"stats":{}}`)
	}))
	defer srv.Close()

	c := New(srv.URL, fastOpts())
	res, err := c.IngestJSONL(context.Background(), []byte(`{"id":1,"labels":["A"]}`))
	if err != nil {
		t.Fatalf("IngestJSONL: %v", err)
	}
	if !res.Replayed {
		t.Fatal("server's replayed=true was not decoded")
	}
	if len(keys) != 2 || keys[0] == "" || keys[0] != keys[1] {
		t.Fatalf("retry must reuse the same non-empty key, got %q", keys)
	}
}

func TestUnkeyedWriteNotRetriedOnAmbiguousFailure(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	opts := fastOpts()
	opts.DisableIdempotencyKeys = true
	c := New(srv.URL, opts)
	_, err := c.IngestJSONL(context.Background(), []byte(`{"id":1,"labels":["A"]}`))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
		t.Fatalf("got %v, want StatusError 500", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("unkeyed write retried an ambiguous 500: %d calls", calls.Load())
	}
}

func TestUnkeyedWriteStillRetriedOnSafeBackpressure(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable) // server did no work
			return
		}
		fmt.Fprint(w, `{"stats":{}}`)
	}))
	defer srv.Close()

	opts := fastOpts()
	opts.DisableIdempotencyKeys = true
	c := New(srv.URL, opts)
	if _, err := c.IngestJSONL(context.Background(), []byte(`{"id":1,"labels":["A"]}`)); err != nil {
		t.Fatalf("IngestJSONL: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("503 on unkeyed write should retry: %d calls", calls.Load())
	}
}

func TestReadOnlyRejectionIsNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"service is read-only (wal-broken)"}`, http.StatusConflict)
	}))
	defer srv.Close()

	c := New(srv.URL, fastOpts())
	_, err := c.IngestJSONL(context.Background(), []byte(`{"id":1,"labels":["A"]}`))
	if !IsReadOnly(err) {
		t.Fatalf("got %v, want read-only StatusError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("read-only rejection was retried: %d calls", calls.Load())
	}
}

func TestGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	opts := fastOpts()
	opts.MaxAttempts = 3
	c := New(srv.URL, opts)
	_, err := c.Stats(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("got %v, want StatusError 503", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("made %d attempts, want 3", calls.Load())
	}
}

func TestRetriesConnectionErrors(t *testing.T) {
	// A server that dies after its first accept: the in-flight call
	// fails at the transport layer, and the retry lands on a revived
	// listener (new server on the same address is too racy; instead
	// point at a closed port first via a custom RoundTripper).
	var flaky atomic.Bool
	inner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"nodes":0}`)
	}))
	defer inner.Close()

	rt := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if flaky.CompareAndSwap(false, true) {
			return nil, errors.New("connection refused")
		}
		return http.DefaultTransport.RoundTrip(r)
	})
	opts := fastOpts()
	opts.HTTPClient = &http.Client{Transport: rt}
	c := New(inner.URL, opts)
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("Stats after transient connection error: %v", err)
	}
	if c.Retries() != 1 {
		t.Fatalf("Retries = %d, want 1", c.Retries())
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestCallerContextCancellationWinsOverRetry(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	opts := fastOpts()
	opts.BaseBackoff = time.Hour // the sleep must be interruptible
	opts.MaxBackoff = time.Hour
	c := New(srv.URL, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Stats(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
}

func TestHealthyAnswersNilFromServingMux(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	if err := New(srv.URL, fastOpts()).Healthy(context.Background()); err != nil {
		t.Fatalf("Healthy: %v", err)
	}
}

func TestHealthyFailsFastOnClosedServer(t *testing.T) {
	srv := httptest.NewServer(http.NewServeMux())
	srv.Close()

	const deadline = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	err := New(srv.URL, fastOpts()).Healthy(ctx)
	if err == nil {
		t.Fatal("Healthy on a closed server answered nil")
	}
	if elapsed := time.Since(start); elapsed >= deadline {
		t.Fatalf("Healthy took %v, want an answer within %v", elapsed, deadline)
	}
}
