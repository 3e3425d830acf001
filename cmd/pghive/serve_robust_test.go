package main

// HTTP-level robustness contract of the serve mux: the admission
// gate's status codes (413/429/503 + Retry-After), the health/ready
// probes, declared read-only degradation with 409 and operator
// re-arm, and idempotency keys over the wire.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/admission"
	"github.com/pghive/pghive/internal/vfs"
)

func postKeyed(t *testing.T, srv *httptest.Server, path, key, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestServeBodyCap413(t *testing.T) {
	svc := pghive.NewService(pghive.Options{Seed: 1})
	gate := admission.New(admission.Config{MaxBodyBytes: 64, MaxConcurrent: -1, MaxWriteQueue: -1, RequestTimeout: -1})
	srv := httptest.NewServer(newServeMux(servePlain(svc), 0, gate))
	defer srv.Close()

	code, body := post(t, srv, "/ingest", jsonlBatch(0)) // well over 64 bytes
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s, want 413", code, body)
	}
	if svc.Stats().Batches != 0 {
		t.Fatal("capped body still ingested")
	}
	// A body under the cap sails through.
	small := `{"kind":"node","id":1,"labels":["A"]}` + "\n"
	if code, body := post(t, srv, "/ingest", small); code != http.StatusOK {
		t.Fatalf("small body: %d %s", code, body)
	}
}

func TestServeWriteBackpressure429(t *testing.T) {
	svc := pghive.NewService(pghive.Options{Seed: 1})
	gate := admission.New(admission.Config{MaxWriteQueue: 1, MaxConcurrent: -1, RequestTimeout: -1})
	mux := newServeMux(servePlain(svc), 0, gate)

	// Park one write inside the gate by holding the service write
	// lock via a slow streamed request… simpler: drive the gate
	// directly with a stalled handler is admission's own test; here we
	// prove the mux wires writes through WrapWrite by saturating with
	// a concurrent slow body.
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/ingest", &slowBody{started: started, release: release})
		mux.ServeHTTP(rec, req)
	}()
	<-started

	rec := httptest.NewRecorder()
	rec2 := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(jsonlBatch(0))))
	mux.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/stats", nil))
	close(release)
	wg.Wait()

	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second concurrent write: %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if rec2.Code != http.StatusOK {
		t.Fatalf("read during write backpressure: %d, want 200 (reads have their own budget)", rec2.Code)
	}
}

// slowBody blocks the handler's body read until released, keeping the
// request inside the write gate.
type slowBody struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (s *slowBody) Read(p []byte) (int, error) {
	s.once.Do(func() { close(s.started) })
	<-s.release
	return 0, fmt.Errorf("request aborted") // unblock the handler with an error
}

func TestServeHealthProbesAndDrain(t *testing.T) {
	svc := pghive.NewService(pghive.Options{Seed: 1})
	gate := admission.New(admission.Config{})
	srv := httptest.NewServer(newServeMux(servePlain(svc), 0, gate))
	defer srv.Close()

	code, _, body := get(t, srv, "/healthz", "")
	if code != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	code, _, body = get(t, srv, "/readyz", "")
	if code != http.StatusOK || !strings.Contains(string(body), "true") {
		t.Fatalf("readyz: %d %s", code, body)
	}

	gate.Drain()
	// Draining: readyz flips to 503 so the balancer routes away, the
	// gated API refuses new work, but healthz still answers 200.
	if code, _, body = get(t, srv, "/readyz", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d %s, want 503", code, body)
	}
	if code, body := post(t, srv, "/ingest", jsonlBatch(0)); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest while draining: %d %s, want 503", code, body)
	}
	if code, _, _ = get(t, srv, "/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", code)
	}
}

func TestServeDegradedReadOnly409AndRearm(t *testing.T) {
	mem := vfs.NewMemFS()
	// Probe the sync count of open + one batch ingest (captured BEFORE
	// Close, which syncs too), then aim an ENOSPC at the second write's
	// append.
	var syncs int
	{
		probe := vfs.NewPlan()
		d, err := pghive.OpenDurable("data", pghive.Options{Seed: 1},
			pghive.DurableOptions{FS: vfs.NewInjectFS(vfs.NewMemFS(), probe), DisableAutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		g, err := pghive.ReadJSONL(strings.NewReader(jsonlBatch(0)), false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Ingest(g); err != nil {
			t.Fatal(err)
		}
		syncs = probe.Ops()[vfs.OpSync]
		d.Close()
	}
	if syncs == 0 {
		t.Fatal("probe saw no sync operations")
	}
	plan := vfs.NewPlan(vfs.Fault{Op: vfs.OpSync, N: syncs + 1, Mode: vfs.FailEarly, Err: syscall.ENOSPC})
	dur, err := pghive.OpenDurable("data", pghive.Options{Seed: 1},
		pghive.DurableOptions{FS: vfs.NewInjectFS(mem, plan), DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	srv := httptest.NewServer(newServeMux(serveDurable(dur, nil), 0, nil))
	defer srv.Close()

	if code, body := post(t, srv, "/ingest", jsonlBatch(0)); code != http.StatusOK {
		t.Fatalf("pre-fault ingest: %d %s", code, body)
	}
	// The second write trips the injected full disk → 500 (durability).
	if code, body := post(t, srv, "/ingest", jsonlBatch(50)); code != http.StatusInternalServerError {
		t.Fatalf("faulted ingest: %d %s, want 500", code, body)
	}
	// The service is now declared read-only: writes answer 409 with
	// the machine-readable reason, probes expose it.
	code, body := post(t, srv, "/ingest", jsonlBatch(100))
	if code != http.StatusConflict {
		t.Fatalf("degraded ingest: %d %s, want 409", code, body)
	}
	var rej struct {
		ReadOnly bool   `json:"readOnly"`
		Reason   string `json:"reason"`
	}
	if err := json.Unmarshal(body, &rej); err != nil {
		t.Fatal(err)
	}
	if !rej.ReadOnly || rej.Reason != pghive.DegradeDiskFull {
		t.Fatalf("409 body %s, want readOnly disk-full", body)
	}
	code, _, body = get(t, srv, "/healthz", "")
	if code != http.StatusOK || !strings.Contains(string(body), "degraded") {
		t.Fatalf("healthz while degraded: %d %s, want 200 + degraded", code, body)
	}
	// Reads still serve.
	if code, _, _ := get(t, srv, "/schema", ""); code != http.StatusOK {
		t.Fatalf("schema while degraded: %d", code)
	}

	// Operator re-arm over HTTP restores writes.
	if code, body := post(t, srv, "/rearm", ""); code != http.StatusOK {
		t.Fatalf("rearm: %d %s", code, body)
	}
	if code, body := post(t, srv, "/ingest", jsonlBatch(100)); code != http.StatusOK {
		t.Fatalf("post-rearm ingest: %d %s", code, body)
	}
}

func TestServeIdempotencyKeyOverHTTP(t *testing.T) {
	dir := t.TempDir()
	dur, err := pghive.OpenDurable(dir, pghive.Options{Seed: 1},
		pghive.DurableOptions{NoSync: true, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	srv := httptest.NewServer(newServeMux(serveDurable(dur, nil), 0, nil))
	defer srv.Close()

	decode := func(body []byte) (replayed bool, batches int) {
		var resp struct {
			Replayed bool `json:"replayed"`
			Stats    struct {
				Batches int `json:"batches"`
			} `json:"stats"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
		return resp.Replayed, resp.Stats.Batches
	}

	code, body := postKeyed(t, srv, "/ingest", "key-1", jsonlBatch(0))
	if code != http.StatusOK {
		t.Fatalf("keyed ingest: %d %s", code, body)
	}
	if replayed, batches := decode(body); replayed || batches != 1 {
		t.Fatalf("first keyed ingest: replayed=%v batches=%d", replayed, batches)
	}
	// The retry: same key, same body — applied exactly once.
	code, body = postKeyed(t, srv, "/ingest", "key-1", jsonlBatch(0))
	if code != http.StatusOK {
		t.Fatalf("retried keyed ingest: %d %s", code, body)
	}
	if replayed, batches := decode(body); !replayed || batches != 1 {
		t.Fatalf("retried keyed ingest: replayed=%v batches=%d, want true/1", replayed, batches)
	}

	// Contract violations are 400s: keys without durable mode, and
	// oversized keys.
	plainSrv := httptest.NewServer(newServeMux(servePlain(pghive.NewService(pghive.Options{Seed: 1})), 0, nil))
	defer plainSrv.Close()
	if code, body := postKeyed(t, plainSrv, "/ingest", "key-1", jsonlBatch(0)); code != http.StatusBadRequest {
		t.Fatalf("keyed ingest without durable mode: %d %s, want 400", code, body)
	}
	if code, body := postKeyed(t, srv, "/ingest", strings.Repeat("k", 300), jsonlBatch(0)); code != http.StatusBadRequest {
		t.Fatalf("oversized key: %d %s, want 400", code, body)
	}
}

// TestServeRequestDeadlineAnswers503: a write that queues past its
// deadline answers 503 + Retry-After, whether the body lands as one
// atomic batch or is split by -batch-size.
func TestServeRequestDeadlineAnswers503(t *testing.T) {
	for _, batchSize := range []int{0, 5} {
		t.Run(fmt.Sprintf("batch-size=%d", batchSize), func(t *testing.T) {
			dir := t.TempDir()
			dur, err := pghive.OpenDurable(dir, pghive.Options{Seed: 1},
				pghive.DurableOptions{NoSync: true, DisableAutoCompact: true})
			if err != nil {
				t.Fatal(err)
			}
			defer dur.Close()
			gate := admission.New(admission.Config{RequestTimeout: 50 * time.Millisecond, MaxConcurrent: -1, MaxWriteQueue: -1})
			mux := newServeMux(serveDurable(dur, nil), batchSize, gate)

			// Hold the write lock so the HTTP write must queue past its
			// deadline.
			hold := &holdWriter{held: make(chan struct{}), release: make(chan struct{})}
			go dur.WriteCheckpoint(hold)
			<-hold.held
			defer close(hold.release)

			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(jsonlBatch(0))))
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("deadline-expired write: %d %s, want 503", rec.Code, rec.Body.String())
			}
			if rec.Header().Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After")
			}
		})
	}
}

// holdWriter blocks WriteCheckpoint — and with it the write lock —
// inside its first Write until released.
type holdWriter struct {
	held    chan struct{}
	release chan struct{}
	once    sync.Once
}

func (h *holdWriter) Write(p []byte) (int, error) {
	h.once.Do(func() { close(h.held) })
	<-h.release
	return len(p), nil
}
