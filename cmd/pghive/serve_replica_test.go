package main

// serve_replica_test.go: the replication topology over the real HTTP
// surface. A durable leader ships into an object store
// served from its own mux at /v1/objects; followers bootstrap and
// tail that store through the same store.HTTP client a production
// -follow deployment uses. The tests pin the operator-visible
// contract: readiness flips only after bootstrap, GET /lag reports
// the position, every write route answers the machine-readable 409
// follower refusal, the object routes enforce their bearer token, a
// follower's checkpoint image is bit-identical to the leader's at the
// same LSN — and a history-checked concurrent workload across leader
// and followers satisfies the replicated consistency contract.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/client"
	"github.com/pghive/pghive/internal/histcheck"
	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
)

const testObjectToken = "replication-smoke-token"

// startShippingLeader serves a durable leader whose mux
// also exposes the object store it ships into, token-guarded like a
// real -ship-dir deployment.
func startShippingLeader(t *testing.T) (*pghive.DurableService, *httptest.Server) {
	t.Helper()
	backend := store.NewDir(vfs.NewMemFS(), "/objects")
	dur, err := pghive.OpenDurable("data", pghive.Options{Seed: 1, Parallelism: 2}, pghive.DurableOptions{
		FS:                 vfs.NewMemFS(),
		DisableAutoCompact: true,
		SegmentBytes:       512,
		ShipTo:             backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dur.Close() })
	srv := httptest.NewServer(newServeMux(serveDurable(dur, store.Handler(backend, testObjectToken)), 0, nil))
	t.Cleanup(srv.Close)
	return dur, srv
}

// startFollower points a follower at the leader's object routes over
// real HTTP and serves it in the follower role, as -follow does.
// The tail loop is NOT started — callers call Start themselves, so a
// test that wants a deterministic bootstrap generation can hold the
// follower back until the leader has shipped one.
func startFollower(t *testing.T, leader *httptest.Server) (*pghive.Follower, *httptest.Server) {
	t.Helper()
	backend, err := store.NewHTTP(leader.URL, "", leader.Client())
	if err != nil {
		t.Fatal(err)
	}
	fol := pghive.NewFollower(pghive.Options{Seed: 1, Parallelism: 2}, backend, pghive.FollowerOptions{
		PollInterval: time.Millisecond,
		LeaderLSN:    leaderLSNProbe(leader.URL, leaderProbeTimeout),
	})
	t.Cleanup(func() { fol.Close() })
	srv := httptest.NewServer(newServeMux(serveFollower(fol), 0, nil))
	t.Cleanup(srv.Close)
	return fol, srv
}

func ingestHTTP(t *testing.T, base string, g *pghive.Graph) {
	t.Helper()
	var body bytes.Buffer
	if err := pghive.WriteJSONL(&body, g); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/ingest", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, b)
	}
	io.Copy(io.Discard, resp.Body)
}

func replicaGraph(t *testing.T, base pghive.ID, n int) *pghive.Graph {
	t.Helper()
	g := pghive.NewGraph()
	for i := 0; i < n; i++ {
		if err := g.PutNode(base+pghive.ID(i), []string{"Repl"}, pghive.PropsOf(map[string]pghive.Value{
			"k": pghive.Int(int64(i)),
		})); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeReplicaEndToEnd is the serve-level replication smoke test
// (the CI replication-smoke job runs it under -race): readiness,
// lag reporting, the read-only write contract, and leader/follower
// bit-identity, all over real HTTP.
func TestServeReplicaEndToEnd(t *testing.T) {
	dur, leaderSrv := startShippingLeader(t)
	fol, folSrv := startFollower(t, leaderSrv)

	// Before anything is shipped the replica must refuse readiness —
	// routing reads to it would serve the empty snapshot as truth.
	resp, err := http.Get(folSrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
		Role   string `json:"role"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Ready || ready.Reason != "bootstrapping" {
		t.Fatalf("pre-bootstrap readyz: status %d body %+v, want 503 bootstrapping", resp.StatusCode, ready)
	}

	// Load the leader over HTTP, then checkpoint: durable-mode
	// POST /checkpoint compacts, and compaction ships.
	for i := 0; i < 3; i++ {
		ingestHTTP(t, leaderSrv.URL, replicaGraph(t, pghive.ID(1+i*1000), 20))
	}
	resp, err = http.Post(leaderSrv.URL+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leader checkpoint: status %d", resp.StatusCode)
	}

	// Only now start tailing: a shipped generation exists, so the
	// bootstrap deterministically restores from it rather than racing
	// the first ship and starting empty at generation zero.
	fol.Start()

	// A few more batches after the checkpoint land in segments the
	// shipper seals later, exercising the tail path too.
	for i := 0; i < 2; i++ {
		ingestHTTP(t, leaderSrv.URL, replicaGraph(t, pghive.ID(10_001+i*1000), 20))
	}
	if err := dur.Compact(); err != nil {
		t.Fatal(err)
	}

	leaderLSN := dur.DurableStats().WALNextLSN - 1
	waitFor(t, "follower to catch up", func() bool {
		return fol.Ready() && fol.AppliedLSN() == leaderLSN
	})

	resp, err = http.Get(folSrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !ready.Ready || ready.Role != "follower" {
		t.Fatalf("post-bootstrap readyz: status %d body %+v", resp.StatusCode, ready)
	}

	// GET /lag through the supported client; the leader position comes
	// from leaderLSNProbe reading the leader's own /stats.
	cl := client.New(folSrv.URL, client.Options{HTTPClient: folSrv.Client()})
	lag, err := cl.Lag(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !lag.Ready || lag.AppliedLSN != leaderLSN || lag.LeaderLSN != leaderLSN || lag.Lag != 0 {
		t.Fatalf("lag = %+v, want ready at applied=leader=%d", lag, leaderLSN)
	}
	if lag.BootstrapGeneration == 0 {
		t.Fatalf("lag reports no bootstrap generation: %+v", lag)
	}

	// The leader does not serve /lag: it is a replica-only endpoint.
	resp, err = http.Get(leaderSrv.URL + "/lag")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("leader /lag: status %d, want 404", resp.StatusCode)
	}

	// Bit-identity at the same LSN: the follower's streamed checkpoint
	// image equals the leader's, byte for byte.
	var want bytes.Buffer
	if err := dur.WriteCheckpoint(&want); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(folSrv.URL+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("follower checkpoint: status %d err %v", resp.StatusCode, err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("follower checkpoint image differs from leader at LSN %d (%d vs %d bytes)",
			leaderLSN, len(got), want.Len())
	}

	// Every write route answers the declared read-only contract.
	for _, route := range []string{"/ingest", "/retract", "/rearm"} {
		resp, err := http.Post(folSrv.URL+route, "application/x-ndjson", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		var refusal struct {
			ReadOnly bool   `json:"readOnly"`
			Reason   string `json:"reason"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&refusal); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict || !refusal.ReadOnly || refusal.Reason != string(pghive.ReadOnlyFollower) {
			t.Fatalf("POST %s on follower: status %d body %+v, want 409 readOnly reason %q",
				route, resp.StatusCode, refusal, pghive.ReadOnlyFollower)
		}
	}

	// ...and refuses before touching the body, which may be large and is
	// doomed: driven in-process, a body that fails the test when read.
	folMux := newServeMux(serveFollower(fol), 0, nil)
	for _, route := range []string{"/ingest", "/retract", "/rearm"} {
		rec := httptest.NewRecorder()
		folMux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, trapBody{t}))
		if rec.Code != http.StatusConflict {
			t.Fatalf("POST %s on follower: status %d, want 409", route, rec.Code)
		}
	}

	// The follower serves the leader's schema: instance counts match.
	resp, err = http.Get(folSrv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Stats pghive.ServiceStats `json:"stats"`
		Lag   *pghive.FollowerLag `json:"lag"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if lst := dur.Stats(); stats.Stats.Nodes != lst.Nodes || stats.Stats.Batches != lst.Batches {
		t.Fatalf("follower stats %+v != leader %+v", stats.Stats, lst)
	}
	if stats.Lag == nil || !stats.Lag.Ready {
		t.Fatalf("follower /stats lag block missing or not ready: %+v", stats.Lag)
	}
}

// trapBody is a request body nobody may read.
type trapBody struct{ t *testing.T }

func (b trapBody) Read([]byte) (int, error) {
	b.t.Error("follower read the body of a write it was always going to refuse")
	return 0, io.EOF
}

// TestLagBoundedWhenLeaderNeverAnswers: GET /lag bypasses the
// admission gate, so nothing but the probe's own deadline stands
// between a black-holed leader — one that accepts the connection and
// never answers — and a handler pinned for as long as the caller cares
// to wait. The probe gives up within its bound and /lag still reports
// the replica's own position, with the leader's simply absent.
func TestLagBoundedWhenLeaderNeverAnswers(t *testing.T) {
	blackHole := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // accept, never answer
	}))
	defer blackHole.Close()

	const bound = 100 * time.Millisecond
	fol := pghive.NewFollower(pghive.Options{Seed: 1}, store.NewDir(vfs.NewMemFS(), "/objects"), pghive.FollowerOptions{
		LeaderLSN: leaderLSNProbe(blackHole.URL, bound),
	})
	defer fol.Close()
	srv := httptest.NewServer(newServeMux(serveFollower(fol), 0, nil))
	defer srv.Close()

	// The client's patience is far past the bound: if it runs out, the
	// probe was not bounded.
	resp, err := (&http.Client{Timeout: 50 * bound}).Get(srv.URL + "/lag")
	if err != nil {
		t.Fatalf("/lag behind a leader that never answers (probe bound %v): %v", bound, err)
	}
	defer resp.Body.Close()
	var lag map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&lag); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/lag: status %d, want 200", resp.StatusCode)
	}
	if _, ok := lag["appliedLSN"]; !ok {
		t.Fatalf("/lag dropped the replica's own position: %v", lag)
	}
	if _, ok := lag["leaderLSN"]; ok {
		t.Fatalf("/lag reports a leader position it cannot have: %v", lag)
	}
}

// TestObjectRouteAuth pins the wire contract of the leader-served
// object store: reads are open (followers need no credentials), every
// mutating verb requires the bearer token, and an empty configured
// token authorizes nothing rather than everything.
func TestObjectRouteAuth(t *testing.T) {
	_, leaderSrv := startShippingLeader(t)

	put := func(url, token string) int {
		req, err := http.NewRequest(http.MethodPut, url, strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	obj := leaderSrv.URL + store.ObjectsRoute + "/probe/auth-test"
	if code := put(obj, ""); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated PUT: status %d, want 401", code)
	}
	if code := put(obj, "wrong-token"); code != http.StatusUnauthorized {
		t.Fatalf("wrong-token PUT: status %d, want 401", code)
	}
	if code := put(obj, testObjectToken); code != http.StatusNoContent {
		t.Fatalf("authorized PUT: status %d, want 204", code)
	}

	// Reads need no credentials — that is what lets a follower run
	// without the shipping token.
	resp, err := http.Get(obj)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "x" {
		t.Fatalf("unauthenticated GET: status %d body %q", resp.StatusCode, body)
	}

	// An empty token is a closed valve, not an open one.
	closed := httptest.NewServer(store.Handler(store.NewDir(vfs.NewMemFS(), "/o"), ""))
	defer closed.Close()
	if code := put(closed.URL+store.ObjectPath("probe"), testObjectToken); code != http.StatusUnauthorized {
		t.Fatalf("PUT with empty configured token: status %d, want 401", code)
	}
}

// TestServeReplicatedHistoryChecked runs the concurrent scripted
// workload across the leader and two HTTP followers and requires the
// recorded history to satisfy the replicated consistency contract:
// replicas may lag but never tear a batch, never run backwards, and
// never acknowledge a write.
func TestServeReplicatedHistoryChecked(t *testing.T) {
	dur, leaderSrv := startShippingLeader(t)

	// Shipping happens at compaction; keep the backend moving while
	// the scripted writers run.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				if err := dur.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	t.Cleanup(func() { close(stop); <-done })

	cfg := histcheck.Config{
		Writers: 2, BatchesPerWriter: 4, Readers: 1, ReadsPerReader: 12,
		Replicas: []string{"replica-a", "replica-b"}, ReplicaReaders: 1,
	}
	if testing.Short() {
		cfg.BatchesPerWriter, cfg.ReadsPerReader = 3, 6
	}

	followers := make(map[string]*httptest.Server, len(cfg.Replicas))
	for _, name := range cfg.Replicas {
		fol, srv := startFollower(t, leaderSrv)
		fol.Start()
		followers[name] = srv
	}

	h, err := histcheck.RunReplicated(func(session, server string) histcheck.Client {
		base := leaderSrv
		if server != "" {
			base = followers[server]
		}
		return &chaosClient{ctx: context.Background(), cl: client.New(base.URL, client.Options{HTTPClient: base.Client()})}
	}, cfg)
	if err != nil {
		t.Fatalf("RunReplicated: %v", err)
	}
	if err := histcheck.Check(h); err != nil {
		t.Fatalf("replicated HTTP history rejected: %v", err)
	}

	replicaObs := 0
	for _, e := range h.Events {
		if e.Server != "" && e.Obs != nil {
			replicaObs++
		}
	}
	if want := len(cfg.Replicas) * cfg.ReplicaReaders * cfg.ReadsPerReader; replicaObs != want {
		t.Fatalf("recorded %d replica observations, want %d", replicaObs, want)
	}
}
