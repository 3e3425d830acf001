package main

// serve.go is the long-running HTTP mode: a serving pipeline — plain,
// durable, or a follower replica — fronted by a small
// JSON/line-protocol API, wired from ONE route table parameterised by
// role (see target and routes). Writes (POST /ingest, /retract) are
// serialized by the service; reads (GET /schema, /stats,
// POST /validate) are lock-free against the latest published
// snapshot, so schema queries stay fast while batches load.
//
// Every endpoint (except the /healthz and /readyz probes) sits behind
// an internal/admission gate: bounded concurrency (503 + Retry-After
// past capacity), a bounded write queue (429 + Retry-After), a
// per-request deadline propagated via context into the service write
// path, a request-body cap (413), and panic recovery. Writes accept
// an Idempotency-Key header — a retried write whose first attempt was
// applied answers "replayed" instead of applying twice: in durable
// mode even across a crash, in plain mode until the process exits.
// A durable service that degrades to read-only (broken WAL, full disk)
// answers writes with 409 and a machine-readable reason until re-armed
// via POST /rearm or a space-freeing compaction. SIGTERM drains: stop
// admitting, finish in-flight requests within -drain-timeout, final
// checkpoint, exit.
//
//	pghive serve -listen :8080
//	curl -X POST --data-binary @batch.jsonl localhost:8080/ingest
//	curl 'localhost:8080/schema?format=pgschema&mode=strict'
//	curl -X POST localhost:8080/checkpoint > state.ckpt
//	pghive serve -restore state.ckpt     # resumes bit-identically
//
// With -data-dir the service is durable: every mutation is
// write-ahead logged before it is applied, a background compactor
// folds the log into checkpoint images, and a restart (kill -9
// included) recovers bit-identically from the directory alone:
//
//	pghive serve -data-dir /var/lib/pghive
//	curl -X POST localhost:8080/checkpoint   # force a compaction
//
// A durable leader can additionally ship its artifacts — sealed WAL
// segments and checkpoint generations — into an object store, either
// a local directory it then serves at /v1/objects (-ship-dir, with
// -object-token guarding the mutating verbs) or a remote object
// endpoint (-ship-to). A second process started with -follow tails
// that store as a read-only replica: it bootstraps from the newest
// shipped checkpoint generation, applies shipped WAL segments in
// order, serves the same read endpoints plus GET /lag, and answers
// writes with the machine-readable read-only contract (409, reason
// "follower"):
//
//	pghive serve -data-dir /var/lib/pghive -ship-dir /var/lib/pghive-objects -object-token s3cret
//	pghive serve -listen :8081 -follow http://leader:8080
//	curl localhost:8081/lag

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/admission"
	"github.com/pghive/pghive/internal/store"
)

// runServe parses the serve-mode flags and blocks serving HTTP.
func runServe(args []string) {
	fs := flag.NewFlagSet("pghive serve", flag.ExitOnError)
	var (
		listen    = fs.String("listen", ":8080", "address to serve HTTP on")
		restore   = fs.String("restore", "", "checkpoint file to resume from (see POST /checkpoint)")
		batchSize = fs.Int("batch-size", 0, "elements per ingest batch when splitting large bodies (0 = one batch per request)")
		dataDir   = fs.String("data-dir", "", "durable mode: write-ahead log every mutation under this directory and recover from it on start")
		segBytes  = fs.Int64("wal-segment-bytes", 0, "WAL segment rotation threshold in bytes (0 = default 8 MiB; durable mode only)")
		compact   = fs.Duration("compact-interval", 0, "background WAL compaction cadence (0 = default 1m; durable mode only)")
		maxRuns   = fs.Int("max-runs", 0, "delta runs kept on top of the base image before compaction folds a fresh base (0 = default 6; durable mode only)")
		noSync    = fs.Bool("no-sync", false, "skip the per-append WAL fsync: survives kill -9 but not power loss (durable mode only)")

		shipDir     = fs.String("ship-dir", "", "ship sealed WAL segments and checkpoint generations into this local directory and serve them at /v1/objects (durable mode only)")
		shipTo      = fs.String("ship-to", "", "ship artifacts to the object endpoints under this base URL instead of a local directory (durable mode only)")
		objectToken = fs.String("object-token", "", "bearer token guarding mutating /v1/objects verbs (with -ship-dir), and sent when shipping to -ship-to")
		follow      = fs.String("follow", "", "follower mode: serve a read-only replica tailing the object store under this base URL (e.g. the leader's address)")
		followPoll  = fs.Duration("follow-poll", 0, "cadence of the follower's segment poll (0 = default 500ms; follower mode only)")

		maxBody    = fs.Int64("max-body-bytes", admission.DefaultMaxBodyBytes, "request-body cap in bytes, answered with 413 past it (-1 disables)")
		reqTimeout = fs.Duration("request-timeout", admission.DefaultRequestTimeout, "per-request deadline propagated into the service (-1s disables)")
		maxConc    = fs.Int("max-concurrent", admission.DefaultMaxConcurrent, "concurrent requests admitted before 503 + Retry-After (-1 disables)")
		maxWrites  = fs.Int("max-write-queue", admission.DefaultMaxWriteQueue, "mutating requests admitted at once before 429 + Retry-After (-1 disables)")
		drainWait  = fs.Duration("drain-timeout", 20*time.Second, "graceful-shutdown budget for in-flight requests on SIGTERM")
	)
	discoveryOpts := discoveryFlags(fs)
	fs.Parse(args)

	opts, err := discoveryOpts()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pghive serve:", err)
		os.Exit(2)
	}

	// Replication flag surface: a follower owns no log and ships
	// nothing; shipping needs a log and exactly one destination.
	if *follow != "" && (*dataDir != "" || *restore != "" || *shipDir != "" || *shipTo != "") {
		fmt.Fprintln(os.Stderr, "pghive serve: -follow is exclusive with -data-dir, -restore, -ship-dir, and -ship-to (a follower replicates a leader's log; it does not own one)")
		os.Exit(2)
	}
	if *shipDir != "" && *shipTo != "" {
		fmt.Fprintln(os.Stderr, "pghive serve: -ship-dir and -ship-to are mutually exclusive")
		os.Exit(2)
	}
	if (*shipDir != "" || *shipTo != "") && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "pghive serve: -ship-dir and -ship-to require durable mode (serve with -data-dir)")
		os.Exit(2)
	}
	var shipBackend store.Backend
	switch {
	case *shipDir != "":
		shipBackend = store.NewDir(nil, *shipDir)
	case *shipTo != "":
		var err error
		shipBackend, err = store.NewHTTP(*shipTo, *objectToken, objectClient)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pghive serve:", err)
			os.Exit(2)
		}
	}

	var t target
	switch {
	case *dataDir != "" && *restore != "":
		fmt.Fprintln(os.Stderr, "pghive serve: -data-dir and -restore are mutually exclusive (a data directory recovers itself)")
		os.Exit(2)
	case *follow != "":
		backend, err := store.NewHTTP(*follow, "", objectClient)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pghive serve:", err)
			os.Exit(2)
		}
		fol := pghive.NewFollower(opts, backend, pghive.FollowerOptions{
			PollInterval: *followPoll,
			LeaderLSN:    leaderLSNProbe(*follow, leaderProbeTimeout),
		})
		fol.Start()
		t = serveFollower(fol)
		fmt.Fprintf(os.Stderr, "pghive serve: following %s (read-only replica)\n", *follow)
	case *dataDir != "":
		dur, err := pghive.OpenDurable(*dataDir, opts, pghive.DurableOptions{
			SegmentBytes:    *segBytes,
			CompactInterval: *compact,
			MaxRuns:         *maxRuns,
			NoSync:          *noSync,
			ShipTo:          shipBackend,
			OnCompactError: func(err error) {
				fmt.Fprintln(os.Stderr, "pghive serve: compaction:", err)
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pghive serve:", err)
			os.Exit(1)
		}
		t = serveDurable(dur, nil)
		if *shipDir != "" {
			// The replication plane: followers (and backups) fetch the
			// shipped artifacts from here. Reads are open; the mutating
			// verbs the leader itself uses to ship require -object-token.
			t.objects = store.Handler(shipBackend, *objectToken)
		}
		st := dur.Stats()
		ds := dur.DurableStats()
		fmt.Fprintf(os.Stderr, "pghive serve: recovered %d batches, %d nodes, %d edges from %s (checkpoint LSN %d, next WAL LSN %d)\n",
			st.Batches, st.Nodes, st.Edges, *dataDir, ds.CheckpointLSN, ds.WALNextLSN)
	case *restore != "":
		f, err := os.Open(*restore)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pghive serve:", err)
			os.Exit(1)
		}
		svc, err := pghive.RestoreService(opts, f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "pghive serve:", err)
			os.Exit(1)
		}
		t = servePlain(svc)
		st := svc.Stats()
		fmt.Fprintf(os.Stderr, "pghive serve: restored %d batches, %d nodes, %d edges\n",
			st.Batches, st.Nodes, st.Edges)
	default:
		t = servePlain(pghive.NewService(opts))
	}

	gate := admission.New(admission.Config{
		MaxConcurrent:  *maxConc,
		MaxWriteQueue:  *maxWrites,
		RequestTimeout: *reqTimeout,
		MaxBodyBytes:   *maxBody,
		OnPanic: func(v any) {
			fmt.Fprintln(os.Stderr, "pghive serve: recovered handler panic:", v)
		},
	})

	fmt.Fprintf(os.Stderr, "pghive serve: listening on %s\n", *listen)
	// A stalled client must not be able to park a connection forever:
	// header/idle bounds plus full read/write timeouts sized past the
	// per-request deadline, so the admission deadline (not the socket
	// teardown) is what a slow handler hits first.
	rwTimeout := time.Minute
	if *reqTimeout > 0 {
		rwTimeout = *reqTimeout + 10*time.Second
	}
	server := &http.Server{
		Addr:              *listen,
		Handler:           newServeMux(t, *batchSize, gate),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       rwTimeout,
		WriteTimeout:      rwTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	// SIGTERM/SIGINT is a real drain, not an abort: refuse new work
	// (readiness flips, the load balancer routes away), let in-flight
	// requests finish within the budget, then stop the listener and —
	// in durable mode — fold the WAL into a final checkpoint so the
	// next start recovers instantly.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "pghive serve: draining")
		select {
		case <-gate.Drain():
		case <-time.After(*drainWait):
			fmt.Fprintln(os.Stderr, "pghive serve: drain timeout; aborting in-flight requests")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		server.Shutdown(ctx)
		if t.fol != nil {
			t.fol.Close()
		}
		if t.dur != nil {
			if err := t.dur.Compact(); err != nil {
				fmt.Fprintln(os.Stderr, "pghive serve: final checkpoint:", err)
			}
			if err := t.dur.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "pghive serve: close:", err)
			}
		}
		os.Exit(0)
	}()

	if err := server.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "pghive serve:", err)
		os.Exit(1)
	}
	select {} // Shutdown in flight; the drain goroutine exits the process
}

// target is what one serve process fronts: the read side every role
// has, plus the capabilities only some roles have. The role is plain
// (w alone: an in-memory writer), durable (w and dur: the WAL-backed
// writer, which can also compact and re-arm), or follower (fol alone:
// a replica — it has no writer at all).
type target struct {
	*pghive.Reader
	w   writes
	dur *pghive.DurableService
	fol *pghive.Follower
	// objects, when non-nil, serves the shipped artifacts at
	// /v1/objects: a durable leader shipping into a local directory.
	objects http.Handler

	batchSize int             // -batch-size; set by routes
	gate      *admission.Gate // set by routes
}

// writes is the write surface *pghive.Service and
// *pghive.DurableService share.
type writes interface {
	IngestIdempotent(ctx context.Context, key string, g *pghive.Graph) (pghive.BatchTiming, bool, error)
	RetractIdempotent(ctx context.Context, key string, g *pghive.Graph) (pghive.BatchTiming, bool, error)
	DrainStream(ctx context.Context, r pghive.StreamReader, onBatch func(pghive.BatchTiming)) error
	WriteCheckpoint(io.Writer) error
}

func servePlain(svc *pghive.Service) target { return target{Reader: svc.Reader, w: svc} }

func serveDurable(dur *pghive.DurableService, objects http.Handler) target {
	return target{Reader: dur.Reader, w: dur, dur: dur, objects: objects}
}

func serveFollower(fol *pghive.Follower) target { return target{Reader: fol.Reader, fol: fol} }

// How a route passes the admission gate: writes queue behind the
// bounded write queue on top of everything reads get (bounded
// concurrency, the request deadline, the body cap, panic recovery);
// ungated routes must get through even at capacity or while draining.
const (
	gateWrite = "write"
	gateRead  = "read"
	ungated   = "ungated"
)

// route is one row of the route table.
type route struct {
	method, path string // method "" matches every method
	gate         string
	h            http.HandlerFunc
}

// routes is the one route table, parameterised by role. Every role
// answers the same paths — a client misdirected at a replica gets the
// machine-readable 409 read-only contract (reason "follower") on the
// write routes, refused before the body is read, rather than a 404 it
// might mistake for a missing feature — and the role decides what
// stands behind each: writes go through the one write surface of
// whichever service there is — through its write-ahead log when it is
// durable (and can therefore fail with 500 when the log cannot be made
// durable, or 409 when the service has degraded to declared read-only
// mode), idempotency keys are honored by both (across crashes only
// when durable), and POST /checkpoint on a durable service folds the
// log into an on-disk image instead of streaming one back.
func (t target) routes(batchSize int, gate *admission.Gate) []route {
	t.batchSize, t.gate = batchSize, gate
	rs := []route{
		{"POST", "/ingest", gateWrite, t.ingest},
		{"POST", "/retract", gateWrite, t.retract},
		{"POST", "/rearm", gateRead, t.rearm},
		{"GET", "/schema", gateRead, t.schema},
		{"POST", "/validate", gateRead, t.validate},
		{"GET", "/stats", gateRead, t.stats},
		{"POST", "/checkpoint", gateRead, t.checkpoint},
		{"GET", "/healthz", ungated, t.healthz},
		{"GET", "/readyz", ungated, t.readyz},
	}
	if t.fol != nil {
		refuse := func(w http.ResponseWriter, r *http.Request) {
			serviceError(w, &pghive.ReadOnlyError{Reason: pghive.ReadOnlyFollower}, nil)
		}
		for i := range rs[:3] { // the write routes lead the table
			rs[i].h = refuse
		}
		rs = append(rs, route{"GET", "/lag", ungated, func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, t.fol.Lag(r.Context()))
		}})
	}
	if t.objects != nil {
		// Ungated on purpose — replication must keep flowing even when
		// client traffic has the admission gate at capacity.
		rs = append(rs,
			route{"", store.ObjectsRoute, ungated, t.objects.ServeHTTP},
			route{"", store.ObjectsRoute + "/", ungated, t.objects.ServeHTTP})
	}
	return rs
}

// newServeMux registers the role's route table behind the gate.
// Factored out of runServe so tests can drive the full HTTP surface
// via httptest. gate, when nil, gets the default admission limits.
func newServeMux(t target, batchSize int, gate *admission.Gate) *http.ServeMux {
	if gate == nil {
		gate = admission.New(admission.Config{})
	}
	mux := http.NewServeMux()
	for _, rt := range t.routes(batchSize, gate) {
		var h http.Handler = rt.h
		switch rt.gate {
		case gateWrite:
			h = gate.WrapWrite(h)
		case gateRead:
			h = gate.Wrap(h)
		}
		mux.Handle(strings.TrimSpace(rt.method+" "+rt.path), h)
	}
	return mux
}

// idempotencyKey validates the Idempotency-Key header; on a contract
// violation it writes the 400 and reports ok=false.
func idempotencyKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.Header.Get("Idempotency-Key")
	if len(key) > pghive.MaxIdempotencyKeyLen {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("Idempotency-Key longer than %d bytes", pghive.MaxIdempotencyKeyLen))
		return "", false
	}
	return key, true
}

func (t target) ingest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	key, ok := idempotencyKey(w, r)
	if !ok {
		return
	}
	var ack pghive.BatchTiming
	replayed := false
	if t.batchSize > 0 && key == "" {
		// Spool the body before applying anything: an oversized or
		// aborted upload must fail before its first batch is applied,
		// not after some prefix of it was.
		body, err := io.ReadAll(r.Body)
		if err != nil {
			requestError(w, r, err)
			return
		}
		// The spooled body drains as a sequence of ordinary writes,
		// one per bounded batch, which other writers' batches may
		// interleave with. Streamed ingestion is NOT atomic: batches
		// that preceded a failure are already published when the
		// error returns, so once a batch was applied the error
		// response carries the stats the client needs to see how far
		// the body got — blindly re-sending the same body would
		// double-ingest the prefix. The response states the last
		// batch's LSN.
		applied := 0
		stream := malformedLines{pghive.NewJSONLStream(bytes.NewReader(body), t.batchSize)}
		if err := t.w.DrainStream(r.Context(), stream, func(bt pghive.BatchTiming) { ack = bt; applied++ }); err != nil {
			var partial map[string]any
			if applied > 0 {
				partial = map[string]any{
					"note":  "streamed ingest is not atomic: batches before the error were already ingested and published",
					"stats": t.Stats(),
				}
			}
			serviceError(w, err, partial)
			return
		}
	} else {
		// Keyed requests always land as one atomic batch, whatever
		// -batch-size says: a key promises all-or-nothing, and a
		// split stream could replay half on retry.
		g, err := pghive.ReadJSONL(r.Body, true)
		if err != nil {
			requestError(w, r, err)
			return
		}
		if ack, replayed, err = t.w.IngestIdempotent(r.Context(), key, g); err != nil {
			serviceError(w, err, nil)
			return
		}
	}
	writeJSON(w, map[string]any{
		"elapsedMs": time.Since(start).Milliseconds(),
		"lsn":       ack.LSN,
		"replayed":  replayed,
		"stats":     t.Stats(),
	})
}

func (t target) retract(w http.ResponseWriter, r *http.Request) {
	key, ok := idempotencyKey(w, r)
	if !ok {
		return
	}
	g, err := pghive.ReadJSONL(r.Body, true)
	if err != nil {
		requestError(w, r, err)
		return
	}
	ack, replayed, err := t.w.RetractIdempotent(r.Context(), key, g)
	if err != nil {
		serviceError(w, err, nil)
		return
	}
	writeJSON(w, map[string]any{"lsn": ack.LSN, "replayed": replayed, "stats": t.Stats()})
}

// rearm is the operator re-arm: re-open the WAL from disk and restore
// write service after read-only degradation. No-op when healthy.
func (t target) rearm(w http.ResponseWriter, r *http.Request) {
	if t.dur == nil {
		httpError(w, http.StatusBadRequest,
			errors.New("rearm requires durable mode (serve with -data-dir)"))
		return
	}
	if err := t.dur.Rearm(); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, map[string]any{"rearmed": true, "durable": t.dur.DurableStats()})
}

func (t target) stats(w http.ResponseWriter, r *http.Request) {
	switch {
	case t.dur != nil:
		writeJSON(w, map[string]any{
			"stats":     t.Stats(),
			"durable":   t.dur.DurableStats(),
			"admission": t.gate.Stats(),
		})
	case t.fol != nil:
		writeJSON(w, map[string]any{
			"stats":     t.Stats(),
			"lag":       t.fol.Lag(r.Context()),
			"admission": t.gate.Stats(),
		})
	default:
		writeJSON(w, t.Stats())
	}
}

func (t target) checkpoint(w http.ResponseWriter, r *http.Request) {
	if t.dur != nil {
		// Durable mode: fold the WAL into an on-disk image. The
		// image lands in the data directory via temp file + rename
		// (never a truncated file at the target path), superseded
		// segments are pruned, and the response reports the new
		// durability state instead of streaming the image.
		if err := t.dur.Compact(); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, map[string]any{"compacted": true, "durable": t.dur.DurableStats()})
		return
	}
	// Plain services and followers stream their state image — a
	// follower owns no WAL to fold, and the streamed image is how
	// operators (and CI) verify bit-identity with the leader at the
	// same LSN. WriteCheckpoint captures the state under the write lock
	// and encodes it after releasing it, so a slow (or stalled) client
	// blocks no ingest either way. It still serializes into memory
	// first: an encoding error mid-image must answer 500, not deliver a
	// truncated image under a 200 status.
	var write func(io.Writer) error
	if t.fol != nil {
		write = t.fol.WriteCheckpoint
	} else {
		write = t.w.WriteCheckpoint
	}
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

// declareRole adds what a probe response says about the role: a
// follower names itself; a durable service in degraded read-only mode
// declares it (reporting whether it did).
func (t target) declareRole(resp map[string]any) (degraded bool) {
	if t.fol != nil {
		resp["role"] = "follower"
	}
	if t.dur != nil {
		var reason string
		if reason, degraded = t.dur.Degraded(); degraded {
			resp["readOnly"] = true
			resp["reason"] = reason
		}
	}
	return degraded
}

// healthz is liveness: the process is up and serving reads — true even
// in degraded read-only mode, which is declared, not fatal.
func (t target) healthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{"status": "ok"}
	if t.declareRole(resp) {
		resp["status"] = "degraded"
	}
	writeJSON(w, resp)
}

// readyz is readiness: should the load balancer route here? No while
// draining, and no on a follower until the bootstrap image is applied
// — routing reads to an empty replica would serve the initial snapshot
// as truth. Degraded read-only still serves reads, so it stays ready —
// but declares itself so operators can alert.
func (t target) readyz(w http.ResponseWriter, r *http.Request) {
	var notReady map[string]any
	switch {
	case t.gate.Draining():
		notReady = map[string]any{"ready": false, "reason": "draining"}
	case t.fol != nil && !t.fol.Ready():
		notReady = map[string]any{"ready": false, "reason": "bootstrapping", "role": "follower"}
	}
	if notReady != nil {
		w.Header().Set("Retry-After", "1")
		writeJSONStatus(w, http.StatusServiceUnavailable, notReady)
		return
	}
	resp := map[string]any{"ready": true}
	t.declareRole(resp)
	writeJSON(w, resp)
}

// schema serves the published schema document in the format the
// request negotiates, from one snapshot whose LSN is the ETag.
func (t target) schema(w http.ResponseWriter, r *http.Request) {
	mode := pghive.Strict
	switch strings.ToLower(r.URL.Query().Get("mode")) {
	case "", "strict":
	case "loose":
		mode = pghive.Loose
	default:
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("unknown mode %q (want strict or loose)", r.URL.Query().Get("mode")))
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "DiscoveredGraphType"
	}
	snap := t.Snapshot()
	var ctype string
	var render func() string // nil for json, which streams
	switch schemaFormat(r) {
	case "json":
		ctype = "application/json"
	case "pgschema":
		ctype, render = "text/plain; charset=utf-8", func() string { return pghive.PGSchema(snap.Schema, mode, name) }
	case "xsd":
		ctype, render = "application/xml", func() string { return pghive.XSD(snap.Schema) }
	case "dot":
		ctype, render = "text/vnd.graphviz", func() string { return pghive.DOT(snap.Schema, name) }
	default:
		// Only an explicit ?format= can land here (Accept
		// negotiation always falls back to pgschema), and a bad
		// query parameter is the client's request error, not failed
		// content negotiation.
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("unknown schema format (want json, pgschema, xsd, or dot)"))
		return
	}
	etag := `"` + strconv.FormatUint(snap.Stats.LSN, 10) + `"`
	w.Header().Set("ETag", etag)
	if noneMatch(r.Header.Values("If-None-Match"), etag) {
		// The client holds this snapshot's document: nothing is rendered.
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", ctype)
	if render == nil {
		pghive.WriteSchemaJSON(w, snap.Schema)
		return
	}
	fmt.Fprint(w, render())
}

// noneMatch reports whether If-None-Match header values match etag: a
// "*", or etag in one of their comma-separated lists, compared weakly
// (a W/ prefix ignored), as RFC 9110 §13.1.2 has it for a GET.
func noneMatch(values []string, etag string) bool {
	for _, v := range values {
		for _, tag := range strings.Split(v, ",") {
			if tag = strings.TrimSpace(tag); tag == "*" || strings.TrimPrefix(tag, "W/") == etag {
				return true
			}
		}
	}
	return false
}

// validate checks a posted batch against the published schema without
// ingesting it. Validation never mutates, so a follower serves it too
// — against its replicated schema.
func (t target) validate(w http.ResponseWriter, r *http.Request) {
	g, err := pghive.ReadJSONL(r.Body, true)
	if err != nil {
		requestError(w, r, err)
		return
	}
	mode := pghive.ValidateLoose
	switch strings.ToLower(r.URL.Query().Get("mode")) {
	case "", "loose":
	case "strict":
		mode = pghive.ValidateStrict
	default:
		// A typo'd mode must not silently validate loosely — the
		// client would read valid=true as a strict pass.
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("unknown mode %q (want loose or strict)", r.URL.Query().Get("mode")))
		return
	}
	rep := pghive.Validate(g, t.Snapshot().Schema, mode)
	violations := make([]string, len(rep.Violations))
	for i, v := range rep.Violations {
		violations[i] = v.String()
	}
	writeJSON(w, map[string]any{
		"checked": rep.Checked, "valid": rep.Valid(),
		"violations": violations, "truncated": rep.Truncated,
	})
}

// objectClient carries the replication plane's object traffic (-ship-to
// uploads, -follow fetches). Those calls are made by background rounds
// whose only other bound is the service's Close, so each exchange gets
// a deadline of its own: an endpoint that accepts and never answers
// costs a round two minutes and a counted failure, not the leader's
// compaction lock (and /stats) or the replica's tail loop for good.
var objectClient = &http.Client{Timeout: 2 * time.Minute}

// leaderProbeTimeout bounds one leader-position probe.
const leaderProbeTimeout = 2 * time.Second

// leaderLSNProbe builds the follower's leader-position callback: read
// the leader's /stats and report its last acknowledged WAL LSN, which
// GET /lag subtracts from the replica's applied LSN. Best effort —
// when -follow points at a bare object store with no /stats endpoint,
// /lag simply omits the leader position. Every probe carries its own
// short deadline under the request's: GET /lag bypasses the admission
// gate (and with it the per-request deadline), so a leader that
// accepts the connection and never answers must not pin the handler.
func leaderLSNProbe(base string, timeout time.Duration) func(context.Context) (uint64, error) {
	base = strings.TrimRight(base, "/")
	return func(ctx context.Context) (uint64, error) {
		ctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
		if err != nil {
			return 0, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("leader /stats: %s", resp.Status)
		}
		var doc struct {
			Durable struct {
				WALNextLSN uint64 `json:"walNextLSN"`
			} `json:"durable"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&doc); err != nil {
			return 0, err
		}
		if doc.Durable.WALNextLSN == 0 {
			return 0, errors.New("leader /stats reports no WAL position")
		}
		return doc.Durable.WALNextLSN - 1, nil
	}
}

// schemaFormat resolves ?format= (authoritative) or the Accept header
// to one of json, pgschema, xsd, dot.
func schemaFormat(r *http.Request) string {
	if f := strings.ToLower(r.URL.Query().Get("format")); f != "" {
		return f
	}
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, "application/json"):
		return "json"
	case strings.Contains(accept, "application/xml"), strings.Contains(accept, "text/xml"):
		return "xsd"
	case strings.Contains(accept, "text/vnd.graphviz"):
		return "dot"
	default:
		return "pgschema"
	}
}

// writeJSONStatus is the single JSON response path: every handler
// body and error goes through it, so Content-Type and encoder
// settings stay consistent across the API.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSONStatus(w, code, map[string]string{"error": err.Error()})
}

// requestError maps a body-read failure to its status: the admission
// body cap answers 413 (http.MaxBytesReader already hung up the
// connection), everything else is the client's malformed input. The
// cap is detected through the gate, not just the error chain, because
// the JSONL parser reports the truncated tail as a syntax error.
func requestError(w http.ResponseWriter, r *http.Request, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) || admission.BodyLimitExceeded(r) {
		httpError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	httpError(w, http.StatusBadRequest, err)
}

// malformedBody marks a line of a streamed body that did not parse —
// the one write failure that is the client's fault.
type malformedBody struct{ error }

// malformedLines is a stream whose every error but io.EOF is a
// malformedBody.
type malformedLines struct{ pghive.StreamReader }

func (s malformedLines) Next() (*pghive.Batch, error) {
	b, err := s.StreamReader.Next()
	if err != nil && err != io.EOF {
		err = malformedBody{err}
	}
	return b, err
}

// serviceError maps a failed service write to the declared status
// contract; partial, when non-nil, is what a streamed ingest adds once
// some of its batches were applied:
//
//	400 malformed body     — permanent; fix the input
//	409 read-only degraded — retrying is pointless until re-arm
//	503 deadline/cancel    — the request never entered the WAL; back
//	                         off and retry
//	500 durability failure — the WAL rejected the append; retryable
//	                         (idempotency keys make the retry safe)
func serviceError(w http.ResponseWriter, err error, partial map[string]any) {
	body := map[string]any{"error": err.Error()}
	for k, v := range partial {
		body[k] = v
	}
	code := http.StatusInternalServerError
	var roe *pghive.ReadOnlyError
	var bad malformedBody
	switch {
	case errors.As(err, &bad):
		code = http.StatusBadRequest
	case errors.As(err, &roe):
		code = http.StatusConflict
		body["readOnly"], body["reason"] = true, roe.Reason
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		w.Header().Set("Retry-After", "1")
		code = http.StatusServiceUnavailable
	}
	writeJSONStatus(w, code, body)
}
