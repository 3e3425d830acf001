package main

// End-to-end test of the serve-mode HTTP surface: ingest JSONL
// batches, read the schema in every format, validate, checkpoint, and
// restore a second service from the checkpoint — all through the
// same mux the real server mounts.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/wal"
)

func post(t *testing.T, srv *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func get(t *testing.T, srv *httptest.Server, path, accept string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), b
}

func jsonlBatch(firstID int) string {
	var b strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&b, `{"kind":"node","id":%d,"labels":["Person"],"props":{"name":{"t":"string","v":"p%d"},"age":{"t":"int","v":"%d"}}}`+"\n",
			firstID+i, i, 20+i)
	}
	for i := 0; i < 9; i++ {
		fmt.Fprintf(&b, `{"kind":"edge","id":%d,"labels":["KNOWS"],"src":%d,"dst":%d}`+"\n",
			firstID+i, firstID+i, firstID+i+1)
	}
	return b.String()
}

func TestServeHTTPEndpoints(t *testing.T) {
	svc := pghive.NewService(pghive.Options{Seed: 1})
	srv := httptest.NewServer(newServeMux(servePlain(svc), 0, nil))
	defer srv.Close()

	// Two ingest batches; the second one's edge endpoints partially
	// refer to the first batch's nodes, exercising the cross-request
	// resolver bookkeeping.
	second := jsonlBatch(100) +
		`{"kind":"edge","id":500,"labels":["KNOWS"],"src":100,"dst":3}` + "\n"
	for i, batch := range []string{jsonlBatch(0), second} {
		// A plain service numbers its writes too: each ack states its LSN.
		var ack struct{ LSN uint64 }
		code, body := post(t, srv, "/ingest", batch)
		if code != http.StatusOK || json.Unmarshal(body, &ack) != nil || ack.LSN != uint64(i+1) {
			t.Fatalf("ingest %d: %d %s, want LSN %d", i+1, code, body, i+1)
		}
	}
	if code, body := post(t, srv, "/ingest", "not json\n"); code != http.StatusBadRequest {
		t.Fatalf("malformed ingest: %d %s", code, body)
	}

	// Stats agree with what went in.
	var stats pghive.ServiceStats
	code, _, body := get(t, srv, "/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != 20 || stats.Edges != 19 || stats.Batches != 2 {
		t.Fatalf("stats report %d nodes / %d edges / %d batches, want 20/19/2",
			stats.Nodes, stats.Edges, stats.Batches)
	}
	if stats.LSN != 2 {
		t.Fatalf("plain /stats states LSN %d, want 2: %s", stats.LSN, body)
	}
	resp, err := http.Get(srv.URL + "/schema")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if etag := resp.Header.Get("ETag"); etag != `"2"` {
		t.Fatalf("/schema ETag %q, want the snapshot's LSN \"2\"", etag)
	}

	// Every schema format, via ?format= and via Accept.
	for _, c := range []struct {
		path, accept, wantCT, wantSub string
	}{
		{"/schema?format=pgschema&mode=strict&name=G", "", "text/plain", "CREATE GRAPH TYPE G STRICT"},
		{"/schema?format=pgschema&mode=loose", "", "text/plain", "LOOSE"},
		{"/schema?format=xsd", "", "application/xml", "<xs:schema"},
		{"/schema?format=dot&name=G", "", "text/vnd.graphviz", "digraph G"},
		{"/schema?format=json", "", "application/json", `"nodeTypes"`},
		{"/schema", "application/json", "application/json", `"nodeTypes"`},
		{"/schema", "application/xml", "application/xml", "<xs:schema"},
		{"/schema", "text/vnd.graphviz", "text/vnd.graphviz", "digraph"},
		{"/schema", "", "text/plain", "CREATE GRAPH TYPE"},
	} {
		code, ct, body := get(t, srv, c.path, c.accept)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", c.path, code, body)
		}
		if !strings.HasPrefix(ct, c.wantCT) {
			t.Errorf("%s (accept %q): content type %q, want %q", c.path, c.accept, ct, c.wantCT)
		}
		if !strings.Contains(string(body), c.wantSub) {
			t.Errorf("%s: body missing %q", c.path, c.wantSub)
		}
	}
	if code, _, _ := get(t, srv, "/schema?format=nope", ""); code != http.StatusBadRequest {
		t.Errorf("unknown format: got %d, want 400", code)
	}
	if code, _, _ := get(t, srv, "/schema?mode=strct", ""); code != http.StatusBadRequest {
		t.Errorf("typo'd schema mode: got %d, want 400", code)
	}
	if code, _ := post(t, srv, "/validate?mode=strct", jsonlBatch(0)); code != http.StatusBadRequest {
		t.Errorf("typo'd validate mode must not silently run loose: got %d, want 400", code)
	}

	// Validation: the ingested data conforms; an alien element does not.
	code, body = post(t, srv, "/validate?mode=strict", jsonlBatch(0))
	if code != http.StatusOK {
		t.Fatalf("validate: %d %s", code, body)
	}
	var rep struct {
		Checked int  `json:"checked"`
		Valid   bool `json:"valid"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Valid || rep.Checked != 19 {
		t.Fatalf("validate: %s", body)
	}
	code, body = post(t, srv, "/validate",
		`{"kind":"node","id":0,"labels":["Alien"],"props":{}}`+"\n")
	if code != http.StatusOK {
		t.Fatalf("validate alien: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Valid {
		t.Fatal("alien element reported valid")
	}

	// Checkpoint → restore: a second service resumed from the HTTP
	// checkpoint serves the identical schema.
	code, ckpt := post(t, srv, "/checkpoint", "")
	if code != http.StatusOK {
		t.Fatalf("checkpoint: %d", code)
	}
	restored, err := pghive.RestoreService(pghive.Options{Seed: 1}, bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if pghive.PGSchema(restored.Schema(), pghive.Strict, "G") != pghive.PGSchema(svc.Schema(), pghive.Strict, "G") {
		t.Fatal("restored service serves a different schema")
	}

	// Retract the second batch (plus its extra edge): stats return to
	// the first batch's.
	if code, body := post(t, srv, "/retract", second); code != http.StatusOK {
		t.Fatalf("retract: %d %s", code, body)
	}
	code, _, body = get(t, srv, "/stats", "")
	if code != http.StatusOK {
		t.Fatal("stats after retract")
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != 10 || stats.Edges != 9 {
		t.Fatalf("stats after retract: %d nodes / %d edges, want 10/9", stats.Nodes, stats.Edges)
	}
}

// TestServeHTTPStreamedIngest covers the batch-size-bounded ingest
// path (one request body split into multiple pipeline batches).
func TestServeHTTPStreamedIngest(t *testing.T) {
	svc := pghive.NewService(pghive.Options{Seed: 1})
	srv := httptest.NewServer(newServeMux(servePlain(svc), 5, nil))
	defer srv.Close()
	// The response states the LSN of the body's last batch.
	var ack struct{ LSN uint64 }
	if code, body := post(t, srv, "/ingest", jsonlBatch(0)); code != http.StatusOK || json.Unmarshal(body, &ack) != nil || ack.LSN != 4 {
		t.Fatalf("ingest: %d %s, want LSN 4", code, body)
	}
	st := svc.Stats()
	if st.Nodes != 10 || st.Edges != 9 {
		t.Fatalf("streamed ingest stats: %d/%d", st.Nodes, st.Edges)
	}
	if st.Batches != 4 {
		t.Fatalf("19 elements at batch size 5 should make 4 batches, got %d", st.Batches)
	}
}

// TestServeHTTPStreamedIngestDurable: in durable mode a -batch-size
// body is a sequence of ordinary ingests — each batch logged as a plain
// ingest record through the same commit path as any other write — and
// the directory it leaves behind recovers to the same schema.
func TestServeHTTPStreamedIngestDurable(t *testing.T) {
	dir := t.TempDir()
	opts := pghive.Options{Seed: 1}
	dopts := pghive.DurableOptions{NoSync: true, DisableAutoCompact: true}
	dur, err := pghive.OpenDurable(dir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServeMux(serveDurable(dur, nil), 5, nil))
	if code, body := post(t, srv, "/ingest", jsonlBatch(0)); code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, body)
	}
	if st := dur.Stats(); st.Nodes != 10 || st.Edges != 9 || st.Batches != 4 {
		t.Fatalf("streamed ingest stats: %d/%d in %d batches, want 10/9 in 4", st.Nodes, st.Edges, st.Batches)
	}
	_, _, live := get(t, srv, "/schema?format=json", "")
	srv.Close()
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	var types []byte
	if err := wal.Replay(context.Background(), store.NewDir(nil, dir), 0, func(rec wal.Record) error {
		types = append(types, rec.Type)
		return nil
	}); err != nil {
		t.Fatalf("replay %s: %v", dir, err)
	}
	if !bytes.Equal(types, []byte{6, 6, 6, 6}) {
		t.Fatalf("logged record types %v, want four ingest records (type 6)", types)
	}

	dur2, err := pghive.OpenDurable(dir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer dur2.Close()
	srv2 := httptest.NewServer(newServeMux(serveDurable(dur2, nil), 5, nil))
	defer srv2.Close()
	if _, _, recovered := get(t, srv2, "/schema?format=json", ""); !bytes.Equal(live, recovered) {
		t.Fatal("schema served from the reopened directory differs from the live one")
	}
}

// TestServeHTTPDurable drives the durable serving mode end to end
// through the mux: ingest over HTTP, force a compaction via
// POST /checkpoint, "crash" (abandon the service without fanfare),
// and reopen the data directory into a second server whose state
// matches the first bit for bit.
func TestServeHTTPDurable(t *testing.T) {
	dir := t.TempDir()
	opts := pghive.Options{Seed: 1}
	dopts := pghive.DurableOptions{NoSync: true, DisableAutoCompact: true, SegmentBytes: 4 << 10}
	dur, err := pghive.OpenDurable(dir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServeMux(serveDurable(dur, nil), 0, nil))

	if code, body := post(t, srv, "/ingest", jsonlBatch(0)); code != http.StatusOK {
		t.Fatalf("ingest 1: %d %s", code, body)
	}
	if code, body := post(t, srv, "/ingest", jsonlBatch(100)); code != http.StatusOK {
		t.Fatalf("ingest 2: %d %s", code, body)
	}

	// POST /checkpoint in durable mode compacts instead of streaming
	// an image: the response reports the durability state.
	code, body := post(t, srv, "/checkpoint", "")
	if code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", code, body)
	}
	var ck struct {
		Compacted bool                `json:"compacted"`
		Durable   pghive.DurableStats `json:"durable"`
	}
	if err := json.Unmarshal(body, &ck); err != nil {
		t.Fatal(err)
	}
	if !ck.Compacted || ck.Durable.CheckpointLSN != 2 {
		t.Fatalf("checkpoint response %+v, want compacted at LSN 2", ck)
	}
	// ... including what the round it just ran cost: the wire names
	// are the operator's (and the benchmark's) interface.
	var wire struct {
		Durable struct {
			LastRound map[string]any `json:"lastRound"`
			Rounds    *int           `json:"rounds"`
			Folds     *int           `json:"folds"`
		} `json:"durable"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"seconds", "lockHeldSeconds", "bytesWritten", "puts", "tombstones", "folded"} {
		if _, ok := wire.Durable.LastRound[field]; !ok {
			t.Fatalf("checkpoint response's lastRound lacks %q: %s", field, body)
		}
	}
	if wire.Durable.Rounds == nil || *wire.Durable.Rounds != 1 || wire.Durable.Folds == nil || *wire.Durable.Folds != 0 {
		t.Fatalf("checkpoint response lacks rounds: 1 / folds: 0: %s", body)
	}
	if r := ck.Durable.LastRound; r.Puts == 0 || r.BytesWritten == 0 || r.LockHeldSeconds <= 0 || r.LockHeldSeconds > r.Seconds {
		t.Fatalf("checkpoint response's last round %+v, want a run with puts, bytes and a lock hold inside the round", r)
	}

	// One more write after the fold, so recovery exercises checkpoint
	// + tail replay.
	if code, body := post(t, srv, "/retract", jsonlBatch(100)); code != http.StatusOK {
		t.Fatalf("retract: %d %s", code, body)
	}

	// GET /stats carries the durable section.
	code, _, body = get(t, srv, "/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var st struct {
		Stats   pghive.ServiceStats `json:"stats"`
		Durable pghive.DurableStats `json:"durable"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Stats.Nodes != 10 || st.Durable.WALNextLSN != 4 || st.Stats.LSN != 3 {
		t.Fatalf("durable stats %+v / %+v, want 10 nodes at LSN 3 and next LSN 4", st.Stats, st.Durable)
	}
	if st.Durable.Rounds != 1 || st.Durable.LastRound != ck.Durable.LastRound {
		t.Fatalf("/stats reports %d rounds, last %+v; POST /checkpoint reported %+v", st.Durable.Rounds, st.Durable.LastRound, ck.Durable.LastRound)
	}

	var live bytes.Buffer
	if err := dur.WriteCheckpoint(&live); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the directory into a fresh server: the state recovered
	// from checkpoint + WAL tail matches the live state bit for bit.
	dur2, err := pghive.OpenDurable(dir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer dur2.Close()
	var recovered bytes.Buffer
	if err := dur2.WriteCheckpoint(&recovered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), recovered.Bytes()) {
		t.Fatal("recovered serve state diverges from pre-crash state")
	}
	srv2 := httptest.NewServer(newServeMux(serveDurable(dur2, nil), 0, nil))
	defer srv2.Close()
	code, _, body = get(t, srv2, "/schema?format=pgschema&mode=strict&name=G", "")
	if code != http.StatusOK || !strings.Contains(string(body), "CREATE GRAPH TYPE G STRICT") {
		t.Fatalf("schema after recovery: %d %s", code, body)
	}
}
