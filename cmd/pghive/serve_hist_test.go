package main

// serve_hist_test.go: history-checked black-box test of the serve
// mux. Concurrent writer and reader sessions drive the real HTTP
// surface (POST /ingest, GET /stats, GET /schema) through
// internal/histcheck's recording driver, each ack and read stating its
// LSN (the /ingest body, /stats, the /schema ETag); the recorded history
// is then checked offline for LSN monotonicity, exact batch visibility,
// and determinism. A final tamper probe corrupts one recorded
// observation to prove the checker would have caught a server that
// tore a batch.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/histcheck"
)

// httpClient adapts one HTTP session to histcheck.Client. Stats and
// schema are separate requests, so Snapshot reports ok=false: over
// this transport there is no atomic stats+schema read, and the
// checker accordingly never applies the conservation check to it.
type httpClient struct {
	base string
	c    *http.Client
}

func (h *httpClient) Ingest(g *pghive.Graph) (uint64, error) {
	var body bytes.Buffer
	if err := pghive.WriteJSONL(&body, g); err != nil {
		return 0, err
	}
	resp, err := h.c.Post(h.base+"/ingest", "application/x-ndjson", &body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return 0, fmt.Errorf("ingest: status %d: %s", resp.StatusCode, b)
	}
	var ack struct {
		LSN uint64 `json:"lsn"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return 0, fmt.Errorf("ingest: %w", err)
	}
	return ack.LSN, nil
}

func (h *httpClient) Stats() (histcheck.Observation, error) {
	resp, err := h.c.Get(h.base + "/stats")
	if err != nil {
		return histcheck.Observation{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return histcheck.Observation{}, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	var st struct {
		Batches int    `json:"batches"`
		Nodes   int    `json:"nodes"`
		Edges   int    `json:"edges"`
		LSN     uint64 `json:"lsn"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return histcheck.Observation{}, fmt.Errorf("stats: %w", err)
	}
	return histcheck.Observation{
		LSN: st.LSN, HasStats: true, Batches: st.Batches, Nodes: st.Nodes, Edges: st.Edges,
	}, nil
}

func (h *httpClient) Schema() (histcheck.Observation, error) {
	resp, err := h.c.Get(h.base + "/schema?format=json")
	if err != nil {
		return histcheck.Observation{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return histcheck.Observation{}, fmt.Errorf("schema: status %d", resp.StatusCode)
	}
	lsn, err := strconv.ParseUint(strings.Trim(resp.Header.Get("ETag"), `"`), 10, 64)
	if err != nil {
		return histcheck.Observation{}, fmt.Errorf("schema: ETag: %w", err)
	}
	var doc struct {
		NodeTypes []struct {
			Abstract  bool `json:"abstract"`
			Instances int  `json:"instances"`
		} `json:"nodeTypes"`
		EdgeTypes []struct {
			Abstract  bool `json:"abstract"`
			Instances int  `json:"instances"`
		} `json:"edgeTypes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return histcheck.Observation{}, fmt.Errorf("schema: %w", err)
	}
	obs := histcheck.Observation{LSN: lsn, HasInstances: true}
	for _, ty := range doc.NodeTypes {
		if !ty.Abstract {
			obs.NodeInstances += ty.Instances
		}
	}
	for _, ty := range doc.EdgeTypes {
		if !ty.Abstract {
			obs.EdgeInstances += ty.Instances
		}
	}
	return obs, nil
}

func (h *httpClient) Snapshot() (histcheck.Observation, bool, error) {
	return histcheck.Observation{}, false, nil
}

// TestServeHistoryChecked runs the concurrent scripted workload over
// the real mux and requires the recorded history to satisfy the
// serving contract end to end — then proves the oracle is live by
// corrupting one observation and watching the same checker reject it.
func TestServeHistoryChecked(t *testing.T) {
	svc := pghive.NewService(pghive.Options{Seed: 1, Parallelism: 2})
	srv := httptest.NewServer(newServeMux(servePlain(svc), 0, nil))
	defer srv.Close()

	cfg := histcheck.Config{Writers: 3, BatchesPerWriter: 5, Readers: 3, ReadsPerReader: 24}
	if testing.Short() {
		cfg = histcheck.Config{Writers: 2, BatchesPerWriter: 3, Readers: 2, ReadsPerReader: 9}
	}
	h, err := histcheck.Run(func(string) histcheck.Client {
		return &httpClient{base: srv.URL, c: srv.Client()}
	}, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := histcheck.Check(h); err != nil {
		t.Fatalf("HTTP history rejected: %v", err)
	}

	// The final stats must account for the whole script.
	wantNodes, wantBatches := 0, 0
	for _, spec := range h.Writers {
		wantBatches += len(spec)
		for _, b := range spec {
			wantNodes += b.Nodes
		}
	}
	st := svc.Stats()
	if st.Nodes != wantNodes || st.Batches != wantBatches {
		t.Fatalf("final stats nodes=%d batches=%d, want nodes=%d batches=%d",
			st.Nodes, st.Batches, wantNodes, wantBatches)
	}

	// Tamper probe: one stray node in a recorded observation must be
	// flagged — otherwise the pass above proved nothing.
	seen := map[uint64]int{}
	for _, e := range h.Events {
		if e.Obs != nil {
			seen[e.Obs.LSN]++
		}
	}
	// An LSN observed once can only be caught by the visibility check.
	// When the writers outran the readers and every observed LSN was
	// seen twice, tamper any observation: the determinism check must
	// then catch it.
	tampered := false
	for _, unique := range []bool{true, false} {
		for _, e := range h.Events {
			if o := e.Obs; !tampered && o != nil && o.HasStats && (seen[o.LSN] == 1 || !unique) {
				o.Nodes++
				tampered = true
			}
		}
	}
	if !tampered {
		t.Fatal("no observation with stats to tamper")
	}
	if err := histcheck.Check(h); err == nil {
		t.Fatal("checker accepted the tampered HTTP history")
	}
}
