package main

// chaos_test.go: the end-to-end robustness soak. A retrying client
// (package client) drives the history-checked workload against the
// real serve mux over a fault-injecting filesystem, with the write
// queue squeezed to force 429 backpressure. Transient WAL faults make
// individual /ingest attempts fail with 500; the client's idempotency
// keys make the retries safe; and the recorded history plus the final
// stats prove every scripted batch landed exactly once anyway. This is
// the composition test for the whole PR: admission gate, degradation
// machinery (which must NOT trigger on transient faults), retry
// discipline, and exactly-once keys, all at once under -race.
//
// The CI chaos-smoke job runs exactly this test; CHAOS_SOAK=30s (any
// duration) extends the soak locally.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/client"
	"github.com/pghive/pghive/internal/admission"
	"github.com/pghive/pghive/internal/histcheck"
	"github.com/pghive/pghive/internal/vfs"
)

// chaosClient adapts one retrying client.Client session to
// histcheck.Client. Stats decodes the durable-mode /stats shape (the
// service stats nest under "stats"). Snapshot reports ok=false: over
// HTTP there is no atomic stats+schema read.
type chaosClient struct {
	cl  *client.Client
	ctx context.Context
}

func (h *chaosClient) Ingest(g *pghive.Graph) (uint64, error) {
	res, err := h.cl.Ingest(h.ctx, g)
	if err != nil {
		return 0, err
	}
	return res.LSN, nil
}

func (h *chaosClient) Stats() (histcheck.Observation, error) {
	raw, err := h.cl.Stats(h.ctx)
	if err != nil {
		return histcheck.Observation{}, err
	}
	var doc struct {
		Stats struct {
			Batches int    `json:"batches"`
			Nodes   int    `json:"nodes"`
			Edges   int    `json:"edges"`
			LSN     uint64 `json:"lsn"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return histcheck.Observation{}, fmt.Errorf("stats: %w", err)
	}
	return histcheck.Observation{
		LSN: doc.Stats.LSN, HasStats: true, Batches: doc.Stats.Batches, Nodes: doc.Stats.Nodes, Edges: doc.Stats.Edges,
	}, nil
}

func (h *chaosClient) Schema() (histcheck.Observation, error) {
	data, lsn, err := h.cl.Schema(h.ctx, "json")
	if err != nil {
		return histcheck.Observation{}, err
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
	if err := json.Unmarshal(data, &doc); err != nil {
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

func (h *chaosClient) Snapshot() (histcheck.Observation, bool, error) {
	return histcheck.Observation{}, false, nil
}

func TestChaosSmoke(t *testing.T) {
	cfg := histcheck.Config{Writers: 2, BatchesPerWriter: 3, Readers: 1, ReadsPerReader: 6}

	// Probe a fault-free iteration for its sync envelope, so every
	// faulted iteration can aim transient faults at positions that are
	// guaranteed to be exercised: after open (a fault during open would
	// fail recovery, which is PR 6's territory) and before close.
	probe := vfs.NewPlan()
	openSyncs, totalSyncs := func() (int, int) {
		fsys := vfs.NewInjectFS(vfs.NewMemFS(), probe)
		dur, err := pghive.OpenDurable("data", pghive.Options{Seed: 1, Parallelism: 2},
			pghive.DurableOptions{FS: fsys, DisableAutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		defer dur.Close()
		after := probe.Ops()[vfs.OpSync]
		srv := httptest.NewServer(newServeMux(serveDurable(dur, nil), 0, nil))
		defer srv.Close()
		h, err := histcheck.Run(func(string) histcheck.Client {
			return &chaosClient{ctx: context.Background(), cl: client.New(srv.URL, client.Options{HTTPClient: srv.Client()})}
		}, cfg)
		if err != nil {
			t.Fatalf("fault-free probe run: %v", err)
		}
		if err := histcheck.Check(h); err != nil {
			t.Fatalf("fault-free probe history rejected: %v", err)
		}
		return after, probe.Ops()[vfs.OpSync]
	}()
	if totalSyncs <= openSyncs {
		t.Fatalf("probe: workload performed no syncs (open %d, total %d)", openSyncs, totalSyncs)
	}

	// Soak budget: a handful of iterations by default, or as long as
	// CHAOS_SOAK says.
	budget := 3 * time.Second
	iterations := 6
	if testing.Short() {
		iterations = 2
	}
	if s := os.Getenv("CHAOS_SOAK"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("CHAOS_SOAK: %v", err)
		}
		budget, iterations = d, 1<<30
	}

	wantBatches, wantNodes := 0, 0
	for _, specs := range cfg.Script() {
		wantBatches += len(specs)
		for _, b := range specs {
			wantNodes += b.Nodes
		}
	}

	var faultsFired, retries uint64
	start := time.Now()
	for it := 0; it < iterations && (it == 0 || time.Since(start) < budget); it++ {
		rng := rand.New(rand.NewSource(int64(7919 + it)))

		// Transient sync faults, spaced ≥3 apart so a failed append's
		// rollback sync never faults too (adjacent sync faults are the
		// broken-WAL recipe — that declared-degradation path has its own
		// tests; the soak's contract is that TRANSIENT faults cost
		// retries, never writes).
		var faults []vfs.Fault
		for n := openSyncs + 1 + rng.Intn(3); n <= totalSyncs; n += 3 + rng.Intn(4) {
			mode := vfs.FailEarly
			if rng.Intn(2) == 0 {
				mode = vfs.FailLate
			}
			faults = append(faults, vfs.Fault{Op: vfs.OpSync, N: n, Mode: mode})
		}
		plan := vfs.NewPlan(faults...)
		dur, err := pghive.OpenDurable("data", pghive.Options{Seed: 1, Parallelism: 2},
			pghive.DurableOptions{FS: vfs.NewInjectFS(vfs.NewMemFS(), plan), DisableAutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		// Write queue of 1 with two concurrent writers: backpressure
		// 429s are part of every iteration's diet, not a corner case.
		gate := admission.New(admission.Config{MaxWriteQueue: 1, MaxConcurrent: 32, RequestTimeout: 30 * time.Second})
		srv := httptest.NewServer(newServeMux(serveDurable(dur, nil), 0, gate))

		ctx := context.Background()
		var clients []*client.Client
		h, err := histcheck.Run(func(string) histcheck.Client {
			cl := client.New(srv.URL, client.Options{
				HTTPClient:  srv.Client(),
				MaxAttempts: 10,
				BaseBackoff: 2 * time.Millisecond,
				MaxBackoff:  25 * time.Millisecond,
			})
			clients = append(clients, cl)
			return &chaosClient{ctx: ctx, cl: cl}
		}, cfg)
		if err != nil {
			t.Fatalf("iteration %d (faults %v): %v", it, faults, err)
		}
		if err := histcheck.Check(h); err != nil {
			t.Fatalf("iteration %d (faults %v): history rejected: %v", it, faults, err)
		}

		// Exactly-once under retries: the final state accounts for the
		// script precisely — no retried batch applied twice, none lost.
		st := dur.Stats()
		if st.Batches != wantBatches || st.Nodes != wantNodes {
			t.Fatalf("iteration %d (faults %v): final stats batches=%d nodes=%d, want %d/%d",
				it, faults, st.Batches, st.Nodes, wantBatches, wantNodes)
		}
		// Transient faults must not have degraded the service.
		if reason, degraded := dur.Degraded(); degraded {
			t.Fatalf("iteration %d: transient faults degraded the service (%s)", it, reason)
		}
		faultsFired += uint64(len(plan.Fired()))
		for _, cl := range clients {
			retries += cl.Retries()
		}
		srv.Close()
		dur.Close()
	}

	// The soak must have actually hurt: faults fired, and the client
	// earned its keep. (Fault positions are probed to land inside the
	// workload's sync envelope, so zero firings means the injector came
	// unwired.)
	if faultsFired == 0 {
		t.Fatal("no injected fault ever fired — the soak exercised nothing")
	}
	t.Logf("chaos smoke: %d faults fired, %d client retries over %s", faultsFired, retries, time.Since(start).Round(time.Millisecond))
}
