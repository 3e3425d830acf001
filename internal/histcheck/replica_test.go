package histcheck

// replica_test.go: the checker against a replication topology. Same
// three layers as histcheck_test.go — minimal hand-built histories
// for each replica-specific branch, a live leader-plus-followers run
// that must pass, and seeded corruptions of that live history that
// must not.

import (
	"testing"
	"time"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
)

func replicaObsEv(session, server string, start, end int64, o Observation) Event {
	e := obsEv(session, start, end, o)
	e.Server = server
	return e
}

func TestCheckMinimalReplicaHistories(t *testing.T) {
	cases := []struct {
		name string
		h    History
		kind string // "" = must pass
	}{
		{
			// The whole point of per-server freshness: a replica read
			// that finishes after a leader read may still show an
			// older state (here: nothing at all), and a later replica
			// read catches up to a whole-batch prefix.
			name: "valid-replica-lags-leader",
			h: History{Writers: spec1(), Replicas: []string{"a"}, Events: []Event{
				ackEv("w0", 1, 1, 2),
				ackEv("w0", 2, 3, 4),
				obsEv("r0", 5, 6, statsObs(2, 2, 15, 15)),
				replicaObsEv("a/r0", "a", 7, 8, statsObs(0, 0, 0, 0)),
				replicaObsEv("a/r0", "a", 9, 10, statsObs(1, 1, 5, 5)),
			}},
		},
		{
			// A follower's publication counter starts at its bootstrap
			// image, so snapshot numbers need not equal batch counts —
			// only the element totals are pinned to the batch lattice.
			name: "valid-replica-snapshot-counter-unaligned",
			h: History{Writers: spec1(), Replicas: []string{"a"}, Events: []Event{
				ackEv("w0", 1, 1, 2),
				replicaObsEv("a/r0", "a", 3, 4, statsObs(7, 0, 5, 5)),
			}},
		},
		{
			name: "undeclared-server",
			kind: KindMalformed,
			h: History{Writers: spec1(), Events: []Event{
				replicaObsEv("a/r0", "a", 1, 2, statsObs(0, 0, 0, 0)),
			}},
		},
		{
			name: "empty-replica-name",
			kind: KindMalformed,
			h: History{Writers: spec1(), Replicas: []string{""}, Events: []Event{
				obsEv("r0", 1, 2, statsObs(0, 0, 0, 0)),
			}},
		},
		{
			// A write acknowledged by a read-only follower can never be
			// explained, whatever its stamps say.
			name: "replica-acks-write",
			kind: KindMalformed,
			h: History{Writers: spec1(), Replicas: []string{"a"}, Events: []Event{
				{Session: "w0", Server: "a", Start: 1, End: 2, Writer: "w0", Seq: 1},
			}},
		},
		{
			// Lag is legal; tearing is not. 3 of the first batch's 5
			// nodes is a state no log prefix ever held, on any server.
			name: "replica-torn-batch",
			kind: KindVisibility,
			h: History{Writers: spec1(), Replicas: []string{"a"}, Events: []Event{
				ackEv("w0", 1, 1, 2),
				replicaObsEv("a/r0", "a", 3, 4, statsObs(1, 1, 3, 3)),
			}},
		},
		{
			// The upper bound survives replication: a follower replays
			// the leader's log, so it cannot show batch 2 before that
			// ingest even started.
			name: "replica-sees-the-future",
			kind: KindVisibility,
			h: History{Writers: spec1(), Replicas: []string{"a"}, Events: []Event{
				ackEv("w0", 1, 1, 2),
				replicaObsEv("a/r0", "a", 3, 4, statsObs(2, 2, 15, 15)),
				ackEv("w0", 2, 5, 6),
			}},
		},
		{
			// One server's register is still one register: two reads of
			// the same follower cannot time-travel against each other.
			name: "replica-internal-time-travel",
			kind: KindRealtime,
			h: History{Writers: spec1(), Replicas: []string{"a"}, Events: []Event{
				ackEv("w0", 1, 1, 2),
				replicaObsEv("a/r0", "a", 3, 4, statsObs(1, 1, 5, 5)),
				replicaObsEv("a/r1", "a", 5, 6, statsObs(0, 0, 0, 0)),
			}},
		},
		{
			// Determinism is per server: the same sequence number on
			// one follower naming two different states is split brain.
			name: "replica-split-brain",
			kind: KindDeterminism,
			h: History{Writers: spec1(), Replicas: []string{"a"}, Events: []Event{
				ackEv("w0", 1, 1, 2),
				replicaObsEv("a/r0", "a", 3, 4, statsObs(1, 1, 5, 5)),
				replicaObsEv("a/r1", "a", 3, 4, statsObs(1, 1, 0, 0)),
			}},
		},
		{
			// ...but the leader's snapshot 1 and a follower's snapshot
			// 1 are unrelated registers; differing stats are fine.
			name: "valid-cross-server-same-seq",
			h: History{Writers: spec1(), Replicas: []string{"a"}, Events: []Event{
				ackEv("w0", 1, 1, 2),
				obsEv("r0", 3, 4, statsObs(1, 1, 5, 5)),
				replicaObsEv("a/r0", "a", 5, 6, statsObs(1, 0, 0, 0)),
			}},
		},
		{
			// Conservation has no replica exemption: an atomic follower
			// snapshot whose instance sums disagree with its stats is
			// corrupt, not stale.
			name: "replica-conservation",
			kind: KindConservation,
			h: History{Writers: spec1(), Replicas: []string{"a"}, Events: []Event{
				ackEv("w0", 1, 1, 2),
				replicaObsEv("a/r0", "a", 3, 4, Observation{
					HasSnapshot: true, Snapshot: 1, HasStats: true, Batches: 1, Nodes: 5, Edges: 5,
					HasInstances: true, NodeInstances: 8, EdgeInstances: 5,
				}),
			}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Check(&tc.h)
			if tc.kind == "" {
				if err != nil {
					t.Fatalf("valid history rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("violation not detected, want kind %q", tc.kind)
			}
			if v, ok := err.(*Violation); !ok || v.Kind != tc.kind {
				t.Fatalf("got %v, want kind %q", err, tc.kind)
			}
		})
	}
}

// runLiveReplicated drives the scripted workload against a durable
// leader shipping to an in-memory object store, with live followers
// tailing it, and returns the recorded replicated history.
func runLiveReplicated(t *testing.T, cfg Config) *History {
	t.Helper()
	backend := store.NewDir(vfs.NewMemFS(), "/backend")
	opts := pghive.Options{Seed: 1, Parallelism: 2}
	leader, err := pghive.OpenDurable("data", opts, pghive.DurableOptions{
		FS:                 vfs.NewMemFS(),
		DisableAutoCompact: true,
		SegmentBytes:       4096,
		ShipTo:             backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leader.Close() })

	// Shipping happens at compaction; a background compactor keeps the
	// backend moving while the scripted writers run.
	compactorStop := make(chan struct{})
	compactorDone := make(chan struct{})
	go func() {
		defer close(compactorDone)
		for {
			select {
			case <-compactorStop:
				return
			case <-time.After(2 * time.Millisecond):
				if err := leader.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	t.Cleanup(func() { close(compactorStop); <-compactorDone })

	followers := make(map[string]*pghive.Follower, len(cfg.Replicas))
	for _, name := range cfg.Replicas {
		f := pghive.NewFollower(opts, backend, pghive.FollowerOptions{
			PollInterval: time.Millisecond,
		})
		f.Start()
		t.Cleanup(func() { f.Close() })
		followers[name] = f
	}

	h, err := RunReplicated(func(session, server string) Client {
		if server == "" {
			// Writes go through the WAL-backed Ingest.
			return ServiceClient{Svc: leader.Reader, Write: func(g *pghive.Graph) error {
				_, err := leader.Ingest(g)
				return err
			}}
		}
		return ServiceClient{Svc: followers[server].Reader}
	}, cfg)
	if err != nil {
		t.Fatalf("RunReplicated: %v", err)
	}
	return h
}

func TestLiveReplicatedHistoryPasses(t *testing.T) {
	cfg := Config{
		Writers: 3, BatchesPerWriter: 4, Readers: 2, ReadsPerReader: 24,
		Replicas: []string{"replica-a", "replica-b"}, ReplicaReaders: 2,
	}
	if testing.Short() {
		cfg.BatchesPerWriter, cfg.ReadsPerReader = 3, 9
	}
	h := runLiveReplicated(t, cfg)
	if err := Check(h); err != nil {
		t.Fatalf("live replicated history rejected: %v", err)
	}

	// Structural sanity: the run actually recorded replica reads.
	replicaObs := 0
	for _, e := range h.Events {
		if e.Server != "" && e.Obs != nil {
			replicaObs++
		}
	}
	if want := len(cfg.Replicas) * cfg.ReplicaReaders * cfg.ReadsPerReader; replicaObs != want {
		t.Fatalf("recorded %d replica observations, want %d", replicaObs, want)
	}

	// Seeded corruption: tear a replica observation by three nodes.
	// Every scripted batch is a multiple of five, so no prefix sum can
	// absorb the change whatever the replica's lag was — the checker
	// must refuse the tampered history. Tampering a (server, snapshot)
	// pair observed exactly once keeps determinism out of the way so
	// the flagged kind is specifically the torn state; if every pair
	// was observed repeatedly, determinism catching the mismatch first
	// is an equally valid refusal.
	tampered := deepCopy(t, h)
	type reg struct {
		server string
		snap   uint64
	}
	counts := map[reg]int{}
	for _, e := range tampered.Events {
		if e.Obs != nil && e.Obs.HasSnapshot {
			counts[reg{e.Server, e.Obs.Snapshot}]++
		}
	}
	seeded, unique := false, false
	for pass := 0; pass < 2 && !seeded; pass++ {
		for _, e := range tampered.Events {
			if e.Server == "" || e.Obs == nil || !e.Obs.HasStats {
				continue
			}
			if pass == 0 && counts[reg{e.Server, e.Obs.Snapshot}] != 1 {
				continue
			}
			e.Obs.Nodes += 3
			seeded, unique = true, pass == 0
			break
		}
	}
	if !seeded {
		t.Fatal("no replica stats observation to tamper")
	}
	err := Check(tampered)
	if err == nil {
		t.Fatal("checker accepted the torn replica observation")
	}
	v, ok := err.(*Violation)
	if !ok {
		t.Fatalf("error %v is not a *Violation", err)
	}
	if unique && v.Kind != KindVisibility {
		t.Fatalf("got %v, want kind %q", err, KindVisibility)
	}
	if !unique && v.Kind != KindVisibility && v.Kind != KindDeterminism {
		t.Fatalf("got %v, want a visibility or determinism violation", err)
	}
}
