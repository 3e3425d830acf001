package histcheck

// histcheck_test.go: the checker against itself. Three layers: the
// live concurrent run (a real Service must produce a passing
// history), hand-built minimal histories that hit each violation
// kind precisely, and the seeded-violation self-test — tamper one
// fact in an otherwise honest recorded history and prove the checker
// notices. The last layer is what certifies the harness has teeth:
// a checker that passes real runs but also passes corrupted ones
// verifies nothing.

import (
	"encoding/json"
	"strings"
	"testing"

	pghive "github.com/pghive/pghive"
)

// plainClient adapts a plain in-memory service.
func plainClient(svc *pghive.Service) Client {
	return ServiceClient{Svc: svc.Reader, Write: func(g *pghive.Graph) error { svc.Ingest(g); return nil }}
}

// runLive drives the scripted workload against a fresh in-process
// service and returns the recorded history.
func runLive(t *testing.T, cfg Config) *History {
	t.Helper()
	svc := pghive.NewService(pghive.Options{Seed: 1, Parallelism: 2})
	h, err := Run(func(string) Client { return plainClient(svc) }, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return h
}

func TestLiveServiceHistoryPasses(t *testing.T) {
	cfg := Config{Writers: 4, BatchesPerWriter: 6, Readers: 3, ReadsPerReader: 30}
	if testing.Short() {
		cfg = Config{Writers: 2, BatchesPerWriter: 3, Readers: 2, ReadsPerReader: 9}
	}
	for round := 0; round < 3; round++ {
		h := runLive(t, cfg)
		if err := Check(h); err != nil {
			t.Fatalf("round %d: live history rejected: %v", round, err)
		}
		// Sanity: the run actually recorded concurrent work.
		acks, obs := 0, 0
		for _, e := range h.Events {
			if e.Writer != "" {
				acks++
			} else {
				obs++
			}
		}
		if want := cfg.Writers * cfg.BatchesPerWriter; acks != want {
			t.Fatalf("recorded %d acks, want %d", acks, want)
		}
		if obs == 0 {
			t.Fatal("recorded no observations")
		}
	}
}

// TestHistoryJSONRoundTrip: histories survive serialization, so
// recorded runs can be archived and re-checked (and fuzzed).
func TestHistoryJSONRoundTrip(t *testing.T) {
	h := runLive(t, Config{Writers: 2, BatchesPerWriter: 2, Readers: 1, ReadsPerReader: 6})
	raw, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back History
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if err := Check(&back); err != nil {
		t.Fatalf("round-tripped history rejected: %v", err)
	}
}

// deepCopy clones a history so tampering one probe cannot leak into
// the next.
func deepCopy(t *testing.T, h *History) *History {
	t.Helper()
	raw, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var out History
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestSeededViolationsAreCaught records one honest run, then seeds a
// single deliberate corruption per case and requires the checker to
// flag it with the right kind.
func TestSeededViolationsAreCaught(t *testing.T) {
	base := runLive(t, Config{Writers: 3, BatchesPerWriter: 4, Readers: 2, ReadsPerReader: 18})
	if err := Check(base); err != nil {
		t.Fatalf("baseline history rejected: %v", err)
	}

	// Helpers shared by the tamper cases: which snapshot numbers were
	// observed how often, the globally latest-ending snapshot
	// observation, and the total scripted batch count.
	snapCounts := func(h *History) map[uint64]int {
		m := map[uint64]int{}
		for _, e := range h.Events {
			if e.Obs != nil && e.Obs.HasSnapshot {
				m[e.Obs.Snapshot]++
			}
		}
		return m
	}
	totalBatches := func(h *History) int {
		n := 0
		for _, spec := range h.Writers {
			n += len(spec)
		}
		return n
	}

	cases := []struct {
		name   string
		kind   string
		tamper func(t *testing.T, h *History)
	}{
		{
			// A torn batch: one node appears without its batch. All
			// scripted batch sizes are multiples of five, so +1 can
			// never be a sum of whole batches. Tampering a snapshot
			// that was observed exactly once keeps the determinism
			// check out of the way — only visibility can object.
			name: "torn-batch-node-count",
			kind: KindVisibility,
			tamper: func(t *testing.T, h *History) {
				counts := snapCounts(h)
				for i := range h.Events {
					o := h.Events[i].Obs
					// An atomic-snapshot observation would trip
					// conservation instead; pick a stats-only read of
					// a uniquely observed snapshot.
					if o != nil && o.HasStats && o.HasSnapshot && !o.HasInstances && counts[o.Snapshot] == 1 {
						o.Nodes++
						return
					}
				}
				t.Fatal("no uniquely observed snapshot to tamper")
			},
		},
		{
			// A phantom batch: the latest-ending observation claims
			// more batches than the whole script holds, on a snapshot
			// number beyond any real one (so neither real-time order
			// nor determinism is disturbed — only visibility).
			name: "phantom-batch",
			kind: KindVisibility,
			tamper: func(t *testing.T, h *History) {
				var maxSnap uint64
				for s := range snapCounts(h) {
					if s > maxSnap {
						maxSnap = s
					}
				}
				best := -1
				for i, e := range h.Events {
					if e.Obs != nil && e.Obs.HasStats && e.Obs.HasSnapshot &&
						(best < 0 || e.End > h.Events[best].End) {
						best = i
					}
				}
				if best < 0 {
					t.Fatal("no stats observation to tamper")
				}
				o := h.Events[best].Obs
				o.Snapshot = maxSnap + 1
				o.Batches = totalBatches(h) + 1
			},
		},
		{
			// A client's snapshot moving backwards: rewind a session's
			// last snapshot observation to its first, in a session
			// that observed something newer in between. The rewound
			// stats match the earlier observation exactly, so only
			// the per-session time-travel is wrong.
			name: "snapshot-rewind",
			kind: KindMonotonicity,
			tamper: func(t *testing.T, h *History) {
				idxsBySession := map[string][]int{}
				for i, e := range h.Events {
					if e.Obs != nil && e.Obs.HasSnapshot {
						idxsBySession[e.Session] = append(idxsBySession[e.Session], i)
					}
				}
				for _, idxs := range idxsBySession {
					if len(idxs) < 3 {
						continue
					}
					first := h.Events[idxs[0]].Obs
					mid := h.Events[idxs[len(idxs)/2]].Obs
					last := h.Events[idxs[len(idxs)-1]].Obs
					if !(first.Snapshot < mid.Snapshot && mid.Snapshot <= last.Snapshot) {
						continue
					}
					*last = *first // rewind below the middle observation
					return
				}
				t.Fatal("no session with advancing snapshots to tamper")
			},
		},
		{
			// One snapshot number, two different node counts: a fresh
			// session re-observes the globally newest snapshot with
			// five fewer nodes. The snapshot number is the maximum,
			// so real-time order still holds; determinism cannot.
			name: "split-brain-snapshot",
			kind: KindDeterminism,
			tamper: func(t *testing.T, h *History) {
				best := -1
				for i, e := range h.Events {
					if o := e.Obs; o != nil && o.HasStats && o.HasSnapshot && o.Nodes >= 5 &&
						(best < 0 || o.Snapshot > h.Events[best].Obs.Snapshot) {
						best = i
					}
				}
				if best < 0 {
					t.Fatal("no observation large enough to tamper")
				}
				var maxEnd int64
				for _, e := range h.Events {
					if e.End > maxEnd {
						maxEnd = e.End
					}
				}
				dup := *h.Events[best].Obs
				dup.Nodes -= 5
				dup.HasInstances = false
				h.Events = append(h.Events, Event{
					Session: "r-split", Start: maxEnd + 1, End: maxEnd + 2, Obs: &dup,
				})
			},
		},
		{
			// Schema and stats from one atomic snapshot disagree on
			// how many nodes exist.
			name: "instance-leak",
			kind: KindConservation,
			tamper: func(t *testing.T, h *History) {
				for i := range h.Events {
					if o := h.Events[i].Obs; o != nil && o.HasStats && o.HasInstances {
						o.NodeInstances += 5
						return
					}
				}
				t.Fatal("no atomic snapshot observation to tamper")
			},
		},
		{
			// An acked write that never became visible: push an
			// observation of the empty service to the end of real
			// time, after every ack completed.
			name: "lost-write",
			kind: KindVisibility,
			tamper: func(t *testing.T, h *History) {
				var maxEnd int64
				for _, e := range h.Events {
					if e.End > maxEnd {
						maxEnd = e.End
					}
				}
				h.Events = append(h.Events, Event{
					Session: "r-late", Start: maxEnd + 1, End: maxEnd + 2,
					Obs: &Observation{HasStats: true},
				})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := deepCopy(t, base)
			tc.tamper(t, h)
			err := Check(h)
			if err == nil {
				t.Fatal("checker accepted the seeded violation")
			}
			v, ok := err.(*Violation)
			if !ok {
				t.Fatalf("error %v is not a *Violation", err)
			}
			if v.Kind != tc.kind {
				t.Fatalf("flagged kind %q (%v), want %q", v.Kind, v, tc.kind)
			}
		})
	}
}

// Hand-built minimal histories: each checker branch demonstrated on
// the smallest history that trips it, independent of any live run.

func spec1() map[string][]BatchSpec {
	return map[string][]BatchSpec{"w0": {{Nodes: 5, Edges: 5}, {Nodes: 10, Edges: 10}}}
}

func obsEv(session string, start, end int64, o Observation) Event {
	return Event{Session: session, Start: start, End: end, Obs: &o}
}

func ackEv(writer string, seq int, start, end int64) Event {
	return Event{Session: writer, Start: start, End: end, Writer: writer, Seq: seq}
}

func statsObs(snap uint64, batches, nodes, edges int) Observation {
	return Observation{HasSnapshot: true, Snapshot: snap, HasStats: true,
		Batches: batches, Nodes: nodes, Edges: edges}
}

func TestCheckMinimalHistories(t *testing.T) {
	cases := []struct {
		name string
		h    History
		kind string // "" = must pass
	}{
		{
			name: "valid-sequential",
			h: History{Writers: spec1(), Events: []Event{
				obsEv("r0", 1, 2, statsObs(0, 0, 0, 0)),
				ackEv("w0", 1, 3, 4),
				obsEv("r0", 5, 6, statsObs(1, 1, 5, 5)),
				ackEv("w0", 2, 7, 8),
				obsEv("r0", 9, 10, statsObs(2, 2, 15, 15)),
			}},
		},
		{
			name: "valid-concurrent-read-may-miss-inflight-write",
			h: History{Writers: spec1(), Events: []Event{
				ackEv("w0", 1, 1, 10),
				obsEv("r0", 2, 3, statsObs(0, 0, 0, 0)), // overlaps the ack: either state is legal
			}},
		},
		{
			name: "ack-unknown-writer",
			kind: KindMalformed,
			h: History{Writers: spec1(), Events: []Event{
				ackEv("w9", 1, 1, 2),
			}},
		},
		{
			name: "ack-seq-gap",
			kind: KindMalformed,
			h: History{Writers: spec1(), Events: []Event{
				ackEv("w0", 2, 1, 2),
			}},
		},
		{
			name: "inverted-stamps",
			kind: KindMalformed,
			h: History{Writers: spec1(), Events: []Event{
				obsEv("r0", 5, 5, statsObs(0, 0, 0, 0)),
			}},
		},
		{
			name: "session-time-travel",
			kind: KindMonotonicity,
			h: History{Writers: spec1(), Events: []Event{
				ackEv("w0", 1, 1, 2),
				obsEv("r0", 3, 4, statsObs(1, 1, 5, 5)),
				obsEv("r0", 5, 6, statsObs(0, 0, 0, 0)),
			}},
		},
		{
			name: "cross-session-time-travel",
			kind: KindRealtime,
			h: History{Writers: spec1(), Events: []Event{
				ackEv("w0", 1, 1, 2),
				obsEv("r0", 3, 4, statsObs(1, 1, 5, 5)),
				obsEv("r1", 5, 6, statsObs(0, 0, 0, 0)),
			}},
		},
		{
			name: "snapshot-determinism",
			kind: KindDeterminism,
			h: History{Writers: spec1(), Events: []Event{
				ackEv("w0", 1, 1, 2),
				obsEv("r0", 3, 4, statsObs(1, 1, 5, 5)),
				obsEv("r1", 3, 4, statsObs(1, 1, 5, 4)),
			}},
		},
		{
			name: "torn-batch",
			kind: KindVisibility,
			h: History{Writers: spec1(), Events: []Event{
				ackEv("w0", 1, 1, 2),
				obsEv("r0", 3, 4, statsObs(1, 1, 3, 3)), // 3 of the 5 nodes: torn
			}},
		},
		{
			name: "read-your-writes-lost",
			kind: KindVisibility,
			h: History{Writers: spec1(), Events: []Event{
				ackEv("w0", 1, 1, 2),
				obsEv("w0", 3, 4, statsObs(0, 0, 0, 0)), // own acked batch invisible
			}},
		},
		{
			name: "schema-only-torn",
			kind: KindVisibility,
			h: History{Writers: spec1(), Events: []Event{
				ackEv("w0", 1, 1, 2),
				obsEv("r0", 3, 4, Observation{HasInstances: true, NodeInstances: 6, EdgeInstances: 5}),
			}},
		},
		{
			name: "conservation",
			kind: KindConservation,
			h: History{Writers: spec1(), Events: []Event{
				ackEv("w0", 1, 1, 2),
				obsEv("r0", 3, 4, Observation{
					HasSnapshot: true, Snapshot: 1, HasStats: true, Batches: 1, Nodes: 5, Edges: 5,
					HasInstances: true, NodeInstances: 10, EdgeInstances: 5,
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
			v, ok := err.(*Violation)
			if !ok || v.Kind != tc.kind {
				t.Fatalf("got %v, want kind %q", err, tc.kind)
			}
			if !strings.Contains(err.Error(), "histcheck:") {
				t.Fatalf("error %q lacks package prefix", err)
			}
		})
	}
}

// TestCheckNilHistory: the checker degrades to an error, never a
// panic, on the degenerate input.
func TestCheckNilHistory(t *testing.T) {
	err := Check(nil)
	if v, ok := err.(*Violation); !ok || v.Kind != KindMalformed {
		t.Fatalf("Check(nil) = %v, want malformed violation", err)
	}
}
