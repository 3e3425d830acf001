package pghive_test

// Concurrency stress test for the serving layer: N writer goroutines
// ingest and retract batches while M readers hammer the published
// snapshot (Schema / Validate / PGSchema / Stats). Run under -race in
// the CI test job, it is the black-box check of the service's two
// observable guarantees: reads are consistent snapshots (never a
// half-merged schema), and retraction returns the service to the
// prior state.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/datagen"
)

// writerGraph builds writer w's iteration-i batch: nodes, edges, and
// properties in a namespace disjoint from every other writer and from
// the base dataset, so concurrent type extraction never entangles
// writers and retraction provably returns to the base schema.
func writerGraph(w, i int) *pghive.Graph {
	g := pghive.NewGraph()
	base := pghive.ID(1_000_000 * (w + 1))
	label := fmt.Sprintf("Stress%d", w)
	const n = 20
	for j := 0; j < n; j++ {
		id := base + pghive.ID(i*n+j)
		_ = g.PutNode(id, []string{label}, map[string]pghive.Value{
			fmt.Sprintf("w%d_key", w): pghive.Int(int64(j)),
			fmt.Sprintf("w%d_tag", w): pghive.Str(fmt.Sprintf("v%d", j%3)),
		})
	}
	for j := 0; j < n; j++ {
		src := base + pghive.ID(i*n+j)
		dst := base + pghive.ID(i*n+(j+1)%n)
		_ = g.PutEdge(pghive.ID(base)+pghive.ID(i*n+j), []string{label + "_REL"}, src, dst, nil)
	}
	return g
}

// checkSnapshot asserts one published snapshot is internally
// consistent. It returns the snapshot sequence number so readers can
// assert publication order is monotone.
func checkSnapshot(t *testing.T, snap *pghive.ServiceSnapshot) uint64 {
	t.Helper()
	s, st := snap.Schema, snap.Stats
	if st.NodeTypes != len(s.NodeTypes) || st.EdgeTypes != len(s.EdgeTypes) {
		t.Errorf("snapshot %d: stats report %d/%d types, schema has %d/%d",
			st.Snapshot, st.NodeTypes, st.EdgeTypes, len(s.NodeTypes), len(s.EdgeTypes))
	}
	// Assignments must match the published schema: the per-type
	// instance tallies of the snapshot sum exactly to the number of
	// assigned elements reported by the same snapshot. A schema
	// published mid-merge, or stats taken out of sync with the schema
	// copy, breaks this equality.
	nodeSum, edgeSum := 0, 0
	for _, nt := range s.NodeTypes {
		if nt.Instances <= 0 {
			t.Errorf("snapshot %d: node type %s exposed with %d instances",
				st.Snapshot, nt.Name(), nt.Instances)
		}
		nodeSum += nt.Instances
		for l, c := range nt.Labels {
			if c < 0 || c > nt.Instances {
				t.Errorf("snapshot %d: type %s label %q count %d outside [0, %d]",
					st.Snapshot, nt.Name(), l, c, nt.Instances)
			}
		}
		for k, ps := range nt.Props {
			if ps.Count <= 0 || ps.Count > nt.Instances {
				t.Errorf("snapshot %d: type %s property %q count %d outside (0, %d]",
					st.Snapshot, nt.Name(), k, ps.Count, nt.Instances)
			}
		}
	}
	for _, et := range s.EdgeTypes {
		if et.Instances <= 0 {
			t.Errorf("snapshot %d: edge type %s exposed with %d instances",
				st.Snapshot, et.Name(), et.Instances)
		}
		edgeSum += et.Instances
	}
	if nodeSum != st.Nodes || edgeSum != st.Edges {
		t.Errorf("snapshot %d: schema instances sum to %d nodes / %d edges, stats report %d / %d",
			st.Snapshot, nodeSum, edgeSum, st.Nodes, st.Edges)
	}
	return st.Snapshot
}

func TestServiceConcurrentStress(t *testing.T) {
	const (
		writers    = 4
		readers    = 4
		iterations = 12
	)
	d := datagen.Generate(datagen.POLE(), 0.5, 1)
	base := d.Graph

	svc := pghive.NewService(pghive.Options{Seed: 1})
	svc.Ingest(base)
	baseFP := svc.PGSchema(pghive.Strict, "G") + svc.XSD() + svc.DOT("G")
	if rep := svc.Validate(base, pghive.ValidateLoose); !rep.Valid() {
		t.Fatalf("base graph invalid against its own schema: %v", rep.Violations[0])
	}

	var writerWG, readerWG sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < iterations; i++ {
				g := writerGraph(w, i)
				svc.Ingest(g)
				svc.Retract(g)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			var lastSeq uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := svc.Snapshot()
				seq := checkSnapshot(t, snap)
				if seq < lastSeq {
					t.Errorf("snapshot sequence went backwards: %d after %d", seq, lastSeq)
				}
				lastSeq = seq
				// The base dataset is never retracted, so every
				// snapshot — whatever the writers are doing — must
				// still type all of its elements.
				if rep := svc.Validate(base, pghive.ValidateLoose); !rep.Valid() {
					t.Errorf("snapshot %d: base graph no longer loose-valid: %v",
						seq, rep.Violations[0])
					return
				}
				if svc.PGSchema(pghive.Strict, "G") == "" || svc.XSD() == "" || svc.DOT("G") == "" {
					t.Error("serialization of a snapshot came back empty")
					return
				}
			}
		}()
	}
	writerWG.Wait()
	close(done)
	readerWG.Wait()

	// Every writer retracted everything it ingested, so the final
	// published schema is the base-only schema again, bit-identically.
	if got := svc.PGSchema(pghive.Strict, "G") + svc.XSD() + svc.DOT("G"); got != baseFP {
		t.Error("final schema after ingest/retract churn differs from the base schema")
	}
}

// TestReaderReadsDoNotAllocate: a snapshot read is one atomic pointer
// load, so Snapshot, Stats and Schema allocate nothing — the reason
// reads stay flat however fast writes land.
func TestReaderReadsDoNotAllocate(t *testing.T) {
	svc := pghive.NewService(pghive.Options{Seed: 1})
	svc.Ingest(writerGraph(0, 0))
	for name, read := range map[string]func(){
		"Snapshot": func() { _ = svc.Snapshot() },
		"Stats":    func() { _ = svc.Stats() },
		"Schema":   func() { _ = svc.Schema() },
	} {
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("%s allocates %.0f times per call, want 0", name, n)
		}
	}
}

// TestServiceCSVEdgeIDsSkipIngestedIDs pins that a CSV stream drained
// after explicit-ID ingestion starts numbering above every edge ID
// the service has seen — CSV rows carry no IDs, and reusing an
// ingested ID would silently overwrite its assignment and corrupt
// retraction.
func TestServiceCSVEdgeIDsSkipIngestedIDs(t *testing.T) {
	svc := pghive.NewService(pghive.Options{Seed: 1})
	g := pghive.NewGraph()
	_ = g.PutNode(1, []string{"Person"}, nil)
	_ = g.PutNode(2, []string{"Person"}, nil)
	_ = g.PutEdge(5, []string{"KNOWS"}, 1, 2, nil) // explicit edge ID 5
	svc.Ingest(g)

	csv := pghive.NewCSVStream(nil,
		[]io.Reader{strings.NewReader(":START_ID,:END_ID,:TYPE\n1,2,LIKES\n2,1,LIKES\n")}, 10)
	if err := svc.DrainStream(context.Background(), csv, nil); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Edges != 3 {
		t.Fatalf("service has %d edges, want 3 — a CSV edge ID collided with an ingested one", st.Edges)
	}
}

// TestServiceRetractDropsResolverEntries pins that retraction removes
// the batch's endpoint bookkeeping: without it a churn workload grows
// the resolver (and every checkpoint) without bound, and later edges
// resolve retracted nodes' stale labels. (The accumulated counters
// and shape caches legitimately keep history across churn; only the
// resolver must shrink back.)
func TestServiceRetractDropsResolverEntries(t *testing.T) {
	resolverOf := func(svc *pghive.Service) []pghive.Node {
		var buf bytes.Buffer
		if err := svc.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		_, extras, err := pghive.ResumeFromCheckpoint(pghive.Options{Seed: 1}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if extras.Resolver == nil {
			return nil
		}
		return extras.Resolver.Nodes()
	}

	svc := pghive.NewService(pghive.Options{Seed: 1})
	base := writerGraph(0, 0)
	svc.Ingest(base)
	before := resolverOf(svc)
	if len(before) != base.NumNodes() {
		t.Fatalf("base resolver has %d entries, want %d", len(before), base.NumNodes())
	}
	for i := 1; i < 10; i++ {
		g := writerGraph(1, i)
		svc.Ingest(g)
		svc.Retract(g)
	}
	after := resolverOf(svc)
	if len(after) != len(before) {
		t.Fatalf("resolver grew from %d to %d entries under ingest/retract churn", len(before), len(after))
	}
	for _, rn := range after {
		for _, l := range rn.Labels {
			if l == "Stress1" {
				t.Fatalf("retracted node %d still tracked in the resolver", rn.ID)
			}
		}
	}
}

// TestServiceRetractRestoresBaseline pins the end state of the stress
// pattern deterministically: ingesting and then retracting the same
// batches leaves the published schema bit-identical to the base-only
// state, and the final checkpoint's assignments agree with the final
// schema type by type.
func TestServiceRetractRestoresBaseline(t *testing.T) {
	d := datagen.Generate(datagen.POLE(), 0.5, 1)
	svc := pghive.NewService(pghive.Options{Seed: 1})
	svc.Ingest(d.Graph)
	baseFP := svc.PGSchema(pghive.Strict, "G") + svc.PGSchema(pghive.Loose, "G") + svc.XSD() + svc.DOT("G")
	baseStats := svc.Stats()

	for w := 0; w < 3; w++ {
		for i := 0; i < 4; i++ {
			g := writerGraph(w, i)
			svc.Ingest(g)
			svc.Retract(g)
		}
	}

	gotFP := svc.PGSchema(pghive.Strict, "G") + svc.PGSchema(pghive.Loose, "G") + svc.XSD() + svc.DOT("G")
	if gotFP != baseFP {
		t.Error("ingest+retract cycles changed the published schema")
	}
	st := svc.Stats()
	if st.Nodes != baseStats.Nodes || st.Edges != baseStats.Edges {
		t.Errorf("element counts after retraction: %d/%d, want %d/%d",
			st.Nodes, st.Edges, baseStats.Nodes, baseStats.Edges)
	}

	// Checkpoint ↔ schema agreement: restoring the final state and
	// re-publishing must reproduce the same schema.
	var buf bytes.Buffer
	if err := svc.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := pghive.RestoreService(pghive.Options{Seed: 1}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	restoredFP := restored.PGSchema(pghive.Strict, "G") + restored.PGSchema(pghive.Loose, "G") + restored.XSD() + restored.DOT("G")
	if restoredFP != baseFP {
		t.Error("checkpoint round trip changed the published schema")
	}
}

// parkedStream yields its batches in order and parks between the first
// and the second — inside the second Next — until released: a stream
// caught between two of its batches, for as long as the test likes.
type parkedStream struct {
	batches []*pghive.Graph
	parked  chan struct{}
	release chan struct{}
	n       int
}

func newParkedStream(batches ...*pghive.Graph) *parkedStream {
	return &parkedStream{batches: batches, parked: make(chan struct{}), release: make(chan struct{})}
}

func (s *parkedStream) Next() (*pghive.Batch, error) {
	if s.n == 1 {
		close(s.parked)
		<-s.release
	}
	if s.n == len(s.batches) {
		return nil, io.EOF
	}
	s.n++
	return &pghive.Batch{Graph: s.batches[s.n-1], Index: s.n}, nil
}

// TestDrainStreamInterleavesWithWriters: a stream holds the write lock
// per batch, not per stream — a writer with a short deadline gets in
// while a drain sits between two batches, and the drain then finishes
// on top of it.
func TestDrainStreamInterleavesWithWriters(t *testing.T) {
	svc := pghive.NewService(pghive.Options{Seed: 3, Parallelism: 1})
	ps := newParkedStream(stressGraph(t, 0, 5), stressGraph(t, 1000, 5))
	drainDone := make(chan error, 1)
	go func() { drainDone <- svc.DrainStream(context.Background(), ps, nil) }()
	<-ps.parked

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := svc.IngestContext(ctx, stressGraph(t, 2000, 5)); err != nil {
		t.Fatalf("ingest while a stream is parked between batches: %v", err)
	}
	close(ps.release)
	if err := <-drainDone; err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Batches != 3 || st.Nodes != 15 {
		t.Fatalf("after stream + interleaved ingest: %d batches, %d nodes; want 3, 15", st.Batches, st.Nodes)
	}
}

// TestDrainStreamStopsAtEndedContext: ctx bounds the stream as a whole,
// not just a contended lock wait — a context that ends between two
// batches stops the drain at the next one, with the applied prefix left
// published.
func TestDrainStreamStopsAtEndedContext(t *testing.T) {
	svc := pghive.NewService(pghive.Options{Seed: 3, Parallelism: 1})
	ps := newParkedStream(stressGraph(t, 0, 5), stressGraph(t, 1000, 5))
	ctx, cancel := context.WithCancel(context.Background())
	drainDone := make(chan error, 1)
	go func() { drainDone <- svc.DrainStream(ctx, ps, nil) }()
	<-ps.parked
	cancel()
	close(ps.release)
	if err := <-drainDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("drain past a cancelled context returned %v, want context.Canceled", err)
	}
	if got := svc.Stats().Batches; got != 1 {
		t.Fatalf("%d batches applied, want the 1 that preceded the cancel", got)
	}
}
