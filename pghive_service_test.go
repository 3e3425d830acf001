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
	"runtime"
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
		_ = g.PutNode(id, []string{label}, pghive.PropsOf(map[string]pghive.Value{
			fmt.Sprintf("w%d_key", w): pghive.Int(int64(j)),
			fmt.Sprintf("w%d_tag", w): pghive.Str(fmt.Sprintf("v%d", j%3)),
		}))
	}
	for j := 0; j < n; j++ {
		src := base + pghive.ID(i*n+j)
		dst := base + pghive.ID(i*n+(j+1)%n)
		_ = g.PutEdge(pghive.ID(base)+pghive.ID(i*n+j), []string{label + "_REL"}, src, dst, nil)
	}
	return g
}

// checkSnapshot asserts one published snapshot is internally
// consistent. It returns the snapshot's LSN so readers can assert
// publication order is monotone.
func checkSnapshot(t *testing.T, snap *pghive.ServiceSnapshot) uint64 {
	t.Helper()
	s, st := snap.Schema, snap.Stats
	if st.NodeTypes != len(s.NodeTypes) || st.EdgeTypes != len(s.EdgeTypes) {
		t.Errorf("LSN %d: stats report %d/%d types, schema has %d/%d",
			st.LSN, st.NodeTypes, st.EdgeTypes, len(s.NodeTypes), len(s.EdgeTypes))
	}
	// Assignments must match the published schema: the per-type
	// instance tallies of the snapshot sum exactly to the number of
	// assigned elements reported by the same snapshot. A schema
	// published mid-merge, or stats taken out of sync with the schema
	// copy, breaks this equality.
	nodeSum, edgeSum := 0, 0
	for _, nt := range s.NodeTypes {
		if nt.Instances <= 0 {
			t.Errorf("LSN %d: node type %s exposed with %d instances",
				st.LSN, nt.Name(), nt.Instances)
		}
		nodeSum += nt.Instances
		for l, c := range nt.Labels {
			if c < 0 || c > nt.Instances {
				t.Errorf("LSN %d: type %s label %q count %d outside [0, %d]",
					st.LSN, nt.Name(), l, c, nt.Instances)
			}
		}
		for k, ps := range nt.Props {
			if ps.Count <= 0 || ps.Count > nt.Instances {
				t.Errorf("LSN %d: type %s property %q count %d outside (0, %d]",
					st.LSN, nt.Name(), k, ps.Count, nt.Instances)
			}
		}
	}
	for _, et := range s.EdgeTypes {
		if et.Instances <= 0 {
			t.Errorf("LSN %d: edge type %s exposed with %d instances",
				st.LSN, et.Name(), et.Instances)
		}
		edgeSum += et.Instances
	}
	if nodeSum != st.Nodes || edgeSum != st.Edges {
		t.Errorf("LSN %d: schema instances sum to %d nodes / %d edges, stats report %d / %d",
			st.LSN, nodeSum, edgeSum, st.Nodes, st.Edges)
	}
	return st.LSN
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
	baseFP := schemaFingerprint(svc.Schema())
	if rep := pghive.Validate(base, svc.Schema(), pghive.ValidateLoose); !rep.Valid() {
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
					t.Errorf("snapshot LSN went backwards: %d after %d", seq, lastSeq)
				}
				lastSeq = seq
				// The base dataset is never retracted, so every
				// snapshot — whatever the writers are doing — must
				// still type all of its elements.
				if rep := pghive.Validate(base, snap.Schema, pghive.ValidateLoose); !rep.Valid() {
					t.Errorf("LSN %d: base graph no longer loose-valid: %v",
						seq, rep.Violations[0])
					return
				}
				if pghive.PGSchema(snap.Schema, pghive.Strict, "G") == "" || pghive.XSD(snap.Schema) == "" || pghive.DOT(snap.Schema, "G") == "" {
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
	if got := schemaFingerprint(svc.Schema()); got != baseFP {
		t.Error("final schema after ingest/retract churn differs from the base schema")
	}
}

// linkGraph builds n LINK edges with IDs from first, between nodes of
// a 300-node base, so every batch changes degree tallies the base
// built: counts rise in every leaf, and a retraction takes some to 0.
func linkGraph(first pghive.ID, n int, end func(j int) (src, dst pghive.ID)) *pghive.Graph {
	g := pghive.NewGraph()
	g.AllowDanglingEdges(true)
	for j := 0; j < n; j++ {
		src, dst := end(j)
		_ = g.PutEdge(first+pghive.ID(j), []string{"LINK"}, src, dst, nil)
	}
	return g
}

// TestServiceHeldSnapshotRendersUnchanged: a reader holds one published
// schema while writes ingest and retract edges of the same edge type,
// and other readers render and clone it concurrently. Run with -race.
// The held schema shares its degree tallies with the live one until a
// write copies what it changes, so a write that reached it would show
// as a changed rendering or a race.
func TestServiceHeldSnapshotRendersUnchanged(t *testing.T) {
	const nodes = 300
	base := linkGraph(0, 2*nodes, func(j int) (pghive.ID, pghive.ID) {
		return pghive.ID(j % nodes), pghive.ID((j * 7) % nodes)
	})
	for i := 0; i < nodes; i++ {
		_ = base.PutNode(pghive.ID(i), []string{"P"}, pghive.PropsOf(map[string]pghive.Value{"k": pghive.Int(int64(i))}))
	}
	svc := pghive.NewService(pghive.Options{Seed: 1, Parallelism: 1})
	svc.Ingest(base)
	held := svc.Schema()
	render := func(s *pghive.Schema) string {
		var b strings.Builder
		if err := pghive.WriteSchemaJSON(&b, s); err != nil {
			t.Error(err)
		}
		return b.String()
	}
	want := render(held)

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = render(svc.Schema())
				if render(held) != want || render(held.Clone()) != want {
					t.Error("a held snapshot changed under a write")
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		g := linkGraph(pghive.ID(10_000+100*i), 50, func(j int) (pghive.ID, pghive.ID) {
			return pghive.ID((i*17 + j*5) % nodes), pghive.ID((j * 31) % nodes)
		})
		svc.Ingest(g)
		if i%2 == 1 {
			svc.Retract(g)
		}
	}
	// Both base edges out of the first 50 nodes: their out-degree
	// tallies drop to zero and leave the live tally.
	svc.Retract(linkGraph(0, 50, func(j int) (pghive.ID, pghive.ID) {
		return pghive.ID(j), pghive.ID((j * 7) % nodes)
	}))
	svc.Retract(linkGraph(nodes, 50, func(j int) (pghive.ID, pghive.ID) {
		return pghive.ID(j), pghive.ID(((nodes + j) * 7) % nodes)
	}))
	close(done)
	readers.Wait()
	if got := render(held); got != want {
		t.Fatalf("held snapshot renders differently after the writes:\nbefore %s\nafter  %s", want, got)
	}
	if render(svc.Schema()) == want {
		t.Fatal("setup: the writes left the live schema as it was")
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
		var nodes []pghive.Node
		for id, labels := range extras.Resolver.(*pghive.LabelIndex).All() {
			nodes = append(nodes, pghive.Node{ID: id, Labels: labels})
		}
		return nodes
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
	baseFP := schemaFingerprint(svc.Schema())
	baseStats := svc.Stats()

	for w := 0; w < 3; w++ {
		for i := 0; i < 4; i++ {
			g := writerGraph(w, i)
			svc.Ingest(g)
			svc.Retract(g)
		}
	}

	gotFP := schemaFingerprint(svc.Schema())
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
	restoredFP := schemaFingerprint(restored.Schema())
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
	if _, _, err := svc.IngestIdempotent(ctx, "", stressGraph(t, 2000, 5)); err != nil {
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

// TestServedStoreLiveBytesPerElement pins what a served store keeps
// alive per element: LDBC scale 1 (14 k elements), fed as JSONL
// requests of 2,000 elements, holds the pipeline's state, the
// published snapshot and the endpoint bookkeeping — 21.2 bytes per
// element. The resolver is a label index, ~7 bytes per node; as a
// label-only graph it cost ~123, and the store kept 55.9 bytes per
// element alive. Most of what remains is the assignment columns and
// the degree tallies, ~6.5 bytes an entry each in narrow leaves; with
// every key 8 bytes, an entry took ~12 and the store kept 34.6.
func TestServedStoreLiveBytesPerElement(t *testing.T) {
	var data bytes.Buffer
	if err := pghive.WriteJSONL(&data, datagen.Generate(datagen.LDBC(), 1, 1).Graph); err != nil {
		t.Fatal(err)
	}
	var requests [][]byte
	for lines := bytes.SplitAfter(data.Bytes(), []byte("\n")); len(lines) > 0; {
		n := min(2000, len(lines))
		requests = append(requests, bytes.Join(lines[:n], nil))
		lines = lines[n:]
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	svc := pghive.NewService(pghive.Options{Seed: 1})
	for _, body := range requests {
		if err := svc.DrainStream(context.Background(), pghive.NewJSONLStream(bytes.NewReader(body), 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	after := live()
	st := svc.Stats()
	perElement := float64(int64(after)-int64(before)) / float64(st.Nodes+st.Edges)
	runtime.KeepAlive(svc)
	runtime.KeepAlive(requests)
	t.Logf("%d elements in %d requests: %.1f live bytes per element", st.Nodes+st.Edges, len(requests), perElement)
	if perElement > 23.5 {
		t.Errorf("a served store keeps %.1f bytes per element alive, want ≤ 23.5", perElement)
	}
}
