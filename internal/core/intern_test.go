package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/pghive/pghive/internal/datagen"
	"github.com/pghive/pghive/internal/lsh"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/serialize"
)

// internBatch builds a batch of n nodes and n edges drawn from a
// fixed, small set of shapes; vals offsets the property values so
// batches differ in content but not in shape.
func internBatch(n int, vals int64, index int, resolver *pg.Graph) *pg.Batch {
	g := pg.NewGraph()
	g.AllowDanglingEdges(true)
	var ids []pg.ID
	for i := 0; i < n; i++ {
		props := map[string]pg.Value{"v": pg.Int(vals + int64(i))}
		if i%2 == 0 {
			props["extra"] = pg.Str("x")
		}
		ids = append(ids, g.AddNode([]string{"T"}, props))
	}
	for i := 0; i+1 < n; i++ {
		_, _ = g.AddEdge([]string{"E"}, ids[i], ids[i+1], nil)
	}
	return &pg.Batch{Graph: g, Resolver: resolver, Index: index}
}

// TestIncrementalShapeCacheReuse: a second batch whose elements all
// have already-seen shapes registers no new cache entries, while its
// BatchTiming still reports the per-batch distinct counts.
func TestIncrementalShapeCacheReuse(t *testing.T) {
	for _, method := range []Method{ELSH, MinHash} {
		inc := NewIncremental(Options{Seed: 1, Method: method, Parallelism: 1})
		bt1 := inc.ProcessBatch(internBatch(40, 0, 1, nil))
		nodeSize, edgeSize := inc.nodeShapes.Size(), inc.edgeShapes.Size()
		if nodeSize == 0 || bt1.NodeShapes != nodeSize {
			t.Fatalf("%v: batch 1 node shapes = %d, cache = %d", method, bt1.NodeShapes, nodeSize)
		}
		if bt1.Nodes != 40 || bt1.NodeShapes != 2 {
			t.Fatalf("%v: batch 1 stats = %d nodes / %d shapes, want 40/2", method, bt1.Nodes, bt1.NodeShapes)
		}

		bt2 := inc.ProcessBatch(internBatch(25, 1000, 2, internBatch(40, 0, 1, nil).Graph))
		if inc.nodeShapes.Size() != nodeSize {
			t.Errorf("%v: batch 2 grew the node shape cache: %d -> %d", method, nodeSize, inc.nodeShapes.Size())
		}
		if inc.edgeShapes.Size() != edgeSize {
			t.Errorf("%v: batch 2 grew the edge shape cache: %d -> %d", method, edgeSize, inc.edgeShapes.Size())
		}
		if bt2.NodeShapes != 2 {
			t.Errorf("%v: batch 2 reports %d node shapes, want 2", method, bt2.NodeShapes)
		}

		// A third batch with one genuinely new shape grows the cache
		// by exactly one.
		g := pg.NewGraph()
		g.AddNode([]string{"NewType"}, nil)
		inc.ProcessBatch(&pg.Batch{Graph: g, Index: 3})
		if inc.nodeShapes.Size() != nodeSize+1 {
			t.Errorf("%v: new shape not registered once: %d -> %d", method, nodeSize, inc.nodeShapes.Size())
		}
		inc.Finalize()
	}
}

// The tests below hold the pipeline to the per-element reference of
// core_ref_test.go: for a fixed seed both must produce the same schema
// (with constraints, data types and cardinalities), the same raw
// cluster counts and adaptive choices, and the same type for every
// single element — for both clustering methods, every Parallelism
// value, and across batches. Run with -race to also verify the worker
// sharding.

// fullSnapshot renders everything a run produces: the serialized
// schema, the counters, and every per-element assignment (ID → type),
// so a comparison catches even one element moving between two types
// of the same name.
func fullSnapshot(res *Result) string {
	lines := make([]string, 0, len(res.NodeAssign)+len(res.EdgeAssign))
	for id, ty := range res.NodeAssign {
		lines = append(lines, fmt.Sprintf("n%d=%d/%s", id, ty.ID, ty.Name()))
	}
	for id, ty := range res.EdgeAssign {
		lines = append(lines, fmt.Sprintf("e%d=%d/%s", id, ty.ID, ty.Name()))
	}
	sort.Strings(lines)
	return fmt.Sprintf("%s\n%s\nclusters=%d/%d types=%d/%d choice=%+v/%+v\n%s",
		serialize.PGSchema(res.Schema, serialize.Strict, "G"),
		serialize.XSD(res.Schema),
		res.NodeClusters, res.EdgeClusters,
		len(res.Schema.NodeTypes), len(res.Schema.EdgeTypes),
		res.NodeChoice, res.EdgeChoice,
		strings.Join(lines, "\n"))
}

// matchesReference runs batches through the per-element reference
// (sequentially) and through the pipeline once per worker count, and
// fails on any difference. It returns the pipeline's last run.
func matchesReference(t *testing.T, name string, opts Options, batches func() []*pg.Batch) *Incremental {
	t.Helper()
	opts.Parallelism = 1
	ref := NewIncremental(opts)
	for _, b := range batches() {
		refProcessBatch(ref, b)
	}
	want := fullSnapshot(ref.Finalize())

	var inc *Incremental
	workers := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		workers = append(workers, n)
	}
	for _, p := range workers {
		opts.Parallelism = p
		inc = NewIncremental(opts)
		for _, b := range batches() {
			inc.ProcessBatch(b)
		}
		if got := fullSnapshot(inc.Finalize()); got != want {
			t.Errorf("%s/parallelism=%d: pipeline diverged from the per-element reference", name, p)
		}
	}
	return inc
}

// oneBatch presents a whole graph the way Discover does.
func oneBatch(g *pg.Graph) func() []*pg.Batch {
	return func() []*pg.Batch { return []*pg.Batch{{Graph: g, Resolver: g, Index: 1}} }
}

func noisyDataset(name string, noise, labels float64) *pg.Graph {
	return datagen.InjectNoise(datagen.Generate(datagen.ByName(name), 0.25, 1), noise, labels, 7).Graph
}

// TestInterningEquivalence: one-shot discovery over noisy datasets,
// adaptive parameters.
func TestInterningEquivalence(t *testing.T) {
	for _, ds := range []string{"POLE", "LDBC", "ICIJ"} {
		g := noisyDataset(ds, 0.2, 0.7)
		for _, method := range []Method{ELSH, MinHash} {
			inc := matchesReference(t, ds+"/"+method.String(), Options{Seed: 1, Method: method}, oneBatch(g))
			if n := inc.result.NodeShapes; n == 0 || n > g.NumNodes() {
				t.Errorf("%s/%v: implausible distinct node shape count %d", ds, method, n)
			}
		}
	}
}

// TestInterningEquivalencePinnedParams repeats the check with pinned
// LSH parameters (the adaptive estimation bypassed).
func TestInterningEquivalencePinnedParams(t *testing.T) {
	g := noisyDataset("POLE", 0.2, 0.7)
	params := &lsh.Params{Tables: 12, BucketLength: 4}
	for _, method := range []Method{ELSH, MinHash} {
		matchesReference(t, method.String(), Options{Seed: 1, Method: method, NodeParams: params, EdgeParams: params}, oneBatch(g))
	}
}

// TestInterningEquivalenceIncremental: a 6-batch random split, where
// edges routinely arrive before or after their endpoints and batch n
// reuses shapes cached by earlier batches.
func TestInterningEquivalenceIncremental(t *testing.T) {
	g := noisyDataset("LDBC", 0.2, 0.7)
	split := func() []*pg.Batch { return pg.SplitBatches(g, 6, rand.New(rand.NewSource(21))) }
	for _, method := range []Method{ELSH, MinHash} {
		matchesReference(t, method.String(), Options{Seed: 1, Method: method}, split)
	}
}

// TestInterningEquivalenceResolverOnlyEndpoints: a batch of edges whose
// endpoint nodes only the resolver knows — they were never processed,
// so no discovered node type can stand in for their labels, and the
// batch-local endpoint tokens (all empty) differ from the resolved
// ones.
func TestInterningEquivalenceResolverOnlyEndpoints(t *testing.T) {
	g := socialGraph(100, 0.8, 0.1, 23)
	edgesOnly := pg.NewGraph()
	edgesOnly.AllowDanglingEdges(true)
	for i := range g.Edges() {
		e := &g.Edges()[i]
		if err := edgesOnly.PutEdge(e.ID, e.Labels, e.Src, e.Dst, e.Props); err != nil {
			t.Fatal(err)
		}
	}
	batches := func() []*pg.Batch { return []*pg.Batch{{Graph: edgesOnly, Resolver: g, Index: 1}} }
	for _, method := range []Method{ELSH, MinHash} {
		inc := matchesReference(t, method.String(), Options{Seed: 1, Method: method}, batches)
		if works := inc.sch.EdgeTypeByToken("WORKS_AT"); works == nil || !works.SrcTokens["Person"] || !works.DstTokens["Org"] {
			t.Errorf("%v: WORKS_AT endpoints not resolved through the resolver", method)
		}
	}
}

// TestInterningEquivalenceHashedEmbedding covers the EmbedHashed
// embedding mode on heavily label-dropped data, where many elements
// share the unlabeled shapes.
func TestInterningEquivalenceHashedEmbedding(t *testing.T) {
	matchesReference(t, "MB6", Options{Seed: 1, Embedding: EmbedHashed}, oneBatch(noisyDataset("MB6", 0.3, 0.5)))
}

// TestInterningEquivalenceAllDistinctShapes is the worst case for
// interning: every element carries a property key of its own, so no
// two share a shape and the shape index is pure overhead — one
// representative per element.
func TestInterningEquivalenceAllDistinctShapes(t *testing.T) {
	g := pg.NewGraph()
	labels := [][]string{{"Person"}, {"Post"}, {"Org", "Company"}, nil}
	var ids []pg.ID
	for i := 0; i < 120; i++ {
		ids = append(ids, g.AddNode(labels[i%len(labels)], map[string]pg.Value{
			"name": pg.Str("x"), fmt.Sprintf("n%d", i): pg.Int(int64(i)),
		}))
	}
	rels := [][]string{{"KNOWS"}, {"LIKES"}, nil}
	for i := 0; i < 150; i++ {
		if _, err := g.AddEdge(rels[i%len(rels)], ids[i%len(ids)], ids[(i*7+1)%len(ids)],
			map[string]pg.Value{fmt.Sprintf("e%d", i): pg.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, method := range []Method{ELSH, MinHash} {
		inc := matchesReference(t, method.String(), Options{Seed: 1, Method: method}, oneBatch(g))
		if inc.result.NodeShapes != g.NumNodes() || inc.result.EdgeShapes != g.NumEdges() {
			t.Errorf("%v: %d/%d shapes for %d/%d elements; every element must be its own shape",
				method, inc.result.NodeShapes, inc.result.EdgeShapes, g.NumNodes(), g.NumEdges())
		}
	}
}

// TestInterningEquivalenceCachedShapesOnly: a second batch made only
// of shapes the first one cached (new IDs and property values, edges
// pointing into both batches) registers nothing new, and every one of
// its elements still lands where the reference puts it.
func TestInterningEquivalenceCachedShapesOnly(t *testing.T) {
	all := pg.NewGraph()
	build := func(first pg.ID, n int) *pg.Graph {
		g := pg.NewGraph()
		g.AllowDanglingEdges(true)
		labels := [][]string{{"Person"}, {"Post"}, nil}
		for i := 0; i < n; i++ {
			id := first + pg.ID(i)
			props := map[string]pg.Value{"v": pg.Int(int64(id))}
			if i%2 == 0 {
				props["extra"] = pg.Str("x")
			}
			for _, in := range []*pg.Graph{g, all} {
				if err := in.PutNode(id, labels[i%len(labels)], props); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < n; i++ {
			// i → i+3 keeps the (source label, target label) pairs the
			// same in every batch; in the second batch every other
			// edge targets the first batch's node of that label.
			src, dst := first+pg.ID(i), first+pg.ID((i+3)%n)
			if first > 0 && i%2 == 1 {
				dst -= first
			}
			if err := g.PutEdge(first+pg.ID(i), []string{"R"}, src, dst, map[string]pg.Value{"w": pg.Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	g1, g2 := build(0, 60), build(1000, 60)
	batches := func() []*pg.Batch {
		return []*pg.Batch{{Graph: g1, Resolver: g1, Index: 1}, {Graph: g2, Resolver: all, Index: 2}}
	}
	for _, method := range []Method{ELSH, MinHash} {
		inc := matchesReference(t, method.String(), Options{Seed: 1, Method: method}, batches)
		first := NewIncremental(Options{Seed: 1, Method: method})
		first.ProcessBatch(batches()[0])
		if n, e := first.nodeShapes.Size(), first.edgeShapes.Size(); inc.nodeShapes.Size() != n || inc.edgeShapes.Size() != e {
			t.Errorf("%v: batch 2 grew the shape caches %d/%d -> %d/%d; it must consist of cached shapes only",
				method, n, e, inc.nodeShapes.Size(), inc.edgeShapes.Size())
		}
	}
}
