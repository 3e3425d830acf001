package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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
	lines := make([]string, 0, res.NodeAssign.Len()+res.EdgeAssign.Len())
	for id := range res.NodeAssign.All() {
		ty := res.NodeTypeOf(id)
		lines = append(lines, fmt.Sprintf("n%d=%d/%s", id, ty.ID, ty.Name()))
	}
	for id := range res.EdgeAssign.All() {
		ty := res.EdgeTypeOf(id)
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

// TestInterningEquivalenceHashedEmbedding covers heavily label-dropped
// data, where many elements share the unlabeled shapes and the hashed
// half of the label embedding carries the tokens word2vec saw rarely.
func TestInterningEquivalenceHashedEmbedding(t *testing.T) {
	g := noisyDataset("MB6", 0.3, 0.5)
	for _, method := range []Method{ELSH, MinHash} {
		matchesReference(t, "MB6/"+method.String(), Options{Seed: 1, Method: method}, oneBatch(g))
	}
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
				if err := in.PutNode(id, labels[i%len(labels)], pg.PropsOf(props)); err != nil {
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
			if err := g.PutEdge(first+pg.ID(i), []string{"R"}, src, dst, pg.PropsOf(map[string]pg.Value{"w": pg.Int(int64(i))})); err != nil {
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

// endpointBatches builds the two batches of the endpoint-resolution
// tests. Batch 1 carries multi-label Post nodes whose labels arrive in
// both orders and with two property-key sets, labeled and unlabeled
// Persons, and Persons it holds without labels that only its resolver
// has labels for; batch 2 carries KNOWS edges into batch 1's
// unlabeled Persons, which by then nothing but their discovered type
// can name. It returns the batches plus one Person of each of the two
// unlabeled kinds.
func endpointBatches(t *testing.T) (batches func() []*pg.Batch, resolverOnly, unlabeled pg.ID) {
	t.Helper()
	put := func(g *pg.Graph, id pg.ID, labels []string, keys ...string) {
		props := map[string]pg.Value{}
		for _, k := range keys {
			props[k] = pg.Str(fmt.Sprintf("%s%d", k, id))
		}
		if err := g.PutNode(id, labels, pg.PropsOf(props)); err != nil {
			t.Fatal(err)
		}
	}
	g1, g2, known := pg.NewGraph(), pg.NewGraph(), pg.NewGraph()
	for _, g := range []*pg.Graph{g1, g2, known} {
		g.AllowDanglingEdges(true)
	}
	const n = 40
	person := func(i int) pg.ID { return pg.ID(i) }
	postID := func(i int) pg.ID { return pg.ID(1000 + i) }
	for i := 0; i < n; i++ {
		// i%4: 0, 1 labeled; 2 labeled in the resolver only; 3 never.
		var local, resolved []string
		switch i % 4 {
		case 0, 1:
			local, resolved = []string{"Person"}, []string{"Person"}
		case 2:
			// A label discovery cannot infer from the batch: only the
			// resolver lookup can produce it.
			resolved = []string{"Moderator"}
		}
		put(g1, person(i), local, "name", "bday")
		put(known, person(i), resolved, "name", "bday")

		labels := []string{"Post", "Message"}
		if i%2 == 1 {
			labels = []string{"Message", "Post"}
		}
		keys := []string{"content"}
		if i%3 == 0 {
			keys = append(keys, "lang")
		}
		put(g1, postID(i), labels, keys...)
		put(known, postID(i), labels, keys...)
	}
	edge := func(g *pg.Graph, id pg.ID, label string, src, dst pg.ID) {
		if err := g.PutEdge(id, []string{label}, src, dst, pg.PropsOf(map[string]pg.Value{"since": pg.Int(int64(id))})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		edge(g1, pg.ID(i), "LIKES", person(i), postID((i*7+1)%n))
		edge(g1, pg.ID(n+i), "KNOWS", person(i), person((i+5)%n))
	}
	for i := 0; i < n; i++ {
		put(g2, pg.ID(2000+i), []string{"Person"}, "name", "bday")
		edge(g2, pg.ID(2*n+i), "KNOWS", pg.ID(2000+i), person(4*(i%(n/4))+3))
	}
	batches = func() []*pg.Batch {
		return []*pg.Batch{{Graph: g1, Resolver: known, Index: 1}, {Graph: g2, Resolver: known, Index: 2}}
	}
	return batches, person(2), person(3)
}

// TestInterningEquivalenceEndpointResolution covers every way an
// endpoint gets its token — the in-batch node's shape (multi-label
// sets given in either order), the resolver when the batch holds the
// node without labels, and the discovered node type when a later
// batch points at a node nothing has labels for — against the
// per-element reference.
func TestInterningEquivalenceEndpointResolution(t *testing.T) {
	hasLabels := func(r pg.Resolver, id pg.ID) bool {
		labels, _ := r.NodeLabels(id)
		return labels != nil
	}
	batches, resolverOnly, unlabeled := endpointBatches(t)
	if n := batches()[0].Graph.Node(resolverOnly); n.Labels != nil || !hasLabels(batches()[0].Resolver, resolverOnly) {
		t.Fatal("setup: batch 1 must hold a node without labels that its resolver has labels for")
	}
	for _, method := range []Method{ELSH, MinHash} {
		inc := matchesReference(t, method.String(), Options{Seed: 1, Method: method}, batches)
		src, dst := map[string]bool{}, map[string]bool{}
		for _, et := range inc.sch.EdgeTypes {
			if et.Labels["LIKES"] > 0 {
				for tok := range et.SrcTokens {
					src[tok] = true
				}
				for tok := range et.DstTokens {
					dst[tok] = true
				}
			}
		}
		if !src["Person"] || !src["Moderator"] || len(dst) != 1 || !dst["Message&Post"] {
			t.Errorf("%v: LIKES endpoints = %v -> %v, want Person and the resolver's Moderator among the sources and exactly Message&Post", method, src, dst)
		}
		// Batch 2's edges into the never-labeled Persons can only name
		// their target by the type batch 1 discovered for it.
		name := inc.result.NodeTypeOf(unlabeled).Name()
		found := false
		for _, et := range inc.sch.EdgeTypes {
			found = found || (et.Labels["KNOWS"] > 0 && et.DstTokens[name])
		}
		if !found {
			t.Errorf("%v: no KNOWS edge type targets %q, the type discovered for the unlabeled endpoint", method, name)
		}
	}
}

// TestEndpointCodesOnePerLabelSet: node shapes that differ only in
// their property keys share a label token and so one dictionary code;
// endpoints the batch has no label for — absent, or held without
// labels — stay at code 0 for the resolver and the discovered types.
func TestEndpointCodesOnePerLabelSet(t *testing.T) {
	batches, _, _ := endpointBatches(t)
	g := batches()[0].Graph
	si := pg.NewShapeCache().IndexNodes(g.Nodes())
	for _, workers := range []int{1, 4} {
		ec := endpointCodes(g, si, workers)
		if want := []string{"", "Person", "Message&Post"}; fmt.Sprint(ec.Table) != fmt.Sprint(want) {
			t.Fatalf("workers=%d: dictionary %q over %d node shapes, want %q", workers, ec.Table, si.NumShapes(), want)
		}
		if si.NumShapes() <= len(ec.Table) {
			t.Fatalf("setup: %d node shapes do not exceed the %d label sets", si.NumShapes(), len(ec.Table))
		}
		for i, e := range g.Edges() {
			src, dst := ec.Tokens(i)
			for _, end := range []struct {
				id  pg.ID
				tok string
			}{{e.Src, src}, {e.Dst, dst}} {
				want := pg.LabelToken(g.Node(end.id).Labels)
				if end.tok != want {
					t.Fatalf("workers=%d: edge %d endpoint %d coded %q, its node says %q", workers, e.ID, end.id, end.tok, want)
				}
			}
		}
	}
}

// TestDiscoverMallocsFollowShapes pins the scaling law of one-shot
// discovery's allocation count: a clean graph five times the size has
// the same shapes, so Discover may allocate more bytes (the per-row
// index slices) but not more objects. Building a token per edge
// endpoint made the count follow the edges.
func TestDiscoverMallocsFollowShapes(t *testing.T) {
	mallocs := func(scale float64) (float64, int) {
		g := datagen.Generate(datagen.LDBC(), scale, 1).Graph
		return testing.AllocsPerRun(3, func() { Discover(g, Options{Seed: 1, Parallelism: 1}) }), g.NumNodes() + g.NumEdges()
	}
	small, smallN := mallocs(1)
	large, largeN := mallocs(5)
	t.Logf("Discover allocations: %.0f for %d elements, %.0f for %d", small, smallN, large, largeN)
	if largeN < 4*smallN {
		t.Fatalf("setup: graphs of %d and %d elements are not 1:5", smallN, largeN)
	}
	if large > 1.5*small {
		t.Fatalf("Discover allocations follow the elements, not the shapes: %.0f -> %.0f for a graph five times the size", small, large)
	}
}

// TestDiscoverBytesPerElement pins what one-shot discovery allocates per
// element on a clean graph (LDBC scale 5, 70 k elements, one worker):
// at most 44.5 B (40.4). A map entry per element for the type
// assignments cost ~34 B of it; the assignments and the degree tallies
// are columns of ~6.5 B per entry, narrow leaves that Build writes
// straight from the batch, where 12-byte entries cost 51.8.
func TestDiscoverBytesPerElement(t *testing.T) {
	g := datagen.Generate(datagen.LDBC(), 5, 1).Graph
	elems := g.NumNodes() + g.NumEdges()
	var ms runtime.MemStats
	samples := make([]uint64, 3)
	for i := range samples {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		Discover(g, Options{Seed: 1, Parallelism: 1})
		runtime.ReadMemStats(&ms)
		samples[i] = ms.TotalAlloc - before
	}
	slices.Sort(samples)
	perElem := float64(samples[1]) / float64(elems)
	t.Logf("Discover allocates %d B for %d elements: %.1f B per element", samples[1], elems, perElem)
	if perElem > 44.5 {
		t.Fatalf("Discover allocates %.1f B per element, want at most 44.5", perElem)
	}
}
