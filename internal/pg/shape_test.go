package pg

import (
	"math"
	"reflect"
	"testing"
)

func mustEdge(t *testing.T, g *Graph, labels []string, src, dst ID, props map[string]Value) ID {
	t.Helper()
	id, err := g.AddEdge(labels, src, dst, props)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestIndexNodesGroupsByShape: same label set + property-key set is
// one shape regardless of property values; differing keys, labels, or
// label multiplicity split shapes.
func TestIndexNodesGroupsByShape(t *testing.T) {
	g := NewGraph()
	g.AddNode([]string{"Person"}, map[string]Value{"name": Str("a"), "age": Int(1)})
	g.AddNode([]string{"Person"}, map[string]Value{"name": Str("b"), "age": Int(2)}) // dup of 0
	g.AddNode([]string{"Person"}, map[string]Value{"name": Str("c")})                // fewer keys
	g.AddNode([]string{"Post"}, map[string]Value{"name": Str("d"), "age": Int(3)})   // other label
	g.AddNode([]string{"Person"}, map[string]Value{"age": Int(4), "name": Str("e")}) // dup of 0

	c := NewShapeCache()
	si := c.IndexNodes(g.Nodes())
	if si.NumShapes() != 3 {
		t.Fatalf("NumShapes = %d, want 3", si.NumShapes())
	}
	wantRows := []int32{0, 0, 1, 2, 0}
	for i, w := range wantRows {
		if si.Rows[i] != w {
			t.Errorf("Rows[%d] = %d, want %d", i, si.Rows[i], w)
		}
	}
	if si.Reps[0] != 0 || si.Reps[1] != 2 || si.Reps[2] != 3 {
		t.Errorf("Reps = %v, want [0 2 3]", si.Reps)
	}
	if si.Counts[0] != 3 || si.Counts[1] != 1 || si.Counts[2] != 1 {
		t.Errorf("Counts = %v, want [3 1 1]", si.Counts)
	}
	if si.Shapes[0].Token != "Person" || si.Shapes[2].Token != "Post" {
		t.Errorf("tokens = %q/%q", si.Shapes[0].Token, si.Shapes[2].Token)
	}
}

// TestShapeKeyInjective: the length-prefixed fingerprint cannot
// confuse a multi-label set with a single label containing the token
// separator, nor labels with property keys.
func TestShapeKeyInjective(t *testing.T) {
	g := NewGraph()
	g.AddNode([]string{"A&B"}, nil)                         // one label that *renders* like two
	g.AddNode([]string{"A", "B"}, nil)                      // two labels, same LabelToken
	g.AddNode([]string{"A"}, map[string]Value{"B": Int(1)}) // label A, key B
	g.AddNode(nil, map[string]Value{"A": Int(1), "B": Int(2)})

	c := NewShapeCache()
	si := c.IndexNodes(g.Nodes())
	if si.NumShapes() != 4 {
		t.Fatalf("NumShapes = %d, want 4 (fingerprint collided)", si.NumShapes())
	}
	if si.Shapes[0].Token != si.Shapes[1].Token {
		t.Errorf("tokens should coincide: %q vs %q", si.Shapes[0].Token, si.Shapes[1].Token)
	}
}

// TestIndexEdgesShapeIncludesEndpoints: edges split by resolved
// endpoint tokens even when labels and keys agree.
func TestIndexEdgesShapeIncludesEndpoints(t *testing.T) {
	g := NewGraph()
	a := g.AddNode([]string{"A"}, nil)
	b := g.AddNode([]string{"B"}, nil)
	mustEdge(t, g, []string{"R"}, a, b, nil)
	mustEdge(t, g, []string{"R"}, b, a, nil) // reversed endpoints
	mustEdge(t, g, []string{"R"}, a, b, map[string]Value{"w": Int(1)})
	mustEdge(t, g, []string{"R"}, a, b, map[string]Value{"w": Int(2)}) // dup of 2

	c := NewShapeCache()
	si := c.IndexEdges(g.Edges(), []string{"A", "B", "A", "A"}, []string{"B", "A", "B", "B"})
	if si.NumShapes() != 3 {
		t.Fatalf("NumShapes = %d, want 3", si.NumShapes())
	}
	if si.Rows[2] != si.Rows[3] {
		t.Errorf("rows 2 and 3 should share a shape")
	}

	// The dictionary-coded form files every edge under the very same
	// cache entries: the fingerprint reads the token, not the code.
	ec := NewEndpointCodes(g.NumEdges())
	for i, e := range g.Edges() {
		ec.Src[i], ec.Dst[i] = ec.Intern(g.Node(e.Src).LabelToken()), ec.Intern(g.Node(e.Dst).LabelToken())
	}
	coded := c.IndexEdgesCoded(g.Edges(), ec)
	if c.Size() != 3 || !reflect.DeepEqual(coded, si) {
		t.Errorf("IndexEdgesCoded = %+v over %d cached shapes, want IndexEdges' %+v over 3", coded, c.Size(), si)
	}
	if want := []string{"", "A", "B"}; !reflect.DeepEqual(ec.Table, want) {
		t.Errorf("dictionary = %q, want %q", ec.Table, want)
	}
}

// TestShapeCacheAcrossBatches: a second batch with already-seen shapes
// registers nothing new, and per-batch ordinals restart from zero.
func TestShapeCacheAcrossBatches(t *testing.T) {
	mk := func(vals ...int64) *Graph {
		g := NewGraph()
		for _, v := range vals {
			g.AddNode([]string{"X"}, map[string]Value{"v": Int(v)})
			g.AddNode([]string{"Y"}, nil)
		}
		return g
	}
	c := NewShapeCache()
	si1 := c.IndexNodes(mk(1, 2).Nodes())
	if c.Size() != 2 || si1.NumShapes() != 2 {
		t.Fatalf("batch 1: size=%d shapes=%d, want 2/2", c.Size(), si1.NumShapes())
	}
	si2 := c.IndexNodes(mk(3).Nodes())
	if c.Size() != 2 {
		t.Fatalf("batch 2 re-registered shapes: size=%d, want 2", c.Size())
	}
	if si2.NumShapes() != 2 || si2.Rows[0] != 0 || si2.Rows[1] != 1 {
		t.Fatalf("batch 2 ordinals = %v", si2.Rows)
	}
	// Cached entries are the same objects across batches.
	if si1.Shapes[0] != si2.Shapes[0] || si1.Shapes[1] != si2.Shapes[1] {
		t.Error("batch 2 did not reuse batch 1's cache entries")
	}
	// A genuinely new shape still registers.
	g3 := NewGraph()
	g3.AddNode([]string{"Z"}, nil)
	c.IndexNodes(g3.Nodes())
	if c.Size() != 3 {
		t.Fatalf("new shape not registered: size=%d, want 3", c.Size())
	}
}

// TestShapeCacheEpochPast32Bits: the indexing-pass epoch advances once
// per IndexNodes/IndexEdges call, i.e. once per write in a serving
// process. A 32-bit epoch wrapped to 0 at 2^32 — the epoch every fresh
// Shape is born with — so new shapes skipped registration (panic on
// the empty Counts) and stale cached ones kept a wrong ordinal.
func TestShapeCacheEpochPast32Bits(t *testing.T) {
	g := NewGraph()
	g.AddNode([]string{"X"}, map[string]Value{"v": Int(1)})
	g.AddNode([]string{"Y"}, nil)
	g.AddNode([]string{"X"}, map[string]Value{"v": Int(2)})

	c := NewShapeCache()
	c.epoch = math.MaxUint32
	si := c.IndexNodes(g.Nodes())
	if si.NumShapes() != 2 || c.Size() != 2 {
		t.Fatalf("shapes = %d, cache = %d, want 2/2", si.NumShapes(), c.Size())
	}
	if si.Rows[0] != 0 || si.Rows[1] != 1 || si.Rows[2] != 0 {
		t.Fatalf("Rows = %v, want [0 1 0]", si.Rows)
	}
	if si.Counts[0] != 2 || si.Counts[1] != 1 {
		t.Fatalf("Counts = %v, want [2 1]", si.Counts)
	}
}

// TestShapeCacheTrackCreated: a tracked cache reports, per pass, the
// fingerprints it registered for the first time — each resolvable
// through Entry — and nothing for shapes it had seen.
func TestShapeCacheTrackCreated(t *testing.T) {
	g := NewGraph()
	g.AddNode([]string{"A"}, nil)
	g.AddNode([]string{"B"}, map[string]Value{"k": Int(1)})
	g.AddNode([]string{"A"}, nil)

	untracked := NewShapeCache()
	if si := untracked.IndexNodes(g.Nodes()); si.Created != nil {
		t.Fatalf("untracked cache reported %q", si.Created)
	}

	c := NewShapeCache()
	c.TrackCreated()
	first := c.IndexNodes(g.Nodes())
	if len(first.Created) != 2 {
		t.Fatalf("first pass created %q, want 2 fingerprints", first.Created)
	}
	for _, key := range first.Created {
		e, ok := c.Entry(key)
		if !ok || string(e.Key) != key {
			t.Fatalf("Entry(%q) = %+v, %v", key, e, ok)
		}
	}
	if _, ok := c.Entry("never registered"); ok {
		t.Fatal("Entry found a fingerprint nobody registered")
	}
	if again := c.IndexNodes(g.Nodes()); again.Created != nil {
		t.Fatalf("second pass over the same shapes created %q", again.Created)
	}
}
