package pg

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func buildExampleGraph(t *testing.T) (*Graph, map[string]ID) {
	t.Helper()
	g := NewGraph()
	ids := map[string]ID{}
	ids["bob"] = g.AddNode([]string{"Person"}, map[string]Value{
		"name": Str("Bob"), "gender": Str("male"), "bday": Str("2/5/1980"),
	})
	ids["alice"] = g.AddNode(nil, map[string]Value{
		"name": Str("Alice"), "gender": Str("female"), "bday": Str("19/12/1999"),
	})
	ids["john"] = g.AddNode([]string{"Person"}, map[string]Value{
		"name": Str("John"), "gender": Str("male"), "bday": Str("24/9/2005"),
	})
	ids["post1"] = g.AddNode([]string{"Post"}, map[string]Value{"imgFile": Str("screenshot.png")})
	ids["post2"] = g.AddNode([]string{"Post"}, map[string]Value{"content": Str("bazinga!")})
	ids["org"] = g.AddNode([]string{"Org."}, map[string]Value{"url": Str("example.com"), "name": Str("Example")})
	ids["place"] = g.AddNode([]string{"Place"}, map[string]Value{"name": Str("Greece")})

	mustEdge := func(labels []string, src, dst ID, props map[string]Value) {
		if _, err := g.AddEdge(labels, src, dst, props); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	mustEdge([]string{"KNOWS"}, ids["alice"], ids["john"], map[string]Value{"since": Int(2025)})
	mustEdge([]string{"KNOWS"}, ids["bob"], ids["alice"], nil)
	mustEdge([]string{"LIKES"}, ids["john"], ids["post2"], nil)
	mustEdge([]string{"LIKES"}, ids["alice"], ids["post1"], nil)
	mustEdge([]string{"WORKS_AT"}, ids["bob"], ids["org"], map[string]Value{"from": Int(2000)})
	mustEdge([]string{"LOCATED_IN"}, ids["org"], ids["place"], nil)
	mustEdge([]string{"LOCATED_IN"}, ids["john"], ids["place"], map[string]Value{"from": Int(2025)})
	return g, ids
}

func TestGraphBasics(t *testing.T) {
	g, ids := buildExampleGraph(t)
	if g.NumNodes() != 7 {
		t.Fatalf("NumNodes = %d, want 7", g.NumNodes())
	}
	if g.NumEdges() != 7 {
		t.Fatalf("NumEdges = %d, want 7", g.NumEdges())
	}
	bob := g.Node(ids["bob"])
	if bob == nil || bob.LabelToken() != "Person" {
		t.Fatalf("bob lookup failed: %+v", bob)
	}
	if row, ok := g.NodeIndex(ids["bob"]); !ok || &g.Nodes()[row] != bob {
		t.Fatalf("NodeIndex(bob) = %d, %v; want bob's row in Nodes()", row, ok)
	}
	if g.Node(999) != nil {
		t.Fatal("lookup of absent node must return nil")
	}
	if _, ok := g.NodeIndex(999); ok {
		t.Fatal("NodeIndex of an absent node must report !ok")
	}
	if g.Edge(999) != nil {
		t.Fatal("lookup of absent edge must return nil")
	}
}

func TestAddEdgeValidatesEndpoints(t *testing.T) {
	g := NewGraph()
	n := g.AddNode([]string{"A"}, nil)
	if _, err := g.AddEdge([]string{"R"}, n, 42, nil); err == nil {
		t.Fatal("expected error for missing target")
	}
	if _, err := g.AddEdge([]string{"R"}, 42, n, nil); err == nil {
		t.Fatal("expected error for missing source")
	}
	g.AllowDanglingEdges(true)
	if _, err := g.AddEdge([]string{"R"}, 42, 43, nil); err != nil {
		t.Fatalf("dangling edges should be allowed after opt-in: %v", err)
	}
}

func TestPutDuplicateIDs(t *testing.T) {
	g := NewGraph()
	if err := g.PutNode(1, []string{"A"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.PutNode(1, []string{"B"}, nil); err == nil {
		t.Fatal("duplicate node id must error")
	}
	if err := g.PutNode(5, nil, nil); err != nil {
		t.Fatal(err)
	}
	// AddNode must not collide with explicit IDs.
	id := g.AddNode(nil, nil)
	if id <= 5 {
		t.Fatalf("AddNode returned colliding id %d", id)
	}
	if err := g.PutEdge(1, []string{"R"}, 1, 5, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.PutEdge(1, []string{"R"}, 1, 5, nil); err == nil {
		t.Fatal("duplicate edge id must error")
	}
}

func TestLabelToken(t *testing.T) {
	cases := []struct {
		in   []string
		want string
	}{
		{nil, ""},
		{[]string{"Person"}, "Person"},
		{[]string{"Student", "Person"}, "Person&Student"},
		{[]string{"b", "a", "c"}, "a&b&c"},
	}
	for _, c := range cases {
		if got := LabelToken(c.in); got != c.want {
			t.Errorf("LabelToken(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: LabelToken is order-invariant — any permutation of the
// same label set yields the same token (§4.1: labels are sorted for
// uniformity).
func TestLabelTokenOrderInvariance(t *testing.T) {
	f := func(perm []int) bool {
		labels := []string{"Person", "Student", "Athlete", "Employee"}
		shuffled := append([]string(nil), labels...)
		r := rand.New(rand.NewSource(int64(len(perm))))
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return LabelToken(shuffled) == LabelToken(labels)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctSets(t *testing.T) {
	g, _ := buildExampleGraph(t)
	wantNL := []string{"Org.", "Person", "Place", "Post"}
	if got := g.DistinctNodeLabels(); !reflect.DeepEqual(got, wantNL) {
		t.Errorf("DistinctNodeLabels = %v, want %v", got, wantNL)
	}
	wantEL := []string{"KNOWS", "LIKES", "LOCATED_IN", "WORKS_AT"}
	if got := g.DistinctEdgeLabels(); !reflect.DeepEqual(got, wantEL) {
		t.Errorf("DistinctEdgeLabels = %v, want %v", got, wantEL)
	}
	wantNK := []string{"bday", "content", "gender", "imgFile", "name", "url"}
	if got := g.DistinctNodePropertyKeys(); !reflect.DeepEqual(got, wantNK) {
		t.Errorf("DistinctNodePropertyKeys = %v, want %v", got, wantNK)
	}
	wantEK := []string{"from", "since"}
	if got := g.DistinctEdgePropertyKeys(); !reflect.DeepEqual(got, wantEK) {
		t.Errorf("DistinctEdgePropertyKeys = %v, want %v", got, wantEK)
	}
}

// TestStatsMatchesPaperExample checks ComputeStats against the
// worked example of the paper (Fig. 1 / Example 2): 6 node patterns
// and 6 edge patterns.
func TestStatsMatchesPaperExample(t *testing.T) {
	g, _ := buildExampleGraph(t)
	s := ComputeStats(g)
	if s.Nodes != 7 || s.Edges != 7 {
		t.Fatalf("element counts: %+v", s)
	}
	if s.NodePatterns != 6 {
		t.Errorf("NodePatterns = %d, want 6 (Example 2)", s.NodePatterns)
	}
	// Example 2 lists 6 edge patterns by treating the unlabeled Alice
	// node as Person; at the raw-data level her empty label set splits
	// the KNOWS-{since} and LIKES patterns, giving 7 distinct
	// (L, K, R) tuples.
	if s.EdgePatterns != 7 {
		t.Errorf("EdgePatterns = %d, want 7", s.EdgePatterns)
	}
	if s.NodeLabels != 4 || s.EdgeLabels != 4 {
		t.Errorf("label counts: %+v", s)
	}
}

func TestClone(t *testing.T) {
	g, ids := buildExampleGraph(t)
	c := g.Clone()
	// Mutating the clone must not leak into the original.
	cb := c.Node(ids["bob"])
	cb.Props["name"] = Str("Robert")
	cb.Labels[0] = "Human"
	if g.Node(ids["bob"]).Props["name"].AsString() != "Bob" {
		t.Error("clone shares property map with original")
	}
	if g.Node(ids["bob"]).Labels[0] != "Person" {
		t.Error("clone shares label slice with original")
	}
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Error("clone lost elements")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	g, _ := buildExampleGraph(t)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round-trip lost elements: %d/%d nodes, %d/%d edges",
			got.NumNodes(), g.NumNodes(), got.NumEdges(), g.NumEdges())
	}
	for i := range g.Nodes() {
		want := &g.Nodes()[i]
		have := got.Node(want.ID)
		if have == nil {
			t.Fatalf("node %d missing after round-trip", want.ID)
		}
		if !reflect.DeepEqual(have.Labels, want.Labels) {
			t.Errorf("node %d labels %v != %v", want.ID, have.Labels, want.Labels)
		}
		if len(have.Props) != len(want.Props) {
			t.Errorf("node %d props count %d != %d", want.ID, len(have.Props), len(want.Props))
		}
		for k, v := range want.Props {
			if !have.Props[k].Equal(v) {
				t.Errorf("node %d prop %q: %#v != %#v", want.ID, k, have.Props[k], v)
			}
		}
	}
	if !reflect.DeepEqual(ComputeStats(got), ComputeStats(g)) {
		t.Errorf("stats differ after round-trip:\n got %+v\nwant %+v", ComputeStats(got), ComputeStats(g))
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewBufferString("{bad json"), false); err == nil {
		t.Error("malformed JSON must error")
	}
	if _, err := ReadJSONL(bytes.NewBufferString(`{"kind":"widget","id":1}`+"\n"), false); err == nil {
		t.Error("unknown kind must error")
	}
	dangling := `{"kind":"edge","id":1,"labels":["R"],"src":10,"dst":11}` + "\n"
	if _, err := ReadJSONL(bytes.NewBufferString(dangling), false); err == nil {
		t.Error("dangling edge must error without opt-in")
	}
	if _, err := ReadJSONL(bytes.NewBufferString(dangling), true); err != nil {
		t.Errorf("dangling edge should load with opt-in: %v", err)
	}
}

func TestSplitBatchesPartition(t *testing.T) {
	g, _ := buildExampleGraph(t)
	rng := rand.New(rand.NewSource(7))
	batches := SplitBatches(g, 3, rng)
	if len(batches) != 3 {
		t.Fatalf("want 3 batches, got %d", len(batches))
	}
	nodeSeen := map[ID]int{}
	edgeSeen := map[ID]int{}
	for _, b := range batches {
		for i := range b.Graph.Nodes() {
			nodeSeen[b.Graph.Nodes()[i].ID]++
		}
		for i := range b.Graph.Edges() {
			edgeSeen[b.Graph.Edges()[i].ID]++
		}
	}
	if len(nodeSeen) != g.NumNodes() {
		t.Errorf("partition lost nodes: %d != %d", len(nodeSeen), g.NumNodes())
	}
	if len(edgeSeen) != g.NumEdges() {
		t.Errorf("partition lost edges: %d != %d", len(edgeSeen), g.NumEdges())
	}
	for id, n := range nodeSeen {
		if n != 1 {
			t.Errorf("node %d appears in %d batches", id, n)
		}
	}
	for id, n := range edgeSeen {
		if n != 1 {
			t.Errorf("edge %d appears in %d batches", id, n)
		}
	}
}

// Property: for any batch count, SplitBatches is a partition and each
// batch's resolver can resolve the labels of every edge endpoint that
// has been delivered up to and including that batch.
func TestSplitBatchesResolverProperty(t *testing.T) {
	g, _ := buildExampleGraph(t)
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%9) + 1
		batches := SplitBatches(g, n, rand.New(rand.NewSource(seed)))
		total := 0
		for _, b := range batches {
			total += b.Graph.NumNodes()
			// Every node delivered so far must be resolvable.
			for i := range b.Graph.Nodes() {
				id := b.Graph.Nodes()[i].ID
				if b.Resolver.Node(id) == nil {
					return false
				}
			}
		}
		// The final resolver holds the whole node set.
		last := batches[len(batches)-1]
		return total == g.NumNodes() && last.Resolver.NumNodes() == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestEndpointLabelsAcrossBatches: an edge's endpoint labels resolve
// in the batch itself or, failing that, in its resolver — the lookup
// order discovery uses.
func TestEndpointLabelsAcrossBatches(t *testing.T) {
	g, _ := buildExampleGraph(t)
	for seed := int64(0); seed < 5; seed++ {
		batches := SplitBatches(g, 4, rand.New(rand.NewSource(seed)))
		for _, b := range batches {
			for i := range b.Graph.Edges() {
				e := &b.Graph.Edges()[i]
				src, dst := b.Graph.SrcLabels(e), b.Graph.DstLabels(e)
				if src == nil {
					src = b.Resolver.SrcLabels(e)
				}
				if dst == nil {
					dst = b.Resolver.DstLabels(e)
				}
				wantSrc := g.Node(e.Src).Labels
				wantDst := g.Node(e.Dst).Labels
				// An endpoint delivered in a *later* batch is allowed
				// to be unresolvable; one delivered earlier or in this
				// batch must resolve exactly.
				if src != nil && !reflect.DeepEqual(src, wantSrc) {
					t.Fatalf("seed %d: src labels %v, want %v", seed, src, wantSrc)
				}
				if dst != nil && !reflect.DeepEqual(dst, wantDst) {
					t.Fatalf("seed %d: dst labels %v, want %v", seed, dst, wantDst)
				}
			}
		}
	}
}
