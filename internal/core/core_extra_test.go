package core

import (
	"math/rand"
	"testing"

	"github.com/pghive/pghive/internal/pg"
)

func TestDisableMergingProducesRawClusters(t *testing.T) {
	g := socialGraph(200, 1.0, 0.3, 21)
	merged := Discover(g, Options{Seed: 21})
	raw := Discover(g, Options{Seed: 21, DisableMerging: true})
	if len(raw.Schema.NodeTypes) < len(merged.Schema.NodeTypes) {
		t.Fatalf("no-merge types (%d) must be >= merged types (%d)",
			len(raw.Schema.NodeTypes), len(merged.Schema.NodeTypes))
	}
	if len(raw.Schema.NodeTypes) != raw.NodeClusters {
		t.Errorf("no-merge node types (%d) must equal raw clusters (%d)",
			len(raw.Schema.NodeTypes), raw.NodeClusters)
	}
	if raw.NodeAssign.Len() != g.NumNodes() {
		t.Error("assignments must still cover every node")
	}
}

// TestEdgeEndpointsResolveToNodeTypes verifies the §4.1 behaviour the
// pipeline implements: an edge whose endpoint node is unlabeled uses
// the endpoint's *discovered node type* in its representation, so
// structurally bare edges between different types remain separable
// even with no labels anywhere (Example 2 lists unlabeled Alice's
// KNOWS edge with a Person source).
func TestEdgeEndpointsResolveToNodeTypes(t *testing.T) {
	// Two node types distinguishable purely by structure, connected
	// by property-less edges of two different (unlabeled) kinds.
	g := pg.NewGraph()
	var as, bs []pg.ID
	for i := 0; i < 60; i++ {
		as = append(as, g.AddNode(nil, map[string]pg.Value{
			"alpha": pg.Int(1), "beta": pg.Int(2)}))
		bs = append(bs, g.AddNode(nil, map[string]pg.Value{
			"gamma": pg.Str("x"), "delta": pg.Str("y"), "eps": pg.Str("z")}))
	}
	rng := rand.New(rand.NewSource(4))
	var aa, ab []pg.ID
	for i := 0; i < 100; i++ {
		id1, _ := g.AddEdge(nil, as[rng.Intn(len(as))], as[rng.Intn(len(as))], nil)
		id2, _ := g.AddEdge(nil, as[rng.Intn(len(as))], bs[rng.Intn(len(bs))], nil)
		aa = append(aa, id1)
		ab = append(ab, id2)
	}
	res := Discover(g, Options{Seed: 9})
	// A→A edges and A→B edges must land in different types.
	tA := res.EdgeTypeOf(aa[0])
	tB := res.EdgeTypeOf(ab[0])
	if tA == tB {
		t.Fatal("edges with different endpoint types collapsed despite type-resolved endpoints")
	}
	pureA, pureB := 0, 0
	for _, id := range aa {
		if res.EdgeTypeOf(id) == tA {
			pureA++
		}
	}
	for _, id := range ab {
		if res.EdgeTypeOf(id) == tB {
			pureB++
		}
	}
	if pureA < 95 || pureB < 95 {
		t.Errorf("edge separation impure: %d/100 A→A, %d/100 A→B", pureA, pureB)
	}
}

func TestMinHashUnlabeledStructure(t *testing.T) {
	// MinHash at 0% labels falls back to raw property-key sets.
	g := socialGraph(200, 0, 0, 22)
	res := Discover(g, Options{Method: MinHash, Seed: 22})
	if len(res.Schema.NodeTypes) == 0 {
		t.Fatal("MinHash must discover abstract types without labels")
	}
	for _, nt := range res.Schema.NodeTypes {
		if !nt.Abstract {
			t.Error("all types must be abstract at 0% labels")
		}
	}
}

func TestIncrementalAcrossBatchEndpoints(t *testing.T) {
	// An edge arriving in a later batch than its endpoints must still
	// resolve endpoint labels through the batch resolver.
	g := socialGraph(100, 1.0, 0, 23)
	inc := NewIncremental(Options{Seed: 23})
	nodesOnly := pg.NewGraph()
	nodesOnly.AllowDanglingEdges(true)
	for i := range g.Nodes() {
		n := &g.Nodes()[i]
		_ = nodesOnly.PutNode(n.ID, n.Labels, n.Props)
	}
	edgesOnly := pg.NewGraph()
	edgesOnly.AllowDanglingEdges(true)
	for i := range g.Edges() {
		e := &g.Edges()[i]
		_ = edgesOnly.PutEdge(e.ID, e.Labels, e.Src, e.Dst, e.Props)
	}
	inc.ProcessBatch(&pg.Batch{Graph: nodesOnly, Resolver: nodesOnly, Index: 1})
	inc.ProcessBatch(&pg.Batch{Graph: edgesOnly, Resolver: nodesOnly, Index: 2})
	res := inc.Finalize()
	works := res.Schema.EdgeTypeByToken("WORKS_AT")
	if works == nil {
		t.Fatal("WORKS_AT missing")
	}
	if !works.SrcTokens["Person"] || !works.DstTokens["Org"] {
		t.Errorf("cross-batch endpoint resolution failed: src=%v dst=%v",
			works.SortedSrcTokens(), works.SortedDstTokens())
	}
}

func TestMethodString(t *testing.T) {
	if ELSH.String() != "PG-HIVE-ELSH" || MinHash.String() != "PG-HIVE-MinHash" {
		t.Error("method names must match the paper's figures")
	}
}

func TestThetaOptionPropagates(t *testing.T) {
	// With θ lowered, unlabeled clusters merge more aggressively:
	// fewer abstract types at partial availability.
	g := socialGraph(300, 0.5, 0.3, 24)
	strict := Discover(g, Options{Seed: 24, Theta: 0.95})
	loose := Discover(g, Options{Seed: 24, Theta: 0.5})
	if len(loose.Schema.NodeTypes) > len(strict.Schema.NodeTypes) {
		t.Errorf("θ=0.5 produced more types (%d) than θ=0.95 (%d)",
			len(loose.Schema.NodeTypes), len(strict.Schema.NodeTypes))
	}
}
