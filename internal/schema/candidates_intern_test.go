package schema

import (
	"encoding/json"
	"math/rand"
	"testing"

	"github.com/pghive/pghive/internal/pg"
)

// candidateFingerprint serializes everything a candidate carries so
// the interned and plain builders can be compared byte-for-byte.
func candidateFingerprint(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBuildNodeCandidatesInternedEquivalence: count-weighted shape
// observation plus per-row value observation reproduces the plain
// per-row builder exactly — instances, label counts, kind tallies,
// int bounds, and distinct-string tracking included.
func TestBuildNodeCandidatesInternedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := pg.NewGraph()
	labels := [][]string{{"A"}, {"A", "B"}, {"C"}, nil}
	for i := 0; i < 300; i++ {
		props := map[string]pg.Value{}
		if i%2 == 0 {
			props["x"] = pg.Int(int64(rng.Intn(50)))
		}
		if i%3 == 0 {
			props["s"] = pg.Str([]string{"a", "b", "c"}[rng.Intn(3)])
		}
		if i%5 == 0 {
			props["free"] = pg.Str(string(rune('a' + rng.Intn(26))))
		}
		g.AddNode(labels[rng.Intn(len(labels))], props)
	}
	nodes := g.Nodes()
	si := pg.NewShapeCache().IndexNodes(nodes)

	// Cluster shapes arbitrarily but deterministically into k groups.
	k := 5
	shapeAssign := make([]int, si.NumShapes())
	for s := range shapeAssign {
		shapeAssign[s] = s % k
	}
	rowAssign := make([]int, len(nodes))
	for i, s := range si.Rows {
		rowAssign[i] = shapeAssign[s]
	}

	plain := BuildNodeCandidates(nodes, rowAssign, k)
	interned := BuildNodeCandidatesInterned(nodes, si, shapeAssign, k)
	for i := range plain {
		a := candidateFingerprint(t, plain[i])
		b := candidateFingerprint(t, interned[i])
		if a != b {
			t.Errorf("candidate %d differs:\nplain    %s\ninterned %s", i, a, b)
		}
	}
}

// TestBuildEdgeCandidatesInternedEquivalence mirrors the node test,
// additionally covering endpoint tokens and per-endpoint degrees.
func TestBuildEdgeCandidatesInternedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := pg.NewGraph()
	var ids []pg.ID
	for i := 0; i < 30; i++ {
		ids = append(ids, g.AddNode([]string{"N"}, nil))
	}
	toks := []string{"N", "M", ""}
	var srcToks, dstToks []string
	for i := 0; i < 400; i++ {
		props := map[string]pg.Value{}
		if i%2 == 0 {
			props["w"] = pg.Float(rng.Float64())
		}
		lab := [][]string{{"R"}, {"S"}, nil}[rng.Intn(3)]
		if _, err := g.AddEdge(lab, ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], props); err != nil {
			t.Fatal(err)
		}
		srcToks = append(srcToks, toks[rng.Intn(len(toks))])
		dstToks = append(dstToks, toks[rng.Intn(len(toks))])
	}
	edges := g.Edges()
	si := pg.NewShapeCache().IndexEdges(edges, srcToks, dstToks)

	k := 4
	shapeAssign := make([]int, si.NumShapes())
	for s := range shapeAssign {
		shapeAssign[s] = s % k
	}
	rowAssign := make([]int, len(edges))
	for i, s := range si.Rows {
		rowAssign[i] = shapeAssign[s]
	}

	plain := BuildEdgeCandidates(edges, rowAssign, k, srcToks, dstToks)
	ec := pg.NewEndpointCodes(len(edges))
	for i := range edges {
		ec.Src[i], ec.Dst[i] = ec.Intern(srcToks[i]), ec.Intern(dstToks[i])
	}
	interned := BuildEdgeCandidatesInterned(edges, si, shapeAssign, k, ec, 30)
	for i := range plain {
		a := candidateFingerprint(t, plain[i])
		b := candidateFingerprint(t, interned[i])
		if a != b {
			t.Errorf("candidate %d differs:\nplain    %s\ninterned %s", i, a, b)
		}
	}
}
