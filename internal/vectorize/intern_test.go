package vectorize

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/word2vec"
)

// randShapedNodes builds a duplicate-heavy node slice: few label/key
// combinations, varying values.
func randShapedNodes(rng *rand.Rand, n int) ([]pg.Node, *pg.ShapeIndex) {
	labels := [][]string{{"Person"}, {"Post"}, {"Org", "Company"}, nil}
	keySets := [][]string{{"name"}, {"name", "age"}, {"title"}, nil}
	g := pg.NewGraph()
	for i := 0; i < n; i++ {
		props := map[string]pg.Value{}
		for _, k := range keySets[rng.Intn(len(keySets))] {
			props[k] = pg.Int(int64(rng.Intn(1000)))
		}
		g.AddNode(labels[rng.Intn(len(labels))], props)
	}
	nodes := g.Nodes()
	return nodes, pg.NewShapeCache().IndexNodes(nodes)
}

// expand returns a per-row vector view over representative rows: row i
// aliases repVecs[rows[i]]. It is the reference form of the per-row
// view the interned matrix stands for; the pipeline's adaptive
// parameter estimation indexes through the row→shape map directly
// (lsh.AdaptiveNodeParamsInterned) instead of materializing it.
func expand(repVecs [][]float64, rows []int32) [][]float64 {
	out := make([][]float64, len(rows))
	for i, s := range rows {
		out[i] = repVecs[s]
	}
	return out
}

// TestNodesInternedMatchesRepresentativeRows: row s of the interned
// matrix is byte-identical to row Reps[s] of the full matrix, and the
// expanded view reproduces every row.
func TestNodesInternedMatchesRepresentativeRows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nodes, si := randShapedNodes(rng, 200)
	keys := []string{"age", "name", "title"}
	emb := word2vec.NewHashedEmbedder(8)

	full := NodesParallel(nodes, keys, emb, 1)
	interned := NodesInterned(nodes, si, keys, emb, 1)
	if interned.Rows() != si.NumShapes() {
		t.Fatalf("interned rows = %d, want %d", interned.Rows(), si.NumShapes())
	}
	if interned.BinStart != full.BinStart {
		t.Fatalf("BinStart mismatch: %d vs %d", interned.BinStart, full.BinStart)
	}
	for s, r := range si.Reps {
		if len(interned.Vecs[s]) != len(full.Vecs[r]) {
			t.Fatalf("shape %d: width mismatch", s)
		}
		for j := range interned.Vecs[s] {
			if interned.Vecs[s][j] != full.Vecs[r][j] {
				t.Fatalf("shape %d: vec[%d] differs", s, j)
			}
		}
		if len(interned.Bits[s]) != len(full.Bits[r]) {
			t.Fatalf("shape %d: bits differ", s)
		}
	}
	view := expand(interned.Vecs, si.Rows)
	for i := range nodes {
		for j := range view[i] {
			if view[i][j] != full.Vecs[i][j] {
				t.Fatalf("expanded row %d differs at %d", i, j)
			}
		}
	}
}

// TestBitsSortedAndConsistent: Bits lists exactly the set positions of
// the binary block, ascending.
func TestBitsSortedAndConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nodes, _ := randShapedNodes(rng, 100)
	keys := []string{"age", "name", "title"}
	m := NodesParallel(nodes, keys, word2vec.NewHashedEmbedder(6), 2)
	for i, row := range m.Vecs {
		var want []int32
		for j := m.BinStart; j < len(row); j++ {
			if row[j] != 0 {
				want = append(want, int32(j-m.BinStart))
			}
		}
		got := m.Bits[i]
		if len(got) != len(want) {
			t.Fatalf("row %d: bits %v, want %v", i, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("row %d: bits %v, want %v (must be ascending)", i, got, want)
			}
		}
	}
}

// codesOf dictionary-codes per-edge endpoint tokens.
func codesOf(srcToks, dstToks []string) *pg.EndpointCodes {
	ec := pg.NewEndpointCodes(len(srcToks))
	for i := range srcToks {
		ec.Src[i], ec.Dst[i] = ec.Intern(srcToks[i]), ec.Intern(dstToks[i])
	}
	return ec
}

// TestEdgesInternedMatchesRepresentativeRows mirrors the node test for
// the 3-embedding edge layout.
func TestEdgesInternedMatchesRepresentativeRows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := pg.NewGraph()
	var ids []pg.ID
	for i := 0; i < 20; i++ {
		ids = append(ids, g.AddNode([]string{"N"}, nil))
	}
	for i := 0; i < 150; i++ {
		props := map[string]pg.Value{}
		if i%3 == 0 {
			props["w"] = pg.Int(int64(i))
		}
		if _, err := g.AddEdge([]string{"R"}, ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], props); err != nil {
			t.Fatal(err)
		}
	}
	edges := g.Edges()
	srcToks := make([]string, len(edges))
	dstToks := make([]string, len(edges))
	for i := range edges {
		srcToks[i], dstToks[i] = "N", "N"
	}
	si := pg.NewShapeCache().IndexEdges(edges, srcToks, dstToks)
	keys := []string{"w"}
	emb := word2vec.NewHashedEmbedder(8)

	full := EdgesParallel(edges, keys, emb, srcToks, dstToks, 1)
	interned := EdgesInterned(edges, si, keys, emb, codesOf(srcToks, dstToks), 1)
	if interned.Rows() != si.NumShapes() {
		t.Fatalf("interned rows = %d, want %d", interned.Rows(), si.NumShapes())
	}
	for s, r := range si.Reps {
		for j := range interned.Vecs[s] {
			if interned.Vecs[s][j] != full.Vecs[r][j] {
				t.Fatalf("shape %d: vec[%d] differs", s, j)
			}
		}
	}
}

// TestBuildCorpusFromShapesMatchesPerNode: the corpus derived from the
// node shape index and pre-resolved endpoint tokens is identical to
// the one BuildCorpus builds by walking every node and resolving every
// edge itself.
func TestBuildCorpusFromShapesMatchesPerNode(t *testing.T) {
	g := buildGraph(400, 900, 23)
	si := pg.NewShapeCache().IndexNodes(g.Nodes())
	srcToks, dstToks := graphEndpointTokens(g)
	want := BuildCorpus(g, nil, nil)
	got := BuildCorpus(g, si, codesOf(srcToks, dstToks))
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("corpus from shapes has %d sentences, per-node walk %d; they must be identical", len(got), len(want))
	}
}
