package vectorize

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/word2vec"
)

func buildGraph(nodes, edges int, seed int64) *pg.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := pg.NewGraph()
	labels := []string{"Person", "Post", "Org", "City", ""}
	props := []string{"name", "age", "content", "founded", "lat", "lon"}
	ids := make([]pg.ID, 0, nodes)
	for i := 0; i < nodes; i++ {
		var ls []string
		if l := labels[rng.Intn(len(labels))]; l != "" {
			ls = []string{l}
		}
		pm := map[string]pg.Value{}
		for _, p := range props {
			if rng.Float64() < 0.4 {
				pm[p] = pg.Int(int64(rng.Intn(100)))
			}
		}
		ids = append(ids, g.AddNode(ls, pm))
	}
	etypes := []string{"KNOWS", "LIKES", "WORKS_AT"}
	for i := 0; i < edges; i++ {
		src := ids[rng.Intn(len(ids))]
		dst := ids[rng.Intn(len(ids))]
		pm := map[string]pg.Value{}
		if rng.Float64() < 0.5 {
			pm["since"] = pg.Int(int64(2000 + rng.Intn(25)))
		}
		_, _ = g.AddEdge([]string{etypes[rng.Intn(len(etypes))]}, src, dst, pm)
	}
	return g
}

func sameMatrix(t *testing.T, label string, a, b *Matrix) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Dim() != b.Dim() {
		t.Fatalf("%s: shape differs: %dx%d vs %dx%d", label, a.Rows(), a.Dim(), b.Rows(), b.Dim())
	}
	for i := range a.Vecs {
		if a.IDs[i] != b.IDs[i] || a.Tokens[i] != b.Tokens[i] {
			t.Fatalf("%s: row %d metadata differs", label, i)
		}
		for j := range a.Vecs[i] {
			if a.Vecs[i][j] != b.Vecs[i][j] {
				t.Fatalf("%s: row %d dim %d: %v vs %v", label, i, j, a.Vecs[i][j], b.Vecs[i][j])
			}
		}
	}
}

// TestNodesParallelEquivalence checks that the worker-pool node
// vectorizer is bit-identical to the sequential one for every worker
// count, with both a preloading (hashed) and a plain (trained)
// embedder.
func TestNodesParallelEquivalence(t *testing.T) {
	g := buildGraph(800, 0, 17)
	keys := g.DistinctNodePropertyKeys()
	for _, emb := range []Embedder{
		word2vec.NewHashedEmbedder(16),
		TrainEmbedder(g, word2vec.Config{Dim: 8, Seed: 3}),
	} {
		seq := NodesParallel(g.Nodes(), keys, emb, 1)
		for _, workers := range []int{2, 4, 16} {
			par := NodesParallel(g.Nodes(), keys, emb, workers)
			sameMatrix(t, fmt.Sprintf("%T workers=%d", emb, workers), seq, par)
		}
	}
}

// graphEndpointTokens resolves every edge's endpoint label tokens
// against the complete graph.
func graphEndpointTokens(g *pg.Graph) (srcToks, dstToks []string) {
	edges := g.Edges()
	srcToks = make([]string, len(edges))
	dstToks = make([]string, len(edges))
	for i := range edges {
		srcToks[i] = pg.LabelToken(g.SrcLabels(&edges[i]))
		dstToks[i] = pg.LabelToken(g.DstLabels(&edges[i]))
	}
	return srcToks, dstToks
}

// TestEdgesParallelEquivalence mirrors the node check for the edge
// vectorizer.
func TestEdgesParallelEquivalence(t *testing.T) {
	g := buildGraph(300, 1200, 19)
	keys := g.DistinctEdgePropertyKeys()
	edges := g.Edges()
	srcToks, dstToks := graphEndpointTokens(g)
	emb := word2vec.NewHashedEmbedder(16)
	seq := EdgesParallel(edges, keys, emb, srcToks, dstToks, 1)
	for _, workers := range []int{2, 4, 16} {
		par := EdgesParallel(edges, keys, emb, srcToks, dstToks, workers)
		sameMatrix(t, fmt.Sprintf("workers=%d", workers), seq, par)
	}
}
