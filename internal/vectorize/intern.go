package vectorize

import "github.com/pghive/pghive/internal/pg"

// Interned vectorization: same-shape elements (same label set,
// property-key set, and — for edges — endpoint tokens) produce
// byte-identical representation vectors, so the pipeline vectorizes
// only the first occurrence of each shape and shares the row. The
// ShapeIndex carries the row→shape map through which per-row stages
// read the shared rows and their cluster assignments.

// NodesInterned vectorizes only the shape representatives of nodes:
// one matrix row per distinct shape, in first-occurrence order. Row s
// of the result is byte-identical to row si.Reps[s] of the matrix
// NodesParallel builds over every node.
func NodesInterned(nodes []pg.Node, si *pg.ShapeIndex, keys []string, emb Embedder, workers int) *Matrix {
	reps := make([]pg.Node, si.NumShapes())
	for s, r := range si.Reps {
		reps[s] = nodes[r]
	}
	return NodesParallel(reps, keys, emb, workers)
}

// EdgesInterned vectorizes only the shape representatives of edges,
// gathering the representatives' endpoint tokens from the batch's
// endpoint codes.
func EdgesInterned(edges []pg.Edge, si *pg.ShapeIndex, keys []string, emb Embedder, ec *pg.EndpointCodes, workers int) *Matrix {
	n := si.NumShapes()
	reps := make([]pg.Edge, n)
	rsrc := make([]string, n)
	rdst := make([]string, n)
	for s, r := range si.Reps {
		reps[s] = edges[r]
		rsrc[s], rdst[s] = ec.Tokens(int(r))
	}
	return EdgesParallel(reps, keys, emb, rsrc, rdst, workers)
}
