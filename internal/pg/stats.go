package pg

// Stats summarizes a graph the way Table 2 of the paper does: element
// counts, distinct individual labels, and distinct structural patterns
// (Def. 3.5 node patterns (L, K); Def. 3.6 edge patterns (L, K, R)).
type Stats struct {
	Nodes        int
	Edges        int
	NodeLabels   int
	EdgeLabels   int
	NodePatterns int
	EdgePatterns int
}

// ComputeStats scans the graph once and returns its Table-2 style
// statistics. A pattern is a shape: ShapeCache fingerprints a node's
// (L, K) injectively, and an edge's (L, K, R) with R spelled as the
// endpoints' label tokens, as discovery files it.
func ComputeStats(g *Graph) Stats {
	edges := g.Edges()
	src, dst := make([]string, len(edges)), make([]string, len(edges))
	for i := range edges {
		src[i] = LabelToken(g.SrcLabels(&edges[i]))
		dst[i] = LabelToken(g.DstLabels(&edges[i]))
	}
	return Stats{
		Nodes:        g.NumNodes(),
		Edges:        g.NumEdges(),
		NodeLabels:   len(g.DistinctNodeLabels()),
		EdgeLabels:   len(g.DistinctEdgeLabels()),
		NodePatterns: NewShapeCache().IndexNodes(g.Nodes()).NumShapes(),
		EdgePatterns: NewShapeCache().IndexEdges(edges, src, dst).NumShapes(),
	}
}
