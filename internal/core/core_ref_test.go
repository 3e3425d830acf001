package core

// The per-element reference of Algorithm 1. ProcessBatch groups a
// batch's elements by shape and runs vectorization, hashing, clustering
// and the shape-determined part of candidate building once per distinct
// shape; refProcessBatch below does the same discovery the way the
// paper states it — one representation, one LSH row and one candidate
// contribution per element, no shape index and no cross-batch cache —
// composed from the per-row library functions (vectorize.NodesParallel
// / EdgesParallel, schema.BuildNodeCandidates / BuildEdgeCandidates,
// the adaptive estimators over a materialized per-row matrix). It is
// the oracle the equivalence tests in intern_test.go hold the pipeline
// to: same schema, same cluster counts, same adaptive choices, and the
// same type for every single element.
//
// What the two share on purpose is everything that has no per-shape
// form: option defaults, the label embedder, LSH parameter
// resolution, the MinHash item-set definition, the schema merge and
// the §4.4 post-processing.

import (
	"github.com/pghive/pghive/internal/lsh"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
	"github.com/pghive/pghive/internal/vectorize"
)

// refProcessBatch is ProcessBatch, element by element, on inc's state.
// inc must only ever be driven through refProcessBatch (it never fills
// the shape caches or the shape counters), and Options.DisableMerging
// is not modeled.
func refProcessBatch(inc *Incremental, b *pg.Batch) {
	o := inc.opts
	g := b.Graph
	nodes, edges := g.Nodes(), g.Edges()

	// Nodes: one row per node.
	labels := len(g.DistinctNodeLabels())
	var emb vectorize.Embedder
	var nodeCl *lsh.Clustering
	if o.Method == MinHash {
		sets := make([][]string, len(nodes))
		for i := range nodes {
			sets[i] = nodeItemSet(&nodes[i])
		}
		nodeCl = lsh.ClusterMinHash(sets, inc.minhashParams(len(nodes), labels, &inc.result.NodeChoice, o.NodeParams))
	} else {
		// A nil shape index and nil endpoint tokens make BuildCorpus
		// walk every node and resolve every edge itself.
		emb = inc.embedder(g, nil, nil)
		m := vectorize.NodesParallel(nodes, g.DistinctNodePropertyKeys(), emb, 1)
		np := inc.elshParams(m.Vecs, nil, labels, &inc.result.NodeChoice, o.NodeParams, true)
		nodeCl = lsh.ClusterEuclideanSparse(m.Vecs, m.BinStart, m.Bits, np)
	}
	inc.result.NodeClusters += nodeCl.NumClusters
	ntypes := inc.sch.ExtractNodeTypes(schema.BuildNodeCandidates(nodes, nodeCl.Assign, nodeCl.NumClusters), o.Theta)
	for i := range nodes {
		inc.result.NodeAssign.Set(nodes[i].ID, int32(ntypes[nodeCl.Assign[i]].ID))
	}

	// Edge endpoints: the endpoint node's labels in the batch itself,
	// else in the resolver, else the type the node was assigned to.
	endpointToken := func(id pg.ID) string {
		var ls []string
		if n := g.Node(id); n != nil {
			ls = n.Labels
		}
		if ls == nil && b.Resolver != nil {
			ls, _ = b.Resolver.NodeLabels(id)
		}
		if tok := pg.LabelToken(ls); tok != "" {
			return tok
		}
		return inc.endpointTypeToken(id)
	}
	srcToks := make([]string, len(edges))
	dstToks := make([]string, len(edges))
	for i := range edges {
		srcToks[i] = endpointToken(edges[i].Src)
		dstToks[i] = endpointToken(edges[i].Dst)
	}

	// Edges: one row per edge.
	labels = len(g.DistinctEdgeLabels())
	var edgeCl *lsh.Clustering
	if o.Method == MinHash {
		sets := make([][]string, len(edges))
		for i := range edges {
			sets[i] = edgeItemSet(&edges[i], srcToks[i], dstToks[i])
		}
		edgeCl = lsh.ClusterMinHash(sets, inc.minhashParams(len(edges), labels, &inc.result.EdgeChoice, o.EdgeParams))
	} else {
		m := vectorize.EdgesParallel(edges, g.DistinctEdgePropertyKeys(), emb, srcToks, dstToks, 1)
		ep := inc.elshParams(m.Vecs, nil, labels, &inc.result.EdgeChoice, o.EdgeParams, false)
		edgeCl = lsh.ClusterEuclideanSparse(m.Vecs, m.BinStart, m.Bits, ep)
	}
	inc.result.EdgeClusters += edgeCl.NumClusters
	etypes := inc.sch.ExtractEdgeTypes(schema.BuildEdgeCandidates(edges, edgeCl.Assign, edgeCl.NumClusters, srcToks, dstToks), o.Theta)
	for i := range edges {
		inc.result.EdgeAssign.Set(edges[i].ID, int32(etypes[edgeCl.Assign[i]].ID))
	}
}
