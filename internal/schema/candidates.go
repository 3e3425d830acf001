package schema

import (
	"slices"

	"github.com/pghive/pghive/internal/pg"
)

// BuildNodeCandidates turns an LSH clustering of nodes into candidate
// node types: one per cluster, carrying the cluster representative
// (§4.2 "Cluster representative": union of labels and properties over
// the cluster's instances) plus the occurrence statistics the
// post-processing steps need. assign maps node index to cluster ID in
// [0, k).
func BuildNodeCandidates(nodes []pg.Node, assign []int, k int) []*NodeType {
	cands := make([]*NodeType, k)
	for i := range cands {
		cands[i] = NewNodeCandidate()
	}
	for row := range nodes {
		n := &nodes[row]
		cands[assign[row]].observe(n.Labels, n.Props)
	}
	for _, c := range cands {
		c.Token = pg.LabelToken(c.SortedLabels())
		c.Abstract = c.Token == ""
	}
	return cands
}

// BuildNodeCandidatesInterned is BuildNodeCandidates over a
// shape-interned clustering: assign maps shape ordinals (not rows) to
// clusters. Labels and instance tallies — which depend only on the
// shape — are added once per shape, weighted by its occurrence count;
// property values vary within a shape and are still observed per
// node, so every statistic is exactly what the non-interned builder
// produces.
func BuildNodeCandidatesInterned(nodes []pg.Node, si *pg.ShapeIndex, assign []int, k int) []*NodeType {
	cands := make([]*NodeType, k)
	for i := range cands {
		cands[i] = NewNodeCandidate()
	}
	obs := buildShapeObservers(si, func(s int) (*Type, []string) {
		return &cands[assign[s]].Type, nodes[si.Reps[s]].PropertyKeys()
	}, func(s int) []string { return nodes[si.Reps[s]].Labels })
	for row := range nodes {
		obs[si.Rows[row]].observeRow(nodes[row].Props)
	}
	for _, c := range cands {
		c.Token = pg.LabelToken(c.SortedLabels())
		c.Abstract = c.Token == ""
	}
	return cands
}

// shapeObserver pre-resolves, per shape, the candidate's PropStat for
// each of the shape's property keys, in key order, so observing a row
// costs no lookup at all.
type shapeObserver struct {
	stats []*PropStat
}

// observeRow folds one row's property values into the pre-resolved
// stats. Rows of a shape share its exact property-key set, and Props
// holds it in key order, so a row's j-th property is the shape's j-th
// key.
func (o *shapeObserver) observeRow(props pg.Props) {
	for j, p := range props {
		o.stats[j].observeValue(p.Val)
	}
}

// buildShapeObservers runs the shape-level (count-weighted) label
// observation and builds the per-shape property observers.
func buildShapeObservers(si *pg.ShapeIndex, target func(s int) (*Type, []string), labels func(s int) []string) []shapeObserver {
	obs := make([]shapeObserver, si.NumShapes())
	for s := range obs {
		t, keys := target(s)
		t.observeShape(labels(s), int(si.Counts[s]))
		stats := make([]*PropStat, len(keys))
		for j, k := range keys {
			ps := t.Props[k]
			if ps == nil {
				ps = &PropStat{}
				t.Props[k] = ps
			}
			stats[j] = ps
		}
		obs[s] = shapeObserver{stats: stats}
	}
	return obs
}

// BuildEdgeCandidates turns an LSH clustering of edges into candidate
// edge types. srcToks and dstToks carry the resolved endpoint label
// token per edge (aligned with edges); unresolvable endpoints are "".
func BuildEdgeCandidates(edges []pg.Edge, assign []int, k int, srcToks, dstToks []string) []*EdgeType {
	cands := make([]*EdgeType, k)
	for i := range cands {
		cands[i] = NewEdgeCandidate()
	}
	for row := range edges {
		e := &edges[row]
		c := cands[assign[row]]
		c.observe(e.Labels, e.Props)
		if srcToks[row] != "" {
			c.SrcTokens[srcToks[row]] = true
		}
		if dstToks[row] != "" {
			c.DstTokens[dstToks[row]] = true
		}
	}
	countEndpoints(cands, edges, func(row int) int { return assign[row] })
	for _, c := range cands {
		c.Token = pg.LabelToken(c.SortedLabels())
		c.Abstract = c.Token == ""
	}
	return cands
}

// BuildEdgeCandidatesInterned is BuildEdgeCandidates over a
// shape-interned clustering: assign maps shape ordinals to clusters.
// Labels, instance counts and endpoint tokens are shape-determined
// and added once per shape (counts weighted); property values and
// per-endpoint degrees vary within a shape and are observed per edge.
func BuildEdgeCandidatesInterned(edges []pg.Edge, si *pg.ShapeIndex, assign []int, k int, ec *pg.EndpointCodes) []*EdgeType {
	cands := make([]*EdgeType, k)
	for i := range cands {
		cands[i] = NewEdgeCandidate()
	}
	obs := buildShapeObservers(si, func(s int) (*Type, []string) {
		return &cands[assign[s]].Type, edges[si.Reps[s]].PropertyKeys()
	}, func(s int) []string { return edges[si.Reps[s]].Labels })
	for s, rep := range si.Reps {
		c := cands[assign[s]]
		srcTok, dstTok := ec.Tokens(int(rep))
		if srcTok != "" {
			c.SrcTokens[srcTok] = true
		}
		if dstTok != "" {
			c.DstTokens[dstTok] = true
		}
	}
	for row := range edges {
		obs[si.Rows[row]].observeRow(edges[row].Props)
	}
	countEndpoints(cands, edges, func(row int) int { return assign[si.Rows[row]] })
	for _, c := range cands {
		c.Token = pg.LabelToken(c.SortedLabels())
		c.Abstract = c.Token == ""
	}
	return cands
}

// countEndpoints gives each candidate its pending degree counts: the
// rows of the edges cand assigns to it, grouped by candidate in one
// buffer the candidates share. They are counted only when the candidate
// becomes a type (EdgeType.settle), or go straight into the type that
// absorbs it (EdgeType.mergeEdge).
func countEndpoints(cands []*EdgeType, edges []pg.Edge, cand func(row int) int) {
	start := make([]int32, len(cands)+1)
	for row := range edges {
		start[cand(row)+1]++
	}
	for i := range cands {
		start[i+1] += start[i]
	}
	g := &endpointGroups{edges: edges, rows: make([]int32, len(edges))}
	next := slices.Clone(start[:len(cands)])
	for row := range edges {
		c := cand(row)
		g.rows[next[c]] = int32(row)
		next[c]++
	}
	for i, c := range cands {
		c.pending = pendingDegrees{g, start[i], start[i+1]}
	}
}
