package schema

import "github.com/pghive/pghive/internal/pg"

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
// each of the shape's property keys, so observing a row costs one map
// access per key instead of a map iteration plus a candidate-props
// lookup per key.
type shapeObserver struct {
	keys  []string
	stats []*PropStat
}

// observeRow folds one row's property values into the pre-resolved
// stats. Every key is present: rows of a shape share its exact
// property-key set.
func (o *shapeObserver) observeRow(props map[string]pg.Value) {
	for j, k := range o.keys {
		o.stats[j].observeValue(props[k])
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
		obs[s] = shapeObserver{keys: keys, stats: stats}
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
		c.SrcDeg[e.Src]++
		c.DstDeg[e.Dst]++
	}
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
// maxEndpoints caps the degree-map presizing at the number of known
// node IDs, so hub-heavy clusters (many edges, few endpoints) do not
// over-allocate.
func BuildEdgeCandidatesInterned(edges []pg.Edge, si *pg.ShapeIndex, assign []int, k int, ec *pg.EndpointCodes, maxEndpoints int) []*EdgeType {
	// Shape counts bound each candidate's edge total — and distinct
	// endpoints are additionally bounded by maxEndpoints — so the
	// degree maps are presized once instead of growing through a
	// dozen rehashes while the per-row loop fills them.
	totals := make([]int, k)
	for s := range si.Reps {
		totals[assign[s]] += int(si.Counts[s])
	}
	cands := make([]*EdgeType, k)
	for i, hint := range totals {
		if maxEndpoints > 0 && hint > maxEndpoints {
			hint = maxEndpoints
		}
		cands[i] = newEdgeCandidate(hint)
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
	// Per-endpoint degrees vary within a shape, so they stay per edge,
	// but the candidate itself resolves through the shape ordinal.
	for row := range edges {
		e := &edges[row]
		obs[si.Rows[row]].observeRow(e.Props)
		c := cands[assign[si.Rows[row]]]
		c.SrcDeg[e.Src]++
		c.DstDeg[e.Dst]++
	}
	for _, c := range cands {
		c.Token = pg.LabelToken(c.SortedLabels())
		c.Abstract = c.Token == ""
	}
	return cands
}
