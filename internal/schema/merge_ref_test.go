package schema

// merge_ref_test.go keeps the quadratic form of Algorithm 2's passes —
// one freshly built key set per (unlabeled candidate, schema type)
// pair — exactly as production code ran it before the similarity index
// (simindex.go). It is the oracle the differential and fuzz tests in
// merge_equiv_test.go compare the indexed implementation against.

// propKeySet extracts the property-key set of a type for Jaccard
// comparison.
func propKeySet(t *Type) map[string]bool {
	s := make(map[string]bool, len(t.Props))
	for k := range t.Props {
		s[k] = true
	}
	return s
}

// edgeSimilaritySet extends an edge type's property keys with its
// endpoint tokens. The paper compares unlabeled clusters by property
// Jaccard; for edges the endpoint labels are part of the pattern
// (Def. 3.6), so including them (namespaced) prevents structurally
// bare edges between different endpoint types from collapsing when
// partial label information is available.
func edgeSimilaritySet(t *EdgeType) map[string]bool {
	s := propKeySet(&t.Type)
	for k := range t.SrcTokens {
		s["\x00src:"+k] = true
	}
	for k := range t.DstTokens {
		s["\x00dst:"+k] = true
	}
	return s
}

// referenceExtractNodeTypes merges candidate node types into the schema per
// Algorithm 2 and returns, for each candidate (cluster) index, the
// schema type the cluster ended up in. theta ≤ 0 selects
// DefaultTheta.
func (s *Schema) referenceExtractNodeTypes(cands []*NodeType, theta float64) []*NodeType {
	if theta <= 0 {
		theta = DefaultTheta
	}
	result := make([]*NodeType, len(cands))

	// Pass 1 — labeled clusters: merge into the type with the same
	// label set, or append as a new labeled type (Alg. 2 lines 2–7).
	var unlabeled []int
	for i, c := range cands {
		if c.Instances == 0 {
			continue
		}
		if c.Token == "" {
			unlabeled = append(unlabeled, i)
			continue
		}
		if t := s.byNodeToken[c.Token]; t != nil {
			t.mergeCore(&c.Type)
			result[i] = t
		} else {
			s.addNodeType(c)
			result[i] = c
		}
	}

	// Pass 2 — unlabeled clusters vs labeled types: merge into the
	// best labeled type with property Jaccard ≥ θ (lines 8–11).
	var stillUnlabeled []int
	for _, i := range unlabeled {
		c := cands[i]
		cs := propKeySet(&c.Type)
		var best *NodeType
		bestJ := theta
		for _, t := range s.NodeTypes {
			if t.Abstract {
				continue
			}
			if j := Jaccard(cs, propKeySet(&t.Type)); j >= bestJ {
				// Strictly-greater keeps the first best on ties, so
				// extraction order (cluster ID) is deterministic.
				if best == nil || j > bestJ {
					best, bestJ = t, j
				}
			}
		}
		if best != nil {
			best.mergeCore(&c.Type)
			result[i] = best
		} else {
			stillUnlabeled = append(stillUnlabeled, i)
		}
	}

	// Pass 3 — unlabeled vs unlabeled (lines 12–14): merge with an
	// existing ABSTRACT type (incremental case) or with an earlier
	// still-unlabeled candidate of this batch; what remains becomes a
	// new ABSTRACT type.
	for _, i := range stillUnlabeled {
		c := cands[i]
		cs := propKeySet(&c.Type)
		var best *NodeType
		bestJ := theta
		for _, t := range s.NodeTypes {
			if !t.Abstract {
				continue
			}
			if j := Jaccard(cs, propKeySet(&t.Type)); j >= bestJ {
				if best == nil || j > bestJ {
					best, bestJ = t, j
				}
			}
		}
		if best != nil {
			best.mergeCore(&c.Type)
			result[i] = best
		} else {
			c.Abstract = true
			s.addNodeType(c)
			result[i] = c
		}
	}
	return result
}

// referenceExtractEdgeTypes merges candidate edge types into the schema. Per
// §4.3 ("Edges: we merge edges only by label"), labeled edge clusters
// merge by label-token equality — refined by endpoint compatibility —
// accumulating the endpoint sets that define the connectivity ρ_s;
// unlabeled edge clusters fall back to Jaccard over properties plus
// endpoint tokens.
func (s *Schema) referenceExtractEdgeTypes(cands []*EdgeType, theta float64) []*EdgeType {
	if theta <= 0 {
		theta = DefaultTheta
	}
	result := make([]*EdgeType, len(cands))

	var unlabeled []int
	for i, c := range cands {
		if c.Instances == 0 {
			continue
		}
		if c.Token == "" {
			unlabeled = append(unlabeled, i)
			continue
		}
		// Same-label clusters merge when their endpoint evidence is
		// compatible: source or target token sets overlap, or one side
		// has no evidence. This unifies same-label patterns with
		// shared endpoints (Fig. 1's LOCATED_IN) while keeping
		// endpoint-disjoint reuses of a label as distinct types
		// (Table 2 datasets with more edge types than edge labels).
		var target *EdgeType
		for _, t := range s.byEdgeToken[c.Token] {
			if endpointsCompatible(c, t) {
				target = t
				break
			}
		}
		if target != nil {
			target.mergeEdge(c)
			result[i] = target
		} else {
			s.addEdgeType(c)
			result[i] = c
		}
	}

	var stillUnlabeled []int
	for _, i := range unlabeled {
		c := cands[i]
		cs := edgeSimilaritySet(c)
		var best *EdgeType
		bestJ := theta
		for _, t := range s.EdgeTypes {
			if t.Abstract {
				continue
			}
			if j := Jaccard(cs, edgeSimilaritySet(t)); j >= bestJ {
				if best == nil || j > bestJ {
					best, bestJ = t, j
				}
			}
		}
		if best != nil {
			best.mergeEdge(c)
			result[i] = best
		} else {
			stillUnlabeled = append(stillUnlabeled, i)
		}
	}

	for _, i := range stillUnlabeled {
		c := cands[i]
		cs := edgeSimilaritySet(c)
		var best *EdgeType
		bestJ := theta
		for _, t := range s.EdgeTypes {
			if !t.Abstract {
				continue
			}
			if j := Jaccard(cs, edgeSimilaritySet(t)); j >= bestJ {
				if best == nil || j > bestJ {
					best, bestJ = t, j
				}
			}
		}
		if best != nil {
			best.mergeEdge(c)
			result[i] = best
		} else {
			c.Abstract = true
			s.addEdgeType(c)
			result[i] = c
		}
	}
	return result
}
