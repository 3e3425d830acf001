package schema

// merge.go implements Algorithm 2 (extracting and merging types) and
// the schema-merge rules of §4.6. Both are monotone: merging only
// unions labels, properties and endpoints (Lemmas 1 and 2), so a
// schema can only generalize as batches arrive (S_i ⊑ S_{i+1}).

// DefaultTheta is the Jaccard similarity threshold θ used by the
// paper for merging unlabeled clusters (§4.3: "we set θ = 0.9"; a
// high threshold avoids over-merging).
const DefaultTheta = 0.9

// Jaccard computes |A∩B| / |A∪B| over string sets. Two empty sets are
// defined as identical (similarity 1): structurally there is nothing
// to distinguish them.
func Jaccard(a, b map[string]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// ExtractNodeTypes merges candidate node types into the schema per
// Algorithm 2 and returns, for each candidate (cluster) index, the
// schema type the cluster ended up in. theta ≤ 0 selects
// DefaultTheta.
func (s *Schema) ExtractNodeTypes(cands []*NodeType, theta float64) []*NodeType {
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

	mergeUnlabeled(&s.NodeTypes, cands, unlabeled, theta, result, s.addNodeType)
	return result
}

// endpointsCompatible reports whether two same-label edge types may be
// one type: on both sides, the endpoint token sets overlap or one of
// them lacks evidence entirely. Requiring both sides keeps label
// reuses with a shared single endpoint (LDBC's HAS_CREATOR from Post
// and from Comment) apart, matching how the evaluated datasets define
// same-label types (Table 2 reports more edge types than labels).
func endpointsCompatible(a, b *EdgeType) bool {
	overlap := func(x, y map[string]bool) bool {
		if len(x) == 0 || len(y) == 0 {
			return true
		}
		for k := range x {
			if y[k] {
				return true
			}
		}
		return false
	}
	return overlap(a.SrcTokens, b.SrcTokens) && overlap(a.DstTokens, b.DstTokens)
}

// ExtractEdgeTypes merges candidate edge types into the schema. Per
// §4.3 ("Edges: we merge edges only by label"), labeled edge clusters
// merge by label-token equality — refined by endpoint compatibility —
// accumulating the endpoint sets that define the connectivity ρ_s;
// unlabeled edge clusters fall back to Jaccard over properties plus
// endpoint tokens.
func (s *Schema) ExtractEdgeTypes(cands []*EdgeType, theta float64) []*EdgeType {
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

	mergeUnlabeled(&s.EdgeTypes, cands, unlabeled, theta, result, s.addEdgeType)
	return result
}

// mergeUnlabeled runs passes 2 and 3 of Algorithm 2 over the unlabeled
// candidates, for node and edge types alike. Pass 2 (lines 8–11)
// merges a candidate into the labeled type with the best signature
// Jaccard ≥ θ; pass 3 (lines 12–14) merges what is left into an
// ABSTRACT type — one the schema already holds (the incremental case)
// or an earlier candidate of this batch — and what still remains
// becomes a new ABSTRACT type through add. On equal similarity the
// first type in schema order wins, so the outcome depends only on
// candidate order (cluster ID).
func mergeUnlabeled[T sigType[T]](types *[]T, cands []T, unlabeled []int, theta float64, result []T, add func(T)) {
	if theta > 1 {
		// No Jaccard exceeds 1: this is how the baselines switch
		// similarity merging off, and comparing would find nothing.
		for _, i := range unlabeled {
			cands[i].core().Abstract = true
			add(cands[i])
			result[i] = cands[i]
		}
		return
	}
	for _, abstract := range []bool{false, true} {
		if len(unlabeled) == 0 {
			return
		}
		ix := newSimIndex(*types, abstract)
		var rest []int
		for _, i := range unlabeled {
			c := cands[i]
			sig := encodeSig(ix, c)
			pos := ix.best(sig, theta)
			switch {
			case pos >= 0:
				(*types)[pos].absorb(c)
			case !abstract:
				rest = append(rest, i)
				continue
			default:
				c.core().Abstract = true
				add(c)
				pos = len(*types) - 1
			}
			ix.add(pos, sig)
			result[i] = (*types)[pos]
		}
		unlabeled = rest
	}
}

// AppendNodeTypes adds every non-empty candidate as its own type with
// no merging at all. It exists for the merge-step ablation (§4.3
// credits cluster refinement to Algorithm 2; this is the "off"
// switch) and returns the per-candidate type mapping like
// ExtractNodeTypes.
func (s *Schema) AppendNodeTypes(cands []*NodeType) []*NodeType {
	result := make([]*NodeType, len(cands))
	for i, c := range cands {
		if c.Instances == 0 {
			continue
		}
		c.Abstract = c.Token == ""
		// Bypass the token index: duplicates are expected here.
		c.ID = s.nextID
		s.nextID++
		s.NodeTypes = append(s.NodeTypes, c)
		result[i] = c
	}
	return result
}

// AppendEdgeTypes is the edge counterpart of AppendNodeTypes.
func (s *Schema) AppendEdgeTypes(cands []*EdgeType) []*EdgeType {
	result := make([]*EdgeType, len(cands))
	for i, c := range cands {
		if c.Instances == 0 {
			continue
		}
		c.Abstract = c.Token == ""
		c.settle()
		c.ID = s.nextID
		s.nextID++
		s.EdgeTypes = append(s.EdgeTypes, c)
		result[i] = c
	}
	return result
}

// UnifyNodeTypes merges src into dst (union of labels, properties and
// instance counts per Lemma 1) and removes src from the schema. It is
// the primitive behind label alignment (integration scenarios where
// distinct labels denote one conceptual entity, §6 future work). dst
// keeps its ID and token; src's token is re-indexed to dst so later
// batches carrying src's label set merge into the unified type.
func (s *Schema) UnifyNodeTypes(dst, src *NodeType) {
	if dst == src {
		return
	}
	dst.mergeCore(&src.Type)
	if src.Token != "" && s.byNodeToken[src.Token] == src {
		s.byNodeToken[src.Token] = dst
	}
	for i, nt := range s.NodeTypes {
		if nt == src {
			s.NodeTypes = append(s.NodeTypes[:i], s.NodeTypes[i+1:]...)
			break
		}
	}
}
