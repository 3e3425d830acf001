package schema

// clone.go copies schemas. The serving layer publishes an immutable
// snapshot of the evolving schema after every write batch
// (copy-on-publish), so concurrent readers never observe a
// half-merged schema; that requires a copy that shares no mutable
// state with the original. A copy takes each type's bounded head —
// labels, property statistics, endpoint tokens — as fresh maps, and
// shares the immutable leaves of its degree tallies (degrees.go),
// which grow with the database. Cloning costs O(types × properties).
// A write after it copies, per tally it touches, the root of the
// tally's column (one header per leaf of at most 64 entries), its
// histogram and each leaf it writes, so a write and its publish cost
// O(types × properties + edges changed × 64 + Σ touched tallies'
// Len/64).

// Clone returns a deep copy of the stat: no maps or slices are shared
// with the receiver.
func (s *PropStat) Clone() *PropStat {
	cp := *s
	if s.Distinct != nil {
		cp.Distinct = make(map[string]int, len(s.Distinct))
		for v, c := range s.Distinct {
			cp.Distinct[v] = c
		}
	}
	if s.Enum != nil {
		cp.Enum = append([]string(nil), s.Enum...)
	}
	return &cp
}

// cloneCore copies the shared Type core into dst.
func (t *Type) cloneCore(dst *Type) {
	*dst = *t
	dst.Labels = make(map[string]int, len(t.Labels))
	for l, c := range t.Labels {
		dst.Labels[l] = c
	}
	dst.Props = make(map[string]*PropStat, len(t.Props))
	for k, ps := range t.Props {
		dst.Props[k] = ps.Clone()
	}
}

// Clone returns a deep copy of the node type.
func (t *NodeType) Clone() *NodeType {
	cp := &NodeType{}
	t.Type.cloneCore(&cp.Type)
	return cp
}

// Clone returns a copy of the edge type that shares its degree
// tallies' leaves, and nothing mutable, with the receiver.
func (t *EdgeType) Clone() *EdgeType {
	cp := &EdgeType{Cardinality: t.Cardinality}
	t.Type.cloneCore(&cp.Type)
	cp.SrcTokens = make(map[string]bool, len(t.SrcTokens))
	for k := range t.SrcTokens {
		cp.SrcTokens[k] = true
	}
	cp.DstTokens = make(map[string]bool, len(t.DstTokens))
	for k := range t.DstTokens {
		cp.DstTokens[k] = true
	}
	cp.SrcDeg, cp.DstDeg = t.SrcDeg.Clone(), t.DstDeg.Clone()
	return cp
}

// Clone returns a copy of the schema: every type head, statistic and
// index is copied, degree tallies share their immutable leaves, and
// the ID counter carries over, so the copy and the original evolve
// (or are served) independently of each other.
func (s *Schema) Clone() *Schema {
	c := New()
	c.nextID = s.nextID
	c.NodeTypes = make([]*NodeType, len(s.NodeTypes))
	for i, nt := range s.NodeTypes {
		cp := nt.Clone()
		c.NodeTypes[i] = cp
		if cp.Token != "" {
			c.byNodeToken[cp.Token] = cp
		}
	}
	c.EdgeTypes = make([]*EdgeType, len(s.EdgeTypes))
	for i, et := range s.EdgeTypes {
		cp := et.Clone()
		c.EdgeTypes[i] = cp
		if cp.Token != "" {
			c.byEdgeToken[cp.Token] = append(c.byEdgeToken[cp.Token], cp)
		}
	}
	return c
}
