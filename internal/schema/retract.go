package schema

// retract.go implements deletion support — the paper's §4.6 leaves
// "handling updates and deletions" as future work, but because every
// type statistic in this implementation is an additive tally
// (instance counts, per-property counts and kind tallies, distinct
// string values, endpoint degrees), retracting an element is exact:
// subtract what observation added. Two approximations remain, both
// sound over-approximations: integer min/max bounds are not tightened
// (they stay valid upper/lower envelopes), and endpoint token sets
// keep tokens whose last witness was deleted.

import "github.com/pghive/pghive/internal/pg"

// retractValue reverses observeValue for one concrete value.
func (s *PropStat) retractValue(v pg.Value) {
	s.Count--
	s.Kinds[v.Kind()]--
	if v.Kind() == pg.KindString && !s.DistinctOverflow && s.Distinct != nil {
		sv := v.AsString()
		if s.Distinct[sv] > 0 {
			s.Distinct[sv]--
			if s.Distinct[sv] == 0 {
				delete(s.Distinct, sv)
			}
		}
		// Release the tracker when its last value goes: persistence
		// canonicalizes an empty tracker to "absent" (omitempty), so
		// keeping an empty map here would make the in-memory state
		// diverge from its own checkpoint round trip.
		if len(s.Distinct) == 0 {
			s.Distinct = nil
		}
	}
}

// Retract reverses one observation of an instance with the given
// labels and properties. The caller must pass the same labels and
// property values the instance carried when it was merged in;
// retracting data that was never observed corrupts the statistics.
func (t *Type) Retract(labels []string, props pg.Props) {
	t.Instances--
	for _, l := range labels {
		if t.Labels[l] > 0 {
			t.Labels[l]--
			if t.Labels[l] == 0 {
				delete(t.Labels, l)
			}
		}
	}
	for _, p := range props {
		ps := t.Props[p.Key]
		if ps == nil {
			continue
		}
		ps.retractValue(p.Val)
		if ps.Count <= 0 {
			delete(t.Props, p.Key)
		}
	}
}

// RetractEdge reverses one edge observation, including the degree
// evidence of its endpoints.
func (t *EdgeType) RetractEdge(labels []string, props pg.Props, src, dst pg.ID) {
	t.Retract(labels, props)
	t.SrcDeg.Dec(src)
	t.DstDeg.Dec(dst)
}

// Compact removes node and edge types whose instance count reached
// zero, cleaning the token indexes. It returns the removed types.
func (s *Schema) Compact() (removedNodes []*NodeType, removedEdges []*EdgeType) {
	keptN := s.NodeTypes[:0]
	for _, nt := range s.NodeTypes {
		if nt.Instances > 0 {
			keptN = append(keptN, nt)
			continue
		}
		removedNodes = append(removedNodes, nt)
		if nt.Token != "" && s.byNodeToken[nt.Token] == nt {
			delete(s.byNodeToken, nt.Token)
		}
	}
	s.NodeTypes = keptN

	keptE := s.EdgeTypes[:0]
	for _, et := range s.EdgeTypes {
		if et.Instances > 0 {
			keptE = append(keptE, et)
			continue
		}
		removedEdges = append(removedEdges, et)
		if et.Token != "" {
			list := s.byEdgeToken[et.Token]
			for i, x := range list {
				if x == et {
					list = append(list[:i], list[i+1:]...)
					break
				}
			}
			if len(list) == 0 {
				delete(s.byEdgeToken, et.Token)
			} else {
				s.byEdgeToken[et.Token] = list
			}
		}
	}
	s.EdgeTypes = keptE
	return removedNodes, removedEdges
}
