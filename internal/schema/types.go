// Package schema implements the PG-Schema-style schema model of §3
// (node types, edge types, schema graph) and the type-extraction and
// monotone merging machinery of §4.3 and §4.6 (Algorithm 2).
//
// Types accumulate occurrence statistics (instance counts, per-property
// presence counts and value-kind tallies, endpoint degrees) as clusters
// merge into them, so that the post-processing inferences of §4.4
// (constraints, data types, cardinalities) can run at any point of an
// incremental discovery without revisiting earlier batches.
package schema

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"github.com/pghive/pghive/internal/pg"
)

// Cardinality classifies an edge type's source→target multiplicity
// (§4.4): the pair (max out-degree, max in-degree) is interpreted as
// 1:1, N:1, 1:N or M:N. Lower bounds are not determined (the paper
// leaves distinguishing 0 from 1 as future work).
type Cardinality uint8

const (
	// CardUnknown means cardinalities have not been computed.
	CardUnknown Cardinality = iota
	// CardOneToOne is (1, 1): each source connects to at most one
	// target and vice versa.
	CardOneToOne
	// CardManyToOne is (>1 in-degree): many sources per target... see
	// String for the paper's notation.
	CardManyToOne
	// CardOneToMany is (>1 out-degree).
	CardOneToMany
	// CardManyToMany is (>1, >1).
	CardManyToMany
)

// String renders the paper's notation.
func (c Cardinality) String() string {
	switch c {
	case CardOneToOne:
		return "1:1"
	case CardManyToOne:
		return "N:1"
	case CardOneToMany:
		return "1:N"
	case CardManyToMany:
		return "M:N"
	default:
		return "?"
	}
}

// EnumTrackLimit caps how many distinct string values a PropStat
// tracks; beyond it, the property is considered free-form and the
// tracker shuts off (DistinctOverflow).
const EnumTrackLimit = 16

// PropStat accumulates the evidence about one property key within one
// type: how many instances carry it, the tally of observed value
// kinds, integer bounds, and (up to a cap) the distinct string values.
// Mandatory, DataType, Enum and IntRange are filled in by the infer
// package.
type PropStat struct {
	// Count is the number of instances of the type that carry the key.
	Count int
	// Kinds tallies the dynamic kind of every observed value,
	// indexed by pg.Kind.
	Kinds [pg.KindString + 1]int
	// MinInt / MaxInt bound the observed integer values (valid when
	// Kinds[KindInt] > 0).
	MinInt, MaxInt int64
	// Distinct tracks distinct string values up to EnumTrackLimit;
	// DistinctOverflow is set once the limit is exceeded and Distinct
	// is released.
	Distinct         map[string]int
	DistinctOverflow bool

	// Mandatory is true when the property appears in every instance
	// (f_T(p) = 1, §4.4). Derived by infer.Finalize.
	Mandatory bool
	// DataType is the inferred property data type. Derived by
	// infer.Finalize.
	DataType pg.Kind
	// Enum holds the closed value set of an enumerated string
	// property (paper §4.4 future work), nil when not enumerated.
	// Derived by infer.Finalize.
	Enum []string
	// HasIntRange marks an integer property whose observed bounds
	// [MinInt, MaxInt] are reported as a range constraint. Derived by
	// infer.Finalize.
	HasIntRange bool
}

// observeValue folds one concrete value into the stat.
func (s *PropStat) observeValue(v pg.Value) {
	s.Count++
	s.Kinds[v.Kind()]++
	switch v.Kind() {
	case pg.KindInt:
		iv := v.AsInt()
		if s.Kinds[pg.KindInt] == 1 {
			s.MinInt, s.MaxInt = iv, iv
		} else {
			if iv < s.MinInt {
				s.MinInt = iv
			}
			if iv > s.MaxInt {
				s.MaxInt = iv
			}
		}
	case pg.KindString:
		if s.DistinctOverflow {
			return
		}
		if s.Distinct == nil {
			s.Distinct = map[string]int{}
		}
		s.Distinct[v.AsString()]++
		if len(s.Distinct) > EnumTrackLimit {
			s.Distinct = nil
			s.DistinctOverflow = true
		}
	}
}

// merge folds o's evidence into s.
func (s *PropStat) merge(o *PropStat) {
	hadInts := s.Kinds[pg.KindInt] > 0
	s.Count += o.Count
	for k := range o.Kinds {
		s.Kinds[k] += o.Kinds[k]
	}
	if o.Kinds[pg.KindInt] > 0 {
		if !hadInts {
			s.MinInt, s.MaxInt = o.MinInt, o.MaxInt
		} else {
			if o.MinInt < s.MinInt {
				s.MinInt = o.MinInt
			}
			if o.MaxInt > s.MaxInt {
				s.MaxInt = o.MaxInt
			}
		}
	}
	if o.DistinctOverflow {
		s.Distinct = nil
		s.DistinctOverflow = true
	} else if !s.DistinctOverflow {
		for v, c := range o.Distinct {
			if s.Distinct == nil {
				s.Distinct = map[string]int{}
			}
			s.Distinct[v] += c
			if len(s.Distinct) > EnumTrackLimit {
				s.Distinct = nil
				s.DistinctOverflow = true
				break
			}
		}
	}
}

// Type is the shared core of node and edge types: a label set, an
// instance tally, and per-property statistics (Defs. 3.2, 3.3).
type Type struct {
	// ID is unique within a Schema and stable across merges: merging
	// a candidate into a type keeps the type's ID.
	ID int
	// Labels counts, per label, how many instances carry it; a label
	// is present when its count is positive. Counting (rather than a
	// set) is what makes retraction (deletion support) exact.
	Labels map[string]int
	// Token is the canonical label token the type is indexed under
	// ("" for ABSTRACT types).
	Token string
	// Abstract marks types created from unlabeled clusters that could
	// not be merged anywhere (§4.3, PG-Schema ABSTRACT).
	Abstract bool
	// Instances counts the data elements assigned to the type.
	Instances int
	// Props maps property key to accumulated statistics.
	Props map[string]*PropStat
}

// Name returns a printable type name: the label token, or ABSTRACT_<id>
// for abstract types.
func (t *Type) Name() string {
	if t.Abstract || t.Token == "" {
		return fmt.Sprintf("ABSTRACT_%d", t.ID)
	}
	return t.Token
}

// PropertyKeys returns the type's property keys in sorted order.
func (t *Type) PropertyKeys() []string {
	ks := make([]string, 0, len(t.Props))
	for k := range t.Props {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// SortedLabels returns the label set in sorted order.
func (t *Type) SortedLabels() []string {
	ls := make([]string, 0, len(t.Labels))
	for l, c := range t.Labels {
		if c > 0 {
			ls = append(ls, l)
		}
	}
	sort.Strings(ls)
	return ls
}

// HasLabel reports whether at least one instance carries the label.
func (t *Type) HasLabel(l string) bool { return t.Labels[l] > 0 }

// observe tallies one instance's labels and properties.
func (t *Type) observe(labels []string, props map[string]pg.Value) {
	t.observeShape(labels, 1)
	t.observeProps(props)
}

// observeShape tallies count instances sharing one label set at once —
// the shape-interned bulk form of the label half of observe. Label and
// instance counts are plain sums, so the weighted form is exactly
// equivalent to count repeated observations.
func (t *Type) observeShape(labels []string, count int) {
	t.Instances += count
	for _, l := range labels {
		t.Labels[l] += count
	}
}

// observeProps tallies one instance's property values. Values vary
// within a shape, so the interned builders still observe them per
// element.
func (t *Type) observeProps(props map[string]pg.Value) {
	for k, v := range props {
		ps := t.Props[k]
		if ps == nil {
			ps = &PropStat{}
			t.Props[k] = ps
		}
		ps.observeValue(v)
	}
}

// mergeCore folds another type's core statistics into t (Lemma 1:
// labels and properties are unioned, so nothing is lost).
func (t *Type) mergeCore(o *Type) {
	t.Instances += o.Instances
	for l, c := range o.Labels {
		t.Labels[l] += c
	}
	for k, ps := range o.Props {
		if mine := t.Props[k]; mine != nil {
			mine.merge(ps)
		} else {
			cp := *ps
			if ps.Distinct != nil {
				cp.Distinct = make(map[string]int, len(ps.Distinct))
				for v, c := range ps.Distinct {
					cp.Distinct[v] = c
				}
			}
			t.Props[k] = &cp
		}
	}
}

// NodeType is a discovered node type (Def. 3.2).
type NodeType struct {
	Type
}

// EdgeType is a discovered edge type (Def. 3.3): the core plus
// endpoint connectivity and degree evidence for cardinalities.
type EdgeType struct {
	Type
	// SrcTokens and DstTokens are the unions of endpoint label tokens
	// observed across merged clusters (ρ_e; the set form accommodates
	// patterns with differing endpoints that merge into one type).
	SrcTokens map[string]bool
	DstTokens map[string]bool
	// SrcDeg and DstDeg accumulate, per concrete endpoint node, how
	// many instances of this edge type attach to it; the maxima drive
	// cardinality inference (§4.4).
	SrcDeg map[pg.ID]int
	DstDeg map[pg.ID]int
	// Cardinality is derived by infer.Finalize.
	Cardinality Cardinality
}

// SortedSrcTokens returns the source endpoint tokens in sorted order.
func (t *EdgeType) SortedSrcTokens() []string { return sortedSet(t.SrcTokens) }

// SortedDstTokens returns the target endpoint tokens in sorted order.
func (t *EdgeType) SortedDstTokens() []string { return sortedSet(t.DstTokens) }

// sortedSet is nil for an empty set (the canonical persisted form).
func sortedSet(m map[string]bool) []string { return slices.Sorted(maps.Keys(m)) }

// MaxOutDegree returns max over sources of the per-source instance
// count (max_out(ρ), §4.4).
func (t *EdgeType) MaxOutDegree() int { return maxDeg(t.SrcDeg) }

// MaxInDegree returns max over targets of the per-target instance
// count (max_in(ρ), §4.4).
func (t *EdgeType) MaxInDegree() int { return maxDeg(t.DstDeg) }

func maxDeg(m map[pg.ID]int) int {
	max := 0
	for _, d := range m {
		if d > max {
			max = d
		}
	}
	return max
}

func (t *EdgeType) mergeEdge(o *EdgeType) {
	t.mergeCore(&o.Type)
	for k := range o.SrcTokens {
		t.SrcTokens[k] = true
	}
	for k := range o.DstTokens {
		t.DstTokens[k] = true
	}
	for id, d := range o.SrcDeg {
		t.SrcDeg[id] += d
	}
	for id, d := range o.DstDeg {
		t.DstDeg[id] += d
	}
}

// Schema is a schema graph (Def. 3.4): node types, edge types, and —
// through each edge type's endpoint token sets — the connectivity
// function ρ_s.
type Schema struct {
	NodeTypes []*NodeType
	EdgeTypes []*EdgeType

	byNodeToken map[string]*NodeType
	// byEdgeToken maps a label token to the edge types carrying it;
	// several types may share a token when their endpoint sets are
	// disjoint (e.g. the connectome datasets, where Table 2 reports
	// more edge types than edge labels).
	byEdgeToken map[string][]*EdgeType
	nextID      int
}

// New returns an empty schema.
func New() *Schema {
	return &Schema{
		byNodeToken: map[string]*NodeType{},
		byEdgeToken: map[string][]*EdgeType{},
	}
}

// NodeTypeByToken returns the labeled node type with the given
// canonical label token, or nil.
func (s *Schema) NodeTypeByToken(tok string) *NodeType {
	if tok == "" {
		return nil
	}
	return s.byNodeToken[tok]
}

// EdgeTypeByToken returns the first labeled edge type with the given
// canonical label token, or nil. Use EdgeTypesByToken when a label is
// shared by several endpoint-distinguished types.
func (s *Schema) EdgeTypeByToken(tok string) *EdgeType {
	ts := s.byEdgeToken[tok]
	if tok == "" || len(ts) == 0 {
		return nil
	}
	return ts[0]
}

// EdgeTypesByToken returns all labeled edge types with the given
// canonical label token.
func (s *Schema) EdgeTypesByToken(tok string) []*EdgeType {
	if tok == "" {
		return nil
	}
	return s.byEdgeToken[tok]
}

// AbstractNodeTypes returns the current abstract node types.
func (s *Schema) AbstractNodeTypes() []*NodeType {
	var out []*NodeType
	for _, t := range s.NodeTypes {
		if t.Abstract {
			out = append(out, t)
		}
	}
	return out
}

// AbstractEdgeTypes returns the current abstract edge types.
func (s *Schema) AbstractEdgeTypes() []*EdgeType {
	var out []*EdgeType
	for _, t := range s.EdgeTypes {
		if t.Abstract {
			out = append(out, t)
		}
	}
	return out
}

// NextTypeID returns the ID the next extracted type will receive.
// IDs are never reused: retraction can Compact a type away without
// lowering the counter, so the gap persists — checkpoints record the
// counter to keep resumed runs bit-identical to uninterrupted ones.
func (s *Schema) NextTypeID() int { return s.nextID }

// SetNextTypeID raises the ID counter to at least id (it never
// lowers it — reusing a live type's ID would corrupt the schema).
// Checkpoint restore calls it because the serialized schema alone
// cannot distinguish "counter is max ID + 1" from "counter moved past
// IDs whose types were since retracted and compacted away".
func (s *Schema) SetNextTypeID(id int) {
	if id > s.nextID {
		s.nextID = id
	}
}

func (s *Schema) addNodeType(t *NodeType) {
	t.ID = s.nextID
	s.nextID++
	s.NodeTypes = append(s.NodeTypes, t)
	if t.Token != "" {
		s.byNodeToken[t.Token] = t
	}
}

func (s *Schema) addEdgeType(t *EdgeType) {
	t.ID = s.nextID
	s.nextID++
	s.EdgeTypes = append(s.EdgeTypes, t)
	if t.Token != "" {
		s.byEdgeToken[t.Token] = append(s.byEdgeToken[t.Token], t)
	}
}

// newType builds an empty core Type.
func newType() Type {
	return Type{Labels: map[string]int{}, Props: map[string]*PropStat{}}
}

// NewNodeCandidate returns an empty node candidate for manual
// construction (tests and loaders; the pipeline uses
// BuildNodeCandidates).
func NewNodeCandidate() *NodeType { return &NodeType{Type: newType()} }

// NewEdgeCandidate returns an empty edge candidate.
func NewEdgeCandidate() *EdgeType { return newEdgeCandidate(0) }

// newEdgeCandidate returns an empty edge candidate whose degree maps
// are sized for endpoints distinct endpoint nodes.
func newEdgeCandidate(endpoints int) *EdgeType {
	return &EdgeType{
		Type:      newType(),
		SrcTokens: map[string]bool{},
		DstTokens: map[string]bool{},
		SrcDeg:    make(map[pg.ID]int, endpoints),
		DstDeg:    make(map[pg.ID]int, endpoints),
	}
}
