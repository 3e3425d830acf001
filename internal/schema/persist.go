package schema

// persist.go serializes a Schema — including the occurrence
// statistics that power incremental merging and §4.4 inference — as
// JSON, so a discovery session can be suspended and resumed: load the
// schema, keep feeding batches, and constraints stay exact.

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"

	"github.com/pghive/pghive/internal/pg"
)

type jsonProp struct {
	Count            int            `json:"count"`
	Kinds            []int          `json:"kinds"`
	MinInt           int64          `json:"minInt,omitempty"`
	MaxInt           int64          `json:"maxInt,omitempty"`
	Distinct         map[string]int `json:"distinct,omitempty"`
	DistinctOverflow bool           `json:"distinctOverflow,omitempty"`
	Mandatory        bool           `json:"mandatory,omitempty"`
	DataType         uint8          `json:"dataType,omitempty"`
	Enum             []string       `json:"enum,omitempty"`
	HasIntRange      bool           `json:"hasIntRange,omitempty"`
}

type jsonType struct {
	ID        int                 `json:"id"`
	Labels    map[string]int      `json:"labels,omitempty"`
	Token     string              `json:"token,omitempty"`
	Abstract  bool                `json:"abstract,omitempty"`
	Instances int                 `json:"instances"`
	Props     map[string]jsonProp `json:"props,omitempty"`

	// Edge-only fields.
	SrcTokens   []string        `json:"srcTokens,omitempty"`
	DstTokens   []string        `json:"dstTokens,omitempty"`
	SrcDeg      map[nodeKey]int `json:"srcDeg,omitempty"`
	DstDeg      map[nodeKey]int `json:"dstDeg,omitempty"`
	Cardinality uint8           `json:"cardinality,omitempty"`
}

// Persisted is what WriteJSON encodes and ReadJSON decodes, as the
// value the durability plane (core.Image, patch.go) holds and diffs;
// only package schema looks inside. It shares no memory with any live
// Schema (Persist and Restore copy every map and slice) and is never
// modified once built. Persist emits the canonical form — outside the
// degree tallies an empty collection is nil — so a captured type head
// and the same head decoded from its own bytes are deeply equal.
type Persisted struct {
	Version   int        `json:"version"`
	NodeTypes []jsonType `json:"nodeTypes"`
	EdgeTypes []jsonType `json:"edgeTypes"`
}

const persistVersion = 1

// nodeKey is a node ID keying a degree tally. In JSON it is its
// canonical decimal spelling — a map key or, in a patch's tombstone
// list, a string — and decodes from nothing else: "012", " 12" and
// "12abc" are refused, not folded onto node 12 in map iteration order.
type nodeKey pg.ID

func (k nodeKey) MarshalText() ([]byte, error) {
	return strconv.AppendInt(nil, int64(k), 10), nil
}

func (k *nodeKey) UnmarshalText(text []byte) error {
	id, err := strconv.ParseInt(string(text), 10, 64)
	if err != nil || strconv.FormatInt(id, 10) != string(text) {
		return fmt.Errorf("bad degree key %q", text)
	}
	*k = nodeKey(id)
	return nil
}

// canonMap copies a map into its canonical persisted form.
func canonMap(m map[string]int) map[string]int {
	if len(m) == 0 {
		return nil
	}
	return maps.Clone(m)
}

// rekey copies a degree tally between its live and persisted key types.
func rekey[To, From ~int64](m map[From]int) map[To]int {
	out := make(map[To]int, len(m))
	for id, d := range m {
		out[To(id)] = d
	}
	return out
}

func propToJSON(ps *PropStat) jsonProp {
	return jsonProp{
		Count: ps.Count, Kinds: slices.Clone(ps.Kinds[:]),
		MinInt: ps.MinInt, MaxInt: ps.MaxInt,
		Distinct: canonMap(ps.Distinct), DistinctOverflow: ps.DistinctOverflow,
		Mandatory: ps.Mandatory, DataType: uint8(ps.DataType),
		Enum: slices.Clone(ps.Enum), HasIntRange: ps.HasIntRange,
	}
}

func propFromJSON(jp jsonProp) (*PropStat, error) {
	ps := &PropStat{
		Count: jp.Count, MinInt: jp.MinInt, MaxInt: jp.MaxInt,
		DistinctOverflow: jp.DistinctOverflow,
		Mandatory:        jp.Mandatory, DataType: pg.Kind(jp.DataType),
		Enum: slices.Clone(jp.Enum), HasIntRange: jp.HasIntRange,
		Distinct: canonMap(jp.Distinct),
	}
	if len(jp.Kinds) > len(ps.Kinds) {
		return nil, fmt.Errorf("schema: kind tally has %d entries, max %d", len(jp.Kinds), len(ps.Kinds))
	}
	copy(ps.Kinds[:], jp.Kinds)
	return ps, nil
}

func typeToJSON(t *Type) jsonType {
	jt := jsonType{
		ID: t.ID, Labels: canonMap(t.Labels), Token: t.Token,
		Abstract: t.Abstract, Instances: t.Instances,
	}
	if len(t.Props) > 0 {
		jt.Props = make(map[string]jsonProp, len(t.Props))
		for k, ps := range t.Props {
			jt.Props[k] = propToJSON(ps)
		}
	}
	return jt
}

func typeFromJSON(jt jsonType) (Type, error) {
	t := newType()
	t.ID = jt.ID
	t.Token = jt.Token
	t.Abstract = jt.Abstract
	t.Instances = jt.Instances
	maps.Copy(t.Labels, jt.Labels)
	for k, jp := range jt.Props {
		ps, err := propFromJSON(jp)
		if err != nil {
			return t, fmt.Errorf("property %q: %w", k, err)
		}
		t.Props[k] = ps
	}
	return t, nil
}

// Persist captures the schema as a Persisted value in canonical form.
func Persist(s *Schema) *Persisted {
	p := &Persisted{Version: persistVersion}
	for _, nt := range s.NodeTypes {
		p.NodeTypes = append(p.NodeTypes, typeToJSON(&nt.Type))
	}
	for _, et := range s.EdgeTypes {
		jt := edgeHeadToJSON(et)
		jt.SrcDeg, jt.DstDeg = rekey[nodeKey](et.SrcDeg), rekey[nodeKey](et.DstDeg)
		p.EdgeTypes = append(p.EdgeTypes, jt)
	}
	return p
}

// edgeHeadToJSON persists an edge type less its degree tallies: the
// bounded part patch.go compares and re-emits as a unit.
func edgeHeadToJSON(et *EdgeType) jsonType {
	jt := typeToJSON(&et.Type)
	jt.SrcTokens, jt.DstTokens = et.SortedSrcTokens(), et.SortedDstTokens()
	jt.Cardinality = uint8(et.Cardinality)
	return jt
}

// WriteJSON serializes the schema.
func WriteJSON(w io.Writer, s *Schema) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Persist(s))
}

// ReadJSON restores a schema serialized by WriteJSON, rebuilding the
// token indexes and the ID counter. It reads r to its end: bytes after
// the schema are refused, not ignored.
func ReadJSON(r io.Reader) (*Schema, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	var p Persisted
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	return p.Restore()
}

// Restore builds a live schema, token indexes and ID counter included.
func (p *Persisted) Restore() (*Schema, error) {
	if p.Version != persistVersion {
		return nil, fmt.Errorf("schema: unsupported version %d", p.Version)
	}
	s := New()
	for _, jt := range p.NodeTypes {
		core, err := typeFromJSON(jt)
		if err != nil {
			return nil, fmt.Errorf("schema: node type %d: %w", jt.ID, err)
		}
		nt := &NodeType{Type: core}
		s.NodeTypes = append(s.NodeTypes, nt)
		if nt.Token != "" {
			s.byNodeToken[nt.Token] = nt
		}
		s.SetNextTypeID(nt.ID + 1)
	}
	for _, jt := range p.EdgeTypes {
		core, err := typeFromJSON(jt)
		if err != nil {
			return nil, fmt.Errorf("schema: edge type %d: %w", jt.ID, err)
		}
		et := NewEdgeCandidate()
		et.Type, et.Cardinality = core, Cardinality(jt.Cardinality)
		et.SrcDeg, et.DstDeg = rekey[pg.ID](jt.SrcDeg), rekey[pg.ID](jt.DstDeg)
		for _, tok := range jt.SrcTokens {
			et.SrcTokens[tok] = true
		}
		for _, tok := range jt.DstTokens {
			et.DstTokens[tok] = true
		}
		s.EdgeTypes = append(s.EdgeTypes, et)
		if et.Token != "" {
			s.byEdgeToken[et.Token] = append(s.byEdgeToken[et.Token], et)
		}
		s.SetNextTypeID(et.ID + 1)
	}
	return s, nil
}
