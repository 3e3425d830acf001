package schema

// persist.go serializes a Schema — including the occurrence
// statistics that power incremental merging and §4.4 inference — as
// JSON, so a discovery session can be suspended and resumed: load the
// schema, keep feeding batches, and constraints stay exact.
//
// Two forms share one type. Persisted, what Persist returns, holds
// every type's head and no degree tallies: it is O(types ×
// properties), and a checkpoint image carries it beside its own
// collection of tallies (core.Tallies). The schema document, what
// WriteJSON writes and ReadJSON reads, is the same value with each
// edge type's tallies inside it as srcDeg/dstDeg objects keyed by
// decimal node ID.

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

// Persisted is the schema's heads, as the durability plane
// (core.Image, core.ImageDelta) holds and carries them; only package
// schema looks inside. It shares no memory with any live Schema
// (Persist and Restore copy every map and slice) and is never modified
// once built. Persist emits the canonical form — an empty collection
// is nil — so a captured schema and the same schema decoded from its
// own bytes are deeply equal.
type Persisted struct {
	Version   int        `json:"version"`
	NodeTypes []jsonType `json:"nodeTypes"`
	EdgeTypes []jsonType `json:"edgeTypes"`
}

const persistVersion = 1

// nodeKey is a node ID keying a degree tally in the schema document.
// In JSON it is its canonical decimal spelling, a map key, and decodes
// from nothing else: "012", " 12" and "12abc" are refused, not folded
// onto node 12 in map iteration order.
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

// DegreeCounts copies a tally into a map of node counts, nil when it is
// empty.
func DegreeCounts[K ~int64](d Degrees) map[K]int {
	if d.Len() == 0 {
		return nil
	}
	out := make(map[K]int, d.Len())
	for id, n := range d.All() {
		out[K(id)] = n
	}
	return out
}

// DegreesOf builds a tally from node counts in bulk. A tally holds no
// count below one, so such a count is corruption.
func DegreesOf[K ~int64](m map[K]int) (Degrees, error) {
	e := make([]degEntry, 0, len(m))
	for k, n := range m {
		if n < 1 {
			return Degrees{}, fmt.Errorf("degree %d for node %d", n, k)
		}
		e = append(e, degEntry{pg.ID(k), n})
	}
	slices.SortFunc(e, byNode)
	return packLeaves(e), nil
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

// Persist captures the schema's heads as a Persisted value in
// canonical form: no degree tallies.
func Persist(s *Schema) *Persisted {
	p := &Persisted{Version: persistVersion}
	for _, nt := range s.NodeTypes {
		p.NodeTypes = append(p.NodeTypes, typeToJSON(&nt.Type))
	}
	for _, et := range s.EdgeTypes {
		jt := typeToJSON(&et.Type)
		jt.SrcTokens, jt.DstTokens = et.SortedSrcTokens(), et.SortedDstTokens()
		jt.Cardinality = uint8(et.Cardinality)
		p.EdgeTypes = append(p.EdgeTypes, jt)
	}
	return p
}

// WriteJSON serializes the schema as the document: heads and tallies.
func WriteJSON(w io.Writer, s *Schema) error {
	p := Persist(s)
	for i, et := range s.EdgeTypes {
		p.EdgeTypes[i].SrcDeg, p.EdgeTypes[i].DstDeg = DegreeCounts[nodeKey](et.SrcDeg), DegreeCounts[nodeKey](et.DstDeg)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
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
	return p.restore(true)
}

// Restore builds a live schema, token indexes and ID counter included,
// with empty degree tallies: the heads Persist captured. Tallies in it
// are refused; they belong to the schema document alone.
func (p *Persisted) Restore() (*Schema, error) { return p.restore(false) }

// restore builds the live schema, reading the tallies of a document.
func (p *Persisted) restore(document bool) (*Schema, error) {
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
		switch {
		case document:
			if et.SrcDeg, err = DegreesOf(jt.SrcDeg); err == nil {
				et.DstDeg, err = DegreesOf(jt.DstDeg)
			}
		case jt.SrcDeg != nil || jt.DstDeg != nil:
			err = fmt.Errorf("degree tallies outside the schema document")
		}
		if err != nil {
			return nil, fmt.Errorf("schema: edge type %d: %w", jt.ID, err)
		}
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
