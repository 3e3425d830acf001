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
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strconv"

	"github.com/pghive/pghive/internal/keyed"
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

// nodeKey is a node ID keying a degree tally in the schema document
// ReadJSON reads. In JSON it is its canonical decimal spelling, a map
// key, and decodes from nothing else: "012", " 12" and "12abc" are
// refused, not folded onto node 12 in map iteration order.
type nodeKey pg.ID

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

// DegreesOf builds a tally from node counts in bulk. A tally holds no
// count below one, so such a count is corruption.
func DegreesOf[K ~int64](m map[K]int) (Degrees, error) {
	nodes := slices.Sorted(maps.Keys(m))
	for _, k := range nodes {
		if n := m[k]; n < 1 || n > math.MaxInt32 {
			return Degrees{}, fmt.Errorf("degree %d for node %d", n, k)
		}
	}
	return DegreesFrom(keyed.Build(len(nodes), func(i int) pg.ID { return pg.ID(nodes[i]) }, func(i int) int32 { return int32(m[nodes[i]]) }))
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
		p.EdgeTypes = append(p.EdgeTypes, edgeToJSON(et))
	}
	return p
}

func edgeToJSON(et *EdgeType) jsonType {
	jt := typeToJSON(&et.Type)
	jt.SrcTokens, jt.DstTokens = et.SortedSrcTokens(), et.SortedDstTokens()
	jt.Cardinality = uint8(et.Cardinality)
	return jt
}

// WriteJSON serializes the schema as the document: heads and tallies,
// byte for byte what encoding/json's two-space indented encoding of
// the whole document would be. It streams. Each type's head goes
// through encoding/json on its own, and each tally goes from its
// leaves straight to a buffered w, keys in encoding/json's order: the
// bytes of their decimal spelling ("-2" < "0" < "10" < "9"). So it
// holds O(types × properties) and one scratch copy of the largest
// tally, never the document.
func WriteJSON(w io.Writer, s *Schema) error {
	maxLen := 0
	for _, et := range s.EdgeTypes {
		maxLen = max(maxLen, et.SrcDeg.Len(), et.DstDeg.Len())
	}
	d := docWriter{w: bufio.NewWriter(w), scratch: make([]degEntry, 0, maxLen)}
	d.w.WriteString("{\n  \"version\": " + strconv.Itoa(persistVersion) + ",\n  \"nodeTypes\": ")
	d.array(len(s.NodeTypes), func(i int) {
		d.head(typeToJSON(&s.NodeTypes[i].Type))
	})
	d.w.WriteString(",\n  \"edgeTypes\": ")
	d.array(len(s.EdgeTypes), func(i int) {
		et := s.EdgeTypes[i]
		jt := edgeToJSON(et)
		jt.Cardinality = 0 // follows the tallies, as in jsonType
		d.head(jt)
		d.tally("srcDeg", et.SrcDeg)
		d.tally("dstDeg", et.DstDeg)
		if et.Cardinality != CardUnknown {
			d.w.WriteString(",\n      \"cardinality\": " + strconv.Itoa(int(et.Cardinality)))
		}
	})
	d.w.WriteString("\n}\n")
	if d.err != nil {
		return d.err
	}
	return d.w.Flush()
}

// docWriter writes the schema document. A failed write is kept by the
// bufio.Writer and reported by Flush; err is a head encoding refused.
type docWriter struct {
	w       *bufio.Writer
	err     error
	scratch []degEntry // the tally at hand
	line    []byte     // one tally entry's line
	sep     string     // what precedes the next entry's key
}

// typeEnd closes a type object in the document's nodeTypes or
// edgeTypes array.
const typeEnd = "\n    }"

// array writes n types as a document array, null when there are none
// (Persist leaves the slice nil). Each elem writes one type object
// without its closing brace.
func (d *docWriter) array(n int, elem func(i int)) {
	if n == 0 {
		d.w.WriteString("null")
		return
	}
	for i := range n {
		if i == 0 {
			d.w.WriteString("[\n    ")
		} else {
			d.w.WriteString(",\n    ")
		}
		elem(i)
		d.w.WriteString(typeEnd)
	}
	d.w.WriteString("\n  ]")
}

// head writes a type's head at its depth in the document, leaving the
// object open for the fields that follow it: tallies and cardinality,
// which come last in jsonType and are zero in jt. The object has its
// id and instances, so it is never empty.
func (d *docWriter) head(jt jsonType) {
	b, err := json.MarshalIndent(jt, "    ", "  ")
	if err != nil {
		d.err = cmp.Or(d.err, err)
		return
	}
	d.w.Write(b[:len(b)-len(typeEnd)])
}

// tally writes a non-empty tally as the object field key, its entries
// in key order. Node order (All) is that order already within each run
// of IDs of one sign and one spelling length, except that a negative
// run is backwards (-12 < -11, but "-11" < "-12"); and every negative
// key precedes the rest ("-" < "0"). So the writer reverses the
// negative entries and merges the runs of each sign, at most 19.
func (d *docWriter) tally(key string, t Degrees) {
	if t.Len() == 0 {
		return
	}
	e := d.scratch[:0]
	for id, n := range t.All() {
		e = append(e, degEntry{id, n})
	}
	neg, _ := slices.BinarySearchFunc(e, 0, cmpEntry)
	slices.Reverse(e[:neg])
	d.w.WriteString(",\n      \"" + key + "\": {")
	d.sep = "\n        \""
	d.merge(e[:neg])
	d.merge(e[neg:])
	d.w.WriteString("\n      }")
}

// degEntry is one tally entry as the document writer orders it.
type degEntry struct {
	id pg.ID
	n  int
}

func cmpEntry(e degEntry, id pg.ID) int { return cmp.Compare(e.id, id) }

// keyRun is a run of tally entries whose IDs share a sign and a
// spelling length of digits, in ascending magnitude: e[next:end].
type keyRun struct{ next, end, digits int }

// merge writes entries of one sign, in ascending magnitude, in key
// order. Two run heads compare as their digits padded with zeros to
// 19, which fit a uint64; equal padded spellings mean the shorter is a
// prefix of the other, and a prefix comes first.
func (d *docWriter) merge(e []degEntry) {
	var buf [19]keyRun // one per spelling length
	runs := buf[:0]
	for i := 0; i < len(e); {
		r := keyRun{next: i, digits: 1}
		for r.digits < 19 && magnitude(e[i].id) >= pow10[r.digits] {
			r.digits++
		}
		i++
		for i < len(e) && magnitude(e[i].id) < pow10[r.digits] {
			i++
		}
		r.end = i
		runs = append(runs, r)
	}
	padded := func(r keyRun) uint64 { return magnitude(e[r.next].id) * pow10[19-r.digits] }
	for len(runs) > 0 {
		least := 0
		for k := 1; k < len(runs); k++ {
			if p, q := padded(runs[k]), padded(runs[least]); p < q || p == q && runs[k].digits < runs[least].digits {
				least = k
			}
		}
		r := &runs[least]
		d.entry(e[r.next])
		if r.next++; r.next == r.end {
			runs = slices.Delete(runs, least, least+1)
		}
	}
}

// entry writes one tally entry as a line of the tally's object.
func (d *docWriter) entry(x degEntry) {
	b := append(d.line[:0], d.sep...)
	b = strconv.AppendInt(b, int64(x.id), 10)
	b = append(b, "\": "...)
	b = strconv.AppendInt(b, int64(x.n), 10)
	d.w.Write(b)
	d.line, d.sep = b, ",\n        \""
}

// pow10[i] is 10^i; 10^19 is the first power above every int64.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// magnitude is |id|, math.MinInt64 included.
func magnitude(id pg.ID) uint64 {
	if id < 0 {
		return -uint64(id)
	}
	return uint64(id)
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
	// A live schema lists its types in ID order; so does a restored one.
	slices.SortStableFunc(s.NodeTypes, func(a, b *NodeType) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortStableFunc(s.EdgeTypes, func(a, b *EdgeType) int { return cmp.Compare(a.ID, b.ID) })
	return s, nil
}
