package pg

// io_ref_test.go is the JSONL codec as it was before io.go was written
// by hand: encoding/json over a wire struct. It is kept, names prefixed
// "ref", as the oracle FuzzJSONLMatchesRef holds io.go to.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// refJSONElement is the JSONL wire form of one node or edge. Property
// values are written with an explicit type tag so round-trips preserve
// kinds exactly; untagged plain JSON values (strings, numbers,
// booleans) are also accepted on input — JSON strings are inferred
// with the ParseLexical priority rules, numbers map to int or float,
// booleans to bool.
type refJSONElement struct {
	Kind   string                  `json:"kind"` // "node" | "edge"
	ID     int64                   `json:"id"`
	Labels []string                `json:"labels,omitempty"`
	Src    int64                   `json:"src,omitempty"`
	Dst    int64                   `json:"dst,omitempty"`
	Props  map[string]refJSONValue `json:"props,omitempty"`
}

type refJSONValue struct {
	T string `json:"t"`
	V string `json:"v"`
}

// tagged distinguishes the object wire form (explicit tag, parsed
// strictly) from an untagged plain JSON scalar (inferred).
type refTaggedValue struct {
	refJSONValue
	untagged Value // set when the wire form was a plain scalar
}

// UnmarshalJSON accepts either the tagged {"t":...,"v":...} object
// form or a plain JSON scalar: strings run through the ParseLexical
// inference rules, numbers become int (no fraction/exponent) or
// float, booleans become bool.
func (tv *refTaggedValue) UnmarshalJSON(b []byte) error {
	if len(b) == 0 {
		return fmt.Errorf("empty property value")
	}
	switch b[0] {
	case '{':
		return json.Unmarshal(b, &tv.refJSONValue)
	case '"':
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		tv.untagged = refParseLexical(s)
		return nil
	case 't', 'f':
		var v bool
		if err := json.Unmarshal(b, &v); err != nil {
			return err
		}
		tv.untagged = Bool(v)
		return nil
	case 'n': // null
		return fmt.Errorf("null is not a valid property value")
	default:
		var n json.Number
		if err := json.Unmarshal(b, &n); err != nil {
			return err
		}
		if i, err := n.Int64(); err == nil {
			tv.untagged = Int(i)
			return nil
		}
		f, err := n.Float64()
		if err != nil {
			return err
		}
		tv.untagged = Float(f)
		return nil
	}
}

func refToJSONValue(v Value) refJSONValue {
	var t string
	switch v.Kind() {
	case KindInt:
		t = "int"
	case KindFloat:
		t = "float"
	case KindBool:
		t = "bool"
	case KindDate:
		t = "date"
	case KindDateTime:
		t = "datetime"
	default:
		t = "string"
	}
	return refJSONValue{T: t, V: v.Lexical()}
}

// refFromJSONValue parses a tagged wire value strictly per its type tag:
// a value whose lexical form does not belong to the tagged kind is a
// tag/value mismatch error, never silently re-inferred — so kinds
// survive round-trips exactly (a "float" 5 stays DOUBLE, it does not
// collapse to INT via lexical inference).
func refFromJSONValue(jv refJSONValue) (Value, error) {
	switch jv.T {
	case "int":
		i, err := strconv.ParseInt(jv.V, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value %q does not match type tag \"int\"", jv.V)
		}
		return Int(i), nil
	case "float":
		f, err := strconv.ParseFloat(jv.V, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value %q does not match type tag \"float\"", jv.V)
		}
		return Float(f), nil
	case "bool":
		switch jv.V {
		case "true":
			return Bool(true), nil
		case "false":
			return Bool(false), nil
		}
		return Value{}, fmt.Errorf("value %q does not match type tag \"bool\"", jv.V)
	case "date":
		t, err := time.Parse("2006-01-02", jv.V)
		if err != nil {
			return Value{}, fmt.Errorf("value %q does not match type tag \"date\"", jv.V)
		}
		return Date(t), nil
	case "datetime":
		if t, err := time.Parse(time.RFC3339, jv.V); err == nil {
			return DateTime(t), nil
		}
		if t, err := time.Parse("2006-01-02 15:04:05", jv.V); err == nil {
			return DateTime(t), nil
		}
		return Value{}, fmt.Errorf("value %q does not match type tag \"datetime\"", jv.V)
	case "string", "":
		// The tagless object form {"v":"..."} has always meant string
		// (only plain JSON scalars go through inference), so existing
		// hand-written files keep their kinds.
		return Str(jv.V), nil
	default:
		return Value{}, fmt.Errorf("unknown value type tag %q", jv.T)
	}
}

// refWriteJSONL serializes the graph as one JSON object per line: all
// nodes first, then all edges. The format is the library's native
// interchange format for the CLI, and the nodes-before-edges order is
// what makes streamed re-ingestion (JSONLStream) resolve every edge
// endpoint from elements already seen.
func refWriteJSONL(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range g.Nodes() {
		n := &g.Nodes()[i]
		el := refJSONElement{Kind: "node", ID: int64(n.ID), Labels: n.Labels}
		if len(n.Props) > 0 {
			el.Props = make(map[string]refJSONValue, len(n.Props))
			for k, v := range n.Props.All() {
				el.Props[k] = refToJSONValue(v)
			}
		}
		if err := enc.Encode(&el); err != nil {
			return err
		}
	}
	for i := range g.Edges() {
		e := &g.Edges()[i]
		el := refJSONElement{Kind: "edge", ID: int64(e.ID), Labels: e.Labels,
			Src: int64(e.Src), Dst: int64(e.Dst)}
		if len(e.Props) > 0 {
			el.Props = make(map[string]refJSONValue, len(e.Props))
			for k, v := range e.Props.All() {
				el.Props[k] = refToJSONValue(v)
			}
		}
		if err := enc.Encode(&el); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// refJSONLElement is one decoded JSONL line: the raw wire element plus
// its properties converted to typed values.
type refJSONLElement struct {
	kind   string // "node" | "edge"
	id     ID
	labels []string
	src    ID
	dst    ID
	props  map[string]Value
}

// refJSONLDecoder decodes the JSONL wire format one element at a time,
// tracking line numbers for errors. It is the single record→element
// decoding path shared by the one-shot loader (refReadJSONL) and the
// streaming loader (JSONLStream), so both accept exactly the same
// inputs and reject exactly the same malformed lines.
type refJSONLDecoder struct {
	sc   *bufio.Scanner
	line int
}

func newRefJSONLDecoder(r io.Reader) *refJSONLDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	return &refJSONLDecoder{sc: sc}
}

// next decodes the next non-empty line, or returns io.EOF at the end
// of the stream. Errors carry the 1-based line number.
func (d *refJSONLDecoder) next() (refJSONLElement, error) {
	for d.sc.Scan() {
		d.line++
		raw := d.sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var el struct {
			Kind   string                    `json:"kind"`
			ID     int64                     `json:"id"`
			Labels []string                  `json:"labels"`
			Src    int64                     `json:"src"`
			Dst    int64                     `json:"dst"`
			Props  map[string]refTaggedValue `json:"props"`
		}
		if err := json.Unmarshal(raw, &el); err != nil {
			return refJSONLElement{}, fmt.Errorf("pg: line %d: %w", d.line, err)
		}
		out := refJSONLElement{
			kind:   el.Kind,
			id:     ID(el.ID),
			labels: el.Labels,
			src:    ID(el.Src),
			dst:    ID(el.Dst),
		}
		if el.Kind != "node" && el.Kind != "edge" {
			return refJSONLElement{}, fmt.Errorf("pg: line %d: unknown element kind %q", d.line, el.Kind)
		}
		if len(el.Props) > 0 {
			out.props = make(map[string]Value, len(el.Props))
			for k, tv := range el.Props {
				if tv.untagged.IsValid() {
					out.props[k] = tv.untagged
					continue
				}
				v, err := refFromJSONValue(tv.refJSONValue)
				if err != nil {
					return refJSONLElement{}, fmt.Errorf("pg: line %d, property %q: %w", d.line, k, err)
				}
				out.props[k] = v
			}
		}
		return out, nil
	}
	if err := d.sc.Err(); err != nil {
		return refJSONLElement{}, err
	}
	return refJSONLElement{}, io.EOF
}

// addTo inserts a decoded element into the graph, wrapping insertion
// errors (duplicate IDs, missing endpoints) with the source line.
func (d *refJSONLDecoder) addTo(g *Graph, el refJSONLElement) error {
	var err error
	switch el.kind {
	case "node":
		err = g.PutNode(el.id, el.labels, PropsOf(el.props))
	case "edge":
		err = g.PutEdge(el.id, el.labels, el.src, el.dst, PropsOf(el.props))
	}
	if err != nil {
		return fmt.Errorf("pg: line %d: %w", d.line, err)
	}
	return nil
}

// refReadJSONL parses a JSONL stream produced by refWriteJSONL (or
// hand-written in the same shape) into a new Graph. Edges may appear
// before their endpoints; dangling edges are accepted during the read
// and validated afterwards unless allowDangling is set.
func refReadJSONL(r io.Reader, allowDangling bool) (*Graph, error) {
	g := NewGraph()
	g.AllowDanglingEdges(true)
	dec := newRefJSONLDecoder(r)
	for {
		el, err := dec.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := dec.addTo(g, el); err != nil {
			return nil, err
		}
	}
	if !allowDangling {
		for i := range g.Edges() {
			e := &g.Edges()[i]
			if g.Node(e.Src) == nil {
				return nil, fmt.Errorf("pg: edge %d references missing source node %d", e.ID, e.Src)
			}
			if g.Node(e.Dst) == nil {
				return nil, fmt.Errorf("pg: edge %d references missing target node %d", e.ID, e.Dst)
			}
		}
		g.AllowDanglingEdges(false)
	}
	return g, nil
}

// refParseLexical is ParseLexical as it was: every parser tried in
// turn, whatever the text.
func refParseLexical(s string) Value {
	if s == "" {
		return Str(s)
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f)
	}
	switch s {
	case "true", "false", "TRUE", "FALSE", "True", "False":
		return Bool(strings.EqualFold(s, "true"))
	}
	if t, err := time.Parse("2006-01-02", s); err == nil {
		return Date(t)
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return DateTime(t)
	}
	if t, err := time.Parse("2006-01-02 15:04:05", s); err == nil {
		return DateTime(t)
	}
	return Str(s)
}
