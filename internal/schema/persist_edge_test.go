package schema

// Regression tests for persistence edge cases: every state the
// pipeline can actually leave in a schema — including the awkward
// corners (empty schema, overflowed distinct trackers, abstract
// types, edge degree maps, retraction residue) — must read back
// deeply equal to the in-memory original, because checkpoint/restore
// correctness (bit-identical resumption) is built on this layer.

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/pghive/pghive/internal/pg"
)

// roundTrip serializes and re-reads a schema.
func roundTrip(t *testing.T, s *Schema) *Schema {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// assertTypesEqual deep-compares the exported state of every type.
func assertTypesEqual(t *testing.T, want, got *Schema) {
	t.Helper()
	if len(got.NodeTypes) != len(want.NodeTypes) || len(got.EdgeTypes) != len(want.EdgeTypes) {
		t.Fatalf("type counts differ: %d/%d vs %d/%d",
			len(got.NodeTypes), len(got.EdgeTypes), len(want.NodeTypes), len(want.EdgeTypes))
	}
	for i, w := range want.NodeTypes {
		if !reflect.DeepEqual(w, got.NodeTypes[i]) {
			t.Errorf("node type %d (%s) differs after round trip:\nwant %+v\ngot  %+v",
				i, w.Name(), w, got.NodeTypes[i])
		}
	}
	// Degree tallies compare by content: two equal tallies may be cut
	// into leaves differently.
	for i, w := range want.EdgeTypes {
		g := got.EdgeTypes[i]
		wh, gh := *w, *g
		wh.SrcDeg, wh.DstDeg, gh.SrcDeg, gh.DstDeg = Degrees{}, Degrees{}, Degrees{}, Degrees{}
		if !reflect.DeepEqual(wh, gh) ||
			!reflect.DeepEqual(DegreeCounts[nodeKey](w.SrcDeg), DegreeCounts[nodeKey](g.SrcDeg)) ||
			!reflect.DeepEqual(DegreeCounts[nodeKey](w.DstDeg), DegreeCounts[nodeKey](g.DstDeg)) {
			t.Errorf("edge type %d (%s) differs after round trip:\nwant %+v %v %v\ngot  %+v %v %v",
				i, w.Name(), wh, DegreeCounts[nodeKey](w.SrcDeg), DegreeCounts[nodeKey](w.DstDeg),
				gh, DegreeCounts[nodeKey](g.SrcDeg), DegreeCounts[nodeKey](g.DstDeg))
		}
	}
}

func TestPersistEmptySchema(t *testing.T) {
	got := roundTrip(t, New())
	if len(got.NodeTypes) != 0 || len(got.EdgeTypes) != 0 {
		t.Fatalf("empty schema read back %d/%d types", len(got.NodeTypes), len(got.EdgeTypes))
	}
	// An empty restored schema must still be usable as a merge target.
	nt := NewNodeCandidate()
	nt.Token = "T"
	nt.Labels["T"] = 1
	nt.Instances = 1
	got.ExtractNodeTypes([]*NodeType{nt}, DefaultTheta)
	if got.NodeTypeByToken("T") == nil || got.NodeTypes[0].ID != 0 {
		t.Fatal("restored empty schema does not extend cleanly")
	}
}

func TestPersistDistinctOverflow(t *testing.T) {
	s := New()
	nt := NewNodeCandidate()
	nt.Token = "Doc"
	nt.Labels["Doc"] = 20
	nt.Instances = 20
	// Overflowed tracker: Distinct released, flag set.
	nt.Props["body"] = &PropStat{Count: 20, DistinctOverflow: true, DataType: pg.KindString}
	// Still-tracking neighbor for contrast.
	nt.Props["lang"] = &PropStat{Count: 20, Distinct: map[string]int{"en": 12, "de": 8},
		DataType: pg.KindString, Enum: []string{"de", "en"}}
	nt.Props["body"].Kinds[pg.KindString] = 20
	nt.Props["lang"].Kinds[pg.KindString] = 20
	s.AppendNodeTypes([]*NodeType{nt})

	got := roundTrip(t, s)
	assertTypesEqual(t, s, got)
	ps := got.NodeTypes[0].Props["body"]
	if !ps.DistinctOverflow || ps.Distinct != nil {
		t.Fatal("overflowed tracker state lost in round trip")
	}
	// The restored tracker must keep refusing to track (overflow is
	// sticky), exactly like the in-memory one.
	ps.observeValue(pg.Str("x"))
	if ps.Distinct != nil {
		t.Fatal("restored overflow flag did not stay sticky")
	}
}

func TestPersistAbstractTypes(t *testing.T) {
	s := New()
	ab := NewNodeCandidate()
	ab.Abstract = true
	ab.Instances = 2
	ab.Props["k"] = &PropStat{Count: 2, Mandatory: true, DataType: pg.KindInt, MinInt: 1, MaxInt: 5}
	ab.Props["k"].Kinds[pg.KindInt] = 2
	s.AppendNodeTypes([]*NodeType{ab})
	abe := NewEdgeCandidate()
	abe.Abstract = true
	abe.Instances = 1
	s.AppendEdgeTypes([]*EdgeType{abe})

	got := roundTrip(t, s)
	assertTypesEqual(t, s, got)
	if !got.NodeTypes[0].Abstract || got.NodeTypes[0].Name() != "ABSTRACT_0" {
		t.Fatalf("abstract node type read back as %q", got.NodeTypes[0].Name())
	}
	if len(got.AbstractNodeTypes()) != 1 || len(got.AbstractEdgeTypes()) != 1 {
		t.Fatal("abstract type accessors disagree after round trip")
	}
	// Token-less types must stay out of the token indexes.
	if got.NodeTypeByToken("") != nil || got.EdgeTypeByToken("") != nil {
		t.Fatal("abstract types leaked into the token indexes")
	}
}

func TestPersistEdgeDegreeMaps(t *testing.T) {
	s := New()
	et := NewEdgeCandidate()
	et.Token = "REL"
	et.Labels["REL"] = 5
	et.Instances = 5
	et.SrcTokens["A"] = true
	et.SrcTokens["B"] = true
	et.DstTokens["C"] = true
	// Degree evidence including large and negative IDs (IDs are
	// loader-controlled int64s, so the string key encoding must cover
	// the full range).
	et.SrcDeg.Add(pg.ID(0), 2)
	et.SrcDeg.Add(pg.ID(1<<40), 1)
	et.SrcDeg.Add(pg.ID(-7), 2)
	et.DstDeg.Add(pg.ID(3), 5)
	et.Cardinality = CardManyToOne
	s.AppendEdgeTypes([]*EdgeType{et})

	got := roundTrip(t, s)
	assertTypesEqual(t, s, got)
	ge := got.EdgeTypes[0]
	if ge.MaxOutDegree() != 2 || ge.MaxInDegree() != 5 {
		t.Fatalf("degree maxima %d/%d after round trip, want 2/5",
			ge.MaxOutDegree(), ge.MaxInDegree())
	}
	// The restored maps must be mutable merge targets (a nil map here
	// would panic the next incremental batch).
	ge.SrcDeg.Add(pg.ID(9), 1)
	ge.DstDeg.Add(pg.ID(9), 1)
}

// TestPersistRetractionResidue pins the state retraction leaves
// behind — the exact case that used to diverge: retracting the last
// tracked string left an empty non-nil Distinct map in memory, which
// reads back as nil.
func TestPersistRetractionResidue(t *testing.T) {
	s := New()
	nt := NewNodeCandidate()
	nt.Token = "P"
	nt.Labels["P"] = 2
	nt.Instances = 2
	s.AppendNodeTypes([]*NodeType{nt})
	// The property must survive the retraction (Count stays positive)
	// while its *last tracked string* goes away — a mixed-kind
	// property does exactly that.
	nt.observe([]string{"P"}, pg.PropsOf(map[string]pg.Value{"tag": pg.Str("only")}))
	nt.observe([]string{"P"}, pg.PropsOf(map[string]pg.Value{"tag": pg.Int(5)}))
	nt.Retract([]string{"P"}, pg.PropsOf(map[string]pg.Value{"tag": pg.Str("only")}))
	if ps := nt.Props["tag"]; ps == nil || ps.Count != 1 {
		t.Fatal("fixture lost the property entirely; the residue case needs it to survive")
	}

	got := roundTrip(t, s)
	assertTypesEqual(t, s, got)
}

// TestPersistMultiTokenEdgeOrder pins that edge types sharing a label
// token keep their order (and therefore their identity) through a
// round trip — EdgeTypesByToken returns them in schema order.
func TestPersistMultiTokenEdgeOrder(t *testing.T) {
	s := New()
	mk := func(src, dst string, n int) *EdgeType {
		et := NewEdgeCandidate()
		et.Token = "LINKS"
		et.Labels["LINKS"] = n
		et.Instances = n
		et.SrcTokens[src] = true
		et.DstTokens[dst] = true
		return et
	}
	s.AppendEdgeTypes([]*EdgeType{mk("A", "B", 3), mk("C", "D", 1)})
	got := roundTrip(t, s)
	assertTypesEqual(t, s, got)
	ts := got.EdgeTypesByToken("LINKS")
	if len(ts) != 2 || !ts[0].SrcTokens["A"] || !ts[1].SrcTokens["C"] {
		t.Fatal("edge types sharing a token lost order or identity in round trip")
	}
}
