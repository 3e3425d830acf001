package schema

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/pghive/pghive/internal/pg"
)

func buildPersistFixture() *Schema {
	s := New()
	// A labeled node type with rich property stats.
	nodes := []pg.Node{
		{ID: 0, Labels: []string{"Person"}, Props: pg.PropsOf(map[string]pg.Value{
			"name": pg.Str("a"), "age": pg.Int(30), "status": pg.Str("active")})},
		{ID: 1, Labels: []string{"Person"}, Props: pg.PropsOf(map[string]pg.Value{
			"name": pg.Str("b"), "age": pg.Int(40), "status": pg.Str("idle")})},
	}
	cands := BuildNodeCandidates(nodes, []int{0, 0}, 1)
	s.ExtractNodeTypes(cands, 0.9)
	// An abstract node type.
	u := NewNodeCandidate()
	u.observe(nil, pg.PropsOf(map[string]pg.Value{"x": pg.Float(1.5)}))
	u.Token, u.Abstract = "", true
	s.ExtractNodeTypes([]*NodeType{u}, 0.9)
	// An edge type with endpoints and degrees.
	edges := []pg.Edge{
		{ID: 0, Labels: []string{"KNOWS"}, Src: 0, Dst: 1,
			Props: pg.PropsOf(map[string]pg.Value{"since": pg.Int(2020)})},
		{ID: 1, Labels: []string{"KNOWS"}, Src: 0, Dst: 0, Props: nil},
	}
	ecands := BuildEdgeCandidates(edges, []int{0, 0}, 1,
		[]string{"Person", "Person"}, []string{"Person", "Person"})
	s.ExtractEdgeTypes(ecands, 0.9)
	return s
}

func TestPersistRoundTrip(t *testing.T) {
	s := buildPersistFixture()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.NodeTypes) != len(s.NodeTypes) || len(got.EdgeTypes) != len(s.EdgeTypes) {
		t.Fatalf("type counts: %d/%d nodes, %d/%d edges",
			len(got.NodeTypes), len(s.NodeTypes), len(got.EdgeTypes), len(s.EdgeTypes))
	}
	person := got.NodeTypeByToken("Person")
	orig := s.NodeTypeByToken("Person")
	if person == nil {
		t.Fatal("Person lost in round-trip")
	}
	if person.Instances != orig.Instances {
		t.Errorf("instances %d != %d", person.Instances, orig.Instances)
	}
	for k, ops := range orig.Props {
		gps := person.Props[k]
		if gps == nil {
			t.Fatalf("property %q lost", k)
		}
		if gps.Count != ops.Count || gps.Kinds != ops.Kinds {
			t.Errorf("property %q stats differ", k)
		}
		if !reflect.DeepEqual(gps.Distinct, ops.Distinct) {
			t.Errorf("property %q distinct values differ: %v vs %v", k, gps.Distinct, ops.Distinct)
		}
		if gps.MinInt != ops.MinInt || gps.MaxInt != ops.MaxInt {
			t.Errorf("property %q int bounds differ", k)
		}
	}
	knows := got.EdgeTypeByToken("KNOWS")
	if knows == nil {
		t.Fatal("KNOWS lost")
	}
	if !knows.SrcTokens["Person"] || !knows.DstTokens["Person"] {
		t.Error("endpoint tokens lost")
	}
	if knows.MaxOutDegree() != s.EdgeTypeByToken("KNOWS").MaxOutDegree() {
		t.Error("degree evidence lost")
	}
	// Abstract type preserved.
	if len(got.AbstractNodeTypes()) != 1 {
		t.Error("abstract type lost")
	}
}

// TestPersistThenContinueIncremental: the restored schema must accept
// further extraction with correct merging — the cross-session
// incremental use case.
func TestPersistThenContinueIncremental(t *testing.T) {
	s := buildPersistFixture()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	before := restored.NodeTypeByToken("Person").Instances
	more := []pg.Node{{ID: 5, Labels: []string{"Person"}, Props: pg.PropsOf(map[string]pg.Value{
		"name": pg.Str("c"), "email": pg.Str("c@x")})}}
	cands := BuildNodeCandidates(more, []int{0}, 1)
	restored.ExtractNodeTypes(cands, 0.9)
	person := restored.NodeTypeByToken("Person")
	if person.Instances != before+1 {
		t.Errorf("instances = %d, want %d", person.Instances, before+1)
	}
	if person.Props["email"] == nil {
		t.Error("new property not merged after restore")
	}
	// New types must get fresh IDs, not collide with persisted ones.
	u := NewNodeCandidate()
	u.observe([]string{"Fresh"}, nil)
	u.Token = "Fresh"
	restored.ExtractNodeTypes([]*NodeType{u}, 0.9)
	seen := map[int]bool{}
	for _, nt := range restored.NodeTypes {
		if seen[nt.ID] {
			t.Fatalf("duplicate type ID %d after restore", nt.ID)
		}
		seen[nt.ID] = true
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{bad")); err == nil {
		t.Error("malformed JSON must error")
	}
	if _, err := ReadJSON(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("unknown version must error")
	}
	if _, err := ReadJSON(strings.NewReader(`{"version":1,"edgeTypes":[{"id":0,"srcDeg":{"x":1}}]}`)); err == nil {
		t.Error("bad degree key must error")
	}
}

// TestReadJSONRefusesTrailingBytes: a schema file holds one schema.
// Whatever follows it is refused, as the image parser refuses it, not
// silently dropped.
func TestReadJSONRefusesTrailingBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, buildPersistFixture()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(strings.NewReader(buf.String() + "\n \t")); err != nil {
		t.Fatalf("trailing whitespace refused: %v", err)
	}
	for _, tail := range []string{"x", "{}", `{"version":1}`, "]"} {
		if _, err := ReadJSON(strings.NewReader(buf.String() + tail)); err == nil {
			t.Errorf("a schema followed by %q was accepted", tail)
		}
	}
}

// TestReadJSONRefusesNonCanonicalDegreeKeys: a degree key is a node ID
// in its one canonical decimal spelling. The parser used to stop at
// the first non-digit and ignore the rest, so every key of this blob
// landed on node 12 and the surviving tally followed map iteration
// order — a corrupt or hostile checkpoint restored to a
// nondeterministic state instead of being refused.
func TestReadJSONRefusesNonCanonicalDegreeKeys(t *testing.T) {
	read := func(srcDeg string) (*Schema, error) {
		return ReadJSON(strings.NewReader(`{"version":1,"edgeTypes":[{"id":0,"instances":1,"srcDeg":` + srcDeg + `}]}`))
	}
	if _, err := read(`{"12abc":1,"012":5,"12":7," 12":9}`); err == nil || !strings.Contains(err.Error(), "bad degree key") {
		t.Fatalf("four spellings of node 12 were accepted: %v", err)
	}
	for _, key := range []string{"12abc", "012", " 12", "12 ", "+12", "-0", "0x0c", "1e1", "", "9223372036854775808"} {
		if _, err := read(`{"` + key + `":1}`); err == nil {
			t.Errorf("degree key %q accepted", key)
		}
	}
	for key, id := range map[string]pg.ID{"12": 12, "0": 0, "-12": -12, "9223372036854775807": 1<<63 - 1} {
		s, err := read(`{"` + key + `":3}`)
		if err != nil {
			t.Errorf("canonical degree key %q refused: %v", key, err)
			continue
		}
		if got := s.EdgeTypes[0].SrcDeg; got.Len() != 1 || got.Get(id) != 3 {
			t.Errorf("degree key %q restored as %v", key, DegreeCounts[nodeKey](got))
		}
	}
}

// failWriter refuses every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestWriteJSONReportsWriteError: the document streams through a
// buffer, and a write the buffer passes on fails WriteJSON.
func TestWriteJSONReportsWriteError(t *testing.T) {
	for _, s := range []*Schema{New(), buildPersistFixture()} {
		if err := WriteJSON(failWriter{}, s); err == nil || err.Error() != "disk full" {
			t.Fatalf("WriteJSON to a failing writer: %v, want disk full", err)
		}
	}
}

// TestReadJSONListsTypesInIDOrder: a document that lists its types out
// of ID order restores them in ID order, as a live schema keeps them,
// and each resolves by its ID.
func TestReadJSONListsTypesInIDOrder(t *testing.T) {
	doc := `{"version":1,"nodeTypes":[{"id":7,"token":"B","labels":{"B":1},"instances":1},{"id":2,"token":"A","labels":{"A":1},"instances":1}],` +
		`"edgeTypes":[{"id":9,"token":"R","labels":{"R":1},"instances":1},{"id":4,"token":"S","labels":{"S":1},"instances":1}]}`
	s, err := ReadJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if s.NodeTypes[0].ID != 2 || s.EdgeTypes[0].ID != 4 {
		t.Fatalf("types not in ID order: node %d, edge %d first", s.NodeTypes[0].ID, s.EdgeTypes[0].ID)
	}
	for _, c := range []struct {
		id   int
		want string
	}{{2, "A"}, {7, "B"}} {
		if nt := s.NodeTypeByID(c.id); nt == nil || nt.Token != c.want {
			t.Errorf("NodeTypeByID(%d) = %v, want %s", c.id, nt, c.want)
		}
	}
	if et := s.EdgeTypeByID(9); et == nil || et.Token != "R" {
		t.Errorf("EdgeTypeByID(9) = %v, want R", et)
	}
	if s.NodeTypeByID(9) != nil || s.EdgeTypeByID(2) != nil || s.NodeTypeByID(3) != nil {
		t.Error("an ID resolved to a type of the other kind, or to no type's")
	}
}
