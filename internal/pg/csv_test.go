package pg

import (
	"strings"
	"testing"
)

const nodesCSV = `personId:ID,:LABEL,name,age:int,score:float,active:boolean,joined:date
1,Person,Alice,30,1.5,true,2020-01-02
2,Person;Student,Bob,22,,false,
3,,Carol,,,,
`

const edgesCSV = `:START_ID,:END_ID,:TYPE,since:int,note
1,2,KNOWS,2019,close friends
2,3,KNOWS,,
1,3,LIKES;FOLLOWS,,a note
`

func TestReadNodesCSV(t *testing.T) {
	g := NewGraph()
	n, err := ReadNodesCSV(strings.NewReader(nodesCSV), g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || g.NumNodes() != 3 {
		t.Fatalf("loaded %d nodes", n)
	}
	alice := g.Node(1)
	if alice.LabelToken() != "Person" {
		t.Errorf("alice labels = %v", alice.Labels)
	}
	if alice.Props.Get("age").Kind() != KindInt || alice.Props.Get("age").AsInt() != 30 {
		t.Errorf("age = %#v", alice.Props.Get("age"))
	}
	if alice.Props.Get("score").Kind() != KindFloat {
		t.Errorf("score = %#v", alice.Props.Get("score"))
	}
	if !alice.Props.Get("active").AsBool() {
		t.Error("active should be true")
	}
	if alice.Props.Get("joined").Kind() != KindDate {
		t.Errorf("joined = %#v", alice.Props.Get("joined"))
	}
	bob := g.Node(2)
	if bob.LabelToken() != "Person&Student" {
		t.Errorf("bob labels = %v", bob.Labels)
	}
	if bob.Props.Get("score").IsValid() {
		t.Error("empty cell must be an absent property")
	}
	carol := g.Node(3)
	if len(carol.Labels) != 0 {
		t.Errorf("carol must be unlabeled: %v", carol.Labels)
	}
	if len(carol.Props) != 1 {
		t.Errorf("carol props = %v", carol.Props)
	}
}

func TestReadEdgesCSV(t *testing.T) {
	g := NewGraph()
	if _, err := ReadNodesCSV(strings.NewReader(nodesCSV), g); err != nil {
		t.Fatal(err)
	}
	n, err := ReadEdgesCSV(strings.NewReader(edgesCSV), g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || g.NumEdges() != 3 {
		t.Fatalf("loaded %d edges", n)
	}
	e := g.Edge(0)
	if e.LabelToken() != "KNOWS" || e.Src != 1 || e.Dst != 2 {
		t.Errorf("edge 0 = %+v", e)
	}
	if e.Props.Get("since").AsInt() != 2019 {
		t.Errorf("since = %#v", e.Props.Get("since"))
	}
	multi := g.Edge(2)
	if multi.LabelToken() != "FOLLOWS&LIKES" {
		t.Errorf("multi-label edge token = %q", multi.LabelToken())
	}
}

func TestReadNodesCSVErrors(t *testing.T) {
	g := NewGraph()
	if _, err := ReadNodesCSV(strings.NewReader("name,age\nx,1\n"), g); err == nil {
		t.Error("missing :ID column must error")
	}
	if _, err := ReadNodesCSV(strings.NewReader("id:ID\nnotanumber\n"), g); err == nil {
		t.Error("non-numeric id must error")
	}
	if _, err := ReadNodesCSV(strings.NewReader("id:ID,n:int\n1,xyz\n"), g); err == nil {
		t.Error("bad typed value must error")
	}
	dup := "id:ID\n5\n5\n"
	g2 := NewGraph()
	if _, err := ReadNodesCSV(strings.NewReader(dup), g2); err == nil {
		t.Error("duplicate id must error")
	}
}

func TestReadEdgesCSVErrors(t *testing.T) {
	g := NewGraph()
	_, _ = ReadNodesCSV(strings.NewReader("id:ID\n1\n2\n"), g)
	if _, err := ReadEdgesCSV(strings.NewReader(":START_ID,:TYPE\n1,R\n"), g); err == nil {
		t.Error("missing :END_ID must error")
	}
	if _, err := ReadEdgesCSV(strings.NewReader(":START_ID,:END_ID\n1,99\n"), g); err == nil {
		t.Error("dangling endpoint must error on a strict graph")
	}
	g.AllowDanglingEdges(true)
	if _, err := ReadEdgesCSV(strings.NewReader(":START_ID,:END_ID\n1,99\n"), g); err != nil {
		t.Errorf("dangling endpoint should load with opt-in: %v", err)
	}
}

func TestCSVMalformedTemporalKeptAsString(t *testing.T) {
	g := NewGraph()
	csv := "id:ID,d:date\n1,not-a-date\n"
	if _, err := ReadNodesCSV(strings.NewReader(csv), g); err != nil {
		t.Fatal(err)
	}
	if got := g.Node(1).Props.Get("d").Kind(); got != KindString {
		t.Errorf("malformed date kind = %v, want STRING", got)
	}
}

// TestCSVEndToEndDiscovery: the loaded graph behaves like any other
// for stats purposes.
func TestCSVEndToEndStats(t *testing.T) {
	g := NewGraph()
	if _, err := ReadNodesCSV(strings.NewReader(nodesCSV), g); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEdgesCSV(strings.NewReader(edgesCSV), g); err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g)
	if s.Nodes != 3 || s.Edges != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.NodeLabels != 2 { // Person, Student
		t.Errorf("node labels = %d", s.NodeLabels)
	}
}

// Regression: FieldsPerRecord = -1 admits ragged rows, so a row too
// short to contain the :ID / :START_ID / :END_ID column used to panic
// with index out of range. It must be a line-numbered error.
func TestCSVRaggedRowsError(t *testing.T) {
	// :ID is the 3rd column; the 2nd data row has only one field.
	nodes := "name,age:int,personId:ID\nAlice,30,1\nBob\n"
	g := NewGraph()
	_, err := ReadNodesCSV(strings.NewReader(nodes), g)
	if err == nil {
		t.Fatal("ragged node row must error, not panic")
	}
	if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "missing :ID") {
		t.Errorf("want line-numbered missing-:ID error, got: %v", err)
	}

	g2 := NewGraph()
	if _, err := ReadNodesCSV(strings.NewReader("id:ID,name\n1,Alice\n"), g2); err != nil {
		t.Fatal(err)
	}
	edges := "note,:START_ID,:END_ID\nx,1,1\ny\n"
	_, err = ReadEdgesCSV(strings.NewReader(edges), g2)
	if err == nil {
		t.Fatal("ragged edge row must error, not panic")
	}
	if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "missing :START_ID") {
		t.Errorf("want line-numbered missing-:START_ID error, got: %v", err)
	}
	edges = ":START_ID,note,:END_ID\n1,x\n"
	_, err = ReadEdgesCSV(strings.NewReader(edges), g2)
	if err == nil || !strings.Contains(err.Error(), "missing :END_ID") {
		t.Errorf("want missing-:END_ID error, got: %v", err)
	}
}

// Regression: a malformed boolean cell ("yes", "1", a shifted row)
// used to load silently as Bool(false), corrupting the discovered
// schema. It must error like the int/float branches do.
func TestCSVMalformedBooleanError(t *testing.T) {
	for _, bad := range []string{"yes", "1", "tru", "on"} {
		g := NewGraph()
		in := "id:ID,active:boolean\n1," + bad + "\n"
		_, err := ReadNodesCSV(strings.NewReader(in), g)
		if err == nil {
			t.Errorf("boolean %q must be rejected", bad)
			continue
		}
		if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "boolean") {
			t.Errorf("boolean %q: want line-numbered boolean error, got: %v", bad, err)
		}
	}
	// Case-insensitive true/false still load (neo4j-admin accepts them).
	g := NewGraph()
	if _, err := ReadNodesCSV(strings.NewReader("id:ID,a:boolean,b:bool\n1,TRUE,False\n"), g); err != nil {
		t.Fatal(err)
	}
	if !g.Node(1).Props.Get("a").AsBool() || g.Node(1).Props.Get("b").AsBool() {
		t.Errorf("props = %v", g.Node(1).Props)
	}
}

// Regression: an unknown type suffix (a typo like `age:itn`) used to
// silently become an untyped column named "age:itn" with lexical
// inference. It must be a header error.
func TestCSVUnknownTypeSuffixError(t *testing.T) {
	g := NewGraph()
	_, err := ReadNodesCSV(strings.NewReader("id:ID,age:itn\n1,30\n"), g)
	if err == nil {
		t.Fatal("unknown type suffix must error")
	}
	if !strings.Contains(err.Error(), `"itn"`) {
		t.Errorf("error must name the bad suffix, got: %v", err)
	}
	_, err = ReadEdgesCSV(strings.NewReader(":START_ID,:END_ID,w:flaot\n"), g)
	if err == nil || !strings.Contains(err.Error(), `"flaot"`) {
		t.Errorf("edge header suffix error, got: %v", err)
	}
	// Untyped columns (no colon at all) still infer lexically.
	g2 := NewGraph()
	if _, err := ReadNodesCSV(strings.NewReader("id:ID,age\n1,30\n"), g2); err != nil {
		t.Fatal(err)
	}
	if g2.Node(1).Props.Get("age").Kind() != KindInt {
		t.Errorf("untyped column must stay lexically inferred: %#v", g2.Node(1).Props.Get("age"))
	}
}
