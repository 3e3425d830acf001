package pghive_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	pghive "github.com/pghive/pghive"
)

// buildFigure1 constructs the paper's running example (Fig. 1) through
// the public API.
func buildFigure1(t *testing.T) *pghive.Graph {
	t.Helper()
	g := pghive.NewGraph()
	bob := g.AddNode([]string{"Person"}, map[string]pghive.Value{
		"name": pghive.Str("Bob"), "gender": pghive.Str("male"),
		"bday": pghive.ParseLexical("1980-05-02")})
	alice := g.AddNode(nil, map[string]pghive.Value{
		"name": pghive.Str("Alice"), "gender": pghive.Str("female"),
		"bday": pghive.ParseLexical("1999-12-19")})
	john := g.AddNode([]string{"Person"}, map[string]pghive.Value{
		"name": pghive.Str("John"), "gender": pghive.Str("male"),
		"bday": pghive.ParseLexical("2005-09-24")})
	post1 := g.AddNode([]string{"Post"}, map[string]pghive.Value{"imgFile": pghive.Str("screenshot.png")})
	post2 := g.AddNode([]string{"Post"}, map[string]pghive.Value{"content": pghive.Str("bazinga!")})
	org := g.AddNode([]string{"Org"}, map[string]pghive.Value{
		"url": pghive.Str("example.com"), "name": pghive.Str("Example")})
	place := g.AddNode([]string{"Place"}, map[string]pghive.Value{"name": pghive.Str("Greece")})
	mustEdge := func(labels []string, s, d pghive.ID, props map[string]pghive.Value) {
		if _, err := g.AddEdge(labels, s, d, props); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge([]string{"KNOWS"}, alice, john, map[string]pghive.Value{"since": pghive.Int(2025)})
	mustEdge([]string{"KNOWS"}, bob, alice, nil)
	mustEdge([]string{"LIKES"}, john, post2, nil)
	mustEdge([]string{"LIKES"}, alice, post1, nil)
	mustEdge([]string{"WORKS_AT"}, bob, org, map[string]pghive.Value{"from": pghive.Int(2000)})
	mustEdge([]string{"LOCATED_IN"}, org, place, nil)
	return g
}

func TestPublicAPIFigure1(t *testing.T) {
	g := buildFigure1(t)
	res := pghive.Discover(g, pghive.Options{Seed: 1})
	s := res.Schema
	person := s.NodeTypeByToken("Person")
	if person == nil {
		t.Fatal("Person type missing")
	}
	// Alice (unlabeled, same structure) must merge into Person
	// (Example 5): 3 instances.
	if person.Instances != 3 {
		t.Errorf("Person.Instances = %d, want 3 (Alice merged)", person.Instances)
	}
	// Post has two patterns, one type (Example 5).
	post := s.NodeTypeByToken("Post")
	if post == nil || post.Instances != 2 {
		t.Fatalf("Post type wrong: %+v", post)
	}
	// Constraints per Example 6: name/gender/bday mandatory for
	// Person; imgFile optional for Post.
	for _, k := range []string{"name", "gender", "bday"} {
		if !person.Props[k].Mandatory {
			t.Errorf("Person.%s should be mandatory", k)
		}
	}
	if post.Props["imgFile"].Mandatory || post.Props["content"].Mandatory {
		t.Error("Post properties must be optional (Example 6)")
	}
	// Data types per Example 7.
	if person.Props["bday"].DataType != pghive.KindDate {
		t.Errorf("bday = %v, want DATE", person.Props["bday"].DataType)
	}
	if person.Props["name"].DataType != pghive.KindString {
		t.Errorf("name = %v, want STRING", person.Props["name"].DataType)
	}
}

func TestPublicAPISerialization(t *testing.T) {
	g := buildFigure1(t)
	res := pghive.Discover(g, pghive.Options{Seed: 1})
	strict := pghive.PGSchema(res.Schema, pghive.Strict, "Fig1")
	if !strings.Contains(strict, "STRICT") || !strings.Contains(strict, "personType") {
		t.Errorf("strict output:\n%s", strict)
	}
	loose := pghive.PGSchema(res.Schema, pghive.Loose, "Fig1")
	if !strings.Contains(loose, "LOOSE") {
		t.Errorf("loose output:\n%s", loose)
	}
	xsd := pghive.XSD(res.Schema)
	if !strings.Contains(xsd, "<xs:schema") {
		t.Errorf("xsd output:\n%s", xsd)
	}
}

func TestPublicAPIJSONLRoundTrip(t *testing.T) {
	g := buildFigure1(t)
	var buf bytes.Buffer
	if err := pghive.WriteJSONL(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := pghive.ReadJSONL(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if pghive.ComputeStats(got) != pghive.ComputeStats(g) {
		t.Error("stats differ after JSONL round-trip")
	}
}

func TestPublicAPIIncremental(t *testing.T) {
	g := buildFigure1(t)
	inc := pghive.NewIncremental(pghive.Options{Seed: 2})
	for _, b := range pghive.SplitBatches(g, 3, rand.New(rand.NewSource(4))) {
		inc.ProcessBatch(b)
	}
	res := inc.Finalize()
	if res.Schema.NodeTypeByToken("Person") == nil {
		t.Error("incremental run lost the Person type")
	}
	if res.NodeAssign.Len() != g.NumNodes() {
		t.Errorf("assignments = %d, want %d", res.NodeAssign.Len(), g.NumNodes())
	}
}

func TestPublicAPIMinHash(t *testing.T) {
	g := buildFigure1(t)
	res := pghive.Discover(g, pghive.Options{Method: pghive.MinHash, Seed: 3})
	if res.Schema.NodeTypeByToken("Person") == nil {
		t.Error("MinHash variant lost the Person type")
	}
}

func TestPublicAPIPinnedParams(t *testing.T) {
	g := buildFigure1(t)
	p := &pghive.LSHParams{Tables: 8, BucketLength: 2}
	res := pghive.Discover(g, pghive.Options{Seed: 4, NodeParams: p, EdgeParams: p})
	if len(res.Schema.NodeTypes) == 0 {
		t.Error("pinned-parameter discovery produced nothing")
	}
}
