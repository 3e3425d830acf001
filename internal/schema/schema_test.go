package schema

import (
	"testing"

	"github.com/pghive/pghive/internal/pg"
)

func labeledCand(labels []string, keys ...string) *NodeType {
	c := NewNodeCandidate()
	props := map[string]pg.Value{}
	for _, k := range keys {
		props[k] = pg.Str("x")
	}
	c.observe(labels, pg.PropsOf(props))
	c.Token = pg.LabelToken(c.SortedLabels())
	c.Abstract = c.Token == ""
	return c
}

func edgeCand(labels []string, src, dst string, keys ...string) *EdgeType {
	c := NewEdgeCandidate()
	props := map[string]pg.Value{}
	for _, k := range keys {
		props[k] = pg.Str("x")
	}
	c.observe(labels, pg.PropsOf(props))
	if src != "" {
		c.SrcTokens[src] = true
	}
	if dst != "" {
		c.DstTokens[dst] = true
	}
	c.SrcDeg.Add(1, 1)
	c.DstDeg.Add(2, 1)
	c.Token = pg.LabelToken(c.SortedLabels())
	c.Abstract = c.Token == ""
	return c
}

func TestJaccard(t *testing.T) {
	set := func(ks ...string) map[string]bool {
		m := map[string]bool{}
		for _, k := range ks {
			m[k] = true
		}
		return m
	}
	cases := []struct {
		a, b []string
		want float64
	}{
		{[]string{"a", "b"}, []string{"a", "b"}, 1},
		{[]string{"a", "b"}, []string{"b", "c"}, 1.0 / 3},
		{[]string{"a"}, []string{"b"}, 0},
		{nil, nil, 1},
		{[]string{"a"}, nil, 0},
	}
	for _, c := range cases {
		if got := Jaccard(set(c.a...), set(c.b...)); got != c.want {
			t.Errorf("Jaccard(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestExtractMergesSameLabel(t *testing.T) {
	s := New()
	c1 := labeledCand([]string{"Post"}, "imgFile")
	c2 := labeledCand([]string{"Post"}, "content")
	res := s.ExtractNodeTypes([]*NodeType{c1, c2}, 0)
	if len(s.NodeTypes) != 1 {
		t.Fatalf("want 1 merged Post type, got %d", len(s.NodeTypes))
	}
	if res[0] != res[1] {
		t.Fatal("both clusters must map to the same type")
	}
	ty := s.NodeTypes[0]
	if ty.Instances != 2 {
		t.Errorf("Instances = %d, want 2", ty.Instances)
	}
	keys := ty.PropertyKeys()
	if len(keys) != 2 || keys[0] != "content" || keys[1] != "imgFile" {
		t.Errorf("merged keys = %v (Lemma 1: union, nothing lost)", keys)
	}
}

func TestExtractKeepsDistinctLabelSetsSeparate(t *testing.T) {
	s := New()
	c1 := labeledCand([]string{"Person"}, "name")
	c2 := labeledCand([]string{"Person", "Student"}, "name")
	s.ExtractNodeTypes([]*NodeType{c1, c2}, 0)
	if len(s.NodeTypes) != 2 {
		t.Fatalf("distinct label sets are distinct types (Def. 3.2): got %d", len(s.NodeTypes))
	}
	if s.NodeTypeByToken("Person") == nil || s.NodeTypeByToken("Person&Student") == nil {
		t.Fatal("token index incomplete")
	}
}

func TestExtractUnlabeledMergesIntoLabeledByJaccard(t *testing.T) {
	s := New()
	person := labeledCand([]string{"Person"}, "name", "gender", "bday")
	alice := labeledCand(nil, "name", "gender", "bday") // J = 1
	res := s.ExtractNodeTypes([]*NodeType{person, alice}, 0.9)
	if len(s.NodeTypes) != 1 {
		t.Fatalf("want Alice's cluster merged into Person (Example 5), got %d types", len(s.NodeTypes))
	}
	if res[1] != res[0] {
		t.Fatal("unlabeled cluster must map to the Person type")
	}
	if s.NodeTypes[0].Instances != 2 {
		t.Errorf("Instances = %d, want 2", s.NodeTypes[0].Instances)
	}
}

func TestExtractUnlabeledBelowThetaStaysAbstract(t *testing.T) {
	s := New()
	person := labeledCand([]string{"Person"}, "name", "gender", "bday")
	poor := labeledCand(nil, "name") // J = 1/3 < 0.9
	s.ExtractNodeTypes([]*NodeType{person, poor}, 0.9)
	if len(s.NodeTypes) != 2 {
		t.Fatalf("want separate ABSTRACT type, got %d types", len(s.NodeTypes))
	}
	abs := s.AbstractNodeTypes()
	if len(abs) != 1 {
		t.Fatalf("want 1 abstract type, got %d", len(abs))
	}
	if abs[0].Name() != "ABSTRACT_1" {
		t.Errorf("abstract name = %q", abs[0].Name())
	}
}

func TestExtractUnlabeledPairsMerge(t *testing.T) {
	s := New()
	u1 := labeledCand(nil, "x", "y", "z")
	u2 := labeledCand(nil, "x", "y", "z")
	u3 := labeledCand(nil, "q")
	res := s.ExtractNodeTypes([]*NodeType{u1, u2, u3}, 0.9)
	if len(s.NodeTypes) != 2 {
		t.Fatalf("want 2 abstract types (u1+u2 merged, u3 alone), got %d", len(s.NodeTypes))
	}
	if res[0] != res[1] {
		t.Error("identical unlabeled clusters must merge (Alg. 2 lines 12-14)")
	}
	if res[2] == res[0] {
		t.Error("dissimilar unlabeled cluster must stay apart")
	}
}

func TestExtractLowerThetaMergesMore(t *testing.T) {
	strict := New()
	loose := New()
	mk := func() []*NodeType {
		return []*NodeType{
			labeledCand([]string{"Person"}, "name", "gender", "bday"),
			labeledCand(nil, "name", "gender"), // J = 2/3
		}
	}
	strict.ExtractNodeTypes(mk(), 0.9)
	loose.ExtractNodeTypes(mk(), 0.5)
	if len(strict.NodeTypes) != 2 {
		t.Errorf("θ=0.9 should keep clusters apart, got %d types", len(strict.NodeTypes))
	}
	if len(loose.NodeTypes) != 1 {
		t.Errorf("θ=0.5 should merge (paper: lowering θ increases recall), got %d types", len(loose.NodeTypes))
	}
}

func TestExtractEdgeTypesMergeByLabel(t *testing.T) {
	s := New()
	// Same label, same endpoints, different property sets: one type
	// with unioned properties and endpoint sets (Lemma 2).
	e1 := edgeCand([]string{"KNOWS"}, "Person", "Person")
	e2 := edgeCand([]string{"KNOWS"}, "Person", "Person", "since")
	res := s.ExtractEdgeTypes([]*EdgeType{e1, e2}, 0)
	if len(s.EdgeTypes) != 1 {
		t.Fatalf("want 1 KNOWS type, got %d", len(s.EdgeTypes))
	}
	if res[0] != res[1] {
		t.Fatal("same-label edge clusters must merge")
	}
	ty := s.EdgeTypes[0]
	if len(ty.Props) != 1 {
		t.Errorf("merged edge props = %v, want {since}", ty.PropertyKeys())
	}
	if got := ty.SortedSrcTokens(); len(got) != 1 || got[0] != "Person" {
		t.Errorf("source endpoint union = %v", got)
	}
}

func TestExtractEdgeSharedSingleEndpointStaysSeparate(t *testing.T) {
	// LDBC-style reuse: HAS_CREATOR from Post and from Comment share
	// the target (Person) but not the source; they are distinct types.
	s := New()
	e1 := edgeCand([]string{"HAS_CREATOR"}, "Message&Post", "Person")
	e2 := edgeCand([]string{"HAS_CREATOR"}, "Comment&Message", "Person")
	res := s.ExtractEdgeTypes([]*EdgeType{e1, e2}, 0)
	if len(s.EdgeTypes) != 2 {
		t.Fatalf("shared-single-endpoint label reuse must stay separate, got %d types", len(s.EdgeTypes))
	}
	if res[0] == res[1] {
		t.Fatal("clusters mapped to the same type")
	}
}

func TestExtractEdgeUnlabeledUsesEndpoints(t *testing.T) {
	s := New()
	likes := edgeCand([]string{"LIKES"}, "Person", "Post")
	// Unlabeled edge with the same endpoints and properties (none):
	// should merge into LIKES via the endpoint-augmented Jaccard.
	anon := edgeCand(nil, "Person", "Post")
	res := s.ExtractEdgeTypes([]*EdgeType{likes, anon}, 0.9)
	if len(s.EdgeTypes) != 1 {
		t.Fatalf("want unlabeled edge merged into LIKES, got %d types", len(s.EdgeTypes))
	}
	if res[1] != res[0] {
		t.Fatal("unlabeled edge cluster must map into LIKES")
	}
	// An unlabeled edge with different endpoints must not merge.
	s2 := New()
	works := edgeCand([]string{"WORKS_AT"}, "Person", "Org.")
	anon2 := edgeCand(nil, "Org.", "Place")
	s2.ExtractEdgeTypes([]*EdgeType{works, anon2}, 0.9)
	if len(s2.EdgeTypes) != 2 {
		t.Fatalf("different endpoints must stay apart, got %d types", len(s2.EdgeTypes))
	}
}

func TestExtractEdgeSameLabelDisjointEndpointsStaySeparate(t *testing.T) {
	// MB6/FIB25-style label reuse: ConnectsTo between two unrelated
	// endpoint pairs must remain two types (Table 2 reports more edge
	// types than edge labels for these datasets).
	s := New()
	e1 := edgeCand([]string{"ConnectsTo"}, "Neuron", "Neuron")
	e2 := edgeCand([]string{"ConnectsTo"}, "Region", "Tract")
	res := s.ExtractEdgeTypes([]*EdgeType{e1, e2}, 0)
	if len(s.EdgeTypes) != 2 {
		t.Fatalf("endpoint-disjoint same-label clusters must stay separate, got %d types", len(s.EdgeTypes))
	}
	if res[0] == res[1] {
		t.Fatal("clusters mapped to the same type")
	}
	if got := len(s.EdgeTypesByToken("ConnectsTo")); got != 2 {
		t.Fatalf("EdgeTypesByToken = %d entries, want 2", got)
	}
}

func TestCardinalityAccumulation(t *testing.T) {
	c := NewEdgeCandidate()
	// Three edges out of node 1, one into each of 3 targets.
	for dst := pg.ID(10); dst < 13; dst++ {
		c.observe([]string{"LIKES"}, nil)
		c.SrcDeg.Add(1, 1)
		c.DstDeg.Add(dst, 1)
	}
	if c.MaxOutDegree() != 3 {
		t.Errorf("MaxOutDegree = %d, want 3", c.MaxOutDegree())
	}
	if c.MaxInDegree() != 1 {
		t.Errorf("MaxInDegree = %d, want 1", c.MaxInDegree())
	}
}

func TestCardinalityString(t *testing.T) {
	want := map[Cardinality]string{
		CardOneToOne: "1:1", CardManyToOne: "N:1",
		CardOneToMany: "1:N", CardManyToMany: "M:N", CardUnknown: "?",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestSchemaMergeMonotone(t *testing.T) {
	// Build two schemas and merge; every label and property of both
	// inputs must survive (§4.6 monotonicity).
	s1 := New()
	s1.ExtractNodeTypes([]*NodeType{
		labeledCand([]string{"Person"}, "name", "bday"),
		labeledCand([]string{"Post"}, "content"),
	}, 0)
	s1.ExtractEdgeTypes([]*EdgeType{edgeCand([]string{"LIKES"}, "Person", "Post")}, 0)

	s2 := New()
	s2.ExtractNodeTypes([]*NodeType{
		labeledCand([]string{"Person"}, "name", "gender"),
		labeledCand([]string{"Org"}, "url"),
	}, 0)
	s2.ExtractEdgeTypes([]*EdgeType{
		edgeCand([]string{"LIKES"}, "Org", "Post"),
		edgeCand([]string{"WORKS_AT"}, "Person", "Org"),
	}, 0)

	// Fold s2's types into s1 as a batch's candidates fold into the
	// evolving schema.
	s1.ExtractNodeTypes(append([]*NodeType(nil), s2.NodeTypes...), 0)
	s1.ExtractEdgeTypes(append([]*EdgeType(nil), s2.EdgeTypes...), 0)
	if len(s1.NodeTypes) != 3 {
		t.Fatalf("merged node types = %d, want 3 (Person unified)", len(s1.NodeTypes))
	}
	person := s1.NodeTypeByToken("Person")
	for _, k := range []string{"name", "bday", "gender"} {
		if person.Props[k] == nil {
			t.Errorf("Person lost property %q after merge", k)
		}
	}
	// LIKES appears with disjoint sources (Person vs Org): the
	// endpoint-compatibility rule keeps two LIKES types, plus
	// WORKS_AT — three edge types in total, and no label lost.
	if len(s1.EdgeTypes) != 3 {
		t.Fatalf("merged edge types = %d, want 3", len(s1.EdgeTypes))
	}
	if got := len(s1.EdgeTypesByToken("LIKES")); got != 2 {
		t.Fatalf("LIKES types = %d, want 2 (disjoint sources)", got)
	}
	srcSeen := map[string]bool{}
	for _, et := range s1.EdgeTypesByToken("LIKES") {
		for tok := range et.SrcTokens {
			srcSeen[tok] = true
		}
	}
	if !srcSeen["Person"] || !srcSeen["Org"] {
		t.Error("LIKES endpoint evidence lost after merge")
	}
}

func TestBuildNodeCandidates(t *testing.T) {
	nodes := []pg.Node{
		{ID: 0, Labels: []string{"Person"}, Props: pg.PropsOf(map[string]pg.Value{"name": pg.Str("a"), "age": pg.Int(3)})},
		{ID: 1, Labels: []string{"Person"}, Props: pg.PropsOf(map[string]pg.Value{"name": pg.Str("b")})},
		{ID: 2, Labels: nil, Props: pg.PropsOf(map[string]pg.Value{"x": pg.Float(1)})},
	}
	assign := []int{0, 0, 1}
	cands := BuildNodeCandidates(nodes, assign, 2)
	if len(cands) != 2 {
		t.Fatalf("candidates = %d", len(cands))
	}
	if cands[0].Token != "Person" || cands[0].Instances != 2 {
		t.Errorf("cluster 0: token=%q instances=%d", cands[0].Token, cands[0].Instances)
	}
	if cands[0].Props["name"].Count != 2 || cands[0].Props["age"].Count != 1 {
		t.Error("property counts wrong")
	}
	if cands[0].Props["age"].Kinds[pg.KindInt] != 1 {
		t.Error("kind tally wrong")
	}
	if !cands[1].Abstract {
		t.Error("unlabeled cluster must be abstract")
	}
}

func TestBuildEdgeCandidates(t *testing.T) {
	edges := []pg.Edge{
		{ID: 0, Labels: []string{"KNOWS"}, Src: 1, Dst: 2, Props: pg.PropsOf(map[string]pg.Value{"since": pg.Int(2020)})},
		{ID: 1, Labels: []string{"KNOWS"}, Src: 1, Dst: 3, Props: nil},
	}
	cands := BuildEdgeCandidates(edges, []int{0, 0}, 1, []string{"Person", "Person"}, []string{"Person", ""})
	c := cands[0]
	if c.Token != "KNOWS" || c.Instances != 2 {
		t.Fatalf("token=%q instances=%d", c.Token, c.Instances)
	}
	if !c.SrcTokens["Person"] {
		t.Error("source token missing")
	}
	if len(c.DstTokens) != 1 {
		t.Errorf("empty endpoint tokens must be skipped: %v", c.DstTokens)
	}
	// A candidate's endpoints are counted when it becomes a type.
	et := New().ExtractEdgeTypes(cands, 0)[0]
	if et.MaxOutDegree() != 2 || et.MaxInDegree() != 1 {
		t.Errorf("degrees: out=%d in=%d", et.MaxOutDegree(), et.MaxInDegree())
	}
}

func TestTypeName(t *testing.T) {
	ty := labeledCand([]string{"Person"}, "name")
	ty.ID = 7
	if ty.Name() != "Person" {
		t.Errorf("Name = %q", ty.Name())
	}
	ab := labeledCand(nil, "x")
	ab.ID = 3
	ab.Abstract = true
	if ab.Name() != "ABSTRACT_3" {
		t.Errorf("Name = %q", ab.Name())
	}
}

func TestEmptyCandidatesSkipped(t *testing.T) {
	s := New()
	empty := NewNodeCandidate()
	res := s.ExtractNodeTypes([]*NodeType{empty}, 0)
	if len(s.NodeTypes) != 0 {
		t.Fatal("empty candidate must not create a type")
	}
	if res[0] != nil {
		t.Fatal("empty candidate must map to nil")
	}
}
