package schemi

import (
	"testing"

	"github.com/pghive/pghive/internal/pg"
)

func buildGraph(t *testing.T) *pg.Graph {
	t.Helper()
	g := pg.NewGraph()
	// Plain Person nodes and multi-label Person&Student nodes.
	var people []pg.ID
	for i := 0; i < 10; i++ {
		people = append(people, g.AddNode([]string{"Person"},
			map[string]pg.Value{"name": pg.Str("x")}))
	}
	for i := 0; i < 4; i++ {
		people = append(people, g.AddNode([]string{"Person", "Student"},
			map[string]pg.Value{"name": pg.Str("y"), "school": pg.Str("z")}))
	}
	org := g.AddNode([]string{"Org"}, map[string]pg.Value{"url": pg.Str("u")})
	for _, p := range people {
		if _, err := g.AddEdge([]string{"WORKS_AT"}, p, org, nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestDiscoverCollapsesMultiLabelOntoFirstLabel(t *testing.T) {
	g := buildGraph(t)
	res, err := Discover(g)
	if err != nil {
		t.Fatal(err)
	}
	// SchemI types by single (first) label: {Person} and
	// {Person, Student} nodes collapse into one Person group — the
	// mixing of label-set types the paper penalizes. Org is separate.
	if got := len(res.Schema.NodeTypes); got != 2 {
		t.Fatalf("node types = %d, want 2 (Person+Student collapsed, Org)", got)
	}
	// The collapsed group's label union carries both labels.
	if res.Schema.NodeTypeByToken("Person&Student") == nil {
		t.Error("collapsed Person group (union token Person&Student) missing")
	}
	// All 14 people share one type assignment.
	seen := map[int]bool{}
	for id, ty := range res.NodeAssign.All() {
		if g.Node(id).Labels[0] == "Person" {
			seen[int(ty)] = true
		}
	}
	if len(seen) != 1 {
		t.Errorf("Person nodes split across %d types, want 1", len(seen))
	}
}

func TestDiscoverRejectsUnlabeledNode(t *testing.T) {
	g := buildGraph(t)
	g.AddNode(nil, map[string]pg.Value{"q": pg.Int(1)})
	if _, err := Discover(g); err != ErrUnlabeled {
		t.Fatalf("err = %v, want ErrUnlabeled", err)
	}
}

func TestDiscoverRejectsUnlabeledEdge(t *testing.T) {
	g := pg.NewGraph()
	a := g.AddNode([]string{"A"}, nil)
	b := g.AddNode([]string{"B"}, nil)
	if _, err := g.AddEdge(nil, a, b, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Discover(g); err != ErrUnlabeled {
		t.Fatalf("err = %v, want ErrUnlabeled", err)
	}
}

func TestDiscoverEdgesIgnoreEndpoints(t *testing.T) {
	// Same edge label between disjoint endpoint pairs: SchemI mixes
	// them into one type (it types edges by label alone), unlike
	// PG-HIVE.
	g := pg.NewGraph()
	a := g.AddNode([]string{"A"}, nil)
	b := g.AddNode([]string{"B"}, nil)
	c := g.AddNode([]string{"C"}, nil)
	d := g.AddNode([]string{"D"}, nil)
	mustEdge := func(src, dst pg.ID) {
		if _, err := g.AddEdge([]string{"REL"}, src, dst, nil); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge(a, b)
	mustEdge(c, d)
	res, err := Discover(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Schema.EdgeTypes); got != 1 {
		t.Fatalf("edge types = %d, want 1 (label-only typing)", got)
	}
	t0, _ := res.EdgeAssign.Get(0)
	t1, _ := res.EdgeAssign.Get(1)
	if t0 != t1 {
		t.Error("both REL edges must map to the same SchemI type")
	}
}

func TestDiscoverAssignsEveryElement(t *testing.T) {
	g := buildGraph(t)
	res, err := Discover(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeAssign.Len() != g.NumNodes() {
		t.Errorf("node assignments = %d, want %d", res.NodeAssign.Len(), g.NumNodes())
	}
	if res.EdgeAssign.Len() != g.NumEdges() {
		t.Errorf("edge assignments = %d, want %d", res.EdgeAssign.Len(), g.NumEdges())
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed time must be recorded")
	}
}

func TestDiscoverEmptyGraph(t *testing.T) {
	res, err := Discover(pg.NewGraph())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schema.NodeTypes) != 0 || len(res.Schema.EdgeTypes) != 0 {
		t.Error("empty graph must yield empty schema")
	}
}

func TestSharedLabelCollapse(t *testing.T) {
	// HET.IO-style: every node carries a shared integration label plus
	// a specific one. SchemI must group by the specific (rarer) label,
	// not collapse everything onto the shared one.
	g := pg.NewGraph()
	for i := 0; i < 5; i++ {
		g.AddNode([]string{"HetionetNode", "Gene"}, map[string]pg.Value{"sym": pg.Str("s")})
	}
	for i := 0; i < 5; i++ {
		g.AddNode([]string{"HetionetNode", "Disease"}, map[string]pg.Value{"icd": pg.Str("d")})
	}
	res, err := Discover(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Schema.NodeTypes); got != 2 {
		t.Fatalf("node types = %d, want 2 (Gene and Disease)", got)
	}
}
