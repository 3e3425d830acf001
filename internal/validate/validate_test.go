package validate

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/pghive/pghive/internal/core"
	"github.com/pghive/pghive/internal/datagen"
	"github.com/pghive/pghive/internal/infer"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

// discoveredSchema builds a schema from a clean POLE dataset.
func discoveredSchema(t *testing.T) (*datagen.Dataset, *schema.Schema) {
	t.Helper()
	d := datagen.Generate(datagen.POLE(), 0.5, 3)
	res := core.Discover(d.Graph, core.Options{Seed: 3})
	infer.Finalize(res.Schema, infer.Options{})
	return d, res.Schema
}

// TestSelfValidation: a graph must conform to the schema discovered
// from it, in both modes — the §4.7 type-completeness guarantee made
// executable.
func TestSelfValidation(t *testing.T) {
	d, s := discoveredSchema(t)
	for _, mode := range []Mode{Loose, Strict} {
		r := Graph(d.Graph, s, mode)
		if !r.Valid() {
			for _, v := range r.Violations[:min(5, len(r.Violations))] {
				t.Log(v)
			}
			t.Fatalf("mode %d: %d violations on the schema's own data", mode, len(r.Violations))
		}
		if r.Checked != d.Graph.NumNodes()+d.Graph.NumEdges() {
			t.Errorf("checked %d elements, want %d", r.Checked, d.Graph.NumNodes()+d.Graph.NumEdges())
		}
	}
}

func TestUnknownLabelViolation(t *testing.T) {
	d, s := discoveredSchema(t)
	g := d.Graph.Clone()
	g.AddNode([]string{"Alien"}, map[string]pg.Value{"tentacles": pg.Int(4)})
	r := Graph(g, s, Loose)
	if r.Valid() {
		t.Fatal("alien node must violate LOOSE typeability")
	}
	if r.Violations[0].Rule != "typeable" {
		t.Errorf("rule = %q, want typeable", r.Violations[0].Rule)
	}
}

func TestLooseToleratesExtraProperties(t *testing.T) {
	d, s := discoveredSchema(t)
	g := d.Graph.Clone()
	// A Person with an undeclared property: LOOSE accepts, STRICT
	// rejects.
	var person *pg.Node
	for i := range g.Nodes() {
		if g.Nodes()[i].LabelToken() == "Person" {
			person = &g.Nodes()[i]
			break
		}
	}
	person.Props = withProp(person.Props, "undeclared_hobby", pg.Str("chess"))
	if r := Graph(g, s, Loose); !r.Valid() {
		t.Fatalf("LOOSE must tolerate extra properties: %v", r.Violations[0])
	}
	r := Graph(g, s, Strict)
	if r.Valid() {
		t.Fatal("STRICT must reject undeclared properties")
	}
	found := false
	for _, v := range r.Violations {
		if v.Rule == "undeclared-property" && strings.Contains(v.Detail, "undeclared_hobby") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing undeclared-property violation: %v", r.Violations)
	}
}

func TestStrictMandatoryViolation(t *testing.T) {
	d, s := discoveredSchema(t)
	g := d.Graph.Clone()
	for i := range g.Nodes() {
		n := &g.Nodes()[i]
		if n.LabelToken() == "Officer" {
			n.Props = withProp(n.Props, "badge_no", pg.Value{}) // mandatory for Officer
			break
		}
	}
	r := Graph(g, s, Strict)
	found := false
	for _, v := range r.Violations {
		if v.Rule == "mandatory" && strings.Contains(v.Detail, "badge_no") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing mandatory violation: valid=%v violations=%v", r.Valid(), r.Violations)
	}
}

func TestStrictDatatypeViolation(t *testing.T) {
	d, s := discoveredSchema(t)
	g := d.Graph.Clone()
	for i := range g.Nodes() {
		n := &g.Nodes()[i]
		if n.LabelToken() == "Person" {
			n.Props = withProp(n.Props, "age", pg.Str("forty")) // age is INT
			break
		}
	}
	r := Graph(g, s, Strict)
	found := false
	for _, v := range r.Violations {
		if v.Rule == "datatype" && strings.Contains(v.Detail, "age") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing datatype violation: %v", r.Violations)
	}
}

func TestEnumAndRangeViolations(t *testing.T) {
	// Build a schema with an enum and a range by hand via discovery.
	g := pg.NewGraph()
	for i := 0; i < 12; i++ {
		g.AddNode([]string{"Case"}, map[string]pg.Value{
			"status": pg.Str([]string{"open", "closed"}[i%2]),
			"score":  pg.Int(int64(10 + i)),
		})
	}
	res := core.Discover(g, core.Options{Seed: 5})
	infer.Finalize(res.Schema, infer.Options{})

	bad := pg.NewGraph()
	bad.AddNode([]string{"Case"}, map[string]pg.Value{
		"status": pg.Str("exploded"), // outside enum
		"score":  pg.Int(999),        // outside range
	})
	r := Graph(bad, res.Schema, Strict)
	rules := map[string]bool{}
	for _, v := range r.Violations {
		rules[v.Rule] = true
	}
	if !rules["enum"] {
		t.Errorf("missing enum violation: %v", r.Violations)
	}
	if !rules["range"] {
		t.Errorf("missing range violation: %v", r.Violations)
	}
}

func TestEdgeEndpointViolation(t *testing.T) {
	d, s := discoveredSchema(t)
	g := d.Graph.Clone()
	// Wire a WORKS_AT-style violation: OCCURRED_AT from a Person
	// (schema says Crime → Location).
	var person, location pg.ID = -1, -1
	for i := range g.Nodes() {
		switch g.Nodes()[i].LabelToken() {
		case "Person":
			person = g.Nodes()[i].ID
		case "Location":
			location = g.Nodes()[i].ID
		}
	}
	if person < 0 || location < 0 {
		t.Fatal("fixture nodes missing")
	}
	if _, err := g.AddEdge([]string{"OCCURRED_AT"}, person, location, nil); err != nil {
		t.Fatal(err)
	}
	r := Graph(g, s, Strict)
	found := false
	for _, v := range r.Violations {
		if v.Rule == "typeable" && v.IsEdge {
			found = true
		}
	}
	if !found {
		t.Errorf("edge with wrong endpoints must be untypeable: %v", r.Violations)
	}
}

func TestCardinalityViolation(t *testing.T) {
	// Discover a ManyToOne edge type, then violate it.
	g := pg.NewGraph()
	var people, orgs []pg.ID
	for i := 0; i < 30; i++ {
		people = append(people, g.AddNode([]string{"Person"}, map[string]pg.Value{"name": pg.Str("p")}))
	}
	for i := 0; i < 5; i++ {
		orgs = append(orgs, g.AddNode([]string{"Org"}, map[string]pg.Value{"url": pg.Str("u")}))
	}
	for i, p := range people {
		if _, err := g.AddEdge([]string{"WORKS_AT"}, p, orgs[i%len(orgs)], nil); err != nil {
			t.Fatal(err)
		}
	}
	res := core.Discover(g, core.Options{Seed: 6})
	infer.Finalize(res.Schema, infer.Options{})
	wa := res.Schema.EdgeTypeByToken("WORKS_AT")
	if wa.Cardinality != schema.CardManyToOne {
		t.Skipf("fixture produced %v instead of N:1", wa.Cardinality)
	}
	// Second job for person 0: out-degree 2 violates N:1.
	if _, err := g.AddEdge([]string{"WORKS_AT"}, people[0], orgs[1], nil); err != nil {
		t.Fatal(err)
	}
	r := Graph(g, res.Schema, Strict)
	found := false
	for _, v := range r.Violations {
		if v.Rule == "cardinality" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing cardinality violation: %v", r.Violations)
	}
}

// TestReportIsDeterministic: identical validations give identical
// reports — violations in property-key order within an element, and
// cardinality violations by edge type, then node ID — so a leader and
// a follower, or two identical requests, cannot disagree, even past
// MaxViolations, where the order decides which violations are kept.
func TestReportIsDeterministic(t *testing.T) {
	g := pg.NewGraph()
	var people, orgs []pg.ID
	for i := 0; i < 30; i++ {
		people = append(people, g.AddNode([]string{"Person"}, map[string]pg.Value{"name": pg.Str("p")}))
	}
	for i := 0; i < 5; i++ {
		orgs = append(orgs, g.AddNode([]string{"Org"}, map[string]pg.Value{"url": pg.Str("u")}))
	}
	for i, p := range people {
		if _, err := g.AddEdge([]string{"WORKS_AT"}, p, orgs[i%len(orgs)], nil); err != nil {
			t.Fatal(err)
		}
	}
	res := core.Discover(g, core.Options{Seed: 6})
	infer.Finalize(res.Schema, infer.Options{})
	if wa := res.Schema.EdgeTypeByToken("WORKS_AT"); wa.Cardinality != schema.CardManyToOne {
		t.Skipf("fixture produced %v instead of N:1", wa.Cardinality)
	}
	// Six undeclared properties and a missing mandatory one on one
	// node, and a second job, over N:1, for six people.
	six := map[string]pg.Value{}
	for _, k := range []string{"f", "b", "e", "a", "d", "c"} {
		six[k] = pg.Int(1)
	}
	g.AddNode([]string{"Person"}, six)
	for _, p := range people[:6] {
		if _, err := g.AddEdge([]string{"WORKS_AT"}, p, orgs[4], nil); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, g *pg.Graph) *Report {
		first := Graph(g, res.Schema, Strict)
		for i := 0; i < 50; i++ {
			if r := Graph(g, res.Schema, Strict); !reflect.DeepEqual(r, first) {
				t.Fatalf("%s: validation %d differs from the first:\n%v\n%v", name, i+2, r.Violations, first.Violations)
			}
		}
		return first
	}
	r := check("six violations", g)
	var got []string
	for _, v := range r.Violations {
		got = append(got, v.Rule)
	}
	want := []string{"undeclared-property", "undeclared-property", "undeclared-property",
		"undeclared-property", "undeclared-property", "undeclared-property", "mandatory",
		"cardinality", "cardinality", "cardinality", "cardinality", "cardinality", "cardinality"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rules %v, want %v", got, want)
	}
	for i, k := range []string{"a", "b", "c", "d", "e", "f"} {
		if !strings.Contains(r.Violations[i].Detail, strconv.Quote(k)) {
			t.Errorf("violation %d: %s, want property %q (key order)", i, r.Violations[i].Detail, k)
		}
	}
	for i := 8; i < len(r.Violations); i++ {
		if r.Violations[i].Element <= r.Violations[i-1].Element {
			t.Errorf("cardinality violations not by node ID: %v", r.Violations[7:])
		}
	}

	// Past MaxViolations the order decides which violations are kept.
	wide := map[string]pg.Value{}
	for i := 0; i < MaxViolations+200; i++ {
		wide[strconv.Itoa(i)] = pg.Int(1)
	}
	g.AddNode([]string{"Person"}, wide)
	if r := check("truncated", g); !r.Truncated {
		t.Fatal("the report should be truncated")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Element: 7, IsEdge: true, Rule: "enum", Detail: "bad"}
	if got := v.String(); got != "edge 7: enum: bad" {
		t.Errorf("String() = %q", got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// withProp returns a copy of ps with key k set to v, or removed when v
// is the zero Value.
func withProp(ps pg.Props, k string, v pg.Value) pg.Props {
	m := map[string]pg.Value{}
	for key, val := range ps.All() {
		m[key] = val
	}
	m[k] = v
	if !v.IsValid() {
		delete(m, k)
	}
	return pg.PropsOf(m)
}
