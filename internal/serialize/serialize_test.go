package serialize

import (
	"encoding/xml"
	"regexp"
	"strings"
	"testing"

	"github.com/pghive/pghive/internal/infer"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

// figure1Schema builds the worked example of the paper: Person, Org.,
// Post, Place node types; WORKS_AT and KNOWS edge types; plus one
// abstract node type.
func figure1Schema(t *testing.T) *schema.Schema {
	t.Helper()
	s := schema.New()
	nodes := []pg.Node{
		{ID: 0, Labels: []string{"Person"}, Props: pg.PropsOf(map[string]pg.Value{
			"name": pg.Str("Bob"), "gender": pg.Str("male"),
			"bday": pg.ParseLexical("1980-05-02")})},
		{ID: 1, Labels: []string{"Person"}, Props: pg.PropsOf(map[string]pg.Value{
			"name": pg.Str("John"), "gender": pg.Str("male"),
			"bday": pg.ParseLexical("2005-09-24")})},
		{ID: 2, Labels: []string{"Org."}, Props: pg.PropsOf(map[string]pg.Value{
			"name": pg.Str("Example"), "url": pg.Str("example.com")})},
		{ID: 3, Labels: nil, Props: pg.PropsOf(map[string]pg.Value{"mystery": pg.Int(1)})},
	}
	cands := schema.BuildNodeCandidates(nodes, []int{0, 0, 1, 2}, 3)
	s.ExtractNodeTypes(cands, 0.9)

	edges := []pg.Edge{
		{ID: 0, Labels: []string{"WORKS_AT"}, Src: 0, Dst: 2,
			Props: pg.PropsOf(map[string]pg.Value{"from": pg.Int(2000)})},
		{ID: 1, Labels: []string{"WORKS_AT"}, Src: 1, Dst: 2, Props: pg.PropsOf(map[string]pg.Value{"from": pg.Int(2001)})},
		{ID: 2, Labels: []string{"KNOWS"}, Src: 0, Dst: 1, Props: nil},
	}
	ecands := schema.BuildEdgeCandidates(edges, []int{0, 0, 1}, 2,
		[]string{"Person", "Person", "Person"}, []string{"Org.", "Org.", "Person"})
	s.ExtractEdgeTypes(ecands, 0.9)
	infer.Finalize(s, infer.Options{})
	return s
}

func TestPGSchemaStrict(t *testing.T) {
	s := figure1Schema(t)
	out := PGSchema(s, Strict, "Fig1")
	for _, want := range []string{
		"CREATE GRAPH TYPE Fig1 STRICT {",
		"(personType : Person { bday DATE, gender STRING, name STRING })",
		"(orgType : Org_ { name STRING, url STRING })",
		"[worksAtType : WORKS_AT { from INT /* range: [2000, 2001] */ }]",
		"(: personType)-[worksAtType",
		"]->(: orgType)",
		"/* cardinality N:1 */",
		"mystery INT",
		"ABSTRACT",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("STRICT output missing %q:\n%s", want, out)
		}
	}
}

func TestPGSchemaStrictOptionalMarker(t *testing.T) {
	s := schema.New()
	nodes := []pg.Node{
		{ID: 0, Labels: []string{"Post"}, Props: pg.PropsOf(map[string]pg.Value{"imgFile": pg.Str("a.png")})},
		{ID: 1, Labels: []string{"Post"}, Props: pg.PropsOf(map[string]pg.Value{"content": pg.Str("hi")})},
	}
	cands := schema.BuildNodeCandidates(nodes, []int{0, 1}, 2)
	s.ExtractNodeTypes(cands, 0.9)
	infer.Finalize(s, infer.Options{})
	out := PGSchema(s, Strict, "")
	if !strings.Contains(out, "OPTIONAL content STRING") || !strings.Contains(out, "OPTIONAL imgFile STRING") {
		t.Errorf("both Post properties are optional (Example 6); got:\n%s", out)
	}
}

func TestPGSchemaLoose(t *testing.T) {
	s := figure1Schema(t)
	out := PGSchema(s, Loose, "Fig1")
	if !strings.Contains(out, "CREATE GRAPH TYPE Fig1 LOOSE {") {
		t.Errorf("missing LOOSE header:\n%s", out)
	}
	if strings.Contains(out, "STRING") || strings.Contains(out, "OPTIONAL") {
		t.Errorf("LOOSE output must not constrain types:\n%s", out)
	}
	if !strings.Contains(out, "OPEN") {
		t.Errorf("LOOSE output should mark content OPEN:\n%s", out)
	}
}

func TestPGSchemaDeterministic(t *testing.T) {
	s := figure1Schema(t)
	if PGSchema(s, Strict, "X") != PGSchema(s, Strict, "X") {
		t.Fatal("serialization must be deterministic")
	}
}

func TestXSDWellFormed(t *testing.T) {
	s := figure1Schema(t)
	out := XSD(s)
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("XSD is not well-formed XML: %v\n%s", err, out)
		}
	}
	for _, want := range []string{
		`<xs:complexType name="personType">`,
		`<xs:element name="bday" type="xs:date"/>`,
		`<xs:element name="name" type="xs:string"/>`,
		`use="required"`,
		`cardinality: N:1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("XSD missing %q", want)
		}
	}
}

func TestXSDOptionalMinOccurs(t *testing.T) {
	s := schema.New()
	nodes := []pg.Node{
		{ID: 0, Labels: []string{"T"}, Props: pg.PropsOf(map[string]pg.Value{"a": pg.Int(1), "b": pg.Int(2)})},
		{ID: 1, Labels: []string{"T"}, Props: pg.PropsOf(map[string]pg.Value{"a": pg.Int(3)})},
	}
	cands := schema.BuildNodeCandidates(nodes, []int{0, 0}, 1)
	s.ExtractNodeTypes(cands, 0.9)
	infer.Finalize(s, infer.Options{})
	out := XSD(s)
	// Integer properties render as range-restricted simple types; the
	// mandatory one must not carry minOccurs, the optional one must.
	if !strings.Contains(out, `<xs:element name="a">`) {
		t.Errorf("mandatory property must not carry minOccurs: %s", out)
	}
	if !strings.Contains(out, `<xs:element name="b" minOccurs="0">`) {
		t.Errorf("optional property must carry minOccurs=0: %s", out)
	}
	if !strings.Contains(out, `<xs:minInclusive value="1"/>`) || !strings.Contains(out, `<xs:maxInclusive value="3"/>`) {
		t.Errorf("integer range restriction missing: %s", out)
	}
}

func TestXSDEnumRestriction(t *testing.T) {
	s := schema.New()
	nodes := make([]pg.Node, 12)
	for i := range nodes {
		status := []string{"open", "closed", "pending"}[i%3]
		nodes[i] = pg.Node{ID: pg.ID(i), Labels: []string{"Case"},
			Props: pg.PropsOf(map[string]pg.Value{"status": pg.Str(status)})}
	}
	assign := make([]int, len(nodes))
	cands := schema.BuildNodeCandidates(nodes, assign, 1)
	s.ExtractNodeTypes(cands, 0.9)
	infer.Finalize(s, infer.Options{})
	out := XSD(s)
	for _, v := range []string{"open", "closed", "pending"} {
		if !strings.Contains(out, `<xs:enumeration value="`+v+`"/>`) {
			t.Errorf("enum value %q missing from XSD:\n%s", v, out)
		}
	}
	strict := PGSchema(s, Strict, "")
	if !strings.Contains(strict, "/* enum: closed | open | pending */") {
		t.Errorf("enum annotation missing from STRICT PG-Schema:\n%s", strict)
	}
}

func TestIdent(t *testing.T) {
	cases := map[string]string{
		"Person":   "Person",
		"Org.":     "Org_",
		"has name": "has_name",
		"":         "_",
		"9lives":   "_9lives",
		"a&b":      "a_b",
	}
	for in, want := range cases {
		if got := ident(in); got != want {
			t.Errorf("ident(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestXSDTypeMapping(t *testing.T) {
	cases := map[pg.Kind]string{
		pg.KindInt: "xs:long", pg.KindFloat: "xs:double",
		pg.KindBool: "xs:boolean", pg.KindDate: "xs:date",
		pg.KindDateTime: "xs:dateTime", pg.KindString: "xs:string",
		pg.KindInvalid: "xs:string",
	}
	for k, want := range cases {
		if got := xsdType(k); got != want {
			t.Errorf("xsdType(%v) = %q, want %q", k, got, want)
		}
	}
}

func TestSortedTypeNames(t *testing.T) {
	s := figure1Schema(t)
	names := SortedTypeNames(s)
	if len(names) != 5 {
		t.Fatalf("type names = %v, want 5 entries", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatal("names must be sorted")
		}
	}
}

func TestEmptySchemaSerializes(t *testing.T) {
	s := schema.New()
	if out := PGSchema(s, Strict, ""); !strings.Contains(out, "CREATE GRAPH TYPE DiscoveredGraphType STRICT {") {
		t.Errorf("empty schema header wrong:\n%s", out)
	}
	out := XSD(s)
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		if _, err := dec.Token(); err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("empty XSD not well-formed: %v", err)
		}
	}
}

// Distinct types render distinct names in every format, even when their
// tokens camel alike (a_b, aB, a&b) or one edge label spans two types
// with disjoint endpoints (LDBC's HAS_CREATOR); endpoint references name
// the node type their token is.
func TestDistinctTypesRenderDistinctNames(t *testing.T) {
	s := schema.New()
	var nodes []*schema.NodeType
	for _, tok := range []string{"a_b", "aB", "a&b"} {
		nt := schema.NewNodeCandidate()
		nt.Token = tok
		for _, l := range strings.Split(tok, "&") {
			nt.Labels[l] = 1
		}
		nt.Instances = 1
		nodes = append(nodes, nt)
	}
	s.AppendNodeTypes(nodes)
	var edges []*schema.EdgeType
	for _, src := range []string{"a_b", "a&b"} {
		et := schema.NewEdgeCandidate()
		et.Token = "HAS_CREATOR"
		et.Labels["HAS_CREATOR"] = 1
		et.Instances = 1
		et.SrcTokens[src] = true
		et.DstTokens["aB"] = true
		edges = append(edges, et)
	}
	s.AppendEdgeTypes(edges)

	declared := func(out, pattern string) map[string]int {
		names := map[string]int{}
		for _, m := range regexp.MustCompile(`(?m)`+pattern).FindAllStringSubmatch(out, -1) {
			names[m[1]]++
		}
		return names
	}
	pgs := PGSchema(s, Strict, "G")
	nodeNames, edgeNames := declared(pgs, `^  \((\w+) : `), declared(pgs, `-\[(\w+) : `)
	if len(nodeNames) != 3 || len(edgeNames) != 2 {
		t.Errorf("PG-Schema declares %d node and %d edge type names for 3 and 2 types:\n%s", len(nodeNames), len(edgeNames), pgs)
	}
	for name := range edgeNames {
		if nodeNames[name] > 0 {
			t.Errorf("PG-Schema names a node type and an edge type %s", name)
		}
	}
	for _, want := range []string{
		"(: aBType)-[hasCreatorType : HAS_CREATOR]->(: aB1Type)",
		"(: aB2Type)-[hasCreator4Type : HAS_CREATOR]->(: aB1Type)",
	} {
		if !strings.Contains(pgs, want) {
			t.Errorf("PG-Schema lacks %q:\n%s", want, pgs)
		}
	}
	xsd := XSD(s)
	for name, n := range declared(xsd, `<xs:complexType name="(\w+)">`) {
		if n > 1 {
			t.Errorf("XSD declares complexType %s %d times", name, n)
		}
	}
	if got := declared(DOT(s, "G"), `^  (\w+) \[label="\{`); len(got) != 3 {
		t.Errorf("DOT declares node names %v for 3 node types", got)
	}
}
