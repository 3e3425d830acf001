// Package serialize exports a discovered schema in the two formats of
// §4.5: a PG-Schema graph type declaration (in LOOSE and STRICT
// flavours, following Angles et al., "PG-Schema: Schemas for Property
// Graphs") and an XML Schema (XSD) document for integration with
// external tools.
package serialize

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"github.com/pghive/pghive/internal/schema"
)

// Mode selects the PG-Schema strictness flavour (§3 "Schema
// constraint level"): STRICT enforces data types and mandatory
// properties, LOOSE permits deviation for noisy data.
type Mode uint8

const (
	// Loose emits a LOOSE graph type: labels and property names only,
	// all content open.
	Loose Mode = iota
	// Strict emits a STRICT graph type: data types, OPTIONAL markers
	// and cardinality comments included.
	Strict
)

// String returns the PG-Schema keyword for the mode.
func (m Mode) String() string {
	if m == Strict {
		return "STRICT"
	}
	return "LOOSE"
}

// PGSchema renders the schema as a PG-Schema CREATE GRAPH TYPE
// declaration. Type names are derived from label tokens (ABSTRACT_<n>
// for abstract types); edge types with several observed endpoint
// pairs emit one connection pattern per pair.
func PGSchema(s *schema.Schema, mode Mode, graphName string) string {
	if graphName == "" {
		graphName = "DiscoveredGraphType"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE GRAPH TYPE %s %s {\n", ident(graphName), mode)

	n := newNames(s)
	var lines []string
	for _, nt := range s.NodeTypes {
		lines = append(lines, nodeTypeDecl(n, nt, mode))
	}
	for _, et := range s.EdgeTypes {
		lines = append(lines, edgeTypeDecls(n, et, mode)...)
	}
	b.WriteString(strings.Join(lines, ",\n"))
	if len(lines) > 0 {
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	return b.String()
}

func nodeTypeDecl(n names, nt *schema.NodeType, mode Mode) string {
	var b strings.Builder
	b.WriteString("  (")
	b.WriteString(n.types[&nt.Type])
	b.WriteString(" : ")
	if nt.Abstract {
		b.WriteString("ABSTRACT")
	} else {
		b.WriteString(strings.Join(labelIdents(nt.SortedLabels()), " & "))
	}
	b.WriteString(propsBlock(&nt.Type, mode))
	b.WriteString(")")
	return b.String()
}

func edgeTypeDecls(n names, et *schema.EdgeType, mode Mode) []string {
	srcs := et.SortedSrcTokens()
	dsts := et.SortedDstTokens()
	if len(srcs) == 0 {
		srcs = []string{""}
	}
	if len(dsts) == 0 {
		dsts = []string{""}
	}
	label := "ABSTRACT"
	if !et.Abstract {
		label = strings.Join(labelIdents(et.SortedLabels()), " & ")
	}
	var out []string
	for _, src := range srcs {
		for _, dst := range dsts {
			var b strings.Builder
			b.WriteString("  (: ")
			b.WriteString(n.endpoint(src))
			b.WriteString(")-[")
			b.WriteString(n.types[&et.Type])
			b.WriteString(" : ")
			b.WriteString(label)
			b.WriteString(propsBlock(&et.Type, mode))
			b.WriteString("]->(: ")
			b.WriteString(n.endpoint(dst))
			b.WriteString(")")
			if mode == Strict && et.Cardinality != schema.CardUnknown {
				fmt.Fprintf(&b, " /* cardinality %s */", et.Cardinality)
			}
			out = append(out, b.String())
		}
	}
	return out
}

// propsBlock renders the property list. STRICT includes data types
// and OPTIONAL markers (§4.5); LOOSE lists names under OPEN content.
func propsBlock(t *schema.Type, mode Mode) string {
	keys := t.PropertyKeys()
	if len(keys) == 0 {
		if mode == Loose {
			return " { OPEN }"
		}
		return ""
	}
	parts := make([]string, 0, len(keys)+1)
	for _, k := range keys {
		ps := t.Props[k]
		switch mode {
		case Strict:
			decl := fmt.Sprintf("%s %s", ident(k), ps.DataType)
			switch {
			case len(ps.Enum) > 0:
				decl += " /* enum: " + strings.Join(ps.Enum, " | ") + " */"
			case ps.HasIntRange:
				decl += fmt.Sprintf(" /* range: [%d, %d] */", ps.MinInt, ps.MaxInt)
			}
			if !ps.Mandatory {
				decl = "OPTIONAL " + decl
			}
			parts = append(parts, decl)
		default:
			parts = append(parts, ident(k))
		}
	}
	if mode == Loose {
		parts = append(parts, "OPEN")
	}
	return " { " + strings.Join(parts, ", ") + " }"
}

// names is one render's type-variable names: lowerCamel of the token
// plus "Type" (WORKS_AT → worksAtType, Person&Student →
// personStudentType), or abstract<id>Type. Types are named in
// declaration order, node types first, and one whose name an earlier
// type took gets its ID appended (hasCreator12Type), so distinct types
// never share a name. nodes maps a node token to its first type's name.
type names struct {
	schema *schema.Schema
	types  map[*schema.Type]string
	nodes  map[string]string
}

func newNames(s *schema.Schema) names {
	n := names{schema: s, types: map[*schema.Type]string{}, nodes: map[string]string{}}
	taken := map[string]bool{}
	add := func(t *schema.Type) string {
		name := "abstract" + strconv.Itoa(t.ID) + "Type"
		if !t.Abstract && t.Token != "" {
			name = camel(t.Token) + "Type"
		}
		for taken[name] {
			name = strings.TrimSuffix(name, "Type") + strconv.Itoa(t.ID) + "Type"
		}
		taken[name] = true
		n.types[t] = name
		return name
	}
	for _, nt := range s.NodeTypes {
		if name := add(&nt.Type); nt.Token != "" && n.nodes[nt.Token] == "" {
			n.nodes[nt.Token] = name
		}
	}
	for _, et := range s.EdgeTypes {
		add(&et.Type)
	}
	return n
}

// endpoint names the node type an endpoint token refers to. The empty
// token (unresolved endpoint) renders as the open pattern. A token no
// node type carries resolves through the schema's token index, which
// UnifyNodeTypes points from a unified-away token (Organization) to the
// type that absorbed it (Company); a token that resolves to nothing
// renders as its lowerCamel name.
func (n names) endpoint(token string) string {
	if token == "" || n.nodes[token] != "" {
		return n.nodes[token]
	}
	if nt := n.schema.NodeTypeByToken(token); nt != nil && n.types[&nt.Type] != "" {
		return n.types[&nt.Type]
	}
	return camel(token) + "Type"
}

// camel folds a label token into lowerCamelCase on non-alphanumeric
// boundaries, lowering runs of capitals (WORKS_AT → worksAt).
func camel(s string) string {
	var b strings.Builder
	newWord := false
	first := true
	prevUpper := false
	for _, r := range s {
		isAlnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !isAlnum {
			newWord = !first
			continue
		}
		upper := r >= 'A' && r <= 'Z'
		switch {
		case first:
			if upper {
				r += 'a' - 'A'
			}
			first = false
		case newWord:
			if !upper && r >= 'a' && r <= 'z' {
				r -= 'a' - 'A'
			}
			newWord = false
		case upper && prevUpper:
			// Run of capitals (WORKS): lower the tail.
			r += 'a' - 'A'
		}
		prevUpper = upper
		b.WriteRune(r)
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

func labelIdents(labels []string) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = ident(l)
	}
	return out
}

// ident sanitizes a label or key into a PG-Schema identifier:
// alphanumerics and underscores, with every other rune folded to '_'.
func ident(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// SortedTypeNames returns every declared type name, sorted — a
// convenience for tests and tools that diff schema outputs.
func SortedTypeNames(s *schema.Schema) []string {
	return slices.Sorted(maps.Values(newNames(s).types))
}
