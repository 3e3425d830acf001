package serialize

import (
	"fmt"
	"strings"

	"github.com/pghive/pghive/internal/schema"
)

// DOT renders the schema graph as Graphviz DOT: one record-shaped node
// per node type (listing properties, with ° marking optional ones and
// the inferred data type), and one labeled arrow per edge type and
// endpoint pair, annotated with the cardinality — the schema
// visualization §1 motivates ("integration, exploration,
// visualization").
func DOT(s *schema.Schema, graphName string) string {
	if graphName == "" {
		graphName = "pghive_schema"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %s {\n", ident(graphName))
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=record, fontname=\"Helvetica\", fontsize=10];\n")
	b.WriteString("  edge [fontname=\"Helvetica\", fontsize=9];\n\n")

	// Node types as records: name | prop rows.
	n := newNames(s)
	declared := map[string]bool{}
	for _, nt := range s.NodeTypes {
		name := n.types[&nt.Type]
		declared[name] = true
		var rows []string
		header := dotEscape(nt.Name())
		if nt.Abstract {
			header += " (abstract)"
		}
		rows = append(rows, header)
		for _, k := range nt.PropertyKeys() {
			ps := nt.Props[k]
			row := dotEscape(k)
			if ps.DataType != 0 {
				row += " : " + ps.DataType.String()
			}
			if !ps.Mandatory {
				row += " °"
			}
			rows = append(rows, row)
		}
		fmt.Fprintf(&b, "  %s [label=\"{%s}\"];\n", ident(name), strings.Join(rows, "|"))
	}
	b.WriteString("\n")

	// Edge types as arrows per endpoint pair; unresolved endpoints
	// render as a point node.
	anon := 0
	for _, et := range s.EdgeTypes {
		label := dotEscape(et.Name())
		if et.Cardinality != schema.CardUnknown {
			label += "\\n" + et.Cardinality.String()
		}
		srcs := et.SortedSrcTokens()
		dsts := et.SortedDstTokens()
		if len(srcs) == 0 {
			srcs = []string{""}
		}
		if len(dsts) == 0 {
			dsts = []string{""}
		}
		for _, src := range srcs {
			for _, dst := range dsts {
				sn := endpointNodeName(n, src, declared, &b, &anon)
				dn := endpointNodeName(n, dst, declared, &b, &anon)
				fmt.Fprintf(&b, "  %s -> %s [label=\"%s\"];\n", sn, dn, label)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// endpointNodeName maps an endpoint token to its type node, declaring
// a placeholder point node for endpoints that have no declared type
// (unresolved or external).
func endpointNodeName(n names, token string, declared map[string]bool, b *strings.Builder, anon *int) string {
	if token == "" {
		*anon++
		name := fmt.Sprintf("unresolved_%d", *anon)
		fmt.Fprintf(b, "  %s [shape=point];\n", name)
		return name
	}
	name := n.endpoint(token)
	if !declared[name] {
		// Endpoint token that is not a declared node type (e.g. an
		// abstract type name): declare an oval for it once.
		declared[name] = true
		fmt.Fprintf(b, "  %s [shape=oval, label=\"%s\"];\n", ident(name), dotEscape(token))
	}
	return ident(name)
}

func dotEscape(s string) string {
	r := strings.NewReplacer(`"`, `\"`, "{", `\{`, "}", `\}`, "|", `\|`, "<", `\<`, ">", `\>`)
	return r.Replace(s)
}
