package serialize

import (
	"fmt"
	"strings"

	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

// xsdType maps a property data type to the corresponding XML Schema
// built-in type.
func xsdType(k pg.Kind) string {
	switch k {
	case pg.KindInt:
		return "xs:long"
	case pg.KindFloat:
		return "xs:double"
	case pg.KindBool:
		return "xs:boolean"
	case pg.KindDate:
		return "xs:date"
	case pg.KindDateTime:
		return "xs:dateTime"
	default:
		return "xs:string"
	}
}

// XSD renders the schema as an XML Schema document: one complexType
// per node and edge type, property keys as elements (minOccurs="0"
// for optional properties), and edge endpoint references as source
// and target attributes constrained by documentation annotations.
func XSD(s *schema.Schema) string {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	b.WriteString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema" elementFormDefault="qualified">` + "\n")

	n := newNames(s)
	for _, nt := range s.NodeTypes {
		writeComplexType(&b, n.types[&nt.Type], &nt.Type, "node", nil, nil, schema.CardUnknown)
	}
	for _, et := range s.EdgeTypes {
		writeComplexType(&b, n.types[&et.Type], &et.Type, "edge", et.SortedSrcTokens(), et.SortedDstTokens(), et.Cardinality)
	}

	// Top-level graph element: a sequence of any declared type.
	b.WriteString("  <xs:element name=\"graph\">\n")
	b.WriteString("    <xs:complexType>\n")
	b.WriteString("      <xs:choice minOccurs=\"0\" maxOccurs=\"unbounded\">\n")
	for _, nt := range s.NodeTypes {
		name := xmlName(n.types[&nt.Type])
		fmt.Fprintf(&b, "        <xs:element name=%q type=%q/>\n", name, name)
	}
	for _, et := range s.EdgeTypes {
		name := xmlName(n.types[&et.Type])
		fmt.Fprintf(&b, "        <xs:element name=%q type=%q/>\n", name, name)
	}
	b.WriteString("      </xs:choice>\n")
	b.WriteString("    </xs:complexType>\n")
	b.WriteString("  </xs:element>\n")
	b.WriteString("</xs:schema>\n")
	return b.String()
}

func writeComplexType(b *strings.Builder, name string, t *schema.Type, kind string, srcs, dsts []string, card schema.Cardinality) {
	fmt.Fprintf(b, "  <xs:complexType name=%q>\n", xmlName(name))
	fmt.Fprintf(b, "    <xs:annotation>\n")
	fmt.Fprintf(b, "      <xs:documentation>%s type; labels: %s",
		kind, xmlEscape(strings.Join(t.SortedLabels(), ", ")))
	if kind == "edge" {
		fmt.Fprintf(b, "; sources: %s; targets: %s",
			xmlEscape(strings.Join(srcs, ", ")), xmlEscape(strings.Join(dsts, ", ")))
		if card != schema.CardUnknown {
			fmt.Fprintf(b, "; cardinality: %s", card)
		}
	}
	fmt.Fprintf(b, "</xs:documentation>\n")
	fmt.Fprintf(b, "    </xs:annotation>\n")
	b.WriteString("    <xs:sequence>\n")
	for _, k := range t.PropertyKeys() {
		ps := t.Props[k]
		occ := ""
		if !ps.Mandatory {
			occ = ` minOccurs="0"`
		}
		switch {
		case len(ps.Enum) > 0:
			// Enumerated string properties become inline simpleType
			// restrictions.
			fmt.Fprintf(b, "      <xs:element name=%q%s>\n", xmlName(k), occ)
			b.WriteString("        <xs:simpleType>\n")
			b.WriteString("          <xs:restriction base=\"xs:string\">\n")
			for _, v := range ps.Enum {
				fmt.Fprintf(b, "            <xs:enumeration value=%q/>\n", xmlEscape(v))
			}
			b.WriteString("          </xs:restriction>\n")
			b.WriteString("        </xs:simpleType>\n")
			b.WriteString("      </xs:element>\n")
		case ps.HasIntRange:
			fmt.Fprintf(b, "      <xs:element name=%q%s>\n", xmlName(k), occ)
			b.WriteString("        <xs:simpleType>\n")
			b.WriteString("          <xs:restriction base=\"xs:long\">\n")
			fmt.Fprintf(b, "            <xs:minInclusive value=\"%d\"/>\n", ps.MinInt)
			fmt.Fprintf(b, "            <xs:maxInclusive value=\"%d\"/>\n", ps.MaxInt)
			b.WriteString("          </xs:restriction>\n")
			b.WriteString("        </xs:simpleType>\n")
			b.WriteString("      </xs:element>\n")
		default:
			fmt.Fprintf(b, "      <xs:element name=%q type=%q%s/>\n", xmlName(k), xsdType(ps.DataType), occ)
		}
	}
	b.WriteString("    </xs:sequence>\n")
	if kind == "edge" {
		b.WriteString("    <xs:attribute name=\"source\" type=\"xs:string\" use=\"required\"/>\n")
		b.WriteString("    <xs:attribute name=\"target\" type=\"xs:string\" use=\"required\"/>\n")
	}
	b.WriteString("  </xs:complexType>\n")
}

// xmlName sanitizes a string into a valid XML NCName.
func xmlName(s string) string {
	out := ident(s)
	if out == "" || (out[0] >= '0' && out[0] <= '9') {
		out = "_" + out
	}
	return out
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&apos;")
	return r.Replace(s)
}
