// Package validate checks a property graph against a discovered
// schema — the validation use case §4.4 motivates ("a precise schema,
// which supports validation processes") — under the two strictness
// regimes of PG-Schema that §3 discusses:
//
//   - LOOSE: every element must be *typeable* (its label set matches a
//     schema type, or an abstract type covers its structure); property
//     content is open.
//   - STRICT: additionally, every property must be declared by the
//     type, mandatory properties must be present, values must conform
//     to the inferred data types (including enums and integer ranges),
//     edge endpoints must match the type's connectivity, and observed
//     degrees must not exceed the declared cardinality class.
package validate

import (
	"fmt"
	"slices"

	"github.com/pghive/pghive/internal/infer"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

// Mode selects the validation regime.
type Mode uint8

const (
	// Loose checks typeability only.
	Loose Mode = iota
	// Strict checks properties, data types, constraints, endpoints
	// and cardinalities.
	Strict
)

// Violation describes one conformance failure.
type Violation struct {
	// Element identifies the offending node or edge.
	Element pg.ID
	// IsEdge distinguishes the two ID spaces.
	IsEdge bool
	// Rule names the violated rule.
	Rule string
	// Detail is a human-readable explanation.
	Detail string
}

// String renders the violation.
func (v Violation) String() string {
	kind := "node"
	if v.IsEdge {
		kind = "edge"
	}
	return fmt.Sprintf("%s %d: %s: %s", kind, v.Element, v.Rule, v.Detail)
}

// Report is the outcome of a validation run.
type Report struct {
	// Checked counts validated elements.
	Checked int
	// Violations lists every failure, capped at MaxViolations.
	Violations []Violation
	// Truncated is set when the violation cap was hit.
	Truncated bool
}

// Valid reports whether the graph conforms.
func (r *Report) Valid() bool { return len(r.Violations) == 0 }

// MaxViolations caps report size for pathological inputs.
const MaxViolations = 1000

func (r *Report) add(v Violation) bool {
	if len(r.Violations) >= MaxViolations {
		r.Truncated = true
		return false
	}
	r.Violations = append(r.Violations, v)
	return true
}

// Graph validates every node and edge of g against s. The report is a
// function of its inputs: nodes, then edges, in graph order, each
// element's violations in property-key order, then the cardinality
// violations by edge type in schema order and by node ID — so
// identical requests get identical reports, a truncated one included.
func Graph(g *pg.Graph, s *schema.Schema, mode Mode) *Report {
	r := &Report{}
	mandatory := mandatoryKeys{}
	nodeTypeOf := map[pg.ID]*schema.NodeType{}
	nodes := g.Nodes()
	for i := range nodes {
		n := &nodes[i]
		r.Checked++
		nt := matchNodeType(s, n)
		if nt == nil {
			if !r.add(Violation{Element: n.ID, Rule: "typeable",
				Detail: fmt.Sprintf("no schema type covers label set %v", n.Labels)}) {
				return r
			}
			continue
		}
		nodeTypeOf[n.ID] = nt
		if mode == Strict {
			validateProps(r, n.ID, false, &nt.Type, n.Props, mandatory)
		}
	}
	edges := g.Edges()
	degOut := map[*schema.EdgeType]map[pg.ID]int{}
	degIn := map[*schema.EdgeType]map[pg.ID]int{}
	for i := range edges {
		e := &edges[i]
		r.Checked++
		et := matchEdgeType(s, g, e, nodeTypeOf)
		if et == nil {
			if !r.add(Violation{Element: e.ID, IsEdge: true, Rule: "typeable",
				Detail: fmt.Sprintf("no schema type covers edge label set %v with its endpoints", e.Labels)}) {
				return r
			}
			continue
		}
		if mode == Strict {
			validateProps(r, e.ID, true, &et.Type, e.Props, mandatory)
			if degOut[et] == nil {
				degOut[et] = map[pg.ID]int{}
				degIn[et] = map[pg.ID]int{}
			}
			degOut[et][e.Src]++
			degIn[et][e.Dst]++
		}
	}
	if mode == Strict {
		validateCardinalities(r, s, degOut, degIn)
	}
	return r
}

// matchNodeType finds the schema type covering a node: by exact label
// token for labeled nodes; for unlabeled nodes, any type whose
// property keys cover the node's.
func matchNodeType(s *schema.Schema, n *pg.Node) *schema.NodeType {
	if tok := n.LabelToken(); tok != "" {
		if nt := s.NodeTypeByToken(tok); nt != nil {
			return nt
		}
		// A type whose label set is a superset also covers it (LOOSE
		// flexibility for partially labeled instances).
		for _, nt := range s.NodeTypes {
			if coversLabels(nt.Labels, n.Labels) {
				return nt
			}
		}
		return nil
	}
	for _, nt := range s.NodeTypes {
		if coversKeys(nt.Props, n.Props) {
			return nt
		}
	}
	return nil
}

func coversLabels(have map[string]int, want []string) bool {
	for _, l := range want {
		if have[l] <= 0 {
			return false
		}
	}
	return true
}

func coversKeys(have map[string]*schema.PropStat, want pg.Props) bool {
	for _, p := range want {
		if have[p.Key] == nil {
			return false
		}
	}
	return true
}

// matchEdgeType finds the schema edge type covering an edge: same
// label token and, when endpoint types are resolvable, compatible
// endpoint token sets.
func matchEdgeType(s *schema.Schema, g *pg.Graph, e *pg.Edge, nodeTypeOf map[pg.ID]*schema.NodeType) *schema.EdgeType {
	candidates := s.EdgeTypesByToken(e.LabelToken())
	if e.LabelToken() == "" {
		// Unlabeled edges: any abstract edge type whose property keys
		// cover the edge's.
		for _, et := range s.AbstractEdgeTypes() {
			if coversKeys(et.Props, e.Props) {
				return et
			}
		}
		return nil
	}
	srcTok := endpointToken(g, e.Src, nodeTypeOf)
	dstTok := endpointToken(g, e.Dst, nodeTypeOf)
	for _, et := range candidates {
		if (srcTok == "" || len(et.SrcTokens) == 0 || et.SrcTokens[srcTok]) &&
			(dstTok == "" || len(et.DstTokens) == 0 || et.DstTokens[dstTok]) {
			return et
		}
	}
	return nil
}

func endpointToken(g *pg.Graph, id pg.ID, nodeTypeOf map[pg.ID]*schema.NodeType) string {
	if n := g.Node(id); n != nil && len(n.Labels) > 0 {
		return n.LabelToken()
	}
	if nt := nodeTypeOf[id]; nt != nil {
		return nt.Name()
	}
	return ""
}

// mandatoryKeys memoizes, per type, its mandatory property keys in
// sorted order, so one validation computes them once per type, not
// once per element.
type mandatoryKeys map[*schema.Type][]string

func (m mandatoryKeys) of(t *schema.Type) []string {
	ks, ok := m[t]
	if !ok {
		for _, k := range t.PropertyKeys() {
			if t.Props[k].Mandatory {
				ks = append(ks, k)
			}
		}
		m[t] = ks
	}
	return ks
}

// validateProps applies the STRICT property rules of one element
// against its type, in property-key order.
func validateProps(r *Report, id pg.ID, isEdge bool, t *schema.Type, props pg.Props, mandatory mandatoryKeys) {
	// Undeclared properties.
	for _, p := range props {
		k, v := p.Key, p.Val
		ps := t.Props[k]
		if ps == nil {
			r.add(Violation{Element: id, IsEdge: isEdge, Rule: "undeclared-property",
				Detail: fmt.Sprintf("property %q not declared by type %s", k, t.Name())})
			continue
		}
		if !infer.Conforms(v.Kind(), ps.DataType) {
			r.add(Violation{Element: id, IsEdge: isEdge, Rule: "datatype",
				Detail: fmt.Sprintf("property %q value %q has kind %s, type declares %s",
					k, v.Lexical(), v.Kind(), ps.DataType)})
			continue
		}
		if len(ps.Enum) > 0 && v.Kind() == pg.KindString && !contains(ps.Enum, v.AsString()) {
			r.add(Violation{Element: id, IsEdge: isEdge, Rule: "enum",
				Detail: fmt.Sprintf("property %q value %q outside enum %v", k, v.AsString(), ps.Enum)})
		}
		if ps.HasIntRange && v.Kind() == pg.KindInt {
			if iv := v.AsInt(); iv < ps.MinInt || iv > ps.MaxInt {
				r.add(Violation{Element: id, IsEdge: isEdge, Rule: "range",
					Detail: fmt.Sprintf("property %q value %d outside [%d, %d]", k, iv, ps.MinInt, ps.MaxInt)})
			}
		}
	}
	// Missing mandatory properties.
	for _, k := range mandatory.of(t) {
		if !props.Get(k).IsValid() {
			r.add(Violation{Element: id, IsEdge: isEdge, Rule: "mandatory",
				Detail: fmt.Sprintf("mandatory property %q of type %s missing", k, t.Name())})
		}
	}
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// validateCardinalities checks observed degrees against each edge
// type's declared cardinality class: edge types in schema order, and
// within one, out-degrees then in-degrees by node ID.
func validateCardinalities(r *Report, s *schema.Schema, degOut, degIn map[*schema.EdgeType]map[pg.ID]int) {
	for _, et := range s.EdgeTypes {
		outs, ok := degOut[et]
		if !ok {
			continue
		}
		maxOut, maxIn := 1, 1
		switch et.Cardinality {
		case schema.CardManyToMany:
			continue // no upper bound on either side
		case schema.CardOneToMany:
			maxOut = -1 // unbounded out-degree
		case schema.CardManyToOne:
			maxIn = -1
		case schema.CardUnknown:
			continue
		}
		if maxOut > 0 {
			overDegree(r, outs, maxOut, "outgoing", et)
		}
		if maxIn > 0 {
			overDegree(r, degIn[et], maxIn, "incoming", et)
		}
	}
}

// overDegree reports, by node ID, every node whose degree exceeds max.
func overDegree(r *Report, deg map[pg.ID]int, max int, dir string, et *schema.EdgeType) {
	var over []pg.ID
	for id, d := range deg {
		if d > max {
			over = append(over, id)
		}
	}
	slices.Sort(over)
	for _, id := range over {
		r.add(Violation{Element: id, Rule: "cardinality",
			Detail: fmt.Sprintf("node has %d %s %s edges, type declares %s",
				deg[id], dir, et.Name(), et.Cardinality)})
	}
}
