package pg

import (
	"fmt"
	"sort"
	"strings"
)

// ID identifies a node or an edge within a Graph. Node and edge ID
// spaces are independent (Def. 3.1 keeps V and E disjoint).
type ID int64

// Node is a property-graph node: a finite (possibly empty) label set
// and a finite set of key-value properties (Def. 3.1). Labels are kept
// sorted so that identical label sets compare equal and produce the
// same label token (§4.1).
type Node struct {
	ID     ID
	Labels []string
	Props  map[string]Value
}

// Edge is a directed property-graph edge between two nodes. Like
// nodes, edges may carry a label set and properties.
type Edge struct {
	ID     ID
	Labels []string
	Src    ID
	Dst    ID
	Props  map[string]Value
}

// LabelToken returns the canonical token for a label set: the sorted
// labels joined by "&". The paper (§4.1) treats the sorted
// concatenation of a multi-label set as one vocabulary word, so that
// identical label sets always embed identically. The empty set yields
// "".
func LabelToken(labels []string) string {
	switch len(labels) {
	case 0:
		return ""
	case 1:
		return labels[0]
	}
	s := make([]string, len(labels))
	copy(s, labels)
	sort.Strings(s)
	return strings.Join(s, "&")
}

// LabelToken returns the node's canonical label token.
func (n *Node) LabelToken() string { return LabelToken(n.Labels) }

// LabelToken returns the edge's canonical label token.
func (e *Edge) LabelToken() string { return LabelToken(e.Labels) }

// PropertyKeys returns the node's property keys in sorted order.
func (n *Node) PropertyKeys() []string { return sortedKeys(n.Props) }

// PropertyKeys returns the edge's property keys in sorted order.
func (e *Edge) PropertyKeys() []string { return sortedKeys(e.Props) }

func sortedKeys(m map[string]Value) []string {
	if len(m) == 0 {
		return nil
	}
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Graph is an in-memory property graph (Def. 3.1): disjoint node and
// edge sets, a total endpoint function for edges, and partial label
// and property functions. It is the loading substrate for PG-HIVE and
// the target the synthetic dataset generators populate.
//
// Graph is not safe for concurrent mutation; the discovery pipeline
// only reads it after loading.
type Graph struct {
	nodes     []Node
	edges     []Edge
	nodeIdx   map[ID]int
	edgeIdx   map[ID]int
	nextNode  ID
	nextEdge  ID
	allowDang bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		nodeIdx: make(map[ID]int),
		edgeIdx: make(map[ID]int),
	}
}

// AllowDanglingEdges configures the graph to accept edges whose
// endpoints are not (yet) present. Batch streaming (§4.6) needs this:
// a batch may carry an edge whose source node arrived in an earlier
// batch.
func (g *Graph) AllowDanglingEdges(ok bool) { g.allowDang = ok }

// AddNode inserts a node with a fresh ID and returns it. The labels
// slice is copied and sorted; the property map is taken over by the
// graph.
func (g *Graph) AddNode(labels []string, props map[string]Value) ID {
	id := g.nextNode
	g.nextNode++
	g.putNode(id, labels, props)
	return id
}

// PutNode inserts a node with an explicit ID (used by loaders).
// It returns an error if the ID is already present.
func (g *Graph) PutNode(id ID, labels []string, props map[string]Value) error {
	if _, dup := g.nodeIdx[id]; dup {
		return fmt.Errorf("pg: duplicate node id %d", id)
	}
	g.putNode(id, labels, props)
	if id >= g.nextNode {
		g.nextNode = id + 1
	}
	return nil
}

func (g *Graph) putNode(id ID, labels []string, props map[string]Value) {
	ls := append([]string(nil), labels...)
	sort.Strings(ls)
	if props == nil {
		props = map[string]Value{}
	}
	g.nodeIdx[id] = len(g.nodes)
	g.nodes = append(g.nodes, Node{ID: id, Labels: ls, Props: props})
}

// AddEdge inserts a directed edge with a fresh ID and returns it.
// Unless AllowDanglingEdges is set, both endpoints must exist.
func (g *Graph) AddEdge(labels []string, src, dst ID, props map[string]Value) (ID, error) {
	if !g.allowDang {
		if _, ok := g.nodeIdx[src]; !ok {
			return 0, fmt.Errorf("pg: edge source node %d not found", src)
		}
		if _, ok := g.nodeIdx[dst]; !ok {
			return 0, fmt.Errorf("pg: edge target node %d not found", dst)
		}
	}
	id := g.nextEdge
	g.nextEdge++
	g.putEdge(id, labels, src, dst, props)
	return id, nil
}

// PutEdge inserts an edge with an explicit ID (used by loaders).
func (g *Graph) PutEdge(id ID, labels []string, src, dst ID, props map[string]Value) error {
	if _, dup := g.edgeIdx[id]; dup {
		return fmt.Errorf("pg: duplicate edge id %d", id)
	}
	if !g.allowDang {
		if _, ok := g.nodeIdx[src]; !ok {
			return fmt.Errorf("pg: edge source node %d not found", src)
		}
		if _, ok := g.nodeIdx[dst]; !ok {
			return fmt.Errorf("pg: edge target node %d not found", dst)
		}
	}
	g.putEdge(id, labels, src, dst, props)
	if id >= g.nextEdge {
		g.nextEdge = id + 1
	}
	return nil
}

func (g *Graph) putEdge(id ID, labels []string, src, dst ID, props map[string]Value) {
	ls := append([]string(nil), labels...)
	sort.Strings(ls)
	if props == nil {
		props = map[string]Value{}
	}
	g.edgeIdx[id] = len(g.edges)
	g.edges = append(g.edges, Edge{ID: id, Labels: ls, Src: src, Dst: dst, Props: props})
}

// RemoveNode deletes a node by ID, reporting whether it was present.
// The hole is filled by swapping the last node in, so insertion order
// is not preserved. Edges are not touched — this exists for the
// label-only bookkeeping graphs (stream and service resolvers), which
// must drop entries when elements are retracted or they grow without
// bound under churn.
func (g *Graph) RemoveNode(id ID) bool {
	i, ok := g.nodeIdx[id]
	if !ok {
		return false
	}
	last := len(g.nodes) - 1
	if i != last {
		g.nodes[i] = g.nodes[last]
		g.nodeIdx[g.nodes[i].ID] = i
	}
	g.nodes = g.nodes[:last]
	delete(g.nodeIdx, id)
	return true
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NodeIndex returns the position in Nodes() of the node with the given
// ID: the row under which a ShapeIndex built over Nodes() files it.
func (g *Graph) NodeIndex(id ID) (row int, ok bool) {
	row, ok = g.nodeIdx[id]
	return row, ok
}

// Node returns the node with the given ID, or nil if absent.
func (g *Graph) Node(id ID) *Node {
	i, ok := g.nodeIdx[id]
	if !ok {
		return nil
	}
	return &g.nodes[i]
}

// Edge returns the edge with the given ID, or nil if absent.
func (g *Graph) Edge(id ID) *Edge {
	i, ok := g.edgeIdx[id]
	if !ok {
		return nil
	}
	return &g.edges[i]
}

// Nodes returns the node slice in insertion order. Callers must not
// append to it; element mutation is permitted for in-place transforms
// such as noise injection.
func (g *Graph) Nodes() []Node { return g.nodes }

// Edges returns the edge slice in insertion order, with the same
// aliasing rules as Nodes.
func (g *Graph) Edges() []Edge { return g.edges }

// SrcLabels returns the label set of the edge's source node when it is
// resolvable in this graph, or nil otherwise (dangling endpoints in a
// batch).
func (g *Graph) SrcLabels(e *Edge) []string {
	if n := g.Node(e.Src); n != nil {
		return n.Labels
	}
	return nil
}

// DstLabels returns the label set of the edge's target node, or nil.
func (g *Graph) DstLabels(e *Edge) []string {
	if n := g.Node(e.Dst); n != nil {
		return n.Labels
	}
	return nil
}

// Clone returns a deep copy of the graph. Noise-injection experiments
// clone the clean dataset once per configuration.
func (g *Graph) Clone() *Graph {
	c := NewGraph()
	c.allowDang = g.allowDang
	c.nextNode, c.nextEdge = g.nextNode, g.nextEdge
	c.nodes = make([]Node, len(g.nodes))
	c.edges = make([]Edge, len(g.edges))
	for i, n := range g.nodes {
		cp := n
		cp.Labels = append([]string(nil), n.Labels...)
		cp.Props = make(map[string]Value, len(n.Props))
		for k, v := range n.Props {
			cp.Props[k] = v
		}
		c.nodes[i] = cp
		c.nodeIdx[n.ID] = i
	}
	for i, e := range g.edges {
		cp := e
		cp.Labels = append([]string(nil), e.Labels...)
		cp.Props = make(map[string]Value, len(e.Props))
		for k, v := range e.Props {
			cp.Props[k] = v
		}
		c.edges[i] = cp
		c.edgeIdx[e.ID] = i
	}
	return c
}

// DistinctNodeLabels returns the sorted set of individual labels that
// appear on at least one node.
func (g *Graph) DistinctNodeLabels() []string {
	set := map[string]struct{}{}
	for i := range g.nodes {
		for _, l := range g.nodes[i].Labels {
			set[l] = struct{}{}
		}
	}
	return setToSorted(set)
}

// DistinctEdgeLabels returns the sorted set of individual labels that
// appear on at least one edge.
func (g *Graph) DistinctEdgeLabels() []string {
	set := map[string]struct{}{}
	for i := range g.edges {
		for _, l := range g.edges[i].Labels {
			set[l] = struct{}{}
		}
	}
	return setToSorted(set)
}

// DistinctNodePropertyKeys returns the sorted global node property key
// set K_n (§4.1), which fixes the binary-vector layout.
func (g *Graph) DistinctNodePropertyKeys() []string {
	set := map[string]struct{}{}
	for i := range g.nodes {
		for k := range g.nodes[i].Props {
			set[k] = struct{}{}
		}
	}
	return setToSorted(set)
}

// DistinctEdgePropertyKeys returns the sorted global edge property key
// set K_e (§4.1).
func (g *Graph) DistinctEdgePropertyKeys() []string {
	set := map[string]struct{}{}
	for i := range g.edges {
		for k := range g.edges[i].Props {
			set[k] = struct{}{}
		}
	}
	return setToSorted(set)
}

func setToSorted(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
