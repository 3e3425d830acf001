package pg

import "math/rand"

// Batch is one increment of a property-graph stream (§4.6): the nodes
// and edges that arrived together. Edges in a batch may reference
// nodes delivered in earlier batches, so Batch graphs allow dangling
// endpoints; SrcLabels/DstLabels resolve against the Resolver when the
// endpoint is not local.
type Batch struct {
	// Graph holds the batch's own nodes and edges.
	Graph *Graph
	// Resolver resolves endpoint nodes that arrived in earlier
	// batches: a stream's LabelIndex, or a Graph holding them. It may
	// be nil for the first batch.
	Resolver Resolver
	// Index is the 1-based position of the batch in the stream.
	Index int
}

// SplitBatches partitions the graph into n random batches, the way the
// paper's incremental experiment does ("we randomly separate the graph
// into 10 batches", §5). Every node and edge lands in exactly one
// batch; edges are assigned independently of their endpoints, so
// batches routinely contain dangling edges, which is exactly the
// streaming condition the incremental pipeline must tolerate. The
// returned batches share no structure with g other than the property
// maps, and each Resolver is a LabelIndex of the nodes of all earlier
// batches plus the batch itself.
func SplitBatches(g *Graph, n int, rng *rand.Rand) []*Batch {
	if n < 1 {
		n = 1
	}
	nodeAssign := make([]int, g.NumNodes())
	for i := range nodeAssign {
		nodeAssign[i] = rng.Intn(n)
	}
	edgeAssign := make([]int, g.NumEdges())
	for i := range edgeAssign {
		edgeAssign[i] = rng.Intn(n)
	}

	batches := make([]*Batch, n)
	for b := 0; b < n; b++ {
		bg := NewGraph()
		bg.AllowDanglingEdges(true)
		batches[b] = &Batch{Graph: bg, Index: b + 1}
	}
	nodes := g.Nodes()
	for i := range nodes {
		b := nodeAssign[i]
		n := &nodes[i]
		_ = batches[b].Graph.PutNode(n.ID, n.Labels, n.Props)
	}
	edges := g.Edges()
	for i := range edges {
		b := edgeAssign[i]
		e := &edges[i]
		_ = batches[b].Graph.PutEdge(e.ID, e.Labels, e.Src, e.Dst, e.Props)
	}
	// The resolver for batch i must contain everything up to and
	// including batch i, so endpoint labels of intra-batch edges
	// resolve too: each batch gets a clone of the accumulated index.
	var acc LabelIndex
	for b := 0; b < n; b++ {
		nodes := batches[b].Graph.Nodes()
		for i := range nodes {
			acc.Put(nodes[i].ID, nodes[i].Labels)
		}
		cum := acc.Clone()
		batches[b].Resolver = &cum
	}
	return batches
}
