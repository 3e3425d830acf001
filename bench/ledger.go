package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"github.com/pghive/pghive/internal/datagen"
	"github.com/pghive/pghive/internal/pg"
)

// opKind is what one write of the ledger does.
type opKind uint8

const (
	growthIngest opKind = iota // POST /ingest of a batch that stays
	churnIngest                // POST /ingest of a self-contained batch that is retracted later
	churnRetract               // POST /retract of that same batch
)

func (k opKind) String() string {
	return [...]string{"growth-ingest", "churn-ingest", "churn-retract"}[k]
}

// writeOp is one mutating request: what it is, the bytes that go on
// the wire, the idempotency key it carries and how many elements it
// adds (or, for a retraction, removes).
type writeOp struct {
	kind  opKind
	key   string
	body  []byte
	nodes int
	edges int
	churn int // which churn batch this op ingests or retracts; -1 for growth
}

// ledger is everything a serve regime sends, in order. It is a pure
// function of (workload, seed): two runs with the same pair drive the
// server with identical bytes in identical order, which sha proves.
type ledger struct {
	base   []writeOp // bulk load of the base graph, nodes before edges
	writes []writeOp // the op sequence the phases consume front to back
	probe  []byte    // body of every POST /validate
	// probeElems is how many elements the probe holds (what /validate
	// must report as checked).
	probeElems int
	sha        string
}

const (
	batchElems = 50    // target elements per ledger write
	baseChunk  = 20000 // elements per bulk-load request, well under the server's body cap
	// ID ranges keep the base, the growth graph and every churn batch
	// disjoint, so no write ever re-ingests an ID.
	growthIDBase = 10_000_000
	churnIDBase  = 100_000_000
	churnIDStep  = 1000
	// churnGap is how many writes lie between a churn batch's ingest
	// and its retraction; the 3:1:1 pattern makes it six.
	churnGap = 6
)

// subSeed derives the seed of one generated input from the run's seed.
func subSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// shifted returns a copy of g whose node IDs are raised by nodeOff and
// edge IDs by edgeOff. Property maps are shared, never written.
func shifted(g *pg.Graph, nodeOff, edgeOff pg.ID) *pg.Graph {
	out := pg.NewGraph()
	for _, n := range g.Nodes() {
		_ = out.PutNode(n.ID+nodeOff, n.Labels, n.Props) // IDs are unique in g
	}
	for _, e := range g.Edges() {
		_ = out.PutEdge(e.ID+edgeOff, e.Labels, e.Src+nodeOff, e.Dst+nodeOff, e.Props)
	}
	return out
}

// cutRandom partitions g into n batches the way pg.SplitBatches does —
// every node and every edge lands, independently and uniformly, in one
// batch, so edges routinely precede or trail their endpoints — without
// the per-batch resolver copies SplitBatches also builds, which cost
// O(n * elements) and do not fit in memory for thousands of batches.
func cutRandom(g *pg.Graph, n int, rng *rand.Rand) []*pg.Graph {
	out := make([]*pg.Graph, n)
	for i := range out {
		out[i] = pg.NewGraph()
		out[i].AllowDanglingEdges(true)
	}
	for _, nd := range g.Nodes() {
		_ = out[rng.Intn(n)].PutNode(nd.ID, nd.Labels, nd.Props) // IDs are unique in g
	}
	for _, e := range g.Edges() {
		_ = out[rng.Intn(n)].PutEdge(e.ID, e.Labels, e.Src, e.Dst, e.Props)
	}
	return out
}

func jsonl(g *pg.Graph) []byte {
	var buf bytes.Buffer
	if err := pg.WriteJSONL(&buf, g); err != nil {
		panic(fmt.Sprintf("bench: encode generated batch: %v", err)) // bytes.Buffer cannot fail; values are generated
	}
	return buf.Bytes()
}

// buildLedger generates the base load and nWrites ledger writes for a
// serve regime. The write pattern repeats growth, growth, growth,
// churn-ingest, churn-retract; the retraction names the churn batch
// ingested churnGap writes earlier, so retract runs beside ingest on
// the same write path for the whole run.
func buildLedger(name string, base *pg.Graph, nWrites int, seed int64) *ledger {
	l := &ledger{}
	key := func(tag string, i int) string { return fmt.Sprintf("%s-%d-%s%05d", name, seed, tag, i) }

	// Base: contiguous chunks, every node before any edge, so an edge
	// always finds its endpoints in the same or an earlier request.
	nodes, edges := base.Nodes(), base.Edges()
	for len(nodes) > 0 || len(edges) > 0 {
		g := pg.NewGraph()
		g.AllowDanglingEdges(true)
		room := baseChunk
		for ; room > 0 && len(nodes) > 0; room, nodes = room-1, nodes[1:] {
			_ = g.PutNode(nodes[0].ID, nodes[0].Labels, nodes[0].Props)
		}
		for ; room > 0 && len(edges) > 0; room, edges = room-1, edges[1:] {
			e := edges[0]
			_ = g.PutEdge(e.ID, e.Labels, e.Src, e.Dst, e.Props)
		}
		l.base = append(l.base, writeOp{kind: growthIngest, key: key("base", len(l.base)),
			body: jsonl(g), nodes: g.NumNodes(), edges: g.NumEdges(), churn: -1})
	}

	// Growth: one LDBC graph with IDs of its own, cut at random into
	// ~50-element batches, so edges resolve endpoints that arrived in
	// earlier requests (or dangle, as real streams do).
	nGrowth := nWrites*3/5 + 2
	spec := datagen.LDBC()
	perScale := float64(spec.DefaultNodes + spec.DefaultEdges)
	gd := datagen.Generate(spec, float64(nGrowth*batchElems)/perScale, subSeed(seed, 1))
	growth := cutRandom(shifted(gd.Graph, growthIDBase, growthIDBase), nGrowth,
		rand.New(rand.NewSource(subSeed(seed, 2))))

	// churn k is generated when its ingest comes up and read again by
	// its retraction.
	var churns []writeOp
	newChurn := func() writeOp {
		k := len(churns)
		d := datagen.Generate(spec, float64(batchElems)/perScale, subSeed(seed, 1000+k))
		off := pg.ID(churnIDBase + k*churnIDStep)
		g := shifted(d.Graph, off, off)
		churns = append(churns, writeOp{body: jsonl(g), nodes: g.NumNodes(), edges: g.NumEdges(), churn: k})
		return churns[k]
	}

	nextGrowth := 0
	for i := 0; i < nWrites; i++ {
		var op writeOp
		switch slot, cycle := i%5, i/5; {
		case slot == 3:
			op = newChurn()
			op.kind = churnIngest
		case slot == 4 && cycle >= 1:
			op = churns[cycle-1]
			op.kind = churnRetract
		default:
			g := growth[nextGrowth]
			nextGrowth++
			op = writeOp{kind: growthIngest, body: jsonl(g), nodes: g.NumNodes(), edges: g.NumEdges(), churn: -1}
		}
		op.key = key("w", i)
		l.writes = append(l.writes, op)
	}

	// The probe is a self-contained batch that is never ingested.
	pd := datagen.Generate(spec, float64(batchElems)/perScale, subSeed(seed, 3))
	pgr := shifted(pd.Graph, churnIDBase-churnIDStep, churnIDBase-churnIDStep)
	l.probe, l.probeElems = jsonl(pgr), pgr.NumNodes()+pgr.NumEdges()

	h := sha256.New()
	for _, ops := range [][]writeOp{l.base, l.writes} {
		for _, op := range ops {
			fmt.Fprintf(h, "%d %s %d\n", op.kind, op.key, len(op.body))
			h.Write(op.body)
		}
	}
	h.Write(l.probe)
	l.sha = hex.EncodeToString(h.Sum(nil))
	return l
}

// counts returns how many nodes and edges the server must hold after
// the base load and the first n ledger writes.
func (l *ledger) counts(n int) (nodes, edges int) {
	for _, op := range l.base {
		nodes, edges = nodes+op.nodes, edges+op.edges
	}
	for _, op := range l.writes[:n] {
		if op.kind == churnRetract {
			nodes, edges = nodes-op.nodes, edges-op.edges
		} else {
			nodes, edges = nodes+op.nodes, edges+op.edges
		}
	}
	return nodes, edges
}
