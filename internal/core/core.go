// Package core implements the PG-HIVE schema-discovery pipeline of
// §4 (Algorithm 1): preprocessing into representation vectors, LSH
// clustering (ELSH or MinHash), type extraction and merging
// (Algorithm 2), optional post-processing (constraints, data types,
// cardinalities), and the incremental batch mode of §4.6.
package core

import (
	"io"
	"runtime"
	"time"

	"github.com/pghive/pghive/internal/infer"
	"github.com/pghive/pghive/internal/lsh"
	"github.com/pghive/pghive/internal/parallel"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
	"github.com/pghive/pghive/internal/vectorize"
	"github.com/pghive/pghive/internal/word2vec"
)

// Method selects the LSH clustering scheme (§4.2).
type Method uint8

const (
	// ELSH is Euclidean (p-stable / bucketed random projection) LSH
	// over the hybrid representation vectors.
	ELSH Method = iota
	// MinHash is MinHash LSH over label/property token sets.
	MinHash
)

// String names the method the way the paper's figures do.
func (m Method) String() string {
	if m == MinHash {
		return "PG-HIVE-MinHash"
	}
	return "PG-HIVE-ELSH"
}

// EmbeddingMode selects how label tokens are embedded for ELSH.
type EmbeddingMode uint8

const (
	// EmbedWord2Vec trains a skip-gram model on the label corpus of
	// each processed graph or batch (the paper's approach, §4.1).
	EmbedWord2Vec EmbeddingMode = iota
	// EmbedHashed derives deterministic hash-based unit vectors per
	// token with no training: cheaper, and stable across batches.
	EmbedHashed
)

// Options configures a discovery run.
type Options struct {
	// Method is the clustering scheme (default ELSH).
	Method Method
	// Theta is the Jaccard merge threshold θ (default 0.9, §4.3).
	Theta float64
	// Embedding selects the label-embedding provider for ELSH.
	Embedding EmbeddingMode
	// EmbedDim is the Word2Vec dimension d (default 16).
	EmbedDim int
	// LabelWeight scales the label-embedding block of the hybrid
	// vectors relative to the binary property block (default 3). A
	// weight above 1 keeps semantically different but structurally
	// similar elements apart under heavy property noise — the role
	// §4.1 assigns to the hybrid representation.
	LabelWeight float64
	// W2V optionally overrides the full Word2Vec configuration; the
	// zero value uses defaults with EmbedDim and Seed applied.
	W2V word2vec.Config
	// NodeParams / EdgeParams pin the LSH parameters; nil selects the
	// adaptive strategy of §4.2.
	NodeParams *lsh.Params
	EdgeParams *lsh.Params
	// PostProcess runs §4.4 inference after every batch (Algorithm 1
	// line 7 flag); the final batch always runs it.
	PostProcess bool
	// DisableMerging skips the Algorithm 2 type-extraction merge and
	// turns every raw LSH cluster into its own type. Only useful for
	// the merge-step ablation; incremental discovery degenerates to
	// per-batch schemas under it.
	DisableMerging bool
	// Infer configures data-type inference sampling.
	Infer infer.Options
	// Seed drives every random choice in the pipeline.
	Seed int64
	// Parallelism is the number of worker goroutines each parallel
	// stage uses: endpoint resolution, vectorization, LSH signature
	// computation, and bucket sharding. 0 (the default) selects
	// runtime.NumCPU(); 1 forces fully sequential execution. Stages run
	// one after another, so Parallelism is also the peak concurrency.
	// The discovered schema is bit-identical for every value: work is
	// sharded into disjoint index ranges and merged in a fixed order,
	// and the stochastic stages (Word2Vec training, LSH parameter
	// adaptation) always run sequentially from Seed.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.Theta <= 0 {
		o.Theta = schema.DefaultTheta
	}
	if o.EmbedDim <= 0 {
		o.EmbedDim = 16
	}
	if o.LabelWeight <= 0 {
		o.LabelWeight = 3
	}
	o.Parallelism = parallel.Workers(o.Parallelism)
	return o
}

// scaledEmbedder multiplies an inner embedder's vectors by a constant
// weight, giving the label block more influence on Euclidean
// distances than individual property bits. Vectors are memoized per
// token; not safe for concurrent use.
type scaledEmbedder struct {
	inner vectorize.Embedder
	w     float64
	cache map[string][]float64
}

func newScaledEmbedder(inner vectorize.Embedder, w float64) *scaledEmbedder {
	return &scaledEmbedder{inner: inner, w: w, cache: map[string][]float64{}}
}

func (s *scaledEmbedder) Dim() int { return s.inner.Dim() }

// Preload forwards batch cache warming to the inner embedder when it
// supports it; the scaled copies themselves are built lazily on the
// (serial) Vector path.
func (s *scaledEmbedder) Preload(tokens []string, workers int) {
	if p, ok := s.inner.(vectorize.Preloader); ok {
		p.Preload(tokens, workers)
	}
}

func (s *scaledEmbedder) Vector(token string) []float64 {
	if v, ok := s.cache[token]; ok {
		return v
	}
	v := s.inner.Vector(token)
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * s.w
	}
	s.cache[token] = out
	return out
}

// anchoredEmbedder concatenates a trained semantic embedding with a
// hash-based identity embedding of the same token. The semantic half
// keeps co-occurring labels close (what §4.1 wants from Word2Vec); the
// identity half lower-bounds the distance between *distinct* label
// tokens, so labels that appear in identical contexts (CALLER/CALLED
// between the same endpoint types) cannot collapse to
// indistinguishable vectors and silently merge their types.
type anchoredEmbedder struct {
	sem   vectorize.Embedder
	id    *word2vec.HashedEmbedder
	cache map[string][]float64
}

func newAnchoredEmbedder(sem vectorize.Embedder, id *word2vec.HashedEmbedder) *anchoredEmbedder {
	return &anchoredEmbedder{sem: sem, id: id, cache: map[string][]float64{}}
}

func (a *anchoredEmbedder) Dim() int { return a.sem.Dim() + a.id.Dim() }

// Preload warms the hashed identity half (and the semantic half when
// it supports preloading) with a worker pool; the concatenated
// vectors are built lazily on the (serial) Vector path.
func (a *anchoredEmbedder) Preload(tokens []string, workers int) {
	a.id.Preload(tokens, workers)
	if p, ok := a.sem.(vectorize.Preloader); ok {
		p.Preload(tokens, workers)
	}
}

func (a *anchoredEmbedder) Vector(token string) []float64 {
	if v, ok := a.cache[token]; ok {
		return v
	}
	out := make([]float64, 0, a.Dim())
	out = append(out, a.sem.Vector(token)...)
	out = append(out, a.id.Vector(token)...)
	a.cache[token] = out
	return out
}

// Timing breaks a run into the phases reported by the efficiency
// experiments (Fig. 5 measures preprocessing + clustering + type
// extraction). Phases run back to back on the calling goroutine, so
// the phase sum tracks wall-clock.
type Timing struct {
	Preprocess  time.Duration
	Cluster     time.Duration
	Extract     time.Duration
	PostProcess time.Duration
}

// Discovery returns the time until type discovery: preprocessing +
// clustering + extraction, the quantity Fig. 5 plots.
func (t Timing) Discovery() time.Duration {
	return t.Preprocess + t.Cluster + t.Extract
}

// Total returns the full pipeline time including post-processing.
func (t Timing) Total() time.Duration {
	return t.Discovery() + t.PostProcess
}

func (t *Timing) add(o Timing) {
	t.Preprocess += o.Preprocess
	t.Cluster += o.Cluster
	t.Extract += o.Extract
	t.PostProcess += o.PostProcess
}

// Result is the outcome of a discovery run.
type Result struct {
	// Schema is the discovered schema graph.
	Schema *schema.Schema
	// NodeAssign / EdgeAssign map every element to its final type,
	// for downstream validation and for the F1* evaluation.
	NodeAssign map[pg.ID]*schema.NodeType
	EdgeAssign map[pg.ID]*schema.EdgeType
	// NodeClusters / EdgeClusters count the raw LSH clusters before
	// merging.
	NodeClusters int
	EdgeClusters int
	// NodeShapes / EdgeShapes accumulate the distinct element shapes
	// per processed batch — the units of work the pipeline actually
	// vectorizes and hashes. Compare against the element counts for
	// the dedup ratio.
	NodeShapes int
	EdgeShapes int
	// NodeChoice / EdgeChoice record the adaptive parameter choices
	// (zero-valued when parameters were pinned).
	NodeChoice lsh.AdaptiveChoice
	EdgeChoice lsh.AdaptiveChoice
	// Timing records phase durations (accumulated across batches in
	// incremental mode).
	Timing Timing
}

// Discover runs the full static pipeline over a graph.
func Discover(g *pg.Graph, opts Options) *Result {
	inc := NewIncremental(opts)
	batch := &pg.Batch{Graph: g, Resolver: g, Index: 1}
	inc.ProcessBatch(batch)
	return inc.Finalize()
}

// Incremental is the streaming pipeline of §4.6: feed batches with
// ProcessBatch, read the evolving schema at any time, and call
// Finalize to run post-processing and obtain the final result.
type Incremental struct {
	opts   Options
	sch    *schema.Schema
	result *Result
	// nodeShapes / edgeShapes intern element shapes across batches:
	// a shape re-seen in a later batch costs one fingerprint map
	// lookup and reuses its cached token set.
	nodeShapes *pg.ShapeCache
	edgeShapes *pg.ShapeCache
	// batches counts ProcessBatch calls (RetractBatch excluded), so
	// serving layers and checkpoints can report stream progress.
	batches int
	// dirty records what the batches change, for a durable owner's
	// compaction rounds (see Track). Nil where nobody lifts it.
	dirty *Dirty
}

// NewIncremental returns a streaming pipeline with an empty schema.
func NewIncremental(opts Options) *Incremental {
	return ResumeIncremental(opts, schema.New())
}

// ResumeIncremental returns a streaming pipeline that continues from a
// previously discovered (e.g. persisted and reloaded) schema: new
// batches merge into the existing types per the §4.6 rules.
func ResumeIncremental(opts Options, s *schema.Schema) *Incremental {
	opts = opts.withDefaults()
	if s == nil {
		s = schema.New()
	}
	return &Incremental{
		opts: opts,
		sch:  s,
		result: &Result{
			Schema:     s,
			NodeAssign: map[pg.ID]*schema.NodeType{},
			EdgeAssign: map[pg.ID]*schema.EdgeType{},
		},
		nodeShapes: pg.NewShapeCache(),
		edgeShapes: pg.NewShapeCache(),
	}
}

// Schema exposes the current (evolving) schema.
func (inc *Incremental) Schema() *schema.Schema { return inc.sch }

// Batches returns the number of batches processed so far (across a
// checkpoint restore, the count continues from the interrupted run).
func (inc *Incremental) Batches() int { return inc.batches }

// IncrementalStats summarizes the live state of an Incremental for
// serving layers: stream progress, element coverage, and the size of
// the cross-batch caches.
type IncrementalStats struct {
	// Batches counts processed batches.
	Batches int `json:"batches"`
	// Nodes / Edges count the elements currently assigned to a type
	// (ingested minus retracted).
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// NodeClusters / EdgeClusters accumulate raw LSH clusters.
	NodeClusters int `json:"nodeClusters"`
	EdgeClusters int `json:"edgeClusters"`
	// NodeShapes / EdgeShapes accumulate per-batch distinct shape
	// counts.
	NodeShapes int `json:"nodeShapes"`
	EdgeShapes int `json:"edgeShapes"`
	// CachedNodeShapes / CachedEdgeShapes are the cross-batch shape
	// cache sizes — the distinct shapes ever seen.
	CachedNodeShapes int `json:"cachedNodeShapes"`
	CachedEdgeShapes int `json:"cachedEdgeShapes"`
}

// Stats snapshots the live counters. Callers must serialize it with
// writes like every other read of an Incremental.
func (inc *Incremental) Stats() IncrementalStats {
	return IncrementalStats{
		Batches:          inc.batches,
		Nodes:            len(inc.result.NodeAssign),
		Edges:            len(inc.result.EdgeAssign),
		NodeClusters:     inc.result.NodeClusters,
		EdgeClusters:     inc.result.EdgeClusters,
		NodeShapes:       inc.result.NodeShapes,
		EdgeShapes:       inc.result.EdgeShapes,
		CachedNodeShapes: inc.nodeShapes.Size(),
		CachedEdgeShapes: inc.edgeShapes.Size(),
	}
}

// BatchTiming is the per-batch cost record used by the Fig. 7
// experiment, plus the batch's interning statistics and — when the
// batch came through DrainStream — its memory accounting.
type BatchTiming struct {
	Index  int
	Timing Timing
	// Nodes / Edges are the batch's element counts.
	Nodes int
	Edges int
	// NodeShapes / EdgeShapes are the batch's distinct shape counts:
	// the number of representatives that were actually vectorized and
	// hashed.
	NodeShapes int
	EdgeShapes int
	// AllocBytes is the heap allocation attributed to reading and
	// processing the batch (runtime.MemStats.TotalAlloc delta), and
	// HeapLiveBytes the live heap after it — the evidence that
	// streamed ingestion runs in bounded memory (live heap stays flat
	// as batches pass through, instead of growing with the stream).
	// Both are only filled by DrainStream / DiscoverStream; plain
	// ProcessBatch calls leave them zero to keep the hot path free of
	// stop-the-world MemStats reads.
	AllocBytes    uint64
	HeapLiveBytes uint64
}

// ProcessBatch runs preprocess → cluster → extract on one batch and
// merges the discovered types into the schema (Algorithm 1 lines
// 3–6). If Options.PostProcess is set, §4.4 inference runs too.
//
// Elements are grouped by shape — label set, property-key set, and
// endpoint tokens for edges — and only the first occurrence of each
// shape is vectorized or tokenized, hashed and clustered: same-shape
// rows would produce byte-identical representations and collide in
// every band anyway, so the per-element stages run once per distinct
// pattern and each row reads its cluster through ShapeIndex.Rows.
// Because representatives keep first-occurrence order, the partition
// and every cluster label equal those of a per-element run
// (core_ref_test.go holds that reference). With Options.Parallelism
// > 1 the heavy stages run on worker pools; scheduling never changes
// the discovered schema — every parallel stage is sharded with
// disjoint writes and merged in a fixed order.
func (inc *Incremental) ProcessBatch(b *pg.Batch) BatchTiming {
	o := inc.opts
	var tm Timing

	nodes := b.Graph.Nodes()
	edges := b.Graph.Edges()
	d := inc.dirty
	rec := d.admit(len(nodes)+len(edges), len(inc.result.NodeAssign)+len(inc.result.EdgeAssign))
	if len(inc.result.NodeAssign) == 0 && len(nodes) > 0 {
		inc.result.NodeAssign = make(map[pg.ID]*schema.NodeType, len(nodes))
	}
	if len(inc.result.EdgeAssign) == 0 && len(edges) > 0 {
		inc.result.EdgeAssign = make(map[pg.ID]*schema.EdgeType, len(edges))
	}

	// (a) Index the node shapes, then resolve edge endpoint labels
	// through them. Both depend only on the batch, never on discovered
	// node types, so the pass runs up front and the Word2Vec corpus
	// shares it. The distinct label and property-key sets below are
	// unions over shape representatives, since both are shape
	// components.
	start := time.Now()
	nodeSI := inc.nodeShapes.IndexNodes(nodes)
	if rec {
		d.nodeShapes = append(d.nodeShapes, nodeSI.Created...)
	}
	ec := endpointCodes(b.Graph, nodeSI, o.Parallelism)

	// (b) Preprocess nodes: embeddings and representation structures
	// of the shape representatives.
	distinctNodeLabels := len(nodeSI.NodeLabels(nodes))
	var emb vectorize.Embedder
	var nodeMat *vectorize.Matrix
	var nodeSets [][]string
	if o.Method == MinHash {
		nodeSets = nodeItemSets(nodes, nodeSI)
	} else {
		emb = inc.embedder(b.Graph, nodeSI, ec)
		nodeMat = vectorize.NodesInterned(nodes, nodeSI, nodeSI.NodePropertyKeys(nodes), emb, o.Parallelism)
	}
	tm.Preprocess += time.Since(start)

	// (c) Cluster the node shapes. The adaptive parameter estimation
	// still samples the per-row population (through nodeSI.Rows), so
	// the chosen parameters are those of a per-element run.
	start = time.Now()
	var nodeCl *lsh.Clustering
	if o.Method == MinHash {
		np := inc.minhashParams(len(nodes), distinctNodeLabels, &inc.result.NodeChoice, o.NodeParams)
		nodeCl = lsh.ClusterMinHash(nodeSets, np)
	} else {
		np := inc.elshParams(nodeMat.Vecs, nodeSI.Rows, distinctNodeLabels, &inc.result.NodeChoice, o.NodeParams, true)
		nodeCl = lsh.ClusterEuclideanSparse(nodeMat.Vecs, nodeMat.BinStart, nodeMat.Bits, np)
	}
	inc.result.NodeClusters += nodeCl.NumClusters
	tm.Cluster += time.Since(start)

	// (d) Extract node types first: edge endpoints resolve to the
	// *discovered node type* when the endpoint node is unlabeled (the
	// paper's edge vectors embed the source and target node types,
	// §4.1 — Example 2 lists unlabeled Alice's KNOWS edge with a
	// Person source).
	start = time.Now()
	ncands := schema.BuildNodeCandidatesInterned(nodes, nodeSI, nodeCl.Assign, nodeCl.NumClusters)
	var ntypes []*schema.NodeType
	if o.DisableMerging {
		ntypes = inc.sch.AppendNodeTypes(ncands)
	} else {
		ntypes = inc.sch.ExtractNodeTypes(ncands, o.Theta)
	}
	for row := range nodes {
		id := nodes[row].ID
		if rec {
			d.nodeAssigned(id, inc.result.NodeAssign[id])
		}
		inc.result.NodeAssign[id] = ntypes[nodeCl.Assign[nodeSI.Rows[row]]]
	}
	if rec {
		for _, t := range ntypes {
			if t != nil {
				d.nodeTypes[t.ID] = true
			}
		}
	}
	tm.Extract += time.Since(start)

	// (b') Preprocess edges: complete the endpoints the batch has no
	// label for — from the resolver, else with the discovered node
	// type — then index shapes and vectorize.
	start = time.Now()
	for i := range edges {
		if ec.Src[i] == 0 {
			ec.Src[i] = ec.Intern(inc.foreignEndpointToken(b, edges[i].Src))
		}
		if ec.Dst[i] == 0 {
			ec.Dst[i] = ec.Intern(inc.foreignEndpointToken(b, edges[i].Dst))
		}
	}
	edgeSI := inc.edgeShapes.IndexEdgesCoded(edges, ec)
	if rec {
		d.edgeShapes = append(d.edgeShapes, edgeSI.Created...)
	}
	distinctEdgeLabels := len(edgeSI.EdgeLabels(edges))
	var edgeMat *vectorize.Matrix
	var edgeSets [][]string
	if o.Method == MinHash {
		edgeSets = edgeItemSets(edges, edgeSI, ec)
	} else {
		edgeMat = vectorize.EdgesInterned(edges, edgeSI, edgeSI.EdgePropertyKeys(edges), emb, ec, o.Parallelism)
	}
	tm.Preprocess += time.Since(start)

	// (c') Cluster the edge shapes.
	start = time.Now()
	var edgeCl *lsh.Clustering
	if o.Method == MinHash {
		ep := inc.minhashParams(len(edges), distinctEdgeLabels, &inc.result.EdgeChoice, o.EdgeParams)
		edgeCl = lsh.ClusterMinHash(edgeSets, ep)
	} else {
		ep := inc.elshParams(edgeMat.Vecs, edgeSI.Rows, distinctEdgeLabels, &inc.result.EdgeChoice, o.EdgeParams, false)
		edgeCl = lsh.ClusterEuclideanSparse(edgeMat.Vecs, edgeMat.BinStart, edgeMat.Bits, ep)
	}
	inc.result.EdgeClusters += edgeCl.NumClusters
	tm.Cluster += time.Since(start)

	// (d') Extract edge types.
	start = time.Now()
	maxEndpoints := b.Graph.NumNodes()
	if b.Resolver != nil && b.Resolver != b.Graph {
		maxEndpoints += b.Resolver.NumNodes()
	}
	ecands := schema.BuildEdgeCandidatesInterned(edges, edgeSI, edgeCl.Assign, edgeCl.NumClusters, ec, maxEndpoints)
	var etypes []*schema.EdgeType
	if o.DisableMerging {
		etypes = inc.sch.AppendEdgeTypes(ecands)
	} else {
		etypes = inc.sch.ExtractEdgeTypes(ecands, o.Theta)
	}
	for row := range edges {
		id := edges[row].ID
		if rec {
			d.edgeAssigned(id, inc.result.EdgeAssign[id])
		}
		inc.result.EdgeAssign[id] = etypes[edgeCl.Assign[edgeSI.Rows[row]]]
	}
	if rec {
		d.edgesMerged(edges, inc.result.EdgeAssign)
	}
	tm.Extract += time.Since(start)

	// (e)-(g) Optional per-batch post-processing (Algorithm 1 line 7).
	if o.PostProcess {
		start = time.Now()
		infer.Finalize(inc.sch, o.Infer)
		tm.PostProcess = time.Since(start)
	}

	inc.result.Timing.add(tm)
	inc.batches++
	inc.result.NodeShapes += nodeSI.NumShapes()
	inc.result.EdgeShapes += edgeSI.NumShapes()
	return BatchTiming{
		Index: b.Index, Timing: tm,
		Nodes: len(nodes), Edges: len(edges),
		NodeShapes: nodeSI.NumShapes(), EdgeShapes: edgeSI.NumShapes(),
	}
}

// endpointCodes resolves the source and target label token of every
// edge as the batch itself knows it: an endpoint node in the batch has
// the token its shape computed once in IndexNodes, so the pass builds
// no token and the dictionary has one entry per distinct label set.
// Code 0 ("") marks an endpoint the batch has no label for; (b')
// completes those after the Word2Vec corpus — which by definition sees
// only the batch's own labels — has read the codes.
func endpointCodes(g *pg.Graph, nodeSI *pg.ShapeIndex, workers int) *pg.EndpointCodes {
	edges := g.Edges()
	ec := pg.NewEndpointCodes(len(edges))
	shapeCode := make([]int32, nodeSI.NumShapes())
	for s, sh := range nodeSI.Shapes {
		shapeCode[s] = ec.Intern(sh.Token)
	}
	code := func(id pg.ID) int32 {
		if row, ok := g.NodeIndex(id); ok {
			return shapeCode[nodeSI.Rows[row]]
		}
		return 0
	}
	parallel.For(len(edges), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ec.Src[i], ec.Dst[i] = code(edges[i].Src), code(edges[i].Dst)
		}
	})
	return ec
}

// RetractBatch removes a batch of previously processed elements from
// the schema — deletion support beyond the paper (§4.6 leaves it as
// future work). Every node and edge in the batch must have been
// processed earlier (its statistics were added then); elements never
// seen are skipped. Types whose last instance disappears are removed
// from the schema. Constraints and cardinalities reflect the
// retraction after the next Finalize (or per-batch post-processing).
func (inc *Incremental) RetractBatch(b *pg.Batch) BatchTiming {
	start := time.Now()
	nodes := b.Graph.Nodes()
	edges := b.Graph.Edges()
	d := inc.dirty
	rec := d.admit(len(nodes)+len(edges), len(inc.result.NodeAssign)+len(inc.result.EdgeAssign))
	for i := range nodes {
		n := &nodes[i]
		ty := inc.result.NodeAssign[n.ID]
		if ty == nil {
			continue
		}
		if rec {
			d.nodeAssigned(n.ID, ty)
			d.nodeTypes[ty.ID] = true
		}
		ty.Retract(n.Labels, n.Props)
		delete(inc.result.NodeAssign, n.ID)
	}
	for i := range edges {
		e := &edges[i]
		ty := inc.result.EdgeAssign[e.ID]
		if ty == nil {
			continue
		}
		if rec {
			d.edgeAssigned(e.ID, ty)
			d.edgeRetracting(ty, e.Src, e.Dst)
		}
		ty.RetractEdge(e.Labels, e.Props, e.Src, e.Dst)
		delete(inc.result.EdgeAssign, e.ID)
	}
	inc.sch.Compact()
	var tm Timing
	tm.Extract = time.Since(start)
	if inc.opts.PostProcess {
		pp := time.Now()
		infer.Finalize(inc.sch, inc.opts.Infer)
		tm.PostProcess = time.Since(pp)
	}
	inc.result.Timing.add(tm)
	return BatchTiming{Index: b.Index, Timing: tm}
}

// MemObservedOnBatch wraps a batch observer so every invocation first
// fills the batch's AllocBytes / HeapLiveBytes counters from
// runtime.MemStats deltas. A nil observer returns nil, which is how
// the drain loops skip the stop-the-world MemStats reads entirely
// when nobody can observe the counters. The returned function is not
// safe for concurrent use (drain loops are sequential).
func MemObservedOnBatch(onBatch func(BatchTiming)) func(BatchTiming) {
	if onBatch == nil {
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	prevAlloc := ms.TotalAlloc
	return func(bt BatchTiming) {
		runtime.ReadMemStats(&ms)
		bt.AllocBytes = ms.TotalAlloc - prevAlloc
		bt.HeapLiveBytes = ms.HeapAlloc
		prevAlloc = ms.TotalAlloc
		onBatch(bt)
	}
}

// DrainStream feeds every batch of the stream through ProcessBatch,
// filling each BatchTiming's memory counters, and invokes onBatch
// (when non-nil) after each batch. It returns on io.EOF (nil error)
// or on the first reader error. The caller finishes with Finalize,
// so a drained stream can be followed by more batches or by another
// stream — the incremental-maintenance loop of §4.6.
func (inc *Incremental) DrainStream(r pg.StreamReader, onBatch func(BatchTiming)) error {
	onBatch = MemObservedOnBatch(onBatch)
	for {
		b, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		bt := inc.ProcessBatch(b)
		if onBatch != nil {
			onBatch(bt)
		}
	}
}

// DiscoverStream runs the full pipeline over a batched stream: it
// drives a fresh Incremental through every batch the reader yields
// and finalizes. Peak memory is one batch of elements, the evolving
// schema, the reader's endpoint bookkeeping and the result's
// per-element type assignments — never the whole graph with its
// property data. onBatch, when non-nil, observes each batch's cost
// record as it completes.
func DiscoverStream(r pg.StreamReader, opts Options, onBatch func(BatchTiming)) (*Result, error) {
	inc := NewIncremental(opts)
	if err := inc.DrainStream(r, onBatch); err != nil {
		return nil, err
	}
	return inc.Finalize(), nil
}

// Finalize runs the §4.4 post-processing (always, per Algorithm 1
// line 7's i = n case) and returns the accumulated result.
func (inc *Incremental) Finalize() *Result {
	start := time.Now()
	infer.Finalize(inc.sch, inc.opts.Infer)
	inc.result.Timing.PostProcess += time.Since(start)
	return inc.result
}

// foreignEndpointToken resolves an endpoint the batch has no label for:
// through the batch's resolver when the batch does not hold the node
// (or holds it with nil labels), else as endpointTypeToken does.
func (inc *Incremental) foreignEndpointToken(b *pg.Batch, id pg.ID) string {
	if b.Resolver != nil && b.Resolver != b.Graph {
		if n := b.Graph.Node(id); n == nil || n.Labels == nil {
			if rn := b.Resolver.Node(id); rn != nil && len(rn.Labels) > 0 {
				return pg.LabelToken(rn.Labels)
			}
		}
	}
	return inc.endpointTypeToken(id)
}

// endpointTypeToken resolves an unlabeled endpoint node to the name of
// the node type it was assigned to (in this or any earlier batch), or
// "" when the node has not been seen yet.
func (inc *Incremental) endpointTypeToken(id pg.ID) string {
	if t := inc.result.NodeAssign[id]; t != nil {
		return t.Name()
	}
	return ""
}

// embedder builds the batch's label embedder. The Word2Vec corpus
// derives its node sentences from the distinct shapes of nodeSI
// (count-weighted) instead of walking every node, and takes the
// batch-local endpoint codes ec from the endpoint pass instead of
// re-resolving every edge.
func (inc *Incremental) embedder(g *pg.Graph, nodeSI *pg.ShapeIndex, ec *pg.EndpointCodes) vectorize.Embedder {
	o := inc.opts
	var inner vectorize.Embedder
	if o.Embedding == EmbedHashed {
		inner = word2vec.NewHashedEmbedder(o.EmbedDim)
	} else {
		// Word2Vec mode splits the budget between a trained semantic
		// half and a hashed identity half (see anchoredEmbedder).
		semDim := o.EmbedDim / 2
		if semDim < 4 {
			semDim = 4
		}
		cfg := o.W2V
		if cfg.Dim == 0 {
			cfg.Dim = semDim
		}
		if cfg.Seed == 0 {
			cfg.Seed = o.Seed + 1
		}
		idDim := o.EmbedDim - cfg.Dim
		if idDim < 4 {
			idDim = 4
		}
		inner = newAnchoredEmbedder(word2vec.Train(vectorize.BuildCorpus(g, nodeSI, ec), cfg),
			word2vec.NewHashedEmbedder(idDim))
	}
	if o.LabelWeight != 1 {
		return newScaledEmbedder(inner, o.LabelWeight)
	}
	return inner
}

// elshParams resolves the ELSH parameters: pinned ones pass through,
// otherwise the adaptive strategy estimates them from the vectors.
// vecs is the representative matrix and rows the row→shape map, so
// the logical population is rows and the adaptive choice is that of
// the materialized per-row matrix.
func (inc *Incremental) elshParams(vecs [][]float64, rows []int32, labels int, choice *lsh.AdaptiveChoice, pinned *lsh.Params, isNode bool) lsh.Params {
	if pinned != nil {
		p := *pinned
		if p.Seed == 0 {
			p.Seed = inc.opts.Seed + 2
		}
		return inc.withWorkers(p)
	}
	var ch lsh.AdaptiveChoice
	if isNode {
		ch = lsh.AdaptiveNodeParamsInterned(vecs, rows, labels, inc.opts.Seed+2)
	} else {
		ch = lsh.AdaptiveEdgeParamsInterned(vecs, rows, labels, inc.opts.Seed+3)
	}
	*choice = ch
	return inc.withWorkers(ch.Params)
}

func (inc *Incremental) minhashParams(n, labels int, choice *lsh.AdaptiveChoice, pinned *lsh.Params) lsh.Params {
	if pinned != nil {
		p := *pinned
		if p.Seed == 0 {
			p.Seed = inc.opts.Seed + 4
		}
		return inc.withWorkers(p)
	}
	ch := lsh.AdaptiveMinHashParams(n, labels, inc.opts.Seed+4)
	*choice = ch
	return inc.withWorkers(ch.Params)
}

// withWorkers applies Options.Parallelism to an LSH parameter set,
// keeping an explicitly pinned Workers value.
func (inc *Incremental) withWorkers(p lsh.Params) lsh.Params {
	if p.Workers == 0 {
		p.Workers = inc.opts.Parallelism
	}
	return p
}

// nodeItemSet builds one node's MinHash item set: its label token
// plus its property keys, each qualified by the label token.
// Qualification is the set-world analogue of the hybrid vectors of
// §4.1: items of differently labeled elements never coincide, so the
// Jaccard similarity between semantically different types is 0 and
// banding cannot chain them together, while unlabeled elements fall
// back to raw property keys and are matched purely structurally.
func nodeItemSet(n *pg.Node) []string {
	tok := n.LabelToken()
	keys := n.PropertyKeys()
	set := make([]string, 0, len(keys)+1)
	if tok != "" {
		set = append(set, "\x00label:"+tok)
		for _, k := range keys {
			set = append(set, tok+"\x01"+k)
		}
	} else {
		set = append(set, keys...)
	}
	return set
}

// nodeItemSets returns the item set of each distinct node shape, in
// shape order. Sets depend only on the shape, so they are cached on
// the cache entry and reused by later batches that see the shape
// again.
func nodeItemSets(nodes []pg.Node, si *pg.ShapeIndex) [][]string {
	sets := make([][]string, si.NumShapes())
	for s, sh := range si.Shapes {
		if sh.Items == nil {
			sh.Items = nodeItemSet(&nodes[si.Reps[s]])
		}
		sets[s] = sh.Items
	}
	return sets
}

// edgeItemSet builds one edge's MinHash item set. Every item is
// qualified by the full (label, source, target) pattern triple —
// Def. 3.6 makes the endpoint pair R part of an edge's pattern — so
// edges of different patterns have Jaccard 0 and cannot chain
// together, while same-pattern edges with noisy property sets still
// collide in some band. Unlabeled, unresolvable edges degrade
// gracefully to property-key sets.
func edgeItemSet(e *pg.Edge, srcTok, dstTok string) []string {
	tok := e.LabelToken()
	keys := e.PropertyKeys()
	pattern := tok + "\x01" + srcTok + "\x01" + dstTok
	set := make([]string, 0, len(keys)+1)
	if pattern != "\x01\x01" {
		set = append(set, "\x00pat:"+pattern)
		for _, k := range keys {
			set = append(set, pattern+"\x02"+k)
		}
	} else {
		set = append(set, keys...)
	}
	return set
}

// edgeItemSets returns the item set of each distinct edge shape,
// cached across batches like nodeItemSets.
func edgeItemSets(edges []pg.Edge, si *pg.ShapeIndex, ec *pg.EndpointCodes) [][]string {
	sets := make([][]string, si.NumShapes())
	for s, sh := range si.Shapes {
		if sh.Items == nil {
			r := int(si.Reps[s])
			src, dst := ec.Tokens(r)
			sh.Items = edgeItemSet(&edges[r], src, dst)
		}
		sets[s] = sh.Items
	}
	return sets
}
