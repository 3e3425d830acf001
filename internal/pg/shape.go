package pg

import "encoding/binary"

// Element shapes. Two nodes have the same shape when they carry the
// same label set and the same property-key set; two edges additionally
// need the same resolved source and target label tokens. Shape is the
// exact granularity of §4.1's representation: same-shape elements
// produce byte-identical representation vectors and token sets, so
// every per-element stage of discovery (vectorization, LSH signature
// hashing, banding) can run once per distinct shape instead of once
// per element. Real graphs have millions of elements but only
// tens-to-thousands of shapes — the same skew LSH Ensemble exploits —
// which makes interning the dominant cost lever at production scale.

// Shape is one distinct element shape registered in a ShapeCache. It
// persists across batches of an incremental discovery, so a shape seen
// again in a later batch costs a single fingerprint map lookup.
// Batch-local shape identity flows through ShapeIndex ordinals.
type Shape struct {
	// Token is the canonical label token of the shape's label set.
	Token string
	// Items caches the shape's method-specific token set (MinHash
	// path). It is filled lazily by the pipeline; shapes are
	// batch-independent, so the cached set stays valid for the
	// lifetime of the cache.
	Items []string

	// local / epoch implement the per-batch ordinal without a second
	// map: local is valid only when epoch matches the cache's current
	// indexing pass. The epoch advances once per pass — once per write
	// in a serving process — and must never wrap back to a value a
	// live shape still carries (0 for a fresh one), hence 64 bits.
	local int32
	epoch uint64
}

// ShapeIndex groups one batch's rows by shape, in first-occurrence
// order. It is the row→shape map every pipeline stage shares:
// vectorization and LSH hashing run over Reps only, and rows read
// their cluster assignments back through Rows.
type ShapeIndex struct {
	// Rows maps each row index to its shape ordinal in [0, NumShapes).
	// Ordinals are assigned in first-occurrence row order, which is
	// what makes shape-level LSH cluster labels identical to the
	// per-element first-occurrence labels.
	Rows []int32
	// Reps maps each shape ordinal to the first row with that shape.
	Reps []int32
	// Counts maps each shape ordinal to its number of rows.
	Counts []int32
	// Shapes maps each shape ordinal to its cache entry.
	Shapes []*Shape
	// Created lists the fingerprints this pass registered in the cache
	// for the first time — what a durable owner must persist next —
	// when the cache was asked to (ShapeCache.TrackCreated). Nil in
	// steady state, when every shape has been seen before.
	Created []string
}

// NumShapes returns the number of distinct shapes in the batch.
func (si *ShapeIndex) NumShapes() int { return len(si.Reps) }

// NodeLabels returns the sorted distinct individual labels over the
// batch's nodes, computed from the shape representatives only — equal
// to Graph.DistinctNodeLabels because labels are part of the shape.
func (si *ShapeIndex) NodeLabels(nodes []Node) []string {
	set := map[string]struct{}{}
	for _, rep := range si.Reps {
		for _, l := range nodes[rep].Labels {
			set[l] = struct{}{}
		}
	}
	return setToSorted(set)
}

// NodePropertyKeys returns the sorted distinct property keys over the
// batch's nodes, from the representatives only — equal to
// Graph.DistinctNodePropertyKeys.
func (si *ShapeIndex) NodePropertyKeys(nodes []Node) []string {
	set := map[string]struct{}{}
	for _, rep := range si.Reps {
		for k := range nodes[rep].Props {
			set[k] = struct{}{}
		}
	}
	return setToSorted(set)
}

// EdgeLabels is NodeLabels for an edge shape index.
func (si *ShapeIndex) EdgeLabels(edges []Edge) []string {
	set := map[string]struct{}{}
	for _, rep := range si.Reps {
		for _, l := range edges[rep].Labels {
			set[l] = struct{}{}
		}
	}
	return setToSorted(set)
}

// EdgePropertyKeys is NodePropertyKeys for an edge shape index.
func (si *ShapeIndex) EdgePropertyKeys(edges []Edge) []string {
	set := map[string]struct{}{}
	for _, rep := range si.Reps {
		for k := range edges[rep].Props {
			set[k] = struct{}{}
		}
	}
	return setToSorted(set)
}

// ShapeCache interns element shapes across the batches of one
// discovery. It is not safe for concurrent use; the pipeline indexes
// shapes on a single goroutine before fanning the (much smaller)
// per-shape work out to workers.
type ShapeCache struct {
	shapes map[string]*Shape
	epoch  uint64
	buf    []byte   // reusable fingerprint buffer
	keys   []string // reusable key scratch
	// trackCreated makes every pass list the shapes it registers
	// (ShapeIndex.Created). Off by default: one-shot discovery has
	// nobody to tell.
	trackCreated bool
}

// NewShapeCache returns an empty cache.
func NewShapeCache() *ShapeCache {
	return &ShapeCache{shapes: map[string]*Shape{}}
}

// TrackCreated makes every later indexing pass report the shapes it
// registers for the first time in ShapeIndex.Created.
func (c *ShapeCache) TrackCreated() { c.trackCreated = true }

// Size returns the number of distinct shapes ever registered.
func (c *ShapeCache) Size() int { return len(c.shapes) }

// appendComponent appends one length-prefixed string, keeping the
// overall fingerprint injective (no separator collisions, whatever
// bytes labels and keys contain).
func appendComponent(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// canonicalPropKeys fills the cache's scratch slice with the map's
// keys in canonical (length, key) order, allocation-free after
// warm-up. Any fixed total order works for fingerprinting — the
// encoding stays injective — and length-first ordering decides almost
// every comparison with an integer compare.
func (c *ShapeCache) canonicalPropKeys(props map[string]Value) []string {
	ks := c.keys[:0]
	for k := range props {
		ks = append(ks, k)
	}
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && keyLess(ks[j], ks[j-1]); j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
	c.keys = ks
	return ks
}

// keyLess orders property keys by (length, bytes).
func keyLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// appendNodeShapeKey appends n's shape fingerprint to dst: the label
// set followed by the canonically ordered property-key set, every
// component length-prefixed — an injective encoding of (labels,
// keys). Graph keeps label sets sorted, so equal label sets
// fingerprint equally.
func appendNodeShapeKey(dst []byte, n *Node, keys []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(n.Labels)))
	for _, l := range n.Labels {
		dst = appendComponent(dst, l)
	}
	for _, k := range keys {
		dst = appendComponent(dst, k)
	}
	return dst
}

// appendEdgeShapeKey appends e's shape fingerprint to dst: the label
// set, the resolved endpoint tokens, and the canonically ordered
// property-key set.
func appendEdgeShapeKey(dst []byte, e *Edge, srcTok, dstTok string, keys []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(e.Labels)))
	for _, l := range e.Labels {
		dst = appendComponent(dst, l)
	}
	dst = appendComponent(dst, srcTok)
	dst = appendComponent(dst, dstTok)
	for _, k := range keys {
		dst = appendComponent(dst, k)
	}
	return dst
}

// lookup resolves the fingerprint currently in c.buf to its Shape,
// reporting whether it had to be created (and noting it in si if so).
// The string conversion in the map read does not allocate; only first
// sight pays for the key copy.
func (c *ShapeCache) lookup(si *ShapeIndex) (*Shape, bool) {
	sh, ok := c.shapes[string(c.buf)]
	if !ok {
		sh = &Shape{}
		key := string(c.buf)
		c.shapes[key] = sh
		if c.trackCreated {
			si.Created = append(si.Created, key)
		}
	}
	return sh, !ok
}

// fold adds one row of the shape to the batch index.
func (c *ShapeCache) fold(si *ShapeIndex, row int, sh *Shape) {
	if sh.epoch != c.epoch {
		sh.epoch = c.epoch
		sh.local = int32(len(si.Reps))
		si.Reps = append(si.Reps, int32(row))
		si.Counts = append(si.Counts, 0)
		si.Shapes = append(si.Shapes, sh)
	}
	si.Rows[row] = sh.local
	si.Counts[sh.local]++
}

// IndexNodes fingerprints every node and groups rows by shape in
// first-occurrence order. Shapes seen in earlier batches are reused
// from the cache.
func (c *ShapeCache) IndexNodes(nodes []Node) *ShapeIndex {
	c.epoch++
	si := &ShapeIndex{Rows: make([]int32, len(nodes))}
	for i := range nodes {
		n := &nodes[i]
		keys := c.canonicalPropKeys(n.Props)
		c.buf = appendNodeShapeKey(c.buf[:0], n, keys)
		sh, created := c.lookup(si)
		if created {
			sh.Token = n.LabelToken()
		}
		c.fold(si, i, sh)
	}
	return si
}

// IndexEdges fingerprints every edge and groups rows by shape in
// first-occurrence order. srcToks and dstToks carry the resolved
// endpoint label tokens, aligned with edges.
func (c *ShapeCache) IndexEdges(edges []Edge, srcToks, dstToks []string) *ShapeIndex {
	return c.indexEdges(edges, srcToks, dstToks, nil)
}

// IndexEdgesCoded is IndexEdges over dictionary-coded endpoint tokens:
// the fingerprint takes ec.Table[code] where IndexEdges takes the
// string, so both forms file an edge under the same shape.
func (c *ShapeCache) IndexEdgesCoded(edges []Edge, ec *EndpointCodes) *ShapeIndex {
	return c.indexEdges(edges, nil, nil, ec)
}

// indexEdges is the one fingerprint loop behind both forms: endpoint
// tokens come from ec when it is non-nil, else from the two slices.
func (c *ShapeCache) indexEdges(edges []Edge, srcToks, dstToks []string, ec *EndpointCodes) *ShapeIndex {
	c.epoch++
	si := &ShapeIndex{Rows: make([]int32, len(edges))}
	for i := range edges {
		e := &edges[i]
		var srcTok, dstTok string
		if ec != nil {
			srcTok, dstTok = ec.Tokens(i)
		} else {
			srcTok, dstTok = srcToks[i], dstToks[i]
		}
		keys := c.canonicalPropKeys(e.Props)
		c.buf = appendEdgeShapeKey(c.buf[:0], e, srcTok, dstTok, keys)
		sh, created := c.lookup(si)
		if created {
			sh.Token = e.LabelToken()
		}
		c.fold(si, i, sh)
	}
	return si
}

// EndpointCodes carries the endpoint label tokens of one batch's edges
// dictionary-coded: a batch has a few dozen distinct tokens however
// many edges, so an endpoint costs a 4-byte code, not a string header,
// and a token is built once, not per edge. Table holds the distinct
// tokens (Table[0] is "", the endpoint nothing resolves); Src and Dst
// hold one code per edge, aligned with the batch's edges. Whatever
// outlives the batch — shape keys, item sets, types — reads the token.
type EndpointCodes struct {
	Table    []string
	Src, Dst []int32
	codes    map[string]int32
}

// NewEndpointCodes returns n edges' codes, every endpoint unresolved.
func NewEndpointCodes(n int) *EndpointCodes {
	return &EndpointCodes{
		Table: []string{""},
		Src:   make([]int32, n),
		Dst:   make([]int32, n),
		codes: map[string]int32{"": 0},
	}
}

// Intern returns tok's code, adding it to the table on first sight;
// like the ShapeCache, a dictionary is filled from one goroutine.
func (ec *EndpointCodes) Intern(tok string) int32 {
	code, ok := ec.codes[tok]
	if !ok {
		code = int32(len(ec.Table))
		ec.Table = append(ec.Table, tok)
		ec.codes[tok] = code
	}
	return code
}

// Tokens returns the source and target token of edge i.
func (ec *EndpointCodes) Tokens(i int) (src, dst string) {
	return ec.Table[ec.Src[i]], ec.Table[ec.Dst[i]]
}
