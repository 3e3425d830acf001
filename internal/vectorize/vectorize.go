// Package vectorize builds the hybrid representation vectors of §4.1:
// for a node, the Word2Vec embedding of its (sorted, concatenated)
// label set followed by a binary property-presence block over the
// dataset's global property-key set; for an edge, three embeddings
// (edge label, source label, target label) followed by the edge's
// binary property block.
package vectorize

import (
	"math"
	"slices"
	"sort"

	"github.com/pghive/pghive/internal/parallel"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/word2vec"
)

// Embedder supplies fixed-dimension label embeddings. Both
// *word2vec.Model and *word2vec.HashedEmbedder satisfy it. Embedders
// are not required to be safe for concurrent use: the vectorizers
// resolve every distinct token exactly once on the calling goroutine
// before fanning row construction out to workers.
type Embedder interface {
	Dim() int
	Vector(token string) []float64
}

var (
	_ Embedder = (*word2vec.Model)(nil)
	_ Embedder = (*word2vec.HashedEmbedder)(nil)
)

// resolveVectors returns the embedding of every distinct token in
// toks, resolving each exactly once on the calling goroutine so that
// non-concurrency-safe embedders stay safe while row construction
// runs on a worker pool.
func resolveVectors(toks []string, emb Embedder) map[string][]float64 {
	vecs := map[string][]float64{}
	for _, t := range toks {
		if _, ok := vecs[t]; !ok {
			vecs[t] = emb.Vector(t)
		}
	}
	return vecs
}

// Matrix is the vectorized form of a set of nodes or edges: one row
// per element, aligned with IDs and Tokens.
type Matrix struct {
	// IDs aligns rows with graph elements.
	IDs []pg.ID
	// Tokens holds the canonical label token of each element ("" for
	// unlabeled), used later by the type-extraction step.
	Tokens []string
	// Vecs holds the representation vectors. All rows share one
	// backing array for locality.
	Vecs [][]float64
	// Keys is the global property-key layout of the binary block.
	Keys []string
	// EmbedDim is the width of each embedding block (d).
	EmbedDim int
	// BinStart is the offset where the binary property block begins
	// (d for nodes, 3d for edges).
	BinStart int
	// Bits lists, per row, the set positions of the binary block in
	// ascending order — the sparse view ELSH hashing iterates instead
	// of the mostly-zero dense tail.
	Bits [][]int32
}

// Rows returns the number of vectorized elements.
func (m *Matrix) Rows() int { return len(m.Vecs) }

// Dim returns the total vector dimensionality.
func (m *Matrix) Dim() int {
	if len(m.Vecs) == 0 {
		return 0
	}
	return len(m.Vecs[0])
}

// BuildCorpus extracts the label-token training corpus for Word2Vec
// from a graph (§4.1: the model is trained on the node and edge labels
// observed in the dataset). Each edge contributes the sentence
// [sourceToken, edgeToken, targetToken]; each node contributes its
// token followed by its property keys, which anchors label semantics
// to structure and gives isolated labels a distributional context.
// Sentences are deduplicated and repeated with logarithmically capped
// multiplicity, so corpus size scales with the number of distinct
// patterns rather than with graph size.
//
// nodeSI, when non-nil, is the shape index of g.Nodes(): node
// sentences then come from the distinct shapes (one count-weighted
// addition per shape instead of one per node; a node's sentence —
// label token plus property keys — is exactly its shape). ec, when
// non-nil, carries the tokens of the endpoints' labels in g itself
// ("" for endpoints not in g), aligned with g.Edges(), and spares the
// corpus its own resolution walk. The corpus is byte-identical with
// or without them.
func BuildCorpus(g *pg.Graph, nodeSI *pg.ShapeIndex, ec *pg.EndpointCodes) [][]string {
	type sent struct {
		words []string
		count int
	}
	seen := map[string]*sent{}
	// One key buffer reused across sentences: the map reads below
	// convert it without allocating, so only first-seen sentences pay
	// for a key copy.
	var keyBuf []byte
	sentKey := func(words []string) {
		keyBuf = keyBuf[:0]
		for _, w := range words {
			keyBuf = append(keyBuf, w...)
			keyBuf = append(keyBuf, '\x1f')
		}
	}
	add := func(words []string, count int) {
		nonEmpty := 0
		for _, w := range words {
			if w != "" {
				nonEmpty++
			}
		}
		if nonEmpty < 2 {
			return
		}
		sentKey(words)
		if s, ok := seen[string(keyBuf)]; ok {
			s.count += count
			return
		}
		seen[string(keyBuf)] = &sent{words: words, count: count}
	}

	nodes := g.Nodes()
	if nodeSI != nil {
		for s, rep := range nodeSI.Reps {
			n := &nodes[rep]
			tok := n.LabelToken()
			if tok == "" {
				continue
			}
			add(append([]string{tok}, n.PropertyKeys()...), int(nodeSI.Counts[s]))
		}
	} else {
		for i := range nodes {
			n := &nodes[i]
			tok := n.LabelToken()
			if tok == "" {
				continue
			}
			add(append([]string{tok}, n.PropertyKeys()...), 1)
		}
	}
	edges := g.Edges()
	for i := range edges {
		e := &edges[i]
		var src, dst string
		if ec != nil {
			src, dst = ec.Tokens(i)
		} else {
			src = pg.LabelToken(g.SrcLabels(e))
			dst = pg.LabelToken(g.DstLabels(e))
		}
		etok := e.LabelToken()
		// Inlined add() over the three scalars, so duplicate edge
		// sentences — the overwhelming majority — allocate nothing.
		nonEmpty := 0
		for _, w := range [...]string{src, etok, dst} {
			if w != "" {
				nonEmpty++
			}
		}
		if nonEmpty < 2 {
			continue
		}
		keyBuf = append(append(append(append(append(append(keyBuf[:0],
			src...), '\x1f'), etok...), '\x1f'), dst...), '\x1f')
		if s, ok := seen[string(keyBuf)]; ok {
			s.count++
			continue
		}
		seen[string(keyBuf)] = &sent{words: []string{src, etok, dst}, count: 1}
	}

	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var corpus [][]string
	for _, k := range keys {
		s := seen[k]
		reps := 1 + int(math.Log2(float64(s.count)))
		for r := 0; r < reps; r++ {
			corpus = append(corpus, s.words)
		}
	}
	return corpus
}

// TrainEmbedder builds the label corpus of g and trains a Word2Vec
// model on it with the given configuration.
func TrainEmbedder(g *pg.Graph, cfg word2vec.Config) *word2vec.Model {
	return word2vec.Train(BuildCorpus(g, nil, nil), cfg)
}

// Nodes vectorizes the given nodes against a fixed property-key
// layout. Each row is [embed(labelToken) | propertyBits] ∈ R^{d+K}.
func Nodes(nodes []pg.Node, keys []string, emb Embedder) *Matrix {
	return NodesParallel(nodes, keys, emb, 1)
}

// NodesParallel is Nodes with row construction fanned out over a
// worker pool. Distinct label tokens are resolved once up front, then
// workers fill disjoint row ranges, so the matrix is bit-identical to
// the sequential one for every worker count. workers <= 0 selects
// runtime.NumCPU().
func NodesParallel(nodes []pg.Node, keys []string, emb Embedder, workers int) *Matrix {
	d := emb.Dim()
	width := d + len(keys)
	keyIdx := indexKeys(keys)
	m := &Matrix{
		IDs:      make([]pg.ID, len(nodes)),
		Tokens:   make([]string, len(nodes)),
		Vecs:     make([][]float64, len(nodes)),
		Keys:     keys,
		EmbedDim: d,
		BinStart: d,
		Bits:     make([][]int32, len(nodes)),
	}
	for i := range nodes {
		m.Tokens[i] = nodes[i].LabelToken()
	}
	tokVecs := resolveVectors(m.Tokens, emb)
	backing := make([]float64, len(nodes)*width)
	parallel.For(len(nodes), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			n := &nodes[i]
			row := backing[i*width : (i+1)*width]
			copy(row[:d], tokVecs[m.Tokens[i]])
			bits := make([]int32, 0, len(n.Props))
			for _, p := range n.Props {
				if j, ok := keyIdx[p.Key]; ok {
					row[d+j] = 1
					bits = append(bits, int32(j))
				}
			}
			slices.Sort(bits) // in order already when keys is sorted
			m.IDs[i] = n.ID
			m.Vecs[i] = row
			m.Bits[i] = bits
		}
	})
	return m
}

// EdgesParallel vectorizes edges against a fixed property-key
// layout. Each row is [embed(edgeToken) | embed(srcToken) |
// embed(dstToken) | propertyBits] ∈ R^{3d+Q} (§4.1), with the
// endpoint tokens supplied per edge (aligned slices) — which is how
// the pipeline substitutes discovered node-type names for unlabeled
// endpoints. Because the endpoint tokens are pre-resolved, rows are
// independent and workers fill disjoint ranges; the matrix is
// bit-identical to the sequential one for every worker count.
// workers <= 0 selects runtime.NumCPU().
func EdgesParallel(edges []pg.Edge, keys []string, emb Embedder, srcToks, dstToks []string, workers int) *Matrix {
	d := emb.Dim()
	width := 3*d + len(keys)
	keyIdx := indexKeys(keys)
	m := &Matrix{
		IDs:      make([]pg.ID, len(edges)),
		Tokens:   make([]string, len(edges)),
		Vecs:     make([][]float64, len(edges)),
		Keys:     keys,
		EmbedDim: d,
		BinStart: 3 * d,
		Bits:     make([][]int32, len(edges)),
	}
	for i := range edges {
		m.Tokens[i] = edges[i].LabelToken()
	}
	all := make([]string, 0, 3*len(edges))
	all = append(all, m.Tokens...)
	all = append(all, srcToks...)
	all = append(all, dstToks...)
	tokVecs := resolveVectors(all, emb)
	backing := make([]float64, len(edges)*width)
	parallel.For(len(edges), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := &edges[i]
			row := backing[i*width : (i+1)*width]
			copy(row[:d], tokVecs[m.Tokens[i]])
			copy(row[d:2*d], tokVecs[srcToks[i]])
			copy(row[2*d:3*d], tokVecs[dstToks[i]])
			bits := make([]int32, 0, len(e.Props))
			for _, p := range e.Props {
				if j, ok := keyIdx[p.Key]; ok {
					row[3*d+j] = 1
					bits = append(bits, int32(j))
				}
			}
			slices.Sort(bits) // in order already when keys is sorted
			m.IDs[i] = e.ID
			m.Vecs[i] = row
			m.Bits[i] = bits
		}
	})
	return m
}

func indexKeys(keys []string) map[string]int {
	idx := make(map[string]int, len(keys))
	for i, k := range keys {
		idx[k] = i
	}
	return idx
}
