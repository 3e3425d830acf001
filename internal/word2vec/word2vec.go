// Package word2vec implements the skip-gram-with-negative-sampling
// word embedding model of Mikolov et al. that PG-HIVE trains on the
// label corpus of a property graph (§4.1).
//
// The paper's contract is narrow: identical label sets must embed
// identically, and labels that co-occur in similar contexts should
// land nearby, so that the label half of a representation vector
// separates semantically different types even when their property
// structure coincides. This package provides exactly that, with fully
// deterministic training given a seed.
package word2vec

import (
	"math"
	"math/rand"
	"sort"

	"github.com/pghive/pghive/internal/parallel"
)

// Config holds the training hyperparameters.
type Config struct {
	// Dim is the embedding dimensionality d (paper Example 3 uses 5;
	// the default is 16, and discovery's label embedder trains 8).
	Dim int
	// Window is the skip-gram context radius.
	Window int
	// Epochs is the number of passes over the corpus.
	Epochs int
	// Negative is the number of negative samples per positive pair.
	Negative int
	// LearningRate is the initial SGD step size, decayed linearly.
	LearningRate float64
	// Seed makes training deterministic.
	Seed int64
}

// DefaultConfig returns the hyperparameters used by the PG-HIVE
// pipeline. The corpus (distinct label tokens) is tiny compared to
// natural language, so a small dimension and few epochs suffice.
func DefaultConfig() Config {
	return Config{Dim: 16, Window: 2, Epochs: 8, Negative: 5, LearningRate: 0.05, Seed: 1}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Dim <= 0 {
		c.Dim = d.Dim
	}
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.Epochs <= 0 {
		c.Epochs = d.Epochs
	}
	if c.Negative <= 0 {
		c.Negative = d.Negative
	}
	if c.LearningRate <= 0 {
		c.LearningRate = d.LearningRate
	}
	return c
}

// Model is a trained embedding table. The zero value is unusable; use
// Train. A trained Model is immutable: Vector and Similarity only
// read it, so concurrent lookups are safe.
type Model struct {
	dim   int
	vocab map[string]int
	vecs  []float64 // len(vocab) * dim, input vectors, L2-normalized
}

// Train fits a skip-gram model with negative sampling on the given
// sentences. Sentences are slices of tokens; empty tokens are skipped
// (an absent label embeds as the zero vector at lookup time, per
// §4.1, so it never enters the vocabulary). Training is deterministic
// for a fixed Config.
func Train(sentences [][]string, cfg Config) *Model {
	cfg = cfg.withDefaults()
	m := &Model{dim: cfg.Dim, vocab: map[string]int{}}

	// Build vocabulary and unigram counts in first-seen order, then
	// canonicalize by sorting tokens so vocabulary indices (and hence
	// the random init) do not depend on sentence order.
	counts := map[string]int{}
	for _, s := range sentences {
		for _, tok := range s {
			if tok == "" {
				continue
			}
			counts[tok]++
		}
	}
	tokens := make([]string, 0, len(counts))
	for tok := range counts {
		tokens = append(tokens, tok)
	}
	sort.Strings(tokens)
	for i, tok := range tokens {
		m.vocab[tok] = i
	}
	v := len(tokens)
	if v == 0 {
		return m
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	in := make([]float64, v*cfg.Dim)  // input (center) vectors
	out := make([]float64, v*cfg.Dim) // output (context) vectors
	for i := range in {
		in[i] = (rng.Float64() - 0.5) / float64(cfg.Dim)
	}

	// Negative-sampling table with the standard unigram^0.75
	// distribution.
	table := buildSamplingTable(tokens, counts, rng)

	// Pre-encode sentences as index slices, dropping empty tokens.
	enc := make([][]int, 0, len(sentences))
	for _, s := range sentences {
		es := make([]int, 0, len(s))
		for _, tok := range s {
			if tok == "" {
				continue
			}
			es = append(es, m.vocab[tok])
		}
		if len(es) >= 2 {
			enc = append(enc, es)
		}
	}

	totalSteps := cfg.Epochs * len(enc)
	step := 0
	grad := make([]float64, cfg.Dim)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, s := range enc {
			lr := cfg.LearningRate * (1 - float64(step)/float64(totalSteps+1))
			if lr < cfg.LearningRate*0.01 {
				lr = cfg.LearningRate * 0.01
			}
			step++
			for ci, center := range s {
				lo := ci - cfg.Window
				if lo < 0 {
					lo = 0
				}
				hi := ci + cfg.Window
				if hi >= len(s) {
					hi = len(s) - 1
				}
				for pos := lo; pos <= hi; pos++ {
					if pos == ci {
						continue
					}
					ctx := s[pos]
					trainPair(in, out, center, ctx, 1, lr, cfg.Dim, grad)
					for n := 0; n < cfg.Negative; n++ {
						neg := table[rng.Intn(len(table))]
						if neg == ctx {
							continue
						}
						trainPair(in, out, center, neg, 0, lr, cfg.Dim, grad)
					}
					for d := 0; d < cfg.Dim; d++ {
						in[center*cfg.Dim+d] += grad[d]
						grad[d] = 0
					}
				}
			}
		}
	}

	// L2-normalize so embeddings are scale-comparable with the binary
	// property block of the representation vectors.
	for i := 0; i < v; i++ {
		normalize(in[i*cfg.Dim : (i+1)*cfg.Dim])
	}
	m.vecs = in
	return m
}

// trainPair performs one SGD update for a (center, context) pair with
// the given binary target, accumulating the center gradient in grad
// and applying the context gradient immediately (the standard
// word2vec update order).
func trainPair(in, out []float64, center, ctx, target int, lr float64, dim int, grad []float64) {
	var dot float64
	cb, ob := center*dim, ctx*dim
	for d := 0; d < dim; d++ {
		dot += in[cb+d] * out[ob+d]
	}
	g := (float64(target) - sigmoid(dot)) * lr
	for d := 0; d < dim; d++ {
		grad[d] += g * out[ob+d]
		out[ob+d] += g * in[cb+d]
	}
}

func sigmoid(x float64) float64 {
	switch {
	case x > 8:
		return 1
	case x < -8:
		return 0
	}
	return 1 / (1 + math.Exp(-x))
}

func buildSamplingTable(tokens []string, counts map[string]int, rng *rand.Rand) []int {
	const tableSize = 1 << 14
	weights := make([]float64, len(tokens))
	var total float64
	for i, tok := range tokens {
		weights[i] = math.Pow(float64(counts[tok]), 0.75)
		total += weights[i]
	}
	table := make([]int, 0, tableSize)
	for i := range tokens {
		n := int(weights[i] / total * tableSize)
		if n < 1 {
			n = 1
		}
		for j := 0; j < n; j++ {
			table = append(table, i)
		}
	}
	rng.Shuffle(len(table), func(i, j int) { table[i], table[j] = table[j], table[i] })
	return table
}

func normalize(v []float64) {
	var n float64
	for _, x := range v {
		n += x * x
	}
	if n == 0 {
		return
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] /= n
	}
}

// Dim returns the embedding dimensionality.
func (m *Model) Dim() int { return m.dim }

// VocabSize returns the number of distinct tokens seen in training.
func (m *Model) VocabSize() int { return len(m.vocab) }

// Vector returns the embedding of a token. An unknown or empty token
// returns the zero vector of length Dim — the paper's representation
// for absent labels (§4.1, Example 3). The returned slice must not be
// modified.
func (m *Model) Vector(token string) []float64 {
	if token == "" {
		return make([]float64, m.dim)
	}
	i, ok := m.vocab[token]
	if !ok {
		return make([]float64, m.dim)
	}
	return m.vecs[i*m.dim : (i+1)*m.dim]
}

// Similarity returns the cosine similarity between two tokens'
// embeddings, or 0 if either is unknown.
func (m *Model) Similarity(a, b string) float64 {
	va, vb := m.Vector(a), m.Vector(b)
	var dot, na, nb float64
	for i := range va {
		dot += va[i] * vb[i]
		na += va[i] * va[i]
		nb += vb[i] * vb[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// HashedEmbedder produces deterministic pseudo-embeddings from token
// hashes alone, with no training: the same token always maps to the
// same unit vector, across processes and batches. Discovery's label
// embedder uses it as the identity half next to the trained Word2Vec
// half, and tests use it where they need stable vectors.
type HashedEmbedder struct {
	dim   int
	cache map[string][]float64
}

// NewHashedEmbedder returns a hash-based embedder of the given
// dimension. The embedder memoizes vectors per token (seeding a PRNG
// per lookup is orders of magnitude more expensive than a map hit);
// it is not safe for concurrent use.
func NewHashedEmbedder(dim int) *HashedEmbedder {
	if dim <= 0 {
		dim = DefaultConfig().Dim
	}
	return &HashedEmbedder{dim: dim, cache: map[string][]float64{}}
}

// Dim returns the embedding dimensionality.
func (h *HashedEmbedder) Dim() int { return h.dim }

// Vector returns the deterministic unit vector for the token; the
// empty token returns the zero vector (absent label). The returned
// slice is shared and must not be modified.
func (h *HashedEmbedder) Vector(token string) []float64 {
	if v, ok := h.cache[token]; ok {
		return v
	}
	v := hashedVector(token, h.dim)
	h.cache[token] = v
	return v
}

// Preload computes and caches the vectors of every not-yet-seen token
// using up to `workers` goroutines (workers <= 0 selects
// runtime.NumCPU()). Vector generation is a pure function of the
// token, so the cache contents are identical for every worker count.
// Preload itself must not run concurrently with other methods; after
// it returns, concurrent Vector reads of preloaded tokens are safe
// because they only hit the cache.
func (h *HashedEmbedder) Preload(tokens []string, workers int) {
	missing := make([]string, 0, len(tokens))
	for _, tok := range tokens {
		if _, ok := h.cache[tok]; !ok {
			missing = append(missing, tok)
		}
	}
	vecs := parallel.Map(len(missing), workers, func(i int) []float64 {
		return hashedVector(missing[i], h.dim)
	})
	for i, tok := range missing {
		h.cache[tok] = vecs[i]
	}
}

// hashedVector derives the deterministic unit vector of a token:
// FNV-1a seeds a PRNG that fills the vector. The empty token (absent
// label) yields the zero vector.
func hashedVector(token string, dim int) []float64 {
	v := make([]float64, dim)
	if token != "" {
		var seed uint64 = 14695981039346656037
		for i := 0; i < len(token); i++ {
			seed ^= uint64(token[i])
			seed *= 1099511628211
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		normalize(v)
	}
	return v
}
