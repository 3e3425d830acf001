// Package gmm re-creates the GMMSchema baseline (Bonifati, Dumbrava,
// Mir — EDBT 2022) the paper compares against (§5): hierarchical
// clustering of nodes with Gaussian Mixture Models over label and
// property information.
//
// Faithful to the described behaviour, this implementation
//
//   - discovers node types only (no edge types),
//   - requires a fully labeled dataset and errors out otherwise,
//   - fits diagonal-covariance Gaussian mixtures with EM, growing the
//     model by bisecting splits accepted while BIC improves, and
//   - optionally fits on a sample of the data, assigning the rest to
//     the nearest component (the sampling the paper notes "impacts the
//     completeness or precision of the inferred schema").
//
// Under property noise the per-type vector distributions widen and
// overlap, so components start absorbing instances of neighbouring
// types — the degradation the paper reports beyond 20% noise.
package gmm

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"github.com/pghive/pghive/internal/keyed"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
	"github.com/pghive/pghive/internal/vectorize"
)

// zeroEmbedder supplies an empty label block: GMMSchema clusters on
// property structure alone.
type zeroEmbedder struct{}

func (zeroEmbedder) Dim() int                { return 0 }
func (zeroEmbedder) Vector(string) []float64 { return nil }

// ErrUnlabeled is returned when the dataset is not fully labeled;
// GMMSchema assumes complete label information (§2).
var ErrUnlabeled = errors.New("gmm: GMMSchema requires a fully labeled dataset")

// Options configures a GMMSchema run.
type Options struct {
	// MaxComponents caps the mixture size (default 64).
	MaxComponents int
	// MaxIter caps EM iterations per split fit (default 25).
	MaxIter int
	// SampleLimit fits the mixture on at most this many nodes,
	// assigning the remainder afterwards (default 4000; 0 disables
	// sampling).
	SampleLimit int
	// EmbedDim is the label-embedding width (default 8).
	EmbedDim int
	// Seed drives initialization and sampling.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.MaxComponents <= 0 {
		o.MaxComponents = 64
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 25
	}
	if o.SampleLimit == 0 {
		o.SampleLimit = 4000
	}
	if o.EmbedDim <= 0 {
		o.EmbedDim = 8
	}
	return o
}

// Result is the outcome of a GMMSchema run: node types only.
type Result struct {
	Schema *schema.Schema
	// NodeAssign maps every node to its type's ID.
	NodeAssign keyed.Column[pg.ID, int32]
	Components int
	Elapsed    time.Duration
}

// Discover runs GMMSchema over the graph's nodes.
func Discover(g *pg.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	start := time.Now()

	nodes := g.Nodes()
	for i := range nodes {
		if len(nodes[i].Labels) == 0 {
			return nil, ErrUnlabeled
		}
	}

	// Vectorize on property-presence distributions: GMMSchema's
	// Gaussian mixtures operate on the nodes' property structure (the
	// labels gate admission — fully labeled data only — and name the
	// discovered clusters). This is exactly why it degrades under
	// property noise (§5): widened per-type distributions overlap and
	// components absorb neighbouring types.
	mat := vectorize.Nodes(nodes, g.DistinctNodePropertyKeys(), zeroEmbedder{})

	rng := rand.New(rand.NewSource(opts.Seed))
	fitIdx := make([]int, len(nodes))
	for i := range fitIdx {
		fitIdx[i] = i
	}
	if opts.SampleLimit > 0 && len(fitIdx) > opts.SampleLimit {
		rng.Shuffle(len(fitIdx), func(i, j int) { fitIdx[i], fitIdx[j] = fitIdx[j], fitIdx[i] })
		fitIdx = fitIdx[:opts.SampleLimit]
	}

	model := fitBisecting(mat.Vecs, fitIdx, opts, rng)

	// Assign every node (not just the fitted sample) to its most
	// likely component.
	assign := make([]int, len(nodes))
	for i := range nodes {
		assign[i] = model.classify(mat.Vecs[i])
	}

	// One node type per component.
	s := schema.New()
	cands := schema.BuildNodeCandidates(nodes, assign, len(model.comps))
	types := s.ExtractNodeTypes(cands, 1.01) // θ>1: no Jaccard merging — GMMSchema has no such step
	return &Result{
		Schema: s,
		NodeAssign: keyed.Build(len(nodes),
			func(i int) pg.ID { return nodes[i].ID },
			func(i int) int32 { return int32(types[assign[i]].ID) }),
		Components: len(model.comps),
		Elapsed:    time.Since(start),
	}, nil
}

// component is one diagonal Gaussian with a mixing weight.
type component struct {
	weight float64
	mean   []float64
	vari   []float64
}

type mixture struct {
	comps []component
	dim   int
}

const varFloor = 1e-4

// logDensity returns log(weight · N(x | mean, diag(var))).
func (m *mixture) logDensity(c *component, x []float64) float64 {
	ll := math.Log(c.weight + 1e-300)
	for d := 0; d < m.dim; d++ {
		v := c.vari[d]
		diff := x[d] - c.mean[d]
		ll += -0.5 * (math.Log(2*math.Pi*v) + diff*diff/v)
	}
	return ll
}

func (m *mixture) classify(x []float64) int {
	best, bestLL := 0, math.Inf(-1)
	for i := range m.comps {
		if ll := m.logDensity(&m.comps[i], x); ll > bestLL {
			best, bestLL = i, ll
		}
	}
	return best
}

// fitBisecting grows a mixture by repeatedly splitting the component
// whose split most improves BIC, until no split helps or the cap is
// reached.
func fitBisecting(vecs [][]float64, idx []int, opts Options, rng *rand.Rand) *mixture {
	dim := 0
	if len(vecs) > 0 {
		dim = len(vecs[0])
	}
	m := &mixture{dim: dim}
	if len(idx) == 0 {
		return m
	}
	m.comps = []component{estimateComponent(vecs, idx, dim, 1.0)}
	members := [][]int{idx}
	// frozen marks components whose bisection was tried and rejected
	// by BIC; they are final leaves of the hierarchy.
	frozen := []bool{false}

	for len(m.comps) < opts.MaxComponents {
		// Pick the unfrozen component with the largest variance mass
		// (bisecting k-means style); if its split is rejected, freeze
		// it and move on to the next candidate.
		cand := -1
		var worst float64
		for i, mem := range members {
			if frozen[i] || len(mem) < 4 {
				continue
			}
			var vsum float64
			for _, v := range m.comps[i].vari {
				vsum += v
			}
			score := vsum * float64(len(mem))
			if cand == -1 || score > worst {
				cand, worst = i, score
			}
		}
		if cand == -1 {
			break // every component is a final leaf
		}
		mem := members[cand]
		before := bicForSubset(vecs, mem, []component{m.comps[cand]}, dim)
		two := emFit(vecs, mem, 2, opts.MaxIter, dim, rng)
		after := bicForSubset(vecs, mem, two.comps, dim)
		if after >= before || len(two.comps) < 2 {
			frozen[cand] = true
			continue
		}
		// Partition the members across the two children.
		var left, right []int
		for _, i := range mem {
			if two.classify(vecs[i]) == 0 {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		if len(left) == 0 || len(right) == 0 {
			frozen[cand] = true
			continue
		}
		frac := m.comps[cand].weight
		lw := frac * float64(len(left)) / float64(len(mem))
		rw := frac - lw
		m.comps[cand] = estimateComponent(vecs, left, dim, lw)
		m.comps = append(m.comps, estimateComponent(vecs, right, dim, rw))
		members[cand] = left
		members = append(members, right)
		frozen = append(frozen, false)
	}
	return m
}

// estimateComponent computes mean/variance of a member set.
func estimateComponent(vecs [][]float64, idx []int, dim int, weight float64) component {
	c := component{weight: weight, mean: make([]float64, dim), vari: make([]float64, dim)}
	n := float64(len(idx))
	if n == 0 {
		for d := range c.vari {
			c.vari[d] = 1
		}
		return c
	}
	for _, i := range idx {
		for d, x := range vecs[i] {
			c.mean[d] += x
		}
	}
	for d := range c.mean {
		c.mean[d] /= n
	}
	for _, i := range idx {
		for d, x := range vecs[i] {
			diff := x - c.mean[d]
			c.vari[d] += diff * diff
		}
	}
	for d := range c.vari {
		c.vari[d] = c.vari[d]/n + varFloor
	}
	return c
}

// emFit runs EM for a k-component diagonal GMM over the subset.
func emFit(vecs [][]float64, idx []int, k, maxIter, dim int, rng *rand.Rand) *mixture {
	m := &mixture{dim: dim}
	if len(idx) < k {
		m.comps = []component{estimateComponent(vecs, idx, dim, 1)}
		return m
	}
	// Farthest-point initialization (k-means++ flavoured): the first
	// mean is a random member, each further mean the member farthest
	// from the chosen ones. Far better than random pairs at finding
	// genuine sub-populations, which keeps BIC splits honest.
	base := estimateComponent(vecs, idx, dim, 1)
	seeds := []int{idx[rng.Intn(len(idx))]}
	for len(seeds) < k {
		far, farD := seeds[0], -1.0
		for _, i := range idx {
			minD := math.Inf(1)
			for _, s := range seeds {
				if d := sqDist(vecs[i], vecs[s]); d < minD {
					minD = d
				}
			}
			if minD > farD {
				far, farD = i, minD
			}
		}
		seeds = append(seeds, far)
	}
	m.comps = make([]component, k)
	for c := 0; c < k; c++ {
		mean := make([]float64, dim)
		copy(mean, vecs[seeds[c]])
		vari := make([]float64, dim)
		copy(vari, base.vari)
		m.comps[c] = component{weight: 1 / float64(k), mean: mean, vari: vari}
	}

	resp := make([][]float64, len(idx))
	for i := range resp {
		resp[i] = make([]float64, k)
	}
	for iter := 0; iter < maxIter; iter++ {
		// E step.
		for ii, i := range idx {
			maxLL := math.Inf(-1)
			for c := 0; c < k; c++ {
				resp[ii][c] = m.logDensity(&m.comps[c], vecs[i])
				if resp[ii][c] > maxLL {
					maxLL = resp[ii][c]
				}
			}
			var sum float64
			for c := 0; c < k; c++ {
				resp[ii][c] = math.Exp(resp[ii][c] - maxLL)
				sum += resp[ii][c]
			}
			for c := 0; c < k; c++ {
				resp[ii][c] /= sum
			}
		}
		// M step.
		for c := 0; c < k; c++ {
			var nk float64
			mean := make([]float64, dim)
			for ii, i := range idx {
				r := resp[ii][c]
				nk += r
				for d, x := range vecs[i] {
					mean[d] += r * x
				}
			}
			if nk < 1e-9 {
				continue
			}
			for d := range mean {
				mean[d] /= nk
			}
			vari := make([]float64, dim)
			for ii, i := range idx {
				r := resp[ii][c]
				for d, x := range vecs[i] {
					diff := x - mean[d]
					vari[d] += r * diff * diff
				}
			}
			for d := range vari {
				vari[d] = vari[d]/nk + varFloor
			}
			m.comps[c] = component{weight: nk / float64(len(idx)), mean: mean, vari: vari}
		}
	}
	return m
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// bicForSubset computes the Bayesian Information Criterion of a
// mixture restricted to a member subset (lower is better).
func bicForSubset(vecs [][]float64, idx []int, comps []component, dim int) float64 {
	m := &mixture{comps: comps, dim: dim}
	var ll float64
	for _, i := range idx {
		// log-sum-exp over components.
		maxLL := math.Inf(-1)
		lls := make([]float64, len(comps))
		for c := range comps {
			lls[c] = m.logDensity(&comps[c], vecs[i])
			if lls[c] > maxLL {
				maxLL = lls[c]
			}
		}
		var sum float64
		for _, l := range lls {
			sum += math.Exp(l - maxLL)
		}
		ll += maxLL + math.Log(sum)
	}
	params := float64(len(comps)) * float64(2*dim+1)
	return params*math.Log(float64(len(idx))) - 2*ll
}
