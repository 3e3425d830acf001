package lsh

import (
	"math"
	"math/rand"
)

// AdaptiveChoice reports the parameters the adaptive strategy of §4.2
// picked, along with the intermediate quantities (useful for the
// Fig. 6 heatmap experiment, which marks the adaptive point).
type AdaptiveChoice struct {
	// Mu is the estimated distance scale: the mean Euclidean distance
	// between sampled element pairs.
	Mu float64
	// BBase is 1.2·µ, the pre-α bucket width.
	BBase float64
	// Alpha is the label-count correction factor (0.8, 1.0, or 1.5).
	Alpha float64
	// SampleSize is the number of elements examined.
	SampleSize int
	// Params holds the final (b, T) handed to the clusterer.
	Params Params
}

// adaptiveSampleFloor mirrors the paper's "1% of the graph, or at
// least 10k nodes (whichever is larger)" rule; it is a variable so
// tests can exercise the rule at small scale.
const adaptiveSampleFloor = 10000

// maxSampledPairs bounds the pairwise-distance estimation work. The
// estimator is a mean, so a few thousand random pairs give a tight
// estimate regardless of sample size.
const maxSampledPairs = 4000

// alphaForLabels returns the paper's α heuristic: graphs with few
// labels need tighter buckets (α=0.8) to keep types distinct, graphs
// with many labels need wider buckets (α=1.5) to avoid
// over-fragmentation, and mid-sized label sets use α=1.0.
func alphaForLabels(labels int) float64 {
	switch {
	case labels <= 3:
		return 0.8
	case labels <= 10:
		return 1.0
	default:
		return 1.5
	}
}

// estimateMu samples elements per the paper's rule (max of 1% and the
// 10k floor, capped at N) and returns the mean Euclidean distance over
// random sampled pairs, plus the sample size. rows, when non-nil, is
// a row→vector index (the shape-interned per-row view): the logical
// element i is vecs[rows[i]], so the estimate — including which
// logical rows the fixed-seed sampling picks — is identical to
// running over the materialized per-row matrix.
func estimateMu(vecs [][]float64, rows []int32, seed int64) (float64, int) {
	n := len(vecs)
	if rows != nil {
		n = len(rows)
	}
	at := func(i int) []float64 {
		if rows != nil {
			return vecs[rows[i]]
		}
		return vecs[i]
	}
	if n < 2 {
		return 1, n
	}
	sample := n / 100
	if sample < adaptiveSampleFloor {
		sample = adaptiveSampleFloor
	}
	if sample > n {
		sample = n
	}
	rng := rand.New(rand.NewSource(seed))
	idx, ok := perm32(rng, n)
	pick := func() int { return int(idx[rng.Intn(sample)]) }
	if !ok {
		wide := rng.Perm(n)
		pick = func() int { return wide[rng.Intn(sample)] }
	}

	pairs := maxSampledPairs
	maxPairs := sample * (sample - 1) / 2
	if pairs > maxPairs {
		pairs = maxPairs
	}
	var sum float64
	count := 0
	for count < pairs {
		i, j := pick(), pick()
		if i == j {
			continue
		}
		sum += euclidean(at(i), at(j))
		count++
	}
	mu := sum / float64(count)
	if mu <= 0 {
		mu = 1e-6
	}
	return mu, sample
}

// perm32 is rng.Perm(n) in half the bytes: the same inside-out shuffle
// over int32, with the same rng.Intn(i+1) draws, so it yields the same
// permutation and leaves rng in the same state. It refuses — before
// drawing anything — an n whose indices do not fit.
func perm32(rng *rand.Rand, n int) ([]int32, bool) {
	if n > math.MaxInt32 {
		return nil, false
	}
	m := make([]int32, n)
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = int32(i)
	}
	return m, true
}

func euclidean(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// AdaptiveNodeParamsInterned derives (b, T) for node clustering from
// the data, per §4.2: b = 1.2·µ·α and T = b_base · max(5, α·min(25,
// log10 N)), rounded and clamped to a practical integer range. repVecs
// holds one vector per distinct shape and rows maps each logical row
// to its shape, so the estimation sees the same element population —
// and picks the same parameters — as the materialized per-row matrix
// would, without expanding it. A nil rows makes repVecs itself the
// per-row matrix.
func AdaptiveNodeParamsInterned(repVecs [][]float64, rows []int32, distinctLabels int, seed int64) AdaptiveChoice {
	return adaptiveParams(repVecs, rows, distinctLabels, seed, 5, 25)
}

// AdaptiveEdgeParamsInterned is AdaptiveNodeParamsInterned for edge
// clustering; the paper uses slightly smaller floors for edges
// (max(3, α·min(20, log10 E))) because edge vectors are more
// expressive (three embeddings).
func AdaptiveEdgeParamsInterned(repVecs [][]float64, rows []int32, distinctLabels int, seed int64) AdaptiveChoice {
	return adaptiveParams(repVecs, rows, distinctLabels, seed, 3, 20)
}

func adaptiveParams(vecs [][]float64, rows []int32, distinctLabels int, seed int64, tFloor, tCap float64) AdaptiveChoice {
	mu, sample := estimateMu(vecs, rows, seed)
	bBase := 1.2 * mu
	alpha := alphaForLabels(distinctLabels)
	b := bBase * alpha

	n := len(vecs)
	if rows != nil {
		n = len(rows)
	}
	logN := 0.0
	if n > 1 {
		logN = math.Log10(float64(n))
	}
	tf := bBase * math.Max(tFloor, alpha*math.Min(tCap, logN))
	t := clampT(int(math.Round(tf)))

	return AdaptiveChoice{
		Mu:         mu,
		BBase:      bBase,
		Alpha:      alpha,
		SampleSize: sample,
		Params:     Params{Tables: t, BucketLength: b, Seed: seed},
	}
}

// AdaptiveMinHashParams derives T for MinHash clustering. MinHash has
// no bucket-length parameter (§4.2), so only the T heuristic applies;
// without a distance scale the b_base multiplier is dropped and the
// practical range of §4.2 ("T ∈ [15, 35] works well across datasets")
// anchors the clamp.
func AdaptiveMinHashParams(numElements, distinctLabels int, seed int64) AdaptiveChoice {
	alpha := alphaForLabels(distinctLabels)
	logN := 0.0
	if numElements > 1 {
		logN = math.Log10(float64(numElements))
	}
	t := clampT(int(math.Round(4 * math.Max(5, alpha*math.Min(25, logN)))))
	if t < 15 {
		t = 15
	}
	return AdaptiveChoice{
		Alpha:      alpha,
		SampleSize: numElements,
		Params:     Params{Tables: t, RowsPerBand: 4, Seed: seed},
	}
}

// clampT keeps the table count in a practical integer range; §4.2
// reports T ∈ [15, 35] as the empirically useful region, and values
// outside [4, 48] only waste work or destroy selectivity.
func clampT(t int) int {
	if t < 4 {
		return 4
	}
	if t > 48 {
		return 48
	}
	return t
}
