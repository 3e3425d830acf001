package lsh

import (
	"math"
	"math/rand"
	"testing"
)

func TestAlphaForLabels(t *testing.T) {
	cases := []struct {
		labels int
		want   float64
	}{
		{0, 0.8}, {1, 0.8}, {3, 0.8},
		{4, 1.0}, {7, 1.0}, {10, 1.0},
		{11, 1.5}, {100, 1.5},
	}
	for _, c := range cases {
		if got := alphaForLabels(c.labels); got != c.want {
			t.Errorf("alphaForLabels(%d) = %v, want %v", c.labels, got, c.want)
		}
	}
}

func TestEstimateMu(t *testing.T) {
	// All points at distance ~2 apart on a line: µ must land near the
	// true mean pairwise distance.
	vecs := make([][]float64, 200)
	for i := range vecs {
		vecs[i] = []float64{float64(i % 2 * 2)} // 0 or 2
	}
	mu, sample := estimateMu(vecs, nil, 1)
	if sample != 200 {
		t.Errorf("sample = %d, want full population below floor", sample)
	}
	// Half the pairs are at distance 0 within the same point group,
	// half at distance 2 → mean ≈ 1.
	if mu < 0.8 || mu > 1.2 {
		t.Errorf("mu = %v, want ≈ 1", mu)
	}
}

func TestEstimateMuDegenerate(t *testing.T) {
	if mu, _ := estimateMu(nil, nil, 1); mu != 1 {
		t.Errorf("empty input mu = %v, want fallback 1", mu)
	}
	if mu, _ := estimateMu([][]float64{{5}}, nil, 1); mu != 1 {
		t.Errorf("single-element mu = %v, want fallback 1", mu)
	}
	// Identical points: mu must not be zero (division guard).
	same := [][]float64{{1, 2}, {1, 2}, {1, 2}}
	mu, _ := estimateMu(same, nil, 1)
	if mu <= 0 {
		t.Errorf("identical points mu = %v, want > 0", mu)
	}
}

func TestAdaptiveNodeParams(t *testing.T) {
	vecs := make([][]float64, 1000)
	for i := range vecs {
		vecs[i] = []float64{float64(i%4) * 3, float64(i%5) * 2}
	}
	ch := AdaptiveNodeParamsInterned(vecs, nil, 6, 1)
	if ch.Alpha != 1.0 {
		t.Errorf("alpha = %v, want 1.0 for 6 labels", ch.Alpha)
	}
	if math.Abs(ch.BBase-1.2*ch.Mu) > 1e-12 {
		t.Errorf("BBase = %v, want 1.2µ = %v", ch.BBase, 1.2*ch.Mu)
	}
	if math.Abs(ch.Params.BucketLength-ch.BBase*ch.Alpha) > 1e-12 {
		t.Errorf("b = %v, want b_base·α = %v", ch.Params.BucketLength, ch.BBase*ch.Alpha)
	}
	if ch.Params.Tables < 4 || ch.Params.Tables > 48 {
		t.Errorf("T = %d out of clamp range", ch.Params.Tables)
	}
}

func TestAdaptiveEdgeParamsUsesSmallerFloors(t *testing.T) {
	// With a tiny µ, T is driven by the floor: 5 for nodes, 3 for
	// edges. Make all vectors nearly identical so b_base is tiny.
	vecs := make([][]float64, 500)
	for i := range vecs {
		vecs[i] = []float64{1, 1 + float64(i%2)*1e-9}
	}
	n := AdaptiveNodeParamsInterned(vecs, nil, 5, 1)
	e := AdaptiveEdgeParamsInterned(vecs, nil, 5, 1)
	if n.Params.Tables < e.Params.Tables {
		t.Errorf("node T (%d) should be >= edge T (%d) for identical data",
			n.Params.Tables, e.Params.Tables)
	}
}

func TestAdaptiveMinHashParams(t *testing.T) {
	ch := AdaptiveMinHashParams(100000, 8, 1)
	if ch.Params.Tables < 15 || ch.Params.Tables > 48 {
		t.Errorf("MinHash T = %d out of practical range", ch.Params.Tables)
	}
	if ch.Params.RowsPerBand != 4 {
		t.Errorf("RowsPerBand = %d, want 4", ch.Params.RowsPerBand)
	}
	if ch.Params.BucketLength != 0 {
		t.Error("MinHash must not set a bucket length")
	}
}

func TestAdaptiveParamsScaleWithN(t *testing.T) {
	small := AdaptiveMinHashParams(100, 8, 1)
	big := AdaptiveMinHashParams(10_000_000, 8, 1)
	if big.Params.Tables < small.Params.Tables {
		t.Errorf("T must not shrink with dataset size: big=%d small=%d",
			big.Params.Tables, small.Params.Tables)
	}
}

func TestClampT(t *testing.T) {
	if clampT(-5) != 4 || clampT(0) != 4 {
		t.Error("lower clamp failed")
	}
	if clampT(100) != 48 {
		t.Error("upper clamp failed")
	}
	if clampT(20) != 20 {
		t.Error("in-range value must pass through")
	}
}

// TestPerm32MatchesRandPerm holds the int32 shuffle estimateMu samples
// with to rand.Perm: the same permutation value for value and the same
// generator state afterwards, for every seed and size — which is what
// keeps every AdaptiveChoice, and every golden behind one, where
// rng.Perm put it.
func TestPerm32MatchesRandPerm(t *testing.T) {
	for seed := int64(-2); seed <= 40; seed++ {
		for _, n := range []int{0, 1, 2, 3, 7, 100, 1001, 20000} {
			a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			want := a.Perm(n)
			got, ok := perm32(b, n)
			if !ok || len(got) != n {
				t.Fatalf("seed %d n %d: perm32 = %d values, ok %v", seed, n, len(got), ok)
			}
			for i := range want {
				if int(got[i]) != want[i] {
					t.Fatalf("seed %d n %d: perm32[%d] = %d, rand.Perm has %d", seed, n, i, got[i], want[i])
				}
			}
			if x, y := a.Int63(), b.Int63(); x != y {
				t.Fatalf("seed %d n %d: generators diverge after the shuffle", seed, n)
			}
		}
	}
}

// TestPerm32RefusesWideIndices: an n whose indices do not fit int32 is
// refused before anything is allocated or drawn, so the rand.Perm
// estimateMu falls back to starts from an untouched generator.
func TestPerm32RefusesWideIndices(t *testing.T) {
	wide := int64(math.MaxInt32) + 1
	if int64(int(wide)) != wide {
		t.Skip("int is 32 bits: every slice length fits int32")
	}
	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	if got, ok := perm32(a, int(wide)); ok || got != nil {
		t.Fatalf("perm32(MaxInt32+1) = %d values, ok %v; want a refusal", len(got), ok)
	}
	if x, y := a.Int63(), b.Int63(); x != y {
		t.Fatal("a refused perm32 drew from the generator")
	}
}
