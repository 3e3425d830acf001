package lsh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// syntheticVectors builds nTypes well-separated centers in dim
// dimensions and n instances round-robined across them, optionally
// jittered. It returns vectors and ground-truth type per row.
func syntheticVectors(n, nTypes, dim int, jitter float64, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, nTypes)
	for i := range centers {
		c := make([]float64, dim)
		for d := range c {
			c[d] = rng.NormFloat64() * 4
		}
		centers[i] = c
	}
	vecs := make([][]float64, n)
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		ty := i % nTypes
		v := make([]float64, dim)
		copy(v, centers[ty])
		if jitter > 0 {
			for d := range v {
				v[d] += rng.NormFloat64() * jitter
			}
		}
		vecs[i] = v
		truth[i] = ty
	}
	return vecs, truth
}

// purity computes the fraction of rows whose cluster majority type
// matches their own type — the same leniency as the paper's F1*.
func purity(assign []int, truth []int, k int) float64 {
	counts := make([]map[int]int, k)
	for i := range counts {
		counts[i] = map[int]int{}
	}
	for row, cl := range assign {
		counts[cl][truth[row]]++
	}
	majority := make([]int, k)
	for cl, m := range counts {
		best, bestN := -1, -1
		for ty, n := range m {
			if n > bestN {
				best, bestN = ty, n
			}
		}
		majority[cl] = best
	}
	correct := 0
	for row, cl := range assign {
		if truth[row] == majority[cl] {
			correct++
		}
	}
	return float64(correct) / float64(len(assign))
}

func TestClusterEuclideanSeparatesCleanTypes(t *testing.T) {
	vecs, truth := syntheticVectors(600, 6, 12, 0, 1)
	c := ClusterEuclidean(vecs, Params{Tables: 12, BucketLength: 1.0, Seed: 7})
	if c.NumClusters != 6 {
		t.Fatalf("NumClusters = %d, want 6 (identical vectors per type)", c.NumClusters)
	}
	if p := purity(c.Assign, truth, c.NumClusters); p != 1 {
		t.Fatalf("purity = %v, want 1.0 on clean data", p)
	}
}

func TestClusterEuclideanIdenticalVectorsAlwaysTogether(t *testing.T) {
	// Identical vectors must share every hash, for any parameters.
	f := func(seed int64, tables uint8, bl float64) bool {
		p := Params{Tables: int(tables%30) + 1, BucketLength: math.Abs(bl) + 0.1, Seed: seed}
		v := []float64{1.5, -2, 3, 0.25}
		vecs := [][]float64{v, v, v, v}
		c := ClusterEuclidean(vecs, p)
		return c.NumClusters == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterEuclideanJitterStaysPure(t *testing.T) {
	// Moderate jitter fragments clusters but must not mix types when
	// centers are far apart relative to the bucket length.
	vecs, truth := syntheticVectors(800, 5, 16, 0.05, 3)
	c := ClusterEuclidean(vecs, Params{Tables: 16, BucketLength: 1.5, Seed: 11})
	if p := purity(c.Assign, truth, c.NumClusters); p < 0.99 {
		t.Fatalf("purity = %v, want >= 0.99 with separated centers", p)
	}
}

func TestClusterEuclideanMoreTablesMoreSelective(t *testing.T) {
	// AND semantics: increasing T cannot decrease the cluster count.
	vecs, _ := syntheticVectors(400, 4, 8, 0.3, 5)
	prev := 0
	for _, tables := range []int{2, 8, 24} {
		c := ClusterEuclidean(vecs, Params{Tables: tables, BucketLength: 2, Seed: 9})
		if c.NumClusters < prev {
			t.Fatalf("T=%d produced fewer clusters (%d) than smaller T (%d); AND amplification must be monotone",
				tables, c.NumClusters, prev)
		}
		prev = c.NumClusters
	}
}

func TestClusterEuclideanWiderBucketsMergeMore(t *testing.T) {
	vecs, _ := syntheticVectors(400, 4, 8, 0.5, 5)
	narrow := ClusterEuclidean(vecs, Params{Tables: 8, BucketLength: 0.05, Seed: 2})
	wide := ClusterEuclidean(vecs, Params{Tables: 8, BucketLength: 100, Seed: 2})
	if wide.NumClusters > narrow.NumClusters {
		t.Fatalf("wider buckets must merge more: wide=%d narrow=%d", wide.NumClusters, narrow.NumClusters)
	}
	// With a bucket length far beyond any projection magnitude, every
	// hash is ⌊u/b⌋ = 0 and everything collapses to one cluster.
	huge := ClusterEuclidean(vecs, Params{Tables: 8, BucketLength: 1e9, Seed: 2})
	if huge.NumClusters != 1 {
		t.Fatalf("bucket length 1e9 should collapse everything, got %d clusters", huge.NumClusters)
	}
}

func TestClusterEuclideanEmptyAndDegenerate(t *testing.T) {
	c := ClusterEuclidean(nil, Params{Tables: 4, BucketLength: 1})
	if c.NumClusters != 0 || len(c.Assign) != 0 {
		t.Fatal("empty input must produce an empty clustering")
	}
	// Zero/negative parameters fall back to sane defaults.
	c = ClusterEuclidean([][]float64{{1}, {1}}, Params{})
	if len(c.Assign) != 2 {
		t.Fatal("degenerate params must still cluster")
	}
	if c.NumClusters != 1 {
		t.Fatalf("identical rows must cluster together, got %d", c.NumClusters)
	}
}

func TestClusterEuclideanDeterminism(t *testing.T) {
	vecs, _ := syntheticVectors(300, 3, 10, 0.2, 4)
	p := Params{Tables: 10, BucketLength: 1, Seed: 42}
	a := ClusterEuclidean(vecs, p)
	b := ClusterEuclidean(vecs, p)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("clustering is not deterministic")
		}
	}
}

func TestClusterMinHashIdenticalSets(t *testing.T) {
	sets := [][]string{
		{"Person", "name", "age"},
		{"Person", "name", "age"},
		{"Post", "content"},
		{"Post", "content"},
	}
	c := ClusterMinHash(sets, Params{Tables: 16, Seed: 1})
	if c.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2", c.NumClusters)
	}
	if c.Assign[0] != c.Assign[1] || c.Assign[2] != c.Assign[3] || c.Assign[0] == c.Assign[2] {
		t.Fatalf("assignment wrong: %v", c.Assign)
	}
}

func TestClusterMinHashHighJaccardMerges(t *testing.T) {
	// 9/10 shared tokens (J = 0.81): with banding r=4 across many
	// bands the pair should collide in at least one band.
	base := []string{"T", "a", "b", "c", "d", "e", "f", "g", "h", "i"}
	variant := append(append([]string{}, base[:9]...), "z")
	other := []string{"U", "q", "r", "s", "t", "u", "v", "w", "x", "y"}
	sets := [][]string{base, variant, other}
	c := ClusterMinHash(sets, Params{Tables: 32, Seed: 5})
	if c.Assign[0] != c.Assign[1] {
		t.Fatalf("high-Jaccard sets should merge: %v", c.Assign)
	}
	if c.Assign[0] == c.Assign[2] {
		t.Fatalf("disjoint sets must not merge: %v", c.Assign)
	}
}

func TestClusterMinHashEmpty(t *testing.T) {
	c := ClusterMinHash(nil, Params{Tables: 8})
	if c.NumClusters != 0 {
		t.Fatal("empty input must produce an empty clustering")
	}
	// Elements with empty token sets must not panic and must cluster
	// together (identical empty signatures).
	c = ClusterMinHash([][]string{{}, {}}, Params{Tables: 8, Seed: 1})
	if c.NumClusters != 1 {
		t.Fatalf("empty sets should share a bucket, got %d clusters", c.NumClusters)
	}
}

// Property: cluster IDs are always dense in [0, NumClusters) and the
// assignment covers every row.
func TestClusteringDenseIDsProperty(t *testing.T) {
	f := func(seed int64, nRaw, tyRaw uint8) bool {
		n := int(nRaw%100) + 2
		ty := int(tyRaw%5) + 1
		vecs, _ := syntheticVectors(n, ty, 6, 0.4, seed)
		c := ClusterEuclidean(vecs, Params{Tables: 6, BucketLength: 1, Seed: seed})
		if len(c.Assign) != n {
			return false
		}
		seen := make([]bool, c.NumClusters)
		for _, cl := range c.Assign {
			if cl < 0 || cl >= c.NumClusters {
				return false
			}
			seen[cl] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(6)
	uf.union(0, 1)
	uf.union(2, 3)
	uf.union(1, 2)
	assign, k := uf.components()
	if k != 3 {
		t.Fatalf("components = %d, want 3", k)
	}
	if assign[0] != assign[3] {
		t.Error("0 and 3 should be connected")
	}
	if assign[4] == assign[5] || assign[4] == assign[0] {
		t.Error("4 and 5 must be singletons")
	}
}
