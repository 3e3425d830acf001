package lsh

import (
	"math/rand"
	"testing"
)

// mixIntsFNV is the byte-at-a-time FNV-1a mixer mixInts replaced,
// kept as the reference for the equivalence test below.
func mixIntsFNV(seed uint64, vals []int64) uint64 {
	h := seed ^ 14695981039346656037
	for _, v := range vals {
		u := uint64(v)
		for b := 0; b < 8; b++ {
			h ^= (u >> (8 * b)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// mixBandKeysWith is mixBandKeys parameterized over the mixer.
func mixBandKeysWith(mix func(uint64, []int64) uint64, keys []uint64, sig []int64, rows int) {
	for band := range keys {
		lo := band * rows
		hi := lo + rows
		if hi > len(sig) {
			hi = len(sig)
		}
		keys[band] = mix(uint64(band)+0x9e3779b97f4a7c15, sig[lo:hi])
	}
}

// TestMixIntsClusteringEquivalence pins the splitmix-style mixInts to
// the FNV reference: band keys are only compared for equality, so as
// long as neither mixer collides on the observed signatures, the
// resulting clusterings are identical. Signatures are generated from
// fixed seeds with heavy duplication so real bucket collisions occur.
func TestMixIntsClusteringEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		const n, tables, rows = 500, 12, 4
		bands := (tables + rows - 1) / rows
		// 40 distinct signature patterns over 500 rows → dense
		// duplication, plus near-duplicates differing in one hash.
		patterns := make([][]int64, 40)
		for i := range patterns {
			sig := make([]int64, tables)
			for j := range sig {
				sig[j] = int64(rng.Intn(8)) - 4
			}
			patterns[i] = sig
		}
		newKeys := make([]uint64, n*bands)
		oldKeys := make([]uint64, n*bands)
		for row := 0; row < n; row++ {
			sig := patterns[rng.Intn(len(patterns))]
			mixBandKeys(newKeys[row*bands:(row+1)*bands], sig, rows)
			mixBandKeysWith(mixIntsFNV, oldKeys[row*bands:(row+1)*bands], sig, rows)
		}
		got := bandedComponents(n, bands, newKeys)
		want := bandedComponents(n, bands, oldKeys)
		if got.NumClusters != want.NumClusters {
			t.Fatalf("seed %d: %d clusters with splitmix vs %d with FNV", seed, got.NumClusters, want.NumClusters)
		}
		for i := range got.Assign {
			if got.Assign[i] != want.Assign[i] {
				t.Fatalf("seed %d: row %d assigned %d (splitmix) vs %d (FNV)", seed, i, got.Assign[i], want.Assign[i])
			}
		}
	}
}

// randHybrid builds n hybrid rows: a dense random prefix of width d
// followed by a binary block of width k drawn from a limited pattern
// pool (so clusters form), returning both the dense rows and the
// sparse bit lists.
func randHybrid(rng *rand.Rand, n, d, k int) ([][]float64, [][]int32) {
	prefixes := make([][]float64, 8)
	for i := range prefixes {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.NormFloat64() * 3
		}
		prefixes[i] = p
	}
	vecs := make([][]float64, n)
	bits := make([][]int32, n)
	for i := range vecs {
		row := make([]float64, d+k)
		copy(row, prefixes[rng.Intn(len(prefixes))])
		var bs []int32
		for j := 0; j < k; j++ {
			if rng.Float64() < 0.2 {
				row[d+j] = 1
				bs = append(bs, int32(j))
			}
		}
		vecs[i] = row
		bits[i] = bs
	}
	return vecs, bits
}

// TestClusterEuclideanSparseMatchesDense: skipping the zero tail and
// adding only set bits is bit-exact — the sparse and dense paths
// produce identical clusterings for every worker count.
func TestClusterEuclideanSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vecs, bits := randHybrid(rng, 400, 12, 30)
	p := Params{Tables: 8, BucketLength: 2, Seed: 5}
	want := ClusterEuclidean(vecs, p)
	for _, workers := range []int{1, 4} {
		p.Workers = workers
		got := ClusterEuclideanSparse(vecs, 12, bits, p)
		if got.NumClusters != want.NumClusters {
			t.Fatalf("workers=%d: %d clusters sparse vs %d dense", workers, got.NumClusters, want.NumClusters)
		}
		for i := range got.Assign {
			if got.Assign[i] != want.Assign[i] {
				t.Fatalf("workers=%d: row %d differs", workers, i)
			}
		}
	}
}

// broadcast expands a clustering of shape representatives to a
// per-row clustering through the row→shape map: row i gets the
// cluster of its shape rowShape[i]. It is the reference form of the
// interning contract — the pipeline inlines the same indexing
// (Assign[rowShape[row]]) instead of materializing the per-row
// slice, and the equivalence tests below pin the two against each
// other.
//
// Same-shape rows carry byte-identical vectors or token sets, so in a
// per-row run they collide in every band and always land in one
// cluster; clustering only the representatives (weighted by their
// occurrence counts — the weights cannot change bucketing, only the
// statistics fed downstream) therefore produces the exact same
// partition. Cluster labels also coincide: components are labeled by
// first occurrence, and representatives are ordered by the first
// occurrence of their shape, so label k of the representative run is
// label k of the full run.
func broadcast(rep *Clustering, rowShape []int32) *Clustering {
	assign := make([]int, len(rowShape))
	for i, s := range rowShape {
		assign[i] = rep.Assign[s]
	}
	return &Clustering{Assign: assign, NumClusters: rep.NumClusters}
}

// TestBroadcast: representative clusters expand through the row→shape
// map, preserving cluster IDs and count.
func TestBroadcast(t *testing.T) {
	rep := &Clustering{Assign: []int{0, 1, 0, 2}, NumClusters: 3}
	got := broadcast(rep, []int32{0, 0, 1, 2, 3, 1})
	want := []int{0, 0, 1, 0, 2, 1}
	if got.NumClusters != 3 || len(got.Assign) != len(want) {
		t.Fatalf("got %v (%d clusters)", got.Assign, got.NumClusters)
	}
	for i := range want {
		if got.Assign[i] != want[i] {
			t.Fatalf("Assign = %v, want %v", got.Assign, want)
		}
	}
}

// TestClusterInternedEquivalence: clustering deduplicated rows and
// broadcasting matches clustering the full duplicated row set, for
// both schemes — the exactness contract shape interning relies on.
func TestClusterInternedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Build distinct rep rows, then a duplicated expansion.
	repVecs, repBits := randHybrid(rng, 60, 10, 20)
	// First occurrences in shape order (what first-occurrence grouping
	// guarantees), then duplicates interleaved in random shape order.
	var rows []int32
	for s := range repVecs {
		rows = append(rows, int32(s))
	}
	for c := 0; c < 4*len(repVecs); c++ {
		rows = append(rows, int32(rng.Intn(len(repVecs))))
	}
	fullVecs := make([][]float64, len(rows))
	fullBits := make([][]int32, len(rows))
	for i, s := range rows {
		fullVecs[i] = repVecs[s]
		fullBits[i] = repBits[s]
	}

	p := Params{Tables: 10, BucketLength: 2.5, Seed: 9}
	full := ClusterEuclideanSparse(fullVecs, 10, fullBits, p)
	interned := broadcast(ClusterEuclideanSparse(repVecs, 10, repBits, p), rows)
	if full.NumClusters != interned.NumClusters {
		t.Fatalf("clusters: full %d vs interned %d", full.NumClusters, interned.NumClusters)
	}
	for i := range full.Assign {
		if full.Assign[i] != interned.Assign[i] {
			t.Fatalf("row %d: full %d vs interned %d", i, full.Assign[i], interned.Assign[i])
		}
	}

	// MinHash: same construction over token sets.
	repSets := make([][]string, 40)
	for s := range repSets {
		set := []string{string(rune('a' + s%7))}
		for j := 0; j < s%5; j++ {
			set = append(set, string(rune('p'+j)))
		}
		repSets[s] = set
	}
	var mrows []int32
	for s := range repSets {
		mrows = append(mrows, int32(s))
	}
	for c := 0; c < 3*len(repSets); c++ {
		mrows = append(mrows, int32(rng.Intn(len(repSets))))
	}
	fullSets := make([][]string, len(mrows))
	for i, s := range mrows {
		fullSets[i] = repSets[s]
	}
	mp := Params{Tables: 16, Seed: 13}
	mfull := ClusterMinHash(fullSets, mp)
	minterned := broadcast(ClusterMinHash(repSets, mp), mrows)
	if mfull.NumClusters != minterned.NumClusters {
		t.Fatalf("minhash clusters: full %d vs interned %d", mfull.NumClusters, minterned.NumClusters)
	}
	for i := range mfull.Assign {
		if mfull.Assign[i] != minterned.Assign[i] {
			t.Fatalf("minhash row %d differs", i)
		}
	}
}
