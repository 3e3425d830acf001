// Package lsh implements the two Locality-Sensitive Hashing schemes
// PG-HIVE clusters with (§4.2): Euclidean LSH (the p-stable / bucketed
// random-projection scheme of Datar et al.) for the hybrid
// representation vectors, and MinHash LSH (Broder) for set-shaped
// representations, plus the adaptive parameterization heuristics of
// the paper.
//
// Amplification. Each of the T hash functions is assigned to a band;
// within a band the hash values are concatenated into a single bucket
// key (AND-amplification: all hashes in the band must agree), and an
// element's bucket collisions across bands are OR-combined with a
// union-find, so clusters are connected components of the collision
// graph. ELSH defaults to a single band — the full T-hash signature
// must match — because PG-HIVE deliberately over-fragments at this
// stage ("we prefer more separate types, as we are going to perform a
// merging step afterwards", §4.2) and the Alg. 2 merging step re-joins
// fragments by label or property Jaccard. MinHash defaults to bands
// of 4 rows, the textbook banding of Leskovec et al. ch. 3 that the
// paper cites.
package lsh

import (
	"math"
	"math/rand"

	"github.com/pghive/pghive/internal/parallel"
)

// Params controls one LSH clustering run.
type Params struct {
	// Tables is T, the total number of hash functions.
	Tables int
	// BucketLength is b, the Euclidean bucket width (ELSH only).
	BucketLength float64
	// RowsPerBand is the AND-amplification width r. 0 selects the
	// scheme default: all T hashes in one band for ELSH, 4 rows per
	// band for MinHash.
	RowsPerBand int
	// Seed drives projection and permutation generation.
	Seed int64
	// Workers is the number of goroutines used to compute signatures
	// and band bucket keys. 0 selects runtime.NumCPU(); 1 forces
	// sequential execution. The clustering is bit-identical for every
	// value — hashing is sharded into disjoint row ranges and the
	// banded keys stream into the union-find in a fixed order.
	Workers int
}

func (p Params) rows(def int) int {
	r := p.RowsPerBand
	if r <= 0 {
		r = def
	}
	if r > p.Tables {
		r = p.Tables
	}
	if r < 1 {
		r = 1
	}
	return r
}

// Clustering is the result of an LSH run: a dense cluster ID per input
// row.
type Clustering struct {
	// Assign maps row index to cluster ID in [0, NumClusters).
	Assign []int
	// NumClusters is the number of distinct clusters.
	NumClusters int
}

// ClusterEuclidean buckets vectors with p-stable projections:
// h_i(v) = ⌊(a_i·v + u_i)/b⌋ with a_i ~ N(0,1)^D and u_i ~ U[0,b).
// Rows whose per-band keys coincide are unioned. Signature
// computation is sharded by row across p.Workers goroutines; the
// result is identical for every worker count.
func ClusterEuclidean(vecs [][]float64, p Params) *Clustering {
	return ClusterEuclideanSparse(vecs, 0, nil, p)
}

// ClusterEuclideanSparse is ClusterEuclidean for hybrid rows whose
// tail past binStart is binary with the set positions listed,
// ascending, in bits (§4.1's property-presence block). The projection
// accumulates the dense prefix normally and then adds only the
// projection entries at set bits, skipping the zero tail; because the
// skipped terms are exact zeros and the set bits contribute a[j]·1 in
// the same ascending order, every hash value — and therefore the
// clustering — is bit-identical to the dense path. bits == nil falls
// back to fully dense rows.
func ClusterEuclideanSparse(vecs [][]float64, binStart int, bits [][]int32, p Params) *Clustering {
	n := len(vecs)
	if n == 0 {
		return &Clustering{Assign: []int{}, NumClusters: 0}
	}
	if p.Tables < 1 {
		p.Tables = 1
	}
	if p.BucketLength <= 0 {
		p.BucketLength = 1
	}
	dim := len(vecs[0])
	rows := p.rows(p.Tables) // default: one band of T hashes

	rng := rand.New(rand.NewSource(p.Seed))
	proj := make([]float64, p.Tables*dim)
	for i := range proj {
		proj[i] = rng.NormFloat64()
	}
	offsets := make([]float64, p.Tables)
	for i := range offsets {
		offsets[i] = rng.Float64() * p.BucketLength
	}

	// Per-row band keys, disjoint row ranges per worker. Only the
	// mixed band keys are kept (O(n·bands)); the raw T-hash signature
	// lives in a per-worker scratch buffer.
	bands := (p.Tables + rows - 1) / rows
	keys := make([]uint64, n*bands)
	parallel.For(n, p.Workers, func(lo, hi int) {
		sig := make([]int64, p.Tables)
		for row := lo; row < hi; row++ {
			v := vecs[row]
			dense := v
			if bits != nil {
				dense = v[:binStart]
			}
			for t := 0; t < p.Tables; t++ {
				a := proj[t*dim : (t+1)*dim]
				var dot float64
				for d, x := range dense {
					dot += a[d] * x
				}
				if bits != nil {
					for _, j := range bits[row] {
						dot += a[binStart+int(j)]
					}
				}
				sig[t] = int64(math.Floor((dot + offsets[t]) / p.BucketLength))
			}
			mixBandKeys(keys[row*bands:(row+1)*bands], sig, rows)
		}
	})
	return bandedComponents(n, bands, keys)
}

// ClusterMinHash buckets token sets with MinHash signatures of length
// T, banded r rows at a time. Two sets land in the same band bucket
// with probability J(A,B)^r; bands are OR-combined. Signature
// computation is sharded by row across p.Workers goroutines; the
// result is identical for every worker count.
func ClusterMinHash(sets [][]string, p Params) *Clustering {
	n := len(sets)
	if n == 0 {
		return &Clustering{Assign: []int{}, NumClusters: 0}
	}
	if p.Tables < 1 {
		p.Tables = 1
	}
	rows := p.rows(4)

	rng := rand.New(rand.NewSource(p.Seed))
	// One (mult, add) pair of odd multipliers per hash function
	// implements a universal family over token hashes.
	mult := make([]uint64, p.Tables)
	add := make([]uint64, p.Tables)
	for i := range mult {
		mult[i] = rng.Uint64() | 1
		add[i] = rng.Uint64()
	}

	// Pre-hash every distinct token once, serially, so the worker
	// shards below only read the memo table.
	tokenHash := map[string]uint64{}
	hashed := make([][]uint64, n)
	for i, set := range sets {
		hs := make([]uint64, len(set))
		for j, tok := range set {
			h, ok := tokenHash[tok]
			if !ok {
				h = fnv64(tok)
				tokenHash[tok] = h
			}
			hs[j] = h
		}
		hashed[i] = hs
	}

	// Per-row band keys, disjoint row ranges per worker.
	bands := (p.Tables + rows - 1) / rows
	keys := make([]uint64, n*bands)
	parallel.For(n, p.Workers, func(lo, hi int) {
		sig := make([]int64, p.Tables)
		for row := lo; row < hi; row++ {
			for t := 0; t < p.Tables; t++ {
				minv := uint64(math.MaxUint64)
				for _, h := range hashed[row] {
					v := h*mult[t] + add[t]
					if v < minv {
						minv = v
					}
				}
				sig[t] = int64(minv)
			}
			mixBandKeys(keys[row*bands:(row+1)*bands], sig, rows)
		}
	})
	return bandedComponents(n, bands, keys)
}

// mixBandKeys condenses a row's T-hash signature into one bucket key
// per band, so only O(bands) values per row outlive the signature
// scratch buffer.
func mixBandKeys(keys []uint64, sig []int64, rows int) {
	for band := range keys {
		lo := band * rows
		hi := lo + rows
		if hi > len(sig) {
			hi = len(sig)
		}
		keys[band] = mixInts(uint64(band)+0x9e3779b97f4a7c15, sig[lo:hi])
	}
}

// bandedComponents OR-combines per-row band keys into
// connected-component clusters. The expensive work — hashing rows
// into band keys — was already sharded across workers by the
// callers; the remaining per-band bucket scan is a cheap map insert
// per (row, band), so it streams sequentially into the union-find
// with one reusable bucket map (O(n) extra memory) in fixed
// band-then-row order. components() labels clusters by first row
// occurrence, so the assignment is deterministic for every worker
// count.
func bandedComponents(n, bands int, keys []uint64) *Clustering {
	uf := newUnionFind(n)
	buckets := make(map[uint64]int, n)
	for band := 0; band < bands; band++ {
		clear(buckets)
		for row := 0; row < n; row++ {
			key := keys[row*bands+band]
			if first, ok := buckets[key]; ok {
				uf.union(first, row)
			} else {
				buckets[key] = row
			}
		}
	}
	assign, k := uf.components()
	return &Clustering{Assign: assign, NumClusters: k}
}

// mixInts hashes a slice of int64 hash values into one 64-bit bucket
// key, consuming each value in one splitmix64-style round — 8 bytes
// at a time instead of the byte-at-a-time FNV inner loop this
// replaced. Keys are only compared for equality, so any injective-in-
// practice mixer yields the same clustering; TestMixIntsClusteringEquivalence
// pins that against the FNV reference on fixed seeds.
func mixInts(seed uint64, vals []int64) uint64 {
	h := seed ^ 14695981039346656037
	for _, v := range vals {
		h ^= uint64(v)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

func fnv64(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
