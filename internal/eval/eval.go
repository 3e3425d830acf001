// Package eval implements the evaluation machinery of §5: the
// majority-based F1* score for discovered clusters, Friedman average
// ranks with the Nemenyi post-hoc test (Fig. 3), and the
// sampling-error binning of Fig. 8.
package eval

import (
	"math"
	"sort"

	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

// MajorityF1 computes the majority-based macro F1* of §5: every
// cluster is labeled with the most frequent ground-truth type among
// its members; per ground-truth type, precision and recall are
// computed over the induced prediction (an element is predicted as
// type t iff its cluster's majority is t), and the per-type F1 values
// are macro-averaged.
//
// pred maps element ID to an opaque cluster identifier; truth maps
// element ID to its ground-truth type name. Elements missing from
// either map are ignored.
func MajorityF1(pred map[pg.ID]int, truth map[pg.ID]string) float64 {
	if len(pred) == 0 || len(truth) == 0 {
		return 0
	}
	// Majority type per cluster.
	clusterCounts := map[int]map[string]int{}
	typeTotal := map[string]int{}
	for id, cl := range pred {
		ty, ok := truth[id]
		if !ok {
			continue
		}
		mc := clusterCounts[cl]
		if mc == nil {
			mc = map[string]int{}
			clusterCounts[cl] = mc
		}
		mc[ty]++
		typeTotal[ty]++
	}
	majority := map[int]string{}
	for cl, counts := range clusterCounts {
		best, bestN := "", -1
		// Deterministic tie-break: lexicographically smallest type.
		keys := make([]string, 0, len(counts))
		for ty := range counts {
			keys = append(keys, ty)
		}
		sort.Strings(keys)
		for _, ty := range keys {
			if counts[ty] > bestN {
				best, bestN = ty, counts[ty]
			}
		}
		majority[cl] = best
	}
	// Per-type TP / predicted / actual tallies.
	tp := map[string]int{}
	predicted := map[string]int{}
	for id, cl := range pred {
		ty, ok := truth[id]
		if !ok {
			continue
		}
		m := majority[cl]
		predicted[m]++
		if m == ty {
			tp[ty]++
		}
	}
	// Macro-average F1 over ground-truth types, summed in sorted name
	// order: float addition is not associative, and map order would
	// make the low bits differ between calls on the same input.
	types := make([]string, 0, len(typeTotal))
	for ty := range typeTotal {
		types = append(types, ty)
	}
	sort.Strings(types)
	var sum float64
	n := 0
	for _, ty := range types {
		actual := typeTotal[ty]
		p := 0.0
		if predicted[ty] > 0 {
			p = float64(tp[ty]) / float64(predicted[ty])
		}
		r := float64(tp[ty]) / float64(actual)
		f1 := 0.0
		if p+r > 0 {
			f1 = 2 * p * r / (p + r)
		}
		sum += f1
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// NodeAssignments converts a node type assignment into opaque cluster
// IDs for MajorityF1.
func NodeAssignments(a map[pg.ID]*schema.NodeType) map[pg.ID]int {
	out := make(map[pg.ID]int, len(a))
	for id, t := range a {
		if t != nil {
			out[id] = t.ID
		}
	}
	return out
}

// EdgeAssignments converts an edge type assignment into opaque cluster
// IDs for MajorityF1.
func EdgeAssignments(a map[pg.ID]*schema.EdgeType) map[pg.ID]int {
	out := make(map[pg.ID]int, len(a))
	for id, t := range a {
		if t != nil {
			out[id] = t.ID
		}
	}
	return out
}

// AverageRanks computes per-method Friedman average ranks over a set
// of cases. scores[c][m] is method m's score on case c; higher scores
// are better (rank 1 = best). Ties receive the average of the tied
// rank positions, the standard Friedman treatment.
func AverageRanks(scores [][]float64) []float64 {
	if len(scores) == 0 {
		return nil
	}
	k := len(scores[0])
	sums := make([]float64, k)
	for _, row := range scores {
		idx := make([]int, k)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return row[idx[a]] > row[idx[b]] })
		// Assign ranks with tie averaging.
		pos := 0
		for pos < k {
			end := pos
			for end+1 < k && row[idx[end+1]] == row[idx[pos]] {
				end++
			}
			avg := float64(pos+end)/2 + 1
			for i := pos; i <= end; i++ {
				sums[idx[i]] += avg
			}
			pos = end + 1
		}
	}
	for i := range sums {
		sums[i] /= float64(len(scores))
	}
	return sums
}

// nemenyiQ05 holds the α = 0.05 critical values of the studentized
// range statistic divided by √2, indexed by the number of compared
// methods k (Demšar 2006, Table 5).
var nemenyiQ05 = map[int]float64{
	2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850,
	7: 2.949, 8: 3.031, 9: 3.102, 10: 3.164,
}

// NemenyiCD returns the critical difference of average ranks at
// α = 0.05 for k methods compared over n cases: two methods differ
// significantly when their average ranks differ by more than CD.
func NemenyiCD(k, n int) float64 {
	q, ok := nemenyiQ05[k]
	if !ok || n == 0 {
		return math.NaN()
	}
	return q * math.Sqrt(float64(k*(k+1))/(6*float64(n)))
}

// ErrorBin classifies a sampling error into the four Fig. 8 bins.
type ErrorBin uint8

const (
	// Bin005 is the 0–0.05 bin.
	Bin005 ErrorBin = iota
	// Bin010 is the 0.05–0.10 bin.
	Bin010
	// Bin020 is the 0.10–0.20 bin.
	Bin020
	// BinBig is the ≥ 0.20 bin.
	BinBig
)

// String renders the bin's Fig. 8 caption.
func (b ErrorBin) String() string {
	switch b {
	case Bin005:
		return "0-0.05"
	case Bin010:
		return "0.05-0.10"
	case Bin020:
		return "0.10-0.20"
	default:
		return ">=0.20"
	}
}

// BinOf classifies one error value.
func BinOf(err float64) ErrorBin {
	switch {
	case err < 0.05:
		return Bin005
	case err < 0.10:
		return Bin010
	case err < 0.20:
		return Bin020
	default:
		return BinBig
	}
}

// BinDistribution computes the normalized share of properties per bin.
func BinDistribution(errs []float64) [4]float64 {
	var out [4]float64
	if len(errs) == 0 {
		return out
	}
	for _, e := range errs {
		out[BinOf(e)]++
	}
	for i := range out {
		out[i] /= float64(len(errs))
	}
	return out
}
