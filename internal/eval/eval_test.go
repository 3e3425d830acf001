package eval

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/pghive/pghive/internal/pg"
)

func TestMajorityF1Perfect(t *testing.T) {
	pred := map[pg.ID]int{}
	truth := map[pg.ID]string{}
	for i := 0; i < 100; i++ {
		pred[pg.ID(i)] = i % 4
		truth[pg.ID(i)] = []string{"A", "B", "C", "D"}[i%4]
	}
	if f1 := MajorityF1(pred, truth); f1 != 1 {
		t.Fatalf("perfect clustering F1 = %v, want 1", f1)
	}
}

func TestMajorityF1FragmentationIsFree(t *testing.T) {
	// Splitting one type across many pure clusters must not hurt F1*:
	// each fragment's majority is still the right type.
	pred := map[pg.ID]int{}
	truth := map[pg.ID]string{}
	for i := 0; i < 60; i++ {
		pred[pg.ID(i)] = i % 10 // 10 fragments
		truth[pg.ID(i)] = "A"
	}
	for i := 60; i < 100; i++ {
		pred[pg.ID(i)] = 10
		truth[pg.ID(i)] = "B"
	}
	if f1 := MajorityF1(pred, truth); f1 != 1 {
		t.Fatalf("pure fragmentation F1 = %v, want 1", f1)
	}
}

func TestMajorityF1MixingHurts(t *testing.T) {
	// One cluster swallowing two types: the minority type has recall
	// 0, so macro-F1 drops to 0.5 · F1(A).
	pred := map[pg.ID]int{}
	truth := map[pg.ID]string{}
	for i := 0; i < 70; i++ {
		pred[pg.ID(i)] = 0
		truth[pg.ID(i)] = "A"
	}
	for i := 70; i < 100; i++ {
		pred[pg.ID(i)] = 0
		truth[pg.ID(i)] = "B"
	}
	f1 := MajorityF1(pred, truth)
	// A: precision 0.7, recall 1 → F1 ≈ 0.8235; B: 0 → macro ≈ 0.412.
	if math.Abs(f1-0.4118) > 0.01 {
		t.Fatalf("mixed cluster F1 = %v, want ≈ 0.412", f1)
	}
}

func TestMajorityF1Empty(t *testing.T) {
	if MajorityF1(nil, nil) != 0 {
		t.Error("empty inputs must score 0")
	}
}

// MajorityF1 is a sum of floats; summed in map order its low bits
// changed from call to call, and callers comparing scores exactly (the
// benchmark's pinned outcomes) had to round them first.
func TestMajorityF1BitDeterministic(t *testing.T) {
	pred := map[pg.ID]int{}
	truth := map[pg.ID]string{}
	for i := 0; i < 4000; i++ {
		pred[pg.ID(i)] = (i*7 + i/13) % 55
		truth[pg.ID(i)] = string(rune('A'+i%23)) + string(rune('a'+i%3))
	}
	want := math.Float64bits(MajorityF1(pred, truth))
	for i := 0; i < 200; i++ {
		if got := math.Float64bits(MajorityF1(pred, truth)); got != want {
			t.Fatalf("call %d returned bits %#x, the first call %#x", i, got, want)
		}
	}
}

// Property: F1* is always within [0,1] and equals 1 whenever clusters
// are singletons (every singleton is trivially pure).
func TestMajorityF1Property(t *testing.T) {
	f := func(assign []uint8) bool {
		if len(assign) == 0 {
			return true
		}
		pred := map[pg.ID]int{}
		truth := map[pg.ID]string{}
		types := []string{"A", "B", "C"}
		for i, a := range assign {
			pred[pg.ID(i)] = int(a % 7)
			truth[pg.ID(i)] = types[int(a)%len(types)]
		}
		f1 := MajorityF1(pred, truth)
		if f1 < 0 || f1 > 1 {
			return false
		}
		// Singleton clustering: always 1.
		for i := range assign {
			pred[pg.ID(i)] = i
		}
		return MajorityF1(pred, truth) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAverageRanks(t *testing.T) {
	scores := [][]float64{
		{0.9, 0.8, 0.7}, // ranks 1,2,3
		{0.9, 0.8, 0.7}, // ranks 1,2,3
	}
	ranks := AverageRanks(scores)
	want := []float64{1, 2, 3}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
}

func TestAverageRanksTies(t *testing.T) {
	scores := [][]float64{{0.5, 0.5, 0.1}}
	ranks := AverageRanks(scores)
	if ranks[0] != 1.5 || ranks[1] != 1.5 || ranks[2] != 3 {
		t.Fatalf("tied ranks = %v, want [1.5 1.5 3]", ranks)
	}
}

func TestAverageRanksEmpty(t *testing.T) {
	if AverageRanks(nil) != nil {
		t.Error("no cases must give nil ranks")
	}
}

func TestNemenyiCD(t *testing.T) {
	// Demšar's example shape: CD grows with k, shrinks with n.
	cd4over40 := NemenyiCD(4, 40)
	want := 2.569 * math.Sqrt(float64(4*5)/(6*40.0))
	if math.Abs(cd4over40-want) > 1e-9 {
		t.Fatalf("CD(4,40) = %v, want %v", cd4over40, want)
	}
	if NemenyiCD(4, 10) <= cd4over40 {
		t.Error("CD must shrink with more cases")
	}
	if NemenyiCD(5, 40) <= cd4over40 {
		t.Error("CD must grow with more methods")
	}
	if !math.IsNaN(NemenyiCD(99, 40)) {
		t.Error("unknown k must return NaN")
	}
	if !math.IsNaN(NemenyiCD(4, 0)) {
		t.Error("zero cases must return NaN")
	}
}

func TestBins(t *testing.T) {
	cases := map[float64]ErrorBin{
		0:    Bin005,
		0.04: Bin005,
		0.05: Bin010,
		0.09: Bin010,
		0.10: Bin020,
		0.19: Bin020,
		0.20: BinBig,
		0.9:  BinBig,
	}
	for e, want := range cases {
		if got := BinOf(e); got != want {
			t.Errorf("BinOf(%v) = %v, want %v", e, got, want)
		}
	}
	dist := BinDistribution([]float64{0, 0.01, 0.06, 0.5})
	if dist[Bin005] != 0.5 || dist[Bin010] != 0.25 || dist[BinBig] != 0.25 {
		t.Errorf("distribution = %v", dist)
	}
	var zero [4]float64
	if BinDistribution(nil) != zero {
		t.Error("empty distribution must be all zeros")
	}
}

func TestBinStrings(t *testing.T) {
	wants := map[ErrorBin]string{
		Bin005: "0-0.05", Bin010: "0.05-0.10", Bin020: "0.10-0.20", BinBig: ">=0.20",
	}
	for b, w := range wants {
		if b.String() != w {
			t.Errorf("%d.String() = %q, want %q", b, b.String(), w)
		}
	}
}
