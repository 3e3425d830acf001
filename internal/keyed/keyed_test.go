package keyed

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// TestDiffApplyRoundTrip: ApplyMap(base, DiffMap(base, next)) is next,
// for maps drawn from a small key space so that every case — put,
// overwrite, unchanged, delete, empty on either side — is common.
func TestDiffApplyRoundTrip(t *testing.T) {
	gen := func(rng *rand.Rand) map[int]string {
		m := map[int]string{}
		for _, k := range rng.Perm(8)[:rng.Intn(9)] {
			m[k] = []string{"a", "b"}[rng.Intn(2)]
		}
		return m
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base, next := gen(rng), gen(rng)
		want := maps.Clone(base)
		puts, dels := DiffMap(base, next, cmp.Compare)
		if !maps.Equal(base, want) {
			t.Fatalf("seed %d: DiffMap modified base", seed)
		}
		if len(puts) == 0 && puts != nil {
			t.Fatalf("seed %d: no puts must be nil, got %v", seed, puts)
		}
		if !slices.IsSorted(dels) {
			t.Fatalf("seed %d: dels not in cmp order: %v", seed, dels)
		}
		got := ApplyMap(base, puts, dels)
		if !maps.Equal(got, next) {
			t.Fatalf("seed %d: got %v, want %v", seed, got, next)
		}
		if len(next) == 0 && got != nil {
			t.Fatalf("seed %d: an empty result must be nil", seed)
		}
	}
}

// TestApplyMapOnNil: a nil map takes puts, and dels of absent keys are
// no-ops — a delta applies to an image whose collection is absent.
func TestApplyMapOnNil(t *testing.T) {
	got := ApplyMap(nil, map[string]int{"a": 1}, []string{"zz"})
	if !maps.Equal(got, map[string]int{"a": 1}) {
		t.Fatalf("got %v", got)
	}
	if got := ApplyMap[string, int](nil, nil, []string{"a"}); got != nil {
		t.Fatalf("nothing onto nil must stay nil, got %v", got)
	}
}
