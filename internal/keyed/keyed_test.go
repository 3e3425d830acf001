package keyed

// keyed_test.go holds the put/tombstone rule the durability plane used
// when images and runs held maps, DiffMap and ApplyMap, as the oracle
// Column's Diff and Apply are held to here and in FuzzColumnMatchesMap.

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// DiffMap returns what turns base into next: the entries next holds
// that base lacks or holds with another value (nil when none) and the
// keys only base holds, in cmp order — the order a run lists them in.
func DiffMap[K, V comparable](base, next map[K]V, cmp func(a, b K) int) (puts map[K]V, dels []K) {
	for k, v := range next {
		if bv, ok := base[k]; !ok || bv != v {
			if puts == nil {
				puts = map[K]V{}
			}
			puts[k] = v
		}
	}
	for k := range base {
		if _, ok := next[k]; !ok {
			dels = append(dels, k)
		}
	}
	slices.SortFunc(dels, cmp)
	return puts, dels
}

// ApplyMap folds puts, then dels, onto m in place and returns it. An
// empty result is nil: the canonical form, which marshals as absent.
func ApplyMap[K comparable, V any](m, puts map[K]V, dels []K) map[K]V {
	if m == nil && len(puts) > 0 {
		m = make(map[K]V, len(puts))
	}
	for k, v := range puts {
		m[k] = v
	}
	for _, k := range dels {
		delete(m, k)
	}
	if len(m) == 0 {
		return nil
	}
	return m
}

// columnOf builds the column holding m's entries.
func columnOf(m map[id]int32) Column[id, int32] {
	keys := slices.Sorted(maps.Keys(m))
	vals := make([]int32, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	return FromRun(keys, vals)
}

// TestDiffApplyRoundTrip: Apply(Diff(base, next)) onto base is next,
// and the diff is the oracle's, for columns drawn from a small key
// space so that every case — put, overwrite, unchanged, delete, empty on
// either side — is common. Neither input changes.
func TestDiffApplyRoundTrip(t *testing.T) {
	gen := func(rng *rand.Rand) map[id]int32 {
		m := map[id]int32{}
		for _, k := range rng.Perm(8)[:rng.Intn(9)] {
			m[id(k)] = int32(rng.Intn(2))
		}
		return m
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		baseMap, nextMap := gen(rng), gen(rng)
		base, next := columnOf(baseMap), columnOf(nextMap)
		puts, dels := Diff(base, next)
		wantPuts, wantDels := DiffMap(baseMap, nextMap, cmp.Compare)
		if msg := columnDiffers(puts, wantPuts); msg != "" {
			t.Fatalf("seed %d: puts: %s", seed, msg)
		}
		if !slices.Equal(dels, wantDels) {
			t.Fatalf("seed %d: dels %v, want %v", seed, dels, wantDels)
		}
		got := base.Clone()
		got.Apply(puts, dels)
		if msg := columnDiffers(got, nextMap); msg != "" {
			t.Fatalf("seed %d: applied: %s", seed, msg)
		}
		if columnDiffers(base, baseMap) != "" || columnDiffers(next, nextMap) != "" {
			t.Fatalf("seed %d: diffing or applying modified an input", seed)
		}
	}
}

// TestApplyOnEmpty: an empty column takes puts, and dels of absent keys
// are no-ops — a delta applies to an image whose collection is absent.
func TestApplyOnEmpty(t *testing.T) {
	var got Column[id, int32]
	got.Apply(columnOf(map[id]int32{1: 1}), []id{99})
	if msg := columnDiffers(got, map[id]int32{1: 1}); msg != "" {
		t.Fatal(msg)
	}
	var empty Column[id, int32]
	empty.Apply(Column[id, int32]{}, []id{1})
	if empty.Len() != 0 {
		t.Fatalf("nothing onto an empty column left %d entries", empty.Len())
	}
}
