// Package keyed is the durability plane's one put/tombstone rule for
// map-shaped state: a delta run carries the entries to put and the
// keys to delete. core diffs and folds the element assignments and the
// per-node degree tallies with it.
//
// It also owns how element-keyed state is written (wire.go): an ID
// list as its first ID and the gaps (IDs), a map onto small ints as one
// such list per value (Map), written through one Grouper whose ID
// scratch every collection reuses. Base images and runs of format
// generation 3 spell every assignment, degree tally and tombstone list
// that way.
//
// In memory, element-keyed state is a Column (column.go): a persistent,
// ID-sorted column that the pipeline's assignments and the schema's
// degree tallies are built on.
package keyed

import "slices"

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
