package keyed

// column.go holds Column, the in-memory form of element-keyed state: an
// ID → small int map kept as sorted leaves of at most leafCap entries,
// each leaf's keys and values in two arrays (struct of arrays), under
// one root. The pipeline's assignments and degree tallies are columns,
// and so are the images and runs that persist them: Diff and Apply are
// their put/tombstone rule.
//
// It is persistent. Clone shares the root; the first write after a
// share copies the root (one small header per leaf) and then each leaf
// it writes, once, so a published copy never changes and a writer pays
// for the leaves it touches. A leaf is written in place only through
// the slab its own root made for it; a bulk build's leaves share two
// slabs (all keys, all values) that no write changes.
//
// Laws: a bulk build of n sorted entries costs the two slabs, one
// header per leaf and a constant number of allocations, ≤ 13 B per
// entry for 8-byte keys and 4-byte values; Clone is O(1); Get is
// O(log n); a write after a share copies O(n/leafCap) headers plus each
// leaf it touches once.

import (
	"iter"
	"slices"
	"sort"
	"sync/atomic"
)

// leafCap bounds a leaf: the most entries one write copies for one key
// it touches.
const leafCap = 64

// Column maps IDs to small ints: type IDs, counts. The zero value is
// empty. A Column is
// written by one goroutine at a time; Clone may run on any number of
// goroutines at once, and a clone and its original then change
// independently.
type Column[K ~int64, V ~int32] struct {
	r *root[K, V]
}

type root[K ~int64, V ~int32] struct {
	// shared is set by Clone, possibly on several goroutines holding
	// one published snapshot; a shared root is never written again.
	shared atomic.Bool
	n      int
	leaves []leaf[K, V] // in key order, none empty
}

// slab holds the entries of one leaf, or of every leaf of a bulk build.
type slab[K ~int64, V ~int32] struct {
	keys []K
	vals []V
}

// leaf is the entries slab s holds at [lo, hi). lo is -1 when the root
// holding the leaf made s for it alone: then the leaf spans s, and that
// root writes s in place. Every other slab is only read, and a root
// that copies another's headers clears the mark.
type leaf[K ~int64, V ~int32] struct {
	s      *slab[K, V]
	lo, hi int32
}

func (l leaf[K, V]) keys() []K { return l.s.keys[max(l.lo, 0):l.hi] }
func (l leaf[K, V]) vals() []V { return l.s.vals[max(l.lo, 0):l.hi] }

// FromRun builds a column from a run of entries with distinct keys,
// taking over both slices. It sorts the run by key first unless the
// keys already ascend, and then packs it into full leaves over the two
// slices in a constant number of allocations.
func FromRun[K ~int64, V ~int32](keys []K, vals []V) Column[K, V] {
	c, _, ok := FromRuns(keys, vals, nil)
	if !ok {
		panic("keyed: a run holds a key twice")
	}
	return c
}

// FromRuns is FromRun for a run that may hold a key twice, as a decoded
// one may: it reports such a key and builds nothing. When ends is
// given, the run is consecutive runs whose keys each ascend, the i-th
// ending at ends[i], and they are merged pairwise through one scratch
// copy of the run rather than sorted: O(n log len(ends)).
func FromRuns[K ~int64, V ~int32](keys []K, vals []V, ends []int) (c Column[K, V], dup K, ok bool) {
	if len(keys) != len(vals) {
		panic("keyed: a run's keys and values differ in length")
	}
	if len(ends) > 1 {
		keys, vals = mergeRuns(keys, vals, ends)
	}
	if dup, ok = sortRun(keys, vals); !ok {
		return c, dup, false
	}
	return pack(keys, vals), dup, true
}

// mergeRuns merges the ascending runs of keys and vals that end at ends
// pairwise, a round at a time, between the run and one scratch copy,
// and returns whichever holds the result.
func mergeRuns[K ~int64, V ~int32](keys []K, vals []V, ends []int) ([]K, []V) {
	ks, vs := make([]K, len(keys)), make([]V, len(vals))
	ends = slices.Clone(ends)
	for len(ends) > 1 {
		next, lo := ends[:0], 0
		for i := 0; i < len(ends); i += 2 {
			mid, hi := ends[i], ends[min(i+1, len(ends)-1)]
			a, b, out := lo, mid, lo
			for ; a < mid && b < hi; out++ {
				if keys[b] < keys[a] {
					ks[out], vs[out] = keys[b], vals[b]
					b++
				} else {
					ks[out], vs[out] = keys[a], vals[a]
					a++
				}
			}
			copy(vs[out:], vals[a:mid])
			out += copy(ks[out:], keys[a:mid])
			copy(ks[out:hi], keys[b:hi])
			copy(vs[out:hi], vals[b:hi])
			next, lo = append(next, hi), hi
		}
		keys, ks, vals, vs, ends = ks, keys, vs, vals, next
	}
	return keys, vals
}

// sortRun sorts a run by key unless its keys already ascend, and then
// reports a key it holds twice, if any.
func sortRun[K ~int64, V ~int32](keys []K, vals []V) (dup K, ok bool) {
	if !slices.IsSorted(keys) {
		sort.Sort(run[K, V]{keys, vals})
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return keys[i], false
		}
	}
	return dup, true
}

// Build is FromRun over a run of n entries, entry i being (key(i),
// val(i)).
func Build[K ~int64, V ~int32](n int, key func(i int) K, val func(i int) V) Column[K, V] {
	keys, vals := make([]K, n), make([]V, n)
	for i := range n {
		keys[i], vals[i] = key(i), val(i)
	}
	return FromRun(keys, vals)
}

// run sorts a run's keys and values together, in place.
type run[K ~int64, V ~int32] struct {
	keys []K
	vals []V
}

func (r run[K, V]) Len() int           { return len(r.keys) }
func (r run[K, V]) Less(i, j int) bool { return r.keys[i] < r.keys[j] }
func (r run[K, V]) Swap(i, j int) {
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

// pack cuts sorted, distinct entries into full leaves over one slab.
func pack[K ~int64, V ~int32](keys []K, vals []V) Column[K, V] {
	if len(keys) == 0 {
		return Column[K, V]{}
	}
	r := &root[K, V]{n: len(keys)}
	s := &slab[K, V]{keys: keys, vals: vals}
	r.leaves = make([]leaf[K, V], (len(keys)+leafCap-1)/leafCap)
	for i := range r.leaves {
		r.leaves[i] = leaf[K, V]{s, int32(i * leafCap), int32(min((i+1)*leafCap, len(keys)))}
	}
	return Column[K, V]{r}
}

// Len returns the number of entries.
func (c Column[K, V]) Len() int {
	if c.r == nil {
		return 0
	}
	return c.r.n
}

// Get returns the key's value and whether the column holds it.
func (c Column[K, V]) Get(k K) (V, bool) {
	if c.r == nil || len(c.r.leaves) == 0 {
		var zero V
		return zero, false
	}
	l := c.r.leaves[c.r.leafFor(k)]
	j, ok := slices.BinarySearch(l.keys(), k)
	if !ok {
		var zero V
		return zero, false
	}
	return l.vals()[j], true
}

// All yields every entry in ascending key order.
func (c Column[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		if c.r == nil {
			return
		}
		for _, l := range c.r.leaves {
			vals := l.vals()
			for j, k := range l.keys() {
				if !yield(k, vals[j]) {
					return
				}
			}
		}
	}
}

// Clone returns a column that shares every leaf with c. O(1).
func (c Column[K, V]) Clone() Column[K, V] {
	if c.r != nil {
		c.r.shared.Store(true)
	}
	return c
}

// Set gives the key the value, adding it when the column lacks it.
func (c *Column[K, V]) Set(k K, v V) {
	r := c.own()
	if len(r.leaves) == 0 {
		r.leaves = []leaf[K, V]{fresh([]K{k}, []V{v})}
		r.n = 1
		return
	}
	i := r.leafFor(k)
	if l := r.leaves[i]; i == len(r.leaves)-1 && int(l.hi-max(l.lo, 0)) >= leafCap && k > l.keys()[l.hi-max(l.lo, 0)-1] {
		// A key past a full last leaf starts a leaf of its own, so a
		// column set in key order fills its leaves instead of halving
		// them.
		r.leaves = append(r.leaves, fresh([]K{k}, []V{v}))
		r.n++
		return
	}
	s := r.ownLeaf(i)
	j, ok := slices.BinarySearch(s.keys, k)
	if ok {
		s.vals[j] = v
		return
	}
	s.keys, s.vals = slices.Insert(s.keys, j, k), slices.Insert(s.vals, j, v)
	r.leaves[i].hi++
	r.n++
	if h := len(s.keys) / 2; len(s.keys) > leafCap {
		upper := fresh(slices.Clone(s.keys[h:]), slices.Clone(s.vals[h:]))
		s.keys, s.vals = s.keys[:h], s.vals[:h]
		r.leaves[i].hi = int32(h)
		r.leaves = slices.Insert(r.leaves, i+1, upper)
	}
}

// Delete removes the key and reports whether the column held it. A
// column that lacks the key is left as it is.
func (c *Column[K, V]) Delete(k K) bool {
	if _, ok := c.Get(k); !ok {
		return false
	}
	r := c.own()
	i := r.leafFor(k)
	s := r.ownLeaf(i)
	j, _ := slices.BinarySearch(s.keys, k)
	s.keys, s.vals = slices.Delete(s.keys, j, j+1), slices.Delete(s.vals, j, j+1)
	r.leaves[i].hi--
	r.n--
	if len(s.keys) == 0 {
		r.leaves = slices.Delete(r.leaves, i, i+1)
	}
	return true
}

// Merge folds o's entries into c: a key c lacks gets combine(zero, v),
// a key it holds combine(old, v). An empty c takes o's leaves as they
// are, so combine(zero, v) must be v. Entry by entry, each entry may
// copy a leaf of up to leafCap entries, but the leaves o does not touch
// stay shared; a merge of the two, both in key order, into fresh slabs
// writes all of c and o once. So o goes in entry by entry when that
// costs at most the merge (o.Len()*leafCap <= c.Len()), and always when
// it fits in one leaf, so that a small write's cost does not grow with
// c. Discovery's merges of large runs take the merge.
func (c *Column[K, V]) Merge(o Column[K, V], combine func(old, v V) V) {
	switch {
	case o.Len() == 0:
	case c.Len() == 0:
		*c = o.Clone()
	default:
		if o.r == c.r {
			o = o.Clone() // c's writes must not reach the entries being read
		}
		c.merge(o.cursor(), o.Len(), combine)
	}
}

// MergeRun is Merge of a run of entries with distinct keys in
// ascending order, which it only reads: c keeps no part of the run.
func (c *Column[K, V]) MergeRun(keys []K, vals []V, combine func(old, v V) V) {
	if len(keys) != len(vals) {
		panic("keyed: a run's keys and values differ in length")
	}
	c.merge(cursor[K, V]{keys: keys, vals: vals}, len(keys), combine)
}

// merge is Merge's fold of the n entries o walks, by Merge's rule.
func (c *Column[K, V]) merge(o cursor[K, V], n int, combine func(old, v V) V) {
	switch {
	case n == 0:
	case n <= leafCap || n*leafCap <= c.Len():
		for ; o.more(); o.next() {
			old, _ := c.Get(o.keys[0])
			c.Set(o.keys[0], combine(old, o.vals[0]))
		}
	default:
		keys := make([]K, 0, c.Len()+n)
		vals := make([]V, 0, c.Len()+n)
		var zero V
		a, b := c.cursor(), o
		for a.more() || b.more() {
			switch {
			case !b.more() || a.more() && a.keys[0] < b.keys[0]:
				keys, vals = append(keys, a.keys[0]), append(vals, a.vals[0])
				a.next()
			case !a.more() || b.keys[0] < a.keys[0]:
				keys, vals = append(keys, b.keys[0]), append(vals, combine(zero, b.vals[0]))
				b.next()
			default:
				keys, vals = append(keys, a.keys[0]), append(vals, combine(a.vals[0], b.vals[0]))
				a.next()
				b.next()
			}
		}
		*c = pack(keys, vals)
	}
}

// Diff returns what turns base into next: the entries next holds that
// base lacks or holds with another value, and the keys only base holds,
// both in ascending key order — the order a run lists them in. It walks
// the two columns side by side and skips a leaf they share whole, so a
// column diffed against an earlier clone of itself costs the leaves
// written since for what it builds.
func Diff[K ~int64, V ~int32](base, next Column[K, V]) (puts Column[K, V], dels IDs[K]) {
	return DiffFunc(base, next, func(a, b V) bool { return a == b })
}

// DiffFunc is Diff with equal deciding whether base's value a and
// next's value b for one key are the same, for columns whose values
// name entries of two different tables. A leaf the two share is
// skipped whole, so equal(v, v) must hold for every value a shared
// leaf holds.
func DiffFunc[K ~int64, V ~int32](base, next Column[K, V], equal func(a, b V) bool) (puts Column[K, V], dels IDs[K]) {
	var keys []K
	var vals []V
	a, b := base.cursor(), next.cursor()
	for a.more() || b.more() {
		switch {
		case !b.more() || a.more() && a.keys[0] < b.keys[0]:
			dels = append(dels, a.keys[0])
			a.next()
		case !a.more() || b.keys[0] < a.keys[0]:
			keys, vals = append(keys, b.keys[0]), append(vals, b.vals[0])
			b.next()
		case &a.keys[0] == &b.keys[0] && len(a.keys) == len(b.keys): // the rest of a shared leaf
			a.keys, b.keys = nil, nil
		default:
			if !equal(a.vals[0], b.vals[0]) {
				keys, vals = append(keys, b.keys[0]), append(vals, b.vals[0])
			}
			a.next()
			b.next()
		}
	}
	return pack(keys, vals), dels
}

// Apply folds a diff onto c: the puts, then the dels. A del of a key c
// lacks changes nothing.
func (c *Column[K, V]) Apply(puts Column[K, V], dels []K) {
	c.Merge(puts, func(_, v V) V { return v })
	for _, k := range dels {
		c.Delete(k)
	}
}

// cursor walks a column's leaves in key order: keys[0], vals[0] is the
// entry at hand.
type cursor[K ~int64, V ~int32] struct {
	rest []leaf[K, V]
	keys []K
	vals []V
}

func (c Column[K, V]) cursor() (u cursor[K, V]) {
	if c.r != nil {
		u.rest = c.r.leaves
	}
	return u
}

func (u *cursor[K, V]) more() bool {
	for len(u.keys) == 0 && len(u.rest) > 0 {
		u.keys, u.vals, u.rest = u.rest[0].keys(), u.rest[0].vals(), u.rest[1:]
	}
	return len(u.keys) > 0
}

func (u *cursor[K, V]) next() { u.keys, u.vals = u.keys[1:], u.vals[1:] }

// own returns c's root, made writable: a shared root is copied, leaf
// headers and all, with no leaf marked as its own, so every leaf must
// be copied before this root writes it.
func (c *Column[K, V]) own() *root[K, V] {
	switch r := c.r; {
	case r == nil:
		c.r = &root[K, V]{}
	case r.shared.Load():
		cp := &root[K, V]{n: r.n, leaves: slices.Clone(r.leaves)}
		for i := range cp.leaves {
			cp.leaves[i].lo = max(cp.leaves[i].lo, 0)
		}
		c.r = cp
	}
	return c.r
}

// fresh returns a leaf over a new slab of its own holding the entries.
func fresh[K ~int64, V ~int32](keys []K, vals []V) leaf[K, V] {
	return leaf[K, V]{&slab[K, V]{keys, vals}, -1, int32(len(keys))}
}

// ownLeaf returns leaf i's slab, which r may write in place: the leaf
// is first copied into a slab of its own unless r made its slab.
func (r *root[K, V]) ownLeaf(i int) *slab[K, V] {
	l := r.leaves[i]
	if l.lo >= 0 {
		n := int(l.hi - l.lo)
		l = fresh(append(make([]K, 0, n+1), l.keys()...), append(make([]V, 0, n+1), l.vals()...))
		r.leaves[i] = l
	}
	return l.s
}

// leafFor returns the index of the leaf whose range holds k: the last
// leaf starting at or below it, or the first leaf. r has a leaf.
func (r *root[K, V]) leafFor(k K) int {
	i := sort.Search(len(r.leaves), func(i int) bool { return r.leaves[i].keys()[0] > k })
	return max(i-1, 0)
}
