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
// the slab its own root made for it; a bulk build's leaves share the
// slabs it made (one per leaf form), which no write changes.
//
// A leaf is narrow exactly when its keys span less than 2^16 — its last
// key less its first fits a uint16: its header holds its first key and
// its slab each key's offset from it, 2 bytes a key. Any other leaf is
// wide and keeps its keys whole, 8 bytes each. Element IDs are dense,
// so nearly every leaf is narrow; hashed IDs and IDs at the ends of
// int64 make wide ones. Every leaf takes the form its span allows where
// it is made: a bulk build, a leaf's copy-on-write copy, an insert that
// stretches it, a delete that shrinks it, a split.
//
// Laws: a bulk build of n sorted entries costs its slabs, one header per
// leaf and a constant number of allocations: ≤ 7 B per entry when its
// leaves are narrow (2-byte offsets, 4-byte values), ≤ 13 when they are
// wide (8-byte keys); Clone is O(1); Get is O(log n); a write after a
// share copies O(n/leafCap) headers plus each leaf it touches once,
// ~6 B per entry of a narrow leaf.

import (
	"iter"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// leafCap bounds a leaf: the most entries one write copies for one key
// it touches.
const leafCap = 64

// fits reports whether keys from first to last make a narrow leaf: their
// span fits a uint16, however far apart two int64s are.
func fits[K ~int64](first, last K) bool {
	return uint64(last)-uint64(first) <= math.MaxUint16
}

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

// slab holds the entries of one leaf, or of every leaf of one form that
// a bulk build made: a narrow slab holds offsets and no keys, a wide
// one keys and no offsets.
type slab[K ~int64, V ~int32] struct {
	offs []uint16 // narrow: each key less its leaf's first key
	keys []K      // wide
	vals []V
}

func (s *slab[K, V]) narrow() bool { return s.keys == nil }

// leaf is the entries slab s holds at [lo, hi), the least of them
// first. lo is -1 when the root holding the leaf made s for it alone:
// then the leaf spans s, and that root writes s in place. Every other
// slab is only read, and a root that copies another's headers clears
// the mark.
type leaf[K ~int64, V ~int32] struct {
	first  K
	s      *slab[K, V]
	lo, hi int32
}

func (l leaf[K, V]) len() int       { return int(l.hi - max(l.lo, 0)) }
func (l leaf[K, V]) vals() []V      { return l.s.vals[max(l.lo, 0):l.hi] }
func (l leaf[K, V]) offs() []uint16 { return l.s.offs[max(l.lo, 0):l.hi] }
func (l leaf[K, V]) wideKeys() []K  { return l.s.keys[max(l.lo, 0):l.hi] }
func (l leaf[K, V]) last() K        { return l.key(l.len() - 1) }
func (l leaf[K, V]) key(j int) K {
	if l.s.narrow() {
		return l.first + K(l.offs()[j])
	}
	return l.wideKeys()[j]
}

// appendKeys appends the leaf's keys to ks.
func (l leaf[K, V]) appendKeys(ks []K) []K {
	if !l.s.narrow() {
		return append(ks, l.wideKeys()...)
	}
	for _, o := range l.offs() {
		ks = append(ks, l.first+K(o))
	}
	return ks
}

// search returns where k is in the leaf, or where it would go, and
// whether it is there.
func (l leaf[K, V]) search(k K) (int, bool) {
	if !l.s.narrow() {
		return slices.BinarySearch(l.wideKeys(), k)
	}
	switch {
	case k < l.first:
		return 0, false
	case !fits(l.first, k):
		return l.len(), false
	}
	return slices.BinarySearch(l.offs(), uint16(k-l.first))
}

// FromRun builds a column from a run of entries with distinct keys,
// taking over both slices. It sorts the run by key first unless the
// keys already ascend, and then packs it into full leaves in a
// constant number of allocations.
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
// ending at ends[i], and they are merged straight into the column's
// leaves rather than sorted: O(n log len(ends)), with no scratch copy.
func FromRuns[K ~int64, V ~int32](keys []K, vals []V, ends []int) (c Column[K, V], dup K, ok bool) {
	if len(keys) != len(vals) {
		panic("keyed: a run's keys and values differ in length")
	}
	if len(ends) > 1 {
		heads := make([]head[K, V], 0, len(ends))
		lo := 0
		for _, hi := range ends {
			if hi > lo {
				heads = append(heads, head[K, V]{keys[lo], vals[lo], lo, hi})
			}
			lo = hi
		}
		return mergeHeads(len(keys), heads, func(h *head[K, V]) bool {
			if h.at++; h.at == h.end {
				return false
			}
			h.key, h.val = keys[h.at], vals[h.at]
			return true
		})
	}
	if !slices.IsSorted(keys) {
		sort.Sort(run[K, V]{keys, vals})
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return c, keys[i], false
		}
	}
	return pack(keys, vals), dup, true
}

// head is the entry at hand of one ascending source of a merge, and
// where the source's next entry is.
type head[K ~int64, V ~int32] struct {
	key     K
	val     V
	at, end int
}

// mergeHeads merges ascending sources of n entries in all, whose first
// entries are heads, into a column through a min-heap of their heads;
// next moves a head to its source's next entry, or reports that the
// source is spent. It reports a key two sources hold.
func mergeHeads[K ~int64, V ~int32](n int, heads []head[K, V], next func(*head[K, V]) bool) (c Column[K, V], dup K, ok bool) {
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i)
	}
	p := newPacker[K, V](n, n, n)
	for len(heads) > 0 {
		h := &heads[0]
		if p.n+p.fill > 0 {
			switch prev := p.prev(); {
			case h.key == prev:
				return c, h.key, false
			case h.key < prev:
				panic("keyed: a merged run does not ascend")
			}
		}
		p.add(h.key, h.val)
		if !next(h) {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		siftDown(heads, 0)
	}
	return p.column(), dup, true
}

// siftDown moves heads[i] down the min-heap to where its key belongs.
func siftDown[K ~int64, V ~int32](heads []head[K, V], i int) {
	for {
		c := 2*i + 1
		if c >= len(heads) {
			return
		}
		if c+1 < len(heads) && heads[c+1].key < heads[c].key {
			c++
		}
		if heads[i].key <= heads[c].key {
			return
		}
		heads[i], heads[c] = heads[c], heads[i]
		i = c
	}
}

// Build is FromRun over a run of n entries, entry i being (key(i),
// val(i)). When the keys ascend it writes the leaves straight from key
// and val, calling key twice per entry, and makes no run at all.
func Build[K ~int64, V ~int32](n int, key func(i int) K, val func(i int) V) Column[K, V] {
	narrow := 0
	var first, prev K
	for i := range n {
		k := key(i)
		if i > 0 && k <= prev {
			keys, vals := make([]K, n), make([]V, n)
			for i := range n {
				keys[i], vals[i] = key(i), val(i)
			}
			return FromRun(keys, vals)
		}
		if i%leafCap == 0 {
			first = k
		}
		if (i%leafCap == leafCap-1 || i == n-1) && fits(first, k) {
			narrow += i%leafCap + 1
		}
		prev = k
	}
	p := newPacker[K, V](n, narrow, n-narrow)
	for i := range n {
		p.add(key(i), val(i))
	}
	return p.column()
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

// pack cuts sorted, distinct entries into full leaves. When the leaves
// all take one form it takes over the run: its values as they are, and
// its keys as the wide leaves' keys or, for narrow leaves, dropped for
// offsets. A run of both forms is copied into a slab per form.
func pack[K ~int64, V ~int32](keys []K, vals []V) Column[K, V] {
	n, narrow := len(keys), 0
	for lo := 0; lo < n; lo += leafCap {
		if hi := min(lo+leafCap, n); fits(keys[lo], keys[hi-1]) {
			narrow += hi - lo
		}
	}
	switch {
	case n == 0:
		return Column[K, V]{}
	case narrow != 0 && narrow != n:
		p := newPacker[K, V](n, narrow, n-narrow)
		for i, k := range keys {
			p.add(k, vals[i])
		}
		return p.column()
	}
	s := &slab[K, V]{keys: keys, vals: vals}
	if narrow == n {
		s.keys, s.offs = nil, make([]uint16, n)
	}
	r := &root[K, V]{n: n, leaves: make([]leaf[K, V], (n+leafCap-1)/leafCap)}
	for i := range r.leaves {
		lo, hi := i*leafCap, min((i+1)*leafCap, n)
		r.leaves[i] = leaf[K, V]{keys[lo], s, int32(lo), int32(hi)}
		if s.narrow() {
			for j := lo; j < hi; j++ {
				s.offs[j] = uint16(keys[j] - keys[lo])
			}
		}
	}
	return Column[K, V]{r}
}

// packer cuts sorted, distinct entries, handed to it one at a time,
// into full leaves, each in the form its span allows: the narrow leaves'
// entries go to one slab, the wide leaves' to another. Each slab is
// made when its form first comes, with room for as many entries as that
// form may still get, and is cut down to its entries at the end when
// they fill less than half of it. A leaf's entries wait in the packer
// until it is full, so a packer lives on its caller's stack.
type packer[K ~int64, V ~int32] struct {
	left               int // entries still to come, at most
	narrowMax, wideMax int // entries each form may get, at most
	n, fill            int // entries in leaves; entries waiting
	narrow, wide       *slab[K, V]
	leaves             []leaf[K, V]
	keys               [leafCap]K
	vals               [leafCap]V
}

// newPacker returns a packer for at most n entries, at most narrow of
// them in narrow leaves and wide in wide ones.
func newPacker[K ~int64, V ~int32](n, narrow, wide int) packer[K, V] {
	return packer[K, V]{left: n, narrowMax: narrow, wideMax: wide, leaves: make([]leaf[K, V], 0, (n+leafCap-1)/leafCap)}
}

func (p *packer[K, V]) add(k K, v V) {
	p.keys[p.fill], p.vals[p.fill] = k, v
	if p.fill++; p.fill == leafCap {
		p.cut()
	}
}

// prev returns the last key added; one has been.
func (p *packer[K, V]) prev() K {
	if p.fill > 0 {
		return p.keys[p.fill-1]
	}
	return p.leaves[len(p.leaves)-1].last()
}

// cut makes a leaf of the entries waiting.
func (p *packer[K, V]) cut() {
	n := p.fill
	if n == 0 {
		return
	}
	keys, vals := p.keys[:n], p.vals[:n]
	var s *slab[K, V]
	if fits(keys[0], keys[n-1]) {
		if p.narrow == nil {
			room := min(p.narrowMax, p.left)
			p.narrow = &slab[K, V]{offs: make([]uint16, 0, room), vals: make([]V, 0, room)}
		}
		s = p.narrow
		for _, k := range keys {
			s.offs = append(s.offs, uint16(k-keys[0]))
		}
	} else {
		if p.wide == nil {
			room := min(p.wideMax, p.left)
			p.wide = &slab[K, V]{keys: make([]K, 0, room), vals: make([]V, 0, room)}
		}
		s = p.wide
		s.keys = append(s.keys, keys...)
	}
	lo := len(s.vals)
	s.vals = append(s.vals, vals...)
	p.leaves = append(p.leaves, leaf[K, V]{keys[0], s, int32(lo), int32(len(s.vals))})
	p.n += n
	p.left -= n
	p.fill = 0
}

// column returns the column of every entry added.
func (p *packer[K, V]) column() Column[K, V] {
	p.cut()
	if p.n == 0 {
		return Column[K, V]{}
	}
	for _, s := range []*slab[K, V]{p.narrow, p.wide} {
		if s != nil && 2*len(s.vals) < cap(s.vals) {
			s.offs, s.keys, s.vals = slices.Clone(s.offs), slices.Clone(s.keys), slices.Clone(s.vals)
		}
	}
	return Column[K, V]{&root[K, V]{n: p.n, leaves: p.leaves}}
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
	if c.r != nil && len(c.r.leaves) > 0 {
		l := c.r.leaves[c.r.leafFor(k)]
		if j, ok := l.search(k); ok {
			return l.vals()[j], true
		}
	}
	var zero V
	return zero, false
}

// All yields every entry in ascending key order.
func (c Column[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for u := c.cursor(); u.more(); u.next() {
			if !yield(u.key(), u.vals[0]) {
				return
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
	l := r.leaves[i]
	j, ok := l.search(k)
	switch {
	case ok:
		r.ownLeaf(i, 0).vals[j] = v
		return
	case i == len(r.leaves)-1 && l.len() >= leafCap && j == l.len():
		// A key past a full last leaf starts a leaf of its own, so a
		// column set in key order fills its leaves instead of halving
		// them.
		r.leaves = append(r.leaves, fresh([]K{k}, []V{v}))
	default:
		r.insert(i, j, k, v)
	}
	r.n++
}

// insert puts k, v at place j of leaf i, which lacks k: in place when
// the leaf keeps its form, else in its wide copy. A leaf it overflows
// splits in two.
func (r *root[K, V]) insert(i, j int, k K, v V) {
	if l := r.leaves[i]; l.s.narrow() && !fits(min(l.first, k), max(l.last(), k)) {
		var kb [leafCap + 1]K
		var vb [leafCap + 1]V
		r.leaves[i] = fresh(slices.Insert(l.appendKeys(kb[:0]), j, k), slices.Insert(append(vb[:0], l.vals()...), j, v))
	} else {
		s, l := r.ownLeaf(i, 1), &r.leaves[i]
		if s.narrow() {
			if k < l.first {
				for x, d := range s.offs {
					s.offs[x] = d + uint16(l.first-k)
				}
				l.first = k
			}
			s.offs = slices.Insert(s.offs, j, uint16(k-l.first))
		} else {
			s.keys = slices.Insert(s.keys, j, k)
			l.first = s.keys[0]
		}
		s.vals = slices.Insert(s.vals, j, v)
		l.hi++
	}
	if r.leaves[i].len() > leafCap {
		r.split(i)
	}
}

// split cuts leaf i, one entry past full and over a slab of its own,
// into halves, each in the form its span allows.
func (r *root[K, V]) split(i int) {
	l := r.leaves[i]
	var kb [leafCap + 1]K
	keys, vals, h := l.appendKeys(kb[:0]), l.vals(), l.len()/2
	upper := fresh(keys[h:], vals[h:])
	switch s := l.s; {
	case s.narrow():
		s.offs, s.vals = s.offs[:h], s.vals[:h]
		r.leaves[i].hi = int32(h)
	case !fits(keys[0], keys[h-1]):
		s.keys, s.vals = s.keys[:h], s.vals[:h]
		r.leaves[i].hi = int32(h)
	default:
		r.leaves[i] = fresh(keys[:h], vals[:h])
	}
	r.leaves = slices.Insert(r.leaves, i+1, upper)
}

// Delete removes the key and reports whether the column held it. A
// column that lacks the key is left as it is.
func (c *Column[K, V]) Delete(k K) bool {
	if _, ok := c.Get(k); !ok {
		return false
	}
	r := c.own()
	i := r.leafFor(k)
	l := r.leaves[i]
	j, _ := l.search(k)
	r.n--
	n := l.len()
	if n == 1 {
		r.leaves = slices.Delete(r.leaves, i, i+1)
		return true
	}
	first, last := l.first, l.last()
	if j == 0 {
		first = l.key(1)
	} else if j == n-1 {
		last = l.key(n - 2)
	}
	if !l.s.narrow() && fits(first, last) {
		var kb [leafCap]K
		var vb [leafCap]V
		r.leaves[i] = fresh(slices.Delete(l.appendKeys(kb[:0]), j, j+1), slices.Delete(append(vb[:0], l.vals()...), j, j+1))
		return true
	}
	s := r.ownLeaf(i, 0)
	s.vals = slices.Delete(s.vals, j, j+1)
	if s.narrow() {
		s.offs = slices.Delete(s.offs, j, j+1)
		if d := s.offs[0]; d > 0 {
			for x, o := range s.offs {
				s.offs[x] = o - d
			}
		}
	} else {
		s.keys = slices.Delete(s.keys, j, j+1)
	}
	r.leaves[i].first, r.leaves[i].hi = first, r.leaves[i].hi-1
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
			old, _ := c.Get(o.key())
			c.Set(o.key(), combine(old, o.vals[0]))
		}
	default:
		p := newPacker[K, V](c.Len()+n, c.Len()+n, c.Len()+n)
		var zero V
		a, b := c.cursor(), o
		for a.more() || b.more() {
			switch {
			case !b.more() || a.more() && a.key() < b.key():
				p.add(a.key(), a.vals[0])
				a.next()
			case !a.more() || b.key() < a.key():
				p.add(b.key(), combine(zero, b.vals[0]))
				b.next()
			default:
				p.add(a.key(), combine(a.vals[0], b.vals[0]))
				a.next()
				b.next()
			}
		}
		*c = p.column()
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
		case !b.more() || a.more() && a.key() < b.key():
			dels = append(dels, a.key())
			a.next()
		case !a.more() || b.key() < a.key():
			keys, vals = append(keys, b.key()), append(vals, b.vals[0])
			b.next()
		case &a.vals[0] == &b.vals[0] && len(a.vals) == len(b.vals): // the rest of a shared leaf
			a.vals, b.vals = nil, nil
		default:
			if !equal(a.vals[0], b.vals[0]) {
				keys, vals = append(keys, b.key()), append(vals, b.vals[0])
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

// cursor walks a column's leaves, or one run, in key order: key() and
// vals[0] are the entry at hand. A narrow leaf's keys are first plus
// offs, a wide leaf's or a run's are keys.
type cursor[K ~int64, V ~int32] struct {
	rest  []leaf[K, V]
	first K
	offs  []uint16
	keys  []K
	vals  []V
}

func (c Column[K, V]) cursor() (u cursor[K, V]) {
	if c.r != nil {
		u.rest = c.r.leaves
	}
	return u
}

func (u *cursor[K, V]) more() bool {
	for len(u.vals) == 0 && len(u.rest) > 0 {
		l := u.rest[0]
		u.rest, u.first, u.vals = u.rest[1:], l.first, l.vals()
		if u.offs, u.keys = nil, nil; l.s.narrow() {
			u.offs = l.offs()
		} else {
			u.keys = l.wideKeys()
		}
	}
	return len(u.vals) > 0
}

func (u *cursor[K, V]) key() K {
	if u.keys != nil {
		return u.keys[0]
	}
	return u.first + K(u.offs[0])
}

func (u *cursor[K, V]) next() {
	if u.vals = u.vals[1:]; u.keys != nil {
		u.keys = u.keys[1:]
	} else {
		u.offs = u.offs[1:]
	}
}

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

// fresh returns a leaf over a new slab of its own holding the entries,
// in the form their span allows. It keeps neither slice.
func fresh[K ~int64, V ~int32](keys []K, vals []V) leaf[K, V] {
	n := len(keys)
	s := &slab[K, V]{vals: slices.Clone(vals)}
	if fits(keys[0], keys[n-1]) {
		s.offs = make([]uint16, n)
		for j, k := range keys {
			s.offs[j] = uint16(k - keys[0])
		}
	} else {
		s.keys = slices.Clone(keys)
	}
	return leaf[K, V]{keys[0], s, -1, int32(n)}
}

// ownLeaf returns leaf i's slab, which r may write in place: the leaf
// is first copied, in its form, into a slab of its own with room for
// extra more entries unless r made its slab.
func (r *root[K, V]) ownLeaf(i, extra int) *slab[K, V] {
	l := r.leaves[i]
	if l.lo < 0 {
		return l.s
	}
	n := l.len()
	s := &slab[K, V]{vals: append(make([]V, 0, n+extra), l.vals()...)}
	if l.s.narrow() {
		s.offs = append(make([]uint16, 0, n+extra), l.offs()...)
	} else {
		s.keys = append(make([]K, 0, n+extra), l.wideKeys()...)
	}
	r.leaves[i] = leaf[K, V]{l.first, s, -1, int32(n)}
	return s
}

// leafFor returns the index of the leaf whose range holds k: the last
// leaf starting at or below it, or the first leaf. It reads only the
// headers. r has a leaf.
func (r *root[K, V]) leafFor(k K) int {
	i := sort.Search(len(r.leaves), func(i int) bool { return r.leaves[i].first > k })
	return max(i-1, 0)
}
