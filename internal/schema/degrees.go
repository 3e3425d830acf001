package schema

// degrees.go holds Degrees, the per-endpoint degree tally of an edge
// type: the §4.4 cardinality evidence, and the one member of a schema
// that grows with the database rather than with its types.
//
// The serving layer publishes a copy of the schema after every write
// batch, so a tally must be cheap to copy and cheap to change after a
// copy. It is a persistent structure: sorted leaves of at most leafCap
// (node, count) entries under one root. Clone shares the root; the
// first write after a clone copies the root (one pointer per leaf, so
// Len/leafCap pointers, and the histogram) and then each leaf it
// writes, once. A copy therefore costs nothing per entry, and the
// writer pays for the roots and leaves a batch touches. A leaf is
// written in place only by the root that made it (its owner); every
// other root copies it first, so a published tally never changes.
//
// The root also keeps a histogram — how many nodes have each degree —
// so the maxima that §4.4 reads are O(1), under additions and under
// retraction's decrements alike.

import (
	"cmp"
	"iter"
	"slices"
	"sort"
	"sync/atomic"

	"github.com/pghive/pghive/internal/pg"
)

// leafCap bounds a leaf: the most entries one write copies for one
// node it touches.
const leafCap = 64

type degEntry struct {
	id pg.ID
	n  int
}

// degLeaf is a sorted, non-empty run of entries. Only the root whose id
// is owner writes it in place.
type degLeaf struct {
	owner uint64
	e     []degEntry
}

// degBucket says that nodes nodes have degree deg.
type degBucket struct{ deg, nodes int }

type degRoot struct {
	// shared is set by Clone, possibly on several goroutines holding
	// one published snapshot; a shared root is never written again.
	shared atomic.Bool
	id     uint64
	n      int
	leaves []*degLeaf  // in node order, none empty
	hist   []degBucket // ascending deg, every nodes > 0
}

// rootIDs numbers roots, so a leaf knows the one root it belongs to
// without holding on to it.
var rootIDs atomic.Uint64

func newRoot() *degRoot { return &degRoot{id: rootIDs.Add(1)} }

// Degrees counts, per endpoint node, the instances of one edge type
// that attach to it. The zero value is an empty tally. A Degrees is
// written by one goroutine at a time; Clone may run on any number of
// goroutines at once, and a clone and its original then change
// independently.
type Degrees struct {
	root *degRoot
}

// Len returns the number of nodes with a positive count.
func (d Degrees) Len() int {
	if d.root == nil {
		return 0
	}
	return d.root.n
}

// Max returns the largest count, 0 for an empty tally. O(1).
func (d Degrees) Max() int {
	if d.root == nil || len(d.root.hist) == 0 {
		return 0
	}
	return d.root.hist[len(d.root.hist)-1].deg
}

// Get returns the node's count, 0 when it has none.
func (d Degrees) Get(id pg.ID) int {
	if d.root == nil || len(d.root.leaves) == 0 {
		return 0
	}
	e := d.root.leaves[d.root.leafFor(id)].e
	if j, ok := slices.BinarySearchFunc(e, id, cmpEntry); ok {
		return e[j].n
	}
	return 0
}

// All yields every node and its count, in ascending node order.
func (d Degrees) All() iter.Seq2[pg.ID, int] {
	return func(yield func(pg.ID, int) bool) {
		if d.root == nil {
			return
		}
		for _, l := range d.root.leaves {
			for _, e := range l.e {
				if !yield(e.id, e.n) {
					return
				}
			}
		}
	}
}

// Clone returns a tally that shares every leaf with d. O(1).
func (d Degrees) Clone() Degrees {
	if d.root != nil {
		d.root.shared.Store(true)
	}
	return d
}

// Add raises the node's count by n, which must be positive.
func (d *Degrees) Add(id pg.ID, n int) {
	if n <= 0 {
		panic("schema: Degrees.Add of a non-positive count")
	}
	r := d.own()
	if len(r.leaves) == 0 {
		r.leaves = []*degLeaf{{owner: r.id, e: []degEntry{{id, n}}}}
		r.n = 1
		r.move(0, n)
		return
	}
	i := r.leafFor(id)
	l := r.ownLeaf(i)
	j, ok := slices.BinarySearchFunc(l.e, id, cmpEntry)
	if ok {
		l.e[j].n += n
		r.move(l.e[j].n-n, l.e[j].n)
		return
	}
	l.e = slices.Insert(l.e, j, degEntry{id, n})
	r.n++
	r.move(0, n)
	if len(l.e) > leafCap {
		h := len(l.e) / 2
		hi := &degLeaf{owner: r.id, e: slices.Clone(l.e[h:])}
		l.e = l.e[:h]
		r.leaves = slices.Insert(r.leaves, i+1, hi)
	}
}

// Dec lowers the node's count by one and forgets the node at zero. A
// node with no count is left alone.
func (d *Degrees) Dec(id pg.ID) {
	if d.Get(id) == 0 {
		return
	}
	r := d.own()
	i := r.leafFor(id)
	l := r.ownLeaf(i)
	j, _ := slices.BinarySearchFunc(l.e, id, cmpEntry)
	c := l.e[j].n
	r.move(c, c-1)
	if c > 1 {
		l.e[j].n--
		return
	}
	l.e = slices.Delete(l.e, j, j+1)
	r.n--
	if len(l.e) == 0 {
		r.leaves = slices.Delete(r.leaves, i, i+1)
	}
}

// absorb adds every count of o to d. Entry by entry, each entry may
// copy a leaf of up to leafCap entries, but the leaves o does not touch
// stay shared; a merge of the two tallies, both in node order, into
// fresh leaves writes all of d and o once. So o is added entry by entry
// when that costs at most the merge (o.Len()*leafCap <= d.Len()), and
// always when it fits in one leaf, so that a small write's cost does
// not grow with d. Discovery's merges of large clusters take the merge.
func (d *Degrees) absorb(o Degrees) {
	switch {
	case o.Len() == 0:
	case d.Len() == 0:
		*d = o.Clone()
	case o.Len() <= leafCap || o.Len()*leafCap <= d.Len():
		for id, n := range o.All() {
			d.Add(id, n)
		}
	default:
		merged := make([]degEntry, 0, d.Len()+o.Len())
		var b []degEntry // o's entries not yet merged, from the leaf at hand
		rest := o.root.leaves
		for _, l := range d.root.leaves {
			for _, x := range l.e {
				for {
					if len(b) == 0 && len(rest) > 0 {
						b, rest = rest[0].e, rest[1:]
					}
					if len(b) == 0 || b[0].id > x.id {
						break
					}
					if b[0].id == x.id {
						x.n += b[0].n
					} else {
						merged = append(merged, b[0])
					}
					b = b[1:]
				}
				merged = append(merged, x)
			}
		}
		merged = append(merged, b...)
		for _, l := range rest {
			merged = append(merged, l.e...)
		}
		*d = packLeaves(merged)
	}
}

// countDegrees builds the tally in which each node's count is the
// number of times it occurs in ids. It sorts ids in place.
func countDegrees(ids []pg.ID) Degrees {
	if len(ids) == 0 {
		return Degrees{}
	}
	slices.Sort(ids)
	distinct := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1] {
			distinct++
		}
	}
	e := make([]degEntry, 0, distinct)
	for _, id := range ids {
		if k := len(e); k > 0 && e[k-1].id == id {
			e[k-1].n++
		} else {
			e = append(e, degEntry{id, 1})
		}
	}
	return packLeaves(e)
}

// packLeaves cuts sorted, distinct, positive entries into full leaves
// that share e's array, in a constant number of allocations.
func packLeaves(e []degEntry) Degrees {
	if len(e) == 0 {
		return Degrees{}
	}
	r := newRoot()
	r.n = len(e)
	nl := (len(e) + leafCap - 1) / leafCap
	ls := make([]degLeaf, nl)
	r.leaves = make([]*degLeaf, nl)
	for i := range ls {
		lo, hi := i*leafCap, min((i+1)*leafCap, len(e))
		ls[i] = degLeaf{owner: r.id, e: e[lo:hi:hi]}
		r.leaves[i] = &ls[i]
	}
	for _, x := range e {
		r.move(0, x.n)
	}
	return Degrees{root: r}
}

// own returns d's root, made writable: a shared root is copied, leaves
// and histogram pointers and all, under a new id, so every leaf must be
// copied before this root writes it.
func (d *Degrees) own() *degRoot {
	switch r := d.root; {
	case r == nil:
		d.root = newRoot()
	case r.shared.Load():
		cp := newRoot()
		cp.n, cp.leaves, cp.hist = r.n, slices.Clone(r.leaves), slices.Clone(r.hist)
		d.root = cp
	}
	return d.root
}

// ownLeaf returns leaf i, copied first unless r made it.
func (r *degRoot) ownLeaf(i int) *degLeaf {
	l := r.leaves[i]
	if l.owner != r.id {
		l = &degLeaf{owner: r.id, e: append(make([]degEntry, 0, len(l.e)+1), l.e...)}
		r.leaves[i] = l
	}
	return l
}

// leafFor returns the index of the leaf whose range holds id: the last
// leaf starting at or below it, or the first leaf. r has a leaf.
func (r *degRoot) leafFor(id pg.ID) int {
	i := sort.Search(len(r.leaves), func(i int) bool { return r.leaves[i].e[0].id > id })
	return max(i-1, 0)
}

// move records in the histogram that one node's count went from one
// value to another; 0 stands for no count.
func (r *degRoot) move(from, to int) {
	if from > 0 {
		i, _ := slices.BinarySearchFunc(r.hist, from, cmpBucket)
		if r.hist[i].nodes--; r.hist[i].nodes == 0 {
			r.hist = slices.Delete(r.hist, i, i+1)
		}
	}
	if to > 0 {
		if i, ok := slices.BinarySearchFunc(r.hist, to, cmpBucket); ok {
			r.hist[i].nodes++
		} else {
			r.hist = slices.Insert(r.hist, i, degBucket{to, 1})
		}
	}
}

func byNode(a, b degEntry) int { return cmp.Compare(a.id, b.id) }

func cmpEntry(e degEntry, id pg.ID) int { return cmp.Compare(e.id, id) }

func cmpBucket(b degBucket, deg int) int { return cmp.Compare(b.deg, deg) }
