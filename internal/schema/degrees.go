package schema

// degrees.go holds Degrees, the per-endpoint degree tally of an edge
// type: the §4.4 cardinality evidence, and the one member of a schema
// that grows with the database rather than with its types.
//
// The serving layer publishes a copy of the schema after every write
// batch, so a tally must be cheap to copy and cheap to change after a
// copy. It is a persistent column (keyed.Column) of each node's count,
// beside the histogram of the counts — how many nodes have each degree —
// so the maxima that §4.4 reads are O(1), under additions and under
// retraction's decrements alike. Clone shares both; the writer pays for
// the leaves a batch touches and one copy of the histogram, which is
// as long as the distinct degrees.

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"
	"sync/atomic"

	"github.com/pghive/pghive/internal/keyed"
	"github.com/pghive/pghive/internal/pg"
)

// Degrees counts, per endpoint node, the instances of one edge type
// that attach to it. The zero value is an empty tally. A Degrees is
// written by one goroutine at a time; Clone may run on any number of
// goroutines at once, and a clone and its original then change
// independently. A count fits an int32.
type Degrees struct {
	counts keyed.Column[pg.ID, int32]
	hist   *histogram
}

// histogram says how many nodes have each degree. Clone shares it; a
// shared histogram is copied before its first write.
type histogram struct {
	shared atomic.Bool
	b      []degBucket // ascending deg, every nodes > 0
}

// degBucket says that nodes nodes have degree deg.
type degBucket struct{ deg, nodes int32 }

// Len returns the number of nodes with a positive count.
func (d Degrees) Len() int { return d.counts.Len() }

// Max returns the largest count, 0 for an empty tally. O(1).
func (d Degrees) Max() int {
	if d.hist == nil || len(d.hist.b) == 0 {
		return 0
	}
	return int(d.hist.b[len(d.hist.b)-1].deg)
}

// Get returns the node's count, 0 when it has none.
func (d Degrees) Get(id pg.ID) int {
	n, _ := d.counts.Get(id)
	return int(n)
}

// All yields every node and its count, in ascending node order.
func (d Degrees) All() iter.Seq2[pg.ID, int] {
	return func(yield func(pg.ID, int) bool) {
		for id, n := range d.counts.All() {
			if !yield(id, int(n)) {
				return
			}
		}
	}
}

// Counts returns the node counts as a column that shares every leaf
// with d: how a checkpoint image holds a tally. O(1).
func (d Degrees) Counts() keyed.Column[pg.ID, int32] { return d.counts.Clone() }

// DegreesFrom takes a column of node counts over as a tally (a caller
// that keeps using the column clones it first) and builds the histogram
// in one pass over it. A tally holds no count below one, so such a
// count is corruption.
func DegreesFrom(counts keyed.Column[pg.ID, int32]) (Degrees, error) {
	d := Degrees{counts: counts, hist: &histogram{}}
	for id, n := range counts.All() {
		if n < 1 {
			return Degrees{}, fmt.Errorf("degree %d for node %d", n, id)
		}
		d.hist.move(0, n)
	}
	return d, nil
}

// Clone returns a tally that shares every leaf with d. O(1).
func (d Degrees) Clone() Degrees {
	if d.hist != nil {
		d.hist.shared.Store(true)
	}
	return Degrees{d.counts.Clone(), d.hist}
}

// Add raises the node's count by n, which must be positive.
func (d *Degrees) Add(id pg.ID, n int) {
	old := d.Get(id)
	if n <= 0 || old+n > math.MaxInt32 {
		panic("schema: Degrees.Add of a non-positive count, or past int32")
	}
	d.counts.Set(id, int32(old+n))
	d.move(int32(old), int32(old+n))
}

// Dec lowers the node's count by one and forgets the node at zero. A
// node with no count is left alone.
func (d *Degrees) Dec(id pg.ID) {
	c, _ := d.counts.Get(id)
	switch {
	case c == 0:
		return
	case c == 1:
		d.counts.Delete(id)
	default:
		d.counts.Set(id, c-1)
	}
	d.move(c, c-1)
}

// absorb adds every count of o to d, by keyed.Column.Merge's rule:
// entry by entry for a small o, in one pass for a large one.
func (d *Degrees) absorb(o Degrees) {
	switch {
	case o.Len() == 0:
	case d.Len() == 0:
		*d = o.Clone()
	default:
		d.counts.Merge(o.counts, func(old, n int32) int32 {
			d.move(old, old+n)
			return old + n
		})
	}
}

// degreeRun is a tally not yet built: distinct node IDs in ascending
// order and each node's count.
type degreeRun struct {
	nodes  []pg.ID
	counts []int32
}

// runOf folds endpoint IDs into a run: each node once, with the number
// of times it occurs. It sorts ids in place and writes the run over the
// front of ids and counts, which is as long.
func runOf(ids []pg.ID, counts []int32) degreeRun {
	if len(ids) == 0 {
		return degreeRun{}
	}
	slices.Sort(ids)
	k := 0
	for i, id := range ids {
		if i > 0 && id == ids[k-1] {
			counts[k-1]++
			continue
		}
		ids[k], counts[k] = id, 1
		k++
	}
	return degreeRun{ids[:k:k], counts[:k:k]}
}

// endpointGroups are a batch's edges grouped by the candidate they
// build: each candidate's rows, in row order, and a scratch its counts
// are folded in, which one count after another reuses.
type endpointGroups struct {
	edges  []pg.Edge
	rows   []int32
	ids    []pg.ID
	counts []int32
}

// pendingDegrees are a candidate's edges, rows[lo:hi] of g, before
// they are counted; the zero value has none.
type pendingDegrees struct {
	g      *endpointGroups
	lo, hi int32
}

// run folds the pending edges' endpoints on one side into a run in the
// groups' scratch, which the next run overwrites.
func (p pendingDegrees) run(end func(e *pg.Edge) pg.ID) degreeRun {
	g, n := p.g, int(p.hi-p.lo)
	if cap(g.ids) < n {
		g.ids, g.counts = make([]pg.ID, max(n, 2*cap(g.ids))), make([]int32, max(n, 2*cap(g.ids)))
	}
	ids := g.ids[:n]
	for i, row := range g.rows[p.lo:p.hi] {
		ids[i] = end(&g.edges[row])
	}
	return runOf(ids, g.counts[:n])
}

// absorbInto adds the pending edges' counts to src and dst.
func (p pendingDegrees) absorbInto(src, dst *Degrees) {
	if p.g == nil {
		return
	}
	src.absorbRun(p.run(func(e *pg.Edge) pg.ID { return e.Src }))
	dst.absorbRun(p.run(func(e *pg.Edge) pg.ID { return e.Dst }))
}

// absorbRun adds every count of r to d, as absorb adds a tally's; d
// keeps no part of r.
func (d *Degrees) absorbRun(r degreeRun) {
	if d.Len() == 0 && len(r.nodes) > 0 {
		// Built whole, at its size: as a tally of a new type is.
		// Build writes the run's ascending nodes straight into leaves.
		*d, _ = DegreesFrom(keyed.Build(len(r.nodes), func(i int) pg.ID { return r.nodes[i] }, func(i int) int32 { return r.counts[i] })) // every count is at least one
		return
	}
	d.counts.MergeRun(r.nodes, r.counts, func(old, n int32) int32 {
		d.move(old, old+n)
		return old + n
	})
}

// move records in the histogram that one node's count went from one
// value to another; 0 stands for no count. It copies a shared
// histogram first.
func (d *Degrees) move(from, to int32) {
	switch h := d.hist; {
	case h == nil:
		d.hist = &histogram{}
	case h.shared.Load():
		d.hist = &histogram{b: slices.Clone(h.b)}
	}
	d.hist.move(from, to)
}

func (h *histogram) move(from, to int32) {
	if from > 0 {
		i, _ := slices.BinarySearchFunc(h.b, from, cmpBucket)
		if h.b[i].nodes--; h.b[i].nodes == 0 {
			h.b = slices.Delete(h.b, i, i+1)
		}
	}
	if to > 0 {
		if i, ok := slices.BinarySearchFunc(h.b, to, cmpBucket); ok {
			h.b[i].nodes++
		} else {
			h.b = slices.Insert(h.b, i, degBucket{to, 1})
		}
	}
}

func cmpBucket(b degBucket, deg int32) int { return cmp.Compare(b.deg, deg) }
