package schema

// degrees_ref_test.go holds Degrees to the map[pg.ID]int it replaced:
// random scripts of additions, decrements to zero, clones, bulk builds
// (from endpoint lists and from the persisted form) and absorbs run on a few tallies and on one reference map each, and
// after every step each tally must agree with its map — Get, Len,
// iteration in node order and Max — and keep its own invariants. A
// clone gets a map of its own, so a write on either side of a clone
// that reached the other side fails the comparison.

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/pghive/pghive/internal/pg"
)

const degSlots = 4

// DegreeCounts copies a tally into a map of node counts, nil when it is
// empty: the form the tests compare tallies in.
func DegreeCounts[K ~int64](d Degrees) map[K]int {
	if d.Len() == 0 {
		return nil
	}
	out := make(map[K]int, d.Len())
	for id, n := range d.All() {
		out[K(id)] = n
	}
	return out
}

// leafCap is keyed.Column's leaf size, which the scripts' runs cross.
const leafCap = 64

// degScript reads a script from bytes; it runs out as zeros.
type degScript struct{ b []byte }

func (s *degScript) next() int {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return int(c)
}

// id spreads a byte over negative and positive node IDs.
func (s *degScript) id() pg.ID { return pg.ID(int8(s.next())) * 3 }

func (s *degScript) slot() int { return s.next() % degSlots }

// runDegreesScript runs the script and fails t at the first step where
// a tally and its reference map disagree.
func runDegreesScript(t *testing.T, script []byte) {
	t.Helper()
	s := &degScript{b: script}
	var got [degSlots]Degrees
	var want [degSlots]map[pg.ID]int
	for i := range want {
		want[i] = map[pg.ID]int{}
	}
	for step := 0; len(s.b) > 0; step++ {
		op := s.next() % 8
		switch op {
		case 0: // add
			i, id, n := s.slot(), s.id(), 1+s.next()%4
			got[i].Add(id, n)
			want[i][id] += n
		case 1: // decrement, to zero and past it
			i, id := s.slot(), s.id()
			got[i].Dec(id)
			if want[i][id] > 1 {
				want[i][id]--
			} else {
				delete(want[i], id)
			}
		case 2: // clone
			from, to := s.slot(), s.slot()
			got[to], want[to] = got[from].Clone(), maps.Clone(want[from])
		case 3: // absorb a list of endpoints: built whole into an empty tally
			i, n := s.slot(), 4*s.next()
			ids := make([]pg.ID, n)
			for j := range ids {
				ids[j] = s.id()
				want[i][ids[j]]++
			}
			got[i].absorbRun(runOf(ids, make([]int32, n)))
		case 4: // bulk build from a persisted map
			i, n := s.slot(), s.next()
			m := map[nodeKey]int{}
			for range n {
				m[nodeKey(s.id())] += 1 + s.next()%5
			}
			want[i] = map[pg.ID]int{}
			for k, c := range m {
				want[i][pg.ID(k)] = c
			}
			var err error
			if got[i], err = DegreesOf(m); err != nil {
				t.Fatal(err)
			}
		case 5: // absorb, a tally into itself included
			to, from := s.slot(), s.slot()
			add := maps.Clone(want[from])
			got[to].absorb(got[from])
			for id, n := range add {
				want[to][id] += n
			}
		case 6: // a run of additions: splits leaves
			i, start, n := s.slot(), s.id(), s.next()%130
			for j := range n {
				got[i].Add(start+pg.ID(j), 1)
				want[i][start+pg.ID(j)]++
			}
		case 7: // a run of decrements: empties leaves
			i, start, n := s.slot(), s.id(), s.next()%130
			for j := range n {
				id := start + pg.ID(j)
				got[i].Dec(id)
				if want[i][id] > 1 {
					want[i][id]--
				} else {
					delete(want[i], id)
				}
			}
		}
		for i := range got {
			if msg := degreesDiffer(got[i], want[i]); msg != "" {
				t.Fatalf("step %d (op %d), tally %d: %s", step, op, i, msg)
			}
		}
	}
}

// countDegrees builds the tally in which each node's count is the
// number of times it occurs in ids, as a candidate's becomes a type's.
func countDegrees(ids []pg.ID) Degrees {
	var d Degrees
	d.absorbRun(runOf(ids, make([]int32, len(ids))))
	return d
}

// degreesDiffer returns how d differs from m, or how d breaks its own
// invariants; "" when it does neither.
func degreesDiffer(d Degrees, m map[pg.ID]int) string {
	if d.Len() != len(m) {
		return fmt.Sprintf("Len %d, want %d", d.Len(), len(m))
	}
	top := 0
	for id, n := range m {
		if d.Get(id) != n {
			return fmt.Sprintf("Get(%d) = %d, want %d", id, d.Get(id), n)
		}
		top = max(top, n)
	}
	if d.Get(1<<40) != 0 {
		return "Get of an absent node is not 0"
	}
	if d.Max() != top {
		return fmt.Sprintf("Max %d, want %d", d.Max(), top)
	}
	keys := slices.Sorted(maps.Keys(m))
	var seen []pg.ID
	for id, n := range d.All() {
		if n != m[id] {
			return fmt.Sprintf("All yields %d:%d", id, n)
		}
		seen = append(seen, id)
	}
	if !slices.Equal(seen, keys) {
		return "All is not the map's keys in ascending order"
	}
	if d.hist == nil {
		return ""
	}
	hist := map[int32]int32{}
	for _, n := range m {
		hist[int32(n)]++
	}
	if len(hist) != len(d.hist.b) || !slices.IsSortedFunc(d.hist.b, func(a, b degBucket) int { return int(a.deg - b.deg) }) {
		return "histogram is not the counts' histogram"
	}
	for _, b := range d.hist.b {
		if hist[b.deg] != b.nodes {
			return fmt.Sprintf("histogram says %d nodes of degree %d", b.nodes, b.deg)
		}
	}
	return ""
}

// TestDegreesMatchesMap runs random scripts, long enough to split and
// empty leaves, share them between clones and absorb tallies into one
// another.
func TestDegreesMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		script := make([]byte, 200+rng.Intn(2000))
		rng.Read(script)
		runDegreesScript(t, script)
	}
}

func FuzzDegreesMatchesMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 5, 1, 0, 5, 1, 0, 5})                         // add, then decrement past zero
	f.Add([]byte{6, 0, 10, 129, 2, 0, 1, 6, 1, 40, 3, 7, 0, 0, 100}) // split, clone, write both sides
	f.Add([]byte{3, 0, 200, 7, 3, 1, 9, 5, 0, 1, 5, 0, 0})           // bulk build, absorb, absorb itself
	f.Fuzz(func(t *testing.T, script []byte) { runDegreesScript(t, script) })
}

// TestDegreesCloneSharesUntouchedLeaves: a clone costs no leaf, and a
// write after it copies only the leaves it writes: a clone and two
// writes allocate as many objects on a tally of 100 leaves as on one of
// 10, and neither side sees the other's writes.
func TestDegreesCloneSharesUntouchedLeaves(t *testing.T) {
	allocs := func(leaves int) float64 {
		ids := make([]pg.ID, 0, leaves*leafCap)
		for i := range leaves * leafCap {
			ids = append(ids, pg.ID(i))
		}
		d := countDegrees(ids)
		far := pg.ID(9 * leafCap)
		return testing.AllocsPerRun(20, func() {
			snap := d.Clone()
			d.Add(3, 1)
			d.Add(far, 1)
			if d.Get(3) != snap.Get(3)+1 || d.Get(far) != snap.Get(far)+1 || d.Len() != snap.Len() {
				t.Fatal("a write after a clone reached the other side")
			}
		})
	}
	if small, large := allocs(10), allocs(100); small != large {
		t.Fatalf("a clone and two writes allocate %.0f objects on 10 leaves, %.0f on 100", small, large)
	}
}

// TestDegreesClonesUnderConcurrentReaders: readers clone and read one
// published tally while its writer changes the original. Run with
// -race; every reader must see the tally as it was published.
func TestDegreesClonesUnderConcurrentReaders(t *testing.T) {
	ids := make([]pg.ID, 0, 4*leafCap)
	for i := range 4 * leafCap {
		ids = append(ids, pg.ID(i%(2*leafCap)))
	}
	live := countDegrees(ids)
	published := live.Clone()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				c := published.Clone()
				if c.Len() != 2*leafCap || c.Max() != 2 || c.Get(5) != 2 {
					t.Error("a published tally changed under its reader")
					return
				}
			}
		}()
	}
	for i := range 2 * leafCap {
		live.Dec(pg.ID(i))
		live.Add(pg.ID(i+1000), 3)
	}
	wg.Wait()
	if live.Max() != 3 || live.Len() != 4*leafCap {
		t.Fatalf("writer's tally: Max %d Len %d", live.Max(), live.Len())
	}
}
