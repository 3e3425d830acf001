package keyed

// column_test.go holds Column to the map it stands for: random scripts
// of sets, deletes, merges of sorted and unsorted runs, clones, and
// diffs applied onto clones run on a few columns and on one reference
// map each, and after every step each column must agree with its map
// and keep its own invariants. A clone gets a map of its own, so a
// write on either side of a clone that reached the other side fails the
// comparison; a diff is held to DiffMap and its apply to ApplyMap
// (keyed_test.go).

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

const colSlots = 4

// colScript reads a script from bytes; it runs out as zeros.
type colScript struct{ b []byte }

func (s *colScript) next() int {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return int(c)
}

// key spreads a byte over negative and positive keys.
func (s *colScript) key() id { return id(int8(s.next())) * 3 }

func (s *colScript) slot() int { return s.next() % colSlots }

// sum is the merges' combine: it keeps combine(0, v) == v.
func sum(old, v int32) int32 { return old + v }

// runColumnScript runs the script and fails t at the first step where a
// column and its reference map disagree.
func runColumnScript(t *testing.T, script []byte) {
	t.Helper()
	s := &colScript{b: script}
	var got [colSlots]Column[id, int32]
	var want [colSlots]map[id]int32
	for i := range want {
		want[i] = map[id]int32{}
	}
	for step := 0; len(s.b) > 0; step++ {
		op := s.next() % 8
		switch op {
		case 0: // set
			i, k, v := s.slot(), s.key(), int32(s.next())
			got[i].Set(k, v)
			want[i][k] = v
		case 1: // delete, present or not
			i, k := s.slot(), s.key()
			if had := got[i].Delete(k); had != hasKey(want[i], k) {
				t.Fatalf("step %d: Delete(%d) reported %v", step, k, had)
			}
			delete(want[i], k)
		case 2: // clone
			from, to := s.slot(), s.slot()
			got[to], want[to] = got[from].Clone(), maps.Clone(want[from])
		case 3, 4: // merge a run, sorted (3) or in the order drawn (4)
			i, n := s.slot(), s.next()*(1+s.next()%3)
			run := map[id]int32{}
			for range n {
				run[s.key()+id(s.next()%3)] = int32(1 + s.next()%5)
			}
			keys := slices.Collect(maps.Keys(run))
			if op == 3 {
				slices.Sort(keys)
			}
			vals := make([]int32, len(keys))
			for j, k := range keys {
				vals[j] = run[k]
				want[i][k] += run[k]
			}
			got[i].Merge(FromRun(keys, vals), sum)
		case 5: // merge a column into itself
			i := s.slot()
			got[i].Merge(got[i], sum)
			for k := range want[i] {
				want[i][k] *= 2
			}
		case 6: // a run of sets or of deletes: splits and empties leaves
			i, start, n, del := s.slot(), s.key(), s.next()%130, s.next()%2 == 0
			for j := range n {
				k := start + id(j)
				if del {
					got[i].Delete(k)
					delete(want[i], k)
				} else {
					got[i].Set(k, int32(j))
					want[i][k] = int32(j)
				}
			}
		case 7: // diff two columns, apply the diff to a clone of the first
			from, next, to := s.slot(), s.slot(), s.slot()
			puts, dels := Diff(got[from], got[next])
			wantPuts, wantDels := DiffMap(want[from], want[next], cmp.Compare[id])
			if msg := columnDiffers(puts, wantPuts); msg != "" {
				t.Fatalf("step %d: Diff puts: %s", step, msg)
			}
			if !slices.Equal(dels, wantDels) {
				t.Fatalf("step %d: Diff dels %v, want %v", step, dels, wantDels)
			}
			// 1<<40 is no key a script makes: deleting it changes nothing.
			got[to] = got[from].Clone()
			got[to].Apply(puts, append(dels, 1<<40))
			want[to] = ApplyMap(maps.Clone(want[from]), wantPuts, append(wantDels, 1<<40))
			if want[to] == nil {
				want[to] = map[id]int32{}
			}
			if !maps.Equal(want[to], want[next]) {
				t.Fatalf("step %d: the oracle's apply of its diff is not the target", step)
			}
			if msg := columnDiffers(puts, wantPuts); msg != "" {
				t.Fatalf("step %d: Apply changed the puts it read: %s", step, msg)
			}
		}
		for i := range got {
			if msg := columnDiffers(got[i], want[i]); msg != "" {
				t.Fatalf("step %d (op %d), column %d: %s", step, op, i, msg)
			}
		}
	}
}

func hasKey(m map[id]int32, k id) bool {
	_, ok := m[k]
	return ok
}

// columnDiffers returns how c differs from m, or how c breaks its own
// invariants; "" when it does neither.
func columnDiffers(c Column[id, int32], m map[id]int32) string {
	if c.Len() != len(m) {
		return fmt.Sprintf("Len %d, want %d", c.Len(), len(m))
	}
	for k, v := range m {
		if got, ok := c.Get(k); !ok || got != v {
			return fmt.Sprintf("Get(%d) = %d, %v, want %d", k, got, ok, v)
		}
	}
	if _, ok := c.Get(1 << 40); ok {
		return "Get of an absent key found it"
	}
	var seen []id
	for k, v := range c.All() {
		if v != m[k] {
			return fmt.Sprintf("All yields %d:%d", k, v)
		}
		seen = append(seen, k)
	}
	if !slices.Equal(seen, slices.Sorted(maps.Keys(m))) {
		return "All is not the map's keys in ascending order"
	}
	if c.r == nil {
		return ""
	}
	total := 0
	for _, l := range c.r.leaves {
		n := len(l.keys())
		switch {
		case n == 0 || n > leafCap:
			return fmt.Sprintf("a leaf holds %d entries", n)
		case len(l.s.keys) != len(l.s.vals):
			return "a slab's keys and values differ in length"
		case l.lo < 0 && int(l.hi) != len(l.s.keys):
			return "a leaf does not span the slab its root made for it"
		}
		total += n
	}
	if total != c.r.n {
		return fmt.Sprintf("root counts %d entries, leaves hold %d", c.r.n, total)
	}
	return ""
}

// TestColumnMatchesMap runs random scripts, long enough to split and
// empty leaves, share them between clones and merge runs of every size
// into columns of every size.
func TestColumnMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		script := make([]byte, 200+rng.Intn(2000))
		rng.Read(script)
		runColumnScript(t, script)
	}
}

func FuzzColumnMatchesMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 5, 1, 1, 0, 5})                                                // set, delete
	f.Add([]byte{6, 0, 10, 129, 1, 2, 0, 1, 6, 1, 40, 3, 1, 0, 0, 100})               // split, clone, write both sides
	f.Add([]byte{3, 0, 200, 2, 4, 1, 100, 1, 4, 0, 9, 0, 5, 0})                       // merge sorted and drawn runs, merge itself
	f.Add([]byte{6, 0, 10, 129, 1, 2, 0, 1, 6, 1, 60, 30, 1, 7, 0, 1, 2, 7, 1, 0, 3}) // diff a column and its clone, both ways
	f.Fuzz(func(t *testing.T, script []byte) { runColumnScript(t, script) })
}

// TestColumnCloneSharesUntouchedLeaves: a clone costs no leaf, and two
// writes after it copy the two leaves they write and no other, on
// either side.
func TestColumnCloneSharesUntouchedLeaves(t *testing.T) {
	keys, vals := make([]id, 10*leafCap), make([]int32, 10*leafCap)
	for i := range keys {
		keys[i] = id(i)
	}
	c := FromRun(keys, vals)
	snap := c.Clone()
	c.Set(3, 1)
	c.Delete(id(9 * leafCap))
	copied := 0
	for i, l := range c.r.leaves {
		if l.s != snap.r.leaves[i].s {
			copied++
		}
	}
	if copied != 2 {
		t.Fatalf("two writes after a clone copied %d of %d leaves, want 2", copied, len(c.r.leaves))
	}
	if v, _ := snap.Get(3); v != 0 || snap.Len() != 10*leafCap || c.Len() != 10*leafCap-1 {
		t.Fatal("a write after a clone reached the other side")
	}
}

// TestColumnShuffledRunEqualsSorted: a run built from shuffled keys is
// the run built from the same keys sorted, entry for entry.
func TestColumnShuffledRunEqualsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 63, 64, 65, 1000} {
		keys := make([]id, n)
		for i := range keys {
			keys[i] = id(rng.Int63n(1<<40) - 1<<39)
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
		vals := make([]int32, len(keys))
		for i := range vals {
			vals[i] = rng.Int31()
		}
		perm := rng.Perm(len(keys))
		sk, sv := make([]id, len(keys)), make([]int32, len(keys))
		for i, j := range perm {
			sk[i], sv[i] = keys[j], vals[j]
		}
		sorted, shuffled := FromRun(slices.Clone(keys), slices.Clone(vals)), FromRun(sk, sv)
		var a, b []string
		for k, v := range sorted.All() {
			a = append(a, fmt.Sprint(k, v))
		}
		for k, v := range shuffled.All() {
			b = append(b, fmt.Sprint(k, v))
		}
		if len(a) != len(keys) || !slices.Equal(a, b) {
			t.Fatalf("n=%d: a shuffled run is not the sorted run", n)
		}
	}
}

// TestColumnBulkBytesPerEntry pins the bulk build's cost: the two slabs
// of 8-byte keys and 4-byte values, a header per leaf and a constant
// number of allocations, at most 13 B per entry — for 10 k and 100 k
// entries alike, with as many mallocs for each.
func TestColumnBulkBytesPerEntry(t *testing.T) {
	build := func(n int) (bytes, mallocs uint64) {
		var samples, counts []uint64
		var ms runtime.MemStats
		for range 3 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			b0, m0 := ms.TotalAlloc, ms.Mallocs
			keys, vals := make([]id, n), make([]int32, n)
			for i := range keys {
				keys[i], vals[i] = id(1_000_000+2*i), int32(i%30)
			}
			c := FromRun(keys, vals)
			runtime.ReadMemStats(&ms)
			if c.Len() != n {
				t.Fatalf("built %d entries of %d", c.Len(), n)
			}
			samples, counts = append(samples, ms.TotalAlloc-b0), append(counts, ms.Mallocs-m0)
		}
		slices.Sort(samples)
		slices.Sort(counts)
		return samples[1], counts[1]
	}
	var mallocs []uint64
	for _, n := range []int{10_000, 100_000} {
		bytes, m := build(n)
		perEntry := float64(bytes) / float64(n)
		t.Logf("%d entries: %d B (%.2f B per entry), %d mallocs", n, bytes, perEntry, m)
		if perEntry > 13 {
			t.Errorf("%d entries cost %.2f B per entry, want at most 13", n, perEntry)
		}
		mallocs = append(mallocs, m)
	}
	if mallocs[0] != mallocs[1] {
		t.Errorf("a bulk build's mallocs follow its size: %d for 10 k entries, %d for 100 k", mallocs[0], mallocs[1])
	}
}

// BenchmarkColumnMerge merges a 1 k batch into a 140 k column, as a
// write merges its elements into the assignments: with the batch's IDs
// ascending (datagen's and the ledger's order), which skips the sort,
// and shuffled. Each op builds the batch's run from its IDs and merges
// it into a fresh clone of the column.
func BenchmarkColumnMerge(b *testing.B) {
	const base, batch = 140_000, 1_000
	keys, vals := make([]id, base), make([]int32, base)
	for i := range keys {
		keys[i], vals[i] = id(i), int32(i%30)
	}
	col := FromRun(keys, vals)
	ascending := make([]id, batch)
	for i := range ascending {
		ascending[i] = id(base + i)
	}
	shuffled := slices.Clone(ascending)
	rand.New(rand.NewSource(1)).Shuffle(batch, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, c := range []struct {
		name string
		ids  []id
	}{{"ascending", ascending}, {"shuffled", shuffled}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				into := col.Clone()
				into.Merge(FromRun(slices.Clone(c.ids), make([]int32, batch)), sum)
				if into.Len() != base+batch {
					b.Fatal("merge lost entries")
				}
			}
		})
	}
}

// TestColumnSetInOrderFillsLeaves: a column set one key at a time in
// ascending order, as a bulk load sets the resolver, fills its leaves
// instead of leaving each half full after a split, and keeps what its
// slabs hold to the entries' bytes.
func TestColumnSetInOrderFillsLeaves(t *testing.T) {
	var c Column[id, int32]
	const n = 10 * leafCap
	for i := range n {
		c.Set(id(3*i), int32(i))
	}
	if len(c.r.leaves) != n/leafCap {
		t.Fatalf("%d entries set in order fill %d leaves, want %d", n, len(c.r.leaves), n/leafCap)
	}
	held := 0
	for _, l := range c.r.leaves {
		held += cap(l.s.keys)*8 + cap(l.s.vals)*4
	}
	if perEntry := float64(held) / n; perEntry > 12 {
		t.Fatalf("slabs hold %.1f B per entry, want 12", perEntry)
	}
	for i := range n {
		if v, ok := c.Get(id(3 * i)); !ok || v != int32(i) {
			t.Fatalf("Get(%d) = %d, %v", 3*i, v, ok)
		}
	}
}

// TestFromRunsMergesRuns: a run made of ascending runs, merged, builds
// the column the same entries build sorted, and a key two runs hold is
// reported, whatever the number of runs.
func TestFromRunsMergesRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, runs := range []int{1, 2, 3, 7, 64} {
		var keys []id
		var vals []int32
		var ends []int
		for range runs {
			n := rng.Intn(200)
			run := make([]id, n)
			for i := range run {
				run[i] = id(rng.Intn(1 << 20))
			}
			slices.Sort(run)
			run = slices.Compact(run)
			for _, k := range run {
				keys, vals = append(keys, k), append(vals, int32(k%7))
			}
			ends = append(ends, len(keys))
		}
		want := map[id]int32{}
		distinct := true
		for i, k := range keys {
			if _, ok := want[k]; ok {
				distinct = false
			}
			want[k] = vals[i]
		}
		if mk, mv := mergeRuns(slices.Clone(keys), slices.Clone(vals), ends); !slices.IsSorted(mk) || len(mv) != len(mk) {
			t.Fatalf("%d runs merge out of order", runs)
		} else {
			for i, k := range mk {
				if mv[i] != int32(k%7) {
					t.Fatalf("%d runs: the merge parts %d from its value", runs, k)
				}
			}
		}
		c, dup, ok := FromRuns(slices.Clone(keys), slices.Clone(vals), ends)
		if ok != distinct {
			t.Fatalf("%d runs: ok = %v (dup %d), want %v", runs, ok, dup, distinct)
		}
		if !ok {
			if n := len(slices.DeleteFunc(slices.Clone(keys), func(k id) bool { return k != dup })); n < 2 {
				t.Fatalf("%d runs: reported %d, which one run holds", runs, dup)
			}
			continue
		}
		var got []id
		for k, v := range c.All() {
			if want[k] != v {
				t.Fatalf("%d runs: %d → %d, want %d", runs, k, v, want[k])
			}
			got = append(got, k)
		}
		if len(got) != len(want) || !slices.IsSorted(got) {
			t.Fatalf("%d runs: %d entries in order %v, want %d ascending", runs, len(got), slices.IsSorted(got), len(want))
		}
	}
}
