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
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

const colSlots = 4

// colScript reads a script from bytes; it runs out as zeros. A sparse
// script draws its keys near the ends of int64 and around the 2^16 span
// that parts a narrow leaf from a wide one.
type colScript struct {
	b      []byte
	sparse bool
}

func (s *colScript) next() int {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return int(c)
}

// sparseBases and sparseOffsets are what a sparse script's keys are
// made of: a base near an end of int64 or well inside it, plus an
// offset at, next to or past the widest span a narrow leaf holds.
var (
	sparseBases   = []id{math.MinInt64, -1 << 50, -1 << 16, 0, 1 << 30, math.MaxInt64 - 1<<17}
	sparseOffsets = []id{0, 1, 2, 3, 5, 8, 13, 1<<16 - 2, 1<<16 - 1, 1 << 16, 1<<16 + 1, 1 << 17}
)

// key spreads a byte over negative and positive keys, or two bytes over
// sparse keys.
func (s *colScript) key() id {
	if !s.sparse {
		return id(int8(s.next())) * 3
	}
	return sparseBases[s.next()%len(sparseBases)] + sparseOffsets[s.next()%len(sparseOffsets)]
}

func (s *colScript) slot() int { return s.next() % colSlots }

// sum is the merges' combine: it keeps combine(0, v) == v.
func sum(old, v int32) int32 { return old + v }

// runColumnScript runs the script and fails t at the first step where a
// column and its reference map disagree.
func runColumnScript(t *testing.T, script []byte, sparse bool) {
	t.Helper()
	s := &colScript{b: script, sparse: sparse}
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
			step := id(1)
			if s.sparse { // runs whose leaves straddle the 2^16 span
				step = 1 << (s.next() % 12)
			}
			for j := range n {
				k := start + id(j)*step
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
	return columnBroken(c)
}

// columnBroken returns how c breaks its own invariants, or "".
func columnBroken(c Column[id, int32]) string {
	if c.r == nil {
		return ""
	}
	total := 0
	for _, l := range c.r.leaves {
		n, keys := l.len(), l.appendKeys(nil)
		switch {
		case n == 0 || n > leafCap:
			return fmt.Sprintf("a leaf holds %d entries", n)
		case keys[0] != l.first:
			return fmt.Sprintf("a leaf's header says it starts at %d; it starts at %d", l.first, keys[0])
		case l.s.narrow() != (uint64(keys[n-1])-uint64(keys[0]) < 1<<16):
			return fmt.Sprintf("a leaf from %d to %d is narrow: %v; a leaf is narrow iff its keys span less than 2^16", keys[0], keys[n-1], l.s.narrow())
		case l.s.narrow() && (l.s.keys != nil || len(l.s.offs) != len(l.s.vals)):
			return "a narrow slab holds keys, or offsets and values of different lengths"
		case !l.s.narrow() && (l.s.offs != nil || len(l.s.keys) != len(l.s.vals)):
			return "a wide slab holds offsets, or keys and values of different lengths"
		case l.lo < 0 && int(l.hi) != len(l.s.vals):
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
// into columns of every size, with dense keys and with sparse ones.
func TestColumnMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 600; i++ {
		script := make([]byte, 200+rng.Intn(2000))
		rng.Read(script)
		runColumnScript(t, script, i%2 == 1)
	}
}

func FuzzColumnMatchesMap(f *testing.F) {
	f.Add(false, []byte{})
	f.Add(false, []byte{0, 0, 5, 1, 1, 0, 5})                                                // set, delete
	f.Add(false, []byte{6, 0, 10, 129, 1, 2, 0, 1, 6, 1, 40, 3, 1, 0, 0, 100})               // split, clone, write both sides
	f.Add(false, []byte{3, 0, 200, 2, 4, 1, 100, 1, 4, 0, 9, 0, 5, 0})                       // merge sorted and drawn runs, merge itself
	f.Add(false, []byte{6, 0, 10, 129, 1, 2, 0, 1, 6, 1, 60, 30, 1, 7, 0, 1, 2, 7, 1, 0, 3}) // diff a column and its clone, both ways
	// Sparse keys: a key is a base byte and an offset byte.
	// 0..9 set, 2^16 set into their leaf widens it, its delete narrows it.
	f.Add(true, []byte{6, 0, 3, 0, 10, 1, 0, 0, 0, 3, 9, 7, 1, 0, 3, 9})
	// 64 keys 2^11 apart make a wide leaf; after a clone, 2^16+1 set
	// into its copy splits it into two narrow halves.
	f.Add(true, []byte{6, 0, 3, 0, 64, 1, 11, 2, 0, 1, 0, 0, 3, 10, 9})
	// MinInt64 and MaxInt64 in one wide leaf; a run up from MinInt64
	// splits it into a narrow leaf and a wide last one; after a clone
	// the run and MaxInt64 are deleted again.
	f.Add(true, []byte{0, 0, 0, 0, 0, 0, 0, 5, 11, 5, 6, 0, 0, 0, 90, 1, 0, 2, 0, 3, 6, 0, 0, 0, 90, 0, 0, 1, 0, 5, 11})
	// At the span edge: 62 keys 2^10 apart, then after a clone 2^16-1
	// set into their leaf (a span of 2^16-1: narrow) and 2^16 (2^16:
	// wide); each side diffed against the other, with 2^16 deleted
	// between, and the diff applied to a clone.
	f.Add(true, []byte{6, 0, 3, 0, 62, 1, 10, 2, 0, 1, 0, 0, 3, 8, 1, 0, 0, 3, 9, 2, 7, 1, 0, 2, 1, 0, 3, 9, 7, 0, 1, 3})
	f.Fuzz(func(t *testing.T, sparse bool, script []byte) { runColumnScript(t, script, sparse) })
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

// TestColumnBulkBytesPerEntry pins the bulk build's cost: its slabs, a
// header per leaf and a constant number of allocations. Dense keys make
// narrow leaves, which Build writes straight from its functions: 2-byte
// offsets and 4-byte values, at most 7 B per entry (12.3 when every key
// took 8 bytes). Keys 2^20 apart make wide leaves, whose run FromRun
// takes over: 8-byte keys and 4-byte values, at most 13 B per entry.
// Either holds for 10 k and 100 k entries alike, with as many mallocs
// for each.
func TestColumnBulkBytesPerEntry(t *testing.T) {
	builds := []struct {
		name  string
		bound float64
		build func(n int) Column[id, int32]
	}{
		{"dense keys, Build", 7, func(n int) Column[id, int32] {
			return Build(n, func(i int) id { return id(1_000_000 + 2*i) }, func(i int) int32 { return int32(i % 30) })
		}},
		{"keys 2^20 apart, FromRun", 13, func(n int) Column[id, int32] {
			keys, vals := make([]id, n), make([]int32, n)
			for i := range keys {
				keys[i], vals[i] = id(i)<<20, int32(i%30)
			}
			return FromRun(keys, vals)
		}},
	}
	for _, b := range builds {
		measure := func(n int) (bytes, mallocs uint64) {
			var samples, counts []uint64
			var ms runtime.MemStats
			for range 3 {
				runtime.GC()
				runtime.ReadMemStats(&ms)
				b0, m0 := ms.TotalAlloc, ms.Mallocs
				c := b.build(n)
				runtime.ReadMemStats(&ms)
				if c.Len() != n {
					t.Fatalf("%s: built %d entries of %d", b.name, c.Len(), n)
				}
				if msg := columnBroken(c); msg != "" {
					t.Fatalf("%s: %s", b.name, msg)
				}
				samples, counts = append(samples, ms.TotalAlloc-b0), append(counts, ms.Mallocs-m0)
			}
			slices.Sort(samples)
			// Another goroutine's allocation can only add to a count.
			return samples[1], slices.Min(counts)
		}
		var mallocs []uint64
		for _, n := range []int{10_000, 100_000} {
			bytes, m := measure(n)
			perEntry := float64(bytes) / float64(n)
			t.Logf("%s, %d entries: %d B (%.2f B per entry), %d mallocs", b.name, n, bytes, perEntry, m)
			if perEntry > b.bound {
				t.Errorf("%s: %d entries cost %.2f B per entry, want at most %.0f", b.name, n, perEntry, b.bound)
			}
			mallocs = append(mallocs, m)
		}
		if mallocs[0] != mallocs[1] {
			t.Errorf("%s: a bulk build's mallocs follow its size: %d for 10 k entries, %d for 100 k", b.name, mallocs[0], mallocs[1])
		}
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
		held += cap(l.s.offs)*2 + cap(l.s.keys)*8 + cap(l.s.vals)*4
	}
	if perEntry := float64(held) / n; perEntry > 6 {
		t.Fatalf("slabs hold %.1f B per entry, want 6: 2-byte offsets and 4-byte values", perEntry)
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

// TestColumnConcurrentClonesRead: Clone may run on any number of
// goroutines at once. Eight readers clone whichever column the writer
// last published, read it whole, and write their own clone, while the
// writer sets runs that split leaves, sets far keys that widen them and
// deletes what narrows them again; every column a reader saw must hold
// what it held when published. Run under -race, this is the check that
// a published leaf, its header's first key included, is never written.
func TestColumnConcurrentClonesRead(t *testing.T) {
	type published struct {
		c   Column[id, int32]
		n   int
		sum int64
	}
	digest := func(c Column[id, int32]) (n int, sum int64) {
		for k, v := range c.All() {
			n, sum = n+1, sum+int64(k)*31+int64(v)
		}
		return n, sum
	}
	var c Column[id, int32]
	var pub atomic.Pointer[published]
	wide := 0 // columns published with a wide leaf
	publish := func() {
		p := &published{c: c.Clone()}
		p.n, p.sum = digest(p.c)
		if c.r != nil && slices.ContainsFunc(c.r.leaves, func(l leaf[id, int32]) bool { return !l.s.narrow() }) {
			wide++
		}
		pub.Store(p)
	}
	publish()
	done := make(chan struct{})
	errs := make(chan string, 8)
	var wg sync.WaitGroup
	for r := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for reads := 0; ; reads++ {
				select {
				case <-done:
					if reads > 0 {
						return
					}
				default:
				}
				p := pub.Load()
				own := p.c.Clone()
				if n, sum := digest(own); n != p.n || sum != p.sum || own.Len() != p.n {
					errs <- fmt.Sprintf("reader %d: a published column changed: %d entries (digest %d), published %d (%d)", r, n, sum, p.n, p.sum)
					return
				}
				own.Set(id(r)<<16, int32(r))
				own.Delete(id(reads % 1000))
				if n, sum := digest(p.c); n != p.n || sum != p.sum {
					errs <- fmt.Sprintf("reader %d: a write to a clone reached the published column", r)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(9))
	for round := range 300 {
		start := id(rng.Intn(1 << 12))
		for j := range id(70) { // splits leaves
			c.Set(start+j, int32(round))
		}
		for range 3 { // widens a leaf, then its delete narrows it
			k := id(rng.Intn(1<<12)) + 1<<17
			c.Set(k, int32(round))
			publish()
			c.Delete(k)
		}
		for range 40 {
			c.Delete(id(rng.Intn(1 << 12)))
		}
		publish()
	}
	close(done)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if wide < 300 {
		t.Errorf("setup: %d of 1,200 published columns had a wide leaf", wide)
	}
}
