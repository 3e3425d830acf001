package schema

// change_test.go exercises the two halves a delta run carries a schema
// change in, on hand-built fixtures: the heads (Persisted) whole, and
// each edge type's degree tallies as keyed.Diff puts and tombstones
// over the tallies' Counts, folded back with Column.Apply and
// DegreesFrom. A
// change that touches a few endpoints must cost a few entries, and the
// two halves must rebuild the target exactly, also when read back from
// their own bytes.

import (
	"bytes"
	"encoding/json"
	"maps"
	"reflect"
	"slices"
	"testing"

	"github.com/pghive/pghive/internal/keyed"
	"github.com/pghive/pghive/internal/pg"
)

// fixtureHeads builds the heads of a schema with two node types and one
// edge type of n instances.
func fixtureHeads(n int) *Persisted {
	return &Persisted{
		Version: persistVersion,
		NodeTypes: []jsonType{
			{ID: 0, Labels: map[string]int{"Person": n}, Token: "Person", Instances: n,
				Props: map[string]jsonProp{"age": {Count: n, Kinds: []int{0, n, 0, 0, 0, 0, 0}, MinInt: 20, MaxInt: 69, HasIntRange: true}}},
			{ID: 1, Labels: map[string]int{"City": 1}, Token: "City", Instances: 1},
		},
		EdgeTypes: []jsonType{
			{ID: 2, Labels: map[string]int{"KNOWS": n}, Token: "KNOWS", Instances: n,
				SrcTokens: []string{"Person"}, DstTokens: []string{"Person"}, Cardinality: 1},
		},
	}
}

// fixtureCounts builds a tally's node counts: n nodes from off.
func fixtureCounts(n, off int) map[pg.ID]int {
	m := make(map[pg.ID]int, n)
	for i := 0; i < n; i++ {
		m[pg.ID(off+i)] = 1 + i%3
	}
	return m
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// viaJSON returns the value a reader of v's bytes would hold.
func viaJSON[T any](t *testing.T, v *T) *T {
	t.Helper()
	out := new(T)
	if err := json.Unmarshal(marshal(t, v), out); err != nil {
		t.Fatal(err)
	}
	return out
}

func restoreHeads(t *testing.T, p *Persisted) *Schema {
	t.Helper()
	s, err := p.Restore()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tallyChange is one side of one edge type's tally change in a run.
type tallyChange struct {
	Put map[pg.ID]int `json:"put,omitempty"`
	Del []pg.ID       `json:"del,omitempty"`
}

// countsColumn is the column of node counts m holds.
func countsColumn(m map[pg.ID]int) keyed.Column[pg.ID, int32] {
	ids := slices.Sorted(maps.Keys(m))
	return keyed.Build(len(ids), func(i int) pg.ID { return ids[i] }, func(i int) int32 { return int32(m[ids[i]]) })
}

func diffCounts(base, next map[pg.ID]int) tallyChange {
	puts, dels := keyed.Diff(countsColumn(base), countsColumn(next))
	c := tallyChange{Del: dels}
	for id, n := range puts.All() {
		if c.Put == nil {
			c.Put = map[pg.ID]int{}
		}
		c.Put[id] = int(n)
	}
	return c
}

// applyCounts folds c onto a column of base's counts and adopts it as a
// tally.
func applyCounts(t *testing.T, base map[pg.ID]int, c tallyChange) Degrees {
	t.Helper()
	counts := countsColumn(base)
	counts.Apply(countsColumn(c.Put), c.Del)
	d, err := DegreesFrom(counts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// document returns the schema document WriteJSON writes for s.
func document(t *testing.T, s *Schema) string {
	t.Helper()
	var b bytes.Buffer
	if err := WriteJSON(&b, s); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSchemaPatchDegreeOnly: growing the edge type by a handful of
// endpoints costs a change proportional to the touched nodes, not to
// the degree tallies, and rebuilds the target schema exactly.
func TestSchemaPatchDegreeOnly(t *testing.T) {
	const n = 1000
	oldSrc, oldDst := fixtureCounts(n, 0), fixtureCounts(n, 1)
	newSrc, newDst := maps.Clone(oldSrc), maps.Clone(oldDst)
	newHeads := fixtureHeads(n)
	et := &newHeads.EdgeTypes[0]
	et.Instances += 5
	et.Labels["KNOWS"] += 5
	for i := 0; i < 5; i++ {
		newSrc[pg.ID(n+i)] = 1
		newDst[pg.ID(i)] += 1
	}
	target := restoreHeads(t, newHeads)
	var err error
	if target.EdgeTypes[0].SrcDeg, err = DegreesOf(newSrc); err == nil {
		target.EdgeTypes[0].DstDeg, err = DegreesOf(newDst)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := document(t, target)

	src, dst := diffCounts(oldSrc, newSrc), diffCounts(oldDst, newDst)
	if len(src.Put) != 5 || len(dst.Put) != 5 || len(src.Del)+len(dst.Del) != 0 {
		t.Fatalf("5 touched endpoints a side diffed to src %+v, dst %+v", src, dst)
	}
	if size := len(marshal(t, newHeads)) + len(marshal(t, &src)) + len(marshal(t, &dst)); size*10 > len(want) {
		t.Fatalf("touching 5 endpoints produced a %d-byte change for a %d-byte schema", size, len(want))
	}

	// Where the values came from must not matter: recovery holds a base
	// and a change it decoded from files.
	for _, decoded := range []bool{false, true} {
		heads, s, d := newHeads, src, dst
		if decoded {
			heads, s, d = viaJSON(t, newHeads), *viaJSON(t, &src), *viaJSON(t, &dst)
		}
		got := restoreHeads(t, heads)
		got.EdgeTypes[0].SrcDeg = applyCounts(t, oldSrc, s)
		got.EdgeTypes[0].DstDeg = applyCounts(t, oldDst, d)
		if document(t, got) != want {
			t.Fatalf("decoded=%v: rebuilt schema differs from target:\n got %s", decoded, document(t, got))
		}
	}
	if !maps.Equal(oldSrc, fixtureCounts(n, 0)) || !maps.Equal(oldDst, fixtureCounts(n, 1)) {
		t.Fatal("rebuilding modified the base tallies")
	}
}

// TestSchemaPatchTypeLifecycle: types appear, change head fields, and
// vanish (merges remove types); membership and order come from the
// heads, and a vanished edge type's tallies are tombstoned whole while
// a new one's are put whole.
func TestSchemaPatchTypeLifecycle(t *testing.T) {
	oldSrc, oldDst := fixtureCounts(10, 0), fixtureCounts(10, 1)
	newHeads := fixtureHeads(10)
	newHeads.NodeTypes = []jsonType{
		newHeads.NodeTypes[0], // Person survives
		{ID: 3, Labels: map[string]int{"Country": 2}, Token: "Country", Instances: 2}, // City replaced
	}
	newHeads.NodeTypes[0].Instances = 12 // head change
	newHeads.EdgeTypes = []jsonType{     // KNOWS merged away, LIVES_IN appears
		{ID: 4, Labels: map[string]int{"LIVES_IN": 3}, Token: "LIVES_IN", Instances: 3,
			SrcTokens: []string{"Person"}, DstTokens: []string{"Country"}, Cardinality: 1},
	}
	livesSrc, livesDst := map[pg.ID]int{0: 1, 1: 1, 2: 1}, map[pg.ID]int{20: 3}

	gone := diffCounts(oldSrc, nil)
	if gone.Put != nil || len(gone.Del) != len(oldSrc) {
		t.Fatalf("a vanished type's tallies diffed to %+v, want all %d nodes tombstoned", gone, len(oldSrc))
	}
	if d := applyCounts(t, oldSrc, *viaJSON(t, &gone)); d.Len() != 0 {
		t.Fatalf("tombstoning every node left %d counts", d.Len())
	}
	if d := diffCounts(oldDst, nil); len(d.Del) != len(oldDst) {
		t.Fatalf("a vanished type's dst tallies diffed to %+v", d)
	}
	src, dst := diffCounts(nil, livesSrc), diffCounts(nil, livesDst)
	if len(src.Del)+len(dst.Del) != 0 {
		t.Fatalf("a new type's tallies diffed to tombstones: src %+v, dst %+v", src, dst)
	}

	got := restoreHeads(t, viaJSON(t, newHeads))
	if !reflect.DeepEqual(Persist(got), Persist(restoreHeads(t, newHeads))) {
		t.Fatalf("lifecycle heads:\n got %s\nwant %s", marshal(t, Persist(got)), marshal(t, newHeads))
	}
	var ids []int
	for _, nt := range got.NodeTypes {
		ids = append(ids, nt.ID)
	}
	for _, et := range got.EdgeTypes {
		ids = append(ids, et.ID)
	}
	if !reflect.DeepEqual(ids, []int{0, 3, 4}) || got.NodeTypes[0].Instances != 12 {
		t.Fatalf("restored types %v (Person instances %d), want [0 3 4] and 12", ids, got.NodeTypes[0].Instances)
	}
	if got.NextTypeID() <= 4 {
		t.Fatalf("next type ID %d would reuse a carried ID", got.NextTypeID())
	}
	et := got.EdgeTypes[0]
	et.SrcDeg, et.DstDeg = applyCounts(t, nil, *viaJSON(t, &src)), applyCounts(t, nil, *viaJSON(t, &dst))
	if !maps.Equal(DegreeCounts[pg.ID](et.SrcDeg), livesSrc) || !maps.Equal(DegreeCounts[pg.ID](et.DstDeg), livesDst) {
		t.Fatalf("new type's tallies rebuilt as %v / %v", DegreeCounts[pg.ID](et.SrcDeg), DegreeCounts[pg.ID](et.DstDeg))
	}
}
