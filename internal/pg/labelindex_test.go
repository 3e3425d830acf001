package pg

// labelindex_test.go holds LabelIndex to a label-only *Graph, the form
// every resolver had before it: random scripts of puts, removes, clones
// and seeds must agree with the graph on every handle, and the index's
// wire form must read back as the index.

import (
	"iter"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// labelChoices are the label sets a script draws: the empty set both
// ways, one set spelled in two orders, a label holding the byte a
// NUL-joined key would split on, the empty label and a label twice.
var labelChoices = [][]string{nil, {}, {"A"}, {"B"}, {"A", "B"}, {"B", "A"}, {"A\x00B"}, {""}, {"A", "A"}, {"<&>", "x y"}}

// indexHandle is an index and the graph it must agree with.
type indexHandle struct {
	x LabelIndex
	g *Graph
}

func newOracle() *Graph {
	g := NewGraph()
	g.AllowDanglingEdges(true)
	return g
}

// runIndexScript plays a script: each op is three bytes (what, on which
// handle, and an argument), over IDs 0..15 so that puts collide.
func runIndexScript(t *testing.T, script []byte) {
	hs := []*indexHandle{{g: newOracle()}}
	for len(script) >= 3 {
		op, h, arg := script[0], hs[int(script[1])%len(hs)], script[2]
		script = script[3:]
		id := ID(arg % 16)
		switch op % 5 {
		case 0, 1: // put: the first labels win
			labels := labelChoices[int(arg/16)%len(labelChoices)]
			added := h.x.Put(id, labels)
			if want := h.g.Node(id) == nil; added != want {
				t.Fatalf("Put(%d, %q) = %v, want %v", id, labels, added, want)
			}
			if added {
				if err := h.g.PutNode(id, labels, nil); err != nil {
					t.Fatal(err)
				}
			}
		case 2: // remove
			labels, ok := h.x.Remove(id)
			n := h.g.Node(id)
			if ok != (n != nil) || ok && !slices.Equal(labels, n.Labels) {
				t.Fatalf("Remove(%d) = %q, %v; the graph held %v", id, labels, ok, n)
			}
			h.g.RemoveNode(id)
		case 3: // clone: the new handle is written from here on too
			hs = append(hs, &indexHandle{x: h.x.Clone(), g: h.g.Clone()})
		case 4: // seed a stream with the index, as a resumed stream is
			s := NewJSONLStream(strings.NewReader(""), 0)
			for id, labels := range h.x.All() {
				if err := s.SeedResolver(id, labels); err != nil {
					t.Fatal(err)
				}
			}
			if !s.Resolver().equal(&h.x) {
				t.Fatal("a stream seeded with the index holds another index")
			}
		}
		for _, h := range hs {
			checkIndex(t, h)
		}
	}
	// What turns one handle into another, applied to a clone of the
	// first, gives the second, and changes neither.
	for i := range hs {
		for j := range hs {
			before := hs[i].x.Clone()
			puts, dels := DiffLabelIndex(&hs[i].x, &hs[j].x)
			got := hs[i].x.Clone()
			got.Apply(&puts, dels)
			if !got.equal(&hs[j].x) {
				t.Fatalf("Apply(Diff(%d, %d)) onto %d is not %d", i, j, i, j)
			}
			if !hs[i].x.equal(&before) {
				t.Fatal("Diff or Apply changed the base")
			}
			checkIndex(t, hs[i])
			checkIndex(t, hs[j])
		}
	}
}

// checkIndex fails unless h's index holds what its graph holds: the
// same lookups and tokens, the same nodes in ascending ID order, and a
// wire form that reads back as the index both ways.
func checkIndex(t *testing.T, h *indexHandle) {
	t.Helper()
	for id := ID(0); id < 16; id++ {
		labels, ok := h.x.NodeLabels(id)
		n := h.g.Node(id)
		if ok != (n != nil) || ok && !slices.Equal(labels, n.Labels) {
			t.Fatalf("NodeLabels(%d) = %q, %v; the graph holds %v", id, labels, ok, n)
		}
		tok, labeled := h.x.NodeToken(id)
		if labeled != (ok && len(labels) > 0) || labeled && tok != LabelToken(n.Labels) {
			t.Fatalf("NodeToken(%d) = %q, %v for labels %q", id, tok, labeled, labels)
		}
	}
	if h.x.Len() != h.g.NumNodes() {
		t.Fatalf("Len %d, the graph holds %d nodes", h.x.Len(), h.g.NumNodes())
	}
	var ids []ID
	for id, labels := range h.x.All() {
		if n := h.g.Node(id); n == nil || !slices.Equal(labels, n.Labels) {
			t.Fatalf("All yields %d %q; the graph holds %v", id, labels, n)
		}
		ids = append(ids, id)
	}
	if !slices.IsSorted(ids) || len(ids) != h.g.NumNodes() {
		t.Fatalf("All yields %v", ids)
	}
	if seeded, ok := IndexOf(h.g); !ok || !seeded.equal(&h.x) {
		t.Fatal("the graph, indexed, is another index")
	}
	b, err := h.x.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, n, err := DecodeLabelIndex(b)
	if err != nil || n != len(b) || !back.equal(&h.x) {
		t.Fatalf("DecodeLabelIndex(%s) read %d bytes: %v", b, n, err)
	}
	if again, _ := back.MarshalJSON(); string(again) != string(b) {
		t.Fatalf("encode(decode(b)) = %s, want %s", again, b)
	}
}

// equal reports whether x and y hold the same nodes with the same
// labels, however they number their sets.
func (x *LabelIndex) equal(y *LabelIndex) bool {
	if x.Len() != y.Len() {
		return false
	}
	next, stop := iter.Pull2(y.All())
	defer stop()
	for id, labels := range x.All() {
		yid, ylabels, _ := next()
		if id != yid || !slices.Equal(labels, ylabels) {
			return false
		}
	}
	return true
}

func TestLabelIndexMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 300 {
		script := make([]byte, 30+rng.Intn(300))
		rng.Read(script)
		runIndexScript(t, script)
	}
}

func FuzzLabelIndexMatchesGraph(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0x21, 0, 0, 0x41, 2, 0, 0x01, 0, 0, 0x51})             // put, put again, remove, put with other labels
	f.Add([]byte{0, 0, 0x43, 3, 0, 0, 0, 1, 0x94, 2, 0, 0x03, 0, 0, 0x63})    // clone, then write both sides
	f.Add([]byte{0, 0, 0x50, 0, 0, 0x41, 0, 0, 0x61, 0, 0, 0x72, 0, 0, 0x83}) // one set in two orders, NUL, empty label
	f.Add([]byte{0, 0, 0x95, 4, 0, 0, 3, 0, 0, 2, 1, 0x05, 0, 1, 0x25})       // seed, clone, relabel on the clone
	f.Fuzz(func(t *testing.T, script []byte) { runIndexScript(t, script) })
}

// TestLabelIndexCloneDoesNotAlias: a clone shares its original's table
// but not its room to grow, both ways: a set either side interns after
// the clone is the other side's to number too.
func TestLabelIndexCloneDoesNotAlias(t *testing.T) {
	var x LabelIndex
	x.Put(1, []string{"A"})
	x.sets = slices.Grow(x.sets, 8) // room to append in place
	c := x.Clone()
	x.Put(2, []string{"B"})
	c.Put(3, []string{"C"})
	if labels, _ := c.NodeLabels(3); !slices.Equal(labels, []string{"C"}) {
		t.Fatalf("the clone's node 3 holds %q", labels)
	}
	if labels, _ := x.NodeLabels(2); !slices.Equal(labels, []string{"B"}) {
		t.Fatalf("the original's node 2 holds %q", labels)
	}
	if _, ok := x.NodeLabels(3); ok {
		t.Fatal("a put on the clone reached the original")
	}
	if _, ok := c.NodeLabels(2); ok {
		t.Fatal("a put on the original reached the clone")
	}
	c.Remove(1)
	if _, ok := x.NodeLabels(1); !ok {
		t.Fatal("a remove on the clone reached the original")
	}
	x.Remove(2)
	d := x.Clone()
	d.Put(2, []string{"D"})
	if _, ok := x.NodeLabels(2); ok || x.Len() != 1 {
		t.Fatal("a put on a second clone reached the original")
	}
}
