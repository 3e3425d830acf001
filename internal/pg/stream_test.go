package pg

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
)

// drain consumes a stream, asserting the StreamReader contract on
// every batch: bounded size, 1-based contiguous indices, label-only
// resolver bookkeeping. It returns the union of the batch graphs.
func drain(t *testing.T, r StreamReader, batchSize int) (*Graph, int) {
	t.Helper()
	union := NewGraph()
	union.AllowDanglingEdges(true)
	batches := 0
	for {
		b, err := r.Next()
		if err == io.EOF {
			// A finished stream stays finished.
			if _, err := r.Next(); err != io.EOF {
				t.Fatalf("Next after EOF = %v, want io.EOF", err)
			}
			return union, batches
		}
		if err != nil {
			t.Fatal(err)
		}
		batches++
		if b.Index != batches {
			t.Fatalf("batch index %d, want %d", b.Index, batches)
		}
		if n := b.Graph.NumNodes() + b.Graph.NumEdges(); n == 0 || n > batchSize {
			t.Fatalf("batch %d holds %d elements, want 1..%d", b.Index, n, batchSize)
		}
		// The resolver is endpoint bookkeeping, not a graph copy: it
		// holds every node seen so far (including this batch's) with
		// its labels.
		for i := range b.Graph.Nodes() {
			n := &b.Graph.Nodes()[i]
			labels, ok := b.Resolver.NodeLabels(n.ID)
			if !ok {
				t.Fatalf("batch %d: node %d missing from resolver", b.Index, n.ID)
			}
			if !slices.Equal(labels, n.Labels) {
				t.Fatalf("batch %d: resolver holds node %d with %v, want %v", b.Index, n.ID, labels, n.Labels)
			}
			if err := union.PutNode(n.ID, n.Labels, n.Props); err != nil {
				t.Fatal(err)
			}
		}
		for i := range b.Graph.Edges() {
			e := &b.Graph.Edges()[i]
			if err := union.PutEdge(e.ID, e.Labels, e.Src, e.Dst, e.Props); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sameGraph asserts two graphs hold identical elements.
func sameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("got %d nodes / %d edges, want %d / %d",
			got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for i := range want.Nodes() {
		w := &want.Nodes()[i]
		g := got.Node(w.ID)
		if g == nil || LabelToken(g.Labels) != LabelToken(w.Labels) || len(g.Props) != len(w.Props) {
			t.Fatalf("node %d differs: %+v vs %+v", w.ID, g, w)
		}
		for k, v := range w.Props.All() {
			if !g.Props.Get(k).Equal(v) {
				t.Fatalf("node %d prop %q: %#v vs %#v", w.ID, k, g.Props.Get(k), v)
			}
		}
	}
	for i := range want.Edges() {
		w := &want.Edges()[i]
		g := got.Edge(w.ID)
		if g == nil || g.Src != w.Src || g.Dst != w.Dst || LabelToken(g.Labels) != LabelToken(w.Labels) {
			t.Fatalf("edge %d differs: %+v vs %+v", w.ID, g, w)
		}
	}
}

func TestJSONLStreamPartition(t *testing.T) {
	g, _ := buildExampleGraph(t)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	total := g.NumNodes() + g.NumEdges()
	for _, bs := range []int{1, 3, 5, 100} {
		union, batches := drain(t, NewJSONLStream(bytes.NewReader(data), bs), bs)
		sameGraph(t, union, g)
		want := (total + bs - 1) / bs
		if bs < total && batches != want {
			t.Errorf("batchSize %d: %d batches, want %d", bs, batches, want)
		}
	}
}

func TestJSONLStreamDefaultBatchSize(t *testing.T) {
	g, _ := buildExampleGraph(t)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, g); err != nil {
		t.Fatal(err)
	}
	union, batches := drain(t, NewJSONLStream(&buf, 0), DefaultStreamBatchSize)
	sameGraph(t, union, g)
	if batches != 1 {
		t.Errorf("small graph under default batch size: %d batches, want 1", batches)
	}
}

// Streamed reads reject the same malformed lines as the one-shot
// loader, with the same line numbers, and the error is sticky.
func TestJSONLStreamErrors(t *testing.T) {
	in := `{"kind":"node","id":1}` + "\n" +
		`{"kind":"node","id":2,"props":{"x":{"t":"int","v":"nope"}}}` + "\n"
	s := NewJSONLStream(strings.NewReader(in), 1)
	if _, err := s.Next(); err != nil { // batch {node 1}
		t.Fatal(err)
	}
	_, err := s.Next()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", err)
	}
	if _, err2 := s.Next(); err2 != err {
		t.Fatalf("error must be sticky, got %v", err2)
	}

	// A node ID duplicated across batches is caught by the resolver.
	dup := `{"kind":"node","id":7}` + "\n" + `{"kind":"node","id":7}` + "\n"
	s = NewJSONLStream(strings.NewReader(dup), 1)
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err == nil || !strings.Contains(err.Error(), "duplicate node id") {
		t.Fatalf("cross-batch duplicate node must error, got %v", err)
	}
}

func TestCSVStreamMatchesOneShot(t *testing.T) {
	// One-shot reference load.
	want := NewGraph()
	if _, err := ReadNodesCSV(strings.NewReader(nodesCSV), want); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEdgesCSV(strings.NewReader(edgesCSV), want); err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 2, 4, 100} {
		s := NewCSVStream(
			[]io.Reader{strings.NewReader(nodesCSV)},
			[]io.Reader{strings.NewReader(edgesCSV)}, bs)
		union, _ := drain(t, s, bs)
		sameGraph(t, union, want)
	}
}

func TestCSVStreamMultipleSources(t *testing.T) {
	nodesA := "id:ID,:LABEL\n1,A\n2,A\n"
	nodesB := "id:ID,:LABEL\n3,B\n"
	edges := ":START_ID,:END_ID,:TYPE\n1,3,R\n2,3,R\n"
	s := NewCSVStream(
		[]io.Reader{strings.NewReader(nodesA), strings.NewReader(nodesB)},
		[]io.Reader{strings.NewReader(edges)}, 2)
	union, _ := drain(t, s, 2)
	if union.NumNodes() != 3 || union.NumEdges() != 2 {
		t.Fatalf("union: %d nodes, %d edges", union.NumNodes(), union.NumEdges())
	}
	// Edge IDs are assigned sequentially across the whole stream.
	if union.Edge(0) == nil || union.Edge(1) == nil {
		t.Fatal("edge IDs must be stream-sequential starting at 0")
	}
}

func TestCSVStreamErrors(t *testing.T) {
	// Endpoints are validated against the accumulated bookkeeping.
	s := NewCSVStream(
		[]io.Reader{strings.NewReader("id:ID\n1\n")},
		[]io.Reader{strings.NewReader(":START_ID,:END_ID\n1,99\n")}, 10)
	_, err := s.Next()
	if err == nil || !strings.Contains(err.Error(), "node 99 not found") {
		t.Fatalf("dangling CSV edge must error, got %v", err)
	}

	// Node IDs duplicated across sources are caught.
	s = NewCSVStream([]io.Reader{
		strings.NewReader("id:ID\n1\n"),
		strings.NewReader("id:ID\n1\n"),
	}, nil, 1)
	var last error
	for last == nil {
		_, last = s.Next()
	}
	if last == io.EOF || !strings.Contains(last.Error(), "duplicate node id") {
		t.Fatalf("cross-source duplicate node must error, got %v", last)
	}

	// Header errors surface on the first Next that reaches the source.
	s = NewCSVStream([]io.Reader{strings.NewReader("name\nx\n")}, nil, 1)
	if _, err := s.Next(); err == nil || !strings.Contains(err.Error(), ":ID") {
		t.Fatalf("missing :ID header must error, got %v", err)
	}
}

// The memory contract: while streaming a graph much larger than one
// batch, the reader retains only the resolver bookkeeping — a label
// index of the nodes — plus the batch under construction. (Batch graphs themselves are handed off and not
// retained; this is what keeps streamed ingestion bounded.)
func TestStreamBoundedBookkeeping(t *testing.T) {
	var buf bytes.Buffer
	g := NewGraph()
	for i := 0; i < 500; i++ {
		g.AddNode([]string{"N"}, map[string]Value{
			"payload": Str(strings.Repeat("x", 100)), "i": Int(int64(i)),
		})
	}
	for i := 0; i < 499; i++ {
		if _, err := g.AddEdge([]string{"R"}, ID(i), ID(i+1), map[string]Value{"w": Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteJSONL(&buf, g); err != nil {
		t.Fatal(err)
	}
	s := NewJSONLStream(&buf, 50)
	union, batches := drain(t, s, 50)
	sameGraph(t, union, g)
	if batches != 20 {
		t.Fatalf("batches = %d, want 20", batches)
	}
	// After draining, the reader's bookkeeping is exactly the node
	// set.
	if s.resolver.Len() != 500 {
		t.Fatalf("resolver: %d nodes, want 500", s.resolver.Len())
	}
	// The batch under construction was handed off: nothing pending.
	if s.cur.NumNodes()+s.cur.NumEdges() != 0 {
		t.Fatalf("reader retains %d pending elements after EOF", s.cur.NumNodes()+s.cur.NumEdges())
	}
}
