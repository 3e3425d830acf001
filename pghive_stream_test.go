package pghive_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/datagen"
)

// schemaFingerprint renders every serialization of a schema; two
// schemas with equal fingerprints are bit-identical for every
// consumer of the public API.
func schemaFingerprint(s *pghive.Schema) string {
	return pghive.PGSchema(s, pghive.Strict, "G") +
		pghive.PGSchema(s, pghive.Loose, "G") +
		pghive.XSD(s) +
		pghive.DOT(s, "G")
}

// TestDiscoverStreamMatchesOneShot is the streamed-ingestion
// determinism contract: discovery over a JSONL stream much larger
// than one batch yields a bit-identical schema — and identical
// per-element type assignments — to one-shot Discover over the
// materialized graph, for every batch size and Parallelism value.
func TestDiscoverStreamMatchesOneShot(t *testing.T) {
	d := datagen.Generate(datagen.LDBC(), 0.25, 42)
	g := d.Graph
	var buf bytes.Buffer
	if err := pghive.WriteJSONL(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	total := g.NumNodes() + g.NumEdges()
	if total <= 1000 {
		t.Fatalf("fixture too small (%d elements) to exceed the largest batch size", total)
	}

	for _, par := range []int{1, 4} {
		opts := pghive.Options{Seed: 7, Parallelism: par}
		one := pghive.Discover(g, opts)
		oneFP := schemaFingerprint(one.Schema)
		for _, bs := range []int{1, 7, 1000} {
			name := fmt.Sprintf("par=%d/bs=%d", par, bs)
			res, err := pghive.DiscoverStream(pghive.NewJSONLStream(bytes.NewReader(data), bs), opts, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if fp := schemaFingerprint(res.Schema); fp != oneFP {
				t.Errorf("%s: streamed schema is not bit-identical to one-shot", name)
				continue
			}
			// Element-level agreement, not just schema-level.
			if len(res.NodeAssign) != len(one.NodeAssign) || len(res.EdgeAssign) != len(one.EdgeAssign) {
				t.Fatalf("%s: assignment counts differ", name)
			}
			for id, ty := range one.NodeAssign {
				if got := res.NodeAssign[id]; got == nil || got.Name() != ty.Name() {
					t.Fatalf("%s: node %d assigned %v, want %s", name, id, got, ty.Name())
				}
			}
			for id, ty := range one.EdgeAssign {
				if got := res.EdgeAssign[id]; got == nil || got.Name() != ty.Name() {
					t.Fatalf("%s: edge %d assigned %v, want %s", name, id, got, ty.Name())
				}
			}
		}
	}
}

// The MinHash pipeline streams identically too.
func TestDiscoverStreamMatchesOneShotMinHash(t *testing.T) {
	d := datagen.Generate(datagen.POLE(), 1, 42)
	g := d.Graph
	var buf bytes.Buffer
	if err := pghive.WriteJSONL(&buf, g); err != nil {
		t.Fatal(err)
	}
	opts := pghive.Options{Seed: 7, Method: pghive.MinHash}
	oneFP := schemaFingerprint(pghive.Discover(g, opts).Schema)
	for _, bs := range []int{1, 7, 1000} {
		res, err := pghive.DiscoverStream(pghive.NewJSONLStream(bytes.NewReader(buf.Bytes()), bs), opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if schemaFingerprint(res.Schema) != oneFP {
			t.Errorf("bs=%d: MinHash streamed schema differs from one-shot", bs)
		}
	}
}

// Streaming neo4j-bulk CSV sources matches discovering the one-shot
// CSV load of the same files.
func TestDiscoverStreamCSVMatchesOneShot(t *testing.T) {
	var people, posts, knows, likes strings.Builder
	people.WriteString("id:ID,:LABEL,name,age:int\n")
	posts.WriteString("id:ID,:LABEL,content,score:float\n")
	knows.WriteString(":START_ID,:END_ID,:TYPE,since:int\n")
	likes.WriteString(":START_ID,:END_ID,:TYPE\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&people, "%d,Person,p%d,%d\n", i, i, 20+i)
		fmt.Fprintf(&posts, "%d,Post,c%d,%d.5\n", 100+i, i, i)
		fmt.Fprintf(&knows, "%d,%d,KNOWS,%d\n", i, (i+1)%40, 2000+i)
		fmt.Fprintf(&likes, "%d,%d,LIKES\n", i, 100+(i+3)%40)
	}

	want := pghive.NewGraph()
	for _, nodes := range []string{people.String(), posts.String()} {
		if _, err := pghive.ReadNodesCSV(strings.NewReader(nodes), want); err != nil {
			t.Fatal(err)
		}
	}
	for _, edges := range []string{knows.String(), likes.String()} {
		if _, err := pghive.ReadEdgesCSV(strings.NewReader(edges), want); err != nil {
			t.Fatal(err)
		}
	}
	opts := pghive.Options{Seed: 3}
	oneFP := schemaFingerprint(pghive.Discover(want, opts).Schema)

	for _, bs := range []int{1, 7, 1000} {
		s := pghive.NewCSVStream(
			[]io.Reader{strings.NewReader(people.String()), strings.NewReader(posts.String())},
			[]io.Reader{strings.NewReader(knows.String()), strings.NewReader(likes.String())}, bs)
		res, err := pghive.DiscoverStream(s, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if schemaFingerprint(res.Schema) != oneFP {
			t.Errorf("bs=%d: CSV streamed schema differs from one-shot", bs)
		}
	}
}

// DiscoverStream fills the per-batch memory counters and reports
// batch indices in order; the live heap is the bounded-memory
// evidence surfaced to the CLI's -stream -stats path.
func TestDiscoverStreamBatchCounters(t *testing.T) {
	d := datagen.Generate(datagen.POLE(), 0.5, 42)
	var buf bytes.Buffer
	if err := pghive.WriteJSONL(&buf, d.Graph); err != nil {
		t.Fatal(err)
	}
	var seen []pghive.BatchTiming
	_, err := pghive.DiscoverStream(pghive.NewJSONLStream(&buf, 50), pghive.Options{Seed: 1},
		func(bt pghive.BatchTiming) { seen = append(seen, bt) })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 2 {
		t.Fatalf("want multiple batches, got %d", len(seen))
	}
	for i, bt := range seen {
		if bt.Index != i+1 {
			t.Errorf("batch %d has index %d", i, bt.Index)
		}
		if bt.Nodes+bt.Edges == 0 || bt.Nodes+bt.Edges > 50 {
			t.Errorf("batch %d: %d elements, want 1..50", bt.Index, bt.Nodes+bt.Edges)
		}
		if bt.HeapLiveBytes == 0 {
			t.Errorf("batch %d: HeapLiveBytes not filled", bt.Index)
		}
	}
}

// A broken stream surfaces its error from DiscoverStream.
func TestDiscoverStreamError(t *testing.T) {
	in := `{"kind":"node","id":1}` + "\n" + `{"kind":"widget","id":2}` + "\n"
	_, err := pghive.DiscoverStream(pghive.NewJSONLStream(strings.NewReader(in), 10), pghive.Options{Seed: 1}, nil)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", err)
	}
}
