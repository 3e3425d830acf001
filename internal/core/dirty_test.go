package core

import (
	"bytes"
	"testing"

	"github.com/pghive/pghive/internal/pg"
)

// TestLiftCoversTalliesOfCompactedType: a retraction that names
// endpoints its edges did not have leaves counts behind in a type it
// empties, and compaction drops the type with them. The lifted delta
// must still be DiffImage's, which tombstones those counts.
func TestLiftCoversTalliesOfCompactedType(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	g := pg.NewGraph()
	for id := pg.ID(1); id <= 4; id++ {
		must(g.PutNode(id, []string{"P"}, nil))
	}
	must(g.PutEdge(10, []string{"R"}, 1, 2, nil))
	must(g.PutEdge(11, []string{"R"}, 3, 2, nil))
	must(g.PutEdge(12, []string{"S"}, 1, 4, nil))
	inc := NewIncremental(Options{Seed: 1, Parallelism: 1})
	inc.ProcessBatch(&pg.Batch{Graph: g, Resolver: g, Index: 1})
	inc.Track()
	before, err := inc.CaptureImage(nil)
	must(err)

	r := pg.NewGraph()
	r.AllowDanglingEdges(true)
	must(r.PutEdge(10, []string{"R"}, 1, 9, nil))
	must(r.PutEdge(11, []string{"R"}, 3, 9, nil))
	must(r.PutEdge(12, []string{"S"}, 1, 4, nil))
	inc.RetractBatch(&pg.Batch{Graph: r, Resolver: r, Index: 2})
	if len(inc.Schema().EdgeTypes) != 0 {
		t.Fatalf("setup: %d edge types survive the retraction, want none", len(inc.Schema().EdgeTypes))
	}

	lifted, _ := inc.Lift(0, &CheckpointExtras{})
	after, err := inc.CaptureImage(nil)
	must(err)
	want, err := DiffImage(before, after)
	must(err)
	got, err := EncodeDelta(lifted)
	must(err)
	wantBytes, err := EncodeDelta(want)
	must(err)
	if !bytes.Equal(got, wantBytes) {
		t.Fatalf("lifted delta differs from DiffImage\n got %s\nwant %s", got, wantBytes)
	}
}
