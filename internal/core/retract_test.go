package core

import (
	"math/rand"
	"testing"

	"github.com/pghive/pghive/internal/pg"
)

func TestRetractBatchRemovesContribution(t *testing.T) {
	g := socialGraph(200, 1.0, 0, 31)
	inc := NewIncremental(Options{Seed: 31})
	batches := pg.SplitBatches(g, 2, rand.New(rand.NewSource(31)))
	inc.ProcessBatch(batches[0])
	inc.ProcessBatch(batches[1])

	person := inc.Schema().NodeTypeByToken("Person")
	before := person.Instances

	// Count batch-1 Person nodes.
	b1Persons := 0
	for i := range batches[1].Graph.Nodes() {
		if batches[1].Graph.Nodes()[i].LabelToken() == "Person" {
			b1Persons++
		}
	}
	bt := inc.RetractBatch(batches[1])
	if bt.Timing.Extract <= 0 {
		t.Error("retraction must be timed")
	}
	if got := person.Instances; got != before-b1Persons {
		t.Errorf("Person instances after retract = %d, want %d", got, before-b1Persons)
	}
	// Retracted elements lose their assignment.
	for i := range batches[1].Graph.Nodes() {
		if inc.result.NodeTypeOf(batches[1].Graph.Nodes()[i].ID) != nil {
			t.Fatal("retracted node still assigned")
		}
	}
	// Remaining elements keep theirs.
	for i := range batches[0].Graph.Nodes() {
		if inc.result.NodeTypeOf(batches[0].Graph.Nodes()[i].ID) == nil {
			t.Fatal("surviving node lost its assignment")
		}
	}
}

func TestRetractEverythingEmptiesSchema(t *testing.T) {
	g := socialGraph(100, 1.0, 0.2, 32)
	inc := NewIncremental(Options{Seed: 32})
	b := &pg.Batch{Graph: g, Resolver: g, Index: 1}
	inc.ProcessBatch(b)
	if len(inc.Schema().NodeTypes) == 0 {
		t.Fatal("setup failed")
	}
	inc.RetractBatch(b)
	if n := len(inc.Schema().NodeTypes); n != 0 {
		t.Errorf("node types after full retraction = %d, want 0", n)
	}
	if n := len(inc.Schema().EdgeTypes); n != 0 {
		t.Errorf("edge types after full retraction = %d, want 0", n)
	}
}

func TestRetractThenReprocessMatchesFresh(t *testing.T) {
	// add A, add B, retract B ≍ add A (for labeled type coverage and
	// instance counts).
	g := socialGraph(150, 1.0, 0.1, 33)
	batches := pg.SplitBatches(g, 2, rand.New(rand.NewSource(33)))

	inc := NewIncremental(Options{Seed: 33})
	inc.ProcessBatch(batches[0])
	wantInstances := map[string]int{}
	for _, nt := range inc.Schema().NodeTypes {
		if !nt.Abstract {
			wantInstances[nt.Token] = nt.Instances
		}
	}
	inc.ProcessBatch(batches[1])
	inc.RetractBatch(batches[1])

	for tok, want := range wantInstances {
		nt := inc.Schema().NodeTypeByToken(tok)
		if nt == nil {
			t.Fatalf("type %q lost after retract", tok)
		}
		if nt.Instances != want {
			t.Errorf("type %q instances = %d, want %d", tok, nt.Instances, want)
		}
	}
}

func TestRetractUpdatesConstraints(t *testing.T) {
	// One Person lacks `gender`; after retracting it, gender becomes
	// mandatory again.
	g := pg.NewGraph()
	for i := 0; i < 10; i++ {
		g.AddNode([]string{"Person"}, map[string]pg.Value{
			"name": pg.Str("x"), "gender": pg.Str("f")})
	}
	odd := g.AddNode([]string{"Person"}, map[string]pg.Value{"name": pg.Str("odd")})

	inc := NewIncremental(Options{Seed: 34})
	inc.ProcessBatch(&pg.Batch{Graph: g, Resolver: g, Index: 1})
	res := inc.Finalize()
	person := res.Schema.NodeTypeByToken("Person")
	if person.Props["gender"].Mandatory {
		t.Fatal("gender cannot be mandatory while the odd node is present")
	}

	rb := pg.NewGraph()
	rb.AllowDanglingEdges(true)
	n := g.Node(odd)
	_ = rb.PutNode(n.ID, n.Labels, n.Props)
	inc.RetractBatch(&pg.Batch{Graph: rb, Resolver: g, Index: 2})
	inc.Finalize()
	if !person.Props["gender"].Mandatory {
		t.Error("gender must be mandatory after the deviant instance is deleted")
	}
}

func TestRetractUnknownElementsIsNoop(t *testing.T) {
	g := socialGraph(50, 1.0, 0, 35)
	inc := NewIncremental(Options{Seed: 35})
	inc.ProcessBatch(&pg.Batch{Graph: g, Resolver: g, Index: 1})
	types := len(inc.Schema().NodeTypes)

	foreign := pg.NewGraph()
	foreign.AllowDanglingEdges(true)
	_ = foreign.PutNode(9999, []string{"Ghost"}, nil)
	inc.RetractBatch(&pg.Batch{Graph: foreign, Resolver: foreign, Index: 2})
	if len(inc.Schema().NodeTypes) != types {
		t.Error("retracting unseen elements must not change the schema")
	}
}
