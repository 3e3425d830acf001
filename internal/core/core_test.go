package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/pghive/pghive/internal/lsh"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

// socialGraph generates a small LDBC-flavoured social network with a
// known schema: Person, Post, Org, Place node types and KNOWS, LIKES,
// WORKS_AT, LOCATED_IN edge types. labelAvail drops labels; noise
// drops properties.
func socialGraph(n int, labelAvail, noise float64, seed int64) *pg.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := pg.NewGraph()
	var persons, posts, orgs, places []pg.ID

	label := func(l ...string) []string {
		if rng.Float64() < labelAvail {
			return l
		}
		return nil
	}
	props := func(m map[string]pg.Value) map[string]pg.Value {
		out := map[string]pg.Value{}
		for k, v := range m {
			if rng.Float64() >= noise {
				out[k] = v
			}
		}
		return out
	}

	for i := 0; i < n; i++ {
		persons = append(persons, g.AddNode(label("Person"), props(map[string]pg.Value{
			"name": pg.Str(fmt.Sprintf("p%d", i)), "gender": pg.Str("x"),
			"bday": pg.ParseLexical("1990-01-02"),
		})))
	}
	for i := 0; i < n/2; i++ {
		posts = append(posts, g.AddNode(label("Post"), props(map[string]pg.Value{
			"content": pg.Str("hi"), "created": pg.ParseLexical("2024-05-01"),
		})))
	}
	for i := 0; i < n/5+1; i++ {
		orgs = append(orgs, g.AddNode(label("Org"), props(map[string]pg.Value{
			"name": pg.Str("o"), "url": pg.Str("u"),
		})))
	}
	for i := 0; i < n/10+1; i++ {
		places = append(places, g.AddNode(label("Place"), props(map[string]pg.Value{
			"name": pg.Str("pl"),
		})))
	}
	pick := func(ids []pg.ID) pg.ID { return ids[rng.Intn(len(ids))] }
	for i := 0; i < n; i++ {
		_, _ = g.AddEdge(label("KNOWS"), pick(persons), pick(persons),
			props(map[string]pg.Value{"since": pg.Int(int64(2000 + i%20))}))
		if len(posts) > 0 {
			_, _ = g.AddEdge(label("LIKES"), pick(persons), pick(posts), nil)
		}
		_, _ = g.AddEdge(label("WORKS_AT"), pick(persons), pick(orgs),
			props(map[string]pg.Value{"from": pg.Int(2010)}))
	}
	for _, o := range orgs {
		_, _ = g.AddEdge(label("LOCATED_IN"), o, pick(places), nil)
	}
	return g
}

func TestDiscoverCleanGraph(t *testing.T) {
	g := socialGraph(200, 1.0, 0, 1)
	res := Discover(g, Options{Seed: 1})
	s := res.Schema
	for _, tok := range []string{"Person", "Post", "Org", "Place"} {
		if s.NodeTypeByToken(tok) == nil {
			t.Errorf("missing node type %q", tok)
		}
	}
	for _, tok := range []string{"KNOWS", "LIKES", "WORKS_AT", "LOCATED_IN"} {
		if s.EdgeTypeByToken(tok) == nil {
			t.Errorf("missing edge type %q", tok)
		}
	}
	if len(s.NodeTypes) != 4 {
		t.Errorf("node types = %d, want exactly 4 on clean data", len(s.NodeTypes))
	}
	if len(s.EdgeTypes) != 4 {
		t.Errorf("edge types = %d, want exactly 4", len(s.EdgeTypes))
	}
	// Every element must be assigned.
	if len(res.NodeAssign) != g.NumNodes() {
		t.Errorf("node assignments = %d, want %d", len(res.NodeAssign), g.NumNodes())
	}
	if len(res.EdgeAssign) != g.NumEdges() {
		t.Errorf("edge assignments = %d, want %d", len(res.EdgeAssign), g.NumEdges())
	}
	// Person properties: all mandatory at 0 noise.
	person := s.NodeTypeByToken("Person")
	for _, k := range []string{"name", "gender", "bday"} {
		if ps := person.Props[k]; ps == nil || !ps.Mandatory {
			t.Errorf("Person.%s should be mandatory on clean data", k)
		}
	}
	if person.Props["bday"].DataType != pg.KindDate {
		t.Errorf("bday type = %v, want DATE", person.Props["bday"].DataType)
	}
	// WORKS_AT: persons work at one org, orgs have many employees.
	wa := s.EdgeTypeByToken("WORKS_AT")
	if wa.Cardinality != schema.CardManyToOne && wa.Cardinality != schema.CardManyToMany {
		t.Errorf("WORKS_AT cardinality = %v", wa.Cardinality)
	}
}

func TestDiscoverMinHash(t *testing.T) {
	g := socialGraph(200, 1.0, 0, 2)
	res := Discover(g, Options{Method: MinHash, Seed: 2})
	s := res.Schema
	if len(s.NodeTypes) != 4 {
		t.Errorf("MinHash node types = %d, want 4", len(s.NodeTypes))
	}
	if len(s.EdgeTypes) != 4 {
		t.Errorf("MinHash edge types = %d, want 4", len(s.EdgeTypes))
	}
}

func TestDiscoverWithNoiseKeepsTypesPure(t *testing.T) {
	for _, m := range []Method{ELSH, MinHash} {
		g := socialGraph(300, 1.0, 0.4, 3)
		res := Discover(g, Options{Method: m, Seed: 3})
		s := res.Schema
		// Labeled merging must still produce exactly the 4 node types:
		// noise fragments clusters but labels reunite them.
		if len(s.NodeTypes) != 4 {
			t.Errorf("%v: node types under 40%% noise = %d, want 4", m, len(s.NodeTypes))
		}
		person := s.NodeTypeByToken("Person")
		if person == nil {
			t.Fatalf("%v: Person missing", m)
		}
		if person.Props["name"] == nil {
			t.Errorf("%v: Person.name lost", m)
		}
		if person.Props["name"].Mandatory {
			t.Errorf("%v: with property noise, name cannot be mandatory", m)
		}
	}
}

func TestDiscoverUnlabeledMergesByStructure(t *testing.T) {
	// 50% label availability: unlabeled Person nodes share their full
	// property set with labeled ones (0 noise), so Jaccard = 1 merges
	// them into the Person type (Example 5).
	g := socialGraph(300, 0.5, 0, 4)
	res := Discover(g, Options{Seed: 4})
	s := res.Schema
	person := s.NodeTypeByToken("Person")
	if person == nil {
		t.Fatal("Person type missing")
	}
	// Person instances should include both labeled and unlabeled
	// halves — allow some slack for nodes captured by other types.
	if person.Instances < 250 {
		t.Errorf("Person.Instances = %d, want ~300 (unlabeled merged in)", person.Instances)
	}
}

func TestDiscoverFullyUnlabeled(t *testing.T) {
	g := socialGraph(200, 0, 0, 5)
	res := Discover(g, Options{Seed: 5})
	s := res.Schema
	if len(s.NodeTypes) == 0 {
		t.Fatal("0% labels must still discover abstract types")
	}
	for _, nt := range s.NodeTypes {
		if !nt.Abstract {
			t.Errorf("type %s should be abstract with no labels", nt.Name())
		}
	}
	if len(res.NodeAssign) != g.NumNodes() {
		t.Error("all nodes must be assigned even without labels")
	}
}

func TestIncrementalMatchesStaticCoverage(t *testing.T) {
	g := socialGraph(300, 1.0, 0.1, 6)
	static := Discover(g, Options{Seed: 6})

	inc := NewIncremental(Options{Seed: 6})
	batches := pg.SplitBatches(g, 5, rand.New(rand.NewSource(6)))
	for _, b := range batches {
		inc.ProcessBatch(b)
	}
	res := inc.Finalize()

	// Same labeled node and edge types must exist (coverage identity;
	// §4.6 incremental guarantee).
	for _, nt := range static.Schema.NodeTypes {
		if nt.Abstract {
			continue
		}
		got := res.Schema.NodeTypeByToken(nt.Token)
		if got == nil {
			t.Errorf("incremental lost node type %q", nt.Token)
			continue
		}
		for k := range nt.Props {
			if got.Props[k] == nil {
				t.Errorf("incremental lost property %s.%s", nt.Token, k)
			}
		}
	}
	for _, et := range static.Schema.EdgeTypes {
		if et.Abstract {
			continue
		}
		if res.Schema.EdgeTypeByToken(et.Token) == nil {
			t.Errorf("incremental lost edge type %q", et.Token)
		}
	}
	if len(res.NodeAssign) != g.NumNodes() {
		t.Errorf("incremental assignments = %d, want %d", len(res.NodeAssign), g.NumNodes())
	}
}

func TestIncrementalSchemaMonotone(t *testing.T) {
	g := socialGraph(200, 0.8, 0.2, 7)
	inc := NewIncremental(Options{Seed: 7})
	batches := pg.SplitBatches(g, 4, rand.New(rand.NewSource(7)))
	seen := map[string]bool{}
	for _, b := range batches {
		inc.ProcessBatch(b)
		now := map[string]bool{}
		for _, nt := range inc.Schema().NodeTypes {
			for l := range nt.Labels {
				now["L:"+l] = true
			}
			for k := range nt.Props {
				now["K:"+k] = true
			}
		}
		for k := range seen {
			if !now[k] {
				t.Fatalf("schema lost %q after batch %d (violates S_i ⊑ S_i+1)", k, b.Index)
			}
		}
		seen = now
	}
}

func TestPinnedParams(t *testing.T) {
	g := socialGraph(100, 1.0, 0, 8)
	p := &lsh.Params{Tables: 10, BucketLength: 1.5}
	res := Discover(g, Options{Seed: 8, NodeParams: p, EdgeParams: p})
	if res.NodeChoice.Params.Tables != 0 {
		t.Error("adaptive choice must stay zero when parameters are pinned")
	}
	if len(res.Schema.NodeTypes) != 4 {
		t.Errorf("pinned params node types = %d, want 4", len(res.Schema.NodeTypes))
	}
}

func TestAdaptiveChoiceRecorded(t *testing.T) {
	g := socialGraph(150, 1.0, 0, 9)
	res := Discover(g, Options{Seed: 9})
	if res.NodeChoice.Params.Tables == 0 || res.NodeChoice.Params.BucketLength <= 0 {
		t.Errorf("adaptive node choice not recorded: %+v", res.NodeChoice)
	}
	if res.EdgeChoice.Params.Tables == 0 {
		t.Errorf("adaptive edge choice not recorded: %+v", res.EdgeChoice)
	}
	if res.NodeChoice.Mu <= 0 {
		t.Error("distance scale µ must be positive")
	}
}

func TestTimingPopulated(t *testing.T) {
	g := socialGraph(200, 1.0, 0, 11)
	res := Discover(g, Options{Seed: 11})
	if res.Timing.Preprocess <= 0 || res.Timing.Cluster <= 0 || res.Timing.Extract <= 0 {
		t.Errorf("phase timings must be positive: %+v", res.Timing)
	}
	if res.Timing.Discovery() != res.Timing.Preprocess+res.Timing.Cluster+res.Timing.Extract {
		t.Error("Discovery() must sum the three discovery phases")
	}
	if res.Timing.Total() < res.Timing.Discovery() {
		t.Error("Total() must include post-processing")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := pg.NewGraph()
	res := Discover(g, Options{Seed: 1})
	if len(res.Schema.NodeTypes) != 0 || len(res.Schema.EdgeTypes) != 0 {
		t.Error("empty graph must yield an empty schema")
	}
}

// TestPerBatchPostProcess: Algorithm 1's per-batch post-processing is
// Finalize after the batch.
func TestPerBatchPostProcess(t *testing.T) {
	g := socialGraph(100, 1.0, 0, 12)
	inc := NewIncremental(Options{Seed: 12})
	batches := pg.SplitBatches(g, 2, rand.New(rand.NewSource(12)))
	inc.ProcessBatch(batches[0])
	if res := inc.Finalize(); res.Timing.PostProcess <= 0 {
		t.Error("mid-stream post-processing must be timed")
	}
	// Constraints must already be available mid-stream.
	person := inc.Schema().NodeTypeByToken("Person")
	if person == nil {
		t.Skip("Person not in first batch")
	}
	if person.Props["name"] != nil && person.Props["name"].DataType == pg.KindInvalid {
		t.Error("mid-stream post-processing did not fill data types")
	}
}
