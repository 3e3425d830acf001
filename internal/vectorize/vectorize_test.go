package vectorize

import (
	"math"
	"reflect"
	"testing"

	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/word2vec"
)

func exampleGraph(t *testing.T) *pg.Graph {
	t.Helper()
	g := pg.NewGraph()
	bob := g.AddNode([]string{"Person"}, map[string]pg.Value{
		"name": pg.Str("Bob"), "gender": pg.Str("male"), "bday": pg.Str("2/5/1980")})
	alice := g.AddNode(nil, map[string]pg.Value{
		"name": pg.Str("Alice"), "gender": pg.Str("female"), "bday": pg.Str("19/12/1999")})
	org := g.AddNode([]string{"Org."}, map[string]pg.Value{
		"url": pg.Str("example.com"), "name": pg.Str("Example")})
	if _, err := g.AddEdge([]string{"WORKS_AT"}, bob, org, map[string]pg.Value{"from": pg.Int(2000)}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge([]string{"KNOWS"}, bob, alice, nil); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNodeVectorLayout(t *testing.T) {
	g := exampleGraph(t)
	emb := word2vec.NewHashedEmbedder(5)
	keys := g.DistinctNodePropertyKeys() // bday, gender, name, url
	m := Nodes(g.Nodes(), keys, emb)
	if m.Rows() != 3 {
		t.Fatalf("rows = %d, want 3", m.Rows())
	}
	if m.Dim() != 5+len(keys) {
		t.Fatalf("dim = %d, want %d", m.Dim(), 5+len(keys))
	}
	// Bob: Person embedding followed by bits for {bday, gender, name}.
	bob := m.Vecs[0]
	wantEmb := emb.Vector("Person")
	if !reflect.DeepEqual(bob[:5], wantEmb) {
		t.Error("label embedding block mismatch for Bob")
	}
	wantBits := []float64{1, 1, 1, 0} // bday, gender, name, url
	if !reflect.DeepEqual(bob[5:], wantBits) {
		t.Errorf("property bits for Bob = %v, want %v", bob[5:], wantBits)
	}
	// Alice is unlabeled: zero embedding block (Example 3), same
	// property bits as Bob.
	alice := m.Vecs[1]
	for i := 0; i < 5; i++ {
		if alice[i] != 0 {
			t.Fatalf("unlabeled node embedding must be zero, got %v", alice[:5])
		}
	}
	if !reflect.DeepEqual(alice[5:], wantBits) {
		t.Errorf("property bits for Alice = %v, want %v", alice[5:], wantBits)
	}
	if m.Tokens[0] != "Person" || m.Tokens[1] != "" || m.Tokens[2] != "Org." {
		t.Errorf("tokens = %v", m.Tokens)
	}
}

func TestEdgeVectorLayout(t *testing.T) {
	g := exampleGraph(t)
	emb := word2vec.NewHashedEmbedder(4)
	keys := g.DistinctEdgePropertyKeys() // from
	srcToks, dstToks := graphEndpointTokens(g)
	m := EdgesParallel(g.Edges(), keys, emb, srcToks, dstToks, 1)
	if m.Rows() != 2 {
		t.Fatalf("rows = %d, want 2", m.Rows())
	}
	if m.Dim() != 3*4+1 {
		t.Fatalf("dim = %d, want 13 (3d+Q)", m.Dim())
	}
	worksAt := m.Vecs[0]
	if !reflect.DeepEqual(worksAt[0:4], emb.Vector("WORKS_AT")) {
		t.Error("edge-label embedding block mismatch")
	}
	if !reflect.DeepEqual(worksAt[4:8], emb.Vector("Person")) {
		t.Error("source-label embedding block mismatch")
	}
	if !reflect.DeepEqual(worksAt[8:12], emb.Vector("Org.")) {
		t.Error("target-label embedding block mismatch")
	}
	if worksAt[12] != 1 {
		t.Error("property bit for `from` should be set")
	}
	// KNOWS targets the unlabeled Alice: target block must be zero.
	knows := m.Vecs[1]
	for i := 8; i < 12; i++ {
		if knows[i] != 0 {
			t.Fatalf("unlabeled endpoint embedding must be zero, got %v", knows[8:12])
		}
	}
	if knows[12] != 0 {
		t.Error("KNOWS has no `from` property")
	}
}

func TestBuildCorpus(t *testing.T) {
	g := exampleGraph(t)
	corpus := BuildCorpus(g, nil, nil)
	if len(corpus) == 0 {
		t.Fatal("corpus must not be empty")
	}
	// The edge sentence [Person WORKS_AT Org.] must be present.
	found := false
	for _, s := range corpus {
		if len(s) == 3 && s[0] == "Person" && s[1] == "WORKS_AT" && s[2] == "Org." {
			found = true
		}
	}
	if !found {
		t.Error("edge sentence [Person WORKS_AT Org.] missing from corpus")
	}
	// No sentence may have fewer than two non-empty tokens.
	for _, s := range corpus {
		nonEmpty := 0
		for _, w := range s {
			if w != "" {
				nonEmpty++
			}
		}
		if nonEmpty < 2 {
			t.Errorf("sentence %v has fewer than 2 usable tokens", s)
		}
	}
}

func TestCorpusDeduplicationIsLogCapped(t *testing.T) {
	g := pg.NewGraph()
	var prev pg.ID = -1
	for i := 0; i < 1024; i++ {
		id := g.AddNode([]string{"A"}, map[string]pg.Value{"p": pg.Int(1)})
		if prev >= 0 {
			if _, err := g.AddEdge([]string{"R"}, prev, id, nil); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	corpus := BuildCorpus(g, nil, nil)
	// 1024 identical node sentences + 1023 identical edge sentences
	// must collapse to ~log2 multiplicity each, not thousands.
	if len(corpus) > 30 {
		t.Fatalf("corpus size %d; deduplication not applied", len(corpus))
	}
}

func TestTrainEmbedderIntegration(t *testing.T) {
	g := exampleGraph(t)
	m := TrainEmbedder(g, word2vec.Config{Dim: 8, Seed: 1, Epochs: 3})
	if m.Dim() != 8 {
		t.Fatalf("dim = %d", m.Dim())
	}
	v := m.Vector("Person")
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Errorf("trained label vector should be unit norm, got %v", norm)
	}
}

func TestEmptyInputs(t *testing.T) {
	emb := word2vec.NewHashedEmbedder(4)
	m := Nodes(nil, nil, emb)
	if m.Rows() != 0 || m.Dim() != 0 {
		t.Fatalf("empty node matrix: rows=%d dim=%d", m.Rows(), m.Dim())
	}
	me := EdgesParallel(nil, nil, emb, nil, nil, 1)
	if me.Rows() != 0 {
		t.Fatalf("empty edge matrix: rows=%d", me.Rows())
	}
}
