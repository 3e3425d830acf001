package gmm

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/pghive/pghive/internal/pg"
)

// labeledGraph builds a fully labeled graph with nTypes clearly
// separated node types.
func labeledGraph(n, nTypes int, noise float64, seed int64) *pg.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := pg.NewGraph()
	for i := 0; i < n; i++ {
		ty := i % nTypes
		props := map[string]pg.Value{}
		for p := 0; p < 3; p++ {
			if rng.Float64() >= noise {
				props[fmt.Sprintf("t%d_p%d", ty, p)] = pg.Int(int64(p))
			}
		}
		g.AddNode([]string{fmt.Sprintf("Type%d", ty)}, props)
	}
	return g
}

func TestDiscoverCleanData(t *testing.T) {
	g := labeledGraph(400, 4, 0, 1)
	res, err := Discover(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Components < 4 {
		t.Errorf("components = %d, want >= 4 (one per separated type)", res.Components)
	}
	// On clean data every type label must appear as its own type.
	for ty := 0; ty < 4; ty++ {
		if res.Schema.NodeTypeByToken(fmt.Sprintf("Type%d", ty)) == nil {
			t.Errorf("Type%d missing from GMM schema", ty)
		}
	}
	if res.NodeAssign.Len() != g.NumNodes() {
		t.Errorf("assignments = %d, want %d", res.NodeAssign.Len(), g.NumNodes())
	}
}

func TestDiscoverRejectsUnlabeled(t *testing.T) {
	g := labeledGraph(50, 2, 0, 2)
	g.AddNode(nil, map[string]pg.Value{"x": pg.Int(1)})
	if _, err := Discover(g, Options{Seed: 2}); err != ErrUnlabeled {
		t.Fatalf("err = %v, want ErrUnlabeled (GMMSchema assumes fully labeled data)", err)
	}
}

func TestDiscoverNoEdgeTypes(t *testing.T) {
	g := labeledGraph(100, 2, 0, 3)
	n0 := g.Nodes()[0].ID
	n1 := g.Nodes()[1].ID
	if _, err := g.AddEdge([]string{"REL"}, n0, n1, nil); err != nil {
		t.Fatal(err)
	}
	res, err := Discover(g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schema.EdgeTypes) != 0 {
		t.Error("GMMSchema discovers node types only (Table 1)")
	}
}

func TestDiscoverNoiseGrowsComponents(t *testing.T) {
	clean, err := Discover(labeledGraph(600, 4, 0, 4), Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := Discover(labeledGraph(600, 4, 0.4, 4), Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Noise inflates per-type variance, which drives further BIC
	// splits — the cost growth the paper observes (Fig. 5).
	if noisy.Components < clean.Components {
		t.Errorf("noise should not reduce components: clean=%d noisy=%d",
			clean.Components, noisy.Components)
	}
}

func TestDiscoverSamplingPath(t *testing.T) {
	g := labeledGraph(300, 3, 0.1, 5)
	res, err := Discover(g, Options{Seed: 5, SampleLimit: 50})
	if err != nil {
		t.Fatal(err)
	}
	// All 300 nodes must still be assigned despite fitting on 50.
	if res.NodeAssign.Len() != 300 {
		t.Errorf("assignments = %d, want 300", res.NodeAssign.Len())
	}
}

func TestDiscoverDeterministic(t *testing.T) {
	g := labeledGraph(200, 3, 0.2, 6)
	a, err := Discover(g, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Discover(g, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.Components != b.Components {
		t.Fatalf("non-deterministic: %d vs %d components", a.Components, b.Components)
	}
}

func TestEmptyGraph(t *testing.T) {
	res, err := Discover(pg.NewGraph(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schema.NodeTypes) != 0 {
		t.Error("empty graph must yield empty schema")
	}
}
