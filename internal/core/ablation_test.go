package core

// ablation_test.go exercises, as regular tests, ablations of the
// discovery-core design choices ARCHITECTURE.md describes (hybrid
// vectors, the merge step, θ) — the bench versions live in the root
// bench suite, but the qualitative claims must hold on every test run.

import (
	"math/rand"
	"testing"

	"github.com/pghive/pghive/internal/pg"
)

// hetioLike builds a graph whose types are structurally identical and
// only distinguishable by label — the case the hybrid representation
// (§4.1) exists for.
func hetioLike(n int, noise float64, seed int64) (*pg.Graph, map[pg.ID]string) {
	g := pg.NewGraph()
	truth := map[pg.ID]string{}
	labels := []string{"Gene", "Disease", "Compound", "Anatomy"}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		l := labels[i%len(labels)]
		props := map[string]pg.Value{}
		for _, k := range []string{"identifier", "name"} {
			if rng.Float64() >= noise {
				props[k] = pg.Str("v")
			}
		}
		id := g.AddNode([]string{l}, props)
		truth[id] = l
	}
	return g, truth
}

// purityOf computes majority-cluster purity of node assignments.
func purityOf(res *Result, truth map[pg.ID]string) float64 {
	perType := map[int]map[string]int{}
	for id, ty := range res.NodeAssign.All() {
		if perType[int(ty)] == nil {
			perType[int(ty)] = map[string]int{}
		}
		perType[int(ty)][truth[id]]++
	}
	correct, total := 0, 0
	for _, m := range perType {
		best := 0
		for _, c := range m {
			if c > best {
				best = c
			}
			total += c
		}
		correct += best
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

func TestAblationHybridVectorsSeparateIdenticalStructures(t *testing.T) {
	g, truth := hetioLike(400, 0.3, 41)
	hybrid := Discover(g, Options{Seed: 41})
	flat := Discover(g, Options{Seed: 41, LabelWeight: 0.001})
	if p := purityOf(hybrid, truth); p < 0.99 {
		t.Errorf("hybrid vectors purity = %.3f, want ~1 (labels separate identical structures)", p)
	}
	if p := purityOf(flat, truth); p > 0.9 {
		t.Errorf("props-only purity = %.3f; expected mixing without the label block", p)
	}
}

func TestAblationMergeStepCompactsClusters(t *testing.T) {
	g := socialGraph(300, 1.0, 0.3, 42)
	merged := Discover(g, Options{Seed: 42})
	raw := Discover(g, Options{Seed: 42, DisableMerging: true})
	if len(merged.Schema.NodeTypes) != 4 {
		t.Errorf("merged node types = %d, want 4", len(merged.Schema.NodeTypes))
	}
	if len(raw.Schema.NodeTypes) < 3*len(merged.Schema.NodeTypes) {
		t.Errorf("noise at 30%% should fragment raw clusters well beyond the merged count: %d vs %d",
			len(raw.Schema.NodeTypes), len(merged.Schema.NodeTypes))
	}
}
