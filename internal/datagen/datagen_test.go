package datagen

import (
	"testing"

	"github.com/pghive/pghive/internal/pg"
)

func TestAllSpecsGenerate(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			d := Generate(spec, 0.5, 1)
			if d.Graph.NumNodes() == 0 || d.Graph.NumEdges() == 0 {
				t.Fatalf("empty generation: %d nodes, %d edges",
					d.Graph.NumNodes(), d.Graph.NumEdges())
			}
			// Every element has ground truth.
			if len(d.NodeTruth) != d.Graph.NumNodes() {
				t.Errorf("node truth covers %d of %d", len(d.NodeTruth), d.Graph.NumNodes())
			}
			if len(d.EdgeTruth) != d.Graph.NumEdges() {
				t.Errorf("edge truth covers %d of %d", len(d.EdgeTruth), d.Graph.NumEdges())
			}
			// No dangling edges.
			for i := range d.Graph.Edges() {
				e := &d.Graph.Edges()[i]
				if d.Graph.Node(e.Src) == nil || d.Graph.Node(e.Dst) == nil {
					t.Fatalf("dangling edge %d", e.ID)
				}
			}
		})
	}
}

// TestTable2Structure checks each generated dataset reproduces the
// structural multiplicities Table 2 reports: ground-truth type counts,
// label counts, and the type-vs-label inequalities that drive the
// evaluation narratives (multi-label connectomes, shared integration
// labels, edge-label reuse).
func TestTable2Structure(t *testing.T) {
	type want struct {
		nodeTypes, edgeTypes   int
		nodeLabels, edgeLabels int
	}
	wants := map[string]want{
		"POLE":   {11, 17, 11, 16},
		"MB6":    {4, 5, 10, 3},
		"HET.IO": {11, 24, 12, 24},
		"FIB25":  {4, 5, 10, 3},
		"ICIJ":   {5, 14, 6, 14},
		"CORD19": {16, 16, 16, 16},
		"LDBC":   {7, 17, 8, 14},
		"IYP":    {86, 25, 33, 25},
	}
	for _, spec := range All() {
		d := Generate(spec, 1, 7)
		s := d.Stats()
		w, ok := wants[spec.Name]
		if !ok {
			t.Fatalf("missing expectation for %s", spec.Name)
		}
		if s.NodeTypes != w.nodeTypes {
			t.Errorf("%s: node types = %d, want %d", spec.Name, s.NodeTypes, w.nodeTypes)
		}
		if s.EdgeTypes != w.edgeTypes {
			t.Errorf("%s: edge types = %d, want %d", spec.Name, s.EdgeTypes, w.edgeTypes)
		}
		if s.NodeLabels != w.nodeLabels {
			t.Errorf("%s: node labels = %d, want %d", spec.Name, s.NodeLabels, w.nodeLabels)
		}
		if s.EdgeLabels != w.edgeLabels {
			t.Errorf("%s: edge labels = %d, want %d", spec.Name, s.EdgeLabels, w.edgeLabels)
		}
	}
}

func TestPatternHeterogeneity(t *testing.T) {
	// ICIJ and IYP must be far more pattern-heterogeneous than POLE
	// (Table 2: 208 and 1210 node patterns vs 17).
	pole := Generate(POLE(), 1, 3).Stats()
	icij := Generate(ICIJ(), 1, 3).Stats()
	iyp := Generate(IYP(), 1, 3).Stats()
	if icij.NodePatterns <= 2*pole.NodePatterns {
		t.Errorf("ICIJ patterns (%d) should dwarf POLE's (%d)", icij.NodePatterns, pole.NodePatterns)
	}
	if iyp.NodePatterns <= icij.NodePatterns {
		t.Errorf("IYP patterns (%d) should exceed ICIJ's (%d)", iyp.NodePatterns, icij.NodePatterns)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(POLE(), 1, 42)
	b := Generate(POLE(), 1, 42)
	if a.Graph.NumNodes() != b.Graph.NumNodes() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("generation is not deterministic")
	}
	for i := range a.Graph.Nodes() {
		na, nb := &a.Graph.Nodes()[i], &b.Graph.Nodes()[i]
		if na.LabelToken() != nb.LabelToken() || len(na.Props) != len(nb.Props) {
			t.Fatalf("node %d differs between runs", na.ID)
		}
		for k, v := range na.Props.All() {
			if !nb.Props.Get(k).Equal(v) {
				t.Fatalf("node %d prop %q differs", na.ID, k)
			}
		}
	}
}

func TestScale(t *testing.T) {
	small := Generate(LDBC(), 0.25, 1)
	big := Generate(LDBC(), 1, 1)
	ratio := float64(big.Graph.NumNodes()) / float64(small.Graph.NumNodes())
	if ratio < 3 || ratio > 5 {
		t.Errorf("scale 4x should yield ~4x nodes, got ratio %.2f", ratio)
	}
}

func TestInjectNoiseProperties(t *testing.T) {
	d := Generate(POLE(), 1, 5)
	countProps := func(g *pg.Graph) int {
		n := 0
		for i := range g.Nodes() {
			n += len(g.Nodes()[i].Props)
		}
		return n
	}
	before := countProps(d.Graph)
	noisy := InjectNoise(d, 0.4, 1.0, 9)
	after := countProps(noisy.Graph)
	frac := 1 - float64(after)/float64(before)
	if frac < 0.3 || frac > 0.5 {
		t.Errorf("40%% noise removed %.0f%% of properties", frac*100)
	}
	// Original untouched.
	if countProps(d.Graph) != before {
		t.Error("noise injection mutated the source dataset")
	}
	// Ground truth preserved.
	if len(noisy.NodeTruth) != len(d.NodeTruth) {
		t.Error("noise must not alter ground truth")
	}
}

func TestInjectNoiseLabels(t *testing.T) {
	d := Generate(POLE(), 1, 6)
	half := InjectNoise(d, 0, 0.5, 10)
	labeled := 0
	for i := range half.Graph.Nodes() {
		if len(half.Graph.Nodes()[i].Labels) > 0 {
			labeled++
		}
	}
	frac := float64(labeled) / float64(half.Graph.NumNodes())
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("50%% availability kept %.0f%% of node labels", frac*100)
	}
	none := InjectNoise(d, 0, 0, 11)
	for i := range none.Graph.Nodes() {
		if len(none.Graph.Nodes()[i].Labels) != 0 {
			t.Fatal("0% availability must strip every label")
		}
	}
	for i := range none.Graph.Edges() {
		if len(none.Graph.Edges()[i].Labels) != 0 {
			t.Fatal("0% availability must strip edge labels too")
		}
	}
}

func TestInjectNoiseDeterministic(t *testing.T) {
	d := Generate(MB6(), 0.5, 7)
	a := InjectNoise(d, 0.3, 0.5, 13)
	b := InjectNoise(d, 0.3, 0.5, 13)
	for i := range a.Graph.Nodes() {
		na, nb := &a.Graph.Nodes()[i], &b.Graph.Nodes()[i]
		if len(na.Props) != len(nb.Props) || na.LabelToken() != nb.LabelToken() {
			t.Fatal("noise injection is not deterministic")
		}
	}
}

func TestCardinalityShapes(t *testing.T) {
	d := Generate(LDBC(), 1, 8)
	// HAS_CREATOR is ManyToOne: every Post source has exactly one
	// creator edge.
	srcSeen := map[pg.ID]int{}
	for i := range d.Graph.Edges() {
		e := &d.Graph.Edges()[i]
		if d.EdgeTruth[e.ID] == "HAS_CREATOR(Post)" {
			srcSeen[e.Src]++
		}
	}
	for id, n := range srcSeen {
		if n > 1 {
			t.Fatalf("ManyToOne violated: post %d has %d creators", id, n)
		}
	}
}

func TestMixedValueGenerators(t *testing.T) {
	// GIntWithFloats must actually produce both kinds over many draws.
	d := Generate(ICIJ(), 1, 9)
	kinds := map[pg.Kind]int{}
	for i := range d.Graph.Nodes() {
		n := &d.Graph.Nodes()[i]
		if v := n.Props.Get("internal_id"); v.IsValid() {
			kinds[v.Kind()]++
		}
	}
	if kinds[pg.KindInt] == 0 || kinds[pg.KindFloat] == 0 {
		t.Errorf("GIntWithFloats kinds = %v, want both int and float", kinds)
	}
}

func TestByName(t *testing.T) {
	if ByName("POLE") == nil || ByName("IYP") == nil {
		t.Error("ByName lookup failed")
	}
	if ByName("nope") != nil {
		t.Error("unknown name must return nil")
	}
}

func TestIYPSpecStable(t *testing.T) {
	a, b := IYP(), IYP()
	if len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) {
		t.Fatal("IYP spec must be stable across calls")
	}
	for i := range a.Nodes {
		if a.Nodes[i].Name != b.Nodes[i].Name {
			t.Fatal("IYP node specs differ across calls")
		}
	}
}
