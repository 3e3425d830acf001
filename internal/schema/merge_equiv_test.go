package schema

// merge_equiv_test.go holds the indexed passes 2 and 3 of Algorithm 2
// (mergeUnlabeled over simIndex) to the quadratic oracle in
// merge_ref_test.go: same per-candidate mapping, same type IDs, same
// persisted bytes.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/pghive/pghive/internal/pg"
)

// equivThetas are the thresholds the differential test sweeps: a low
// one that merges across unequal sets (and so ties often), the paper's
// default, exact equality only, and the baselines' "merging off".
var equivThetas = []float64{0.5, 0.9, 1.0, 1.01}

// equivCase is a sequence of candidate batches for one schema. The
// first pre batches populate the schema through the oracle on both
// sides, so the compared batches meet labeled and ABSTRACT types that
// are already there (the incremental case).
type equivCase struct {
	pre   int
	nodes [][]*NodeType
	edges [][]*EdgeType
}

// genEquivCase builds a case from a seed alone; two calls with the same
// arguments return equal but unshared candidates. The vocabularies are
// tiny so that equal signatures, exact Jaccard ties, subsets and empty
// sets are the common case, not the rare one.
func genEquivCase(seed int64, n int) equivCase {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"A", "B", "C"}
	// The last key collides with the encoding of source token "A": the
	// oracle counts the two as one element, and so must the index.
	keys := []string{"k1", "k2", "k3", "k4", "k5", "\x00src:A"}
	pick := func(vocab []string, p float64) []string {
		var out []string
		for _, v := range vocab {
			if rng.Float64() < p {
				out = append(out, v)
			}
		}
		return out
	}
	shape := func() (ls []string, props map[string]pg.Value, instances int) {
		if rng.Float64() < 0.45 {
			ls = pick(labels, 0.4)
		}
		props = map[string]pg.Value{}
		if rng.Float64() < 0.85 { // else: an empty property set
			for _, k := range pick(keys[:5], 0.45) {
				props[k] = pg.Int(int64(rng.Intn(10)))
			}
			if rng.Float64() < 0.05 {
				props[keys[5]] = pg.Str("x")
			}
		}
		if rng.Float64() < 0.92 { // else: Instances == 0, to be skipped
			instances = 1 + rng.Intn(3)
		}
		return ls, props, instances
	}
	ec := equivCase{pre: rng.Intn(2)}
	for b := 0; b < ec.pre+1+rng.Intn(2); b++ {
		var nodes []*NodeType
		var edges []*EdgeType
		for i := 0; i < n; i++ {
			ls, props, instances := shape()
			c := NewNodeCandidate()
			for j := 0; j < instances; j++ {
				c.observe(ls, pg.PropsOf(props))
			}
			c.Token = pg.LabelToken(c.SortedLabels())
			nodes = append(nodes, c)
		}
		for i := 0; i < n; i++ {
			ls, props, instances := shape()
			c := NewEdgeCandidate()
			for j := 0; j < instances; j++ {
				c.observe(ls, pg.PropsOf(props))
				c.SrcDeg.Add(pg.ID(rng.Intn(4)), 1)
				c.DstDeg.Add(pg.ID(rng.Intn(4)), 1)
			}
			for _, tok := range pick(labels, 0.3) {
				c.SrcTokens[tok] = true
			}
			for _, tok := range pick(labels, 0.3) {
				c.DstTokens[tok] = true
			}
			c.Token = pg.LabelToken(c.SortedLabels())
			edges = append(edges, c)
		}
		ec.nodes = append(ec.nodes, nodes)
		ec.edges = append(ec.edges, edges)
	}
	return ec
}

// typeIDs lists the type each candidate ended up in (-1 for a skipped
// candidate), then the schema's types in order.
func typeIDs[T interface {
	comparable
	core() *Type
}](res, types []T) []int {
	var skipped T
	var ids []int
	for _, list := range [][]T{res, types} {
		for _, t := range list {
			if t == skipped {
				ids = append(ids, -1)
			} else {
				ids = append(ids, t.core().ID)
			}
		}
	}
	return ids
}

// checkExtractEquivalence runs one generated case through the indexed
// implementation and the oracle and fails on the first difference.
func checkExtractEquivalence(t *testing.T, seed int64, n int, theta float64) {
	t.Helper()
	got, want := genEquivCase(seed, n), genEquivCase(seed, n)
	gs, ws := New(), New()
	for b := range got.nodes {
		wn := ws.referenceExtractNodeTypes(want.nodes[b], theta)
		we := ws.referenceExtractEdgeTypes(want.edges[b], theta)
		var gn []*NodeType
		var ge []*EdgeType
		if b < got.pre {
			gn = gs.referenceExtractNodeTypes(got.nodes[b], theta)
			ge = gs.referenceExtractEdgeTypes(got.edges[b], theta)
		} else {
			gn = gs.ExtractNodeTypes(got.nodes[b], theta)
			ge = gs.ExtractEdgeTypes(got.edges[b], theta)
		}
		if g, w := typeIDs(gn, gs.NodeTypes), typeIDs(wn, ws.NodeTypes); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("seed %d n %d θ %v batch %d: node mapping+types\n got  %v\n want %v", seed, n, theta, b, g, w)
		}
		if g, w := typeIDs(ge, gs.EdgeTypes), typeIDs(we, ws.EdgeTypes); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("seed %d n %d θ %v batch %d: edge mapping+types\n got  %v\n want %v", seed, n, theta, b, g, w)
		}
	}
	var gj, wj bytes.Buffer
	if err := WriteJSON(&gj, gs); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&wj, ws); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj.Bytes(), wj.Bytes()) {
		t.Fatalf("seed %d n %d θ %v: persisted schemas differ\n got  %s\n want %s", seed, n, theta, gj.Bytes(), wj.Bytes())
	}
}

func TestExtractEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		for _, theta := range equivThetas {
			checkExtractEquivalence(t, seed, int(3+seed%40), theta)
		}
	}
}

func FuzzExtractEquivalence(f *testing.F) {
	for i := range equivThetas {
		f.Add(int64(i+1), uint8(20), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, theta uint8) {
		checkExtractEquivalence(t, seed, int(n%64), equivThetas[int(theta)%len(equivThetas)])
	})
}

// TestExtractThetaAboveOneSkipsSimilarity pins what θ > 1 means: no
// Jaccard merging, so every unlabeled candidate becomes its own
// ABSTRACT type in candidate order — even next to identical ones —
// exactly as the full scan decided before it was short-circuited.
func TestExtractThetaAboveOneSkipsSimilarity(t *testing.T) {
	build := func() (*Schema, []*NodeType, []*EdgeType) {
		s := New()
		s.ExtractNodeTypes([]*NodeType{labeledCand([]string{"P"}, "a", "b"), labeledCand(nil, "a", "b")}, 0)
		s.ExtractEdgeTypes([]*EdgeType{edgeCand([]string{"R"}, "P", "P", "w"), edgeCand(nil, "P", "P", "w", "x")}, 0.9)
		nodes := []*NodeType{labeledCand(nil, "a", "b"), labeledCand([]string{"P"}, "c"), labeledCand(nil, "a", "b"), labeledCand(nil)}
		edges := []*EdgeType{edgeCand(nil, "P", "P", "w"), edgeCand(nil, "P", "P", "w"), edgeCand([]string{"R"}, "P", "P"), edgeCand(nil, "", "")}
		return s, nodes, edges
	}
	gs, gnc, gec := build()
	ws, wnc, wec := build()
	gn, ge := gs.ExtractNodeTypes(gnc, 1.01), gs.ExtractEdgeTypes(gec, 1.01)
	wn, we := ws.referenceExtractNodeTypes(wnc, 1.01), ws.referenceExtractEdgeTypes(wec, 1.01)
	if g, w := fmt.Sprint(typeIDs(gn, gs.NodeTypes)), fmt.Sprint(typeIDs(wn, ws.NodeTypes)); g != w {
		t.Errorf("nodes: got %v, want %v", g, w)
	}
	if g, w := fmt.Sprint(typeIDs(ge, gs.EdgeTypes)), fmt.Sprint(typeIDs(we, ws.EdgeTypes)); g != w {
		t.Errorf("edges: got %v, want %v", g, w)
	}
	for _, i := range []int{0, 2, 3} {
		if gn[i] != gnc[i] || !gn[i].Abstract {
			t.Errorf("unlabeled node candidate %d did not become its own ABSTRACT type", i)
		}
	}
	for _, i := range []int{0, 1, 3} {
		if ge[i] != gec[i] || !ge[i].Abstract {
			t.Errorf("unlabeled edge candidate %d did not become its own ABSTRACT type", i)
		}
	}
	if gn[0].ID >= gn[2].ID || gn[2].ID >= gn[3].ID || ge[0].ID >= ge[1].ID || ge[1].ID >= ge[3].ID {
		t.Error("new ABSTRACT types must take IDs in candidate order")
	}
}

// TestExtractEdgeTypesAllocScaling is the scaling law of the
// similarity index: with the unlabeled candidates fixed, allocations
// grow by a constant per pre-existing schema type — O(candidates +
// types) — where the pairwise scan built one key set per (candidate,
// type) pair and so doubled when the types did.
func TestExtractEdgeTypesAllocScaling(t *testing.T) {
	const nCands = 300
	setup := func(nTypes int) (*Schema, []*EdgeType) {
		s := New()
		var pre []*EdgeType
		for i := 0; i < nTypes; i++ {
			// Half labeled, half ABSTRACT, over a fixed key vocabulary
			// (bit j of i selects key tj); every type shares keys and an
			// endpoint with the candidates without reaching θ.
			var ls []string
			if i%2 == 0 {
				ls = []string{fmt.Sprintf("L%d", i)}
			}
			keys := []string{"a", "b"}
			for j := 0; j < 10; j++ {
				if i>>j&1 == 1 {
					keys = append(keys, fmt.Sprintf("t%d", j))
				}
			}
			pre = append(pre, edgeCand(ls, "P", "T", keys...))
		}
		s.AppendEdgeTypes(pre)
		cands := make([]*EdgeType, nCands)
		for i := range cands {
			cands[i] = edgeCand(nil, "P", fmt.Sprintf("C%d", i%50), "a", "b", fmt.Sprintf("c%d", i%50))
		}
		return s, cands
	}
	extractAllocs := func(nTypes int) float64 {
		both := testing.AllocsPerRun(5, func() {
			s, cands := setup(nTypes)
			s.ExtractEdgeTypes(cands, 0.9)
			if len(s.EdgeTypes) != nTypes+50 {
				t.Fatalf("want %d edge types, got %d", nTypes+50, len(s.EdgeTypes))
			}
		})
		return both - testing.AllocsPerRun(5, func() { setup(nTypes) })
	}
	const nTypes = 200
	base, doubled := extractAllocs(nTypes), extractAllocs(2*nTypes)
	t.Logf("ExtractEdgeTypes allocations: %d candidates vs %d types: %.0f, vs %d types: %.0f", nCands, nTypes, base, 2*nTypes, doubled)
	if perType := (doubled - base) / nTypes; perType > 4 {
		t.Errorf("%.1f allocations per added schema type, want a small constant", perType)
	}
	if doubled > 1.5*base {
		t.Errorf("doubling the schema's types took allocations from %.0f to %.0f", base, doubled)
	}
}
