package schema

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pghive/pghive/internal/pg"
)

func TestRetractReversesObserve(t *testing.T) {
	nodes := []pg.Node{
		{ID: 0, Labels: []string{"T"}, Props: pg.PropsOf(map[string]pg.Value{
			"a": pg.Int(5), "s": pg.Str("x")})},
		{ID: 1, Labels: []string{"T"}, Props: pg.PropsOf(map[string]pg.Value{
			"a": pg.Int(9)})},
	}
	cands := BuildNodeCandidates(nodes, []int{0, 0}, 1)
	ty := cands[0]
	// Retract node 1.
	ty.Retract(nodes[1].Labels, nodes[1].Props)
	if ty.Instances != 1 {
		t.Errorf("Instances = %d, want 1", ty.Instances)
	}
	if ty.Props["a"].Count != 1 || ty.Props["a"].Kinds[pg.KindInt] != 1 {
		t.Errorf("a stats = %+v", ty.Props["a"])
	}
	if ty.Labels["T"] != 1 {
		t.Errorf("label count = %d, want 1", ty.Labels["T"])
	}
	// Retract node 0: property keys and labels vanish.
	ty.Retract(nodes[0].Labels, nodes[0].Props)
	if ty.Instances != 0 {
		t.Errorf("Instances = %d, want 0", ty.Instances)
	}
	if len(ty.Props) != 0 {
		t.Errorf("props must be empty: %v", ty.PropertyKeys())
	}
	if len(ty.Labels) != 0 {
		t.Errorf("labels must be empty: %v", ty.SortedLabels())
	}
}

func TestRetractDistinctValues(t *testing.T) {
	ty := NewNodeCandidate()
	ty.observe([]string{"T"}, pg.PropsOf(map[string]pg.Value{"s": pg.Str("a")}))
	ty.observe([]string{"T"}, pg.PropsOf(map[string]pg.Value{"s": pg.Str("a")}))
	ty.observe([]string{"T"}, pg.PropsOf(map[string]pg.Value{"s": pg.Str("b")}))
	ty.Retract([]string{"T"}, pg.PropsOf(map[string]pg.Value{"s": pg.Str("b")}))
	ps := ty.Props["s"]
	if len(ps.Distinct) != 1 || ps.Distinct["a"] != 2 {
		t.Errorf("distinct after retract = %v", ps.Distinct)
	}
}

func TestRetractEdgeDegrees(t *testing.T) {
	et := NewEdgeCandidate()
	et.observe([]string{"R"}, nil)
	et.SrcDeg.Add(1, 1)
	et.DstDeg.Add(2, 1)
	et.observe([]string{"R"}, nil)
	et.SrcDeg.Add(1, 1)
	et.DstDeg.Add(3, 1)
	et.RetractEdge([]string{"R"}, nil, 1, 3)
	if et.MaxOutDegree() != 1 {
		t.Errorf("out degree = %d, want 1", et.MaxOutDegree())
	}
	if et.DstDeg.Len() != 1 {
		t.Errorf("dst degrees = %v", DegreeCounts[nodeKey](et.DstDeg))
	}
}

func TestCompactRemovesEmptyTypes(t *testing.T) {
	s := New()
	c1 := labeledCand([]string{"A"}, "x")
	c2 := labeledCand([]string{"B"}, "y")
	s.ExtractNodeTypes([]*NodeType{c1, c2}, 0.9)
	a := s.NodeTypeByToken("A")
	a.Retract([]string{"A"}, pg.PropsOf(map[string]pg.Value{"x": pg.Str("x")}))
	removedN, _ := s.Compact()
	if len(removedN) != 1 || removedN[0] != a {
		t.Fatalf("removed = %v", removedN)
	}
	if s.NodeTypeByToken("A") != nil {
		t.Error("token index must drop the removed type")
	}
	if s.NodeTypeByToken("B") == nil {
		t.Error("surviving type lost")
	}
	// Edge side.
	e1 := edgeCand([]string{"R"}, "A", "B")
	s.ExtractEdgeTypes([]*EdgeType{e1}, 0.9)
	r := s.EdgeTypeByToken("R")
	r.RetractEdge([]string{"R"}, nil, 1, 2)
	_, removedE := s.Compact()
	if len(removedE) != 1 {
		t.Fatalf("removed edges = %v", removedE)
	}
	if s.EdgeTypeByToken("R") != nil {
		t.Error("edge token index must drop the removed type")
	}
}

// Property: observe followed by Retract of the same instances returns
// the type to its prior statistics (add/remove inverse), for random
// instance populations.
func TestRetractInverseProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%10) + 1
		base := NewNodeCandidate()
		base.observe([]string{"T"}, pg.PropsOf(map[string]pg.Value{"k": pg.Int(1)}))
		snapshot := base.Instances

		type inst struct {
			labels []string
			props  map[string]pg.Value
		}
		var added []inst
		for i := 0; i < n; i++ {
			props := map[string]pg.Value{}
			if rng.Intn(2) == 0 {
				props["k"] = pg.Int(int64(rng.Intn(5)))
			}
			if rng.Intn(2) == 0 {
				props["s"] = pg.Str([]string{"a", "b"}[rng.Intn(2)])
			}
			in := inst{labels: []string{"T"}, props: props}
			base.observe(in.labels, pg.PropsOf(in.props))
			added = append(added, in)
		}
		for _, in := range added {
			base.Retract(in.labels, pg.PropsOf(in.props))
		}
		if base.Instances != snapshot {
			return false
		}
		if base.Props["k"].Count != 1 || base.Props["k"].Kinds[pg.KindInt] != 1 {
			return false
		}
		_, hasS := base.Props["s"]
		return !hasS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
