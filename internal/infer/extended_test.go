package infer

import (
	"fmt"
	"testing"

	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

func buildTypeFromValues(t *testing.T, key string, values []pg.Value) *schema.NodeType {
	t.Helper()
	nodes := make([]pg.Node, len(values))
	for i, v := range values {
		nodes[i] = pg.Node{ID: pg.ID(i), Labels: []string{"T"},
			Props: map[string]pg.Value{key: v}}
	}
	assign := make([]int, len(nodes))
	cands := schema.BuildNodeCandidates(nodes, assign, 1)
	s := schema.New()
	s.ExtractNodeTypes(cands, 0.9)
	return s.NodeTypeByToken("T")
}

func TestEnumDetection(t *testing.T) {
	var vals []pg.Value
	for i := 0; i < 30; i++ {
		vals = append(vals, pg.Str([]string{"red", "green", "blue"}[i%3]))
	}
	ty := buildTypeFromValues(t, "color", vals)
	Constraints(&ty.Type)
	DataTypes(&ty.Type, Options{})
	RefineDataTypes(&ty.Type, EnumOptions{})
	ps := ty.Props["color"]
	if len(ps.Enum) != 3 {
		t.Fatalf("Enum = %v, want 3 values", ps.Enum)
	}
	if ps.Enum[0] != "blue" || ps.Enum[1] != "green" || ps.Enum[2] != "red" {
		t.Errorf("Enum must be sorted: %v", ps.Enum)
	}
}

func TestEnumRejectsOpenDomains(t *testing.T) {
	// Many distinct values: not an enum.
	var vals []pg.Value
	for i := 0; i < 100; i++ {
		vals = append(vals, pg.Str(fmt.Sprintf("name-%d", i)))
	}
	ty := buildTypeFromValues(t, "name", vals)
	DataTypes(&ty.Type, Options{})
	RefineDataTypes(&ty.Type, EnumOptions{})
	if ty.Props["name"].Enum != nil {
		t.Errorf("open string domain must not be an enum: %v", ty.Props["name"].Enum)
	}
	if !ty.Props["name"].DistinctOverflow {
		t.Error("tracker must have overflowed at 100 distinct values")
	}
}

func TestEnumRejectsLowSupport(t *testing.T) {
	// 4 values seen once each: too little support for a closed set.
	vals := []pg.Value{pg.Str("a"), pg.Str("b"), pg.Str("c"), pg.Str("d")}
	ty := buildTypeFromValues(t, "x", vals)
	DataTypes(&ty.Type, Options{})
	RefineDataTypes(&ty.Type, EnumOptions{})
	if ty.Props["x"].Enum != nil {
		t.Errorf("low-support domain must not be an enum: %v", ty.Props["x"].Enum)
	}
}

func TestEnumRejectsMixedKinds(t *testing.T) {
	// Strings generalized from a mixed column are not closed sets.
	vals := []pg.Value{
		pg.Str("a"), pg.Str("a"), pg.Str("b"), pg.Str("b"),
		pg.Str("a"), pg.Str("b"), pg.Int(4), pg.Str("a"), pg.Str("b"),
	}
	ty := buildTypeFromValues(t, "x", vals)
	DataTypes(&ty.Type, Options{})
	RefineDataTypes(&ty.Type, EnumOptions{})
	if ty.Props["x"].Enum != nil {
		t.Errorf("mixed-kind column must not be an enum: %v", ty.Props["x"].Enum)
	}
}

func TestIntRange(t *testing.T) {
	vals := []pg.Value{pg.Int(5), pg.Int(-3), pg.Int(40), pg.Int(12)}
	ty := buildTypeFromValues(t, "n", vals)
	DataTypes(&ty.Type, Options{})
	RefineDataTypes(&ty.Type, EnumOptions{})
	ps := ty.Props["n"]
	if !ps.HasIntRange {
		t.Fatal("integer column must carry a range")
	}
	if ps.MinInt != -3 || ps.MaxInt != 40 {
		t.Errorf("range = [%d, %d], want [-3, 40]", ps.MinInt, ps.MaxInt)
	}
}

func TestRangeMergesAcrossClusters(t *testing.T) {
	// Two clusters of the same type: merged range must span both.
	mk := func(base int64, ids int) []*schema.NodeType {
		nodes := make([]pg.Node, 3)
		for i := range nodes {
			nodes[i] = pg.Node{ID: pg.ID(ids + i), Labels: []string{"T"},
				Props: map[string]pg.Value{"n": pg.Int(base + int64(i))}}
		}
		return schema.BuildNodeCandidates(nodes, []int{0, 0, 0}, 1)
	}
	s := schema.New()
	s.ExtractNodeTypes(mk(10, 0), 0.9)
	s.ExtractNodeTypes(mk(-100, 10), 0.9)
	ty := s.NodeTypeByToken("T")
	DataTypes(&ty.Type, Options{})
	RefineDataTypes(&ty.Type, EnumOptions{})
	ps := ty.Props["n"]
	if ps.MinInt != -100 || ps.MaxInt != 12 {
		t.Errorf("merged range = [%d, %d], want [-100, 12]", ps.MinInt, ps.MaxInt)
	}
}
