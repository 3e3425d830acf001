package datagen_test

// integration_test.go runs the full PG-HIVE pipeline over every
// generated dataset and asserts end-to-end quality floors — the
// cross-module integration test of the repository.

import (
	"testing"

	"github.com/pghive/pghive/internal/core"
	"github.com/pghive/pghive/internal/datagen"
	"github.com/pghive/pghive/internal/eval"
	"github.com/pghive/pghive/internal/infer"
	"github.com/pghive/pghive/internal/serialize"
)

func TestPipelineOnEveryDataset(t *testing.T) {
	for _, spec := range datagen.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			d := datagen.Generate(spec, 0.5, 3)
			for _, m := range []core.Method{core.ELSH, core.MinHash} {
				res := core.Discover(d.Graph, core.Options{Method: m, Seed: 3})
				nf := eval.MajorityF1(eval.NodeAssignments(res.NodeAssign), d.NodeTruth)
				ef := eval.MajorityF1(eval.EdgeAssignments(res.EdgeAssign), d.EdgeTruth)
				if nf < 0.9 {
					t.Errorf("%v node F1 = %.3f, want >= 0.9 on clean data", m, nf)
				}
				if ef < 0.9 {
					t.Errorf("%v edge F1 = %.3f, want >= 0.9 on clean data", m, ef)
				}
				// The discovered schema must serialize in all formats
				// without issue.
				if out := serialize.PGSchema(res.Schema, serialize.Strict, spec.Name); len(out) == 0 {
					t.Error("empty STRICT serialization")
				}
				if out := serialize.XSD(res.Schema); len(out) == 0 {
					t.Error("empty XSD serialization")
				}
			}
		})
	}
}

func TestPipelineNoiseFloorEveryDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("noise sweep skipped in -short mode")
	}
	for _, spec := range datagen.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			base := datagen.Generate(spec, 0.5, 3)
			d := datagen.InjectNoise(base, 0.4, 1.0, 5)
			res := core.Discover(d.Graph, core.Options{Seed: 3})
			nf := eval.MajorityF1(eval.NodeAssignments(res.NodeAssign), d.NodeTruth)
			if nf < 0.9 {
				t.Errorf("node F1 at 40%% noise = %.3f, want >= 0.9 (paper: >0.9 under heavy noise)", nf)
			}
		})
	}
}

// TestSchemaValidatesItsOwnData spot-checks the §4.7 type-completeness
// guarantee end to end: every node's labels and properties are covered
// by its assigned type.
func TestSchemaValidatesItsOwnData(t *testing.T) {
	d := datagen.Generate(datagen.LDBC(), 0.3, 7)
	res := core.Discover(d.Graph, core.Options{Seed: 7})
	infer.Finalize(res.Schema, infer.Options{})
	for i := range d.Graph.Nodes() {
		n := &d.Graph.Nodes()[i]
		ty := res.NodeTypeOf(n.ID)
		if ty == nil {
			t.Fatalf("node %d unassigned", n.ID)
		}
		for _, l := range n.Labels {
			if ty.Labels[l] <= 0 {
				t.Fatalf("node %d label %q not covered by type %s", n.ID, l, ty.Name())
			}
		}
		for k := range n.Props.All() {
			if ty.Props[k] == nil {
				t.Fatalf("node %d property %q not covered by type %s", n.ID, k, ty.Name())
			}
		}
	}
	for i := range d.Graph.Edges() {
		e := &d.Graph.Edges()[i]
		ty := res.EdgeTypeOf(e.ID)
		if ty == nil {
			t.Fatalf("edge %d unassigned", e.ID)
		}
		for _, l := range e.Labels {
			if ty.Labels[l] <= 0 {
				t.Fatalf("edge %d label %q not covered by type %s", e.ID, l, ty.Name())
			}
		}
		for k := range e.Props.All() {
			if ty.Props[k] == nil {
				t.Fatalf("edge %d property %q not covered by type %s", e.ID, k, ty.Name())
			}
		}
	}
}

// TestMandatorySoundness verifies §4.7's property-constraint
// guarantee on real pipeline output: every property marked mandatory
// is indeed present in every instance of its type.
func TestMandatorySoundness(t *testing.T) {
	base := datagen.Generate(datagen.CORD19(), 0.4, 11)
	d := datagen.InjectNoise(base, 0.2, 1.0, 13)
	res := core.Discover(d.Graph, core.Options{Seed: 11})
	infer.Finalize(res.Schema, infer.Options{})

	present := map[string]int{} // typeID:key → count
	for i := range d.Graph.Nodes() {
		n := &d.Graph.Nodes()[i]
		ty := res.NodeTypeOf(n.ID)
		for k := range n.Props.All() {
			present[typeKey(ty.ID, k)]++
		}
	}
	for _, nt := range res.Schema.NodeTypes {
		for k, ps := range nt.Props {
			if ps.Mandatory && present[typeKey(nt.ID, k)] != nt.Instances {
				t.Errorf("type %s property %q marked mandatory but appears in %d/%d instances",
					nt.Name(), k, present[typeKey(nt.ID, k)], nt.Instances)
			}
		}
	}
}

func typeKey(id int, key string) string {
	return string(rune(id)) + ":" + key
}

// TestCardinalitySoundness verifies §4.7's cardinality guarantee:
// inferred maxima are true upper bounds of the observed degrees.
func TestCardinalitySoundness(t *testing.T) {
	d := datagen.Generate(datagen.POLE(), 1, 17)
	res := core.Discover(d.Graph, core.Options{Seed: 17})
	infer.Finalize(res.Schema, infer.Options{})
	for _, et := range res.Schema.EdgeTypes {
		maxOut := et.MaxOutDegree()
		// Recount from the data.
		counts := map[int64]int{}
		for i := range d.Graph.Edges() {
			e := &d.Graph.Edges()[i]
			if res.EdgeTypeOf(e.ID) == et {
				counts[int64(e.Src)]++
			}
		}
		observed := 0
		for _, c := range counts {
			if c > observed {
				observed = c
			}
		}
		if observed > maxOut {
			t.Errorf("type %s: observed out-degree %d exceeds recorded max %d",
				et.Name(), observed, maxOut)
		}
	}
}
