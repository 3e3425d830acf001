package infer

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

func tally(ints, floats, bools, dates, dts, strs int) Tally {
	var t Tally
	t[pg.KindInt] = ints
	t[pg.KindFloat] = floats
	t[pg.KindBool] = bools
	t[pg.KindDate] = dates
	t[pg.KindDateTime] = dts
	t[pg.KindString] = strs
	return t
}

func TestDataTypeFromTally(t *testing.T) {
	cases := []struct {
		t    Tally
		want pg.Kind
	}{
		{tally(10, 0, 0, 0, 0, 0), pg.KindInt},
		{tally(5, 5, 0, 0, 0, 0), pg.KindFloat},
		{tally(0, 7, 0, 0, 0, 0), pg.KindFloat},
		{tally(0, 0, 3, 0, 0, 0), pg.KindBool},
		{tally(0, 0, 0, 9, 0, 0), pg.KindDate},
		{tally(0, 0, 0, 4, 4, 0), pg.KindDateTime},
		{tally(0, 0, 0, 0, 6, 0), pg.KindDateTime},
		{tally(0, 0, 0, 0, 0, 2), pg.KindString},
		{tally(10, 0, 0, 0, 0, 1), pg.KindString}, // string outlier generalizes
		{tally(3, 0, 3, 0, 0, 0), pg.KindString},  // cross-group mix
		{tally(0, 0, 0, 0, 0, 0), pg.KindString},  // empty defaults to string
	}
	for i, c := range cases {
		if got := DataTypeFromTally(&c.t); got != c.want {
			t.Errorf("case %d: DataTypeFromTally = %v, want %v", i, got, c.want)
		}
	}
}

// Property (§4.7 guarantee iii): the inferred type is always
// compatible with every observed value.
func TestDataTypeCompatibilityProperty(t *testing.T) {
	f := func(a, b, c, d, e, s uint8) bool {
		ta := tally(int(a%50), int(b%50), int(c%50), int(d%50), int(e%50), int(s%50))
		dt := DataTypeFromTally(&ta)
		for k := range ta {
			if ta[k] > 0 && !Conforms(pg.Kind(k), dt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleTallySizes(t *testing.T) {
	full := tally(10000, 0, 0, 0, 0, 0)
	s := SampleTally(&full, 0.1, 100, 1)
	if got := total(&s); got != 1000 {
		t.Errorf("10%% of 10000 = %d, want 1000", got)
	}
	// MinSample floor applies.
	s = SampleTally(&full, 0.001, 500, 1)
	if got := total(&s); got != 500 {
		t.Errorf("floored sample = %d, want 500", got)
	}
	// Small populations are returned whole.
	small := tally(50, 0, 0, 0, 0, 0)
	s = SampleTally(&small, 0.1, 1000, 1)
	if got := total(&s); got != 50 {
		t.Errorf("small population sample = %d, want all 50", got)
	}
}

func TestSampleTallyDeterministic(t *testing.T) {
	full := tally(5000, 300, 0, 0, 0, 7)
	a := SampleTally(&full, 0.1, 100, 42)
	b := SampleTally(&full, 0.1, 100, 42)
	if a != b {
		t.Fatal("sampling must be deterministic for a fixed seed")
	}
}

// Property: a sampled tally never exceeds the full tally in any kind,
// and its total matches the requested size.
func TestSampleTallyBoundsProperty(t *testing.T) {
	f := func(a, b, s uint16, seed int64) bool {
		full := tally(int(a), int(b), 0, 0, 0, int(s%10))
		n := total(&full)
		out := SampleTally(&full, 0.2, 50, seed)
		for k := range out {
			if out[k] > full[k] {
				return false
			}
		}
		want := int(0.2 * float64(n))
		if want < 50 {
			want = 50
		}
		if want > n {
			want = n
		}
		return total(&out) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplingErrorShape(t *testing.T) {
	// Sample inferred DATE, but full data has 3% strings: error 0.03.
	full := tally(0, 0, 0, 970, 0, 30)
	if got := SamplingError(&full, pg.KindDate); math.Abs(got-0.03) > 1e-12 {
		t.Errorf("error = %v, want 0.03", got)
	}
	// Inferring STRING is always compatible: error 0.
	if got := SamplingError(&full, pg.KindString); got != 0 {
		t.Errorf("string inference error = %v, want 0", got)
	}
	// INT inferred but 15% floats: error 0.15.
	full = tally(850, 150, 0, 0, 0, 0)
	if got := SamplingError(&full, pg.KindInt); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("error = %v, want 0.15", got)
	}
	var empty Tally
	if got := SamplingError(&empty, pg.KindInt); got != 0 {
		t.Errorf("empty tally error = %v, want 0", got)
	}
}

func TestConstraints(t *testing.T) {
	// 3 instances of one type; "name" on all, "url" on one.
	nodes := make([]pg.Node, 3)
	for i := range nodes {
		props := map[string]pg.Value{"name": pg.Str("x")}
		if i == 0 {
			props["url"] = pg.Str("http")
		}
		nodes[i] = pg.Node{ID: pg.ID(i), Labels: []string{"Org"}, Props: props}
	}
	ty := schema.BuildNodeCandidates(nodes, []int{0, 0, 0}, 1)[0]
	Constraints(&ty.Type)
	if !ty.Props["name"].Mandatory {
		t.Error("name appears in every instance: must be mandatory (Example 6)")
	}
	if ty.Props["url"].Mandatory {
		t.Error("url is optional")
	}
}

func TestCardinalityInterpretation(t *testing.T) {
	mk := func(srcDeg, dstDeg map[pg.ID]int) *schema.EdgeType {
		et := schema.NewEdgeCandidate()
		for id, d := range srcDeg {
			et.SrcDeg[id] = d
		}
		for id, d := range dstDeg {
			et.DstDeg[id] = d
		}
		return et
	}
	cases := []struct {
		name string
		src  map[pg.ID]int
		dst  map[pg.ID]int
		want schema.Cardinality
	}{
		{"one-to-one", map[pg.ID]int{1: 1}, map[pg.ID]int{2: 1}, schema.CardOneToOne},
		{"works_at N:1", map[pg.ID]int{1: 1, 2: 1, 3: 1}, map[pg.ID]int{9: 3}, schema.CardManyToOne},
		{"1:N", map[pg.ID]int{1: 3}, map[pg.ID]int{7: 1, 8: 1, 9: 1}, schema.CardOneToMany},
		{"knows M:N", map[pg.ID]int{1: 2, 2: 2}, map[pg.ID]int{3: 2, 4: 2}, schema.CardManyToMany},
		{"empty", nil, nil, schema.CardUnknown},
	}
	for _, c := range cases {
		et := mk(c.src, c.dst)
		Cardinality(et)
		if et.Cardinality != c.want {
			t.Errorf("%s: got %v, want %v", c.name, et.Cardinality, c.want)
		}
	}
}

func TestFinalizeEndToEnd(t *testing.T) {
	s := schema.New()
	nodes := []pg.Node{
		{ID: 0, Labels: []string{"Person"}, Props: map[string]pg.Value{"name": pg.Str("a"), "age": pg.Int(30)}},
		{ID: 1, Labels: []string{"Person"}, Props: map[string]pg.Value{"name": pg.Str("b"), "age": pg.Int(31)}},
		{ID: 2, Labels: []string{"Person"}, Props: map[string]pg.Value{"name": pg.Str("c")}},
	}
	cands := schema.BuildNodeCandidates(nodes, []int{0, 0, 0}, 1)
	s.ExtractNodeTypes(cands, 0)

	edges := []pg.Edge{
		{ID: 0, Labels: []string{"KNOWS"}, Src: 0, Dst: 1, Props: map[string]pg.Value{"since": pg.Int(2020)}},
		{ID: 1, Labels: []string{"KNOWS"}, Src: 0, Dst: 2, Props: nil},
	}
	ecands := schema.BuildEdgeCandidates(edges, []int{0, 0}, 1, []string{"Person", "Person"}, []string{"Person", "Person"})
	s.ExtractEdgeTypes(ecands, 0)

	Finalize(s, Options{})
	person := s.NodeTypeByToken("Person")
	if !person.Props["name"].Mandatory || person.Props["age"].Mandatory {
		t.Error("constraints wrong")
	}
	if person.Props["age"].DataType != pg.KindInt {
		t.Errorf("age data type = %v, want INT", person.Props["age"].DataType)
	}
	if person.Props["name"].DataType != pg.KindString {
		t.Errorf("name data type = %v, want STRING", person.Props["name"].DataType)
	}
	knows := s.EdgeTypeByToken("KNOWS")
	if knows.Cardinality != schema.CardOneToMany {
		t.Errorf("KNOWS cardinality = %v, want 1:N (one source, two targets)", knows.Cardinality)
	}
	if knows.Props["since"].Mandatory {
		t.Error("since must be optional (absent on one instance)")
	}
}

func TestFinalizeSampledMode(t *testing.T) {
	// 2000 int values with 10 string outliers: full scan must say
	// STRING; a 10% sample will often miss the outliers and say INT.
	nodes := make([]pg.Node, 2010)
	for i := range nodes {
		v := pg.Value(pg.Int(int64(i)))
		if i < 10 {
			v = pg.Str("oops")
		}
		nodes[i] = pg.Node{ID: pg.ID(i), Labels: []string{"T"}, Props: map[string]pg.Value{"p": v}}
	}
	assign := make([]int, len(nodes))
	cands := schema.BuildNodeCandidates(nodes, assign, 1)

	sFull := schema.New()
	sFull.ExtractNodeTypes(cands, 0)
	Finalize(sFull, Options{})
	ty := sFull.NodeTypeByToken("T")
	if ty.Props["p"].DataType != pg.KindString {
		t.Fatalf("full scan type = %v, want STRING", ty.Props["p"].DataType)
	}

	// Sampled: with MinSample 50 and rate 0.02 (sample of 50 out of
	// 2010) the outliers are likely missed for some seed.
	missed := false
	for seed := int64(0); seed < 20; seed++ {
		Finalize(sFull, Options{SampleDataTypes: true, SampleRate: 0.02, MinSample: 50, Seed: seed})
		if ty.Props["p"].DataType == pg.KindInt {
			missed = true
			break
		}
	}
	if !missed {
		t.Error("sampling never missed 0.5% outliers across 20 seeds; sampler suspicious")
	}
}
