// Package datagen generates the eight evaluation datasets of §5
// (Table 2) as synthetic property graphs that reproduce each dataset's
// schema statistics — node/edge type counts, label counts, multi-label
// structure, pattern heterogeneity, and size ratios — at a
// configurable scale, together with ground-truth type assignments for
// the F1* evaluation. It also implements the paper's noise injection:
// random property removal (0–40%) and label availability scenarios
// (100%, 50%, 0%).
package datagen

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"github.com/pghive/pghive/internal/pg"
)

// Gen enumerates property-value generators. The mixed generators
// produce a dominant kind with rare outliers of another kind, which is
// what makes the sampling-based datatype inference of §4.4 fallible
// (Fig. 8).
type Gen uint8

const (
	// GInt yields random integers.
	GInt Gen = iota
	// GFloat yields random floats.
	GFloat
	// GBool yields random booleans.
	GBool
	// GDate yields random calendar dates.
	GDate
	// GDateTime yields random timestamps.
	GDateTime
	// GString yields short random strings.
	GString
	// GIntWithFloats yields integers with ~8% float outliers
	// (full-scan type DOUBLE; samples often say INT).
	GIntWithFloats
	// GDateWithStrings yields dates with ~3% malformed strings
	// (full-scan type STRING; samples often say DATE).
	GDateWithStrings
	// GFloatWithStrings yields floats with ~1% string outliers.
	GFloatWithStrings
	// GIntWithManyStrings yields integers with ~25% string values
	// (dirty identifier columns); small samples frequently miss the
	// strings and infer INT, a ≥0.20 sampling error.
	GIntWithManyStrings
)

func (g Gen) value(rng *rand.Rand) pg.Value {
	switch g {
	case GInt:
		return pg.Int(int64(rng.Intn(100000)))
	case GFloat:
		return pg.Float(rng.Float64() * 1000)
	case GBool:
		return pg.Bool(rng.Intn(2) == 0)
	case GDate:
		return pg.Date(randTime(rng))
	case GDateTime:
		return pg.DateTime(randTime(rng))
	case GString:
		return pg.Str(randWord(rng))
	case GIntWithFloats:
		if rng.Float64() < 0.08 {
			return pg.Float(rng.Float64() * 100)
		}
		return pg.Int(int64(rng.Intn(100000)))
	case GDateWithStrings:
		if rng.Float64() < 0.03 {
			return pg.Str("n/a-" + randWord(rng))
		}
		return pg.Date(randTime(rng))
	case GFloatWithStrings:
		if rng.Float64() < 0.01 {
			return pg.Str("unknown")
		}
		return pg.Float(rng.Float64() * 10)
	case GIntWithManyStrings:
		if rng.Float64() < 0.25 {
			return pg.Str(randWord(rng))
		}
		return pg.Int(int64(rng.Intn(1 << 20)))
	default:
		return pg.Str(randWord(rng))
	}
}

func randTime(rng *rand.Rand) time.Time {
	base := time.Date(1990, 1, 1, 0, 0, 0, 0, time.UTC)
	return base.Add(time.Duration(rng.Int63n(int64(35 * 365 * 24 * time.Hour))))
}

const letters = "abcdefghijklmnopqrstuvwxyz"

func randWord(rng *rand.Rand) string {
	n := 4 + rng.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// Prop declares one property of a type.
type Prop struct {
	// Key is the property key.
	Key string
	// Gen is the value generator.
	Gen Gen
	// Prob is the presence probability (1 = mandatory).
	Prob float64
}

// NodeSpec declares one ground-truth node type.
type NodeSpec struct {
	// Name is the ground-truth type name used by the evaluation.
	Name string
	// Labels is the label set every instance carries.
	Labels []string
	// Weight is the type's share of the node population.
	Weight float64
	// Props declares the type's properties.
	Props []Prop
}

// EdgeCard shapes how edge endpoints are wired.
type EdgeCard uint8

const (
	// ManyToMany wires uniformly random endpoint pairs.
	ManyToMany EdgeCard = iota
	// ManyToOne gives every source at most one target-edge of this
	// type (WORKS_AT-style).
	ManyToOne
	// OneToMany gives every target at most one source-edge.
	OneToMany
	// OneToOne pairs sources and targets bijectively.
	OneToOne
)

// EdgeSpec declares one ground-truth edge type.
type EdgeSpec struct {
	// Name is the ground-truth type name.
	Name string
	// Labels is the label set every instance carries.
	Labels []string
	// Src and Dst name the endpoint node types (by NodeSpec.Name).
	Src, Dst string
	// Weight is the type's share of the edge population.
	Weight float64
	// Card shapes the endpoint wiring.
	Card EdgeCard
	// Props declares the type's properties.
	Props []Prop
}

// Spec declares a full dataset.
type Spec struct {
	// Name identifies the dataset (POLE, MB6, ...).
	Name string
	// Real marks datasets that are real-world in the paper (R vs S in
	// Table 2); informational.
	Real bool
	// Nodes and Edges hold the type declarations.
	Nodes []NodeSpec
	Edges []EdgeSpec
	// DefaultNodes / DefaultEdges are the element counts at scale 1,
	// chosen ≈ Table 2 ÷ 200 (IYP ÷ 4000) so the full experiment grid
	// runs on one machine.
	DefaultNodes int
	DefaultEdges int
}

// Dataset is a generated graph plus its ground truth.
type Dataset struct {
	Name  string
	Spec  *Spec
	Graph *pg.Graph
	// NodeTruth / EdgeTruth map element IDs to ground-truth type
	// names. Noise injection never alters them.
	NodeTruth map[pg.ID]string
	EdgeTruth map[pg.ID]string
}

// Generate materializes a dataset at the given scale (1.0 = the
// spec's default size). Generation is deterministic per seed.
func Generate(spec *Spec, scale float64, seed int64) *Dataset {
	if scale <= 0 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(seed))
	g := pg.NewGraph()
	d := &Dataset{
		Name:      spec.Name,
		Spec:      spec,
		Graph:     g,
		NodeTruth: map[pg.ID]string{},
		EdgeTruth: map[pg.ID]string{},
	}

	nNodes := int(float64(spec.DefaultNodes) * scale)
	nEdges := int(float64(spec.DefaultEdges) * scale)

	// Normalize weights.
	var nw float64
	for _, ns := range spec.Nodes {
		nw += ns.Weight
	}
	var ew float64
	for _, es := range spec.Edges {
		ew += es.Weight
	}

	// Generate nodes per type; remember instances for edge wiring.
	instances := map[string][]pg.ID{}
	for _, ns := range spec.Nodes {
		count := int(float64(nNodes) * ns.Weight / nw)
		if count < 1 {
			count = 1
		}
		props := newPropMaker(ns.Props)
		for i := 0; i < count; i++ {
			// The ID AddNode would assign, since nodes are only added;
			// PutNode cannot fail on it, and the keys are distinct
			// (newPropMaker).
			id := pg.ID(g.NumNodes())
			_ = g.PutNode(id, ns.Labels, props.draw(rng))
			d.NodeTruth[id] = ns.Name
			instances[ns.Name] = append(instances[ns.Name], id)
		}
	}

	for _, es := range spec.Edges {
		count := int(float64(nEdges) * es.Weight / ew)
		if count < 1 {
			count = 1
		}
		srcs := instances[es.Src]
		dsts := instances[es.Dst]
		if len(srcs) == 0 || len(dsts) == 0 {
			continue
		}
		wireEdges(d, es, srcs, dsts, count, rng)
	}
	return d
}

// propMaker draws one type's properties and lays them out in key
// order: the draws follow the declaration order, which fixes the
// generated values per seed, and the Props come out sorted with no
// sort per element.
type propMaker struct {
	specs []Prop
	order []int // spec indices, by key
	drawn []bool
	vals  []pg.Value
}

func newPropMaker(specs []Prop) *propMaker {
	m := &propMaker{
		specs: specs,
		order: make([]int, len(specs)),
		drawn: make([]bool, len(specs)),
		vals:  make([]pg.Value, len(specs)),
	}
	for i := range m.order {
		m.order[i] = i
	}
	slices.SortFunc(m.order, func(a, b int) int { return strings.Compare(specs[a].Key, specs[b].Key) })
	for i := 1; i < len(m.order); i++ {
		if k := specs[m.order[i]].Key; k == specs[m.order[i-1]].Key {
			panic(fmt.Sprintf("datagen: property %q declared twice", k))
		}
	}
	return m
}

// draw returns one element's properties, nil when it drew none.
func (m *propMaker) draw(rng *rand.Rand) pg.Props {
	n := 0
	for i, p := range m.specs {
		m.drawn[i] = p.Prob >= 1 || rng.Float64() < p.Prob
		if m.drawn[i] {
			m.vals[i] = p.Gen.value(rng)
			n++
		}
	}
	if n == 0 {
		return nil
	}
	props := make(pg.Props, 0, n)
	for _, i := range m.order {
		if m.drawn[i] {
			props = append(props, pg.Prop{Key: m.specs[i].Key, Val: m.vals[i]})
		}
	}
	return props
}

func wireEdges(d *Dataset, es EdgeSpec, srcs, dsts []pg.ID, count int, rng *rand.Rand) {
	g := d.Graph
	props := newPropMaker(es.Props)
	addEdge := func(src, dst pg.ID) {
		id := pg.ID(g.NumEdges()) // what AddEdge would assign: edges are only added
		if g.PutEdge(id, es.Labels, src, dst, props.draw(rng)) != nil {
			return
		}
		d.EdgeTruth[id] = es.Name
	}
	switch es.Card {
	case ManyToOne:
		// Each source appears at most once; targets are shared.
		if count > len(srcs) {
			count = len(srcs)
		}
		perm := rng.Perm(len(srcs))[:count]
		for _, si := range perm {
			addEdge(srcs[si], dsts[rng.Intn(len(dsts))])
		}
	case OneToMany:
		if count > len(dsts) {
			count = len(dsts)
		}
		perm := rng.Perm(len(dsts))[:count]
		for _, di := range perm {
			addEdge(srcs[rng.Intn(len(srcs))], dsts[di])
		}
	case OneToOne:
		max := len(srcs)
		if len(dsts) < max {
			max = len(dsts)
		}
		if count > max {
			count = max
		}
		sp := rng.Perm(len(srcs))[:count]
		dp := rng.Perm(len(dsts))[:count]
		for i := 0; i < count; i++ {
			addEdge(srcs[sp[i]], dsts[dp[i]])
		}
	default: // ManyToMany
		for i := 0; i < count; i++ {
			addEdge(srcs[rng.Intn(len(srcs))], dsts[rng.Intn(len(dsts))])
		}
	}
}

// InjectNoise returns a noisy deep copy of the dataset, per the §5
// protocol: every property of every node and edge is independently
// removed with probability propNoise, and every element keeps its
// labels with probability labelAvail (otherwise all its labels are
// dropped). Ground truth is preserved.
func InjectNoise(d *Dataset, propNoise, labelAvail float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	g := d.Graph.Clone()
	nodes := g.Nodes()
	for i := range nodes {
		n := &nodes[i]
		n.Props = dropProps(n.Props, propNoise, rng)
		if labelAvail < 1 && rng.Float64() >= labelAvail {
			n.Labels = nil
		}
	}
	edges := g.Edges()
	for i := range edges {
		e := &edges[i]
		e.Props = dropProps(e.Props, propNoise, rng)
		if labelAvail < 1 && rng.Float64() >= labelAvail {
			e.Labels = nil
		}
	}
	return &Dataset{
		Name:      d.Name,
		Spec:      d.Spec,
		Graph:     g,
		NodeTruth: d.NodeTruth,
		EdgeTruth: d.EdgeTruth,
	}
}

// dropProps removes each property with probability noise, in place,
// and returns what is left. It draws once per property in key order,
// so noise injection is reproducible for a fixed seed.
func dropProps(props pg.Props, noise float64, rng *rand.Rand) pg.Props {
	if noise <= 0 || len(props) == 0 {
		return props
	}
	kept := props[:0]
	for _, p := range props {
		if rng.Float64() >= noise {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	return kept
}

// Stats returns the Table 2-style statistics of the generated graph
// plus the ground-truth type counts.
func (d *Dataset) Stats() TableStats {
	s := pg.ComputeStats(d.Graph)
	nodeTypes := map[string]bool{}
	for _, t := range d.NodeTruth {
		nodeTypes[t] = true
	}
	edgeTypes := map[string]bool{}
	for _, t := range d.EdgeTruth {
		edgeTypes[t] = true
	}
	return TableStats{
		Name:         d.Name,
		Nodes:        s.Nodes,
		Edges:        s.Edges,
		NodeTypes:    len(nodeTypes),
		EdgeTypes:    len(edgeTypes),
		NodeLabels:   s.NodeLabels,
		EdgeLabels:   s.EdgeLabels,
		NodePatterns: s.NodePatterns,
		EdgePatterns: s.EdgePatterns,
		Real:         d.Spec.Real,
	}
}

// TableStats is one row of Table 2.
type TableStats struct {
	Name         string
	Nodes        int
	Edges        int
	NodeTypes    int
	EdgeTypes    int
	NodeLabels   int
	EdgeLabels   int
	NodePatterns int
	EdgePatterns int
	Real         bool
}

// String renders the row.
func (t TableStats) String() string {
	kind := "S"
	if t.Real {
		kind = "R"
	}
	return fmt.Sprintf("%-8s %8d %9d %6d %6d %7d %7d %9d %9d  %s",
		t.Name, t.Nodes, t.Edges, t.NodeTypes, t.EdgeTypes,
		t.NodeLabels, t.EdgeLabels, t.NodePatterns, t.EdgePatterns, kind)
}
