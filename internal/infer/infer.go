// Package infer implements the post-processing steps of §4.4:
// mandatory/optional property constraints, property data-type
// inference (full-scan and sampling-based), and edge cardinalities.
// All inferences read the occurrence statistics accumulated in the
// schema types, so they can run at any point of an incremental
// discovery without revisiting earlier batches.
package infer

import (
	"math/rand"

	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

// Options configures Finalize.
type Options struct {
	// SampleDataTypes enables the paper's sampling-based data-type
	// inference (§4.4): instead of considering every observed value,
	// a random sample of max(MinSample, SampleRate·N) values per
	// property is examined.
	SampleDataTypes bool
	// SampleRate is the sampled fraction (default 0.10).
	SampleRate float64
	// MinSample is the sample-size floor (default 1000).
	MinSample int
	// Seed drives the sampling.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.SampleRate <= 0 {
		o.SampleRate = 0.10
	}
	if o.MinSample <= 0 {
		o.MinSample = 1000
	}
	return o
}

// Tally is the per-kind value-count array accumulated in
// schema.PropStat.
type Tally = [pg.KindString + 1]int

// total sums a tally.
func total(t *Tally) int {
	n := 0
	for _, c := range t {
		n += c
	}
	return n
}

// DataTypeFromTally assigns the most specific data type compatible
// with every observed value (§4.7: "all values of a property are
// consistent with the inferred type, even though the type may be a
// generalization as string"):
//
//	only INT                → INT
//	INT/FLOAT mixes         → DOUBLE
//	only BOOLEAN            → BOOLEAN
//	only DATE               → DATE
//	DATE/TIMESTAMP mixes    → TIMESTAMP
//	anything else           → STRING
func DataTypeFromTally(t *Tally) pg.Kind {
	n := total(t)
	if n == 0 {
		return pg.KindString
	}
	ints, floats := t[pg.KindInt], t[pg.KindFloat]
	bools := t[pg.KindBool]
	dates, dts := t[pg.KindDate], t[pg.KindDateTime]
	strs := t[pg.KindString] + t[pg.KindInvalid]
	switch {
	case ints == n:
		return pg.KindInt
	case ints+floats == n:
		return pg.KindFloat
	case bools == n:
		return pg.KindBool
	case dates == n:
		return pg.KindDate
	case dates+dts == n:
		return pg.KindDateTime
	case strs >= 0:
		return pg.KindString
	}
	return pg.KindString
}

// SampleTally draws a without-replacement sample of size
// max(minSample, rate·N) (capped at N) from a full tally and returns
// the sampled tally. The draw is deterministic for a given seed.
func SampleTally(t *Tally, rate float64, minSample int, seed int64) Tally {
	n := total(t)
	want := int(rate * float64(n))
	if want < minSample {
		want = minSample
	}
	if want >= n {
		return *t
	}
	rng := rand.New(rand.NewSource(seed))
	var out Tally
	remainingPop := n
	remainingSample := want
	for k := range t {
		if t[k] == 0 {
			continue
		}
		// Sequential hypergeometric draw: decide per item of this
		// kind whether it enters the sample, conditioning on the
		// remaining quota.
		for i := 0; i < t[k] && remainingSample > 0; i++ {
			if rng.Float64() < float64(remainingSample)/float64(remainingPop) {
				out[k]++
				remainingSample--
			}
			remainingPop--
		}
		// Any items of this kind left after quota exhaustion just
		// shrink the remaining population.
		if remainingSample == 0 {
			break
		}
	}
	return out
}

// compatible reports whether a value of kind k conforms to the
// inferred data type dt.
func compatible(k pg.Kind, dt pg.Kind) bool {
	switch dt {
	case pg.KindString:
		return true
	case pg.KindInt:
		return k == pg.KindInt
	case pg.KindFloat:
		return k == pg.KindInt || k == pg.KindFloat
	case pg.KindBool:
		return k == pg.KindBool
	case pg.KindDate:
		return k == pg.KindDate
	case pg.KindDateTime:
		return k == pg.KindDate || k == pg.KindDateTime
	default:
		return false
	}
}

// SamplingError quantifies the §5 "sampling error" of a property: the
// fraction of all observed values that are incompatible with the
// data type inferred from the sampled tally. A property whose sample
// missed rare outliers (e.g. sample says DATE, full data holds a few
// malformed strings) gets a small positive error; agreement gives 0.
func SamplingError(full *Tally, sampledKind pg.Kind) float64 {
	n := total(full)
	if n == 0 {
		return 0
	}
	bad := 0
	for k := range full {
		if full[k] > 0 && !compatible(pg.Kind(k), sampledKind) {
			bad += full[k]
		}
	}
	return float64(bad) / float64(n)
}

// Constraints fills the Mandatory flag of every property of a type: a
// property is mandatory iff it appears in all instances (f_T(p) = 1,
// §4.4).
func Constraints(t *schema.Type) {
	for _, ps := range t.Props {
		ps.Mandatory = ps.Count == t.Instances && t.Instances > 0
	}
}

// DataTypes fills the DataType of every property of a type, either
// from the full tally or from a deterministic sample of it.
func DataTypes(t *schema.Type, o Options) {
	o = o.withDefaults()
	for k, ps := range t.Props {
		tally := ps.Kinds
		if o.SampleDataTypes {
			tally = SampleTally(&ps.Kinds, o.SampleRate, o.MinSample, o.Seed+int64(fnvMix(k)))
		}
		ps.DataType = DataTypeFromTally(&tally)
	}
}

// Cardinality interprets the accumulated degree maxima of an edge type
// (§4.4, Example 8): a source with at most one target and targets with
// many sources is N:1 (WORKS_AT), the converse is 1:N, both bounded by
// one is 1:1, and both exceeding one is M:N.
func Cardinality(t *schema.EdgeType) {
	out, in := t.MaxOutDegree(), t.MaxInDegree()
	switch {
	case out == 0 && in == 0:
		t.Cardinality = schema.CardUnknown
	case out <= 1 && in <= 1:
		t.Cardinality = schema.CardOneToOne
	case out <= 1 && in > 1:
		t.Cardinality = schema.CardManyToOne
	case out > 1 && in <= 1:
		t.Cardinality = schema.CardOneToMany
	default:
		t.Cardinality = schema.CardManyToMany
	}
}

// Finalize runs all §4.4 post-processing over a schema: property
// constraints, property data types with their enum/range refinement,
// and edge cardinalities.
func Finalize(s *schema.Schema, o Options) {
	for _, nt := range s.NodeTypes {
		Constraints(&nt.Type)
		DataTypes(&nt.Type, o)
		RefineDataTypes(&nt.Type)
	}
	for _, et := range s.EdgeTypes {
		Constraints(&et.Type)
		DataTypes(&et.Type, o)
		RefineDataTypes(&et.Type)
		Cardinality(et)
	}
}

// fnvMix hashes a property key into a seed offset so each property
// samples independently but deterministically.
func fnvMix(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
