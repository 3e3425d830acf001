package infer

import (
	"sort"

	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

// extended.go implements the refinements the paper leaves as future
// work in §4.4: enumerated string types and bounded integer ranges
// ("we leave for future work the identification of more detailed
// datatypes, such as enumerated types or bounded ranges").

const (
	// enumMaxValues is the largest closed value set reported as an
	// enum; it must not exceed schema.EnumTrackLimit.
	enumMaxValues = 8
	// enumMinSupport requires at least this many observations per
	// distinct value on average before a set counts as closed, so tiny
	// samples don't produce spurious enums.
	enumMinSupport = 3
)

// RefineDataTypes derives enumerations and integer ranges for every
// property of a type whose base data type allows them. It must run
// after DataTypes (it reads PropStat.DataType).
func RefineDataTypes(t *schema.Type) {
	for _, ps := range t.Props {
		ps.Enum = nil
		ps.HasIntRange = false
		switch ps.DataType {
		case pg.KindString:
			if ps.DistinctOverflow || len(ps.Distinct) == 0 || len(ps.Distinct) > enumMaxValues {
				continue
			}
			// Pure string column (no mixed kinds were generalized
			// into it) with a small closed value set and enough
			// support per value.
			if ps.Kinds[pg.KindString] != ps.Count {
				continue
			}
			if ps.Count < enumMinSupport*len(ps.Distinct) {
				continue
			}
			vals := make([]string, 0, len(ps.Distinct))
			for v := range ps.Distinct {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			ps.Enum = vals
		case pg.KindInt:
			if ps.Kinds[pg.KindInt] > 0 {
				ps.HasIntRange = true
			}
		}
	}
}
