package core

// tally.go holds the §4.4 degree tallies as an image collection. Each
// edge type counts, per endpoint node, the instances that leave it
// (src) and enter it (dst); the tallies grow with the database, the
// rest of the schema with its types. So an image keeps them beside the
// schema's heads, as it keeps the assignments: one group per edge type,
// in type-ID order, with each side a keyed.Column of node → count that
// shares its leaves with the live tally (schema.Degrees.Counts). A run
// carries them the same way, as per-type puts and tombstones under
// keyed.Diff / Column.Apply, while the heads ride whole.
//
// The reader (imagecodec.go) reads a group of either kind as an object
// of its members, its type first, and refuses (checkGroup) a type
// listed twice or out of ascending order, an empty group and a count
// below one.

import (
	"fmt"

	"github.com/pghive/pghive/internal/keyed"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

// Tally is one edge type's degree tallies.
type Tally struct {
	Type int                        `json:"type"`
	Src  keyed.Column[pg.ID, int32] `json:"src,omitempty"`
	Dst  keyed.Column[pg.ID, int32] `json:"dst,omitempty"`
}

// Tallies is an image's tally collection, one group per edge type with
// any count, in type-ID order.
type Tallies []Tally

// TallyChange is one edge type's tally puts and tombstones in a run.
type TallyChange struct {
	Type   int                        `json:"type"`
	SrcPut keyed.Column[pg.ID, int32] `json:"srcPut,omitempty"`
	SrcDel keyed.IDs[pg.ID]           `json:"srcDel,omitempty"`
	DstPut keyed.Column[pg.ID, int32] `json:"dstPut,omitempty"`
	DstDel keyed.IDs[pg.ID]           `json:"dstDel,omitempty"`
}

// TallyChanges is a run's tally member, in type-ID order.
type TallyChanges []TallyChange

func (c *TallyChange) empty() bool {
	return c.SrcPut.Len()+len(c.SrcDel)+c.DstPut.Len()+len(c.DstDel) == 0
}

// checkGroup refuses a decoded group of edge type typ whose type does
// not ascend from the previous group's, that is empty, or that counts
// below one.
func checkGroup(typ int, ordered, empty bool, counts ...keyed.Column[pg.ID, int32]) error {
	switch {
	case !ordered:
		return fmt.Errorf("tallies: edge type %d out of order: types must ascend", typ)
	case empty:
		return fmt.Errorf("tallies: edge type %d has an empty group", typ)
	}
	for _, side := range counts {
		for id, c := range side.All() {
			if c < 1 {
				return fmt.Errorf("tallies: edge type %d counts %d for node %d", typ, c, id)
			}
		}
	}
	return nil
}

// captureTallies shares the live tallies of every edge type that has
// any with an image's collection, in the schema's order: type-ID order.
func captureTallies(types []*schema.EdgeType) Tallies {
	var out Tallies
	for _, et := range types {
		if et.SrcDeg.Len()+et.DstDeg.Len() > 0 {
			out = append(out, Tally{Type: et.ID, Src: et.SrcDeg.Counts(), Dst: et.DstDeg.Counts()})
		}
	}
	return out
}

// restoreTallies gives each edge type of a restored schema its
// tallies, sharing the image's columns; a group for a type the schema
// lacks is corruption.
func restoreTallies(ts Tallies, s *schema.Schema) error {
	for _, t := range ts {
		et := s.EdgeTypeByID(t.Type)
		if et == nil {
			return fmt.Errorf("tallies for unknown edge type %d", t.Type)
		}
		var err error
		if et.SrcDeg, err = schema.DegreesFrom(t.Src.Clone()); err == nil {
			et.DstDeg, err = schema.DegreesFrom(t.Dst.Clone())
		}
		if err != nil {
			return fmt.Errorf("edge type %d: %w", t.Type, err)
		}
	}
	return nil
}

// diffTallies is keyed.Diff per edge type, walking both collections in
// type order: a type only base has loses every entry, a type only next
// has puts every entry.
func diffTallies(base, next Tallies) TallyChanges {
	var out TallyChanges
	for i, j := 0, 0; i < len(base) || j < len(next); {
		var b, n Tally
		switch {
		case j == len(next) || i < len(base) && base[i].Type < next[j].Type:
			b, n = base[i], Tally{Type: base[i].Type}
			i++
		case i == len(base) || base[i].Type > next[j].Type:
			b, n = Tally{Type: next[j].Type}, next[j]
			j++
		default:
			b, n = base[i], next[j]
			i, j = i+1, j+1
		}
		c := TallyChange{Type: n.Type}
		c.SrcPut, c.SrcDel = keyed.Diff(b.Src, n.Src)
		c.DstPut, c.DstDel = keyed.Diff(b.Dst, n.Dst)
		if !c.empty() {
			out = append(out, c)
		}
	}
	return out
}

// applyTallies folds a run's changes, in type order, onto the
// collection (Column.Apply per side), walking both in type order, and
// drops the groups left empty.
func applyTallies(ts Tallies, cs TallyChanges) Tallies {
	if len(cs) == 0 {
		return ts
	}
	var out Tallies
	i := 0
	for _, c := range cs {
		for ; i < len(ts) && ts[i].Type < c.Type; i++ {
			out = append(out, ts[i])
		}
		t := Tally{Type: c.Type}
		if i < len(ts) && ts[i].Type == c.Type {
			t = ts[i]
			i++
		}
		t.Src.Apply(c.SrcPut, c.SrcDel)
		t.Dst.Apply(c.DstPut, c.DstDel)
		if t.Src.Len()+t.Dst.Len() > 0 {
			out = append(out, t)
		}
	}
	return append(out, ts[i:]...)
}
