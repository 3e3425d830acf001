package core

// delta_ref_test.go is the run payload reader as it was before runs
// were read by the image reader's member walk (imagecodec.go): the
// whole ImageDelta through encoding/json. It is kept, named
// refParseDelta, as the oracle FuzzDeltaCodecMatchesRef holds ParseDelta
// to. As refParseImage does, it reads the element-keyed members through
// the wire decoders (refColumn, refIDs, refIndex in image_ref_test.go)
// and the envelope around them through encoding/json.

import (
	"encoding/json"

	"github.com/pghive/pghive/internal/keyed"
	"github.com/pghive/pghive/internal/pg"
)

func refParseDelta(data []byte) (*ImageDelta, error) {
	var in refDeltaIn
	if err := parseVersioned(data, func(data []byte) error { return json.Unmarshal(data, &in) }, &in.Version, "delta", DeltaVersion); err != nil {
		return nil, err
	}
	d := in.ImageDelta
	d.NodeAssign, d.NodeUnassign = keyed.Column[pg.ID, int32](in.NodeAssign), keyed.IDs[pg.ID](in.NodeUnassign)
	d.EdgeAssign, d.EdgeUnassign = keyed.Column[pg.ID, int32](in.EdgeAssign), keyed.IDs[pg.ID](in.EdgeUnassign)
	d.ResolverPut, d.ResolverDel = pg.LabelIndex(in.ResolverPut), keyed.IDs[pg.ID](in.ResolverDel)
	if in.Tallies != nil {
		d.Tallies = TallyChanges{}
	}
	for _, c := range in.Tallies {
		d.Tallies = append(d.Tallies, TallyChange{
			Type:   c.Type,
			SrcPut: keyed.Column[pg.ID, int32](c.SrcPut), SrcDel: keyed.IDs[pg.ID](c.SrcDel),
			DstPut: keyed.Column[pg.ID, int32](c.DstPut), DstDel: keyed.IDs[pg.ID](c.DstDel),
		})
	}
	return &d, nil
}

// refDeltaIn is what the oracle reads a run into: ImageDelta, whose
// element-keyed members the mirrored ones shadow.
type refDeltaIn struct {
	ImageDelta
	Tallies      []refTallyChangeIn `json:"tallies"`
	NodeAssign   refColumn          `json:"nodeAssign"`
	NodeUnassign refIDs             `json:"nodeUnassign"`
	EdgeAssign   refColumn          `json:"edgeAssign"`
	EdgeUnassign refIDs             `json:"edgeUnassign"`
	ResolverPut  refIndex           `json:"resolverPut"`
	ResolverDel  refIDs             `json:"resolverDel"`
}

type refTallyChangeIn struct {
	Type   int       `json:"type"`
	SrcPut refColumn `json:"srcPut"`
	SrcDel refIDs    `json:"srcDel"`
	DstPut refColumn `json:"dstPut"`
	DstDel refIDs    `json:"dstDel"`
}
