package core

// image_ref_test.go is the checkpoint image codec as it was before the
// hand-written one (imagecodec.go): the whole Image through
// encoding/json, each keyed collection grouped through a map of slices
// and the resolver through a map of NUL-joined label sets. It is kept,
// named refEncodeImage and refParseImage, as the oracle
// TestImageCodecMatchesRef and FuzzImageCodecMatchesRef hold the codec
// to. refImage mirrors Image member for member, with the collections
// the old way. The reader decodes into refImageIn, which is Image with
// its element-keyed members mirrored by types that encoding/json hands
// their raw bytes to: refColumn, refIDs and refIndex read those bytes
// through the wire decoders (keyed.DecodeColumn, keyed.DecodeIDs,
// pg.DecodeLabelIndex) and nothing else, so the oracle and the codec
// differ in how they read the envelope around them, which is
// encoding/json's here.

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"

	"github.com/pghive/pghive/internal/keyed"
	"github.com/pghive/pghive/internal/lsh"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

func refEncodeImage(w io.Writer, img *Image) error {
	return json.NewEncoder(w).Encode(toRefImage(img))
}

func refParseImage(data []byte) (*Image, error) {
	var in refImageIn
	if err := parseVersioned(data, func(data []byte) error { return json.Unmarshal(data, &in) }, &in.Version, "checkpoint", CheckpointVersion); err != nil {
		return nil, err
	}
	img := in.Image
	img.NodeAssign, img.EdgeAssign = keyed.Column[pg.ID, int32](in.NodeAssign), keyed.Column[pg.ID, int32](in.EdgeAssign)
	img.Resolver = pg.LabelIndex(in.Resolver)
	if in.Tallies != nil {
		img.Tallies = Tallies{}
	}
	for _, t := range in.Tallies {
		img.Tallies = append(img.Tallies, Tally{Type: t.Type, Src: keyed.Column[pg.ID, int32](t.Src), Dst: keyed.Column[pg.ID, int32](t.Dst)})
	}
	return &img, nil
}

// refImageIn is what the oracle reads an image into: Image, whose
// element-keyed members the mirrored ones shadow.
type refImageIn struct {
	Image
	Tallies    []refTallyIn `json:"tallies"`
	NodeAssign refColumn    `json:"nodeAssign"`
	EdgeAssign refColumn    `json:"edgeAssign"`
	Resolver   refIndex     `json:"resolver"`
}

type refTallyIn struct {
	Type int       `json:"type"`
	Src  refColumn `json:"src"`
	Dst  refColumn `json:"dst"`
}

// refColumn, refIDs and refIndex read one element-keyed collection each,
// handed to them by encoding/json, through its wire decoder.
type (
	refColumn keyed.Column[pg.ID, int32]
	refIDs    keyed.IDs[pg.ID]
	refIndex  pg.LabelIndex
)

// wholeInput refuses what a wire decoder left of its input.
func wholeInput(n int, data []byte, err error) error {
	if err == nil && n != len(data) {
		return fmt.Errorf("trailing bytes at offset %d", n)
	}
	return err
}

func (c *refColumn) UnmarshalJSON(data []byte) error {
	v, n, err := keyed.DecodeColumn[pg.ID, int32](data)
	*c = refColumn(v)
	return wholeInput(n, data, err)
}

func (s *refIDs) UnmarshalJSON(data []byte) error {
	*s = nil // [] is nil
	_, n, err := keyed.DecodeIDs(data, func(id pg.ID) error {
		*s = append(*s, id)
		return nil
	})
	return wholeInput(n, data, err)
}

func (s refIDs) MarshalJSON() ([]byte, error) { return keyed.IDs[pg.ID](s).MarshalJSON() }

// UnmarshalJSON reads the resolver's groups through encoding/json, which
// takes any spelling of the JSON around them, and hands them to
// pg.DecodeLabelIndex spelled as AppendLabelIndex writes them.
func (x *refIndex) UnmarshalJSON(data []byte) error {
	var groups []struct {
		Labels []string `json:"labels,omitempty"`
		IDs    refIDs   `json:"ids"`
	}
	if err := json.Unmarshal(data, &groups); err != nil {
		return err
	}
	b, err := json.Marshal(groups)
	if err != nil {
		return err
	}
	v, n, err := pg.DecodeLabelIndex(b)
	*x = refIndex(v)
	return wholeInput(n, b, err)
}

type refImage struct {
	Version        int                `json:"version"`
	Schema         schema.Persisted   `json:"schema"`
	Tallies        []refTally         `json:"tallies,omitempty"`
	Batches        int                `json:"batches"`
	NodeAssign     refMap             `json:"nodeAssign,omitempty"`
	EdgeAssign     refMap             `json:"edgeAssign,omitempty"`
	NodeClusters   int                `json:"nodeClusters"`
	EdgeClusters   int                `json:"edgeClusters"`
	NodeShapes     int                `json:"nodeShapes"`
	EdgeShapes     int                `json:"edgeShapes"`
	NodeChoice     lsh.AdaptiveChoice `json:"nodeChoice"`
	EdgeChoice     lsh.AdaptiveChoice `json:"edgeChoice"`
	NodeShapeCache []pg.ShapeEntry    `json:"nodeShapeCache,omitempty"`
	EdgeShapeCache []pg.ShapeEntry    `json:"edgeShapeCache,omitempty"`
	Resolver       refResolver        `json:"resolver,omitempty"`
	NextEdgeID     pg.ID              `json:"nextEdgeID,omitempty"`
	NextTypeID     int                `json:"nextTypeID"`
	WALSeq         uint64             `json:"walSeq,omitempty"`
	AppliedKeys    []AppliedKey       `json:"appliedKeys,omitempty"`
}

type refTally struct {
	Type int    `json:"type"`
	Src  refMap `json:"src,omitempty"`
	Dst  refMap `json:"dst,omitempty"`
}

func toRefImage(img *Image) *refImage {
	r := &refImage{
		Version: img.Version, Schema: img.Schema, Batches: img.Batches,
		NodeAssign: refMapOf(img.NodeAssign), EdgeAssign: refMapOf(img.EdgeAssign),
		NodeClusters: img.NodeClusters, EdgeClusters: img.EdgeClusters, NodeShapes: img.NodeShapes, EdgeShapes: img.EdgeShapes,
		NodeChoice: img.NodeChoice, EdgeChoice: img.EdgeChoice, NodeShapeCache: img.NodeShapeCache, EdgeShapeCache: img.EdgeShapeCache,
		Resolver: refResolverOf(&img.Resolver), NextEdgeID: img.NextEdgeID, NextTypeID: img.NextTypeID, WALSeq: img.WALSeq, AppliedKeys: img.AppliedKeys,
	}
	for _, t := range img.Tallies {
		r.Tallies = append(r.Tallies, refTally{Type: t.Type, Src: refMapOf(t.Src), Dst: refMapOf(t.Dst)})
	}
	return r
}

// refMap is an element-keyed collection as it was held and written
// before images held columns: a map, grouped by value on the way out.
type refMap map[pg.ID]int

// refMapOf copies a column into a refMap, nil when it is empty.
func refMapOf(c keyed.Column[pg.ID, int32]) refMap {
	if c.Len() == 0 {
		return nil
	}
	m := make(refMap, c.Len())
	for id, v := range c.All() {
		m[id] = int(v)
	}
	return m
}

func (m refMap) MarshalJSON() ([]byte, error) {
	byValue := map[int][]pg.ID{}
	for id, v := range m {
		byValue[v] = append(byValue[v], id)
	}
	b := make([]byte, 0, 2+4*len(m)+24*len(byValue))
	b = append(b, '[')
	for i, v := range slices.Sorted(maps.Keys(byValue)) {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"v":`...)
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, `,"ids":`...)
		ids := byValue[v]
		slices.Sort(ids)
		text, _ := keyed.IDs[pg.ID](ids).MarshalJSON() // distinct map keys, sorted: always ascends
		b = append(b, text...)
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// ResolverNode is one resolver entry as images held it before they
// held a pg.LabelIndex: a node ID and its labels.
type ResolverNode struct {
	ID     pg.ID    `json:"id"`
	Labels []string `json:"labels,omitempty"`
}

// resolverGroup is one label set's nodes on the wire.
type resolverGroup struct {
	Labels []string         `json:"labels,omitempty"`
	IDs    keyed.IDs[pg.ID] `json:"ids"`
}

// refResolver is the resolver as it was held and written, one entry per
// node in ID order.
type refResolver []ResolverNode

// refResolverOf copies an index into a refResolver, nil when it is
// empty.
func refResolverOf(x *pg.LabelIndex) refResolver {
	var ns refResolver
	for id, labels := range x.All() {
		ns = append(ns, ResolverNode{ID: id, Labels: labels})
	}
	return ns
}

func (ns refResolver) MarshalJSON() ([]byte, error) {
	var groups []resolverGroup
	at := map[string]int{}
	for _, n := range ns {
		// Joining on NUL costs nothing for the common single label. A label
		// holding a NUL can make two sets share a key, so the group found
		// is checked, and searched for on a mismatch.
		key := strings.Join(n.Labels, "\x00")
		i, ok := at[key]
		if !ok || !slices.Equal(groups[i].Labels, n.Labels) {
			i = slices.IndexFunc(groups, func(g resolverGroup) bool { return slices.Equal(g.Labels, n.Labels) })
			if i < 0 {
				i = len(groups)
				groups = append(groups, resolverGroup{Labels: n.Labels})
			}
			at[key] = i
		}
		groups[i].IDs = append(groups[i].IDs, n.ID)
	}
	slices.SortFunc(groups, func(a, b resolverGroup) int { return slices.Compare(a.Labels, b.Labels) })
	return json.Marshal(groups)
}
