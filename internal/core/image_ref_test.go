package core

// image_ref_test.go is the checkpoint image codec as it was before the
// hand-written one (imagecodec.go): the whole Image through
// encoding/json, each keyed collection grouped through a map of slices
// and the resolver through a map of NUL-joined label sets. It is kept,
// named refEncodeImage and refParseImage, as the oracle
// TestImageCodecMatchesRef and FuzzImageCodecMatchesRef hold the codec
// to. refImage mirrors Image member for member, with the collections
// the old way; the reader decodes into Image itself, whose tally
// collection reads through the old UnmarshalJSON below.

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
	var img Image
	if err := parseVersioned(data, func(data []byte) error { return json.Unmarshal(data, &img) }, &img.Version, "checkpoint", CheckpointVersion); err != nil {
		return nil, err
	}
	return &img, nil
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

// ResolverNodes is a resolver spelled as its nodes, written and read
// through pg.LabelIndex's wire form: TestResolverWireForm's view of it.
// Nodes out of ID order, which no index holds, do not encode.
type ResolverNodes []ResolverNode

func (ns ResolverNodes) MarshalJSON() ([]byte, error) {
	var x pg.LabelIndex
	for i, n := range ns {
		if i > 0 && n.ID <= ns[i-1].ID {
			return nil, fmt.Errorf("resolver: node %d after node %d", n.ID, ns[i-1].ID)
		}
		x.Put(n.ID, n.Labels)
	}
	return x.MarshalJSON()
}

func (ns *ResolverNodes) UnmarshalJSON(data []byte) error {
	var x pg.LabelIndex
	if err := x.UnmarshalJSON(data); err != nil {
		return err
	}
	*ns = (*ns)[:0]
	for id, labels := range x.All() {
		*ns = append(*ns, ResolverNode{ID: id, Labels: labels})
	}
	return nil
}

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

// UnmarshalJSON is how the image's tally collection was read: through
// encoding/json, refusing what checkGroup refuses. Only the oracle
// decodes a Tallies through encoding/json.
func (ts *Tallies) UnmarshalJSON(data []byte) error {
	var groups []Tally
	if err := json.Unmarshal(data, &groups); err != nil {
		return err
	}
	for i, g := range groups {
		ordered := i == 0 || g.Type > groups[i-1].Type
		if err := checkGroup(g.Type, ordered, g.Src.Len()+g.Dst.Len() == 0, g.Src, g.Dst); err != nil {
			return err
		}
	}
	*ts = groups
	return nil
}
