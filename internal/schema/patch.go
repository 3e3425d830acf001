package schema

// patch.go diffs two persisted schemas (Persisted values) into a
// structural patch and applies it back. The schema is the one image
// member that is NOT O(types): each edge type carries per-node degree
// tallies (SrcDeg/DstDeg) powering §4.4 cardinality inference, so it
// grows with the database. Carrying it whole in every delta run would
// make compaction IO proportional to database size — exactly what the
// run layout exists to avoid — so the patch diffs the degree maps
// key-wise (keyed.DiffMap, the rule of every map an image holds) and
// re-emits only each type's bounded "head" (labels, props, tokens,
// counters) when it changed. The degree puts and deletes are written in
// keyed's wire form: grouped by count, node IDs gap-coded in numeric
// order.
//
// Exactness contract, on values: Diff(old, new).Apply(old) equals new
// — the same types in the same order, deeply equal heads, equal degree
// tallies — and so encodes to the same bytes. Diff proves that on
// every call and falls back to carrying the new schema whole (a
// "replace" patch) whenever the inputs resist structural diffing: an
// unknown version, duplicate type IDs, a patch that fails its own
// proof. The fallback degrades to the old behavior, never to a wrong
// schema. (A fallback for new schemas with fields this model would
// drop went with the text it guarded.) Nothing here encodes or decodes
// beyond the field types that choose the wire form.
//
// Diff reads both schemas whole, tallies included: O(database). The
// compaction path does not call it. A durable writer records which
// types and which tallies it touched since its last round (Touched)
// and Baseline.Lift builds the same patch from those alone. What that
// costs, plainly: Lift does not run Diff's self-proof — applying the
// patch and comparing the result with new is itself O(database) — so
// a lifted patch is not re-checked at run time. It is held to Diff
// from outside instead: the property and fuzz tests in the root
// package compare every lifted run with DiffImage of two captured
// images, byte for byte. Everything recovery refuses it still
// refuses: Patch.Apply's checks, ImageDelta.Apply's contiguity, the
// run CRCs.

import (
	"cmp"
	"fmt"
	"maps"
	"reflect"
	"slices"

	"github.com/pghive/pghive/internal/keyed"
	"github.com/pghive/pghive/internal/pg"
)

// patchVersion is the schema-patch format version; Apply refuses any
// other.
const patchVersion = 2

// jsonTypePatch carries one type's change. Head is the full type with
// the degree maps stripped — O(labels + props), re-emitted whole when
// any of it changed or the type is new. The degree maps themselves
// travel as key-wise upserts and deletions.
type jsonTypePatch struct {
	ID        int                `json:"id"`
	Head      *jsonType          `json:"head,omitempty"`
	SrcDegSet keyed.Map[nodeKey] `json:"srcDegSet,omitempty"`
	SrcDegDel keyed.IDs[nodeKey] `json:"srcDegDel,omitempty"`
	DstDegSet keyed.Map[nodeKey] `json:"dstDegSet,omitempty"`
	DstDegDel keyed.IDs[nodeKey] `json:"dstDegDel,omitempty"`
}

// Patch is the structural difference between two Persisted schemas —
// the schemaPatch member of a delta-run payload.
type Patch struct {
	Version int `json:"version"`
	// Replace, when set, is the whole new schema and the rest of the
	// patch is empty: the structural-diff fallback.
	Replace *Persisted `json:"replace,omitempty"`
	// NodeIDs / EdgeIDs are the new schema's complete type-ID lists in
	// order — membership and order are authoritative, so dropped types
	// (merged away) need no tombstone entries.
	NodeIDs   []int           `json:"nodeIDs,omitempty"`
	EdgeIDs   []int           `json:"edgeIDs,omitempty"`
	NodeTypes []jsonTypePatch `json:"nodeTypes,omitempty"`
	EdgeTypes []jsonTypePatch `json:"edgeTypes,omitempty"`
}

// Diff computes the patch transforming old into new, nil when the two
// are equal. It never fails on strange input: anything that cannot be
// diffed structurally yields a replace patch carrying new. The patch
// may share memory with new; neither is modified afterwards.
func Diff(old, new *Persisted) *Patch {
	if old.equal(new) {
		return nil
	}
	replace := &Patch{Version: patchVersion, Replace: new}
	if !old.patchable() || !new.patchable() {
		return replace
	}
	p := &Patch{Version: patchVersion}
	p.NodeIDs, p.NodeTypes = diffTypes(old.NodeTypes, new.NodeTypes)
	p.EdgeIDs, p.EdgeTypes = diffTypes(old.EdgeTypes, new.EdgeTypes)

	// Prove the patch reconstructs the new schema before trusting it
	// with recovery: a diff bug must surface here, at compaction time,
	// as a silent fallback to the always-correct replace form.
	if applied, err := p.Apply(old); err != nil || !applied.equal(new) {
		return replace
	}
	return p
}

// Baseline is the bounded part of a schema at one point — the order of
// its types and each type's head — which is all of the old side that
// Lift needs. O(types), never O(database).
type Baseline struct {
	nodeIDs, edgeIDs     []int
	nodeHeads, edgeHeads map[int]jsonType
}

// NewBaseline captures s's baseline.
func NewBaseline(s *Schema) *Baseline {
	b := &Baseline{
		nodeHeads: make(map[int]jsonType, len(s.NodeTypes)),
		edgeHeads: make(map[int]jsonType, len(s.EdgeTypes)),
	}
	for _, nt := range s.NodeTypes {
		b.nodeIDs = append(b.nodeIDs, nt.ID)
		b.nodeHeads[nt.ID] = typeToJSON(&nt.Type)
	}
	for _, et := range s.EdgeTypes {
		b.edgeIDs = append(b.edgeIDs, et.ID)
		b.edgeHeads[et.ID] = edgeHeadToJSON(et)
	}
	return b
}

// HasEdgeType reports whether the baseline holds an edge type with the
// ID. A type it lacks is lifted whole, so its tallies need no record.
func (b *Baseline) HasEdgeType(id int) bool {
	_, ok := b.edgeHeads[id]
	return ok
}

// Touched is what a schema's owner recorded about one edge type since
// a baseline: the degree tallies it changed, each with the count the
// node had before the first change (0 when it had none).
type Touched struct {
	Src, Dst map[pg.ID]int
}

// Lift builds the patch from the schema b was captured from to s —
// what Diff returns for the two, persisted — and s's own baseline. It
// reads only the types s gained and the ones named in nodes and edges,
// which must cover every type changed since b; the rest are taken as
// unchanged. The patch shares no memory with s.
func (b *Baseline) Lift(s *Schema, nodes map[int]bool, edges map[int]*Touched) (*Patch, *Baseline) {
	next := &Baseline{
		nodeHeads: make(map[int]jsonType, len(s.NodeTypes)),
		edgeHeads: make(map[int]jsonType, len(s.EdgeTypes)),
	}
	p := &Patch{Version: patchVersion}
	for _, nt := range s.NodeTypes {
		p.NodeIDs = append(p.NodeIDs, nt.ID)
		head, known := b.nodeHeads[nt.ID]
		if !known || nodes[nt.ID] {
			now := typeToJSON(&nt.Type)
			if !known || !reflect.DeepEqual(head, now) {
				p.NodeTypes = append(p.NodeTypes, jsonTypePatch{ID: nt.ID, Head: &now})
			}
			head = now
		}
		next.nodeHeads[nt.ID] = head
	}
	for _, et := range s.EdgeTypes {
		p.EdgeIDs = append(p.EdgeIDs, et.ID)
		head, known := b.edgeHeads[et.ID]
		if t := edges[et.ID]; !known || t != nil {
			now := edgeHeadToJSON(et)
			tp := jsonTypePatch{ID: et.ID}
			if !known {
				tp.Head = &now
				tp.SrcDegSet, tp.DstDegSet = rekey[nodeKey](et.SrcDeg), rekey[nodeKey](et.DstDeg)
			} else {
				if !reflect.DeepEqual(head, now) {
					tp.Head = &now
				}
				tp.SrcDegSet, tp.SrcDegDel = liftDeg(t.Src, et.SrcDeg)
				tp.DstDegSet, tp.DstDegDel = liftDeg(t.Dst, et.DstDeg)
			}
			if tp.Head != nil || tp.SrcDegSet != nil || tp.SrcDegDel != nil || tp.DstDegSet != nil || tp.DstDegDel != nil {
				p.EdgeTypes = append(p.EdgeTypes, tp)
			}
			head = now
		}
		next.edgeHeads[et.ID] = head
	}
	next.nodeIDs, next.edgeIDs = p.NodeIDs, p.EdgeIDs
	if p.NodeTypes == nil && p.EdgeTypes == nil &&
		slices.Equal(b.nodeIDs, next.nodeIDs) && slices.Equal(b.edgeIDs, next.edgeIDs) {
		return nil, next
	}
	return p, next
}

// liftDeg is keyed.DiffMap over the touched keys alone: before holds
// their old counts (0: absent), now the live tally.
func liftDeg(before, now map[pg.ID]int) (set keyed.Map[nodeKey], del keyed.IDs[nodeKey]) {
	for id, was := range before {
		switch count, ok := now[id]; {
		case ok && count != was:
			if set == nil {
				set = keyed.Map[nodeKey]{}
			}
			set[nodeKey(id)] = count
		case !ok && was != 0:
			del = append(del, nodeKey(id))
		}
	}
	slices.Sort(del)
	return set, del
}

// Apply returns the schema the patch was diffed against, built from
// the schema it was diffed from. old is not modified: unchanged types
// are shared with the result, patched degree maps are copied.
func (p *Patch) Apply(old *Persisted) (*Persisted, error) {
	if p.Version != patchVersion {
		return nil, fmt.Errorf("schema: patch: unsupported version %d", p.Version)
	}
	if p.Replace != nil {
		return p.Replace, nil
	}
	if !old.patchable() {
		return nil, fmt.Errorf("schema: patch: base schema is not patchable")
	}
	out := &Persisted{Version: persistVersion}
	var err error
	if out.NodeTypes, err = applyTypes(old.NodeTypes, p.NodeIDs, p.NodeTypes, "node"); err != nil {
		return nil, err
	}
	if out.EdgeTypes, err = applyTypes(old.EdgeTypes, p.EdgeIDs, p.EdgeTypes, "edge"); err != nil {
		return nil, err
	}
	return out, nil
}

// patchable reports whether structural patching is safe: known
// version, unique type IDs.
func (p *Persisted) patchable() bool {
	return p.Version == persistVersion &&
		len(typesByID(p.NodeTypes)) == len(p.NodeTypes) && len(typesByID(p.EdgeTypes)) == len(p.EdgeTypes)
}

func typesByID(types []jsonType) map[int]*jsonType {
	byID := make(map[int]*jsonType, len(types))
	for i := range types {
		byID[types[i].ID] = &types[i]
	}
	return byID
}

// equal reports whether two schemas hold the same types in the same
// order: deeply equal heads, and degree tallies equal as maps, so the
// O(database) part of the comparison allocates nothing.
func (p *Persisted) equal(o *Persisted) bool {
	typeEqual := func(a, b jsonType) bool {
		return maps.Equal(a.SrcDeg, b.SrcDeg) && maps.Equal(a.DstDeg, b.DstDeg) &&
			reflect.DeepEqual(headOf(a), headOf(b))
	}
	return p.Version == o.Version &&
		slices.EqualFunc(p.NodeTypes, o.NodeTypes, typeEqual) &&
		slices.EqualFunc(p.EdgeTypes, o.EdgeTypes, typeEqual)
}

// headOf strips the degree maps: the bounded part of a type that is
// compared (and, on change, re-emitted) as a unit.
func headOf(t jsonType) jsonType {
	t.SrcDeg, t.DstDeg = nil, nil
	return t
}

func diffTypes(old, new []jsonType) (ids []int, patches []jsonTypePatch) {
	byID := typesByID(old)
	for i := range new {
		nt := &new[i]
		ids = append(ids, nt.ID)
		ot := byID[nt.ID]
		if ot == nil {
			head := headOf(*nt)
			patches = append(patches, jsonTypePatch{
				ID:        nt.ID,
				Head:      &head,
				SrcDegSet: nt.SrcDeg,
				DstDegSet: nt.DstDeg,
			})
			continue
		}
		tp := jsonTypePatch{ID: nt.ID}
		if oh, nh := headOf(*ot), headOf(*nt); !reflect.DeepEqual(oh, nh) {
			tp.Head = &nh
		}
		tp.SrcDegSet, tp.SrcDegDel = keyed.DiffMap(ot.SrcDeg, nt.SrcDeg, cmp.Compare)
		tp.DstDegSet, tp.DstDegDel = keyed.DiffMap(ot.DstDeg, nt.DstDeg, cmp.Compare)
		if tp.Head != nil || tp.SrcDegSet != nil || tp.SrcDegDel != nil || tp.DstDegSet != nil || tp.DstDegDel != nil {
			patches = append(patches, tp)
		}
	}
	return ids, patches
}

func applyTypes(old []jsonType, ids []int, patches []jsonTypePatch, kind string) ([]jsonType, error) {
	byID := typesByID(old)
	patchByID := make(map[int]*jsonTypePatch, len(patches))
	for i := range patches {
		patchByID[patches[i].ID] = &patches[i]
	}
	var out []jsonType
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		ot, tp := byID[id], patchByID[id]
		var t jsonType
		switch {
		case seen[id]: // also bounds the work a hostile ID list can ask for
			return nil, fmt.Errorf("schema: patch: %s type %d listed twice", kind, id)
		case ot == nil && (tp == nil || tp.Head == nil):
			return nil, fmt.Errorf("schema: patch: new %s type %d has no head", kind, id)
		case ot == nil:
			t = *tp.Head
		case tp != nil && tp.Head != nil:
			t = *tp.Head
			t.SrcDeg, t.DstDeg = ot.SrcDeg, ot.DstDeg
		default:
			t = *ot
		}
		if tp != nil {
			t.SrcDeg = applyDeg(t.SrcDeg, tp.SrcDegSet, tp.SrcDegDel)
			t.DstDeg = applyDeg(t.DstDeg, tp.DstDegSet, tp.DstDegDel)
		}
		seen[id] = true
		out = append(out, t)
	}
	return out, nil
}

// applyDeg is keyed.ApplyMap on a copy: old belongs to the base image.
func applyDeg(old map[nodeKey]int, set keyed.Map[nodeKey], del keyed.IDs[nodeKey]) map[nodeKey]int {
	if len(set) == 0 && len(del) == 0 {
		return old
	}
	return keyed.ApplyMap(maps.Clone(old), set, del)
}
