package core

// dirty.go is the durable layer's memtable. A tracked Incremental
// records, as its writes apply, what they changed since the last
// compaction round — which elements were (re)assigned or unassigned,
// which shapes the caches gained, which types were touched and which
// of their degree tallies, which resolver entries came and went — each
// with the value it had before the round's first touch. Lift turns the
// record into the round's ImageDelta by reading the live state at
// exactly those keys: the delta DiffImage would compute between an
// image captured when the round began and one captured now, without
// either image. The before-values are what make churn net out: an
// element ingested and retracted inside one round was unassigned
// before and is unassigned now, so it leaves no trace in the run, as
// it would leave none in a diff.
//
// DiffImage stays the definition. Nothing here is checked against it
// at run time — that would cost the two images the record exists to
// avoid — so the root package's property and fuzz tests hold every
// lifted run to DiffImage of two captured images, byte for byte.

import (
	"bytes"
	"maps"
	"slices"

	"github.com/pghive/pghive/internal/keyed"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

// minDirtyCap is the number of touched elements a record may always
// hold, however small the store: below it the record is smaller than
// the decoded batches that filled it.
const minDirtyCap = 4096

// unassigned is the type ID recorded for an element that had no type
// before its first touch.
const unassigned = -1

// Dirty is what a tracked Incremental's writes changed since Track or
// the last Lift. The zero of every collection is "untouched". It is
// written under the same serialization as the writes themselves.
type Dirty struct {
	// base is the schema's bounded part as the record began.
	base *schema.Baseline

	// nodeAssign / edgeAssign hold each touched element's type ID
	// before its first touch (unassigned when it had none).
	nodeAssign, edgeAssign map[pg.ID]int
	// nodeTypes / edgeTypes name the types whose statistics a write
	// changed; an edge type's entry also holds its touched tallies.
	nodeTypes map[int]bool
	edgeTypes map[int]*schema.Touched
	// nodeShapes / edgeShapes are the fingerprints the caches gained.
	nodeShapes, edgeShapes []string
	// resolver holds each touched resolver entry's labels before its
	// first touch.
	resolver map[pg.ID]resolverBefore

	// overflowed: the record outgrew its bound and was dropped; what
	// changed is "everything", and the round captures the state whole.
	overflowed bool
}

type resolverBefore struct {
	labels  []string
	present bool
}

func newDirty(base *schema.Baseline) *Dirty {
	return &Dirty{
		base:       base,
		nodeAssign: map[pg.ID]int{},
		edgeAssign: map[pg.ID]int{},
		nodeTypes:  map[int]bool{},
		edgeTypes:  map[int]*schema.Touched{},
		resolver:   map[pg.ID]resolverBefore{},
	}
}

// Track makes the discovery record what its writes change from here
// on, for Lift. The returned record also takes the changes to state
// the owner keeps beside the discovery (ResolverAdded /
// ResolverRemoved). Until Track is called nothing is recorded: a plain
// service, a follower and recovery's scratch images never pay for it.
func (inc *Incremental) Track() *Dirty {
	inc.nodeShapes.TrackCreated()
	inc.edgeShapes.TrackCreated()
	inc.dirty = newDirty(schema.NewBaseline(inc.sch))
	return inc.dirty
}

// on reports whether writes should record: tracking is enabled and the
// record has not overflowed.
func (d *Dirty) on() bool { return d != nil && !d.overflowed }

// admit makes room for a write of n elements on a store holding live
// of them, or gives recording up: past max(minDirtyCap, live/2)
// touched elements the record would rival the state it describes, and
// a run built from it would rival a base image. It reports whether the
// write should record.
func (d *Dirty) admit(n, live int) bool {
	if d.on() && len(d.nodeAssign)+len(d.edgeAssign)+n > max(minDirtyCap, live/2) {
		*d = Dirty{overflowed: true}
	}
	return d.on()
}

// firstTouch keeps the oldest before-value of a key.
func firstTouch[K comparable, V any](m map[K]V, k K, before V) {
	if _, ok := m[k]; !ok {
		m[k] = before
	}
}

func (d *Dirty) nodeAssigned(id pg.ID, was *schema.NodeType) {
	before := unassigned
	if was != nil {
		before = was.ID
	}
	firstTouch(d.nodeAssign, id, before)
}

func (d *Dirty) edgeAssigned(id pg.ID, was *schema.EdgeType) {
	before := unassigned
	if was != nil {
		before = was.ID
	}
	firstTouch(d.edgeAssign, id, before)
}

// edgeTouched marks an edge type changed and returns its tally record,
// nil for a type the baseline lacks: that one is lifted whole.
func (d *Dirty) edgeTouched(t *schema.EdgeType) *schema.Touched {
	tt := d.edgeTypes[t.ID]
	if tt == nil {
		tt = &schema.Touched{}
		if d.base.HasEdgeType(t.ID) {
			tt.Src, tt.Dst = map[pg.ID]int{}, map[pg.ID]int{}
		}
		d.edgeTypes[t.ID] = tt
	}
	if tt.Src == nil {
		return nil
	}
	return tt
}

// edgesMerged records the degree tallies a batch's edges raised, after
// the merge that raised them: assigned names the type each edge ended
// in, and a tally's count before the batch is its count now less the
// batch's own edges at that endpoint.
func (d *Dirty) edgesMerged(edges []pg.Edge, assigned map[pg.ID]*schema.EdgeType) {
	type endpoint struct {
		t    *schema.EdgeType
		node pg.ID
		dst  bool
	}
	raised := map[endpoint]int{}
	for i := range edges {
		e := &edges[i]
		if t := assigned[e.ID]; d.edgeTouched(t) != nil {
			raised[endpoint{t, e.Src, false}]++
			raised[endpoint{t, e.Dst, true}]++
		}
	}
	for e, n := range raised {
		tt := d.edgeTypes[e.t.ID]
		if e.dst {
			firstTouch(tt.Dst, e.node, e.t.DstDeg[e.node]-n)
		} else {
			firstTouch(tt.Src, e.node, e.t.SrcDeg[e.node]-n)
		}
	}
}

// edgeRetracting records, before RetractEdge lowers them, the two
// tallies one edge of type t holds.
func (d *Dirty) edgeRetracting(t *schema.EdgeType, src, dst pg.ID) {
	if tt := d.edgeTouched(t); tt != nil {
		firstTouch(tt.Src, src, t.SrcDeg[src])
		firstTouch(tt.Dst, dst, t.DstDeg[dst])
	}
}

// ResolverAdded records that the owner's resolver gained the node.
func (d *Dirty) ResolverAdded(id pg.ID) {
	if d.on() {
		firstTouch(d.resolver, id, resolverBefore{})
	}
}

// ResolverRemoving records, before the owner's resolver drops the
// node, the labels it holds for it.
func (d *Dirty) ResolverRemoving(n *pg.Node) {
	if d.on() {
		firstTouch(d.resolver, n.ID, resolverBefore{labels: n.Labels, present: true})
	}
}

// Lift returns the delta of everything recorded since Track or the
// last Lift — what DiffImage computes between CaptureImage then (at
// WAL position from) and CaptureImage(extras) now, reading the live
// state only where the record points — and starts a new record. Of
// extras.AppliedKeys it takes the caller's word that they are the keys
// applied above from. The second result is the spent record: hand it
// to Unlift if the delta could not be made durable. When that record
// overflowed there is no delta (nil) and the caller captures the
// state whole. Serialize with writes, like every other read.
func (inc *Incremental) Lift(from uint64, extras *CheckpointExtras) (*ImageDelta, *Dirty) {
	spent := *inc.dirty
	if spent.overflowed {
		*inc.dirty = *newDirty(schema.NewBaseline(inc.sch))
		return nil, &spent
	}
	patch, base := spent.base.Lift(inc.sch, spent.nodeTypes, spent.edgeTypes)
	*inc.dirty = *newDirty(base)

	d := &ImageDelta{
		Version: DeltaVersion,
		FromLSN: from,
		ToLSN:   extras.WALSeq,

		SchemaPatch: patch,

		Batches:      inc.batches,
		NodeClusters: inc.result.NodeClusters,
		EdgeClusters: inc.result.EdgeClusters,
		NodeShapes:   inc.result.NodeShapes,
		EdgeShapes:   inc.result.EdgeShapes,
		NodeChoice:   inc.result.NodeChoice,
		EdgeChoice:   inc.result.EdgeChoice,
		NextTypeID:   inc.sch.NextTypeID(),
		NextEdgeID:   extras.NextEdgeID,

		NodeShapePut: liftShapes(inc.nodeShapes, spent.nodeShapes),
		EdgeShapePut: liftShapes(inc.edgeShapes, spent.edgeShapes),
		AppliedKeys:  extras.AppliedKeys,
	}
	d.NodeAssign, d.NodeUnassign = liftAssign(spent.nodeAssign, inc.result.NodeAssign, func(t *schema.NodeType) int { return t.ID })
	d.EdgeAssign, d.EdgeUnassign = liftAssign(spent.edgeAssign, inc.result.EdgeAssign, func(t *schema.EdgeType) int { return t.ID })
	for _, id := range slices.Sorted(maps.Keys(spent.resolver)) {
		was := spent.resolver[id]
		switch n := extras.Resolver.Node(id); {
		case n == nil && was.present:
			d.ResolverDel = append(d.ResolverDel, id)
		case n != nil && !(was.present && slices.Equal(was.labels, n.Labels)):
			d.ResolverPut = append(d.ResolverPut, ResolverNode{ID: id, Labels: n.Labels})
		}
	}
	return d, &spent
}

// Unlift hands a spent record back after its delta failed to become
// durable: the next Lift then covers both spans. Where both records
// touched a key, spent's before-value is the older one and wins.
func (inc *Incremental) Unlift(spent *Dirty) {
	cur := inc.dirty
	if spent.overflowed || cur.overflowed {
		*cur = Dirty{overflowed: true}
		return
	}
	cur.base = spent.base
	for id, was := range spent.nodeAssign {
		cur.nodeAssign[id] = was
	}
	for id, was := range spent.edgeAssign {
		cur.edgeAssign[id] = was
	}
	for id := range spent.nodeTypes {
		cur.nodeTypes[id] = true
	}
	for id, tt := range spent.edgeTypes {
		// A type cur lifts whole keeps no tallies: spent.base, now the
		// baseline again, may hold it where cur's did not.
		if now := cur.edgeTypes[id]; now != nil && now.Src != nil && tt.Src != nil {
			for node, was := range now.Src {
				firstTouch(tt.Src, node, was)
			}
			for node, was := range now.Dst {
				firstTouch(tt.Dst, node, was)
			}
		}
		cur.edgeTypes[id] = tt
	}
	cur.nodeShapes = append(spent.nodeShapes, cur.nodeShapes...)
	cur.edgeShapes = append(spent.edgeShapes, cur.edgeShapes...)
	for id, was := range spent.resolver {
		cur.resolver[id] = was
	}
}

// liftAssign is keyed.DiffMap over the touched elements alone: before
// holds their old type IDs, now the live assignments.
func liftAssign[T any](before map[pg.ID]int, now map[pg.ID]*T, typeID func(*T) int) (puts keyed.Map[pg.ID], dels keyed.IDs[pg.ID]) {
	for id, was := range before {
		switch t := now[id]; {
		case t == nil && was != unassigned:
			dels = append(dels, id)
		case t != nil && typeID(t) != was:
			if puts == nil {
				puts = keyed.Map[pg.ID]{}
			}
			puts[id] = typeID(t)
		}
	}
	slices.Sort(dels)
	return puts, dels
}

// liftShapes exports the named cache entries in fingerprint order.
func liftShapes(c *pg.ShapeCache, keys []string) []pg.ShapeEntry {
	var puts []pg.ShapeEntry
	for _, k := range keys {
		if e, ok := c.Entry(k); ok {
			puts = append(puts, e)
		}
	}
	slices.SortFunc(puts, func(a, b pg.ShapeEntry) int { return bytes.Compare(a.Key, b.Key) })
	return puts
}
