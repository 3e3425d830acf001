package core

// dirty.go is the durable layer's memtable. A tracked Incremental
// records, as its writes apply, what they changed since the last
// compaction round — which elements were (re)assigned or unassigned,
// which shapes the caches gained, which degree tally entries changed,
// which resolver entries came and went — each with the value it had
// before the round's first touch. Lift turns the record into the
// round's ImageDelta by reading the live state at exactly those keys,
// plus the schema's heads, which a run carries whole: the delta
// DiffImage would compute between an image captured when the round
// began and one captured now, without either image. A type the round
// created needs no case of its own: its tally entries had 0 before,
// as every entry a record has not seen. The before-values are what
// make churn net out: an
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
	"cmp"
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
	// nodeAssign / edgeAssign hold each touched element's type ID
	// before its first touch (unassigned when it had none).
	nodeAssign, edgeAssign map[pg.ID]int
	// tallies holds each touched degree tally entry's count before its
	// first touch (0 when the node had none).
	tallies map[tallyKey]int
	// nodeShapes / edgeShapes are the fingerprints the caches gained.
	nodeShapes, edgeShapes []string
	// resolver holds each touched resolver entry's labels before its
	// first touch.
	resolver map[pg.ID]resolverBefore

	// overflowed: the record outgrew its bound and was dropped; what
	// changed is "everything", and the round captures the state whole.
	overflowed bool
}

// tallyKey names one degree tally entry: an edge type's count of the
// node as source, or as target when dst.
type tallyKey struct {
	typ  int
	node pg.ID
	dst  bool
}

type resolverBefore struct {
	labels  []string
	present bool
}

func newDirty() *Dirty {
	return &Dirty{
		nodeAssign: map[pg.ID]int{},
		edgeAssign: map[pg.ID]int{},
		tallies:    map[tallyKey]int{},
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
	inc.dirty = newDirty()
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

// assigned records in before the element's type ID in assign, unless
// an earlier touch did.
func assigned(before map[pg.ID]int, id pg.ID, assign keyed.Column[pg.ID, int32]) {
	if _, ok := before[id]; ok {
		return
	}
	before[id] = unassigned
	if t, ok := assign.Get(id); ok {
		before[id] = int(t)
	}
}

// tally returns the live count of a tally entry in type t.
func tally(t *schema.EdgeType, k tallyKey) int {
	if k.dst {
		return t.DstDeg.Get(k.node)
	}
	return t.SrcDeg.Get(k.node)
}

// edgesMerged records the degree tallies a batch's edges raised, after
// the merge that raised them: typeOf names the type edge i ended in, and
// a tally's count before the batch is its count now less the batch's
// own edges at that endpoint.
func (d *Dirty) edgesMerged(edges []pg.Edge, typeOf func(i int) *schema.EdgeType) {
	type endpoint struct {
		t *schema.EdgeType
		k tallyKey
	}
	raised := map[endpoint]int{}
	for i := range edges {
		e := &edges[i]
		t := typeOf(i)
		raised[endpoint{t, tallyKey{t.ID, e.Src, false}}]++
		raised[endpoint{t, tallyKey{t.ID, e.Dst, true}}]++
	}
	for e, n := range raised {
		firstTouch(d.tallies, e.k, tally(e.t, e.k)-n)
	}
}

// edgeRetracting records, before RetractEdge lowers them, the two
// tallies one edge of type t holds.
func (d *Dirty) edgeRetracting(t *schema.EdgeType, src, dst pg.ID) {
	for _, k := range []tallyKey{{t.ID, src, false}, {t.ID, dst, true}} {
		firstTouch(d.tallies, k, tally(t, k))
	}
}

// edgeTypesRemoved records the tallies retraction's compaction takes
// with the types it removes. They are empty unless a retraction named
// endpoints its edges did not have.
func (d *Dirty) edgeTypesRemoved(types []*schema.EdgeType) {
	for _, t := range types {
		for id, n := range t.SrcDeg.All() {
			firstTouch(d.tallies, tallyKey{t.ID, id, false}, n)
		}
		for id, n := range t.DstDeg.All() {
			firstTouch(d.tallies, tallyKey{t.ID, id, true}, n)
		}
	}
}

// ResolverAdded records that the owner's resolver gained the node.
func (d *Dirty) ResolverAdded(id pg.ID) {
	if d.on() {
		firstTouch(d.resolver, id, resolverBefore{})
	}
}

// ResolverRemoving records that the owner's resolver drops the node,
// which it held with the labels.
func (d *Dirty) ResolverRemoving(id pg.ID, labels []string) {
	if d.on() {
		firstTouch(d.resolver, id, resolverBefore{labels: labels, present: true})
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
	*inc.dirty = *newDirty()
	if spent.overflowed {
		return nil, &spent
	}

	d := &ImageDelta{
		Version: DeltaVersion,
		FromLSN: from,
		ToLSN:   extras.WALSeq,

		Schema:       *schema.Persist(inc.sch),
		Batches:      inc.batches,
		NodeClusters: inc.result.NodeClusters,
		EdgeClusters: inc.result.EdgeClusters,
		NodeShapes:   inc.result.NodeShapes,
		EdgeShapes:   inc.result.EdgeShapes,
		NodeChoice:   inc.result.NodeChoice,
		EdgeChoice:   inc.result.EdgeChoice,
		NextTypeID:   inc.sch.NextTypeID(),
		NextEdgeID:   extras.NextEdgeID,

		Tallies:      liftTallies(spent.tallies, inc.sch),
		NodeShapePut: liftShapes(inc.nodeShapes, spent.nodeShapes),
		EdgeShapePut: liftShapes(inc.edgeShapes, spent.edgeShapes),
		AppliedKeys:  extras.AppliedKeys,
	}
	d.NodeAssign, d.NodeUnassign = liftAssign(spent.nodeAssign, inc.result.NodeAssign)
	d.EdgeAssign, d.EdgeUnassign = liftAssign(spent.edgeAssign, inc.result.EdgeAssign)
	for _, id := range slices.Sorted(maps.Keys(spent.resolver)) {
		was := spent.resolver[id]
		switch labels, ok := extras.Resolver.NodeLabels(id); {
		case !ok && was.present:
			d.ResolverDel = append(d.ResolverDel, id)
		case ok && !(was.present && slices.Equal(was.labels, labels)):
			d.ResolverPut.Put(id, labels)
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
	for id, was := range spent.nodeAssign {
		cur.nodeAssign[id] = was
	}
	for id, was := range spent.edgeAssign {
		cur.edgeAssign[id] = was
	}
	for k, was := range spent.tallies {
		cur.tallies[k] = was
	}
	cur.nodeShapes = append(spent.nodeShapes, cur.nodeShapes...)
	cur.edgeShapes = append(spent.edgeShapes, cur.edgeShapes...)
	for id, was := range spent.resolver {
		cur.resolver[id] = was
	}
}

// liftAssign is keyed.Diff over the touched elements alone: before
// holds their old type IDs, now the live assignments. It walks the
// elements in ID order, so its puts and tombstones ascend.
func liftAssign(before map[pg.ID]int, now keyed.Column[pg.ID, int32]) (puts keyed.Column[pg.ID, int32], dels keyed.IDs[pg.ID]) {
	var ids []pg.ID
	var types []int32
	for _, id := range slices.Sorted(maps.Keys(before)) {
		switch t, ok := now.Get(id); {
		case !ok && before[id] != unassigned:
			dels = append(dels, id)
		case ok && int(t) != before[id]:
			ids, types = append(ids, id), append(types, t)
		}
	}
	return keyed.FromRun(ids, types), dels
}

// liftTallies is keyed.Diff over the touched tally entries alone:
// before holds their old counts (0: none), s the live ones. An entry of
// a type that is gone counts 0. It walks each side of each type in node
// order, so the side's puts and tombstones ascend.
func liftTallies(before map[tallyKey]int, s *schema.Schema) TallyChanges {
	sides := map[tallyKey][]pg.ID{} // a type's side (no node) → its touched nodes
	for k := range before {
		side := tallyKey{typ: k.typ, dst: k.dst}
		sides[side] = append(sides[side], k.node)
	}
	var out TallyChanges
	for _, side := range slices.SortedFunc(maps.Keys(sides), func(a, b tallyKey) int { return cmp.Compare(a.typ, b.typ) }) {
		t := s.EdgeTypeByID(side.typ)
		var nodes []pg.ID
		var counts []int32
		var dels keyed.IDs[pg.ID]
		slices.Sort(sides[side])
		for _, node := range sides[side] {
			k, now := tallyKey{side.typ, node, side.dst}, 0
			if t != nil {
				now = tally(t, k)
			}
			switch was := before[k]; {
			case now == 0 && was != 0:
				dels = append(dels, node)
			case now != was:
				nodes, counts = append(nodes, node), append(counts, int32(now))
			}
		}
		if len(nodes)+len(dels) == 0 {
			continue
		}
		if len(out) == 0 || out[len(out)-1].Type != side.typ {
			out = append(out, TallyChange{Type: side.typ})
		}
		c := &out[len(out)-1]
		if side.dst {
			c.DstPut, c.DstDel = keyed.FromRun(nodes, counts), dels
		} else {
			c.SrcPut, c.SrcDel = keyed.FromRun(nodes, counts), dels
		}
	}
	return out
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
