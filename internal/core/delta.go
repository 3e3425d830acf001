package core

// delta.go turns two checkpoint Images into an ImageDelta — the
// payload of one durable-layer run file — and folds a delta back onto
// an image. The pair is exact by construction: for any base and next,
// Apply(base, Diff(base, next)) rebuilds next's state (the scalar
// fields value-for-value; the keyed collections as sets, which is all
// image serialization observes since it emits them in canonical
// order). That equivalence is what lets compaction write only what
// changed since the previous fold while recovery still reaches the
// bit-identical full image.
//
// Every keyed collection travels as puts and deletes — the deletes
// are the tombstones of the run layout — under one rule per shape:
// keyed.DiffMap / ApplyMap for maps (the assignments here, the degree
// tallies inside the schema patch), diffSorted / applySorted for
// key-sorted slices (shape caches, resolver). The scalars (counters,
// adaptive choices) are O(types) and carried whole; the schema, whose
// degree statistics grow with the database, as a structural patch
// (schema.Diff).
//
// EncodeDelta and ParseDelta own a run's bytes (format generation 2,
// as images). Element-keyed puts and tombstones are written the way
// images write them: assignments and degree puts as keyed.Map value
// groups, tombstones as gap-coded keyed.IDs, resolver puts grouped by
// label set. A run of any other version is refused by its version.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"github.com/pghive/pghive/internal/keyed"
	"github.com/pghive/pghive/internal/lsh"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

// DeltaVersion is the ImageDelta format version, the only one ParseDelta
// reads. Version 2 writes the element-keyed puts and tombstones grouped
// and gap-coded, as images are.
const DeltaVersion = 2

// ImageDelta is the difference between two checkpoint images: the
// state change a span of WAL records (FromLSN, ToLSN] produced.
// Collections list puts and deletes in canonical order (IDs and
// fingerprints ascending), so identical deltas marshal to identical
// bytes — run files are golden-diffable like checkpoints.
type ImageDelta struct {
	Version int `json:"version"`
	// FromLSN / ToLSN bound the WAL span the delta covers: it applies
	// only to an image whose WALSeq equals FromLSN, and produces an
	// image covering ToLSN.
	FromLSN uint64 `json:"fromLSN"`
	ToLSN   uint64 `json:"toLSN"`

	// SchemaPatch is the structural schema diff (schema.Diff); absent
	// when the schema did not change across the span.
	SchemaPatch *schema.Patch `json:"schemaPatch,omitempty"`

	// Whole-value replacements: O(schema), not O(elements).
	Batches      int                `json:"batches"`
	NodeClusters int                `json:"nodeClusters"`
	EdgeClusters int                `json:"edgeClusters"`
	NodeShapes   int                `json:"nodeShapes"`
	EdgeShapes   int                `json:"edgeShapes"`
	NodeChoice   lsh.AdaptiveChoice `json:"nodeChoice"`
	EdgeChoice   lsh.AdaptiveChoice `json:"edgeChoice"`
	NextTypeID   int                `json:"nextTypeID"`
	NextEdgeID   pg.ID              `json:"nextEdgeID,omitempty"`

	// Assignment puts and tombstones.
	NodeAssign   keyed.Map[pg.ID] `json:"nodeAssign,omitempty"`
	NodeUnassign keyed.IDs[pg.ID] `json:"nodeUnassign,omitempty"`
	EdgeAssign   keyed.Map[pg.ID] `json:"edgeAssign,omitempty"`
	EdgeUnassign keyed.IDs[pg.ID] `json:"edgeUnassign,omitempty"`

	// Shape-cache puts and tombstones, fingerprint-ascending (deleted
	// fingerprints marshal as base64 like ShapeEntry keys).
	NodeShapePut []pg.ShapeEntry `json:"nodeShapePut,omitempty"`
	NodeShapeDel [][]byte        `json:"nodeShapeDel,omitempty"`
	EdgeShapePut []pg.ShapeEntry `json:"edgeShapePut,omitempty"`
	EdgeShapeDel [][]byte        `json:"edgeShapeDel,omitempty"`

	// Resolver puts and tombstones, ID-ascending.
	ResolverPut ResolverNodes    `json:"resolverPut,omitempty"`
	ResolverDel keyed.IDs[pg.ID] `json:"resolverDel,omitempty"`

	// AppliedKeys are the idempotency keys applied in (FromLSN, ToLSN],
	// in LSN order. Keys the base image already carried are not
	// repeated; merging concatenates, and the bounded applied-key
	// store re-applies its retention cap on restore.
	AppliedKeys []AppliedKey `json:"appliedKeys,omitempty"`
}

// Tombstones counts the delta's deletions — the numerator of the
// durable layer's fold-triggering tombstone ratio.
func (d *ImageDelta) Tombstones() int {
	return len(d.NodeUnassign) + len(d.EdgeUnassign) +
		len(d.NodeShapeDel) + len(d.EdgeShapeDel) + len(d.ResolverDel)
}

// Puts counts the delta's upserts, as Tombstones counts its deletions.
func (d *ImageDelta) Puts() int {
	return len(d.NodeAssign) + len(d.EdgeAssign) +
		len(d.NodeShapePut) + len(d.EdgeShapePut) + len(d.ResolverPut)
}

// DiffImage computes the delta that transforms base into next. Both
// images must be canonical (as produced by CaptureImage / DecodeImage)
// and next.WALSeq must not precede base.WALSeq.
func DiffImage(base, next *Image) (*ImageDelta, error) {
	if base.Version != CheckpointVersion || next.Version != CheckpointVersion {
		return nil, fmt.Errorf("core: delta: unsupported image versions %d -> %d", base.Version, next.Version)
	}
	if next.WALSeq < base.WALSeq {
		return nil, fmt.Errorf("core: delta: next image covers LSN %d, before base LSN %d", next.WALSeq, base.WALSeq)
	}
	d := &ImageDelta{
		Version: DeltaVersion,
		FromLSN: base.WALSeq,
		ToLSN:   next.WALSeq,

		Batches:      next.Batches,
		NodeClusters: next.NodeClusters,
		EdgeClusters: next.EdgeClusters,
		NodeShapes:   next.NodeShapes,
		EdgeShapes:   next.EdgeShapes,
		NodeChoice:   next.NodeChoice,
		EdgeChoice:   next.EdgeChoice,
		NextTypeID:   next.NextTypeID,
		NextEdgeID:   next.NextEdgeID,

		SchemaPatch: schema.Diff(&base.Schema, &next.Schema),
	}
	d.NodeAssign, d.NodeUnassign = keyed.DiffMap(base.NodeAssign, next.NodeAssign, cmp.Compare)
	d.EdgeAssign, d.EdgeUnassign = keyed.DiffMap(base.EdgeAssign, next.EdgeAssign, cmp.Compare)
	d.NodeShapePut, d.NodeShapeDel = diffSorted(base.NodeShapeCache, next.NodeShapeCache, shapeKey, bytes.Compare, shapeEqual)
	d.EdgeShapePut, d.EdgeShapeDel = diffSorted(base.EdgeShapeCache, next.EdgeShapeCache, shapeKey, bytes.Compare, shapeEqual)
	d.ResolverPut, d.ResolverDel = diffSorted(base.Resolver, next.Resolver, resolverKey, cmp.Compare, resolverEqual)
	for _, k := range next.AppliedKeys {
		if k.LSN > base.WALSeq {
			d.AppliedKeys = append(d.AppliedKeys, k)
		}
	}
	return d, nil
}

// Apply folds the delta onto img in place, advancing it from FromLSN
// to ToLSN. The delta chain's contiguity is enforced here: applying a
// run whose FromLSN is not exactly the image's covered LSN fails.
func (d *ImageDelta) Apply(img *Image) error {
	if err := checkVersion("delta", d.Version, DeltaVersion); err != nil {
		return err
	}
	if err := checkVersion("checkpoint", img.Version, CheckpointVersion); err != nil {
		return err
	}
	if d.FromLSN != img.WALSeq {
		return fmt.Errorf("core: delta: run starts at LSN %d but image covers LSN %d", d.FromLSN, img.WALSeq)
	}

	if d.SchemaPatch != nil {
		patched, err := d.SchemaPatch.Apply(&img.Schema)
		if err != nil {
			return fmt.Errorf("core: delta: schema patch: %w", err)
		}
		img.Schema = *patched
	}
	img.Batches = d.Batches
	img.NodeClusters = d.NodeClusters
	img.EdgeClusters = d.EdgeClusters
	img.NodeShapes = d.NodeShapes
	img.EdgeShapes = d.EdgeShapes
	img.NodeChoice = d.NodeChoice
	img.EdgeChoice = d.EdgeChoice
	img.NextTypeID = d.NextTypeID
	img.NextEdgeID = d.NextEdgeID

	img.NodeAssign = keyed.ApplyMap(img.NodeAssign, d.NodeAssign, d.NodeUnassign)
	img.EdgeAssign = keyed.ApplyMap(img.EdgeAssign, d.EdgeAssign, d.EdgeUnassign)
	img.NodeShapeCache = applySorted(img.NodeShapeCache, d.NodeShapePut, d.NodeShapeDel, shapeKey, bytes.Compare)
	img.EdgeShapeCache = applySorted(img.EdgeShapeCache, d.EdgeShapePut, d.EdgeShapeDel, shapeKey, bytes.Compare)
	img.Resolver = applySorted(img.Resolver, d.ResolverPut, d.ResolverDel, resolverKey, cmp.Compare)
	img.AppliedKeys = append(img.AppliedKeys, d.AppliedKeys...)
	img.WALSeq = d.ToLSN
	return nil
}

// EncodeDelta writes the delta in the canonical run payload format
// (compact JSON, sorted map keys).
func EncodeDelta(d *ImageDelta) ([]byte, error) {
	return json.Marshal(d)
}

// ParseDelta decodes one run payload, refusing any other version.
func ParseDelta(data []byte) (*ImageDelta, error) {
	var d ImageDelta
	if err := parseVersioned(data, &d, &d.Version, "delta", DeltaVersion); err != nil {
		return nil, err
	}
	return &d, nil
}

// How the two key-sorted collections are keyed and compared.
func shapeKey(e pg.ShapeEntry) []byte { return e.Key }
func shapeEqual(a, b pg.ShapeEntry) bool {
	return a.Token == b.Token && slices.Equal(a.Items, b.Items)
}
func resolverKey(n ResolverNode) pg.ID     { return n.ID }
func resolverEqual(a, b ResolverNode) bool { return slices.Equal(a.Labels, b.Labels) }

// diffSorted merge-walks two key-sorted slices into the entries next
// holds that base lacks or holds differently, and the keys only base
// holds, both key-ascending.
func diffSorted[E, K any](base, next []E, key func(E) K, compare func(a, b K) int, equal func(a, b E) bool) (puts []E, dels []K) {
	i, j := 0, 0
	for i < len(base) || j < len(next) {
		switch {
		case j == len(next) || i < len(base) && compare(key(base[i]), key(next[j])) < 0:
			dels = append(dels, key(base[i]))
			i++
		case i == len(base) || compare(key(base[i]), key(next[j])) > 0:
			puts = append(puts, next[j])
			j++
		default:
			if !equal(base[i], next[j]) {
				puts = append(puts, next[j])
			}
			i, j = i+1, j+1
		}
	}
	return puts, dels
}

// applySorted folds puts, then dels, onto a key-sorted slice; the
// result is key-sorted, nil when empty (canonical: marshals as
// absent). It trusts no order in what a run file handed it: the last
// put of a key wins, and a deleted key is gone wherever it was named.
func applySorted[E, K any](entries, puts []E, dels []K, key func(E) K, compare func(a, b K) int) []E {
	if len(puts) == 0 && len(dels) == 0 {
		return entries
	}
	byKey := func(a, b E) int { return compare(key(a), key(b)) }
	all := slices.Concat(entries, puts)
	slices.SortStableFunc(all, byKey)
	dels = slices.Clone(dels)
	slices.SortFunc(dels, compare)
	out := all[:0]
	for i, e := range all {
		_, gone := slices.BinarySearchFunc(dels, key(e), compare)
		if last := i+1 == len(all) || byKey(e, all[i+1]) != 0; last && !gone {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
