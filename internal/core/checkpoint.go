package core

// checkpoint.go persists the FULL cross-batch state of an incremental
// discovery, not just the schema: per-element type assignments (which
// unlabeled-endpoint resolution and retraction need), the interned
// shape caches, the accumulated counters, and — when the caller
// passes it — the stream reader's endpoint bookkeeping. Restoring a
// checkpoint taken mid-stream and finishing the stream produces a
// schema and assignments bit-identical to the uninterrupted run;
// WriteSchemaJSON alone cannot promise that (a schema-only resume
// loses assignments, so previously seen unlabeled endpoints stop
// resolving to their discovered types).
//
// The materialized state is exposed as an Image: a plain value the
// durable layer can capture, serialize, decode, diff (delta.go) and
// merge without holding a live pipeline. It holds values all the way
// down (the schema is a schema.Persisted, not its text) and is JSON
// only past EncodeImage and before DecodeImage. WriteCheckpoint is
// CaptureImage + EncodeImage; ResumeFromCheckpoint is DecodeImage +
// RestoreImage.
//
// The byte format is generation 3 (CheckpointVersion), which
// imagecodec.go writes and reads: compact JSON with its members in
// declaration order, in which every element-keyed collection is grouped
// and gap-coded — the assignments and the degree tallies (tally.go) in
// keyed's form, the resolver as one ID list per label set
// (pg.AppendLabelIndex). An image of any other version is refused by
// its version, never read. The schema inside an image is its heads alone
// (schema.Persisted): WriteSchemaJSON writes the same heads with each
// edge type's tallies inside it, and an image keeps those in Tallies.
//
// An image shares the pipeline's columns and the resolver's index
// copy-on-write; writes on either side never reach the other.
// CaptureImage and RestoreImage share them with an O(1) Clone.
// Compaction depends on it — a round that captures the state whole
// encodes the image off the write lock, while writes keep landing on
// the pipeline it came from.

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/pghive/pghive/internal/keyed"
	"github.com/pghive/pghive/internal/lsh"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

// CheckpointVersion is the format version WriteCheckpoint emits and the
// only one the decoders read. Version 3 keeps the degree tallies in
// Tallies, beside the schema's heads.
const CheckpointVersion = 3

// Image is the materialized checkpoint state — the on-disk layout of a
// checkpoint file and the value delta runs are diffed against. Its
// members are written in declaration order (imagecodec.go), keyed
// collections in ascending order and shape entries in fingerprint
// order, so identical states serialize to identical bytes
// — which is what lets tests (and operators) diff checkpoints
// directly, and what makes the recovered-state bit-identity property
// checkable by comparing encoded images.
type Image struct {
	Version int `json:"version"`
	// Schema is the evolving schema's heads: what WriteSchemaJSON
	// encodes, less the degree tallies.
	Schema schema.Persisted `json:"schema"`
	// Tallies are the edge types' degree tallies, in type-ID order.
	Tallies Tallies `json:"tallies,omitempty"`
	// Batches counts processed batches.
	Batches int `json:"batches"`
	// NodeAssign / EdgeAssign map element IDs to schema type IDs.
	NodeAssign keyed.Column[pg.ID, int32] `json:"nodeAssign,omitempty"`
	EdgeAssign keyed.Column[pg.ID, int32] `json:"edgeAssign,omitempty"`
	// Accumulated Result counters.
	NodeClusters int `json:"nodeClusters"`
	EdgeClusters int `json:"edgeClusters"`
	NodeShapes   int `json:"nodeShapes"`
	EdgeShapes   int `json:"edgeShapes"`
	// NodeChoice / EdgeChoice are the last adaptive parameter choices.
	NodeChoice lsh.AdaptiveChoice `json:"nodeChoice"`
	EdgeChoice lsh.AdaptiveChoice `json:"edgeChoice"`
	// NodeShapeCache / EdgeShapeCache are the interned shape caches,
	// in byte-wise fingerprint order.
	NodeShapeCache []pg.ShapeEntry `json:"nodeShapeCache,omitempty"`
	EdgeShapeCache []pg.ShapeEntry `json:"edgeShapeCache,omitempty"`
	// Resolver is the stream's endpoint bookkeeping.
	Resolver pg.LabelIndex `json:"resolver,omitempty"`
	// NextEdgeID preserves the CSV stream's sequential edge-ID counter
	// (0 for JSONL streams, whose IDs are explicit in the input).
	NextEdgeID pg.ID `json:"nextEdgeID,omitempty"`
	// NextTypeID preserves the schema's type-ID counter. The schema
	// image alone cannot: after a retraction compacts a type away, the
	// live counter sits past the highest surviving ID, and restoring
	// it as max+1 would reuse the compacted ID — diverging from the
	// uninterrupted run in every later ABSTRACT_<id> name.
	NextTypeID int `json:"nextTypeID"`
	// WALSeq is the last write-ahead-log sequence number folded into
	// this image (durable serving's compactor sets it; zero for
	// manual images). Recovery replays only WAL records above it.
	WALSeq uint64 `json:"walSeq,omitempty"`
	// AppliedKeys are the idempotency keys of writes folded into this
	// image, in LSN order. Without them, compacting (which prunes the
	// WAL records that carried the keys) would let a client's retry of
	// an already-applied write slip through after a restart.
	AppliedKeys []AppliedKey `json:"appliedKeys,omitempty"`
}

// Elements counts the assigned elements (nodes + edges) the image
// holds — the denominator of the durable layer's tombstone ratio.
func (img *Image) Elements() int {
	return img.NodeAssign.Len() + img.EdgeAssign.Len()
}

// AppliedKey records one applied idempotency key and the WAL LSN of
// the record that carried it.
type AppliedKey struct {
	Key string `json:"key"`
	LSN uint64 `json:"lsn"`
}

// CheckpointExtras carries the stream-reader state that lives outside
// the Incremental but must survive a restore for bit-identical
// resumption.
type CheckpointExtras struct {
	// Resolver is the stream's endpoint bookkeeping
	// (JSONLStream.Resolver(), a *pg.LabelIndex); nil when no stream is
	// involved. CaptureImage also takes a *pg.Graph, whose nodes it
	// indexes; RestoreImage hands back a *pg.LabelIndex.
	Resolver pg.Resolver
	// NextEdgeID is the CSV stream's next sequential edge ID; leave 0
	// for JSONL streams.
	NextEdgeID pg.ID
	// WALSeq is the last WAL sequence number the image covers; only
	// the durable serving layer's compactor sets it.
	WALSeq uint64
	// AppliedKeys are the idempotency keys of writes the image covers,
	// in LSN order; only the durable serving layer sets them.
	AppliedKeys []AppliedKey
}

// CaptureImage materializes the discovery's full cross-batch state as
// an Image. extras may be nil when the discovery is fed by explicit
// batches rather than a stream. The caller must serialize the call
// with writes (ProcessBatch / RetractBatch), like every other read.
func (inc *Incremental) CaptureImage(extras *CheckpointExtras) (*Image, error) {
	img := &Image{
		Version:        CheckpointVersion,
		Schema:         *schema.Persist(inc.sch),
		Tallies:        captureTallies(inc.sch.EdgeTypes),
		Batches:        inc.batches,
		NextTypeID:     inc.sch.NextTypeID(),
		NodeClusters:   inc.result.NodeClusters,
		EdgeClusters:   inc.result.EdgeClusters,
		NodeShapes:     inc.result.NodeShapes,
		EdgeShapes:     inc.result.EdgeShapes,
		NodeChoice:     inc.result.NodeChoice,
		EdgeChoice:     inc.result.EdgeChoice,
		NodeAssign:     inc.result.NodeAssign.Clone(),
		EdgeAssign:     inc.result.EdgeAssign.Clone(),
		NodeShapeCache: inc.nodeShapes.Export(),
		EdgeShapeCache: inc.edgeShapes.Export(),
	}
	if extras != nil {
		img.NextEdgeID = extras.NextEdgeID
		img.WALSeq = extras.WALSeq
		img.AppliedKeys = extras.AppliedKeys
		var ok bool
		if img.Resolver, ok = pg.IndexOf(extras.Resolver); !ok {
			return nil, fmt.Errorf("core: checkpoint: resolver %T is neither a *pg.LabelIndex nor a *pg.Graph", extras.Resolver)
		}
	}
	return img, nil
}

// parseVersioned decodes data with decode, which leaves the format
// version in *version. A document of another version is refused by its
// version — also when its body does not decode as this one's, as
// version 1's element-keyed collections do not — so the error says what
// the bytes are rather than where they stopped parsing.
func parseVersioned(data []byte, decode func([]byte) error, version *int, what string, want int) error {
	if err := decode(data); err != nil {
		var probe struct {
			Version int `json:"version"`
		}
		if json.Unmarshal(data, &probe) == nil && probe.Version != want {
			return checkVersion(what, probe.Version, want)
		}
		return fmt.Errorf("core: %s: %w", what, err)
	}
	return checkVersion(what, *version, want)
}

// checkVersion refuses a format version this build does not write.
func checkVersion(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("core: %s version %d is not supported (this build reads version %d only)", what, got, want)
	}
	return nil
}

// EmptyImage is the image of a freshly created discovery — the base
// every delta run chain starts from when no checkpoint exists yet.
// It depends only on opts, so two processes with matching options
// agree on it without any file existing.
func EmptyImage(opts Options) (*Image, error) {
	return NewIncremental(opts).CaptureImage(nil)
}

// WriteCheckpoint serializes the discovery's full cross-batch state.
// extras may be nil when the discovery is fed by explicit batches
// rather than a stream. The caller must serialize the call with
// writes (ProcessBatch / RetractBatch), like every other read.
func (inc *Incremental) WriteCheckpoint(w io.Writer, extras *CheckpointExtras) error {
	img, err := inc.CaptureImage(extras)
	if err != nil {
		return err
	}
	return EncodeImage(w, img)
}

// RestoreImage rebuilds a live discovery from a materialized image.
// opts must match the run that produced the image; the image does not
// store them (they may contain live configuration like parallelism
// that the operator wants to change across restarts, and changing
// discovery-relevant ones simply forfeits bit-identity).
func RestoreImage(opts Options, img *Image) (*Incremental, *CheckpointExtras, error) {
	if err := checkVersion("checkpoint", img.Version, CheckpointVersion); err != nil {
		return nil, nil, err
	}
	s, err := img.Schema.Restore()
	if err != nil {
		return nil, nil, fmt.Errorf("core: checkpoint: %w", err)
	}

	inc := ResumeIncremental(opts, s)
	s.SetNextTypeID(img.NextTypeID)
	inc.batches = img.Batches
	inc.result.NodeClusters = img.NodeClusters
	inc.result.EdgeClusters = img.EdgeClusters
	inc.result.NodeShapes = img.NodeShapes
	inc.result.EdgeShapes = img.EdgeShapes
	inc.result.NodeChoice = img.NodeChoice
	inc.result.EdgeChoice = img.EdgeChoice

	if err := restoreTallies(img.Tallies, s); err != nil {
		return nil, nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := checkAssign("node", img.NodeAssign, func(t int) bool { return s.NodeTypeByID(t) != nil }); err != nil {
		return nil, nil, err
	}
	if err := checkAssign("edge", img.EdgeAssign, func(t int) bool { return s.EdgeTypeByID(t) != nil }); err != nil {
		return nil, nil, err
	}
	inc.result.NodeAssign, inc.result.EdgeAssign = img.NodeAssign.Clone(), img.EdgeAssign.Clone()

	if inc.nodeShapes, err = pg.RestoreShapeCache(img.NodeShapeCache); err != nil {
		return nil, nil, fmt.Errorf("core: checkpoint: node shapes: %w", err)
	}
	if inc.edgeShapes, err = pg.RestoreShapeCache(img.EdgeShapeCache); err != nil {
		return nil, nil, fmt.Errorf("core: checkpoint: edge shapes: %w", err)
	}

	extras := &CheckpointExtras{NextEdgeID: img.NextEdgeID, WALSeq: img.WALSeq, AppliedKeys: img.AppliedKeys}
	if img.Resolver.Len() > 0 {
		resolver := img.Resolver.Clone()
		extras.Resolver = &resolver
	}
	return inc, extras, nil
}

// checkAssign refuses an image's assignments of what ("node", "edge")
// when one names a type ID that known refuses.
func checkAssign(what string, c keyed.Column[pg.ID, int32], known func(t int) bool) error {
	for id, t := range c.All() {
		if !known(int(t)) {
			return fmt.Errorf("core: checkpoint: %s %d assigned to unknown type %d", what, id, t)
		}
	}
	return nil
}

// ResumeFromCheckpoint restores a discovery from a checkpoint written
// by WriteCheckpoint. It returns the Incremental, positioned exactly
// where the interrupted run stood, plus the persisted stream extras:
// seed a new StreamReader over the remaining input with the returned
// resolver's nodes (SeedResolver) — and, for CSV, SetNextEdgeID — and
// the finished run is bit-identical to one that never stopped.
// opts must match the interrupted run's options (see RestoreImage).
func ResumeFromCheckpoint(opts Options, r io.Reader) (*Incremental, *CheckpointExtras, error) {
	img, err := DecodeImage(r)
	if err != nil {
		return nil, nil, err
	}
	return RestoreImage(opts, img)
}
