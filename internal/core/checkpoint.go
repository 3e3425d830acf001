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
// The byte format is generation 2 (CheckpointVersion): compact JSON with
// sorted keys, in which every element-keyed collection is grouped and
// gap-coded — the assignments in keyed's form, the resolver as one ID
// list per label set (ResolverNodes). An image of any other version is
// refused by its version, never read. The schema inside an image keeps
// its own format (schema.Persisted), which WriteSchemaJSON shares.
//
// An Image never aliases a live pipeline: CaptureImage and
// RestoreImage copy, in both directions. Compaction depends on it — a
// round that captures the state whole encodes the image off the write
// lock, while writes keep landing on the pipeline it was taken from.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"github.com/pghive/pghive/internal/keyed"
	"github.com/pghive/pghive/internal/lsh"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

// CheckpointVersion is the format version WriteCheckpoint emits and the
// only one the decoders read.
const CheckpointVersion = 2

// ResolverNode is one persisted entry of the stream's endpoint
// bookkeeping: a node ID and its labels (never properties or edges).
// Labels are in sorted order (pg.Graph canonicalizes them on insert).
type ResolverNode struct {
	ID     pg.ID    `json:"id"`
	Labels []string `json:"labels,omitempty"`
}

// ResolverNodes is the resolver as an image holds it: one entry per
// node, in ID order. A resolver holds many nodes and few label sets, so
// it is written grouped — one gap-coded ID list per label set, the sets
// in ascending order — and read back only in that spelling: no empty
// group, no set twice, no node in two sets.
type ResolverNodes []ResolverNode

// resolverGroup is one label set's nodes on the wire.
type resolverGroup struct {
	Labels []string         `json:"labels,omitempty"`
	IDs    keyed.IDs[pg.ID] `json:"ids"`
}

// MarshalJSON writes the groups; it refuses nodes out of ID order.
func (ns ResolverNodes) MarshalJSON() ([]byte, error) {
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

// UnmarshalJSON reads what MarshalJSON writes. The nodes of one group
// share its label slice; nothing modifies labels in place.
func (ns *ResolverNodes) UnmarshalJSON(data []byte) error {
	var groups []resolverGroup
	if err := json.Unmarshal(data, &groups); err != nil {
		return err
	}
	var out ResolverNodes
	for i, g := range groups {
		switch {
		case len(g.IDs) == 0:
			return fmt.Errorf("resolver: group %v is empty", g.Labels)
		case g.Labels != nil && len(g.Labels) == 0, !slices.IsSorted(g.Labels):
			return fmt.Errorf("resolver: label set %q is not canonical", g.Labels)
		case i > 0 && slices.Compare(groups[i-1].Labels, g.Labels) >= 0:
			return fmt.Errorf("resolver: label set %q after %q: sets must ascend", g.Labels, groups[i-1].Labels)
		}
		for _, id := range g.IDs {
			out = append(out, ResolverNode{ID: id, Labels: g.Labels})
		}
	}
	slices.SortFunc(out, func(a, b ResolverNode) int { return cmp.Compare(a.ID, b.ID) })
	for i := 1; i < len(out); i++ {
		if out[i].ID == out[i-1].ID {
			return fmt.Errorf("resolver: node %d is in two label sets", out[i].ID)
		}
	}
	*ns = out
	return nil
}

// Image is the materialized checkpoint state — the on-disk layout of a
// checkpoint file and the value delta runs are diffed against. Maps
// marshal with sorted keys and shape entries are exported in
// fingerprint order, so identical states serialize to identical bytes
// — which is what lets tests (and operators) diff checkpoints
// directly, and what makes the recovered-state bit-identity property
// checkable by comparing encoded images.
type Image struct {
	Version int `json:"version"`
	// Schema is the evolving schema: what WriteSchemaJSON encodes.
	Schema schema.Persisted `json:"schema"`
	// Batches counts processed batches.
	Batches int `json:"batches"`
	// NodeAssign / EdgeAssign map element IDs to schema type IDs.
	NodeAssign keyed.Map[pg.ID] `json:"nodeAssign,omitempty"`
	EdgeAssign keyed.Map[pg.ID] `json:"edgeAssign,omitempty"`
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
	// Resolver is the stream's label-only endpoint bookkeeping, in ID
	// order.
	Resolver ResolverNodes `json:"resolver,omitempty"`
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
	return len(img.NodeAssign) + len(img.EdgeAssign)
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
	// Resolver is the stream's endpoint bookkeeping graph
	// (StreamReader.Resolver()); nil when no stream is involved.
	Resolver *pg.Graph
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
		Batches:        inc.batches,
		NextTypeID:     inc.sch.NextTypeID(),
		NodeClusters:   inc.result.NodeClusters,
		EdgeClusters:   inc.result.EdgeClusters,
		NodeShapes:     inc.result.NodeShapes,
		EdgeShapes:     inc.result.EdgeShapes,
		NodeChoice:     inc.result.NodeChoice,
		EdgeChoice:     inc.result.EdgeChoice,
		NodeShapeCache: inc.nodeShapes.Export(),
		EdgeShapeCache: inc.edgeShapes.Export(),
	}
	if len(inc.result.NodeAssign) > 0 {
		img.NodeAssign = make(map[pg.ID]int, len(inc.result.NodeAssign))
		for id, t := range inc.result.NodeAssign {
			img.NodeAssign[id] = t.ID
		}
	}
	if len(inc.result.EdgeAssign) > 0 {
		img.EdgeAssign = make(map[pg.ID]int, len(inc.result.EdgeAssign))
		for id, t := range inc.result.EdgeAssign {
			img.EdgeAssign[id] = t.ID
		}
	}
	if extras != nil {
		img.NextEdgeID = extras.NextEdgeID
		img.WALSeq = extras.WALSeq
		img.AppliedKeys = extras.AppliedKeys
		if extras.Resolver != nil {
			nodes := extras.Resolver.Nodes()
			img.Resolver = make([]ResolverNode, len(nodes))
			for i := range nodes {
				img.Resolver[i] = ResolverNode{ID: nodes[i].ID, Labels: nodes[i].Labels}
			}
			// Canonical ID order, not insertion order: two logically
			// identical states whose nodes arrived in different orders
			// still serialize to identical bytes.
			sort.Slice(img.Resolver, func(i, j int) bool { return img.Resolver[i].ID < img.Resolver[j].ID })
		}
	}
	return img, nil
}

// EncodeImage writes the image in the canonical checkpoint byte
// format (compact JSON, sorted map keys, trailing newline).
func EncodeImage(w io.Writer, img *Image) error {
	return json.NewEncoder(w).Encode(img)
}

// DecodeImage reads r to its end and parses it as one image (ParseImage).
func DecodeImage(r io.Reader) (*Image, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	return ParseImage(data)
}

// ParseImage decodes one checkpoint image, refusing any other version
// and any bytes after the image.
func ParseImage(data []byte) (*Image, error) {
	var img Image
	if err := parseVersioned(data, &img, &img.Version, "checkpoint", CheckpointVersion); err != nil {
		return nil, err
	}
	return &img, nil
}

// parseVersioned unmarshals data into v, whose format version lands in
// *version. A document of another version is refused by its version —
// also when its body does not parse as this one's, as version 1's
// element-keyed collections do not — so the error says what the bytes
// are rather than where they stopped parsing.
func parseVersioned(data []byte, v any, version *int, what string, want int) error {
	if err := json.Unmarshal(data, v); err != nil {
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

	nodeByID := make(map[int]*schema.NodeType, len(s.NodeTypes))
	for _, nt := range s.NodeTypes {
		nodeByID[nt.ID] = nt
	}
	edgeByID := make(map[int]*schema.EdgeType, len(s.EdgeTypes))
	for _, et := range s.EdgeTypes {
		edgeByID[et.ID] = et
	}
	if len(img.NodeAssign) > 0 {
		inc.result.NodeAssign = make(map[pg.ID]*schema.NodeType, len(img.NodeAssign))
		for id, tid := range img.NodeAssign {
			t := nodeByID[tid]
			if t == nil {
				return nil, nil, fmt.Errorf("core: checkpoint: node %d assigned to unknown type %d", id, tid)
			}
			inc.result.NodeAssign[id] = t
		}
	}
	if len(img.EdgeAssign) > 0 {
		inc.result.EdgeAssign = make(map[pg.ID]*schema.EdgeType, len(img.EdgeAssign))
		for id, tid := range img.EdgeAssign {
			t := edgeByID[tid]
			if t == nil {
				return nil, nil, fmt.Errorf("core: checkpoint: edge %d assigned to unknown type %d", id, tid)
			}
			inc.result.EdgeAssign[id] = t
		}
	}

	if inc.nodeShapes, err = pg.RestoreShapeCache(img.NodeShapeCache); err != nil {
		return nil, nil, fmt.Errorf("core: checkpoint: node shapes: %w", err)
	}
	if inc.edgeShapes, err = pg.RestoreShapeCache(img.EdgeShapeCache); err != nil {
		return nil, nil, fmt.Errorf("core: checkpoint: edge shapes: %w", err)
	}

	extras := &CheckpointExtras{NextEdgeID: img.NextEdgeID, WALSeq: img.WALSeq, AppliedKeys: img.AppliedKeys}
	if len(img.Resolver) > 0 {
		g := pg.NewGraph()
		g.AllowDanglingEdges(true)
		for _, rn := range img.Resolver {
			if err := g.PutNode(rn.ID, rn.Labels, nil); err != nil {
				return nil, nil, fmt.Errorf("core: checkpoint: resolver: %w", err)
			}
		}
		extras.Resolver = g
	}
	return inc, extras, nil
}

// ResumeFromCheckpoint restores a discovery from a checkpoint written
// by WriteCheckpoint. It returns the Incremental, positioned exactly
// where the interrupted run stood, plus the persisted stream extras:
// seed a new StreamReader over the remaining input with the returned
// resolver nodes (SeedResolver) — and, for CSV, SetNextEdgeID — and
// the finished run is bit-identical to one that never stopped.
// opts must match the interrupted run's options (see RestoreImage).
func ResumeFromCheckpoint(opts Options, r io.Reader) (*Incremental, *CheckpointExtras, error) {
	img, err := DecodeImage(r)
	if err != nil {
		return nil, nil, err
	}
	return RestoreImage(opts, img)
}
