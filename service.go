package pghive

// service.go turns the single-caller incremental pipeline into a
// long-running, concurrently queryable schema service. Writes are
// serialized by the write lock, whose holder commits the writes waiting
// behind it (groupcommit.go); reads are lock-free against an immutable
// published snapshot (copy-on-publish): after every write batch the
// service copies the evolving schema (each type's bounded head; the
// degree tallies share their leaves, schema/degrees.go), finalizes
// constraints on the copy, and swaps it in atomically, so a reader
// never observes a half-merged schema, a type with zero instances, or
// constraints that lag the statistics.

import (
	"context"
	"io"
	"sync/atomic"

	"github.com/pghive/pghive/internal/core"
	"github.com/pghive/pghive/internal/infer"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

// ServiceStats summarizes a published snapshot.
type ServiceStats struct {
	core.IncrementalStats
	// NodeTypes / EdgeTypes count the snapshot's schema types.
	NodeTypes int `json:"nodeTypes"`
	EdgeTypes int `json:"edgeTypes"`
	// LSN names the snapshot: the last write it absorbed — its WAL
	// record on a DurableService and a Follower, on a plain Service its
	// count of writes since it was built or restored (0: none yet).
	LSN uint64 `json:"lsn"`
}

// ServiceSnapshot is one immutable published state: a private deep
// copy of the schema with §4.4 constraints finalized, plus the stats
// taken at the same instant. Readers sharing a snapshot must treat
// the schema as read-only; the service never mutates it again.
type ServiceSnapshot struct {
	Schema *Schema
	Stats  ServiceStats
}

// Reader is the read side Service, DurableService and Follower each
// embed. Any number of goroutines may call it concurrently with each
// other and with the owner's writes: every method answers lock-free
// from the latest published snapshot. It has no write methods, which
// is what makes a Follower read-only by construction.
type Reader struct {
	snap atomic.Pointer[ServiceSnapshot]
}

// writer is the write side behind every Reader: the §4.6 incremental
// pipeline plus label-only endpoint bookkeeping kept across batches
// (the serving analogue of a stream reader's resolver), so an edge
// ingested in a later request still resolves endpoint labels for nodes
// ingested earlier. apply is the ONE rule that advances the state —
// both owners' group steps, WAL recovery, Rearm's catch-up and a
// follower's tail all call it — which makes
// each bit-identical to the run that logged the records. Not safe for
// concurrent use: an owner that serves it holds mu around every call; a
// shadow owner (recovery, a follower's bootstrap) is the only goroutine
// that ever sees it.
type writer struct {
	mu writeLock
	// commits is the hand-off writes waiting for mu offer themselves on,
	// commit the owner's group step (see submit), and logs says the step
	// write-ahead logs, so write encodes each record's payload; all zero
	// on shadow writers.
	commits chan *commitReq
	commit  func(writeHeld, []*commitReq)
	logs    bool
	opts    Options
	// lsn is the last write the state absorbed: the image's WALSeq at
	// start, then moved only by apply.
	lsn      uint64
	inc      *Incremental
	resolver *pg.LabelIndex // cross-ingest endpoint bookkeeping
	// nextEdgeID carries the sequential edge-ID counter across CSV
	// streams (and their checkpoints); CSV rows have no explicit edge
	// IDs, so a later stream must continue numbering where the
	// previous one stopped.
	nextEdgeID ID
	// keys is the applied idempotency-key set: on a durable owner
	// rebuilt from the same images and WAL records as the rest of the
	// state, on a plain Service held in memory only. Nil on followers,
	// which take no writes.
	keys *idemStore
	// out receives a fresh snapshot after every applied batch. It is
	// nil on a shadow writer, which replays without paying the
	// copy-on-publish per record.
	out *Reader
	// load is what the writes since the last compaction round weighed,
	// for the overflow rule (see roundLoad).
	load roundLoad
}

// newWriter positions a writer at a materialized checkpoint image, or
// at the empty state when img is nil (which cannot fail). keyCap > 0
// makes it track applied idempotency keys, at most that many.
func newWriter(opts Options, img *core.Image, keyCap int) (*writer, error) {
	w := &writer{mu: newWriteLock(), opts: opts}
	if keyCap > 0 {
		w.keys = newIdemStore(keyCap)
	}
	if img == nil {
		w.inc = NewIncremental(opts)
	} else {
		inc, extras, err := core.RestoreImage(opts, img)
		if err != nil {
			return nil, err
		}
		w.resolver, _ = extras.Resolver.(*pg.LabelIndex) // nil when the image holds none
		w.inc, w.nextEdgeID, w.lsn = inc, extras.NextEdgeID, extras.WALSeq
		if w.keys != nil {
			for _, k := range extras.AppliedKeys {
				w.keys.add(k.Key, k.LSN)
			}
		}
	}
	if w.resolver == nil {
		w.resolver = &pg.LabelIndex{}
	}
	return w, nil
}

// serve turns a shadow writer live: it attaches the Reader and
// publishes the current state, so readers never observe a nil schema.
func (w *writer) serve() *Reader {
	w.out = &Reader{}
	w.publish()
	return w.out
}

// Service is a thread-safe serving wrapper around the §4.6
// incremental pipeline: the embedded Reader for any number of
// concurrent readers, and a write side (Ingest, Retract, their keyed
// forms, DrainStream, WriteCheckpoint) serialized internally, batch by
// batch. It keeps no log: its state lives in memory. Element IDs
// must be unique across the service's lifetime — re-ingesting an ID
// double-counts its statistics, exactly as re-feeding it to
// Incremental would.
type Service struct {
	*Reader
	w *writer
}

// NewService returns a serving pipeline with an empty schema. The
// initial published snapshot is empty but valid, so readers never
// observe a nil schema.
func NewService(opts Options) *Service {
	w, _ := newWriter(opts, nil, defaultMaxIdempotencyKeys) // the empty state cannot fail
	return newService(w)
}

// newService serves w as a plain Service, committing through its step.
func newService(w *writer) *Service {
	s := &Service{Reader: w.serve(), w: w}
	w.commits, w.commit = make(chan *commitReq), s.commitGroup
	return s
}

// commitGroup is a plain Service's group step: it applies each request
// whose context is still live and whose key it has not seen at the
// next LSN, logging nothing. Requests apply one at a time, so a key
// applied earlier in the same group answers replayed too, with that
// write's LSN.
func (s *Service) commitGroup(_ writeHeld, group []*commitReq) {
	for _, req := range group {
		res := commitRes{err: req.ctx.Err()}
		if res.err == nil {
			if res.bt.LSN, res.replayed = s.w.keys.seen(req.key); !res.replayed { // "" is never seen
				res.bt = s.w.apply(s.w.lsn+1, req.key, req.g, req.rec.Type == walRecRetract)
			}
		}
		req.res <- res
	}
}

// RestoreService resumes a service from a checkpoint written by
// WriteCheckpoint (or Incremental.WriteCheckpoint): schema,
// per-element assignments, shape caches, and the cross-ingest
// endpoint bookkeeping all carry over, and the first published
// snapshot already reflects the checkpointed state. opts must match
// the checkpointed run's (see ResumeFromCheckpoint).
func RestoreService(opts Options, r io.Reader) (*Service, error) {
	img, err := core.DecodeImage(r)
	if err != nil {
		return nil, err
	}
	img.WALSeq = 0 // a durable base image's position means nothing without its log
	w, err := newWriter(opts, img, defaultMaxIdempotencyKeys)
	if err != nil {
		return nil, err
	}
	return newService(w), nil
}

// writeLock is the write mutex, built on a one-slot channel so a
// caller can bound how long it is willing to queue: an HTTP request
// whose deadline expires while a long WriteCheckpoint holds the lock
// abandons the wait instead of parking a goroutine forever.
// Lock/Unlock mirror sync.Mutex for the paths that cannot time out.
type writeLock chan struct{}

// writeHeld witnesses a hold of a writer's mu. Only Lock and
// LockContext mint one, so a function that takes it as a parameter
// cannot be called by code that never took the lock — the compiler
// holds the discipline, and handing over a compactHeld instead is a
// type error. It says nothing about when: a witness outlives its
// Unlock, so keep it in the scope of the hold.
type writeHeld struct{}

func newWriteLock() writeLock { return make(writeLock, 1) }

func (l writeLock) Lock() writeHeld { l <- struct{}{}; return writeHeld{} }
func (l writeLock) Unlock()         { <-l }

// LockContext acquires the lock unless ctx ends first (ctx.Err() is
// returned) or the holder claims req from handoff first (claimed is
// true; req.res will answer): either way the lock is NOT held. A nil
// handoff offers nothing. An expired ctx loses even to a free lock —
// that is what stops a stream whose deadline passed between its batches.
func (l writeLock) LockContext(ctx context.Context, handoff chan<- *commitReq, req *commitReq) (_ writeHeld, claimed bool, err error) {
	if err := ctx.Err(); err != nil {
		return writeHeld{}, false, err
	}
	select {
	case l <- struct{}{}:
		return writeHeld{}, false, nil
	case handoff <- req:
		return writeHeld{}, true, nil
	case <-ctx.Done():
		return writeHeld{}, false, ctx.Err()
	}
}

// publish clones the live schema, finalizes constraints on the clone,
// and swaps it in under the LSN it absorbed.
func (w *writer) publish() {
	if w.out == nil {
		return
	}
	sch := w.inc.Schema().Clone()
	infer.Finalize(sch, w.opts.Infer)
	w.out.snap.Store(&ServiceSnapshot{Schema: sch, Stats: ServiceStats{IncrementalStats: w.inc.Stats(),
		NodeTypes: len(sch.NodeTypes), EdgeTypes: len(sch.EdgeTypes), LSN: w.lsn}})
}

// ingest runs one batch through the pipeline and publishes. It first
// registers g's nodes in the endpoint bookkeeping, skipping IDs
// already tracked (their first labels win, matching how a stream
// resolver behaves), and advances the sequential edge-ID watermark
// past g's edges so a later CSV stream — which assigns IDs itself —
// can never collide with IDs already seen.
func (w *writer) ingest(g *Graph) BatchTiming {
	nodes := g.Nodes()
	for i := range nodes {
		w.resolver.Put(nodes[i].ID, nodes[i].Labels)
	}
	edges := g.Edges()
	for i := range edges {
		if id := edges[i].ID + 1; id > w.nextEdgeID {
			w.nextEdgeID = id
		}
	}
	bt := w.inc.ProcessBatch(&Batch{Graph: g, Resolver: w.resolver, Index: w.inc.Batches() + 1})
	w.publish()
	return bt
}

// retract removes a batch of previously ingested elements and
// publishes. The batch's nodes also leave the endpoint bookkeeping, so
// churn does not grow the resolver (or checkpoints) without bound, and
// a later edge naming a retracted endpoint no longer resolves its
// stale labels.
func (w *writer) retract(g *Graph) BatchTiming {
	bt := w.inc.RetractBatch(&Batch{Graph: g, Resolver: w.resolver})
	nodes := g.Nodes()
	for i := range nodes {
		w.resolver.Remove(nodes[i].ID)
	}
	w.publish()
	return bt
}

// apply absorbs the batch written at lsn, and the idempotency key it
// carried where keys are tracked, through ingest or retract, so the
// snapshot they publish and the timing it returns state lsn. It weighs
// the batch for the next compaction round's overflow rule too.
func (w *writer) apply(lsn uint64, key string, g *Graph, retract bool) (bt BatchTiming) {
	w.lsn = lsn
	if key != "" && w.keys != nil {
		w.keys.add(key, lsn)
	}
	st := w.inc.Stats()
	w.load.add(g.NumNodes()+g.NumEdges(), st.Nodes+st.Edges)
	if retract {
		bt = w.retract(g)
	} else {
		bt = w.ingest(g)
	}
	bt.LSN = lsn
	return bt
}

// writeCheckpoint captures the full state under the write lock and
// encodes it after releasing the lock (see Service.WriteCheckpoint). An
// image shares the pipeline's columns copy-on-write; writes on either
// side never reach the other, so writes may land while it is encoded.
func (w *writer) writeCheckpoint(out io.Writer) error {
	w.mu.Lock()
	img, err := w.inc.CaptureImage(&core.CheckpointExtras{
		Resolver:   w.resolver,
		NextEdgeID: w.nextEdgeID,
	})
	w.mu.Unlock()
	if err != nil {
		return err
	}
	return core.EncodeImage(out, img)
}

// Ingest runs one batch through the pipeline and publishes a fresh
// snapshot, stating its LSN in bt.LSN: a Service numbers its writes
// 1, 2, … from the state it was built at. The graph is read during the
// call and not retained. It is IngestIdempotent with no deadline and
// no key, which cannot fail.
func (s *Service) Ingest(g *Graph) BatchTiming {
	bt, _, _ := s.w.write(context.Background(), "", g, false)
	return bt
}

// IngestIdempotent is Ingest with a deadline on write admission and an
// optional idempotency key ("" for none). If ctx ends before the write
// is admitted, nothing is applied and ctx's error is returned; an
// admitted batch runs to completion, so a snapshot is never half a
// batch. A key already applied answers replayed, with the first
// write's LSN, and applies nothing. The keys live in memory only, the newest 65,536: a restart or
// RestoreService forgets them (a DurableService logs them).
func (s *Service) IngestIdempotent(ctx context.Context, key string, g *Graph) (bt BatchTiming, replayed bool, err error) {
	return s.w.write(ctx, key, g, false)
}

// Retract removes a batch of previously ingested elements (every
// element must have been ingested earlier; see
// Incremental.RetractBatch) and publishes a fresh snapshot. Types
// whose last instance disappears are gone from the new snapshot. It is
// RetractIdempotent with no deadline and no key, which cannot fail.
func (s *Service) Retract(g *Graph) BatchTiming {
	bt, _, _ := s.w.write(context.Background(), "", g, true)
	return bt
}

// RetractIdempotent is Retract with a deadline on write admission and
// an optional idempotency key (see IngestIdempotent for the contract).
func (s *Service) RetractIdempotent(ctx context.Context, key string, g *Graph) (bt BatchTiming, replayed bool, err error) {
	return s.w.write(ctx, key, g, true)
}

// csvLikeStream is the extra surface of readers that assign
// sequential edge IDs and validate endpoints against their own
// resolver (pg.CSVStream). The service seeds both from its own state
// so a stream started after earlier ingests — or after a checkpoint
// restore — continues numbering and resolving where the service
// stands.
type csvLikeStream interface {
	NextEdgeID() ID
	SetNextEdgeID(ID)
	SeedResolver(ID, []string) error
}

// DrainStream writes the stream one unkeyed batch at a time, as
// IngestIdempotent does, publishing a fresh snapshot after each, so
// concurrent readers watch the schema evolve while the stream loads.
// Other writers interleave between a stream's batches, and ctx bounds
// each batch's write admission. Like Incremental.DrainStream it fills
// the per-batch memory counters and returns on io.EOF (nil) or the
// first error. An error mid-stream is not a rollback — batches already
// applied stay published, and Stats tells the caller how far it got.
//
// CSV streams are adopted into the service's state before the first
// batch: a fresh reader is seeded with the service's endpoint
// bookkeeping and its sequential edge-ID counter continues from the
// service's, so relation files ingested across restarts keep globally
// unique edge IDs (what other writers add while the stream runs is not
// fed back into the reader). For the duration of a drain the reader's
// own label-only bookkeeping duplicates the service's (both index the
// streamed nodes); the overhead is bounded by the ID+labels index,
// never properties.
func (s *Service) DrainStream(ctx context.Context, r StreamReader, onBatch func(BatchTiming)) error {
	return s.w.drain(ctx, r, onBatch)
}

// drain is the one stream loop behind Service and DurableService: seed
// a CSV-like reader, then pull batches and write each, unkeyed, through
// write — which is where locking, the deadline and (for a durable
// owner) logging happen.
func (w *writer) drain(ctx context.Context, r StreamReader, onBatch func(BatchTiming)) error {
	if err := w.seedStream(ctx, r); err != nil {
		return err
	}
	onBatch = core.MemObservedOnBatch(onBatch)
	for {
		b, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		bt, _, err := w.write(ctx, "", b.Graph, false)
		if err != nil {
			return err
		}
		if onBatch != nil {
			onBatch(bt)
		}
	}
}

// seedStream adopts a CSV-like stream into the writer's state (edge-ID
// continuation, resolver seeding) under a momentary hold of the write
// lock. The reader's final edge-ID watermark needs no harvesting:
// ingest advances nextEdgeID past every edge it applies. For other
// readers it is a no-op.
func (w *writer) seedStream(ctx context.Context, r StreamReader) error {
	c, ok := r.(csvLikeStream)
	if !ok {
		return nil
	}
	if _, _, err := w.mu.LockContext(ctx, nil, nil); err != nil {
		return err
	}
	defer w.mu.Unlock()
	if c.NextEdgeID() == 0 && w.nextEdgeID > 0 {
		c.SetNextEdgeID(w.nextEdgeID)
	}
	for id, labels := range w.resolver.All() {
		// Error means the reader tracked the ID already; its labels
		// win, matching Ingest's first-labels-win rule.
		_ = c.SeedResolver(id, labels)
	}
	return nil
}

// Snapshot returns the current published state. The returned snapshot
// is immutable and remains valid (and consistent) forever; hold it
// for as long as a stable view is needed.
func (r *Reader) Snapshot() *ServiceSnapshot { return r.snap.Load() }

// Schema returns the current published schema — an immutable deep
// copy with constraints finalized. Callers must not mutate it.
func (r *Reader) Schema() *Schema { return r.Snapshot().Schema }

// Stats returns the current published statistics.
func (r *Reader) Stats() ServiceStats { return r.Snapshot().Stats }

// WriteSchemaJSON writes the published schema in the persisted schema
// format (statistics included, service state excluded — use
// WriteCheckpoint for a restorable image).
func (r *Reader) WriteSchemaJSON(w io.Writer) error {
	return schema.WriteJSON(w, r.Snapshot().Schema)
}

// WriteCheckpoint serializes the service's full state — schema,
// assignments, shape caches, endpoint bookkeeping — so RestoreService
// can resume it bit-identically. The state is captured under the write
// lock, so the image is consistent with exactly the batches whose
// snapshots were published before the capture; it is encoded into w
// after the lock is released, so a slow w stalls no write. The image
// carries no idempotency keys: a restored Service has seen none.
func (s *Service) WriteCheckpoint(w io.Writer) error { return s.w.writeCheckpoint(w) }
