package pghive

// durable.go makes the serving layer crash-safe: a DurableService
// records every mutation — ingest batch, retract batch, drained
// stream batch — in a segmented write-ahead log (internal/wal)
// *before* applying it, so the state a crash destroys is always
// reconstructible. Startup recovery restores the newest consistent
// checkpoint generation and replays the WAL tail above it through
// exactly the code path live writes use, which makes the recovered
// service bit-identical to one that never died (kill -9 at any record
// boundary; a torn trailing record is truncated away).
//
// The writer owns its log position: only writer.apply, the one rule the
// caller holding the write lock, recovery, Rearm and a follower's tail
// advance the state through, moves it; replay refuses any record but
// the next. The log numbers on above it, a round lifts up to it, and
// every snapshot states it (ServiceStats.LSN).
//
// Checkpoints are LSM-structured (internal/runfile): a generation is
// a base image plus an ordered chain of immutable, checksummed delta
// runs, named by an atomically-swapped manifest. The service holds the
// image its current generation merges to (base). Every element-keyed
// member of an image is a copy-on-write column that a capture shares
// with the live state, so base costs only the old copies of the leaves
// the writes since have touched — those leaves are the memtable of this
// layout. A compaction round captures the state and writes
// core.DiffImage(base, captured) as a run. The diff skips every leaf
// the two images share, so a steady-state round's IO, CPU and memory
// are proportional to what changed, not to total state. When the chain
// grows past DurableOptions.MaxRuns, accumulated tombstones cross
// MaxTombstoneRatio of the elements the generation holds, or the writes
// of the span named more elements than the overflow rule allows, the
// round writes the captured image as a fresh base instead (a leveled
// merge with one level: base). The compactor holds the write lock only
// to seal the log and capture the state — no diff, no encoding, no file
// of the checkpoint layout, nothing proportional to the database or the
// change — and does the rest off it, so writers are never blocked
// behind a round's IO, no matter how large the state has grown.
//
// One generation walk reads this layout, for recovery and for a
// follower's bootstrap alike (walkGenerations, over a store.Backend: a
// data directory has the shipped layout, so recovery reads it through
// store.Dir). It tries the manifests newest first; only when none
// parses, each bare base image is a generation of its own, covering the
// LSN its name states. Every generation is read by mergedImage, the one
// reader of bases and runs, and recovery additionally
// requires the WAL tail above it to replay through wal.Replay, the one
// reader of the log, which a follower's tail and Rearm use too
// (catchUp). The tail is read from the segment holding the first
// record the generation lacks, strictly contiguous from there: a
// duplicate, a gap, or segments pruned past that record fail the
// generation, never skip records. Because each generation's WAL floor
// is the PREVIOUS generation's covered LSN, a newest generation torn by
// a crash on a lying disk falls back one generation and replays the
// retained records to the identical state, loudly counting the
// fallback in DurableStats.
//
// A round Puts its run or base image, then its manifest, through the
// same store.Dir (DurableService.local). One collector (collect) deletes
// everything a store holds that its two kept generations no longer
// need — the layout's files they do not reference, and the WAL segments
// at or below their floor (runfile.Floor, by wal.Reclaimable's rule) —
// in the data directory (the sweep, at startup and after every round,
// inside reclaim) and in the backend (shipGC) alike; failures are
// surfaced in DurableStats and retried next round, never silently
// dropped.
//
// Two robustness layers ride on top of durability:
//
// Read-only degradation. When the WAL declares itself broken (a
// failed append could not be rolled back) or the disk is full
// (ENOSPC), every further write would either fail anyway or risk
// compounding the damage — so the service declares read-only mode:
// reads keep serving the last published snapshot, writes fail fast
// with a machine-readable ReadOnlyError, and DurableStats exposes the
// state. A successful compaction (which frees superseded segments)
// re-arms a disk-full service automatically; Rearm re-opens the log
// from disk and re-arms any degradation, including a broken WAL.
//
// Idempotency keys. A write submitted with a key is applied at most
// once per key retention window: the key travels inside the WAL
// record, so replay — recovery after a crash and Rearm's catch-up —
// rebuilds the applied-key set from the same bytes that rebuild the
// state. A client that timed out or got
// a 5xx can therefore retry the same key blindly; if the first
// attempt was applied (even if the ack was lost to a crash), the
// retry reports "replayed" instead of double-applying.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/pghive/pghive/internal/core"
	"github.com/pghive/pghive/internal/runfile"
	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
	"github.com/pghive/pghive/internal/wal"
)

// Declared read-only reasons (DurableService.Degraded,
// DurableStats.ReadOnlyReason).
const (
	// DegradeWALBroken: a failed WAL append could not be rolled back;
	// the log refuses all appends until re-armed (see wal.Log.Broken).
	DegradeWALBroken = "wal-broken"
	// DegradeDiskFull: an append failed with ENOSPC. Compaction (which
	// deletes superseded segments) re-arms this state automatically.
	DegradeDiskFull = "disk-full"
)

// DurableOptions tunes the durability layer of a DurableService.
type DurableOptions struct {
	// SegmentBytes is the WAL segment rotation threshold (default
	// 8 MiB). Smaller segments mean finer-grained compaction.
	SegmentBytes int64
	// NoSync skips the per-append fsync: still safe against process
	// crashes (kill -9), not against power loss.
	NoSync bool
	// CompactInterval is the background compaction cadence (default
	// 1 minute). Each round folds every sealed WAL segment into a
	// delta run (or a fresh base image, see MaxRuns) and drops the
	// segments below the manifest's WAL floor.
	CompactInterval time.Duration
	// DisableAutoCompact turns the background compactor off; call
	// Compact explicitly instead.
	DisableAutoCompact bool
	// OnCompactError observes background compaction failures (the
	// compactor retries on its next tick either way). Optional.
	OnCompactError func(error)
	// MaxIdempotencyKeys bounds the retained applied-key set (default
	// 65536). When full, the oldest key is forgotten — a retry older
	// than the whole retention window can then re-apply, so clients
	// should retry promptly, not days later.
	MaxIdempotencyKeys int
	// MaxRuns bounds the delta-run chain length: a compaction that
	// would push the chain past it folds base + runs + new delta into
	// a fresh base image instead (default 6). Longer chains mean less
	// fold IO but more files to merge at recovery.
	MaxRuns int
	// MaxTombstoneRatio forces a fold when the chain's accumulated
	// deletions exceed this fraction of the elements the generation
	// holds — base and runs together (default 0.5): past it, runs are
	// mostly paying to remember what no longer exists.
	MaxTombstoneRatio float64
	// FS is the filesystem the data directory lives on; nil selects
	// the real OS. Fault-injection tests substitute vfs.MemFS /
	// vfs.InjectFS to prove recovery survives hostile disks.
	FS vfs.FS
	// ShipTo, when non-nil, enables WAL shipping: sealed segments and
	// checkpoint generations are uploaded to the backend after every
	// compaction so followers can bootstrap and tail. While set, the
	// local sweep never drops a WAL segment the backend does not yet
	// hold (see Manifest.ShippedLSN).
	ShipTo store.Backend
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = wal.DefaultSegmentBytes
	}
	if o.CompactInterval <= 0 {
		o.CompactInterval = time.Minute
	}
	if o.MaxIdempotencyKeys <= 0 {
		o.MaxIdempotencyKeys = defaultMaxIdempotencyKeys
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = 6
	}
	if o.MaxTombstoneRatio <= 0 {
		o.MaxTombstoneRatio = 0.5
	}
	return o
}

// DurableService is a serving pipeline whose every mutation is
// write-ahead logged to a data directory. The read side (Snapshot,
// Schema, Stats, Validate, renders) is the embedded Reader's —
// lock-free against the published snapshot, and available even in
// read-only degraded mode. The write side appends to the WAL first and
// returns an error when the log cannot be made durable; on success the
// mutation is applied and published exactly as on a plain Service.
// There is no write method that bypasses the log.
//
// The data directory holds the WAL segments (wal/*.wal), base images
// (checkpoint-<lsn>.ckpt), delta runs (run-<from>-<to>.run) and the
// manifests naming consistent generations (manifest-<seq>.mft) — all
// written atomically via temp file + rename. OpenDurable recovers
// from the newest generation that validates.
type DurableService struct {
	*Reader
	w   *writer
	dir string
	// local is the data directory, which has the shipped layout: the
	// service's one handle on its bases, runs and manifests.
	local *store.Dir
	log   atomic.Pointer[wal.Log]
	dopts DurableOptions

	// degradedReason, when non-nil, declares read-only mode and why.
	// Set by the write path on unrecoverable append failures; cleared
	// by Rearm and by compaction when the log is still writable.
	degradedReason atomic.Pointer[string]

	// compactMu serializes compaction rounds (and Rearm) and guards
	// the checkpoint-generation bookkeeping below. The write path
	// never takes it.
	compactMu compactLock
	// man is the current generation (never nil; a Seq-0 manifest stands
	// in for a bare base image or the empty state). prevMan is
	// the previous generation, whose files the sweep keeps because
	// the WAL floor deliberately permits falling back to it.
	man     *runfile.Manifest
	prevMan *runfile.Manifest
	// base is the image man's files merge to, with the applied keys
	// trimmed as a restore trims them: the recovered generation's at
	// open, then each committed round's capture. It shares the live
	// state's columns copy-on-write, so holding it pins only the old
	// copies of what the writes since then touched; the next round
	// diffs against it.
	base *core.Image
	// manSeq is the highest generation number observed on disk, valid
	// or not — the floor for allocating the next one, so a corrupt
	// lingering manifest can never outrank a fresh one.
	manSeq uint64
	// fallbacks counts the generations recovery had to skip (corrupt
	// manifest, torn base or run) before one validated.
	fallbacks int

	// gc counts the sweep's failed removals (guarded by compactMu); the
	// next sweep retries the same files.
	gc faults

	// ship, when non-nil, tracks what the shipping backend durably
	// holds (see ship.go). Guarded by compactMu.
	ship *shipper

	// life ends when Close begins: the compactor exits on it, and
	// everything the service does on its own initiative — a shipping
	// round's backend calls — runs under it, so a backend that never
	// answers cannot outlive Close.
	life      context.Context
	cancel    context.CancelFunc
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error

	// lastRound / rounds / folds describe the compaction rounds that
	// wrote a generation (DurableStats). Guarded by compactMu.
	lastRound     CompactionRound
	rounds, folds uint64

	// compactTestHook, when non-nil, runs once per compaction round at
	// the start of its off-lock phase — the round's state is captured
	// and nothing is diffed, encoded or written yet — the point where
	// the compactor is provably holding no lock a writer needs. Tests
	// park the compactor here and assert writes proceed.
	compactTestHook func()
}

// compactLock is compactMu's type: a mutex whose Lock hands back the
// witness the helpers that need the hold take (see writeHeld, whose
// terms it shares). Taken before w.mu wherever both are held.
type compactLock struct{ mu sync.Mutex }

// compactHeld witnesses a hold of a DurableService's compactMu.
type compactHeld struct{}

func (l *compactLock) Lock() compactHeld { l.mu.Lock(); return compactHeld{} }
func (l *compactLock) Unlock()           { l.mu.Unlock() }

// wal returns the current write-ahead log. The pointer is atomic only
// because Rearm swaps in a re-opened log while readers (DurableStats)
// may be probing the old one.
func (d *DurableService) wal() *wal.Log { return d.log.Load() }

// OpenDurable opens (or creates) a durable service rooted at dir:
// restore the newest checkpoint generation (manifest → base image →
// delta runs in order), replay the WAL tail above it, and resume
// serving bit-identical to the process that wrote the directory.
// When the newest generation does not validate — a manifest, base or
// run torn by a crash the atomic-write protocol could not mask (a
// lying disk) — recovery falls back to the previous generation, whose
// WAL records were deliberately retained, or, when no manifest parses,
// to a bare base image, and reports the skips in
// DurableStats.RecoveryFallbacks. A file that is there but cannot be
// read (an I/O error, not a torn payload) fails the open instead: it
// says nothing about the generation. opts must match the options of the
// run that produced the directory (like ResumeFromCheckpoint, the
// files do not store them).
func OpenDurable(dir string, opts Options, dopts DurableOptions) (*DurableService, error) {
	dopts = dopts.withDefaults()
	fsys := vfs.OrOS(dopts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pghive: durable: %w", err)
	}

	// A generation recovers only if the WAL tail above it replays too;
	// one whose tail does not is skipped like a torn file.
	var w *writer
	var lg *wal.Log
	var base *core.Image
	local := store.NewDir(fsys, dir)
	gen, err := walkGenerations(context.Background(), local, opts, func(img *core.Image, man *runfile.Manifest) error {
		cw, err := newWriter(opts, img, dopts.MaxIdempotencyKeys)
		if err != nil {
			return fmt.Errorf("restore image: %w", err)
		}
		cl, err := catchUp(dir, local, dopts, cw)
		if err != nil {
			return err
		}
		// The generation's image is the first round's base, so that
		// round's diff is exactly the WAL tail the replay applied.
		w, lg, base = cw, cl, img
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pghive: durable: %w", err)
	}
	d := &DurableService{
		Reader:    w.serve(),
		w:         w,
		dir:       dir,
		local:     local,
		dopts:     dopts,
		man:       gen.man,
		prevMan:   gen.prev,
		base:      base,
		manSeq:    gen.maxSeq,
		fallbacks: len(gen.notes),
	}
	w.commits, w.commit, w.logs = make(chan *commitReq), d.commitGroup, true
	d.life, d.cancel = context.WithCancel(context.Background())
	d.log.Store(lg)
	if dopts.ShipTo != nil {
		// The persisted watermark keeps the sweep's WAL gate honest before
		// the first shipping round of this incarnation completes.
		d.ship = &shipper{backend: dopts.ShipTo, watermark: gen.man.ShippedLSN}
	}
	// A crash between a manifest swap and the housekeeping after it
	// leaves covered segments and unreferenced files behind; finish the
	// job.
	d.reclaim(d.compactMu.Lock())
	d.compactMu.Unlock()
	if !dopts.DisableAutoCompact {
		d.done = make(chan struct{})
		go d.compactLoop()
	}
	return d, nil
}

// catchUp opens the WAL of the data directory dir and replays onto w,
// through local, every record above w's position — the one job
// recovery and Rearm share. The log numbers on from w's position at
// least, so a log whose every segment was dropped resumes above the
// state, and the next write's LSN is always the state's next. A log
// that does not open, or a segment that is there but cannot be read, is
// a recoveryHardError, since no older generation fixes it.
func catchUp(dir string, local *store.Dir, dopts DurableOptions, w *writer) (*wal.Log, error) {
	lg, err := wal.Open(filepath.Join(dir, wal.Prefix), wal.Options{
		SegmentBytes: dopts.SegmentBytes,
		NoSync:       dopts.NoSync,
		MinLSN:       w.lsn + 1,
		FS:           dopts.FS,
	})
	if err != nil {
		return nil, &recoveryHardError{err: err}
	}
	if err = wal.Replay(context.Background(), hardGets{local}, w.lsn, w.replay); err != nil {
		_ = lg.Close()
		return nil, err
	}
	return lg, nil
}

// walked is the generation walkGenerations settled on.
type walked struct {
	man *runfile.Manifest
	// prev is the next-older candidate, or nil: the generation the WAL
	// floor was chosen to protect, whose files the sweep keeps.
	prev *runfile.Manifest
	// maxSeq is the highest manifest generation listed, valid or not.
	maxSeq uint64
	// notes say why each generation tried before man was skipped.
	notes []string
}

// recoveryHardError wraps a failure that no older generation can fix —
// the WAL directory is unreadable, or the source failed to hand over an
// object (hardGets) — and stops walkGenerations.
type recoveryHardError struct{ err error }

func (e *recoveryHardError) Error() string { return e.err.Error() }

// hardGets is a source as recovery reads it: the walk its checkpoint
// objects, catchUp its WAL segments. An absent object is a defect of the
// generation naming it, and the walk moves on; any other Get failure
// says nothing about the generation (a timeout, a 5xx, an I/O error), so
// it is a recoveryHardError, which stops the walk rather than let it
// settle on an older generation or a bare base. The caller retries.
type hardGets struct{ store.Backend }

func (h hardGets) Get(ctx context.Context, name string) ([]byte, error) {
	data, err := h.Backend.Get(ctx, name)
	if err != nil && !errors.Is(err, store.ErrNotFound) {
		return nil, &recoveryHardError{err: fmt.Errorf("fetch %s: %w", name, err)}
	}
	return data, err
}

// walkGenerations is the one place that decides what a checkpoint
// generation is: it walks the generations src holds, newest first, and
// settles on the first whose image mergedImage reads and accept takes.
// The candidates are the manifests that parse, newest first; only when
// none does, each bare base image is the generation {Base, BaseLSN,
// WALFloor: BaseLSN}, newest first (a base image states the LSN it
// covers, so it needs no manifest). A source holding neither a manifest
// nor a base — nor anything that failed to parse — holds the empty
// state. A generation is skipped only for what its objects hold or lack;
// a Get that fails otherwise stops the walk (see hardGets). When no
// candidate survives, the joined notes become the error: the walk fails
// loudly, it never settles on a silently diverged state.
func walkGenerations(ctx context.Context, src store.Backend, opts Options, accept func(*core.Image, *runfile.Manifest) error) (*walked, error) {
	names, err := src.List(ctx, "")
	if err != nil {
		return nil, fmt.Errorf("list generations: %w", err)
	}
	src = hardGets{src}
	seqs, bases := runfile.Generations(names)
	var cands []*runfile.Manifest
	var notes []string
	for _, seq := range seqs {
		name := runfile.ManifestName(seq)
		data, err := src.Get(ctx, name)
		var hard *recoveryHardError
		if errors.As(err, &hard) {
			return nil, hard.err
		}
		if err != nil {
			notes = append(notes, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		m, err := runfile.ParseManifest(name, data)
		if err != nil {
			notes = append(notes, err.Error())
			continue
		}
		cands = append(cands, m)
	}
	if len(cands) == 0 {
		for _, lsn := range bases {
			cands = append(cands, &runfile.Manifest{
				Version: runfile.ManifestVersion, Base: runfile.BaseName(lsn), BaseLSN: lsn, WALFloor: lsn,
			})
		}
		if len(cands) == 0 && len(notes) == 0 {
			cands = append(cands, &runfile.Manifest{Version: runfile.ManifestVersion})
		}
	}
	for i, man := range cands {
		img, err := mergedImage(ctx, src, opts, man)
		if err == nil {
			if man.Seq == 0 {
				man.BaseElements = img.Elements() // what a manifest would have recorded
			}
			err = accept(img, man)
		}
		var hard *recoveryHardError
		if errors.As(err, &hard) {
			return nil, hard.err
		}
		if err != nil {
			notes = append(notes, err.Error())
			continue
		}
		g := &walked{man: man, notes: notes}
		if len(seqs) > 0 {
			g.maxSeq = seqs[0]
		}
		if i+1 < len(cands) {
			g.prev = cands[i+1]
		}
		return g, nil
	}
	return nil, fmt.Errorf("no generation recovers: %s", strings.Join(notes, "; "))
}

// mergedImage materializes the state a generation covers, reading its
// files from src: the base image (the options-derived empty state when
// Base is "") with the delta runs folded on in order. It is the only
// reader of bases and runs, so every refusal lives here or below it:
// frames and CRCs, each run's CRC against the manifest (runfile), the
// base's WALSeq against BaseLSN, each run's span against the manifest,
// and chain contiguity (ImageDelta.Apply).
func mergedImage(ctx context.Context, src store.Backend, opts Options, man *runfile.Manifest) (*core.Image, error) {
	var img *core.Image
	if man.Base == "" {
		var err error
		if img, err = core.EmptyImage(opts); err != nil {
			return nil, err
		}
	} else {
		data, err := src.Get(ctx, man.Base)
		if err == nil {
			img, err = core.ParseImage(data)
		}
		if err == nil && img.WALSeq != man.BaseLSN {
			err = fmt.Errorf("covers WAL LSN %d, manifest seq %d says %d", img.WALSeq, man.Seq, man.BaseLSN)
		}
		if err != nil {
			return nil, fmt.Errorf("base %s: %w", man.Base, err)
		}
	}
	for _, ri := range man.Runs {
		data, err := src.Get(ctx, ri.Name)
		if err != nil {
			return nil, fmt.Errorf("run %s: %w", ri.Name, err)
		}
		payload, err := runfile.ParseRun(ri, data)
		if err != nil {
			return nil, err
		}
		delta, err := core.ParseDelta(payload)
		if err != nil {
			return nil, fmt.Errorf("run %s: %w", ri.Name, err)
		}
		if delta.FromLSN != ri.From || delta.ToLSN != ri.To {
			return nil, fmt.Errorf("run %s covers (%d, %d], manifest says (%d, %d]", ri.Name, delta.FromLSN, delta.ToLSN, ri.From, ri.To)
		}
		if err := delta.Apply(img); err != nil {
			return nil, fmt.Errorf("run %s: %w", ri.Name, err)
		}
	}
	return img, nil
}

// Dir returns the service's data directory.
func (d *DurableService) Dir() string { return d.dir }

// DurabilityError marks a write rejected because it could not be made
// durable (WAL encode/append/sync failure) — a server-side fault the
// caller may retry, as opposed to a malformed input. The service state
// is unchanged when one is returned.
type DurabilityError struct{ Err error }

func (e *DurabilityError) Error() string { return e.Err.Error() }
func (e *DurabilityError) Unwrap() error { return e.Err }

// ReadOnlyError marks a write rejected fast because the service is in
// declared read-only degraded mode (Reason is one of the Degrade*
// constants). The WAL was not touched; reads keep serving. The state
// clears on a successful Rearm — or, for DegradeDiskFull, on the next
// successful compaction.
type ReadOnlyError struct{ Reason string }

func (e *ReadOnlyError) Error() string {
	return "pghive: durable: service is read-only (" + e.Reason + ")"
}

// Degraded reports whether the service is in declared read-only mode,
// and why (one of the Degrade* constants).
func (d *DurableService) Degraded() (reason string, degraded bool) {
	if r := d.degradedReason.Load(); r != nil {
		return *r, true
	}
	return "", false
}

// failFast rejects writes in read-only mode before they touch the WAL.
// It reads only an atomic, and still takes the witness: the verdict is
// about the log the append that follows — under the same hold — will
// use, and Rearm swaps that log and clears the reason under w.mu.
func (d *DurableService) failFast(_ writeHeld) error {
	if r := d.degradedReason.Load(); r != nil {
		return &ReadOnlyError{Reason: *r}
	}
	return nil
}

// maybeDegrade inspects a failed append and declares read-only
// mode when the failure is one no retry can outrun: a broken log
// (every future append is refused anyway, better to say so cheaply)
// or a full disk (retrying only hammers a volume that needs space
// freed). A transient injected fault or I/O hiccup does NOT degrade —
// the next write simply tries again. Like failFast it touches only
// atomics and takes the witness for ordering: under the hold the append
// failed in, d.wal() is still the log that failed, and a Rearm cannot
// clear the reason between the failure and this verdict.
func (d *DurableService) maybeDegrade(_ writeHeld, err error) {
	switch {
	case d.wal().Broken():
		d.degrade(DegradeWALBroken)
	case errors.Is(err, syscall.ENOSPC):
		d.degrade(DegradeDiskFull)
	}
}

func (d *DurableService) degrade(reason string) {
	r := reason
	d.degradedReason.CompareAndSwap(nil, &r)
}

// IngestIdempotent write-ahead logs the batch, then runs it through
// the pipeline and publishes a fresh snapshot. On error the log and the
// served state are both unchanged. If ctx ends while the call is queued
// behind other writers, nothing is logged or applied and ctx's error
// is returned. If a write with the same key was already applied — in
// this process's lifetime or recovered from the WAL/checkpoint after a
// crash — nothing is applied again and replayed is true, with the
// first write's LSN in bt.LSN ("" writes unkeyed). The key is WAL-logged inside the batch's record, so the
// at-most-once promise survives crashes, compaction, and re-arm; it is
// bounded only by DurableOptions.MaxIdempotencyKeys.
func (d *DurableService) IngestIdempotent(ctx context.Context, key string, g *Graph) (bt BatchTiming, replayed bool, err error) {
	return d.w.write(ctx, key, g, false)
}

// RetractIdempotent write-ahead logs the retraction, then applies it
// (see Service.Retract, and IngestIdempotent for the contract).
func (d *DurableService) RetractIdempotent(ctx context.Context, key string, g *Graph) (bt BatchTiming, replayed bool, err error) {
	return d.w.write(ctx, key, g, true)
}

// DrainStream feeds the stream through the one commit path one batch
// at a time: each materialized batch is an ordinary unkeyed ingest — group-
// committed, deadline-checked and degradation-checked like any other —
// so a crash mid-stream loses at most the batches not yet acknowledged,
// and other writers interleave between a stream's batches. CSV streams
// are adopted into the service's edge-ID and resolver state (see
// Service.DrainStream).
func (d *DurableService) DrainStream(ctx context.Context, r StreamReader, onBatch func(BatchTiming)) error {
	return d.w.drain(ctx, r, onBatch)
}

// WriteCheckpoint serializes the served state as a restorable image
// (see Service.WriteCheckpoint) — the bytes the bit-identity checks
// compare between a live service, its recovery, and its followers. It
// carries no WAL position; the durable layer's own checkpoints are
// written by Compact.
func (d *DurableService) WriteCheckpoint(w io.Writer) error { return d.w.writeCheckpoint(w) }

// Compact writes what changed since the previous round as the next
// checkpoint generation and drops the WAL segments below the resulting
// floor. It takes the write lock for one short stretch: seal
// the active segment (so the round covers everything acknowledged
// before the call) and capture the state — an O(1) Clone of each
// element-keyed column, a copy of what is O(types) or O(shapes), and
// no encoding or checkpoint file. Everything after — the diff against
// the previous round's image, encode, write, fsync, manifest swap,
// ship, sweep — runs off the lock, so concurrent writers and readers
// proceed at full speed. Safe to call concurrently with writes; rounds
// serialize among themselves.
//
// A steady-state round writes only the DELTA of the span as a new run
// file — core.DiffImage of the two images, which skips the column
// leaves they share, so it costs what the writes touched — and swaps
// in a manifest referencing it; it reads no file of the generation.
// When the chain would exceed MaxRuns, or accumulated tombstones cross
// MaxTombstoneRatio of the elements the generation holds, the round
// writes the captured image as a fresh base instead and the chain
// collapses. So does a round whose writes named more elements than the
// overflow rule allows (a bulk load, see roundLoad), without building
// the diff. Either way the new manifest's WAL floor is the PREVIOUS
// generation's covered LSN, so if this round's files turn out torn on
// a lying disk, recovery falls back one generation and replays the
// retained records. A round that fails before the manifest swap keeps
// the previous image as its base: the next round covers both spans.
//
// A successful round also re-arms a disk-full degraded service: the
// dropped segments are exactly the space the write path was starving
// for. A broken-WAL degradation is not cleared here — see Rearm.
func (d *DurableService) Compact() error {
	held := d.compactMu.Lock()
	defer d.compactMu.Unlock()
	began := time.Now()

	covered := d.man.Covered()
	wheld := d.w.mu.Lock()
	locked := time.Now()
	if err := d.wal().Rotate(); err != nil {
		d.w.mu.Unlock()
		return err
	}
	if d.w.lsn <= covered {
		d.w.mu.Unlock()
		// Nothing applied since the last round; still ship, and retry the
		// sweep a crash or a failed removal left undone.
		d.reclaim(held)
		return nil
	}
	ch, err := d.w.lift(wheld, covered)
	d.w.mu.Unlock()
	if err != nil {
		return err
	}
	round := CompactionRound{LockHeldSeconds: time.Since(locked).Seconds()}
	if d.compactTestHook != nil {
		d.compactTestHook()
	}
	// The generation this round writes holds the applied keys
	// mergedImage would read back, trimmed as a restore trims them: the
	// newest of the current generation's keys followed by the span's.
	keys := append(slices.Clip(d.base.AppliedKeys), ch.next.AppliedKeys...)
	ch.next.AppliedKeys = keys[max(len(keys)-d.dopts.MaxIdempotencyKeys, 0):]

	newMan, err := d.writeGeneration(held, ch, &round)
	if err != nil {
		d.w.mu.Lock()
		d.w.load.merge(ch.load)
		d.w.mu.Unlock()
		return err
	}

	// The manifest swap is the commit point: the new generation
	// supersedes files the sweep below removes; failures past this
	// point leave extra files a later round (or OpenDurable) removes,
	// never an unrecoverable state.
	d.prevMan = d.man
	d.man = newMan
	d.manSeq = newMan.Seq
	d.base = ch.next
	d.reclaim(held)
	round.Seconds = time.Since(began).Seconds()
	d.lastRound = round
	d.rounds++
	if round.Folded {
		d.folds++
	}
	return nil
}

// change is what one compaction round took from the live writer
// under the write lock: the state at to, and the load of the writes in
// (from, to].
type change struct {
	from, to uint64
	// next is the state at to. Its applied keys are those above from
	// until Compact merges in the base's.
	next *core.Image
	load roundLoad
}

// lift captures the state at the writer's position for the round that
// covers (from, w.lsn], and takes the load of the writes since the last
// one. The image shares the live columns copy-on-write, so writes after
// the lock is released never reach it.
func (w *writer) lift(_ writeHeld, from uint64) (*change, error) {
	next, err := w.inc.CaptureImage(&core.CheckpointExtras{
		Resolver:    w.resolver,
		NextEdgeID:  w.nextEdgeID,
		WALSeq:      w.lsn,
		AppliedKeys: w.keys.since(from),
	})
	if err != nil {
		return nil, err
	}
	ch := &change{from: from, to: w.lsn, next: next, load: w.load}
	w.load = roundLoad{}
	return ch, nil
}

// minRoundLoad is the number of elements the writes between two rounds
// may always name without folding the round, however small the store.
const minRoundLoad = 4096

// roundLoad is the weight of the writes since the last committed round,
// as the overflow rule reads it: how many elements they named — a bound
// on the elements whose state they changed — and whether that count
// ever passed max(minRoundLoad, live/2) of the elements the state held
// when one of them was applied. Past it the run would rival a base
// image, so the round folds (FoldDirtyOverflow) and builds no diff.
type roundLoad struct {
	elements   int
	overflowed bool
}

// add weighs a write naming n elements, applied to a state of live.
func (l *roundLoad) add(n, live int) {
	l.elements += n
	l.overflowed = l.overflowed || l.elements > max(minRoundLoad, live/2)
}

// merge hands a failed round's load back to the writer, whose next
// round covers that span too.
func (l *roundLoad) merge(o roundLoad) {
	l.elements += o.elements
	l.overflowed = l.overflowed || o.overflowed
}

// Why a round wrote a base image instead of a run
// (CompactionRound.FoldReason).
const (
	FoldMaxRuns        = "max-runs"
	FoldTombstoneRatio = "tombstone-ratio"
	FoldDirtyOverflow  = "dirty-overflow"
)

// writeGeneration makes the round's change durable off the write lock:
// unless its load overflowed, it diffs the captured state against the
// base, then Puts a run (or, on a fold, the captured image as a base),
// then the manifest naming it, built on the current generation's
// bookkeeping (man, manSeq, the ship watermark). It fills in what the
// round wrote; the caller commits the manifest.
func (d *DurableService) writeGeneration(_ compactHeld, ch *change, round *CompactionRound) (*runfile.Manifest, error) {
	newMan := &runfile.Manifest{
		Version: runfile.ManifestVersion,
		Seq:     d.manSeq + 1,
		// One generation of WAL retention: floor at the PREVIOUS
		// coverage so recovery can fall back past this round's files.
		WALFloor: ch.from,
	}
	if d.ship != nil {
		// Persist the upload watermark so a restart keeps gating the sweep
		// before its first shipping round completes.
		newMan.ShippedLSN = d.ship.watermark
	}
	var delta *core.ImageDelta
	if ch.load.overflowed {
		round.Puts, round.FoldReason = ch.next.Elements(), FoldDirtyOverflow
	} else {
		var err error
		if delta, err = core.DiffImage(d.base, ch.next); err != nil {
			return nil, fmt.Errorf("pghive: durable: %w", err)
		}
		round.Puts, round.Tombstones = delta.Puts(), delta.Tombstones()
		switch {
		case len(d.man.Runs)+1 > d.dopts.MaxRuns:
			round.FoldReason = FoldMaxRuns
		case float64(d.man.Tombstones()+round.Tombstones) > d.dopts.MaxTombstoneRatio*float64(max(ch.next.Elements(), 1)):
			round.FoldReason = FoldTombstoneRatio
		}
	}
	ctx := context.Background() // local IO, like recovery's: Close must not cut a round short
	var name string
	var data []byte
	if round.FoldReason == "" {
		payload, err := core.EncodeDelta(delta)
		if err != nil {
			return nil, fmt.Errorf("pghive: durable: encode run: %w", err)
		}
		var info runfile.RunInfo
		data, info = runfile.EncodeRun(ch.from, ch.to, round.Tombstones, payload)
		name = info.Name
		newMan.Base = d.man.Base
		newMan.BaseLSN = d.man.BaseLSN
		newMan.BaseElements = d.man.BaseElements
		newMan.Runs = append(slices.Clone(d.man.Runs), info)
	} else {
		// Leveled merge: the captured state is what base + runs + the
		// new delta merge to, so it becomes the fresh base image; the
		// chain restarts empty.
		var buf bytes.Buffer
		if err := core.EncodeImage(&buf, ch.next); err != nil {
			return nil, fmt.Errorf("pghive: durable: encode base: %w", err)
		}
		name, data = runfile.BaseName(ch.to), buf.Bytes()
		round.Folded = true
		newMan.Base = name
		newMan.BaseLSN = ch.to
		newMan.BaseElements = ch.next.Elements()
	}
	manData, err := runfile.EncodeManifest(newMan)
	if err != nil {
		return nil, err
	}
	if err := d.local.Put(ctx, name, data); err != nil {
		return nil, fmt.Errorf("pghive: durable: write %s: %w", name, err)
	}
	round.BytesWritten = int64(len(data))
	if err := d.local.Put(ctx, runfile.ManifestName(newMan.Seq), manData); err != nil {
		return nil, fmt.Errorf("pghive: durable: write %s: %w", runfile.ManifestName(newMan.Seq), err)
	}
	return newMan, nil
}

// collect is the one collector of everything a store holds, for the
// sweep and shipGC alike. Of names, the store's listing, it deletes from
// b each layout file (runfile.IsArtifact) keep does not hold, then each
// WAL segment that holds nothing above floor (wal.Reclaimable) — and no
// foreign object. An object already gone counts as collected; a failed
// Delete goes to fail, for the next round to retry. It returns what it
// deleted.
func collect(ctx context.Context, b store.Backend, names []string, keep map[string]bool, floor uint64, fail func(error)) (deleted []string) {
	gone := slices.DeleteFunc(slices.Clone(names), func(name string) bool {
		return keep[name] || !runfile.IsArtifact(name)
	})
	for _, name := range append(gone, wal.Reclaimable(names, floor)...) {
		if err := b.Delete(ctx, name); err != nil && !errors.Is(err, store.ErrNotFound) {
			fail(fmt.Errorf("gc %s: %w", name, err))
			continue
		}
		deleted = append(deleted, name)
	}
	return deleted
}

// sweep garbage-collects the data directory: collect, keeping the
// current and the previous generation and the WAL above their floor —
// gated, while shipping, by the ship watermark, so no segment the
// backend lacks is dropped — then the temp residue of interrupted
// atomic writes, which no listing shows. Failures are counted
// (GCFailures / LastGCError), never returned: leftover files cost space,
// not correctness. It reports whether it ran clean: every listing and
// every removal succeeded.
func (d *DurableService) sweep(_ compactHeld) (clean bool) {
	ctx, fsys := context.Background(), vfs.OrOS(d.dopts.FS)
	names, err := d.local.List(ctx, "")
	if err != nil {
		d.gc.note(err)
		return false
	}
	floor := runfile.Floor(d.man, d.prevMan)
	if d.ship != nil {
		floor = min(floor, d.ship.watermark)
	}
	clean = true
	collect(ctx, d.local, names, runfile.Keep(d.man, d.prevMan), floor, func(err error) {
		d.gc.note(err)
		clean = false
	})
	tmps, err := fsys.Glob(filepath.Join(d.dir, "*"+vfs.TmpSuffix))
	if err != nil {
		d.gc.note(err)
		return false
	}
	for _, p := range tmps {
		if err := fsys.Remove(p); err != nil {
			d.gc.note(fmt.Errorf("remove %s: %w", p, err))
			clean = false
		}
	}
	return clean
}

// reclaim is the housekeeping after every round and at open, which may
// follow a crash out of one: ship what the backend is missing (best
// effort: counted, retried next round), then sweep, gated by the
// watermark the shipping just advanced. A sweep whose every removal
// landed has freed the space a disk-full service starves for, so it
// re-arms one; a broken log stays degraded until Rearm.
func (d *DurableService) reclaim(held compactHeld) {
	d.shipRound(held)
	if d.sweep(held) && d.degradedReason.Load() != nil && !d.wal().Broken() {
		d.degradedReason.Store(nil)
	}
}

// faults counts the failures of a best-effort step — the sweep's
// removals, a shipping round's uploads and deletions — and keeps the
// last one; the next round retries.
type faults struct {
	count int64
	last  string
}

func (f *faults) note(err error) { f.count, f.last = f.count+1, err.Error() }

// Rearm restores write service after read-only degradation: it closes
// the (possibly broken) log, re-opens it from disk — re-scanning what
// is actually durable and truncating any torn tail — and replays onto
// the live state any record the state never absorbed. That last step
// resolves the broken-WAL ambiguity honestly: if the frame of an
// errored append turned out to be durable after all, it is applied
// now (with its idempotency key, so a client retry of that write
// still lands exactly once); if it did not survive, it is gone and a
// retry applies it fresh. A no-op when the service is healthy. On
// failure the service stays read-only and Rearm can be retried.
func (d *DurableService) Rearm() error {
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	d.w.mu.Lock()
	defer d.w.mu.Unlock()
	if _, degraded := d.Degraded(); !degraded {
		return nil
	}
	// Best effort: a broken log's close may itself fail; the reopen
	// below re-reads the on-disk truth regardless. The writer's position
	// advances per record, so a Rearm retried after a replay that failed
	// midway never applies a record twice.
	_ = d.wal().Close()
	lg, err := catchUp(d.dir, d.local, d.dopts, d.w)
	if err != nil {
		return fmt.Errorf("pghive: durable: rearm: %w", err)
	}
	d.log.Store(lg)
	d.degradedReason.Store(nil)
	return nil
}

// CheckpointLSN returns the WAL sequence number the current
// checkpoint generation covers — base image plus delta runs (zero
// before the first compaction).
func (d *DurableService) CheckpointLSN() uint64 {
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	return d.man.Covered()
}

// DurableStats describes the durability state of the data directory.
type DurableStats struct {
	// Dir is the data directory.
	Dir string `json:"dir"`
	// CheckpointLSN is the WAL LSN the current checkpoint generation
	// covers (base image + delta runs).
	CheckpointLSN uint64 `json:"checkpointLSN"`
	// BaseLSN is the WAL LSN of the generation's base image alone;
	// CheckpointLSN-BaseLSN records live in the run chain.
	BaseLSN uint64 `json:"baseLSN"`
	// ManifestSeq is the current generation number (zero before the
	// first manifest is written).
	ManifestSeq uint64 `json:"manifestSeq"`
	// Runs / RunBytes / RunTombstones describe the delta-run chain on
	// top of the base image; a fold resets all three.
	Runs          int   `json:"runs"`
	RunBytes      int64 `json:"runBytes"`
	RunTombstones int   `json:"runTombstones"`
	// RecoveryFallbacks counts the checkpoint generations recovery had
	// to skip (corrupt manifest, torn base or run) before one
	// validated. Zero in healthy operation.
	RecoveryFallbacks int `json:"recoveryFallbacks,omitempty"`
	// GCFailures counts file removals the garbage-collection sweep
	// could not complete (retried every sweep); LastGCError is the
	// most recent failure.
	GCFailures  int64  `json:"gcFailures,omitempty"`
	LastGCError string `json:"lastGCError,omitempty"`
	// WALNextLSN is the sequence number the next mutation will carry;
	// NextLSN-1-CheckpointLSN records replay on recovery today.
	WALNextLSN uint64 `json:"walNextLSN"`
	// WALSyncs counts the fsyncs the log has issued. Concurrent writers
	// share them (see groupcommit.go), so acknowledged writes divided by
	// WALSyncs is how many acks each flush carried: 1 for a lone writer,
	// up to the commit-group bound under concurrency.
	WALSyncs uint64 `json:"walSyncs"`
	// ShippedLSN is the WAL shipping watermark: every record at or
	// below it is durable in the configured backend (zero when
	// shipping is disabled). The local sweep never drops a WAL segment
	// above it.
	ShippedLSN uint64 `json:"shippedLSN,omitempty"`
	// ShipFailures counts failed backend uploads/GC deletions (each is
	// retried on a later round); LastShipError is the most recent.
	ShipFailures  int64  `json:"shipFailures,omitempty"`
	LastShipError string `json:"lastShipError,omitempty"`
	// WALSealedSegments / WALSealedBytes count the sealed segments
	// waiting for compaction.
	WALSealedSegments int   `json:"walSealedSegments"`
	WALSealedBytes    int64 `json:"walSealedBytes"`
	// WALBroken reports a WAL that refuses writes because a failed
	// append could not be rolled back; the service still serves reads
	// and the directory still recovers, but the last failed record's
	// durability is indeterminate until then.
	WALBroken bool `json:"walBroken"`
	// ReadOnly / ReadOnlyReason declare degraded read-only mode (see
	// the Degrade* constants and Rearm).
	ReadOnly       bool   `json:"readOnly,omitempty"`
	ReadOnlyReason string `json:"readOnlyReason,omitempty"`
	// IdempotencyKeys counts the retained applied-key set.
	IdempotencyKeys int `json:"idempotencyKeys"`
	// LastRound describes the most recent compaction round that wrote
	// a generation (zero before the first); Rounds and Folds count such
	// rounds, and those of them that wrote a base image, since open.
	LastRound CompactionRound `json:"lastRound"`
	Rounds    uint64          `json:"rounds"`
	Folds     uint64          `json:"folds"`
}

// CompactionRound is what one compaction round cost.
type CompactionRound struct {
	// Seconds is the whole round, lift to sweep. LockHeldSeconds is the
	// part of it spent holding the write lock — sealing the log and
	// capturing the state — which is all a concurrent writer can wait on.
	Seconds         float64 `json:"seconds"`
	LockHeldSeconds float64 `json:"lockHeldSeconds"`
	// BytesWritten is the size of the run or base image the round
	// wrote (the manifest, a few hundred bytes, not counted).
	BytesWritten int64 `json:"bytesWritten"`
	// Puts / Tombstones count the entries the round's delta puts and
	// deletes. A dirty-overflow round has no delta: its Puts are the
	// elements of the state it captured whole.
	Puts       int `json:"puts"`
	Tombstones int `json:"tombstones"`
	// Folded reports a round that wrote a base image instead of a run;
	// FoldReason says why (one of the Fold* constants, "" for a run).
	Folded     bool   `json:"folded"`
	FoldReason string `json:"foldReason,omitempty"`
}

// DurableStats snapshots the durability counters.
func (d *DurableService) DurableStats() DurableStats {
	lg := d.wal()
	st := DurableStats{
		Dir:        d.dir,
		WALNextLSN: lg.NextLSN(), WALBroken: lg.Broken(),
		WALSyncs:        lg.Syncs(),
		IdempotencyKeys: d.w.keys.len(),
	}
	d.compactMu.Lock()
	st.CheckpointLSN = d.man.Covered()
	st.BaseLSN = d.man.BaseLSN
	st.ManifestSeq = d.man.Seq
	st.Runs = len(d.man.Runs)
	for _, r := range d.man.Runs {
		st.RunBytes += r.Bytes
	}
	st.RunTombstones = d.man.Tombstones()
	st.RecoveryFallbacks = d.fallbacks
	st.GCFailures, st.LastGCError = d.gc.count, d.gc.last
	st.LastRound, st.Rounds, st.Folds = d.lastRound, d.rounds, d.folds
	if d.ship != nil {
		st.ShippedLSN = d.ship.watermark
		st.ShipFailures, st.LastShipError = d.ship.count, d.ship.last
	}
	d.compactMu.Unlock()
	if reason, degraded := d.Degraded(); degraded {
		st.ReadOnly, st.ReadOnlyReason = true, reason
	}
	for _, seg := range lg.Sealed() {
		st.WALSealedSegments++
		st.WALSealedBytes += seg.Bytes
	}
	return st
}

// Close stops the background compactor and closes the WAL. The state
// is already durable — close performs no final fold; reopening the
// directory recovers everything.
func (d *DurableService) Close() error {
	d.closeOnce.Do(func() {
		d.cancel()
		if d.done != nil {
			<-d.done
		}
		d.compactMu.Lock()
		defer d.compactMu.Unlock()
		d.w.mu.Lock()
		defer d.w.mu.Unlock()
		d.closeErr = d.wal().Close()
	})
	return d.closeErr
}

// compactLoop runs Compact on the configured cadence until Close.
func (d *DurableService) compactLoop() {
	defer close(d.done)
	t := time.NewTicker(d.dopts.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-d.life.Done():
			return
		case <-t.C:
			if err := d.Compact(); err != nil && d.dopts.OnCompactError != nil {
				d.dopts.OnCompactError(err)
			}
		}
	}
}

// defaultMaxIdempotencyKeys is how many applied keys a writer retains:
// DurableOptions.MaxIdempotencyKeys' default and a plain Service's bound.
const defaultMaxIdempotencyKeys = 65536

// idemStore is the bounded applied idempotency-key set: key → the LSN
// of the write that applied it, evicted oldest-first past cap.
// Internally locked so stats readers never contend with the write
// path for the service lock.
type idemStore struct {
	mu   sync.Mutex
	cap  int
	m    map[string]uint64
	fifo []core.AppliedKey // insertion (= LSN) order
	head int               // fifo[:head] already evicted
}

func newIdemStore(cap int) *idemStore {
	return &idemStore{cap: cap, m: make(map[string]uint64)}
}

func (st *idemStore) seen(key string) (uint64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	lsn, ok := st.m[key]
	return lsn, ok
}

func (st *idemStore) add(key string, lsn uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.m[key]; ok {
		return // replay of an already-tracked record
	}
	st.m[key] = lsn
	st.fifo = append(st.fifo, core.AppliedKey{Key: key, LSN: lsn})
	for len(st.m) > st.cap {
		delete(st.m, st.fifo[st.head].Key)
		st.head++
	}
	if st.head > len(st.fifo)/2 && st.head > 64 {
		st.fifo = append([]core.AppliedKey(nil), st.fifo[st.head:]...)
		st.head = 0
	}
}

func (st *idemStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// since returns the retained keys applied above lsn, in LSN order: a
// binary search and a copy of what it finds.
func (st *idemStore) since(lsn uint64) []core.AppliedKey {
	st.mu.Lock()
	defer st.mu.Unlock()
	live := st.fifo[st.head:]
	i := sort.Search(len(live), func(i int) bool { return live[i].LSN > lsn })
	if i == len(live) {
		return nil
	}
	return append([]core.AppliedKey(nil), live[i:]...)
}

// export returns the retained keys in LSN order — the deterministic
// serialization the checkpoint image needs.
func (st *idemStore) export() []core.AppliedKey {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.head == len(st.fifo) {
		return nil
	}
	return append([]core.AppliedKey(nil), st.fifo[st.head:]...)
}

// replay decodes one logged record — its direction from the type, its
// idempotency key and graph from the payload — and folds it into the
// state through apply: the path recovery, Rearm's catch-up and a
// follower's tail share. It refuses any record but the writer's next,
// so a duplicate, a gap or a second tail racing the first stops instead
// of applying twice.
func (w *writer) replay(rec wal.Record) error {
	if rec.LSN != w.lsn+1 {
		return fmt.Errorf("pghive: wal record %d is not the next after %d", rec.LSN, w.lsn)
	}
	if rec.Type != walRecIngest && rec.Type != walRecRetract {
		return fmt.Errorf("pghive: durable: wal record %d has unknown type %d", rec.LSN, rec.Type)
	}
	key, g, err := decodeWALRecordPayload(rec.Payload)
	if err != nil {
		return fmt.Errorf("pghive: durable: wal record %d: %w", rec.LSN, err)
	}
	w.apply(rec.LSN, key, g, rec.Type == walRecRetract)
	return nil
}
