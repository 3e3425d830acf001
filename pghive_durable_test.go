package pghive_test

// Durable-service crash-recovery property tests. The contract: for a
// service whose every mutation is write-ahead logged, kill -9 at ANY
// record boundary must recover — newest checkpoint + WAL tail replay
// — to a state bit-identical (checkpoint-image bytes, which cover
// schema, per-element assignments, counters, shape caches, endpoint
// bookkeeping, and the edge-ID watermark) to a plain in-memory
// service that applied exactly the records the log retained. Crash
// simulation is file-level: the data directory is copied or the WAL
// truncated at record boundaries (with optional torn garbage
// appended), and a fresh OpenDurable recovers from the files alone.

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/datagen"
	"github.com/pghive/pghive/internal/runfile"
	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
	"github.com/pghive/pghive/internal/wal"
)

// durableFixture is one deterministic mutation script: four ingest
// batches, a retraction of the second, and a streamed drain — every
// write-path kind the WAL records.
type durableFixture struct {
	opts       pghive.Options
	ingests    []*pghive.Graph
	retract    *pghive.Graph
	streamData []byte
	streamBS   int
}

func newDurableFixture(t *testing.T, opts pghive.Options) *durableFixture {
	t.Helper()
	d := datagen.Generate(datagen.LDBC(), 0.15, 42)
	batches := pghive.SplitBatches(d.Graph, 8, rand.New(rand.NewSource(9)))
	if len(batches) != 8 {
		t.Fatalf("split into %d batches, want 8", len(batches))
	}
	fx := &durableFixture{opts: opts, streamBS: 300}
	for _, b := range batches[:4] {
		fx.ingests = append(fx.ingests, b.Graph)
	}
	fx.retract = batches[1].Graph
	var buf bytes.Buffer
	for _, b := range batches[4:] {
		if err := pghive.WriteJSONL(&buf, b.Graph); err != nil {
			t.Fatal(err)
		}
	}
	fx.streamData = buf.Bytes()
	return fx
}

// serviceImage serializes a service's full state; two services whose
// images are byte-equal are indistinguishable to every read and every
// future write.
func serviceImage(t *testing.T, s interface{ WriteCheckpoint(io.Writer) error }) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceImages applies the script on a plain in-memory Service,
// capturing the state image after every record-sized step: ref[0] is
// the empty service, ref[i] the state after the first i WAL records.
func (fx *durableFixture) referenceImages(t *testing.T) [][]byte {
	t.Helper()
	svc := pghive.NewService(fx.opts)
	imgs := [][]byte{serviceImage(t, svc)}
	for _, g := range fx.ingests {
		svc.Ingest(g)
		imgs = append(imgs, serviceImage(t, svc))
	}
	svc.Retract(fx.retract)
	imgs = append(imgs, serviceImage(t, svc))
	st := pghive.NewJSONLStream(bytes.NewReader(fx.streamData), fx.streamBS)
	for {
		b, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		svc.Ingest(b.Graph)
		imgs = append(imgs, serviceImage(t, svc))
	}
	return imgs
}

// runDurable applies the script through the durable API. compactAt,
// when >= 0, triggers a manual compaction after that mutation index
// (0-based over the 6 mutations).
func (fx *durableFixture) runDurable(t *testing.T, dir string, dopts pghive.DurableOptions, compactAt int) {
	t.Helper()
	d, err := pghive.OpenDurable(dir, fx.opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	step := 0
	maybeCompact := func() {
		if step == compactAt {
			if err := d.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		step++
	}
	for _, g := range fx.ingests {
		if err := durableIngest(d, g); err != nil {
			t.Fatal(err)
		}
		maybeCompact()
	}
	if err := durableRetract(d, fx.retract); err != nil {
		t.Fatal(err)
	}
	maybeCompact()
	if err := d.DrainStream(context.Background(), pghive.NewJSONLStream(bytes.NewReader(fx.streamData), fx.streamBS), nil); err != nil {
		t.Fatal(err)
	}
	maybeCompact()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// copyTree copies a directory recursively (the point-in-time file
// state a crash freezes).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// walSegments lists a data directory's WAL segment files in LSN order.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	return segs
}

// crashPoint is one record boundary across the whole log: records is
// the number of complete records at (and before) it.
type crashPoint struct {
	segIdx  int
	end     int64
	records int
}

// crashPoints enumerates every record boundary, including the empty
// log (0 records).
func crashPoints(t *testing.T, segs []string) []crashPoint {
	t.Helper()
	points := []crashPoint{{segIdx: -1}}
	records := 0
	for si, seg := range segs {
		ends, err := wal.RecordEnds(nil, seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ends {
			records++
			points = append(points, crashPoint{segIdx: si, end: e, records: records})
		}
	}
	return points
}

// buildCrashDir materializes the file state of a crash at p: segments
// before p's are intact, p's segment is truncated at the boundary,
// later segments never existed. torn, when non-nil, is appended after
// the boundary — the half-written record the crash interrupted.
func buildCrashDir(t *testing.T, srcDir string, segs []string, p crashPoint, torn []byte) string {
	t.Helper()
	dst := t.TempDir()
	// Checkpoint layouts predate every crash point in these tests
	// (compaction variants use buildRunLayoutCrashDir instead).
	cks, err := filepath.Glob(filepath.Join(srcDir, "checkpoint-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 0 {
		t.Fatalf("crash-point test expects no checkpoints, found %v", cks)
	}
	writeCrashWAL(t, dst, segs, p, torn)
	return dst
}

// buildRunLayoutCrashDir is buildCrashDir for a directory carrying an
// incremental-checkpoint layout: the manifests, base image, and delta
// runs are copied intact (they are atomically written and immutable
// once a manifest references them) while the WAL is truncated at the
// crash point.
func buildRunLayoutCrashDir(t *testing.T, srcDir string, segs []string, p crashPoint, torn []byte) string {
	t.Helper()
	dst := t.TempDir()
	for _, pat := range []string{"checkpoint-*.ckpt", "run-*.run", "manifest-*.mft"} {
		names, err := filepath.Glob(filepath.Join(srcDir, pat))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, filepath.Base(name)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	writeCrashWAL(t, dst, segs, p, torn)
	return dst
}

// writeCrashWAL copies the WAL into dst truncated at crash point p,
// with optional torn garbage after the boundary.
func writeCrashWAL(t *testing.T, dst string, segs []string, p crashPoint, torn []byte) {
	t.Helper()
	walDst := filepath.Join(dst, "wal")
	if err := os.MkdirAll(walDst, 0o755); err != nil {
		t.Fatal(err)
	}
	for si, seg := range segs {
		if si > p.segIdx {
			break
		}
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if si == p.segIdx {
			data = data[:p.end]
		}
		data = append(append([]byte(nil), data...), torn...)
		if err := os.WriteFile(filepath.Join(walDst, filepath.Base(seg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableCrashRecoveryProperty is the acceptance contract: for
// ELSH and MinHash, at EVERY record-boundary crash point — clean
// truncation and torn-tail variants — restore+replay yields a state
// image bit-identical to the in-memory service that applied exactly
// the surviving records.
func TestDurableCrashRecoveryProperty(t *testing.T) {
	torn := []byte{0x13, 0x00, 0x00, 0x00, 0xaa, 0xbb, 0xcc, 0xdd, 0x01, 0x02}
	for _, method := range []pghive.Method{pghive.ELSH, pghive.MinHash} {
		opts := pghive.Options{Seed: 7, Method: method}
		t.Run(method.String(), func(t *testing.T) {
			fx := newDurableFixture(t, opts)
			ref := fx.referenceImages(t)

			dir := t.TempDir()
			// Small segments force rotation, so crash points span
			// multiple files.
			dopts := pghive.DurableOptions{NoSync: true, DisableAutoCompact: true, SegmentBytes: 4 << 10}
			fx.runDurable(t, dir, dopts, -1)

			segs := walSegments(t, dir)
			if len(segs) < 2 {
				t.Fatalf("want multiple WAL segments for multi-file crash points, got %d", len(segs))
			}
			points := crashPoints(t, segs)
			if len(points) != len(ref) {
				t.Fatalf("%d crash points but %d reference states", len(points), len(ref))
			}

			for _, p := range points {
				for variant, tail := range map[string][]byte{"clean": nil, "torn": torn} {
					crashDir := buildCrashDir(t, dir, segs, p, tail)
					rec, err := pghive.OpenDurable(crashDir, opts, dopts)
					if err != nil {
						t.Fatalf("recover at %d records (%s): %v", p.records, variant, err)
					}
					img := serviceImage(t, rec)
					rec.Close()
					if !bytes.Equal(img, ref[p.records]) {
						t.Fatalf("recovery at %d records (%s) diverges from uninterrupted run", p.records, variant)
					}
				}
			}
		})
	}
}

// TestDurableCompactionRoundTrip covers the incremental (LSM-style)
// checkpoint lifecycle end to end: compactions append delta runs to
// the manifest until the chain crosses MaxRuns and folds into a fresh
// base image; every intermediate generation recovers bit-identically;
// retention keeps exactly the current and previous generations; the
// WAL is pruned to the manifest's floor (one generation of slack);
// and record-boundary crashes on top of the run layout recover like
// they do on a bare WAL.
func TestDurableCompactionRoundTrip(t *testing.T) {
	opts := pghive.Options{Seed: 7}
	fx := newDurableFixture(t, opts)
	ref := fx.referenceImages(t)

	dir := t.TempDir()
	// MaxRuns 3 makes the fourth compaction fold; the tombstone ratio
	// is effectively disabled so chain length alone decides folds and
	// the generation sequence below is deterministic.
	dopts := pghive.DurableOptions{
		NoSync: true, DisableAutoCompact: true, SegmentBytes: 4 << 10,
		MaxRuns: 3, MaxTombstoneRatio: 1e9,
	}
	d, err := pghive.OpenDurable(dir, fx.opts, dopts)
	if err != nil {
		t.Fatal(err)
	}

	// snaps freezes the directory right after each compaction — the
	// file state a crash at that moment leaves behind — with the LSN the
	// live snapshot stated then.
	type genSnap struct {
		dir     string
		records int
		lsn     uint64
	}
	var snaps []genSnap
	compact := func(records int, wantSeq uint64, wantRuns int, wantBaseLSN uint64) {
		t.Helper()
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		st := d.DurableStats()
		if st.ManifestSeq != wantSeq || st.Runs != wantRuns || st.BaseLSN != wantBaseLSN || st.CheckpointLSN != uint64(records) {
			t.Fatalf("after compaction at %d records: seq=%d runs=%d baseLSN=%d covered=%d, want seq=%d runs=%d baseLSN=%d covered=%d",
				records, st.ManifestSeq, st.Runs, st.BaseLSN, st.CheckpointLSN, wantSeq, wantRuns, wantBaseLSN, records)
		}
		if st.RecoveryFallbacks != 0 || st.GCFailures != 0 {
			t.Fatalf("healthy run reports fallbacks=%d gcFailures=%d", st.RecoveryFallbacks, st.GCFailures)
		}
		snap := t.TempDir()
		copyTree(t, dir, snap)
		snaps = append(snaps, genSnap{dir: snap, records: records, lsn: d.Stats().LSN})
	}

	for i, g := range fx.ingests {
		if err := durableIngest(d, g); err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			// The chain grows: one delta run per compaction on the
			// (empty) base.
			compact(i+1, uint64(i+1), i+1, 0)
		} else {
			// A fourth run would exceed MaxRuns=3: leveled fold into a
			// fresh base image; the chain resets.
			compact(4, 4, 0, 4)
		}
	}
	if err := durableRetract(d, fx.retract); err != nil {
		t.Fatal(err)
	}
	compact(5, 5, 1, 4)
	if st := d.DurableStats(); st.RunTombstones == 0 {
		t.Fatal("retraction delta run carries no tombstones")
	}
	if err := d.DrainStream(context.Background(), pghive.NewJSONLStream(bytes.NewReader(fx.streamData), fx.streamBS), nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Exactly the current and previous generations survive on disk:
	// the fold's base image, the retraction run, manifests 4 and 5.
	// Everything superseded — runs 1..3, manifests 1..3 — was swept.
	wantFiles := []string{
		fmt.Sprintf("checkpoint-%020d.ckpt", 4),
		fmt.Sprintf("manifest-%020d.mft", 4),
		fmt.Sprintf("manifest-%020d.mft", 5),
		fmt.Sprintf("run-%020d-%020d.run", 4, 5),
	}
	var gotFiles []string
	for _, pat := range []string{"checkpoint-*.ckpt", "run-*.run", "manifest-*.mft", "*.tmp"} {
		names, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			gotFiles = append(gotFiles, filepath.Base(n))
		}
	}
	sort.Strings(gotFiles)
	if fmt.Sprint(gotFiles) != fmt.Sprint(wantFiles) {
		t.Fatalf("layout files after final compaction:\n  got  %v\n  want %v", gotFiles, wantFiles)
	}
	// A plain service restored from that base keeps no log, so its
	// snapshot states no position, whatever LSN the base covers.
	base, err := os.ReadFile(filepath.Join(dir, wantFiles[0]))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := pghive.RestoreService(opts, bytes.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	if lsn := plain.Stats().LSN; lsn != 0 {
		t.Fatalf("plain service restored from a base covering LSN 4 states LSN %d, want none", lsn)
	}

	// WAL retention: generation 5's floor is generation 4's coverage
	// (LSN 4), so records 1-4 are pruned and record 5 — needed to
	// replay on top of generation 4 if generation 5 turns out torn —
	// survives.
	segs := walSegments(t, dir)
	var pruned *wal.PrunedError
	if err := wal.Replay(context.Background(), store.NewDir(nil, dir), 0, func(wal.Record) error { return nil }); !errors.As(err, &pruned) || pruned.Oldest != 5 {
		t.Fatalf("replay from LSN 1: %v; want the oldest surviving WAL record to be 5 (floor = previous generation's coverage)", err)
	}

	// Every mid-script generation snapshot recovers bit-identically —
	// run-on-empty-base, multi-run chains, post-fold, run-on-base.
	for _, s := range snaps {
		rec, err := pghive.OpenDurable(s.dir, opts, dopts)
		if err != nil {
			t.Fatalf("recover generation snapshot at %d records: %v", s.records, err)
		}
		img := serviceImage(t, rec)
		st, lsn := rec.DurableStats(), rec.Stats().LSN
		rec.Close()
		if !bytes.Equal(img, ref[s.records]) {
			t.Fatalf("recovery from generation snapshot at %d records diverges", s.records)
		}
		if lsn != s.lsn || lsn != uint64(s.records) {
			t.Fatalf("recovery at %d records states LSN %d; before the crash the snapshot stated %d", s.records, lsn, s.lsn)
		}
		if st.RecoveryFallbacks != 0 {
			t.Fatalf("snapshot at %d records needed %d fallbacks on a healthy disk", s.records, st.RecoveryFallbacks)
		}
	}

	// Record-boundary crashes over the run layout: manifest + base +
	// run intact, WAL truncated at every boundary, clean and torn.
	// Retained records start at LSN 5 and records ≤ 5 are folded into
	// the generation, so recovery never regresses below ref[5].
	torn := []byte{0x13, 0x00, 0x00, 0x00, 0xaa, 0xbb, 0xcc, 0xdd, 0x01, 0x02}
	for _, p := range crashPoints(t, segs) {
		for variant, tail := range map[string][]byte{"clean": nil, "torn": torn} {
			crashDir := buildRunLayoutCrashDir(t, dir, segs, p, tail)
			rec, err := pghive.OpenDurable(crashDir, opts, dopts)
			if err != nil {
				t.Fatalf("recover at %d retained records (%s): %v", p.records, variant, err)
			}
			img := serviceImage(t, rec)
			rec.Close()
			want := max(4+p.records, 5)
			if !bytes.Equal(img, ref[want]) {
				t.Fatalf("recovery at %d retained records (%s) diverges from uninterrupted run", p.records, variant)
			}
		}
	}

	// The reopened service equals the uninterrupted run and keeps
	// accepting writes: the retracted batch's IDs are free again, so
	// re-ingesting it is a legal new mutation mirrored on the
	// reference.
	rec, err := pghive.OpenDurable(dir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	if got := serviceImage(t, rec); !bytes.Equal(got, ref[len(ref)-1]) {
		t.Fatal("state after reopen diverges from uninterrupted run")
	}
	if got := rec.CheckpointLSN(); got != 5 {
		t.Fatalf("CheckpointLSN after reopen = %d, want 5", got)
	}
	refSvc := pghive.NewService(opts)
	replayReference(t, refSvc, fx)
	if err := durableIngest(rec, fx.retract); err != nil {
		t.Fatal(err)
	}
	refSvc.Ingest(fx.retract)
	liveImg := serviceImage(t, rec)
	if !bytes.Equal(liveImg, serviceImage(t, refSvc)) {
		t.Fatal("post-recovery write diverges from reference")
	}

	// Another compaction folds the drained tail + new ingest into a
	// second run without changing the served state, and the directory
	// still recovers.
	if err := rec.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := serviceImage(t, rec); !bytes.Equal(got, liveImg) {
		t.Fatal("compaction changed the served state")
	}
	if st := rec.DurableStats(); st.ManifestSeq != 6 || st.Runs != 2 || st.BaseLSN != 4 {
		t.Fatalf("after post-recovery compaction: seq=%d runs=%d baseLSN=%d, want seq=6 runs=2 baseLSN=4", st.ManifestSeq, st.Runs, st.BaseLSN)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := pghive.OpenDurable(dir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	if got := serviceImage(t, rec2); !bytes.Equal(got, liveImg) {
		t.Fatal("recovery after second compaction cycle diverges")
	}
	rec2.Close()
}

// replayReference applies the whole fixture script to a plain service.
func replayReference(t *testing.T, svc *pghive.Service, fx *durableFixture) {
	t.Helper()
	for _, g := range fx.ingests {
		svc.Ingest(g)
	}
	svc.Retract(fx.retract)
	if err := svc.DrainStream(context.Background(), pghive.NewJSONLStream(bytes.NewReader(fx.streamData), fx.streamBS), nil); err != nil {
		t.Fatal(err)
	}
}

// durableIngest and durableRetract write g to d unkeyed, with no
// deadline, and return the write's error.
func durableIngest(d *pghive.DurableService, g *pghive.Graph) error {
	_, _, err := d.IngestIdempotent(context.Background(), "", g)
	return err
}

func durableRetract(d *pghive.DurableService, g *pghive.Graph) error {
	_, _, err := d.RetractIdempotent(context.Background(), "", g)
	return err
}

// stressGraph builds a small explicit-ID graph so concurrent writers
// can ingest disjoint namespaces.
func stressGraph(t testing.TB, base pghive.ID, n int) *pghive.Graph {
	g := pghive.NewGraph()
	for i := 0; i < n; i++ {
		id := base + pghive.ID(i)
		if err := g.PutNode(id, []string{"Stress"}, pghive.PropsOf(map[string]pghive.Value{
			"k": pghive.Int(int64(i)),
		})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		src := base + pghive.ID(i)
		dst := base + pghive.ID((i+1)%n)
		if err := g.PutEdge(base+pghive.ID(i), []string{"NEXT"}, src, dst, nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestDurableDrainStreamInterleavesWithWriters is
// TestDrainStreamInterleavesWithWriters on the durable service, where
// every batch — streamed or not — goes through the one commit path: the
// interleaved write is acknowledged within its deadline, and the log it
// left recovers to the byte-identical state.
func TestDurableDrainStreamInterleavesWithWriters(t *testing.T) {
	opts := pghive.Options{Seed: 3, Parallelism: 1}
	dopts := pghive.DurableOptions{FS: vfs.NewMemFS(), DisableAutoCompact: true}
	d, err := pghive.OpenDurable("data", opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	ps := newParkedStream(stressGraph(t, 0, 5), stressGraph(t, 1000, 5))
	drainDone := make(chan error, 1)
	go func() { drainDone <- d.DrainStream(context.Background(), ps, nil) }()
	<-ps.parked

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, err := d.IngestIdempotent(ctx, "", stressGraph(t, 2000, 5)); err != nil {
		t.Fatalf("ingest while a stream is parked between batches: %v", err)
	}
	close(ps.release)
	if err := <-drainDone; err != nil {
		t.Fatal(err)
	}
	if got := d.DurableStats().WALNextLSN - 1; got != 3 {
		t.Fatalf("%d records logged, want 3", got)
	}
	live := serviceImage(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := pghive.OpenDurable("data", opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !bytes.Equal(live, serviceImage(t, d2)) {
		t.Fatal("recovered image differs from the live one after an interleaved stream")
	}
}

// TestDurableServiceConcurrentStress runs writers, lock-free readers,
// and an aggressive background compactor together under the race
// detector, then proves the WAL-ordered history recovers to exactly
// the live final state.
func TestDurableServiceConcurrentStress(t *testing.T) {
	opts := pghive.Options{Seed: 3, Parallelism: 1}
	dir := t.TempDir()
	d, err := pghive.OpenDurable(dir, opts, pghive.DurableOptions{
		NoSync:          true,
		SegmentBytes:    256,
		CompactInterval: 2 * time.Millisecond,
		OnCompactError:  func(err error) { t.Errorf("background compaction: %v", err) },
	})
	if err != nil {
		t.Fatal(err)
	}

	const writers, iters, span = 3, 12, 10
	var writerWG, readerWG sync.WaitGroup
	writersDone := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < iters; i++ {
				base := pghive.ID(1_000_000*w + 1_000*i)
				g := stressGraph(t, base, span)
				if err := durableIngest(d, g); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if i%3 == 2 {
					if err := durableRetract(d, g); err != nil {
						t.Errorf("writer %d retract: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-writersDone:
					return
				default:
				}
				snap := d.Snapshot()
				if snap.Stats.NodeTypes != len(snap.Schema.NodeTypes) {
					t.Error("snapshot stats disagree with snapshot schema")
					return
				}
			}
		}()
	}
	writerWG.Wait()
	close(writersDone)
	readerWG.Wait()

	liveImg := serviceImage(t, d)
	liveStats := d.Stats()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := pghive.OpenDurable(dir, opts, pghive.DurableOptions{NoSync: true, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := serviceImage(t, rec); !bytes.Equal(got, liveImg) {
		t.Fatal("recovered state diverges from the live service's final state")
	}
	if got := rec.Stats(); got.Batches != liveStats.Batches || got.Nodes != liveStats.Nodes || got.Edges != liveStats.Edges {
		t.Fatalf("recovered stats %+v, live %+v", got, liveStats)
	}
}

// TestWritesStartNoGoroutine: writes run on their callers' goroutines.
// Neither a plain Service nor a DurableService with no compactor and no
// shipping starts a goroutine of its own to commit them, so every
// goroutine a deterministic simulation must schedule is one it started.
func TestWritesStartNoGoroutine(t *testing.T) {
	rootGoroutines := func() int {
		buf := make([]byte, 1<<20)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		count := 0
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "github.com/pghive/pghive.") {
				count++
			}
		}
		return count
	}
	opts := pghive.Options{Seed: 3, Parallelism: 1}
	before := rootGoroutines()
	s := pghive.NewService(opts)
	d, err := pghive.OpenDurable("data", opts, pghive.DurableOptions{FS: vfs.NewMemFS(), DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if after := rootGoroutines(); after > before {
		t.Fatalf("NewService and OpenDurable started %d goroutines in package pghive", after-before)
	}
	if _, _, err := s.IngestIdempotent(context.Background(), "", stressGraph(t, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := durableIngest(d, stressGraph(t, 0, 3)); err != nil {
		t.Fatal(err)
	}
}

// TestOpenDurableRejectsCorruptCheckpoint: a checkpoint that cannot
// be parsed is a hard error (atomic writes mean no crash produces
// one), never a silent empty restart.
func TestOpenDurableRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, fmt.Sprintf("checkpoint-%020d.ckpt", 3))
	if err := os.WriteFile(path, []byte("{not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := pghive.OpenDurable(dir, pghive.Options{Seed: 1}, pghive.DurableOptions{NoSync: true, DisableAutoCompact: true}); err == nil {
		t.Fatal("OpenDurable accepted a corrupt checkpoint")
	}
}

// writeMemFile creates a file with the given contents on a MemFS
// (durably: the test junk must survive nothing, but must exist).
func writeMemFile(t *testing.T, mem *vfs.MemFS, path string, data []byte) {
	t.Helper()
	f, err := mem.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// memExists reports whether path exists on mem.
func memExists(t *testing.T, mem *vfs.MemFS, path string) bool {
	t.Helper()
	_, err := mem.Stat(path)
	return err == nil
}

// TestDurableGCSweep is the regression for the first
// checkpoint-lifecycle bug: the pre-fix code deleted only the
// immediately previous checkpoint and silently discarded the removal
// error, so a crash between rename and remove — or one failed
// remove — orphaned files forever. The sweep now garbage-collects
// every unreferenced checkpoint, run, manifest, and temp file at
// startup and after each compaction, surfaces removal failures in
// DurableStats, and retries them on the next sweep.
func TestDurableGCSweep(t *testing.T) {
	opts := pghive.Options{Seed: 5, Parallelism: 1}
	const dataDir = "data"
	g1, g2, g3 := stressGraph(t, 0, 6), stressGraph(t, 1000, 6), stressGraph(t, 2000, 6)
	dopts := func(fsys vfs.FS) pghive.DurableOptions {
		return pghive.DurableOptions{FS: fsys, NoSync: true, DisableAutoCompact: true}
	}

	// build produces a directory with one committed generation (a
	// delta run on the empty base) plus a WAL tail record, cleanly
	// closed.
	build := func(t *testing.T) *vfs.MemFS {
		t.Helper()
		mem := vfs.NewMemFS()
		d, err := pghive.OpenDurable(dataDir, opts, dopts(mem))
		if err != nil {
			t.Fatal(err)
		}
		if err := durableIngest(d, g1); err != nil {
			t.Fatal(err)
		}
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := durableIngest(d, g2); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return mem
	}
	// Stale residue no generation references: an ancient orphaned
	// image (the exact file class the pre-fix code leaked), an
	// uncommitted run, and an interrupted atomic-write temp file.
	junk := []string{
		filepath.Join(dataDir, fmt.Sprintf("checkpoint-%020d.ckpt", 7)),
		filepath.Join(dataDir, fmt.Sprintf("run-%020d-%020d.run", 7, 8)),
		filepath.Join(dataDir, "checkpoint-stale-1234.tmp"),
	}

	t.Run("startup sweep", func(t *testing.T) {
		mem := build(t)
		for _, p := range junk {
			writeMemFile(t, mem, p, []byte("stale junk\n"))
		}
		// A corrupt manifest with a HIGHER sequence than the live one:
		// recovery must skip it loudly, sweep it, and still never
		// allocate a generation number at or below it.
		corruptMan := filepath.Join(dataDir, fmt.Sprintf("manifest-%020d.mft", 9))
		writeMemFile(t, mem, corruptMan, []byte("not a manifest\n"))

		d, err := pghive.OpenDurable(dataDir, opts, dopts(mem))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		st := d.DurableStats()
		if st.RecoveryFallbacks != 1 {
			t.Errorf("RecoveryFallbacks = %d, want 1 (the corrupt manifest)", st.RecoveryFallbacks)
		}
		if st.GCFailures != 0 || st.LastGCError != "" {
			t.Errorf("healthy sweep reports failures: %d %q", st.GCFailures, st.LastGCError)
		}
		for _, p := range append(junk, corruptMan) {
			if memExists(t, mem, p) {
				t.Errorf("startup sweep left %s behind", p)
			}
		}
		// The live generation's files survive the sweep.
		if !memExists(t, mem, filepath.Join(dataDir, fmt.Sprintf("manifest-%020d.mft", 1))) ||
			!memExists(t, mem, filepath.Join(dataDir, fmt.Sprintf("run-%020d-%020d.run", 0, 1))) {
			t.Error("sweep removed the live generation's files")
		}
		if err := durableIngest(d, g3); err != nil {
			t.Fatal(err)
		}
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		if got := d.DurableStats().ManifestSeq; got != 10 {
			t.Errorf("generation after sweeping a corrupt seq-9 manifest = %d, want 10 (corrupt files floor the allocator)", got)
		}
	})

	t.Run("remove failures surfaced and retried", func(t *testing.T) {
		mem := build(t)
		for _, p := range junk {
			writeMemFile(t, mem, p, []byte("stale junk\n"))
		}
		// Every removal the startup sweep attempts fails — the disk
		// refuses deletes. Pre-fix this was silent; now it must be
		// counted, reported, and retried.
		plan := vfs.NewPlan(
			vfs.Fault{Op: vfs.OpRemove, N: 1, Mode: vfs.FailEarly},
			vfs.Fault{Op: vfs.OpRemove, N: 2, Mode: vfs.FailEarly},
			vfs.Fault{Op: vfs.OpRemove, N: 3, Mode: vfs.FailEarly},
		)
		d, err := pghive.OpenDurable(dataDir, opts, dopts(vfs.NewInjectFS(mem, plan)))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		st := d.DurableStats()
		if st.GCFailures != int64(len(junk)) {
			t.Errorf("GCFailures = %d, want %d", st.GCFailures, len(junk))
		}
		if st.LastGCError == "" {
			t.Error("removal failures left LastGCError empty")
		}
		for _, p := range junk {
			if !memExists(t, mem, p) {
				t.Errorf("%s vanished although its removal failed", p)
			}
		}
		// The next sweep — here via an explicit compaction round —
		// retries the same files and succeeds once the faults are
		// spent.
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		for _, p := range junk {
			if memExists(t, mem, p) {
				t.Errorf("retry sweep left %s behind", p)
			}
		}
		if got := d.DurableStats().GCFailures; got != int64(len(junk)) {
			t.Errorf("GCFailures after successful retry = %d, want %d (cumulative counter)", got, len(junk))
		}
	})
}

// damageFixture is the directory the damage table starts from. With
// MaxRuns 1, compaction 1 writes a run on the empty base (generation 1),
// compaction 2 folds into a base image (generation 2) and compaction 3
// puts a run on that base (generation 3, covering LSN 3, WAL floor 2).
// The last three ingests stay in the WAL, one record per segment:
// wal/ holds the segments of LSNs 3, 4, 5 and 6.
type damageFixture struct {
	opts  pghive.Options
	dopts pghive.DurableOptions
	// dir is the closed directory; foldSnap is a copy taken right after
	// the fold (generations 1 and 2, LSNs 1-2).
	dir, foldSnap string
	// refs[i] is the acked state after i+1 ingests.
	refs [][]byte
}

func newDamageFixture(t *testing.T) *damageFixture {
	t.Helper()
	fx := &damageFixture{
		opts: pghive.Options{Seed: 5, Parallelism: 1},
		dopts: pghive.DurableOptions{
			NoSync: true, DisableAutoCompact: true, SegmentBytes: 256,
			MaxRuns: 1, MaxTombstoneRatio: 1e9,
		},
		dir: t.TempDir(), foldSnap: t.TempDir(),
	}
	refSvc := pghive.NewService(fx.opts)
	d, err := pghive.OpenDurable(fx.dir, fx.opts, fx.dopts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		g := stressGraph(t, pghive.ID(1000*i), 6)
		refSvc.Ingest(g)
		fx.refs = append(fx.refs, serviceImage(t, refSvc))
		if err := durableIngest(d, g); err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			if err := d.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if i == 1 {
			copyTree(t, fx.dir, fx.foldSnap)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	var firsts []string
	for _, seg := range walSegments(t, fx.dir) {
		firsts = append(firsts, filepath.Base(seg))
	}
	if want := []string{wal.SegmentName(3), wal.SegmentName(4), wal.SegmentName(5), wal.SegmentName(6)}; fmt.Sprint(firsts) != fmt.Sprint(want) {
		t.Fatalf("fixture WAL holds %v, want %v", firsts, want)
	}
	return fx
}

// damaged returns a copy of the directory tc starts from, damaged.
func (fx *damageFixture) damaged(t *testing.T, tc damageCase) string {
	t.Helper()
	src := fx.dir
	if tc.fold {
		src = fx.foldSnap
	}
	cp := t.TempDir()
	copyTree(t, src, cp)
	tc.damage(t, cp)
	return cp
}

// damageCase is one row of the damage table: a directory the fixture
// left, damaged the way a crash on a lying disk or a hostile copy
// leaves it.
type damageCase struct {
	// name names the row; recovery's subtest appends then, what
	// recovery does about it.
	name, then string
	// fold damages the fold snapshot instead of the final directory.
	fold   bool
	damage func(t *testing.T, dir string)
	// recovers is how many ingests the recovered state holds; zero
	// means recovery refuses the directory.
	recovers int
	// fallbacks is the least number of generations recovery skips.
	fallbacks int
	// nextSeq, when set, is the generation the first compaction after
	// recovery writes.
	nextSeq uint64
}

// damageCases is the one damage table: TestDurableRecoveryGenerationFallback
// holds recovery to each row's outcome, and
// TestFollowerBootstrapMatchesRecoveryFallback holds a follower reading
// the same damaged directory to recovery's result.
func damageCases() []damageCase {
	manifest, seg := runfile.ManifestName, wal.SegmentName
	base2, run23 := runfile.BaseName(2), runfile.RunName(2, 3)
	path := func(dir, name string) string {
		if strings.HasSuffix(name, ".wal") {
			return filepath.Join(dir, "wal", name)
		}
		return filepath.Join(dir, name)
	}
	truncate := func(n int64, names ...string) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			for _, name := range names {
				if err := os.Truncate(path(dir, name), n); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	remove := func(names ...string) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			for _, name := range names {
				if err := os.Remove(path(dir, name)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	read := func(t *testing.T, dir, name string) []byte {
		data, err := os.ReadFile(path(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	write := func(t *testing.T, dir, name string, data []byte) {
		if err := os.WriteFile(path(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flipLastByte := func(name string) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			data := read(t, dir, name)
			data[len(data)-1] ^= 0xFF
			write(t, dir, name, data)
		}
	}
	return []damageCase{
		{name: "zero-byte newest manifest", damage: truncate(0, manifest(3)), recovers: 6, fallbacks: 1},
		{name: "truncated newest manifest", damage: truncate(40, manifest(3)), recovers: 6, fallbacks: 1},
		{name: "bit-flipped newest run", damage: flipLastByte(run23), recovers: 6, fallbacks: 1},
		{name: "missing newest run", damage: remove(run23), recovers: 6, fallbacks: 1},
		// Generation 2's freshly written base image is torn; generation 1
		// (empty base + first run) plus the retained WAL recovers LSNs 1-2.
		{name: "zero-byte fold base", then: "falls back to pre-fold generation", fold: true,
			damage: truncate(0, base2), recovers: 2, fallbacks: 1},
		// Both manifest generations torn: the base image itself is a
		// generation, and the WAL floor retained everything above it.
		{name: "all manifests corrupt", then: "falls back to the bare image",
			damage: truncate(0, manifest(2), manifest(3)), recovers: 6, fallbacks: 2, nextSeq: 4},
		{name: "no generation recovers", then: "fails loudly", damage: func(t *testing.T, dir string) {
			truncate(0, manifest(2), manifest(3))(t, dir)
			remove(base2)(t, dir)
		}},
		// The torn record is the crash's; the records before it recover.
		{name: "torn final segment", damage: func(t *testing.T, dir string) {
			data := read(t, dir, seg(6))
			write(t, dir, seg(6), data[:len(data)-3])
		}, recovers: 5},
		// A lost record with records after it is damage no crash leaves:
		// every generation's tail crosses the gap, so nothing recovers.
		{name: "bit flip in a middle segment", damage: flipLastByte(seg(5))},
		{name: "deleted middle segment", damage: remove(seg(5))},
		// Segment 5 starts with a second copy of record 4.
		{name: "a segment that repeats an LSN", damage: func(t *testing.T, dir string) {
			write(t, dir, seg(5), append(read(t, dir, seg(4)), read(t, dir, seg(5))[len("PGHWAL1\n"):]...))
		}},
		// Nothing above the covered LSN is left: the newest generation
		// is all the directory says was written.
		{name: "every segment above the covered LSN pruned", damage: remove(seg(4), seg(5), seg(6)), recovers: 3},
		// Every remaining segment starts above what each generation
		// needs next.
		{name: "WAL pruned past the covered LSN", damage: remove(seg(3), seg(4))},
	}
}

// TestDurableRecoveryGenerationFallback is the regression for the
// second checkpoint-lifecycle bug: recovery must not trust the newest
// generation's files just because they exist under the right names. A
// zero-byte, truncated, or bit-flipped newest manifest, run, or base
// image — what a crash on a lying disk leaves despite WriteFileAtomic
// — falls back LOUDLY to the previous consistent generation, whose
// WAL records were deliberately retained, and recovers the identical
// state, counting the skip in DurableStats.RecoveryFallbacks. The WAL
// rows hold the tail to the reader's rules: a torn final record is
// dropped, a duplicate or a gap is refused. Where no generation
// survives, recovery fails with an error, never a silent restart.
func TestDurableRecoveryGenerationFallback(t *testing.T) {
	fx := newDamageFixture(t)
	for _, tc := range damageCases() {
		t.Run(strings.TrimSpace(tc.name+" "+tc.then), func(t *testing.T) {
			rec, err := pghive.OpenDurable(fx.damaged(t, tc), fx.opts, fx.dopts)
			if tc.recovers == 0 {
				if err == nil {
					rec.Close()
					t.Fatal("recovery from a directory with no consistent generation silently succeeded")
				}
				return
			}
			if err != nil {
				t.Fatalf("fallback recovery failed: %v", err)
			}
			defer rec.Close()
			if got := serviceImage(t, rec); !bytes.Equal(got, fx.refs[tc.recovers-1]) {
				t.Fatal("fallback recovery diverges from the acked state")
			}
			st := rec.DurableStats()
			if st.RecoveryFallbacks < tc.fallbacks {
				t.Fatalf("RecoveryFallbacks = %d, want >= %d", st.RecoveryFallbacks, tc.fallbacks)
			}
			if st.ReadOnly {
				t.Fatal("fallback recovery came back read-only")
			}
			if tc.nextSeq == 0 {
				return
			}
			// The next compaction must allocate a generation above every
			// corrupt manifest recovery skipped.
			if err := rec.Compact(); err != nil {
				t.Fatal(err)
			}
			if got := rec.DurableStats().ManifestSeq; got != tc.nextSeq {
				t.Fatalf("generation after fallback compaction = %d, want %d", got, tc.nextSeq)
			}
		})
	}
}

// openRecorder is a filesystem that records the path of every open, in
// the order an InjectFS counts them (OpOpen: OpenFile and CreateTemp).
type openRecorder struct {
	vfs.FS
	paths []string
}

func (o *openRecorder) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	o.paths = append(o.paths, name)
	return o.FS.OpenFile(name, flag, perm)
}

func (o *openRecorder) CreateTemp(dir, pattern string) (vfs.File, error) {
	o.paths = append(o.paths, dir)
	return o.FS.CreateTemp(dir, pattern)
}

// TestUnreadableWALSegmentFailsRecovery: the newest generation's WAL
// tail starts in a segment that is present but cannot be read — an open
// fault, not damage. That says nothing about the generation, so recovery
// fails, the way an unreadable checkpoint object fails it, instead of
// skipping to the older generation (whose tail reads the segment again
// and would recover). Once the disk answers, the same directory recovers
// with no fallback.
func TestUnreadableWALSegmentFailsRecovery(t *testing.T) {
	fx := newDamageFixture(t)
	// Generation 3 covers LSN 3, so its tail is segments 4, 5 and 6; the
	// newest, 6, is the only one the log itself opens.
	seg := filepath.Join("wal", wal.SegmentName(4))

	probe := t.TempDir()
	copyTree(t, fx.dir, probe)
	rec := &openRecorder{FS: vfs.OrOS(nil)}
	dopts := fx.dopts
	dopts.FS = rec
	d, err := pghive.OpenDurable(probe, fx.opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	n := slices.Index(rec.paths, filepath.Join(probe, seg)) + 1
	if n == 0 {
		t.Fatalf("recovery never opened %s (opens: %v)", seg, rec.paths)
	}

	dir := t.TempDir()
	copyTree(t, fx.dir, dir)
	plan := vfs.NewPlan(vfs.Fault{Op: vfs.OpOpen, N: n})
	dopts.FS = vfs.NewInjectFS(vfs.OrOS(nil), plan)
	if d, err := pghive.OpenDurable(dir, fx.opts, dopts); err == nil {
		st := d.DurableStats()
		d.Close()
		t.Fatalf("recovery past an unreadable %s succeeded, skipping %d generations", seg, st.RecoveryFallbacks)
	} else if !errors.Is(err, vfs.ErrInjected) || !strings.Contains(err.Error(), wal.SegmentName(4)) {
		t.Fatalf("recovery error %v, want the injected open of %s", err, seg)
	}
	if len(plan.Fired()) != 1 {
		t.Fatal("the open fault never fired")
	}

	dopts.FS = nil
	d, err = pghive.OpenDurable(dir, fx.opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := serviceImage(t, d); !bytes.Equal(got, fx.refs[5]) {
		t.Fatal("recovery once the segment reads diverges from the acked state")
	}
	if st := d.DurableStats(); st.RecoveryFallbacks != 0 {
		t.Fatalf("RecoveryFallbacks = %d after the failed open, want 0", st.RecoveryFallbacks)
	}
}

// TestDurableCompactionFaultCrashPoints drives an injected fault into
// every write-path operation of one compaction round — the run or
// base-image write, the manifest swap, the GC sweep, the WAL prune,
// and all their syncs and renames — in every failure mode (short
// write, fail-before, lying fail-after), then crashes the filesystem
// and recovers fault-free. A compaction changes no logical state, so
// the property is absolute: recovery lands on exactly the acked
// state, healthy, no matter where inside the round the disk lied.
func TestDurableCompactionFaultCrashPoints(t *testing.T) {
	opts := pghive.Options{Seed: 11, Parallelism: 1}
	const dataDir = "data"
	graphs := []*pghive.Graph{
		stressGraph(t, 0, 5), stressGraph(t, 1000, 5),
		stressGraph(t, 2000, 5), stressGraph(t, 3000, 5),
	}
	refSvc := pghive.NewService(opts)
	for _, g := range graphs {
		refSvc.Ingest(g)
	}
	refImg := serviceImage(t, refSvc)

	// Two flavors of faulted round: with MaxRuns 1 the prior chain
	// (one run) forces a FOLD — base-image write + manifest swap; with
	// MaxRuns high the round writes a delta RUN + manifest swap.
	for _, tc := range []struct {
		name    string
		maxRuns int
	}{{"fold", 1}, {"run", 100}} {
		t.Run(tc.name, func(t *testing.T) {
			dopts := func(fsys vfs.FS) pghive.DurableOptions {
				return pghive.DurableOptions{
					FS: fsys, DisableAutoCompact: true, SegmentBytes: 2048,
					MaxRuns: tc.maxRuns, MaxTombstoneRatio: 1e9,
				}
			}
			// buildPrefix acks all four graphs with one mid-script
			// compaction (so a prior generation exists) and closes
			// cleanly — everything acked is synced and crash-durable.
			buildPrefix := func(t *testing.T) *vfs.MemFS {
				t.Helper()
				mem := vfs.NewMemFS()
				d, err := pghive.OpenDurable(dataDir, opts, dopts(mem))
				if err != nil {
					t.Fatal(err)
				}
				for i, g := range graphs {
					if err := durableIngest(d, g); err != nil {
						t.Fatal(err)
					}
					if i == 1 {
						if err := d.Compact(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				return mem
			}

			// Probe run: count the operations of reopen alone, then of
			// reopen + one compaction — faults target the difference,
			// i.e. positions inside the compaction round.
			probeOpen := vfs.NewPlan()
			mem := buildPrefix(t)
			d, err := pghive.OpenDurable(dataDir, opts, dopts(vfs.NewInjectFS(mem, probeOpen)))
			if err != nil {
				t.Fatal(err)
			}
			opsOpen := probeOpen.Ops()
			if err := d.Compact(); err != nil {
				t.Fatal(err)
			}
			opsTotal := probeOpen.Ops()
			d.Close()

			for _, op := range []vfs.Op{vfs.OpOpen, vfs.OpWrite, vfs.OpSync, vfs.OpSyncDir, vfs.OpRename, vfs.OpRemove} {
				if opsTotal[op] == opsOpen[op] {
					continue // the round performs no operation of this kind
				}
				modes := []vfs.Mode{vfs.FailEarly, vfs.FailLate}
				if op == vfs.OpWrite {
					modes = append(modes, vfs.ShortWrite)
				}
				for n := opsOpen[op] + 1; n <= opsTotal[op]; n++ {
					for _, mode := range modes {
						fault := vfs.Fault{Op: op, N: n, Mode: mode}
						mem := buildPrefix(t)
						plan := vfs.NewPlan(fault)
						d, err := pghive.OpenDurable(dataDir, opts, dopts(vfs.NewInjectFS(mem, plan)))
						if err != nil {
							t.Fatalf("%v: reopen before the faulted round failed: %v", fault, err)
						}
						// The faulted round: may fail, may "succeed" on
						// a lying disk — either way no logical change.
						_ = d.Compact()
						if len(plan.Fired()) == 0 {
							t.Fatalf("%v: fault never fired — probe counts drifted", fault)
						}
						mem.Crash()
						rec, err := pghive.OpenDurable(dataDir, opts, dopts(mem))
						if err != nil {
							t.Fatalf("%v: recovery after faulted compaction + crash failed: %v", fault, err)
						}
						img := serviceImage(t, rec)
						st := rec.DurableStats()
						rec.Close()
						if !bytes.Equal(img, refImg) {
							t.Fatalf("%v: recovery diverges from the acked state", fault)
						}
						if st.ReadOnly || st.WALBroken {
							t.Fatalf("%v: recovery on a healthy disk came back degraded: %+v", fault, st)
						}
					}
				}
			}
		})
	}
}

// TestOpenDurableRejectsUnknownRecordType: a WAL record whose type
// the replayer does not know must fail recovery loudly.
func TestOpenDurableRejectsUnknownRecordType(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(99, []byte(`{"kind":"node","id":1}`+"\n")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pghive.OpenDurable(dir, pghive.Options{Seed: 1}, pghive.DurableOptions{NoSync: true, DisableAutoCompact: true}); err == nil {
		t.Fatal("OpenDurable accepted an unknown WAL record type")
	}
}

// versionOne re-spells a base image or run payload of the current
// format the way version 1 wrote it: element assignments, resolver
// entries and tombstones one JSON record per element. The degree
// tallies keep their current place and spelling; a version-1 document
// is refused by its version before they are read.
func versionOne(t *testing.T, doc []byte) []byte {
	t.Helper()
	var m map[string]any
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	type entry struct {
		id  int64
		val any
	}
	ungap := func(v any) []int64 {
		var ids []int64
		for i, n := range v.([]any) {
			id, err := n.(json.Number).Int64()
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				id += ids[i-1]
			}
			ids = append(ids, id)
		}
		return ids
	}
	ungroup := func(v any, valKey string) []entry {
		var out []entry
		for _, g := range v.([]any) {
			g := g.(map[string]any)
			for _, id := range ungap(g["ids"]) {
				out = append(out, entry{id, g[valKey]})
			}
		}
		slices.SortFunc(out, func(a, b entry) int { return cmp.Compare(a.id, b.id) })
		return out
	}
	decimal := func(id int64) string { return strconv.FormatInt(id, 10) }
	object := func(v any, valKey string) map[string]any {
		obj := map[string]any{}
		for _, e := range ungroup(v, valKey) {
			obj[decimal(e.id)] = e.val
		}
		return obj
	}

	_, isRun := m["fromLSN"]
	m["version"] = 1
	for _, k := range []string{"nodeAssign", "edgeAssign"} {
		switch v, ok := m[k]; {
		case !ok:
		case isRun:
			var list []any
			for _, e := range ungroup(v, "v") {
				list = append(list, map[string]any{"id": e.id, "type": e.val})
			}
			m[k] = list
		default:
			m[k] = object(v, "v")
		}
	}
	for _, k := range []string{"nodeUnassign", "edgeUnassign", "resolverDel"} {
		if v, ok := m[k]; ok {
			m[k] = ungap(v)
		}
	}
	for _, k := range []string{"resolver", "resolverPut"} {
		if v, ok := m[k]; ok {
			var list []any
			for _, e := range ungroup(v, "labels") {
				rec := map[string]any{"id": e.id}
				if e.val != nil {
					rec["labels"] = e.val
				}
				list = append(list, rec)
			}
			m[k] = list
		}
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// layoutWithRun builds a data directory whose newest generation is a
// base image and one run (MaxRuns 1: every second round folds), closes
// it, and returns its stats and the live image.
func layoutWithRun(t *testing.T, opts pghive.Options, dopts pghive.DurableOptions) (string, pghive.DurableStats, []byte) {
	t.Helper()
	dir := t.TempDir()
	d, err := pghive.OpenDurable(dir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := durableIngest(d, stressGraph(t, pghive.ID(i*100), 40)); err != nil {
			t.Fatal(err)
		}
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	st := d.DurableStats()
	if st.BaseLSN == 0 || st.Runs != 1 {
		t.Fatalf("generation has base LSN %d and %d runs, want a base and 1 run", st.BaseLSN, st.Runs)
	}
	live := serviceImage(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, st, live
}

// rewriteLayout replaces the payload of the generation's run with what
// run makes of it, reframing the manifest around the run's new CRC,
// and returns the manifest.
func rewriteLayout(t *testing.T, dir string, st pghive.DurableStats, run func([]byte) []byte) *runfile.Manifest {
	t.Helper()
	manName := runfile.ManifestName(st.ManifestSeq)
	raw, err := os.ReadFile(filepath.Join(dir, manName))
	if err != nil {
		t.Fatal(err)
	}
	man, err := runfile.ParseManifest(manName, raw)
	if err != nil {
		t.Fatal(err)
	}
	ri := man.Runs[0]
	raw, err = os.ReadFile(filepath.Join(dir, ri.Name))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := runfile.ParseRun(ri, raw)
	if err != nil {
		t.Fatal(err)
	}
	if man.Runs[0], err = runfile.WriteRun(nil, dir, ri.From, ri.To, ri.Tombstones, run(payload)); err != nil {
		t.Fatal(err)
	}
	if raw, err = runfile.EncodeManifest(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return man
}

// bootstrapRefused puts the objects of a generation whose base the
// leader refuses where a follower bootstraps from, and checks that the
// follower refuses them the same way and stays unready: it does not
// serve an empty state in place of the leader's.
func bootstrapRefused(t *testing.T, opts pghive.Options, dir string, man *runfile.Manifest, want string) {
	t.Helper()
	ctx := context.Background()
	backend := store.NewDir(vfs.NewMemFS(), "/backend")
	var names []string
	for name := range man.Files() {
		names = append(names, name)
	}
	names = append(names, runfile.ManifestName(man.Seq)) // manifest last
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Put(ctx, name, data); err != nil {
			t.Fatal(err)
		}
	}
	f := pghive.NewFollower(opts, backend, pghive.FollowerOptions{})
	defer f.Close()
	if err := f.Bootstrap(ctx); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("follower bootstrap: %v, want an error naming %q", err, want)
	}
	if err := f.TailOnce(ctx); err == nil {
		t.Fatal("a follower tailed on top of a refused bootstrap")
	}
	if lag := f.Lag(ctx); lag.Ready || !strings.Contains(lag.LastFault, want) {
		t.Fatalf("follower after a refused bootstrap: %+v", lag)
	}
}

// TestGenerationOneLayoutRefused: the on-disk format is generation 3,
// and version 1 is refused by its version, never read. A data
// directory whose base image and run are version 1 does not open, and
// the error names the version. A follower bootstrapping from the same
// objects fails the same way and stays unready.
func TestGenerationOneLayoutRefused(t *testing.T) {
	opts := pghive.Options{Seed: 1, Parallelism: 1}
	dopts := pghive.DurableOptions{NoSync: true, DisableAutoCompact: true, MaxRuns: 1}
	dir, st, live := layoutWithRun(t, opts, dopts)

	// Rewrite the base image and the run as version 1 wrote them.
	man := rewriteLayout(t, dir, st, func(payload []byte) []byte { return versionOne(t, payload) })
	basePath := baseImagePath(dir, st)
	base, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, versionOne(t, base), 0o644); err != nil {
		t.Fatal(err)
	}
	// The previous generation shares the base, so no generation recovers.
	if _, err := pghive.OpenDurable(dir, opts, dopts); err == nil || !strings.Contains(err.Error(), "checkpoint version 1 is not supported") {
		t.Fatalf("OpenDurable over a version-1 base: %v", err)
	}
	bootstrapRefused(t, opts, dir, man, "checkpoint version 1 is not supported")

	// Under a current base, the version-1 run alone is refused: recovery
	// skips its generation, as it skips a torn one, and reaches the live
	// state from the previous generation and the WAL it retained.
	if err := os.WriteFile(basePath, base, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := pghive.OpenDurable(dir, opts, dopts)
	if err != nil {
		t.Fatalf("OpenDurable over a version-1 run: %v", err)
	}
	defer d.Close()
	if fb := d.DurableStats().RecoveryFallbacks; fb != 1 {
		t.Fatalf("recovery skipped %d generations, want the version-1 run's", fb)
	}
	if !bytes.Equal(serviceImage(t, d), live) {
		t.Fatal("recovery past the version-1 run differs from the live service")
	}
}

// TestGenerationTwoLayoutRefused: generation 2 kept the degree tallies
// inside the schema and carried them in runs as a structural schema
// patch. Its image and run (the core goldens of that generation, kept
// as fixtures) are refused the way version 1 is: a data directory
// holding them does not open, the error names version 2, and a
// follower bootstrapping from them stays unready. A generation-2 run
// under a current base is skipped like a torn one.
func TestGenerationTwoLayoutRefused(t *testing.T) {
	fixture := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("internal", "core", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	opts := pghive.Options{Seed: 1, Parallelism: 1}
	dopts := pghive.DurableOptions{NoSync: true, DisableAutoCompact: true, MaxRuns: 1}
	dir, st, live := layoutWithRun(t, opts, dopts)

	man := rewriteLayout(t, dir, st, func([]byte) []byte { return fixture("delta.gen2.json") })
	basePath := baseImagePath(dir, st)
	base, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, fixture("image.gen2.json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := pghive.OpenDurable(dir, opts, dopts); err == nil || !strings.Contains(err.Error(), "checkpoint version 2 is not supported") {
		t.Fatalf("OpenDurable over a version-2 base: %v", err)
	}
	bootstrapRefused(t, opts, dir, man, "checkpoint version 2 is not supported")

	if err := os.WriteFile(basePath, base, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := pghive.OpenDurable(dir, opts, dopts)
	if err != nil {
		t.Fatalf("OpenDurable over a version-2 run: %v", err)
	}
	defer d.Close()
	if fb := d.DurableStats().RecoveryFallbacks; fb != 1 {
		t.Fatalf("recovery skipped %d generations, want the version-2 run's", fb)
	}
	if !bytes.Equal(serviceImage(t, d), live) {
		t.Fatal("recovery past the version-2 run differs from the live service")
	}
}
