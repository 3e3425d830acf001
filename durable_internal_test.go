package pghive

// White-box proof that compaction cannot stall the write path: the
// compactor is parked indefinitely at the start of its off-lock phase
// (via the test hook, which runs while compactMu is held, after the
// round's state is captured and before anything is diffed, written,
// fsynced or shipped) and writers must still complete ingests,
// retractions, and reads. This is deterministic — no timing heuristics anywhere: the
// writes run inline, so if the compactor held any lock they need the
// test deadlocks on the spot (and the go test timeout dumps every
// goroutine), and the park itself is verified by a non-blocking read
// of the compactor's completion channel, not by sleeping. CI load
// can slow this test down but can never flip its verdict.

import (
	"bytes"
	"compress/flate"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/pghive/pghive/internal/datagen"
	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
	"github.com/pghive/pghive/internal/wal"
)

func internalStressGraph(t testing.TB, base ID, n int) *Graph {
	t.Helper()
	g := NewGraph()
	for i := 0; i < n; i++ {
		if err := g.PutNode(base+ID(i), []string{"Blocked"}, PropsOf(map[string]Value{"k": Int(int64(i))})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n-1; i++ {
		if err := g.PutEdge(base+ID(i), []string{"NEXT"}, base+ID(i), base+ID(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestCompactorNeverBlocksWriters(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, Options{Seed: 1, Parallelism: 1}, DurableOptions{
		NoSync:             true,
		DisableAutoCompact: true,
		SegmentBytes:       1, // every record seals its own segment
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 3; i++ {
		if _, _, err := d.IngestIdempotent(context.Background(), "", internalStressGraph(t, ID(100*i), 8)); err != nil {
			t.Fatal(err)
		}
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	d.compactTestHook = func() {
		close(entered)
		<-release
	}
	compactDone := make(chan error, 1)
	go func() { compactDone <- d.Compact() }()
	<-entered

	// The compactor is frozen mid-fold. Every service operation runs
	// inline on this goroutine: if the fold held any lock the write
	// or read path needs, the next call would block here forever and
	// the test binary's own timeout would fail the run with full
	// stack traces — no watchdog to misfire under CI load.
	for i := 3; i < 8; i++ {
		g := internalStressGraph(t, ID(100*i), 8)
		if _, _, err := d.IngestIdempotent(context.Background(), "", g); err != nil {
			t.Fatalf("ingest during compaction: %v", err)
		}
		if i == 5 {
			if _, _, err := d.RetractIdempotent(context.Background(), "", g); err != nil {
				t.Fatalf("retract during compaction: %v", err)
			}
		}
		_ = d.Stats()
		_ = d.Schema()
	}

	// Every operation completed while the compactor was provably
	// still parked: the hook cannot return before release is closed,
	// so a finished Compact here would mean the sync point is broken.
	select {
	case err := <-compactDone:
		t.Fatalf("compactor finished while parked (err=%v) — sync point broken", err)
	default:
	}

	close(release)
	if err := <-compactDone; err != nil {
		t.Fatalf("compaction: %v", err)
	}
	if got := d.CheckpointLSN(); got == 0 {
		t.Fatal("compaction produced no checkpoint")
	}

	// The writes that landed while the compactor was parked are
	// durable: close and recover, states identical.
	var live bytes.Buffer
	if err := d.WriteCheckpoint(&live); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDurable(dir, Options{Seed: 1, Parallelism: 1}, DurableOptions{NoSync: true, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	var recovered bytes.Buffer
	if err := rec.WriteCheckpoint(&recovered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), recovered.Bytes()) {
		t.Fatal("state written during compaction did not survive recovery")
	}
}

// refusedByBothReplays logs a record of type typ carrying payload, then
// a valid ingest, into a fresh data directory, and requires both replay
// paths — local recovery and a follower's tail over the same segment as
// a shipped object — to stop at record 1 with an error containing want.
// Neither may skip the record and apply the valid ingest logged after
// it.
func refusedByBothReplays(t *testing.T, typ byte, payload []byte, want string) {
	t.Helper()
	opts := Options{Seed: 1, Parallelism: 1}
	valid, err := encodeWALRecordPayload("", internalStressGraph(t, 0, 8))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	lg, err := wal.Open(filepath.Join(dir, wal.Prefix), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append(typ, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append(walRecIngest, valid); err != nil {
		t.Fatal(err)
	}
	if err := lg.Rotate(); err != nil {
		t.Fatal(err)
	}
	sealed := lg.Sealed()
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 1 {
		t.Fatalf("%d sealed segments, want 1", len(sealed))
	}

	d, err := OpenDurable(dir, opts, DurableOptions{NoSync: true, DisableAutoCompact: true})
	if err == nil {
		d.Close()
		t.Fatal("recovery replayed past a refused record")
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("recovery error %q, want it to contain %q", err, want)
	}

	// The same segment as a shipped object: no manifest, so the
	// follower bootstraps empty and tails from LSN 1.
	seg, err := os.ReadFile(sealed[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	backend := store.NewDir(vfs.NewMemFS(), "/backend")
	if err := backend.Put(ctx, wal.Prefix+filepath.Base(sealed[0].Path), seg); err != nil {
		t.Fatal(err)
	}
	f := NewFollower(opts, backend, FollowerOptions{})
	defer f.Close()
	err = f.TailOnce(ctx)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("tail over a refused record: error %v, want it to contain %q", err, want)
	}
	if f.AppliedLSN() != 0 {
		t.Fatalf("follower applied LSN %d past a refused record, want 0", f.AppliedLSN())
	}
	var empty, got bytes.Buffer
	if err := NewService(opts).WriteCheckpoint(&empty); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteCheckpoint(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), empty.Bytes()) {
		t.Fatal("follower state moved after refusing the first record")
	}
}

// TestStreamRecordTypeRefused: WAL record types 1–5 are retired — plain
// JSONL ingests and retractions (1, 2), the streamed batch (3) and the
// keyed variants (4, 5). A log or shipped segment that still carries
// one, in the payload spelling it had, must stop both replay paths with
// the unknown-type error.
func TestStreamRecordTypeRefused(t *testing.T) {
	var jsonl bytes.Buffer
	if err := WriteJSONL(&jsonl, internalStressGraph(t, 0, 8)); err != nil {
		t.Fatal(err)
	}
	keyed := append([]byte{3, 'k', 'e', 'y'}, jsonl.Bytes()...)
	for _, tc := range []struct {
		typ     byte
		payload []byte
	}{
		{1, jsonl.Bytes()},
		{2, jsonl.Bytes()},
		{3, jsonl.Bytes()},
		{4, keyed},
		{5, keyed},
	} {
		t.Run(fmt.Sprintf("type%d", tc.typ), func(t *testing.T) {
			refusedByBothReplays(t, tc.typ, tc.payload, fmt.Sprintf("wal record 1 has unknown type %d", tc.typ))
		})
	}
}

// TestHostileWALPayloadRefused: a CRC-valid record whose payload is not
// what the encoder writes stops both replay paths with the same error
// and applies nothing.
func TestHostileWALPayloadRefused(t *testing.T) {
	jsonl := func(g *Graph) []byte {
		var b bytes.Buffer
		if err := WriteJSONL(&b, g); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	batch := internalStressGraph(t, 0, 8)
	valid, err := encodeWALRecordPayload("key", batch)
	if err != nil {
		t.Fatal(err)
	}
	// One node whose property is a megabyte of one letter: BestSpeed
	// deflates it far past walInflateRatio.
	repetitive := NewGraph()
	if err := repetitive.PutNode(1, []string{"Blob"}, PropsOf(map[string]Value{"s": Str(strings.Repeat("a", 1<<20))})); err != nil {
		t.Fatal(err)
	}
	repetitiveJSONL := jsonl(repetitive)

	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"truncated key", []byte{5, 'k', 'e'}, "truncated idempotency key"},
		{"no key length", nil, "truncated idempotency key"},
		{"empty stream", []byte{0}, errWALNoFinalBlock.Error()},
		{"no final block", rawDeflate(t, jsonl(batch), flate.BestSpeed, false), errWALNoFinalBlock.Error()},
		{"bytes after the final block", append(bytes.Clone(valid), 0), errWALTrailing.Error()},
		{"inflation above the bound", rawDeflate(t, repetitiveJSONL, flate.BestSpeed, true), errWALInflation.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refusedByBothReplays(t, walRecIngest, tc.payload, "wal record 1: "+tc.want)
		})
	}

	// What the decoder refuses, the encoder never writes: it stores the
	// windows of the repetitive batch that would take it past the bound.
	payload, err := encodeWALRecordPayload("", repetitive)
	if err != nil {
		t.Fatal(err)
	}
	if limit := walInflateLimit(len(payload) - 1); int64(len(repetitiveJSONL)) > limit {
		t.Fatalf("the encoder wrote %d JSONL bytes in a %d-byte payload, past the decoder's bound of %d", len(repetitiveJSONL), len(payload), limit)
	}
	if _, g, err := decodeWALRecordPayload(payload); err != nil || g.NumNodes() != 1 {
		t.Fatalf("the repetitive batch does not decode: %v", err)
	}
}

// TestOverlongKeyRefusedBeforeAdmission: a malformed idempotency key is
// refused where the record is encoded, in the caller's goroutine before
// submit. With the write lock held, the write fails at once with the
// key error; it does not wait for the lock, or for its deadline to end
// the wait.
func TestOverlongKeyRefusedBeforeAdmission(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), Options{Seed: 1, Parallelism: 1}, DurableOptions{NoSync: true, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.w.mu.Lock()
	defer d.w.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	key := strings.Repeat("k", MaxIdempotencyKeyLen+1)
	_, _, err = d.IngestIdempotent(ctx, key, internalStressGraph(t, 0, 2))
	const want = "pghive: durable: idempotency key must be 1..255 bytes, got 256"
	if err == nil || err.Error() != want {
		t.Fatalf("overlong key: error %v, want %q", err, want)
	}
}

// lockedRoundAllocs runs one compaction round and returns what its
// stretch under the write lock — from the call to the start of the
// off-lock phase, where the test hook runs — allocates, in bytes and in
// objects.
func lockedRoundAllocs(t *testing.T, d *DurableService) (heap, objects uint64) {
	t.Helper()
	var ms runtime.MemStats
	d.compactTestHook = func() {
		runtime.ReadMemStats(&ms)
		heap, objects = ms.TotalAlloc-heap, ms.Mallocs-objects
	}
	defer func() { d.compactTestHook = nil }()
	runtime.ReadMemStats(&ms)
	heap, objects = ms.TotalAlloc, ms.Mallocs
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := d.DurableStats(); st.LastRound.Folded {
		t.Fatalf("measured round folded (%s), want a run", st.LastRound.FoldReason)
	}
	return heap, objects
}

// TestRoundLockHoldAllocsIgnoreChange: the stretch of a round that
// holds the write lock — seal the segment, capture the state — costs
// the same after 20 writes as after 2,000 on the same store. A round
// that built its change under the lock would allocate in proportion to
// the writes; one that captures shares every element-keyed column and
// copies only what is O(types) or O(shapes). Every write is one node
// and one edge into the base, of the base's shapes, with no key.
func TestRoundLockHoldAllocsIgnoreChange(t *testing.T) {
	d, err := OpenDurable(filepath.Join(t.TempDir(), "data"), Options{Seed: 9, Parallelism: 1}, DurableOptions{
		NoSync: true, DisableAutoCompact: true, MaxRuns: 1 << 30, MaxTombstoneRatio: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const baseNodes = 5_000
	for off := 0; off < baseNodes; off += 1_000 {
		if _, _, err := d.IngestIdempotent(context.Background(), "", internalStressGraph(t, ID(off), 1_000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	next := ID(1 << 24)
	write := func(n int) {
		for i := 0; i < n; i++ {
			g := NewGraph()
			g.AllowDanglingEdges(true)
			if err := g.PutNode(next, []string{"Blocked"}, PropsOf(map[string]Value{"k": Int(int64(i))})); err != nil {
				t.Fatal(err)
			}
			if err := g.PutEdge(next, []string{"NEXT"}, next, ID(i%baseNodes), nil); err != nil {
				t.Fatal(err)
			}
			next++
			if _, _, err := d.IngestIdempotent(context.Background(), "", g); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(20)
	smallB, smallM := lockedRoundAllocs(t, d)
	write(2_000)
	largeB, largeM := lockedRoundAllocs(t, d)
	t.Logf("locked stretch of a round: %d B in %d objects after 20 writes, %d B in %d objects after 2,000", smallB, smallM, largeB, largeM)
	if float64(largeB) > 1.5*float64(smallB) || float64(largeM) > 1.5*float64(smallM) {
		t.Fatalf("the locked stretch of a round follows the writes: %d B / %d objects after 20, %d B / %d after 2,000", smallB, smallM, largeB, largeM)
	}
}

// TestHeldBasePinsBytesPerEntry pins what a held compaction base costs
// per column entry. The store is LDBC scale 1, grown by 640 writes of
// ~50 elements whose IDs are those of a second LDBC graph shifted past
// the first and cut at random, as bench's ledger makes its growth
// writes, and compacted; 200 more such writes then touch leaves all
// over the growth range. Until the next round commits, the base keeps
// the old copy of every leaf they touched: the live heap with the base
// held, less the live heap once that round has made its capture the
// base, divided by the store's column entries (assignments, resolver,
// degree tallies). With every leaf's entries 12 bytes it pinned 10.4
// B per entry (1.23 MB); with narrow leaves of 6-byte entries, 6.5.
func TestHeldBasePinsBytesPerEntry(t *testing.T) {
	d, err := OpenDurable(filepath.Join(t.TempDir(), "data"), Options{Seed: 1, Parallelism: 1}, DurableOptions{
		NoSync: true, DisableAutoCompact: true, MaxRuns: 1 << 30, MaxTombstoneRatio: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ingest := func(g *Graph) {
		if _, _, err := d.IngestIdempotent(context.Background(), "", g); err != nil {
			t.Fatal(err)
		}
	}
	ingest(datagen.Generate(datagen.LDBC(), 1, 1).Graph)
	const growthOff = 10_000_000
	growth := datagen.Generate(datagen.LDBC(), 3, 2).Graph
	batches := make([]*Graph, (growth.NumNodes()+growth.NumEdges())/50)
	for i := range batches {
		batches[i] = NewGraph()
		batches[i].AllowDanglingEdges(true)
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range growth.Nodes() {
		if err := batches[rng.Intn(len(batches))].PutNode(n.ID+growthOff, n.Labels, n.Props); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range growth.Edges() {
		if err := batches[rng.Intn(len(batches))].PutEdge(e.ID+growthOff, e.Labels, e.Src+growthOff, e.Dst+growthOff, e.Props); err != nil {
			t.Fatal(err)
		}
	}
	if len(batches) < 840 {
		t.Fatalf("setup: %d growth batches, want 840", len(batches))
	}
	for _, g := range batches[:640] {
		ingest(g)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, g := range batches[640:840] {
		ingest(g)
	}
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	held := live()
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	pinned := held - live()
	img := d.base
	entries := img.NodeAssign.Len() + img.EdgeAssign.Len() + img.Resolver.Len()
	for _, tl := range img.Tallies {
		entries += tl.Src.Len() + tl.Dst.Len()
	}
	perEntry := float64(pinned) / float64(entries)
	t.Logf("a base held over 200 writes pins %d B: %.1f B per column entry of %d", pinned, perEntry, entries)
	if perEntry > 7.2 {
		t.Errorf("a held base pins %.1f B per column entry, want ≤ 7.2", perEntry)
	}
}
