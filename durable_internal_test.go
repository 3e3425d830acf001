package pghive

// White-box proof that compaction cannot stall the write path: the
// compactor is parked indefinitely at the start of its off-lock phase
// (via the test hook, which runs while compactMu is held, after the
// round's delta is lifted and before anything is encoded, written,
// fsynced or shipped) and writers must still complete ingests,
// retractions, and reads. This is deterministic — no timing heuristics anywhere: the
// writes run inline, so if the compactor held any lock they need the
// test deadlocks on the spot (and the go test timeout dumps every
// goroutine), and the park itself is verified by a non-blocking read
// of the compactor's completion channel, not by sleeping. CI load
// can slow this test down but can never flip its verdict.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
	"github.com/pghive/pghive/internal/wal"
)

func internalStressGraph(t *testing.T, base ID, n int) *Graph {
	t.Helper()
	g := NewGraph()
	for i := 0; i < n; i++ {
		if err := g.PutNode(base+ID(i), []string{"Blocked"}, map[string]Value{"k": Int(int64(i))}); err != nil {
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
		if _, err := d.Ingest(internalStressGraph(t, ID(100*i), 8)); err != nil {
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
		if _, err := d.Ingest(g); err != nil {
			t.Fatalf("ingest during compaction: %v", err)
		}
		if i == 5 {
			if _, err := d.Retract(g); err != nil {
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

// TestStreamRecordTypeRefused: WAL record type 3 is retired. A log or
// shipped segment that still carries one must stop both replay paths —
// local recovery and a follower's tail — with the unknown-type error;
// neither may skip the record and apply the valid ingest logged after
// it.
func TestStreamRecordTypeRefused(t *testing.T) {
	const retiredStreamType byte = 3
	opts := Options{Seed: 1, Parallelism: 1}
	g := internalStressGraph(t, 0, 8)
	payload, err := encodeWALRecordPayload(walRecIngest, "", g)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	lg, err := wal.Open(filepath.Join(dir, wal.Prefix), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []byte{retiredStreamType, walRecIngest} {
		if _, err := lg.Append(typ, payload); err != nil {
			t.Fatal(err)
		}
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
	const want = "wal record 1 has unknown type 3"

	d, err := OpenDurable(dir, opts, DurableOptions{NoSync: true, DisableAutoCompact: true})
	if err == nil {
		d.Close()
		t.Fatal("recovery replayed past a type-3 record")
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
		t.Fatalf("tail over a type-3 record: error %v, want it to contain %q", err, want)
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
