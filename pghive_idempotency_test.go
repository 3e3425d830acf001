package pghive_test

// Exactly-once retry semantics. The scenario every test here circles:
// a client's /ingest is applied and WAL-logged, but the crash (or a
// dropped connection) eats the acknowledgment — so the client retries.
// Without idempotency keys the retry double-applies; with them the
// server recognizes the key (recovered from the WAL or checkpoint,
// not just process memory) and answers "replayed" without touching
// state. The first test is the regression pinning the BUG — an
// unkeyed retry double-applies — so the contract the keyed tests
// prove is visibly load-bearing, not vacuously true.

import (
	"context"
	"strings"
	"testing"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/vfs"
)

// counts compresses the stats a double-apply damages. Client-assigned
// node/edge IDs make a same-batch re-apply overwrite itself, but the
// batch count — the thing histcheck's conservation oracle audits
// against the script — double-counts, and any batch whose IDs are
// minted per request (the common append pattern) duplicates outright.
type counts struct{ Batches, Nodes, Edges int }

func countsOf(st pghive.ServiceStats) counts {
	return counts{Batches: st.Batches, Nodes: st.Nodes, Edges: st.Edges}
}

func openIdemService(t *testing.T, mem *vfs.MemFS, keyCap int) *pghive.DurableService {
	t.Helper()
	d, err := pghive.OpenDurable("data", pghive.Options{Seed: 3, Parallelism: 1},
		pghive.DurableOptions{FS: mem, DisableAutoCompact: true, MaxIdempotencyKeys: keyCap})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestUnkeyedRetryDoubleAppliesAfterCrash documents the failure mode
// idempotency keys exist to fix: the write was durable, the ack was
// lost, and the blind unkeyed retry doubles the batch.
func TestUnkeyedRetryDoubleAppliesAfterCrash(t *testing.T) {
	mem := vfs.NewMemFS()
	d := openIdemService(t, mem, 0)
	g := stressGraph(t, 0, 5)
	if err := durableIngest(d, g); err != nil {
		t.Fatal(err)
	}
	before := countsOf(d.Stats())

	mem.Crash() // the ack never reached the client
	d2 := openIdemService(t, mem, 0)
	defer d2.Close()
	if got := countsOf(d2.Stats()); got != before {
		t.Fatalf("recovery lost state: %+v, want %+v", got, before)
	}
	if err := durableIngest(d2, g); err != nil { // the client's blind retry
		t.Fatal(err)
	}
	got := countsOf(d2.Stats())
	if got.Batches != 2*before.Batches {
		t.Fatalf("expected the unkeyed retry to double-apply the batch (%d batches), got %+v — if this fails, the regression scenario no longer reproduces and the keyed tests prove nothing", 2*before.Batches, got)
	}
}

// TestKeyedRetryAppliesExactlyOnceAcrossCrash is the fix: the key
// rides inside the WAL record, so recovery rebuilds the applied-key
// set and the retry is recognized.
func TestKeyedRetryAppliesExactlyOnceAcrossCrash(t *testing.T) {
	mem := vfs.NewMemFS()
	d := openIdemService(t, mem, 0)
	g := stressGraph(t, 0, 5)
	const key = "req-42"
	first, replayed, err := d.IngestIdempotent(context.Background(), key, g)
	if err != nil {
		t.Fatal(err)
	}
	if replayed || first.LSN != 1 {
		t.Fatalf("first keyed write: replayed=%v LSN %d, want false/1", replayed, first.LSN)
	}
	want := countsOf(d.Stats())

	// Same-process retry first (the ack was lost to the network, not a
	// crash). Every replay states the first write's LSN.
	if bt, replayed, err := d.IngestIdempotent(context.Background(), key, g); err != nil || !replayed || bt.LSN != first.LSN {
		t.Fatalf("in-process retry: replayed=%v LSN %d err=%v, want true/%d/nil", replayed, bt.LSN, err, first.LSN)
	}

	mem.Crash()
	d2 := openIdemService(t, mem, 0)
	defer d2.Close()
	if bt, replayed, err := d2.IngestIdempotent(context.Background(), key, g); err != nil {
		t.Fatal(err)
	} else if !replayed || bt.LSN != first.LSN {
		t.Fatalf("post-crash retry of an applied key: replayed=%v LSN %d, want true/%d", replayed, bt.LSN, first.LSN)
	}
	if got := countsOf(d2.Stats()); got != want {
		t.Fatalf("post-crash retry changed state: %+v, want %+v", got, want)
	}

	// A fresh key still applies normally, at the next LSN.
	if bt, replayed, err := d2.IngestIdempotent(context.Background(), "req-43", stressGraph(t, 1000, 5)); err != nil || replayed || bt.LSN != first.LSN+1 {
		t.Fatalf("fresh key: replayed=%v LSN %d err=%v, want false/%d/nil", replayed, bt.LSN, err, first.LSN+1)
	}
	if got := countsOf(d2.Stats()); got.Batches != want.Batches+1 {
		t.Fatalf("fresh keyed write did not apply: %+v", got)
	}
}

// TestLongestKeySurvivesReplay: a key of MaxIdempotencyKeyLen bytes —
// its one-byte length prefix at 255 — decodes back out of the WAL
// record on recovery, and the retry is recognized.
func TestLongestKeySurvivesReplay(t *testing.T) {
	mem := vfs.NewMemFS()
	d := openIdemService(t, mem, 0)
	key := strings.Repeat("k", pghive.MaxIdempotencyKeyLen)
	g := stressGraph(t, 0, 5)
	if _, _, err := d.IngestIdempotent(context.Background(), key, g); err != nil {
		t.Fatal(err)
	}
	want := countsOf(d.Stats())

	mem.Crash()
	d2 := openIdemService(t, mem, 0)
	defer d2.Close()
	if _, replayed, err := d2.IngestIdempotent(context.Background(), key, g); err != nil || !replayed {
		t.Fatalf("retry of the longest key after recovery: replayed=%v err=%v, want true/nil", replayed, err)
	}
	if got := countsOf(d2.Stats()); got != want {
		t.Fatalf("replayed retry changed state: %+v, want %+v", got, want)
	}
}

// TestKeysSurviveCompaction: compaction folds the WAL away, so the
// keys must travel into the checkpoint image or a post-compaction
// crash would forget them.
func TestKeysSurviveCompaction(t *testing.T) {
	mem := vfs.NewMemFS()
	d := openIdemService(t, mem, 0)
	g := stressGraph(t, 0, 5)
	if _, _, err := d.IngestIdempotent(context.Background(), "k1", g); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	want := countsOf(d.Stats())

	mem.Crash()
	d2 := openIdemService(t, mem, 0)
	defer d2.Close()
	_, replayed, err := d2.IngestIdempotent(context.Background(), "k1", g)
	if err != nil {
		t.Fatal(err)
	}
	if !replayed {
		t.Fatal("key folded into the checkpoint was forgotten after compaction + crash")
	}
	if got := countsOf(d2.Stats()); got != want {
		t.Fatalf("replayed retry changed state: %+v, want %+v", got, want)
	}
}

// TestKeyRetentionIsBounded: the store forgets oldest-first past the
// cap — the documented trade a retry older than the window makes.
func TestKeyRetentionIsBounded(t *testing.T) {
	mem := vfs.NewMemFS()
	d := openIdemService(t, mem, 2)
	defer d.Close()
	for i, key := range []string{"a", "b", "c"} {
		if _, _, err := d.IngestIdempotent(context.Background(), key, stressGraph(t, pghive.ID(i*1000), 5)); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.DurableStats(); st.IdempotencyKeys != 2 {
		t.Fatalf("retained %d keys, want 2", st.IdempotencyKeys)
	}
	// "a" was evicted: its retry re-applies (and says so).
	_, replayed, err := d.IngestIdempotent(context.Background(), "a", stressGraph(t, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if replayed {
		t.Fatal("evicted key still reported replayed")
	}
	// "c" is retained.
	if _, replayed, _ = d.IngestIdempotent(context.Background(), "c", stressGraph(t, 2000, 5)); !replayed {
		t.Fatal("retained key not recognized")
	}
}

// TestKeyedRetractExactlyOnce: retraction honors the same contract.
func TestKeyedRetractExactlyOnce(t *testing.T) {
	mem := vfs.NewMemFS()
	d := openIdemService(t, mem, 0)
	g := stressGraph(t, 0, 5)
	if err := durableIngest(d, g); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.RetractIdempotent(context.Background(), "r1", g); err != nil {
		t.Fatal(err)
	}
	want := countsOf(d.Stats())

	mem.Crash()
	d2 := openIdemService(t, mem, 0)
	defer d2.Close()
	_, replayed, err := d2.RetractIdempotent(context.Background(), "r1", g)
	if err != nil || !replayed {
		t.Fatalf("retract retry: replayed=%v err=%v, want true/nil", replayed, err)
	}
	if got := countsOf(d2.Stats()); got != want {
		t.Fatalf("replayed retract changed state: %+v, want %+v", got, want)
	}
}
