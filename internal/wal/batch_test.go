package wal

// AppendBatch (the group-commit primitive) tests: one fsync per
// group, consecutive LSNs, replay equivalence with single appends,
// rotation at group granularity, and all-or-nothing rollback when the
// group's write or sync fails.

import (
	"errors"
	"fmt"
	"testing"

	"github.com/pghive/pghive/internal/vfs"
)

func batch(n int, tag string) []BatchRecord {
	recs := make([]BatchRecord, n)
	for i := range recs {
		recs[i] = BatchRecord{Type: 1, Payload: []byte(fmt.Sprintf("%s-%d", tag, i))}
	}
	return recs
}

func TestAppendBatchOneSyncPerGroup(t *testing.T) {
	mem := vfs.NewMemFS()
	l, err := Open("/wal", Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	first, err := l.AppendBatch(batch(8, "g1"))
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("first LSN = %d, want 1", first)
	}
	if got := l.Syncs(); got != 1 {
		t.Fatalf("Syncs after one group of 8 = %d, want 1", got)
	}
	if got := l.NextLSN(); got != 9 {
		t.Fatalf("NextLSN = %d, want 9", got)
	}

	// A second group continues the LSN sequence, one more fsync.
	first, err = l.AppendBatch(batch(3, "g2"))
	if err != nil {
		t.Fatal(err)
	}
	if first != 9 {
		t.Fatalf("second group first LSN = %d, want 9", first)
	}
	if got := l.Syncs(); got != 2 {
		t.Fatalf("Syncs after two groups = %d, want 2", got)
	}

	// Replay sees all 11 records in order, indistinguishable from
	// single appends.
	var lsns []uint64
	var payloads []string
	if err := replay(l, 0, func(rec Record) error {
		lsns = append(lsns, rec.LSN)
		payloads = append(payloads, string(rec.Payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 11 {
		t.Fatalf("replayed %d records, want 11", len(lsns))
	}
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("replay LSN[%d] = %d, want %d", i, lsn, i+1)
		}
	}
	if payloads[0] != "g1-0" || payloads[8] != "g2-0" || payloads[10] != "g2-2" {
		t.Fatalf("replay payloads wrong: %v", payloads)
	}
}

func TestAppendBatchEmptyIsNoOp(t *testing.T) {
	mem := vfs.NewMemFS()
	l, err := Open("/wal", Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	first, err := l.AppendBatch(nil)
	if err != nil || first != 0 {
		t.Fatalf("AppendBatch(nil) = %d, %v; want 0, nil", first, err)
	}
	if got := l.Syncs(); got != 0 {
		t.Fatalf("empty batch issued %d fsyncs", got)
	}
}

// TestAppendBatchNeverSpansRotation: a group that does not fit the
// active segment seals it first; the whole group lands in the next
// segment, so a group is never split across files.
func TestAppendBatchNeverSpansRotation(t *testing.T) {
	mem := vfs.NewMemFS()
	l, err := Open("/wal", Options{FS: mem, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(1, []byte("seed-record-to-occupy-space")); err != nil {
		t.Fatal(err)
	}
	// 8 records * (17+10)B ≈ 216B: does not fit behind the seed.
	first, err := l.AppendBatch(batch(8, "group-pay"))
	if err != nil {
		t.Fatal(err)
	}
	sealed := l.Sealed()
	if len(sealed) != 1 {
		t.Fatalf("sealed segments = %d, want 1 (rotation before the group)", len(sealed))
	}
	if sealed[0].Last != 1 {
		t.Fatalf("sealed segment covers to %d, want 1", sealed[0].Last)
	}
	if first != 2 {
		t.Fatalf("group first LSN = %d, want 2", first)
	}
	// The active segment holds the whole group.
	var seen int
	if err := replay(l, 1, func(rec Record) error { seen++; return nil }); err != nil {
		t.Fatal(err)
	}
	if seen != 8 {
		t.Fatalf("replayed %d group records, want 8", seen)
	}
}

// TestAppendBatchRollbackAllOrNothing: a failed group sync rolls back
// every frame of the group; earlier records survive untouched and the
// log keeps accepting appends.
func TestAppendBatchRollbackAllOrNothing(t *testing.T) {
	mem := vfs.NewMemFS()
	boom := errors.New("boom")
	// Sync 1: the seed append. Sync 2: the failed group.
	plan := vfs.NewPlan(vfs.Fault{Op: vfs.OpSync, N: 2, Mode: vfs.FailLate, Err: boom})
	ifs := vfs.NewInjectFS(mem, plan)
	l, err := Open("/wal", Options{FS: ifs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("seed")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(batch(5, "doomed")); err == nil {
		t.Fatal("AppendBatch survived an injected sync failure")
	}
	if l.Broken() {
		t.Fatal("log broken: group rollback should have succeeded")
	}
	// The next group reuses LSN 2 cleanly.
	first, err := l.AppendBatch(batch(2, "retry"))
	if err != nil {
		t.Fatal(err)
	}
	if first != 2 {
		t.Fatalf("retry first LSN = %d, want 2", first)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery sees seed + retry group, nothing of the doomed group.
	l2, err := Open("/wal", Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var payloads []string
	if err := replay(l2, 0, func(rec Record) error {
		payloads = append(payloads, string(rec.Payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"seed", "retry-0", "retry-1"}
	if len(payloads) != len(want) {
		t.Fatalf("recovered %v, want %v", payloads, want)
	}
	for i := range want {
		if payloads[i] != want[i] {
			t.Fatalf("recovered %v, want %v", payloads, want)
		}
	}
}

// TestAppendBatchRollbackFailureBreaksLog: when the rollback itself
// fails, the whole log is marked broken, same as a single append.
func TestAppendBatchRollbackFailureBreaksLog(t *testing.T) {
	mem := vfs.NewMemFS()
	plan := vfs.NewPlan(
		vfs.Fault{Op: vfs.OpSync, N: 1, Mode: vfs.FailLate},
		vfs.Fault{Op: vfs.OpTruncate, N: 1, Mode: vfs.FailEarly},
	)
	ifs := vfs.NewInjectFS(mem, plan)
	l, err := Open("/wal", Options{FS: ifs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendBatch(batch(4, "doomed")); err == nil {
		t.Fatal("AppendBatch survived an injected sync failure")
	}
	if !l.Broken() {
		t.Fatal("log not broken after failed rollback")
	}
	if _, err := l.AppendBatch(batch(1, "after")); err == nil {
		t.Fatal("broken log accepted a batch")
	}
}
