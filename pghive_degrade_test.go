package pghive_test

// Read-only degradation and re-arm. The contract under test: an
// unrecoverable append failure (full disk, broken WAL) flips the
// service into DECLARED read-only mode — reads keep serving the last
// published snapshot, writes fail fast with a machine-readable
// ReadOnlyError, and write service comes back through the declared
// paths only: a successful compaction for disk-full, Rearm for
// everything including a broken WAL. Rearm's hard case is the
// resurrected frame: an append whose error could not be rolled back
// may or may not be durable, and re-arming must reconcile the live
// state with whatever the disk actually holds — keeping the
// exactly-once promise for that write's idempotency key.

import (
	"bytes"
	"context"
	"errors"
	"syscall"
	"testing"
	"time"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/vfs"
)

func openDegradeService(t *testing.T, fs vfs.FS) *pghive.DurableService {
	t.Helper()
	d, err := pghive.OpenDurable("data", pghive.Options{Seed: 3, Parallelism: 1},
		pghive.DurableOptions{FS: fs, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// syncsThroughFirstIngest counts fsync operations from open through
// one ingest on a pristine directory, so faults can be aimed at the
// SECOND write's append without hard-coding WAL internals.
func syncsThroughFirstIngest(t *testing.T) int {
	t.Helper()
	plan := vfs.NewPlan()
	d := openDegradeService(t, vfs.NewInjectFS(vfs.NewMemFS(), plan))
	if err := durableIngest(d, stressGraph(t, 0, 5)); err != nil {
		t.Fatal(err)
	}
	n := plan.Ops()[vfs.OpSync]
	d.Close()
	if n == 0 {
		t.Fatal("probe saw no sync operations — injector not wired through")
	}
	return n
}

func TestENOSPCDegradesToReadOnlyAndCompactionRearms(t *testing.T) {
	mem := vfs.NewMemFS()
	// The second write's WAL append reports a full disk.
	plan := vfs.NewPlan(vfs.Fault{Op: vfs.OpSync, N: syncsThroughFirstIngest(t) + 1, Mode: vfs.FailEarly, Err: syscall.ENOSPC})
	d := openDegradeService(t, vfs.NewInjectFS(mem, plan))
	defer d.Close()

	if err := durableIngest(d, stressGraph(t, 0, 5)); err != nil {
		t.Fatalf("pre-fault ingest: %v", err)
	}
	lsnBefore := d.Stats().LSN

	err := durableIngest(d, stressGraph(t, 1000, 5))
	var de *pghive.DurabilityError
	if !errors.As(err, &de) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("ENOSPC append returned %v, want DurabilityError wrapping ENOSPC", err)
	}
	reason, degraded := d.Degraded()
	if !degraded || reason != pghive.DegradeDiskFull {
		t.Fatalf("Degraded() = %q/%v, want %q/true", reason, degraded, pghive.DegradeDiskFull)
	}
	st := d.DurableStats()
	if !st.ReadOnly || st.ReadOnlyReason != pghive.DegradeDiskFull {
		t.Fatalf("DurableStats does not declare read-only: %+v", st)
	}

	// Writes fail fast with the declared error; reads keep serving the
	// pre-fault snapshot.
	var roe *pghive.ReadOnlyError
	if err := durableIngest(d, stressGraph(t, 2000, 5)); !errors.As(err, &roe) {
		t.Fatalf("degraded write returned %v, want ReadOnlyError", err)
	}
	if roe.Reason != pghive.DegradeDiskFull {
		t.Fatalf("ReadOnlyError reason %q, want %q", roe.Reason, pghive.DegradeDiskFull)
	}
	if got := d.Stats(); got.LSN != lsnBefore || got.Nodes != 5 {
		t.Fatalf("degraded reads changed: %+v", got)
	}

	// Compaction frees superseded segments — the very space the write
	// path was starving for — and re-arms automatically.
	if err := d.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if _, degraded := d.Degraded(); degraded {
		t.Fatal("successful compaction did not re-arm a disk-full service")
	}
	if err := durableIngest(d, stressGraph(t, 3000, 5)); err != nil {
		t.Fatalf("post-rearm ingest: %v", err)
	}
}

func TestBrokenWALDegradesAndRearmRestoresWrites(t *testing.T) {
	mem := vfs.NewMemFS()
	// A FailLate sync persists the frame but reports failure, and the
	// rollback's own sync fails too: the WAL goes sticky-broken with
	// one indeterminate frame on disk.
	n := syncsThroughFirstIngest(t)
	plan := vfs.NewPlan(
		vfs.Fault{Op: vfs.OpSync, N: n + 1, Mode: vfs.FailLate},
		vfs.Fault{Op: vfs.OpSync, N: n + 2, Mode: vfs.FailEarly},
	)
	d := openDegradeService(t, vfs.NewInjectFS(mem, plan))
	defer d.Close()

	if err := durableIngest(d, stressGraph(t, 0, 5)); err != nil {
		t.Fatalf("pre-fault ingest: %v", err)
	}
	want := countsOf(d.Stats())

	// The indeterminate write carries an idempotency key, so we can
	// prove exactly-once across the re-arm.
	const key = "indeterminate-1"
	if _, _, err := d.IngestIdempotent(context.Background(), key, stressGraph(t, 1000, 5)); err == nil {
		t.Fatal("faulted keyed ingest unexpectedly succeeded")
	}
	if !d.DurableStats().WALBroken {
		t.Fatal("double sync fault did not break the WAL")
	}
	if reason, degraded := d.Degraded(); !degraded || reason != pghive.DegradeWALBroken {
		t.Fatalf("Degraded() = %q/%v, want %q/true", reason, degraded, pghive.DegradeWALBroken)
	}
	var roe *pghive.ReadOnlyError
	if err := durableIngest(d, stressGraph(t, 2000, 5)); !errors.As(err, &roe) {
		t.Fatalf("broken-WAL write returned %v, want ReadOnlyError", err)
	}

	// Rearm re-opens the log from disk and reconciles: whatever the
	// indeterminate frame's fate, the retried key applies exactly once.
	if err := d.Rearm(); err != nil {
		t.Fatalf("Rearm: %v", err)
	}
	if _, degraded := d.Degraded(); degraded {
		t.Fatal("service still degraded after successful Rearm")
	}
	if d.DurableStats().ReadOnly {
		t.Fatal("DurableStats still read-only after Rearm")
	}
	_, replayed, err := d.IngestIdempotent(context.Background(), key, stressGraph(t, 1000, 5))
	if err != nil {
		t.Fatalf("post-rearm keyed retry: %v", err)
	}
	got := countsOf(d.Stats())
	if replayed {
		// The frame survived the failed rollback; Rearm applied it
		// during catch-up, and the retry was recognized.
		if got.Batches != want.Batches+1 {
			t.Fatalf("replayed retry after resurrected frame: %+v, want %d batches", got, want.Batches+1)
		}
	} else if got.Batches != want.Batches+1 {
		// The frame did not survive; the retry applied it fresh.
		t.Fatalf("fresh retry after rollback: %+v, want %d batches", got, want.Batches+1)
	}

	// Either way the write landed exactly once, and further writes and
	// recovery behave normally.
	if err := durableIngest(d, stressGraph(t, 3000, 5)); err != nil {
		t.Fatalf("post-rearm ingest: %v", err)
	}
	live := serviceImage(t, d)
	d.Close()
	mem.Crash()
	d2 := openDegradeService(t, mem)
	defer d2.Close()
	if recovered := serviceImage(t, d2); string(recovered) != string(live) {
		t.Fatal("recovery after rearm diverges from the live state")
	}
}

func TestRearmOnHealthyServiceIsNoOp(t *testing.T) {
	mem := vfs.NewMemFS()
	d := openDegradeService(t, mem)
	defer d.Close()
	if err := durableIngest(d, stressGraph(t, 0, 5)); err != nil {
		t.Fatal(err)
	}
	want := countsOf(d.Stats())
	if err := d.Rearm(); err != nil {
		t.Fatalf("Rearm on healthy service: %v", err)
	}
	if got := countsOf(d.Stats()); got != want {
		t.Fatalf("no-op Rearm changed state: %+v, want %+v", got, want)
	}
}

func TestWriteDeadlineFailsFastWhenLockIsHeld(t *testing.T) {
	mem := vfs.NewMemFS()
	d := openDegradeService(t, mem)
	defer d.Close()

	// A stream that blocks while it is seeded stands in for whatever
	// holds the write lock for long.
	bs := newLockGate()
	drainDone := make(chan error, 1)
	go func() { drainDone <- d.DrainStream(context.Background(), bs, nil) }()
	<-bs.entered

	nextLSN := d.DurableStats().WALNextLSN
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := d.IngestIdempotent(ctx, "", stressGraph(t, 0, 5))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued write under a held lock returned %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline did not interrupt the lock wait")
	}
	// Expiry means nothing was logged — the writer waited for the lock
	// and never got it, and no holder claimed its request.
	if got := d.DurableStats().WALNextLSN; got != nextLSN {
		t.Fatalf("timed-out write moved WALNextLSN %d -> %d", nextLSN, got)
	}

	close(bs.release)
	if err := <-drainDone; err != nil {
		t.Fatalf("gated drain: %v", err)
	}
	// The lock is free again; re-submitting the same (unkeyed) write now
	// applies it exactly once: the timed-out attempt left nothing behind
	// to double it.
	if err := durableIngest(d, stressGraph(t, 0, 5)); err != nil {
		t.Fatalf("post-release ingest: %v", err)
	}
	if got := d.DurableStats().WALNextLSN; got != nextLSN+1 {
		t.Fatalf("WALNextLSN = %d after the retry, want %d", got, nextLSN+1)
	}
	clean := openDegradeService(t, vfs.NewMemFS())
	defer clean.Close()
	if err := durableIngest(clean, stressGraph(t, 0, 5)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serviceImage(t, d), serviceImage(t, clean)) {
		t.Fatal("state after timeout + retry differs from a run that never timed out")
	}
}
