package pghive_test

// Group commit and WAL shipping. Group commit's contract: the acked-
// prefix durability, idempotency and read-only behavior hold whatever
// the grouping, with strictly fewer fsyncs under concurrency (a lone
// writer is a group of one: one frame, one fsync). Shipping's contract: after
// a compaction round, the backend holds everything a follower needs
// (manifest last, so a fetchable manifest implies fetchable files),
// and no WAL segment is pruned locally past what the backend durably
// holds — a dead backend stalls reclamation loudly, it never creates
// records a follower can no longer fetch. Checkpoint files are
// collected per store: the local sweep keeps the data directory's two
// generations, the backend GC the two newest shipped ones.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/runfile"
	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
)

// flakyBackend wraps a store.Backend with a Put budget: after `allow`
// successful Puts (negative = unlimited), every Put fails. Get/List
// and Delete pass through so shipping state stays observable. Once
// hung it accepts and never answers: a List or a Put (every round of a
// leader or a follower starts with one) parks until its context ends,
// signalling parked as it does.
type flakyBackend struct {
	inner store.Backend

	mu    sync.Mutex
	allow int
	puts  int

	hung   atomic.Bool
	parked chan struct{}
}

func (b *flakyBackend) park(ctx context.Context) error {
	if !b.hung.Load() {
		return nil
	}
	select {
	case b.parked <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return ctx.Err()
}

var errBackendDown = errors.New("backend down")

func (b *flakyBackend) Put(ctx context.Context, name string, data []byte) error {
	if err := b.park(ctx); err != nil {
		return err
	}
	b.mu.Lock()
	if b.allow >= 0 && b.puts >= b.allow {
		b.mu.Unlock()
		return errBackendDown
	}
	b.puts++
	b.mu.Unlock()
	return b.inner.Put(ctx, name, data)
}

func (b *flakyBackend) setAllow(n int) {
	b.mu.Lock()
	b.allow = n
	b.mu.Unlock()
}

func (b *flakyBackend) Get(ctx context.Context, name string) ([]byte, error) {
	return b.inner.Get(ctx, name)
}
func (b *flakyBackend) List(ctx context.Context, prefix string) ([]string, error) {
	if err := b.park(ctx); err != nil {
		return nil, err
	}
	return b.inner.List(ctx, prefix)
}
func (b *flakyBackend) Delete(ctx context.Context, name string) error {
	return b.inner.Delete(ctx, name)
}

func backendObjects(t *testing.T, b store.Backend) map[string]bool {
	t.Helper()
	names, err := b.List(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

// backendManifest fetches and decodes one shipped manifest through the
// same checksummed parser recovery uses.
func backendManifest(t *testing.T, b store.Backend, obj string) *runfile.Manifest {
	t.Helper()
	data, err := b.Get(context.Background(), obj)
	if err != nil {
		t.Fatal(err)
	}
	m, err := runfile.ParseManifest(obj, data)
	if err != nil {
		t.Fatalf("shipped manifest %s does not decode: %v", obj, err)
	}
	return m
}

// lockGate holds a service's write lock for exactly a gated window —
// the test's deterministic way to park a burst of writers behind the
// lock, for whichever of them gets it next to claim, regardless of
// scheduler or core count. It is a CSV-like stream whose NextEdgeID
// signals entry and then blocks until released: DrainStream asks it
// under the write lock, while seeding it from the service's state, so
// draining it holds the lock for the gated window and then ends.
type lockGate struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newLockGate() *lockGate {
	return &lockGate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *lockGate) NextEdgeID() pghive.ID {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return 1
}

func (g *lockGate) SetNextEdgeID(pghive.ID)                {}
func (g *lockGate) SeedResolver(pghive.ID, []string) error { return nil }
func (g *lockGate) Next() (*pghive.Batch, error)           { return nil, io.EOF }

func TestGroupCommitCoalescesFsyncs(t *testing.T) {
	mem := vfs.NewMemFS()
	d, err := pghive.OpenDurable("data", pghive.Options{Seed: 3, Parallelism: 1}, pghive.DurableOptions{
		FS: mem, DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A lone writer is a group of one: each sequential write pays
	// exactly one fsync of its own.
	const lone = 8
	base := d.DurableStats().WALSyncs
	for i := 0; i < lone; i++ {
		if err := durableIngest(d, stressGraph(t, pghive.ID(100_000+1000*i), 50)); err != nil {
			t.Fatal(err)
		}
	}
	if syncs := d.DurableStats().WALSyncs - base; syncs != lone {
		t.Fatalf("%d sequential writes issued %d fsyncs, want exactly %d", lone, syncs, lone)
	}
	base = d.DurableStats().WALSyncs

	// Hold the write lock via a gated stream while a burst of
	// writers waits for it: no writer can start a group until the gate
	// opens, and then the one that gets the lock claims everyone waiting
	// — a handful of fsyncs for 64 acknowledged writes.
	gate := newLockGate()
	drainDone := make(chan error, 1)
	go func() { drainDone <- d.DrainStream(context.Background(), gate, nil) }()
	<-gate.entered

	const writers = 64
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = durableIngest(d, stressGraph(t, pghive.ID(1000*(i+1)), 50))
		}(i)
	}
	time.Sleep(100 * time.Millisecond) // let every writer reach the queue
	close(gate.release)
	if err := <-drainDone; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	st := d.DurableStats()
	if got := st.WALNextLSN - 1; got != lone+writers {
		t.Fatalf("logged %d records, want %d", got, lone+writers)
	}
	syncs := st.WALSyncs - base
	if syncs > 4 {
		t.Fatalf("%d gated concurrent writes issued %d fsyncs, want at most 4", writers, syncs)
	}
	t.Logf("group commit: %d acked writes over %d fsyncs", writers, syncs)
	live := serviceImage(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The grouped log recovers to the byte-identical state: grouping
	// changed fsync scheduling, not the log's contents.
	d2, err := pghive.OpenDurable("data", pghive.Options{Seed: 3, Parallelism: 1}, pghive.DurableOptions{
		FS: mem, DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !bytes.Equal(live, serviceImage(t, d2)) {
		t.Fatal("recovered image differs from the live grouped service")
	}
}

func TestGroupCommitDegradesAndFailsFast(t *testing.T) {
	// The second write's WAL fsync reports a full disk; the caller
	// holding the write lock must degrade the service, and the next
	// write must fail fast.
	plan := vfs.NewPlan(vfs.Fault{Op: vfs.OpSync, N: syncsThroughFirstIngest(t) + 1, Mode: vfs.FailEarly, Err: syscall.ENOSPC})
	d, err := pghive.OpenDurable("data", pghive.Options{Seed: 3, Parallelism: 1}, pghive.DurableOptions{
		FS: vfs.NewInjectFS(vfs.NewMemFS(), plan), DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := durableIngest(d, stressGraph(t, 0, 5)); err != nil {
		t.Fatal(err)
	}
	err = durableIngest(d, stressGraph(t, 1000, 5))
	var de *pghive.DurabilityError
	if !errors.As(err, &de) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("ENOSPC append returned %v, want DurabilityError wrapping ENOSPC", err)
	}
	if reason, degraded := d.Degraded(); !degraded || reason != pghive.DegradeDiskFull {
		t.Fatalf("Degraded() = %q, %v; want %q, true", reason, degraded, pghive.DegradeDiskFull)
	}
	err = durableIngest(d, stressGraph(t, 2000, 5))
	var ro *pghive.ReadOnlyError
	if !errors.As(err, &ro) || ro.Reason != pghive.DegradeDiskFull {
		t.Fatalf("degraded write returned %v, want ReadOnlyError(disk-full)", err)
	}
}

// TestGroupCommitInGroupDuplicateFailsWithGroup is the regression test
// for acking an in-group idempotency duplicate before the group's
// fsync: when two requests carrying the same key land in one group and
// the group's AppendBatch fails, BOTH must get the error — a
// replayed:true ack for the duplicate would be an acknowledgment with
// nothing durable behind it.
func TestGroupCommitInGroupDuplicateFailsWithGroup(t *testing.T) {
	plan := vfs.NewPlan(vfs.Fault{Op: vfs.OpSync, N: syncsThroughFirstIngest(t) + 1, Mode: vfs.FailEarly, Err: syscall.ENOSPC})
	d, err := pghive.OpenDurable("data", pghive.Options{Seed: 3, Parallelism: 1}, pghive.DurableOptions{
		FS: vfs.NewInjectFS(vfs.NewMemFS(), plan), DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// A pre-fault write, then hold the write lock via a gated
	// stream: both keyed writes wait for the lock, and when the gate
	// opens the one that gets it claims the other, so both land in one
	// group — the one whose fsync fails.
	if err := durableIngest(d, stressGraph(t, 0, 5)); err != nil {
		t.Fatal(err)
	}
	gate := newLockGate()
	drainDone := make(chan error, 1)
	go func() { drainDone <- d.DrainStream(context.Background(), gate, nil) }()
	<-gate.entered

	type keyedRes struct {
		replayed bool
		err      error
	}
	results := make(chan keyedRes, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, replayed, err := d.IngestIdempotent(context.Background(), "same-key", stressGraph(t, 1000, 5))
			results <- keyedRes{replayed, err}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(gate.release)
	if err := <-drainDone; err != nil {
		t.Fatal(err)
	}
	// The keyed group's fsync failed: no ack of any kind may have gone
	// out — not a success, and above all not a replayed:true.
	for i := 0; i < 2; i++ {
		r := <-results
		if r.replayed {
			t.Fatal("in-group duplicate acked replayed:true though the group fsync failed — ack without durability")
		}
		if r.err == nil {
			t.Fatal("keyed write acked success though the group fsync failed")
		}
	}
	if got := d.DurableStats().WALNextLSN - 1; got != 1 {
		t.Fatalf("%d records durable, want only the pre-fault write", got)
	}
}

// TestGroupCommitInGroupDuplicateReplaysOnce: the success side of the
// same scenario — two concurrent writes with one key yield exactly one
// applied record and exactly one replayed:true, both acks stating that
// record's LSN, whether they shared a group or not.
func TestGroupCommitInGroupDuplicateReplaysOnce(t *testing.T) {
	d, err := pghive.OpenDurable("data", pghive.Options{Seed: 3, Parallelism: 1}, pghive.DurableOptions{
		FS: vfs.NewMemFS(), DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	gate := newLockGate()
	drainDone := make(chan error, 1)
	go func() { drainDone <- d.DrainStream(context.Background(), gate, nil) }()
	<-gate.entered
	dummyDone := make(chan error, 1)
	go func() {
		err := durableIngest(d, stressGraph(t, 0, 5))
		dummyDone <- err
	}()
	time.Sleep(50 * time.Millisecond)
	type keyedRes struct {
		lsn      uint64
		replayed bool
	}
	results := make(chan keyedRes, 2)
	for i := 0; i < 2; i++ {
		go func() {
			bt, replayed, err := d.IngestIdempotent(context.Background(), "same-key", stressGraph(t, 1000, 5))
			if err != nil {
				t.Error(err)
			}
			results <- keyedRes{bt.LSN, replayed}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(gate.release)
	if err := <-drainDone; err != nil {
		t.Fatal(err)
	}
	if err := <-dummyDone; err != nil {
		t.Fatal(err)
	}
	replays := 0
	var lsns [2]uint64
	for i := range lsns {
		r := <-results
		if r.replayed {
			replays++
		}
		lsns[i] = r.lsn
	}
	if lsns[0] != lsns[1] || lsns[0] == 0 {
		t.Fatalf("same-key writes acked LSNs %v, want one record's", lsns)
	}
	if replays != 1 {
		t.Fatalf("%d of 2 same-key writes replayed, want exactly 1", replays)
	}
	if got := d.DurableStats().WALNextLSN - 1; got != 2 {
		t.Fatalf("%d records logged, want 2 (dummy + one keyed)", got)
	}
}

// TestGroupCommitCloseNeverStrandsWriters is the regression test for
// the write/Close race: a write waiting for the write lock, or claimed
// into a group, as Close begins must not be left forever unanswered.
// Every writer racing Close must return — with success or ErrClosed,
// never a hang.
func TestGroupCommitCloseNeverStrandsWriters(t *testing.T) {
	for iter := 0; iter < 30; iter++ {
		d, err := pghive.OpenDurable("data", pghive.Options{Seed: 3, Parallelism: 1}, pghive.DurableOptions{
			FS: vfs.NewMemFS(), DisableAutoCompact: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		const writers = 8
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				// Success and refusal are both fine; returning is the
				// assertion.
				_ = durableIngest(d, stressGraph(t, pghive.ID(1000*(i+1)), 3))
			}(i)
		}
		close(start)
		go d.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("iter %d: writer stranded after Close — its write never returned", iter)
		}
		d.Close()
	}
}

func TestShipRoundUploadsGenerationManifestLast(t *testing.T) {
	mem := vfs.NewMemFS()
	backend := store.NewDir(vfs.NewMemFS(), "/backend")
	d, err := pghive.OpenDurable("data", pghive.Options{Seed: 3, Parallelism: 1}, pghive.DurableOptions{
		FS: mem, DisableAutoCompact: true, SegmentBytes: 512, ShipTo: backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 6; i++ {
		if err := durableIngest(d, stressGraph(t, pghive.ID(1000*(i+1)), 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	st := d.DurableStats()
	if st.ShipFailures != 0 {
		t.Fatalf("healthy backend saw %d ship failures (%s)", st.ShipFailures, st.LastShipError)
	}
	if st.ShippedLSN != st.CheckpointLSN {
		t.Fatalf("ShippedLSN = %d, want the compacted coverage %d", st.ShippedLSN, st.CheckpointLSN)
	}

	objs := backendObjects(t, backend)
	mf := runfile.ManifestName(st.ManifestSeq)
	if !objs[mf] {
		t.Fatalf("backend is missing the current manifest %s; has %v", mf, objs)
	}
	man := backendManifest(t, backend, mf)
	for f := range man.Files() {
		if !objs[f] {
			t.Fatalf("shipped manifest %s references %s, absent from the backend", mf, f)
		}
	}
	var segs int
	for o := range objs {
		if strings.HasPrefix(o, "wal/") {
			segs++
		}
	}
	if segs == 0 {
		t.Fatal("no sealed WAL segments shipped")
	}
}

// TestShipManifestNeverDanglesOnPartialFailure cuts the backend off
// after every possible number of successful uploads and verifies the
// manifest-last invariant each time: any manifest the backend holds
// references only objects the backend also holds.
func TestShipManifestNeverDanglesOnPartialFailure(t *testing.T) {
	// Count the uploads of a fully successful round first.
	probe := &flakyBackend{inner: store.NewDir(vfs.NewMemFS(), "/b"), allow: -1}
	mem := vfs.NewMemFS()
	d, err := pghive.OpenDurable("data", pghive.Options{Seed: 3, Parallelism: 1}, pghive.DurableOptions{
		FS: mem, DisableAutoCompact: true, SegmentBytes: 512, ShipTo: probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := durableIngest(d, stressGraph(t, pghive.ID(1000*(i+1)), 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	total := probe.puts
	d.Close()
	if total < 2 {
		t.Fatalf("probe round uploaded %d objects, need at least a file and a manifest", total)
	}

	for allow := 0; allow < total; allow++ {
		backend := &flakyBackend{inner: store.NewDir(vfs.NewMemFS(), "/b"), allow: allow}
		mem := vfs.NewMemFS()
		d, err := pghive.OpenDurable("data", pghive.Options{Seed: 3, Parallelism: 1}, pghive.DurableOptions{
			FS: mem, DisableAutoCompact: true, SegmentBytes: 512, ShipTo: backend,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := durableIngest(d, stressGraph(t, pghive.ID(1000*(i+1)), 40)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Compact(); err != nil {
			t.Fatalf("allow=%d: compaction must not fail on a ship failure: %v", allow, err)
		}
		if st := d.DurableStats(); st.ShipFailures == 0 {
			t.Fatalf("allow=%d: cut-off backend reported no ship failures", allow)
		}
		objs := backendObjects(t, backend)
		for o := range objs {
			if _, ok := runfile.ParseManifestSeq(o); !ok {
				continue
			}
			man := backendManifest(t, backend, o)
			for f := range man.Files() {
				if !objs[f] {
					t.Fatalf("allow=%d: backend manifest %s dangles: %s missing", allow, o, f)
				}
			}
		}
		d.Close()
	}
}

// TestPruneRetainsUnshippedSegments is the regression test for the
// upload-watermark gate: with shipping enabled and the backend down,
// compaction must NOT prune WAL segments (or let a restart prune them)
// past what the backend holds, no matter how far the manifest's WAL
// floor advances. Without the gate this test fails at the first-
// segment check: two compaction rounds push the floor past segment 1
// and the ungated prune deletes it.
func TestPruneRetainsUnshippedSegments(t *testing.T) {
	mem := vfs.NewMemFS()
	backend := &flakyBackend{inner: store.NewDir(vfs.NewMemFS(), "/b"), allow: 0} // down from the start
	d, err := pghive.OpenDurable("data", pghive.Options{Seed: 3, Parallelism: 1}, pghive.DurableOptions{
		FS: mem, DisableAutoCompact: true, SegmentBytes: 256, ShipTo: backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two write+compact rounds: the second manifest's WAL floor is the
	// first round's coverage, so an ungated prune would reclaim every
	// first-round segment.
	for round := 0; round < 2; round++ {
		for i := 0; i < 4; i++ {
			if err := durableIngest(d, stressGraph(t, pghive.ID(10000*round+1000*(i+1)), 40)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	st := d.DurableStats()
	if st.ShipFailures == 0 {
		t.Fatal("dead backend reported no ship failures")
	}
	if st.ShippedLSN != 0 {
		t.Fatalf("ShippedLSN = %d with a backend that never stored anything", st.ShippedLSN)
	}
	firstSeg := filepath.Join("data", "wal", fmt.Sprintf("%020d.wal", 1))
	if !memExists(t, mem, firstSeg) {
		t.Fatalf("segment %s pruned while the backend holds nothing — shipped-watermark gate broken", firstSeg)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// A restart with the backend still down must keep honoring the
	// persisted watermark through its startup prune.
	d, err = pghive.OpenDurable("data", pghive.Options{Seed: 3, Parallelism: 1}, pghive.DurableOptions{
		FS: mem, DisableAutoCompact: true, SegmentBytes: 256, ShipTo: backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !memExists(t, mem, firstSeg) {
		t.Fatalf("restart pruned %s despite the persisted ship watermark", firstSeg)
	}

	// Backend recovers: the next round ships everything and only then
	// reclaims the backlog.
	backend.setAllow(-1)
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	st = d.DurableStats()
	if st.ShippedLSN < st.CheckpointLSN {
		t.Fatalf("after recovery ShippedLSN = %d, want at least %d", st.ShippedLSN, st.CheckpointLSN)
	}
	if memExists(t, mem, firstSeg) {
		t.Fatalf("segment %s still retained after the backend caught up", firstSeg)
	}
	objs := backendObjects(t, backend)
	mf := runfile.ManifestName(st.ManifestSeq)
	if !objs[mf] {
		t.Fatalf("recovered backend is missing manifest %s; has %v", mf, objs)
	}
	d.Close()
}

// TestShipGCRetainsFallbackGenerationTail is the regression test for
// the backend segment-GC floor: when a shipping round fails and a
// checkpoint generation is skipped, the retained fallback generation
// (prevMan) is OLDER than the one the newest manifest's WALFloor
// protects. Segment GC must then keep the WAL tail above the
// fallback's coverage — a follower whose fetch of the newest shipped
// generation fails has to bootstrap from the fallback and tail from
// its covered LSN, not loop re-bootstrapping.
func TestShipGCRetainsFallbackGenerationTail(t *testing.T) {
	backend := &flakyBackend{inner: store.NewDir(vfs.NewMemFS(), "/b"), allow: -1}
	opts := pghive.Options{Seed: 3, Parallelism: 1}
	d, err := pghive.OpenDurable("data", opts, pghive.DurableOptions{
		FS: vfs.NewMemFS(), DisableAutoCompact: true, SegmentBytes: 256, ShipTo: backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	round := func(r int) {
		t.Helper()
		for i := 0; i < 4; i++ {
			if err := durableIngest(d, stressGraph(t, pghive.ID(100000*(r+1)+1000*(i+1)), 30)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
	}

	// Round 1 ships generation A; round 2's shipping fails (generation
	// skipped); round 3 ships the current generation, whose WALFloor is
	// round 2's coverage — above what the retained fallback A covers.
	round(0)
	genA := d.DurableStats().ManifestSeq
	coveredA := d.DurableStats().CheckpointLSN
	backend.setAllow(0)
	round(1)
	backend.setAllow(-1)
	round(2)
	leaderLSN := d.DurableStats().WALNextLSN - 1

	objs := backendObjects(t, backend)
	if !objs[runfile.ManifestName(genA)] {
		t.Fatalf("fallback generation %d's manifest GC'd from the backend", genA)
	}

	// Simulate the newest shipped generation being unfetchable (the
	// exact case the fallback exists for) and replicate: the follower
	// must bootstrap from generation A and tail all the way to the
	// leader — which requires every segment above coveredA to still be
	// in the backend.
	cur := runfile.ManifestName(d.DurableStats().ManifestSeq)
	if cur == runfile.ManifestName(genA) {
		t.Fatal("test setup: current generation did not advance past the fallback")
	}
	if err := backend.Delete(ctx, cur); err != nil {
		t.Fatal(err)
	}
	f := pghive.NewFollower(opts, backend, pghive.FollowerOptions{})
	defer f.Close()
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if got := f.Lag(ctx).BootstrapGeneration; got != genA {
		t.Fatalf("follower bootstrapped generation %d, want fallback %d", got, genA)
	}
	if f.AppliedLSN() != coveredA {
		t.Fatalf("fallback bootstrap positioned at LSN %d, want %d", f.AppliedLSN(), coveredA)
	}
	if err := f.TailOnce(ctx); err != nil {
		t.Fatalf("tail from the fallback generation: %v (segments above LSN %d GC'd?)", err, coveredA)
	}
	if got := f.AppliedLSN(); got != leaderLSN {
		t.Fatalf("follower caught up to LSN %d, want leader's %d — fallback tail GC'd from the backend", got, leaderLSN)
	}
	if !bytes.Equal(serviceImage(t, d), serviceImage(t, f)) {
		t.Fatal("follower image differs from leader after fallback bootstrap + tail")
	}
}

// TestShippedWALMatchesSealedSegments: one rule decides which WAL
// segments a store drops, so with shipping healthy the backend and the
// data directory hold the same segments after every round — the data
// directory's sealed ones, all of them uploaded and none kept longer —
// through writes, retractions and MaxRuns folds.
func TestShippedWALMatchesSealedSegments(t *testing.T) {
	ctx := context.Background()
	mem := vfs.NewMemFS()
	local, backend := store.NewDir(mem, "data"), store.NewDir(vfs.NewMemFS(), "/backend")
	d, err := pghive.OpenDurable("data", pghive.Options{Seed: 3, Parallelism: 1}, pghive.DurableOptions{
		FS: mem, DisableAutoCompact: true, SegmentBytes: 256, MaxRuns: 2, ShipTo: backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var prev *pghive.Graph
	for r := 0; r < 8; r++ {
		g := stressGraph(t, pghive.ID(1000*(r+1)), 20)
		for i := 0; i < 3; i++ {
			if err := durableIngest(d, stressGraph(t, pghive.ID(100000*(r+1)+1000*i), 10)); err != nil {
				t.Fatal(err)
			}
		}
		if err := durableIngest(d, g); err != nil {
			t.Fatal(err)
		}
		if r%2 == 1 {
			if err := durableRetract(d, prev); err != nil {
				t.Fatal(err)
			}
		}
		prev = g
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		st := d.DurableStats()
		if st.ShipFailures != 0 || st.GCFailures != 0 {
			t.Fatalf("round %d: ShipFailures %d (%q), GCFailures %d (%q) on healthy stores", r, st.ShipFailures, st.LastShipError, st.GCFailures, st.LastGCError)
		}
		mine, err := local.List(ctx, "wal/")
		if err != nil {
			t.Fatal(err)
		}
		shipped, err := backend.List(ctx, "wal/")
		if err != nil {
			t.Fatal(err)
		}
		if len(mine) != st.WALSealedSegments {
			t.Fatalf("round %d: data directory holds %d segments, %d of them sealed", r, len(mine), st.WALSealedSegments)
		}
		if !slices.Equal(mine, shipped) {
			t.Fatalf("round %d (folds %d): data directory holds segments %v, backend %v", r, st.Folds, mine, shipped)
		}
		if r == 7 && (st.Folds == 0 || mine[0] == "wal/"+fmt.Sprintf("%020d.wal", 1)) {
			t.Fatalf("script never folded (%d) or never dropped a segment (oldest %s)", st.Folds, mine[0])
		}
	}
}

// TestGCCollectsOnlyStaleArtifacts holds both collectors — the sweep of
// the data directory and the GC of a shipping backend — to the contract
// runfile.IsArtifact states: they delete stale files of the checkpoint
// layout (an orphaned base image, an uncommitted run, a torn manifest
// above the live generation) and never a foreign file sharing the
// directory or bucket, and each store keeps both of its generations.
// A backend delete that fails is counted and retried next round.
func TestGCCollectsOnlyStaleArtifacts(t *testing.T) {
	ctx := context.Background()
	opts := pghive.Options{Seed: 3, Parallelism: 1}
	mem, bmem := vfs.NewMemFS(), vfs.NewMemFS()
	local, backend := store.NewDir(mem, "data"), store.NewDir(bmem, "/backend")
	open := func(ship store.Backend) *pghive.DurableService {
		t.Helper()
		d, err := pghive.OpenDurable("data", opts, pghive.DurableOptions{
			FS: mem, DisableAutoCompact: true, SegmentBytes: 2048, ShipTo: ship,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	round := func(d *pghive.DurableService, r int) {
		t.Helper()
		if err := durableIngest(d, stressGraph(t, pghive.ID(1000*(r+1)), 30)); err != nil {
			t.Fatal(err)
		}
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	d := open(backend)
	round(d, 0)
	round(d, 1)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	foreign := []string{"notes.txt", "checkpoint-x.ckpt"}
	stale := []string{runfile.BaseName(7), runfile.RunName(7, 8), runfile.ManifestName(9)}
	for _, s := range []store.Backend{local, backend} {
		for _, name := range append(slices.Clone(foreign), stale...) {
			if err := s.Put(ctx, name, []byte("not the service's\n")); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The first delete the backend is asked for fails: the stale base,
	// first of the stale objects in name order.
	plan := vfs.NewPlan(vfs.Fault{Op: vfs.OpRemove, N: 1})
	d = open(store.NewDir(vfs.NewInjectFS(bmem, plan), "/backend"))
	defer d.Close()
	st := d.DurableStats()
	if st.ShipFailures != 1 || !strings.Contains(st.LastShipError, stale[0]) {
		t.Fatalf("ShipFailures = %d (%q), want the failed delete of %s counted", st.ShipFailures, st.LastShipError, stale[0])
	}
	if !backendObjects(t, backend)[stale[0]] {
		t.Fatalf("%s left the backend although its delete failed", stale[0])
	}
	round(d, 2)
	st = d.DurableStats()
	if st.ShipFailures != 1 || st.GCFailures != 0 {
		t.Fatalf("retry round: ShipFailures = %d (%q), GCFailures = %d (%q)", st.ShipFailures, st.LastShipError, st.GCFailures, st.LastGCError)
	}
	if st.ManifestSeq != 10 {
		t.Fatalf("generation %d after a torn manifest 9, want 10", st.ManifestSeq)
	}

	// Both stores now keep the live generation and the one before it.
	var gens []*runfile.Manifest
	for _, seq := range []uint64{2, st.ManifestSeq} {
		data, err := local.Get(ctx, runfile.ManifestName(seq))
		if err != nil {
			t.Fatal(err)
		}
		m, err := runfile.ParseManifest(runfile.ManifestName(seq), data)
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, m)
	}
	for where, s := range map[string]store.Backend{"data directory": local, "backend": backend} {
		objs := backendObjects(t, s)
		for _, name := range foreign {
			if !objs[name] {
				t.Errorf("%s: foreign file %s collected", where, name)
			}
		}
		for _, name := range stale {
			if objs[name] {
				t.Errorf("%s: stale %s survived the round", where, name)
			}
		}
		for name := range runfile.Keep(gens...) {
			if !objs[name] {
				t.Errorf("%s: kept generation file %s collected", where, name)
			}
		}
	}
}

// closesWithin fails the test unless Close returns inside a bound no
// healthy run comes near.
func closesWithin(t *testing.T, c interface{ Close() error }) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- c.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close still blocked after 10s on a backend that never answers")
	}
}

// A shipping round holds compactMu across its backend calls, and Close,
// DurableStats and CheckpointLSN all take compactMu: a backend that
// accepts and never answers must cost the round (a counted failure),
// never Close — and through it every reader of the counters.
func TestCloseEndsShipRoundOnHungBackend(t *testing.T) {
	backend := &flakyBackend{inner: store.NewDir(vfs.NewMemFS(), "/b"), allow: -1, parked: make(chan struct{}, 1)}
	d, err := pghive.OpenDurable("data", pghive.Options{Seed: 3, Parallelism: 1}, pghive.DurableOptions{
		FS: vfs.NewMemFS(), DisableAutoCompact: true, SegmentBytes: 4096, ShipTo: backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := durableIngest(d, stressGraph(t, 1000, 40)); err != nil {
		t.Fatal(err)
	}
	backend.hung.Store(true)
	round := make(chan error, 1)
	go func() { round <- d.Compact() }()
	<-backend.parked // the round is inside the backend, holding compactMu
	closesWithin(t, d)
	if err := <-round; err != nil {
		t.Fatalf("a ship failure failed the round: %v", err)
	}
	st := d.DurableStats()
	if st.ShipFailures == 0 || !strings.Contains(st.LastShipError, context.Canceled.Error()) {
		t.Fatalf("ShipFailures = %d (%q), want the cancelled round counted", st.ShipFailures, st.LastShipError)
	}
	if got := d.CheckpointLSN(); got == 0 || got != st.CheckpointLSN {
		t.Fatalf("CheckpointLSN = %d, stats say %d: the round's generation did not commit", got, st.CheckpointLSN)
	}
}

func TestFollowerCloseEndsTailOnHungBackend(t *testing.T) {
	backend := &flakyBackend{inner: store.NewDir(vfs.NewMemFS(), "/b"), parked: make(chan struct{}, 1)}
	backend.hung.Store(true)
	f := pghive.NewFollower(pghive.Options{Seed: 3, Parallelism: 1}, backend, pghive.FollowerOptions{})
	f.Start()
	<-backend.parked // the loop's first round is inside the backend
	closesWithin(t, f)
	if lag := f.Lag(context.Background()); lag.Ready || lag.FetchFaults == 0 {
		t.Fatalf("ready=%v faults=%d: want the cancelled round counted and no bootstrap", lag.Ready, lag.FetchFaults)
	}
}
