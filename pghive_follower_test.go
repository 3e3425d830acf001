package pghive_test

// Follower (read replica) correctness. The replication contract: a
// follower bootstrapped from the shipped checkpoints and tailed over
// the shipped WAL serves a state BIT-IDENTICAL (checkpoint-image
// bytes) to the leader at the same LSN; fetch faults — unreachable
// backend, truncated segment bytes, reclaimed segments — may stall it
// (loudly, counted in Lag), but can never make it apply records out
// of order or serve a diverged snapshot.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/runfile"
	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
	"github.com/pghive/pghive/internal/wal"
)

// replicaWorld is one leader + backend pair on in-memory filesystems.
type replicaWorld struct {
	t       *testing.T
	leader  *pghive.DurableService
	backend store.Backend
	opts    pghive.Options
}

func newReplicaWorld(t *testing.T, backend store.Backend) *replicaWorld {
	t.Helper()
	if backend == nil {
		backend = store.NewDir(vfs.NewMemFS(), "/backend")
	}
	opts := pghive.Options{Seed: 3, Parallelism: 1}
	d, err := pghive.OpenDurable("data", opts, pghive.DurableOptions{
		FS: vfs.NewMemFS(), DisableAutoCompact: true, SegmentBytes: 256, ShipTo: backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return &replicaWorld{t: t, leader: d, backend: backend, opts: opts}
}

// writeRound ingests n batches and compacts, which seals and ships
// everything written so far.
func (w *replicaWorld) writeRound(round, n int) {
	w.t.Helper()
	for i := 0; i < n; i++ {
		if err := durableIngest(w.leader, stressGraph(w.t, pghive.ID(100000*(round+1)+1000*(i+1)), 30)); err != nil {
			w.t.Fatal(err)
		}
	}
	if err := w.leader.Compact(); err != nil {
		w.t.Fatal(err)
	}
}

func (w *replicaWorld) follower() *pghive.Follower {
	w.t.Helper()
	f := pghive.NewFollower(w.opts, w.backend, pghive.FollowerOptions{})
	w.t.Cleanup(func() { f.Close() })
	return f
}

func TestFollowerBitIdenticalToLeader(t *testing.T) {
	w := newReplicaWorld(t, nil)
	w.writeRound(0, 5)
	if err := durableRetract(w.leader, stressGraph(t, 100000+1000*2, 30)); err != nil {
		t.Fatal(err)
	}
	w.writeRound(1, 3)

	f := w.follower()
	if f.Ready() {
		t.Fatal("follower ready before bootstrap")
	}
	ctx := context.Background()
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if !f.Ready() {
		t.Fatal("follower not ready after bootstrap")
	}
	if err := f.TailOnce(ctx); err != nil {
		t.Fatal(err)
	}

	leaderLSN := w.leader.DurableStats().WALNextLSN - 1
	if got := f.AppliedLSN(); got != leaderLSN {
		t.Fatalf("follower applied LSN %d, leader at %d", got, leaderLSN)
	}
	if fl, ld := f.Stats().LSN, w.leader.Stats().LSN; fl != leaderLSN || ld != leaderLSN {
		t.Fatalf("snapshots state LSN %d (follower) and %d (leader), want both at %d", fl, ld, leaderLSN)
	}
	if !bytes.Equal(serviceImage(t, w.leader), serviceImage(t, f)) {
		t.Fatal("follower image differs from leader at the same LSN")
	}

	lag := f.Lag(ctx)
	if !lag.Ready || lag.AppliedLSN != leaderLSN || lag.FetchFaults != 0 {
		t.Fatalf("lag = %+v, want ready at LSN %d with no faults", lag, leaderLSN)
	}
}

// writeMethodPrefixes name every spelling of a mutation the serving
// layer exports.
var writeMethodPrefixes = []string{"Ingest", "Retract", "DrainStream"}

func writeMethodsOf(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumMethod(); i++ {
		for _, p := range writeMethodPrefixes {
			if strings.HasPrefix(t.Method(i).Name, p) {
				out = append(out, t.String()+"."+t.Method(i).Name)
			}
		}
	}
	return out
}

// exportedReach lists every type a caller outside the package can
// obtain from a value of type t by selecting exported fields (embedded
// ones included), transitively.
func exportedReach(t reflect.Type, seen map[reflect.Type]bool) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct || seen[t] {
		return
	}
	seen[t] = true
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			exportedReach(f.Type, seen)
		}
	}
}

// TestFollowerHasNoWriteMethods pins read-only-ness as a type fact
// rather than a set of refusing shadows: a *Follower's method set
// (promoted methods included) has no mutation, and neither a Follower
// nor a DurableService hands out — through any exported field — a
// writable Service or anything else with a mutation method, which on a
// replica would diverge it from its leader and on a durable service
// would apply a write the WAL never saw.
func TestFollowerHasNoWriteMethods(t *testing.T) {
	follower := reflect.TypeOf((*pghive.Follower)(nil))
	if w := writeMethodsOf(follower); len(w) > 0 {
		t.Fatalf("a Follower is a read replica, yet it has write methods: %v", w)
	}
	service := reflect.TypeOf((*pghive.Service)(nil)).Elem()
	durable := reflect.TypeOf((*pghive.DurableService)(nil)).Elem()
	for _, root := range []reflect.Type{follower.Elem(), durable} {
		reach := make(map[reflect.Type]bool)
		exportedReach(root, reach)
		delete(reach, root) // its own methods are its contract, checked above
		for ty := range reach {
			if ty == service {
				t.Fatalf("%v reaches a writable %v through exported fields", root, ty)
			}
			if w := writeMethodsOf(reflect.PointerTo(ty)); len(w) > 0 {
				t.Fatalf("%v reaches write methods that bypass it: %v", root, w)
			}
		}
		if !reach[reflect.TypeOf((*pghive.Reader)(nil)).Elem()] {
			t.Fatalf("%v does not expose the shared Reader", root)
		}
	}
}

func TestFollowerTailsAcrossLeaderProgress(t *testing.T) {
	w := newReplicaWorld(t, nil)
	w.writeRound(0, 4)
	f := w.follower()
	ctx := context.Background()
	if err := f.TailOnce(ctx); err != nil { // bootstraps implicitly
		t.Fatal(err)
	}
	prev := f.AppliedLSN()
	for round := 1; round <= 3; round++ {
		w.writeRound(round, 3)
		if err := f.TailOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if got := f.AppliedLSN(); got <= prev {
			t.Fatalf("round %d: applied LSN %d did not advance past %d", round, got, prev)
		}
		prev = f.AppliedLSN()
		if !bytes.Equal(serviceImage(t, w.leader), serviceImage(t, f)) {
			t.Fatalf("round %d: follower image diverged", round)
		}
	}
}

// parkedSegments wraps a backend so that, while armed, every WAL-segment
// Get announces itself on arrived and waits for release.
type parkedSegments struct {
	store.Backend
	armed   atomic.Bool
	arrived chan struct{}
	release chan struct{}
}

func (b *parkedSegments) Get(ctx context.Context, name string) ([]byte, error) {
	if b.armed.Load() && strings.HasPrefix(name, wal.Prefix) {
		b.arrived <- struct{}{}
		<-b.release
	}
	return b.Backend.Get(ctx, name)
}

// TestFollowerConcurrentTailsNeverDiverge: two TailOnce calls that both
// start from the same position — each parked at its first segment fetch
// until the other is inside too — must apply every record once. The
// writer's own LSN decides what is next, under the write lock, so
// whichever call comes second finds its record already applied and
// stops: at most one fault, and the image the leader has.
func TestFollowerConcurrentTailsNeverDiverge(t *testing.T) {
	backend := &parkedSegments{
		Backend: store.NewDir(vfs.NewMemFS(), "/backend"),
		arrived: make(chan struct{}),
		release: make(chan struct{}),
	}
	w := newReplicaWorld(t, backend)
	f := w.follower()
	ctx := context.Background()
	if err := f.Bootstrap(ctx); err != nil { // the empty state, at LSN 0
		t.Fatal(err)
	}
	w.writeRound(0, 6)

	backend.armed.Store(true)
	errs := make(chan error, 2)
	for range 2 {
		go func() { errs <- f.TailOnce(ctx) }()
	}
	<-backend.arrived
	<-backend.arrived
	backend.armed.Store(false)
	close(backend.release)
	failed := 0
	for range 2 {
		if err := <-errs; err != nil {
			failed++
		}
	}

	leaderLSN := w.leader.DurableStats().WALNextLSN - 1
	if got := f.AppliedLSN(); got != leaderLSN {
		t.Fatalf("follower at LSN %d, leader at %d", got, leaderLSN)
	}
	if lb, fb := w.leader.Stats().Batches, f.Stats().Batches; lb != fb {
		t.Fatalf("leader applied %d batches, the follower %d", lb, fb)
	}
	if !bytes.Equal(serviceImage(t, w.leader), serviceImage(t, f)) {
		t.Fatal("concurrent tails left the follower's image different from the leader's")
	}
	if faults := f.Lag(ctx).FetchFaults; failed > 1 || faults > 1 {
		t.Fatalf("%d tails failed and %d faults were counted, want at most one", failed, faults)
	}
}

// faultyGets wraps a backend so reads of matching objects fail or
// truncate according to a schedule; writes pass through untouched.
type faultyGets struct {
	store.Backend
	mu sync.Mutex
	// failNext errors the next n Gets; truncNext returns half the
	// bytes of the next m Gets (a torn fetch).
	failNext  int
	truncNext int
}

func (b *faultyGets) Get(ctx context.Context, name string) ([]byte, error) {
	b.mu.Lock()
	fail, trunc := false, false
	if b.failNext > 0 {
		b.failNext--
		fail = true
	} else if b.truncNext > 0 {
		b.truncNext--
		trunc = true
	}
	b.mu.Unlock()
	if fail {
		return nil, errors.New("injected fetch failure")
	}
	data, err := b.Backend.Get(ctx, name)
	if err != nil {
		return nil, err
	}
	if trunc {
		return data[:len(data)/2], nil
	}
	return data, nil
}

// TestFollowerFetchFaultsNeverDiverge drives a follower through
// failing and truncated segment fetches: every faulted round must
// leave the replica at a consistent prefix (reported loudly), and once
// the faults clear it must converge to the leader's exact image.
func TestFollowerFetchFaultsNeverDiverge(t *testing.T) {
	inner := store.NewDir(vfs.NewMemFS(), "/backend")
	faulty := &faultyGets{Backend: inner}
	w := newReplicaWorld(t, faulty)
	w.writeRound(0, 5)

	f := w.follower()
	ctx := context.Background()
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	bootstrapped := f.AppliedLSN()

	// Phase 1: every segment fetch fails outright.
	faulty.mu.Lock()
	faulty.failNext = 3
	faulty.mu.Unlock()
	if err := f.TailOnce(ctx); err == nil {
		t.Fatal("TailOnce succeeded through a failing backend")
	}
	if got := f.AppliedLSN(); got != bootstrapped {
		t.Fatalf("failed fetches moved the applied LSN %d -> %d", bootstrapped, got)
	}

	// Phase 2: fetches return torn (half-length) segment bytes. The
	// scanner stops at the torn point; the replica applies only the
	// contiguous prefix and keeps the rest for a healthy retry.
	faulty.mu.Lock()
	faulty.failNext, faulty.truncNext = 0, 2
	faulty.mu.Unlock()
	_ = f.TailOnce(ctx) // may or may not error; must not diverge
	midway := f.AppliedLSN()
	if midway < bootstrapped {
		t.Fatalf("torn fetches moved the applied LSN backwards: %d -> %d", bootstrapped, midway)
	}

	// Phase 3: faults clear; the replica converges exactly.
	if err := f.TailOnce(ctx); err != nil {
		t.Fatal(err)
	}
	leaderLSN := w.leader.DurableStats().WALNextLSN - 1
	if got := f.AppliedLSN(); got != leaderLSN {
		t.Fatalf("healed follower at LSN %d, leader at %d", got, leaderLSN)
	}
	if !bytes.Equal(serviceImage(t, w.leader), serviceImage(t, f)) {
		t.Fatal("healed follower image differs from leader")
	}
	lag := f.Lag(ctx)
	if lag.FetchFaults == 0 {
		t.Fatal("injected fetch faults were not reported")
	}
}

// TestFollowerRebootstrapsPastReclaimedSegments parks a follower,
// advances the leader far enough that the backend GC reclaims the
// segments the follower would need next, and verifies the follower
// detects the gap, re-bootstraps from a newer shipped generation, and
// converges instead of serving a hole.
func TestFollowerRebootstrapsPastReclaimedSegments(t *testing.T) {
	w := newReplicaWorld(t, nil)
	w.writeRound(0, 4)

	f := w.follower()
	ctx := context.Background()
	if err := f.TailOnce(ctx); err != nil {
		t.Fatal(err)
	}
	gen1 := f.Lag(ctx).BootstrapGeneration
	parked := f.AppliedLSN()

	// Several more generations: the backend GC deletes segments below
	// the shipped WAL floor, which passes the parked follower's
	// position.
	for round := 1; round <= 4; round++ {
		w.writeRound(round, 4)
	}
	oldest, ok := oldestShippedSegmentLSN(t, w.backend)
	if !ok || oldest <= parked+1 {
		t.Fatalf("backend GC kept segments down to LSN %d; test needs the follower's next record (%d) reclaimed", oldest, parked+1)
	}

	if err := f.TailOnce(ctx); err != nil {
		t.Fatal(err)
	}
	lag := f.Lag(ctx)
	if lag.FetchFaults == 0 {
		t.Fatal("gap below the oldest retained segment was not reported")
	}
	if lag.BootstrapGeneration <= gen1 {
		t.Fatalf("follower did not re-bootstrap: generation still %d", lag.BootstrapGeneration)
	}
	if err := f.TailOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serviceImage(t, w.leader), serviceImage(t, f)) {
		t.Fatal("re-bootstrapped follower image differs from leader")
	}
}

func oldestShippedSegmentLSN(t *testing.T, b store.Backend) (uint64, bool) {
	t.Helper()
	names, err := b.List(context.Background(), "wal/")
	if err != nil {
		t.Fatal(err)
	}
	var oldest uint64
	var ok bool
	for _, n := range names {
		var lsn uint64
		if _, err := fmt.Sscanf(n, "wal/%d.wal", &lsn); err != nil {
			continue
		}
		if !ok || lsn < oldest {
			oldest, ok = lsn, true
		}
	}
	return oldest, ok
}

// TestFollowerBootstrapsFromBareBase: when every shipped manifest is
// torn but the backend still holds the base image, the base is a
// generation of its own — the rule local recovery follows — so a
// follower bootstraps from it and tails the shipped WAL to the leader's
// exact image instead of refusing to start.
func TestFollowerBootstrapsFromBareBase(t *testing.T) {
	ctx := context.Background()
	backend := store.NewDir(vfs.NewMemFS(), "/backend")
	opts := pghive.Options{Seed: 3, Parallelism: 1}
	leader, st := shipBaseAndRun(t, opts, backend)

	names, err := backend.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	torn := 0
	for _, name := range names {
		if _, ok := runfile.ParseManifestSeq(name); !ok {
			continue
		}
		data, err := backend.Get(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Put(ctx, name, data[:len(data)/2]); err != nil {
			t.Fatal(err)
		}
		torn++
	}
	if torn == 0 || !backendObjects(t, backend)[runfile.BaseName(st.BaseLSN)] {
		t.Fatalf("backend holds %d manifests and base %v; the test needs both", torn, backendObjects(t, backend)[runfile.BaseName(st.BaseLSN)])
	}

	f := pghive.NewFollower(opts, backend, pghive.FollowerOptions{})
	defer f.Close()
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatalf("bootstrap with every manifest torn: %v", err)
	}
	if got := f.AppliedLSN(); got != st.BaseLSN {
		t.Fatalf("bootstrapped at LSN %d, want the bare base's %d", got, st.BaseLSN)
	}
	if lag := f.Lag(ctx); lag.BootstrapGeneration != 0 || lag.BootstrapFallbacks != int64(torn) {
		t.Fatalf("lag = %+v, want generation 0 after skipping %d manifests", lag, torn)
	}
	if err := f.TailOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := f.AppliedLSN(), st.WALNextLSN-1; got != want {
		t.Fatalf("follower tailed to LSN %d, leader at %d", got, want)
	}
	if !bytes.Equal(serviceImage(t, f), serviceImage(t, leader)) {
		t.Fatal("follower bootstrapped from a bare base differs from the leader")
	}
}

// shipBaseAndRun opens a leader shipping to backend and writes three
// compaction rounds with MaxRuns 1: round 1 writes a run, round 2 folds
// into a base image, round 3 puts a run on that base. The backend then
// holds two manifest generations and a base image.
func shipBaseAndRun(t *testing.T, opts pghive.Options, backend store.Backend) (*pghive.DurableService, pghive.DurableStats) {
	t.Helper()
	leader, err := pghive.OpenDurable("data", opts, pghive.DurableOptions{
		FS: vfs.NewMemFS(), DisableAutoCompact: true, SegmentBytes: 2048,
		MaxRuns: 1, ShipTo: backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leader.Close() })
	for round := 0; round < 3; round++ {
		if err := durableIngest(leader, stressGraph(t, pghive.ID(1000*round), 20)); err != nil {
			t.Fatal(err)
		}
		if err := leader.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	st := leader.DurableStats()
	if st.BaseLSN == 0 || st.Runs != 1 {
		t.Fatalf("leader generation has base LSN %d and %d runs, want a base and one run", st.BaseLSN, st.Runs)
	}
	return leader, st
}

// failingGets wraps a backend so Gets of the objects fail matches error
// out (a timeout, a 5xx) while fail is set; everything else passes
// through.
type failingGets struct {
	store.Backend
	fail    atomic.Bool
	matches func(name string) bool
}

func (b *failingGets) Get(ctx context.Context, name string) ([]byte, error) {
	if b.fail.Load() && b.matches(name) {
		return nil, errors.New("injected fetch failure")
	}
	return b.Backend.Get(ctx, name)
}

// TestFollowerBootstrapStopsOnFetchFailure: a generation is skipped only
// for what its objects hold or lack. When the backend fails to hand over
// an object — every manifest (the bare base would be next), or the base
// of a fold whose previous generation still recovers — the bootstrap
// fails and counts a fault instead of settling on an older state, and
// the retry after the backend heals lands on the newest generation.
func TestFollowerBootstrapStopsOnFetchFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		// failing advances the leader as the case needs and returns the
		// objects whose Gets fail.
		failing func(t *testing.T, leader *pghive.DurableService) func(string) bool
	}{
		{"every manifest", func(*testing.T, *pghive.DurableService) func(string) bool {
			return func(name string) bool { _, ok := runfile.ParseManifestSeq(name); return ok }
		}},
		{"newest fold's base", func(t *testing.T, leader *pghive.DurableService) func(string) bool {
			// A fourth round folds base + run into a new base; the previous
			// generation (the old base plus its run) stays shipped.
			if err := durableIngest(leader, stressGraph(t, 3000, 20)); err != nil {
				t.Fatal(err)
			}
			if err := leader.Compact(); err != nil {
				t.Fatal(err)
			}
			st := leader.DurableStats()
			if st.Runs != 0 {
				t.Fatalf("fourth round left %d runs, want a fold", st.Runs)
			}
			return func(name string) bool { return name == runfile.BaseName(st.BaseLSN) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			opts := pghive.Options{Seed: 3, Parallelism: 1}
			backend := &failingGets{Backend: store.NewDir(vfs.NewMemFS(), "/backend")}
			leader, _ := shipBaseAndRun(t, opts, backend)
			backend.matches = tc.failing(t, leader)
			st := leader.DurableStats()
			backend.fail.Store(true)

			f := pghive.NewFollower(opts, backend, pghive.FollowerOptions{})
			defer f.Close()
			if err := f.Bootstrap(ctx); err == nil {
				t.Fatalf("bootstrap settled on generation %d at LSN %d through a failing backend",
					f.Lag(ctx).BootstrapGeneration, f.AppliedLSN())
			}
			if lag := f.Lag(ctx); lag.Ready || lag.AppliedLSN != 0 || lag.FetchFaults != 1 {
				t.Fatalf("lag = %+v, want not ready at LSN 0 with one fault", lag)
			}

			backend.fail.Store(false)
			if err := f.TailOnce(ctx); err != nil {
				t.Fatal(err)
			}
			if got := f.Lag(ctx).BootstrapGeneration; got != st.ManifestSeq {
				t.Fatalf("healed bootstrap restored generation %d, want the newest, %d", got, st.ManifestSeq)
			}
			if !bytes.Equal(serviceImage(t, f), serviceImage(t, leader)) {
				t.Fatal("healed follower differs from the leader")
			}
		})
	}
}

// TestFollowerBootstrapMatchesRecoveryFallback runs the damage table
// through a follower reading the damaged data directory itself (it has
// the shipped layout, wal/ included): bootstrap and tail must land on
// the bytes, the LSN, the generation and the fallback count local
// recovery reaches, and refuse where it refuses.
func TestFollowerBootstrapMatchesRecoveryFallback(t *testing.T) {
	fx := newDamageFixture(t)
	for _, tc := range damageCases() {
		t.Run(tc.name, func(t *testing.T) {
			cp := fx.damaged(t, tc)
			// The follower only reads; recovery, which truncates, sweeps and
			// prunes, opens the same directory after it.
			ctx := context.Background()
			f := pghive.NewFollower(fx.opts, store.NewDir(nil, cp), pghive.FollowerOptions{})
			defer f.Close()
			followErr := f.Bootstrap(ctx)
			if followErr == nil {
				followErr = f.TailOnce(ctx)
			}
			rec, recErr := pghive.OpenDurable(cp, fx.opts, fx.dopts)
			if (followErr == nil) != (recErr == nil) {
				t.Fatalf("follower error %v, recovery error %v: they must agree", followErr, recErr)
			}
			if recErr != nil {
				return
			}
			defer rec.Close()
			st, lag := rec.DurableStats(), f.Lag(ctx)
			if lag.BootstrapGeneration != st.ManifestSeq || lag.BootstrapFallbacks != int64(st.RecoveryFallbacks) {
				t.Fatalf("follower bootstrapped generation %d after %d fallbacks, recovery took %d after %d",
					lag.BootstrapGeneration, lag.BootstrapFallbacks, st.ManifestSeq, st.RecoveryFallbacks)
			}
			if got, want := f.AppliedLSN(), st.WALNextLSN-1; got != want {
				t.Fatalf("follower at LSN %d, recovery at %d", got, want)
			}
			if !bytes.Equal(serviceImage(t, f), serviceImage(t, rec)) {
				t.Fatal("follower and recovery reach different images from the same directory")
			}
		})
	}
}
