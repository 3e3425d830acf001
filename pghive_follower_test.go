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
	"testing"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
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
		FS: vfs.NewMemFS(), DisableAutoCompact: true, SegmentBytes: 2048, ShipTo: backend,
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
		if _, err := w.leader.Ingest(stressGraph(w.t, pghive.ID(100000*(round+1)+1000*(i+1)), 30)); err != nil {
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
	if _, err := w.leader.Retract(stressGraph(t, 100000+1000*2, 30)); err != nil {
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
