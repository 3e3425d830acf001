package pghive

// Interleavings of a compaction round with everything that can happen
// around it, each driven deterministically and each ending in the
// oracle of compact_round_internal_test.go: writes landing while the
// round is parked off-lock, rounds that fail at the run write, the
// manifest write and the rename, a crash and recovery before the
// round, a broken-WAL degradation and Rearm before it, and a load
// that overflows the round's bound.

import (
	"context"
	"strings"
	"testing"

	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
)

var interleaveOpts = Options{Seed: 5, Parallelism: 1}

func noCoverage() *liftCoverage { return &liftCoverage{folds: map[string]int{}} }

// grow ingests one labeled batch shaped by arg.
func (s *liftScript) grow(step string, arg byte) {
	s.t.Helper()
	s.ingest(step, s.batch(arg, "Person", map[string]Value{"name": Str("n")}), "")
}

// TestLiftedDeltaIgnoresWritesDuringRound: the round's delta is fixed
// when the write lock is released. Writes that land while the
// compactor is parked at the start of its off-lock phase — an ingest,
// and a retraction of elements the round itself covers — change
// neither the run being written nor what the next round lifts.
func TestLiftedDeltaIgnoresWritesDuringRound(t *testing.T) {
	s := newLiftScript(t, interleaveOpts, DurableOptions{MaxRuns: 1 << 20, MaxTombstoneRatio: 1e9}, noCoverage())
	defer func() { s.d.Close() }()
	s.grow("setup", 4)
	s.compact("first round")
	s.grow("covered by the parked round", 9)
	covered := len(s.live) - 1

	entered, release := make(chan struct{}), make(chan struct{})
	s.d.compactTestHook = func() {
		close(entered)
		<-release
	}
	// The oracle's "after" for the parked round is the state now: no
	// write can land between this capture and the round's lift.
	atLift := s.capture()
	done := make(chan error, 1)
	go func() { done <- s.d.Compact() }()
	<-entered
	s.grow("during the round", 13)
	s.retract("during the round", covered)
	s.d.compactTestHook = nil
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := s.d.CheckpointLSN(); got != atLift.WALSeq {
		t.Fatalf("parked round covers LSN %d, want the %d applied when it lifted", got, atLift.WALSeq)
	}
	s.checkRound("parked round", atLift)
	// What landed during the round is the next round's, whole.
	s.compact("next round")
	s.reopen("end")
}

// TestFailedRoundHandsItsChangeBack: a round that fails before the
// manifest swap — at the run write, the manifest write, or either
// rename — leaves the store writable, and the next round's run covers
// the failed span as well as its own (one contiguous run, equal to
// the diff across both), and the directory recovers to the live image.
func TestFailedRoundHandsItsChangeBack(t *testing.T) {
	prefix := func(s *liftScript) {
		s.grow("setup", 4)
		s.grow("setup", 7)
		s.compact("first round")
		s.grow("failed span", 9)
		s.retract("failed span", 0)
	}
	for _, tc := range []struct {
		name  string
		fault func(before [8]int) vfs.Fault
		names string // what the round's error must mention
	}{
		{"run write", func(b [8]int) vfs.Fault { return vfs.Fault{Op: vfs.OpOpen, N: b[vfs.OpOpen] + 1} }, "run-"},
		{"run short write", func(b [8]int) vfs.Fault {
			return vfs.Fault{Op: vfs.OpWrite, N: b[vfs.OpWrite] + 1, Mode: vfs.ShortWrite}
		}, "run-"},
		{"run rename", func(b [8]int) vfs.Fault { return vfs.Fault{Op: vfs.OpRename, N: b[vfs.OpRename] + 1} }, "run-"},
		{"manifest write", func(b [8]int) vfs.Fault { return vfs.Fault{Op: vfs.OpOpen, N: b[vfs.OpOpen] + 2} }, "manifest-"},
		{"manifest rename", func(b [8]int) vfs.Fault { return vfs.Fault{Op: vfs.OpRename, N: b[vfs.OpRename] + 2} }, "manifest-"},
		{"manifest rename lands, reports failure", func(b [8]int) vfs.Fault {
			return vfs.Fault{Op: vfs.OpRename, N: b[vfs.OpRename] + 2, Mode: vfs.FailLate}
		}, "manifest-"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dopts := DurableOptions{NoSync: true, MaxRuns: 1 << 20, MaxTombstoneRatio: 1e9}
			// Probe: the same prefix fault-free, to learn how many
			// operations of each kind precede the round.
			probe := vfs.NewPlan()
			mem := vfs.NewMemFS()
			dopts.FS = vfs.NewInjectFS(mem, probe)
			ps := newLiftScriptOn(t, interleaveOpts, dopts, noCoverage(), mem)
			prefix(ps)
			before := probe.Ops()
			ps.d.Close()

			plan := vfs.NewPlan(tc.fault(before))
			mem = vfs.NewMemFS()
			dopts.FS = vfs.NewInjectFS(mem, plan)
			s := newLiftScriptOn(t, interleaveOpts, dopts, noCoverage(), mem)
			defer func() { s.d.Close() }()
			prefix(s)
			gen := s.d.DurableStats()
			err := s.d.Compact()
			if err == nil || len(plan.Fired()) != 1 {
				t.Fatalf("faulted round: err %v, faults fired %v", err, plan.Fired())
			}
			if !strings.Contains(err.Error(), tc.names) {
				t.Fatalf("faulted round failed with %q, want a failure writing %s*", err, tc.names)
			}
			if st := s.d.DurableStats(); st.CheckpointLSN != gen.CheckpointLSN || st.ManifestSeq != gen.ManifestSeq || st.Rounds != gen.Rounds {
				t.Fatalf("failed round moved the generation: %+v -> %+v", gen, st)
			}
			s.grow("after the failed round", 11)
			// s.before is still the image of the last round that
			// succeeded, so this checks one run across both spans.
			s.compact("round after the failure")
			if st := s.d.DurableStats(); st.Runs != gen.Runs+1 || st.CheckpointLSN != s.d.Stats().LSN {
				t.Fatalf("round after the failure: %d -> %d runs, covers LSN %d of %d", gen.Runs, st.Runs, st.CheckpointLSN, s.d.Stats().LSN)
			}
			s.reopen("end")
			s.grow("after reopen", 3)
			s.compact("round after reopen")
		})
	}
}

// TestFirstRoundAfterRecoveryLiftsTheTail: the recovered generation's
// image is the first round's base and replaying the WAL tail moves the
// state past it, so the first round after a crash writes exactly the
// tail's delta.
func TestFirstRoundAfterRecoveryLiftsTheTail(t *testing.T) {
	mem := vfs.NewMemFS()
	s := newLiftScriptOn(t, interleaveOpts, DurableOptions{FS: mem, MaxRuns: 1 << 20, MaxTombstoneRatio: 1e9}, noCoverage(), mem)
	defer func() { s.d.Close() }()
	s.grow("setup", 4)
	s.grow("setup", 8)
	s.compact("first round")
	// The tail: growth, a retraction reaching below the checkpoint, and
	// churn that nets out — all only in the WAL when the machine dies.
	s.grow("tail", 9)
	s.retract("tail", 0)
	s.grow("tail", 12)
	s.retract("tail", len(s.live)-1)
	covered := s.d.CheckpointLSN()
	if err := s.d.Close(); err != nil {
		t.Fatal(err)
	}
	mem.Crash()
	s.open()
	if got := s.d.CheckpointLSN(); got != covered {
		t.Fatalf("recovered generation covers LSN %d, want %d", got, covered)
	}
	s.compact("first round after recovery")
	if st := s.d.DurableStats(); st.LastRound.Folded || st.LastRound.Tombstones == 0 {
		t.Fatalf("first round after recovery: %+v, want a run carrying the tail's tombstones", st.LastRound)
	}
}

// TestRearmThenCompactLiftsWhatReplayApplied: a write whose append
// broke the WAL is reconciled by Rearm — applied from the log if its
// frame survived — through the same apply rule the writes use; the
// round after it writes the state the service actually holds.
func TestRearmThenCompactLiftsWhatReplayApplied(t *testing.T) {
	dopts := DurableOptions{MaxRuns: 1 << 20, MaxTombstoneRatio: 1e9}
	prefix := func(s *liftScript) {
		s.grow("setup", 4)
		s.compact("first round")
		s.grow("before the fault", 6)
	}
	probe := vfs.NewPlan()
	mem := vfs.NewMemFS()
	dopts.FS = vfs.NewInjectFS(mem, probe)
	ps := newLiftScriptOn(t, interleaveOpts, dopts, noCoverage(), mem)
	prefix(ps)
	before := probe.Ops()
	ps.d.Close()

	// The append's fsync persists the frame but reports failure, and
	// the rollback cannot truncate it away: the log is broken with the
	// frame of a write the caller was told failed still on disk.
	plan := vfs.NewPlan(
		vfs.Fault{Op: vfs.OpSync, N: before[vfs.OpSync] + 1, Mode: vfs.FailLate},
		vfs.Fault{Op: vfs.OpTruncate, N: before[vfs.OpTruncate] + 1, Mode: vfs.FailEarly},
	)
	mem = vfs.NewMemFS()
	dopts.FS = vfs.NewInjectFS(mem, plan)
	s := newLiftScriptOn(t, interleaveOpts, dopts, noCoverage(), mem)
	defer func() { s.d.Close() }()
	prefix(s)
	g := s.batch(9, "Person", map[string]Value{"name": Str("n")})
	if _, _, err := s.d.IngestIdempotent(context.Background(), "indeterminate", g); err == nil {
		t.Fatal("faulted ingest succeeded")
	}
	if reason, _ := s.d.Degraded(); reason != DegradeWALBroken {
		t.Fatalf("degraded %q, want %q", reason, DegradeWALBroken)
	}
	// A round while degraded covers what the state holds — not the
	// frame it never absorbed.
	s.compact("round while degraded")
	if err := s.d.Rearm(); err != nil {
		t.Fatal(err)
	}
	// The frame survived, so Rearm applied it and the client's retry is
	// recognized: the state holds the write through replay alone.
	if _, replayed, err := s.d.IngestIdempotent(context.Background(), "indeterminate", g); err != nil || !replayed {
		t.Fatalf("retry after rearm: replayed %v, err %v; want the resurrected frame recognized", replayed, err)
	}
	s.live = append(s.live, g)
	s.grow("after rearm", 3)
	s.compact("round after rearm")
	s.reopen("end")
	s.compact("round after reopen")
}

// TestDirtyOverflowCapturesWhole: a load that outgrows the round's
// bound makes the round write the captured state whole as a base —
// equal to the captured image, like any fold — and the rounds after it
// write runs again. A failed overflow round stays overflowed.
func TestDirtyOverflowCapturesWhole(t *testing.T) {
	s := newLiftScript(t, interleaveOpts, DurableOptions{MaxRuns: 1 << 20, MaxTombstoneRatio: 1e9}, noCoverage())
	defer func() { s.d.Close() }()
	s.grow("setup", 4)
	s.compact("first round")
	for i := 0; i < 5; i++ {
		s.ingest("bulk load", internalStressGraph(t, ID(1<<20+10_000*i), 500), "")
	}
	s.retract("bulk load", 0)

	// The round fails at its base-image write: the load it took had
	// overflowed, and so has the one handed back.
	healthy := s.d.local
	s.d.local = store.NewDir(vfs.NewInjectFS(s.mem, vfs.NewPlan(vfs.Fault{Op: vfs.OpOpen, N: 1})), s.d.dir)
	if err := s.d.Compact(); err == nil || !strings.Contains(err.Error(), "atomic write") {
		t.Fatalf("faulted overflow round: %v, want its base-image write to fail", err)
	}
	s.d.local = healthy
	s.grow("after the failed round", 5)
	s.compact("overflow round")
	if st := s.d.DurableStats(); st.LastRound.FoldReason != FoldDirtyOverflow || st.Runs != 0 {
		t.Fatalf("round after a bulk load: %+v with %d runs, want a dirty-overflow fold", st.LastRound, st.Runs)
	}
	s.grow("steady state", 6)
	s.retract("steady state", 0)
	s.compact("round after the overflow")
	if st := s.d.DurableStats(); st.LastRound.Folded || st.Runs != 1 {
		t.Fatalf("round after the overflow round: %+v with %d runs, want a run", st.LastRound, st.Runs)
	}
	s.reopen("end")
}
