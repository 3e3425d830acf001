package pghive

// follower.go is the read-replica side of WAL shipping: a Follower
// bootstraps from the newest consistent checkpoint generation a
// storage backend holds — through walkGenerations, the very walk local
// recovery takes, bare-base fallback included — and then tails the
// shipped WAL segments through wal.Replay, the very reader recovery and
// Rearm use, applying each record through writer.replay — the rule
// recovery and Rearm apply through, which is the committer's own
// writer.apply — and publishing each batch with the same atomic-pointer
// snapshot swap. Reads on a follower are therefore indistinguishable
// from reads on the leader at the same LSN — WriteCheckpoint produces
// bit-identical images, and the snapshot states that LSN
// (ServiceStats.LSN, which AppliedLSN and Lag report) — they just lag
// by the shipping horizon (the leader uploads sealed segments at each
// compaction round, never the active one).
//
// Divergence is structurally impossible: the writer owns its log
// position, and replay applies a record only when its LSN is exactly
// that position + 1, checked under the write lock — so neither a torn,
// missing or repeated record nor a second TailOnce racing the first can
// apply anything twice or out of order. Such a record stops the tail —
// counted in FollowerLag.FetchFaults, retried next poll — and when the
// gap can no longer be filled from segments (the backend GC already
// reclaimed them: a wal.PrunedError) the follower re-bootstraps from a
// newer shipped generation. The one thing a follower never does is skip
// a record and keep serving.
//
// A Follower has no write methods at all: its only mutators are
// Bootstrap and TailOnce, which apply what the leader logged. The
// serving layer answers a misdirected write with the machine-readable
// ReadOnlyError contract declared read-only degradation uses, under
// the dedicated ReadOnlyFollower reason.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pghive/pghive/internal/core"
	"github.com/pghive/pghive/internal/runfile"
	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/wal"
)

// ReadOnlyFollower is the ReadOnlyError reason a write misdirected at
// a replica is refused with: the service is a read replica, not a
// degraded leader — writes belong on the leader.
const ReadOnlyFollower = "follower"

// FollowerOptions tunes a read replica.
type FollowerOptions struct {
	// PollInterval is the tail cadence of Start's background loop
	// (default 500ms).
	PollInterval time.Duration
	// LeaderLSN, when set, lets Lag report how far behind the leader
	// the replica is (typically a closure fetching the leader's
	// DurableStats.WALNextLSN). Optional; without it Lag reports only
	// the applied LSN.
	LeaderLSN func(context.Context) (uint64, error)
}

// Follower is a read-only replica of a leader that ships its WAL and
// checkpoints to a storage backend. The embedded Reader — Snapshot,
// Schema, Stats, Validate, renders — serves lock-free exactly as on
// the leader, and is the replica's whole data API: there is nothing to
// write through. Construct with NewFollower, then either call Start
// for the managed bootstrap-and-tail loop or drive Bootstrap/TailOnce
// directly.
type Follower struct {
	*Reader
	w       *writer
	backend store.Backend
	fopts   FollowerOptions

	// ready flips true once a bootstrap completes; until then the
	// replica serves the empty snapshot and /readyz-style probes
	// should report not-ready.
	ready atomic.Bool

	// bootGen / bootFallbacks describe the last bootstrap: the
	// manifest generation restored and how many newer-but-broken
	// generations were skipped to find it.
	bootGen       atomic.Uint64
	bootFallbacks atomic.Int64

	// fetchFaults counts tail rounds stopped by a fetch failure, a
	// torn segment, or an LSN discontinuity; lastFault is the most
	// recent. Every fault is retried on the next round.
	fetchFaults atomic.Int64
	lastFault   atomic.Pointer[string]

	// life ends when Close begins; the replication loop's backend calls
	// run under it, so a backend that never answers cannot hang Close.
	life      context.Context
	cancel    context.CancelFunc
	done      chan struct{}
	startOnce sync.Once
	closeOnce sync.Once
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.PollInterval <= 0 {
		o.PollInterval = 500 * time.Millisecond
	}
	return o
}

// NewFollower returns a follower serving the empty snapshot; no
// backend IO happens until Bootstrap or Start.
func NewFollower(opts Options, backend store.Backend, fopts FollowerOptions) *Follower {
	w, _ := newWriter(opts, nil, 0) // the empty state cannot fail
	f := &Follower{
		Reader:  w.serve(),
		w:       w,
		backend: backend,
		fopts:   fopts.withDefaults(),
	}
	f.life, f.cancel = context.WithCancel(context.Background())
	return f
}

// Ready reports whether a bootstrap has completed — before that the
// replica serves the empty snapshot and should answer readiness probes
// negatively.
func (f *Follower) Ready() bool { return f.ready.Load() }

// AppliedLSN returns the LSN of the last WAL record the published
// state has absorbed: the position the current snapshot states.
func (f *Follower) AppliedLSN() uint64 { return f.Stats().LSN }

// FollowerLag describes how far a replica trails its leader.
type FollowerLag struct {
	// Ready mirrors Follower.Ready.
	Ready bool `json:"ready"`
	// AppliedLSN is the replica's replication position.
	AppliedLSN uint64 `json:"appliedLSN"`
	// LeaderLSN is the last WAL LSN the leader has acknowledged, and
	// Lag the record count between them — both zero when no LeaderLSN
	// source is configured or the leader is unreachable.
	LeaderLSN uint64 `json:"leaderLSN,omitempty"`
	Lag       uint64 `json:"lag,omitempty"`
	// BootstrapGeneration is the shipped manifest generation the
	// replica restored; BootstrapFallbacks counts the newer
	// generations it had to skip (torn or incompletely shipped).
	BootstrapGeneration uint64 `json:"bootstrapGeneration"`
	BootstrapFallbacks  int64  `json:"bootstrapFallbacks,omitempty"`
	// FetchFaults counts tail rounds stopped by a fetch failure, torn
	// segment, or LSN gap (each retried); LastFault is the most
	// recent.
	FetchFaults int64  `json:"fetchFaults,omitempty"`
	LastFault   string `json:"lastFault,omitempty"`
}

// Lag snapshots the replica's replication position. When a LeaderLSN
// source is configured its failure is not an error — the position is
// still reported, with LeaderLSN zero.
func (f *Follower) Lag(ctx context.Context) FollowerLag {
	lag := FollowerLag{
		Ready:               f.ready.Load(),
		AppliedLSN:          f.AppliedLSN(),
		BootstrapGeneration: f.bootGen.Load(),
		BootstrapFallbacks:  f.bootFallbacks.Load(),
		FetchFaults:         f.fetchFaults.Load(),
	}
	if msg := f.lastFault.Load(); msg != nil {
		lag.LastFault = *msg
	}
	if f.fopts.LeaderLSN != nil {
		if lsn, err := f.fopts.LeaderLSN(ctx); err == nil {
			lag.LeaderLSN = lsn
			if lsn > lag.AppliedLSN {
				lag.Lag = lsn - lag.AppliedLSN
			}
		}
	}
	return lag
}

// WriteCheckpoint serializes the replica's state as a restorable image
// (see Service.WriteCheckpoint): at the same applied LSN it is
// byte-identical to the leader's.
func (f *Follower) WriteCheckpoint(w io.Writer) error { return f.w.writeCheckpoint(w) }

// noteFault records one tail/bootstrap fault and returns err.
func (f *Follower) noteFault(err error) error {
	f.fetchFaults.Add(1)
	msg := err.Error()
	f.lastFault.Store(&msg)
	return err
}

// Bootstrap restores the replica from the newest shipped generation
// that fully validates, walking older generations on failure exactly
// like local recovery (the backend keeps the previous generation for
// this), down to a bare base image when no manifest parses. A fetch
// that fails for any reason but absence fails the bootstrap instead —
// counted, and retried by the next TailOnce — so a flaky backend cannot
// push the replica onto an older generation than the newest it holds. A
// backend
// with no manifest and no base yet bootstraps the empty state and tails
// from LSN 1. On success the replica is Ready and positioned at the
// generation's covered LSN; TailOnce picks up from there.
func (f *Follower) Bootstrap(ctx context.Context) error {
	var next *writer
	gen, err := walkGenerations(ctx, f.backend, f.w.opts, func(img *core.Image, _ *runfile.Manifest) (err error) {
		next, err = newWriter(f.w.opts, img, 0)
		return err
	})
	if err != nil {
		return f.noteFault(fmt.Errorf("pghive: follower: %w", err))
	}
	f.bootFallbacks.Store(int64(len(gen.notes)))

	// Reposition the served writer in place: its lock and its Reader are
	// what the rest of the process holds on to.
	f.w.mu.Lock()
	f.w.inc, f.w.resolver, f.w.nextEdgeID, f.w.lsn = next.inc, next.resolver, next.nextEdgeID, next.lsn
	f.w.publish()
	f.w.mu.Unlock()
	f.bootGen.Store(gen.man.Seq)
	f.ready.Store(true)
	return nil
}

// TailOnce fetches and applies every shipped WAL record above the
// replica's position, through wal.Replay — the reader recovery uses,
// with its strict continuity rule. Three outcomes per round: fully
// caught up with the shipped horizon (nil); a fetch fault, torn or
// duplicated record, or LSN gap, counted and left for the next round
// to retry (error); or a wal.PrunedError — the backend GC has
// reclaimed records the replica never saw — which triggers a
// re-bootstrap from a newer shipped generation and a tail from there.
// Records are applied one at a time, each exactly the successor of the
// last. The replica can lag; it cannot diverge.
func (f *Follower) TailOnce(ctx context.Context) error {
	if !f.ready.Load() {
		if err := f.Bootstrap(ctx); err != nil {
			return err
		}
	}
	err := f.tail(ctx)
	var pruned *wal.PrunedError
	if errors.As(err, &pruned) {
		f.noteFault(fmt.Errorf("pghive: follower: %w", err))
		f.ready.Store(false)
		if err := f.Bootstrap(ctx); err != nil {
			return err
		}
		err = f.tail(ctx)
	}
	if err != nil {
		return f.noteFault(fmt.Errorf("pghive: follower: %w", err))
	}
	return nil
}

// tail replays the shipped records above the applied LSN. Each record
// is applied and published under the write lock — the same per-batch
// cadence the leader has — and only if it is still the writer's next,
// so a concurrent tail that applied it first stops this one.
func (f *Follower) tail(ctx context.Context) error {
	return wal.Replay(ctx, f.backend, f.AppliedLSN(), func(rec wal.Record) error {
		f.w.mu.Lock()
		defer f.w.mu.Unlock()
		return f.w.replay(rec)
	})
}

// Start launches the managed replication loop: bootstrap (retried on
// the poll cadence until the backend yields a consistent generation),
// then TailOnce every PollInterval until Close. Faults never stop the
// loop — they are counted in Lag and retried.
func (f *Follower) Start() {
	f.startOnce.Do(func() {
		f.done = make(chan struct{})
		go func() {
			defer close(f.done)
			t := time.NewTicker(f.fopts.PollInterval)
			defer t.Stop()
			_ = f.TailOnce(f.life)
			for {
				select {
				case <-f.life.Done():
					return
				case <-t.C:
					_ = f.TailOnce(f.life)
				}
			}
		}()
	})
}

// Close stops the replication loop. The follower keeps serving its
// last published snapshot.
func (f *Follower) Close() error {
	f.closeOnce.Do(func() {
		f.cancel()
		if f.done != nil {
			<-f.done
		}
	})
	return nil
}
