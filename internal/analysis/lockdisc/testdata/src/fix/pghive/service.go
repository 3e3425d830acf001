// Package pghive seeds lock-discipline violations beside the blessed
// idioms (in lockdisc scope by package name).
package pghive

import (
	"context"
	"sync"
	"sync/atomic"
)

// Snapshot is an immutable published state.
type Snapshot struct{ N int }

// Reader mirrors the published read side.
type Reader struct {
	snap atomic.Pointer[Snapshot]
}

// DurableService mirrors the real durable service's locking shape.
type DurableService struct {
	*Reader
	mu   sync.Mutex
	once sync.Once
	n    int
}

// lockCtx mirrors the channel-based writeLock.
type lockCtx chan struct{}

func (l lockCtx) LockContext(ctx context.Context) error {
	select {
	case l <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
func (l lockCtx) Unlock() { <-l }

// noteAppliedLocked requires the write lock, by name.
func (s *DurableService) noteAppliedLocked() { s.n++ }

// publishLocked swaps the snapshot in — the blessed publication path.
func (s *DurableService) publishLocked() {
	s.snap.Store(&Snapshot{N: s.n})
}

// GoodDrain acquires the lock before calling the helper.
func (s *DurableService) GoodDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noteAppliedLocked()
	s.publishLocked()
}

// GoodDrainContext acquires via LockContext, the deadline-bounded
// acquisition path.
func (s *DurableService) GoodDrainContext(ctx context.Context, l lockCtx) error {
	if err := l.LockContext(ctx); err != nil {
		return err
	}
	defer l.Unlock()
	s.noteAppliedLocked()
	return nil
}

// commitGroupLocked is itself *Locked, so calling deeper helpers is fine.
func (s *DurableService) commitGroupLocked() {
	s.noteAppliedLocked()
	s.publishLocked()
}

// GoodOnce locks inside a function literal — the sync.Once.Do close
// idiom; the lexical body still contains the acquisition.
func (s *DurableService) GoodOnce() {
	s.once.Do(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.noteAppliedLocked()
	})
}

// BadDrain calls a *Locked helper with no lock in sight.
func (s *DurableService) BadDrain() {
	s.noteAppliedLocked() // want `use of noteAppliedLocked in BadDrain`
}

// BadReference passes a *Locked method as a callback without holding
// the lock — the replay-callback trap.
func (s *DurableService) BadReference(replay func(func())) {
	replay(s.commitGroupLocked) // want `use of commitGroupLocked in BadReference`
}

// UnsafeService publishes through a plain field — no atomic swap.
type UnsafeService struct {
	mu   sync.Mutex
	n    int
	snap *Snapshot
}

// BadPublish writes the snapshot field directly; even under the lock
// this races lock-free readers.
func (u *UnsafeService) BadPublish() {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.snap = &Snapshot{N: u.n} // want `direct write to snapshot field snap`
}
