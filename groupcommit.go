package pghive

// groupcommit.go is the one durable commit path: every durable write —
// Ingest, Retract, each batch of a DrainStream — goes through it.
// Callers never take the write lock themselves: they hand a commit
// request to a committer goroutine and block until it answers. The
// caller encodes its record payload in its own goroutine, before the
// hand-off, so no encode or compression runs inside the serialized
// section. The committer takes the channel-based write lock, claims
// whoever else is waiting (bounded by maxCommitGroup), and commits the
// group: per-request admission checks (context expiry, idempotency
// replay, read-only fail-fast), one wal.AppendBatch — N frames, ONE
// fsync — then applies and publishes each batch in log order before
// acknowledging anyone. It applies through writer.apply, the rule
// recovery, Rearm and a follower's tail replay through, so the writer's
// LSN and the log's agree after every group. A lone writer is a group
// of one: one frame, one fsync, the same bytes on disk as a direct
// wal.Append.
//
// Two contracts ride on this path. Durability: no caller is
// acknowledged before the fsync covering its record returns, and a
// failed group fsync rolls every frame of the group back together
// (wal.AppendBatch), so the group fails atomically and each caller may
// retry — idempotency keys make that safe even when the failure was a
// lying fsync. Deadline-bounded admission: until the committer holds
// the write lock with a request in hand, that request's context can
// still end the wait with nothing logged or applied — a long
// WriteCheckpoint holding the lock never parks a writer past its
// deadline.

import (
	"context"

	"github.com/pghive/pghive/internal/wal"
)

// maxCommitGroup bounds how many writes share one fsync (and how many
// frames the one write to the segment carries). Encoding is not in the
// group: every request arrives with its record payload.
const maxCommitGroup = 64

// commitReq is one durable write awaiting the committer, its record
// already encoded.
type commitReq struct {
	ctx context.Context
	key string
	g   *Graph
	rec wal.BatchRecord
	// res receives exactly one response; buffered so the committer
	// never blocks on a caller.
	res chan commitRes
}

// commitRes is the committer's answer to one request.
type commitRes struct {
	bt       BatchTiming
	replayed bool
	err      error
}

// submitCommit encodes one durable write's record, hands the write to
// the committer and blocks for its outcome. A malformed key is refused
// here, before admission. The hand-off is unbuffered, so the select is
// the admission point: until the committer receives the request, ctx
// (or Close) withdraws it; once received it is always answered — the
// committer watches req.ctx on the caller's behalf until it holds the
// write lock, and after that the write is happening regardless.
func (d *DurableService) submitCommit(ctx context.Context, key string, g *Graph, retract bool) (BatchTiming, bool, error) {
	payload, err := encodeWALRecordPayload(key, g)
	if err != nil {
		return BatchTiming{}, false, err
	}
	rec := wal.BatchRecord{Type: walRecIngest, Payload: payload}
	if retract {
		rec.Type = walRecRetract
	}
	req := &commitReq{ctx: ctx, key: key, g: g, rec: rec, res: make(chan commitRes, 1)}
	select {
	case d.commitCh <- req:
		res := <-req.res
		return res.bt, res.replayed, res.err
	case <-ctx.Done():
		return BatchTiming{}, false, ctx.Err()
	case <-d.life.Done():
		return BatchTiming{}, false, &DurabilityError{Err: wal.ErrClosed}
	}
}

// commitLoop is the committer goroutine: receive a request, take the
// write lock, claim the other waiting requests, commit the group,
// repeat. Every request it receives is answered, so shutdown strands
// nobody: callers not yet received see d.life end in their own select.
func (d *DurableService) commitLoop() {
	defer close(d.commitDone)
	for {
		select {
		case <-d.life.Done():
			return
		case req := <-d.commitCh:
			// The lock wait is bounded by the deadline of the request in
			// hand; the callers still parked in their hand-off select
			// each watch their own.
			held, err := d.w.mu.LockContext(req.ctx)
			if err != nil {
				req.res <- commitRes{err: err}
				continue
			}
			group := []*commitReq{req}
		claim:
			for len(group) < maxCommitGroup {
				select {
				case r := <-d.commitCh:
					group = append(group, r)
				default:
					break claim
				}
			}
			d.commitGroup(held, group)
			d.w.mu.Unlock()
		}
	}
}

// commitGroup commits one group: filter, one AppendBatch, apply
// in log order, acknowledge.
func (d *DurableService) commitGroup(held writeHeld, group []*commitReq) {
	// Admission per request. A key already in w.keys is durably applied
	// from an earlier group — safe to ack replayed immediately. groupKeys
	// catches two requests carrying the same idempotency key inside one
	// group: the first proceeds; the second is a replay of a write that
	// is not durable yet, so its ack is deferred until the group's fsync
	// succeeds (and it fails with the group on append error) — never an
	// ack without durability.
	var pend, dups []*commitReq
	var recs []wal.BatchRecord
	groupKeys := make(map[string]bool)
	for _, req := range group {
		if err := req.ctx.Err(); err != nil {
			req.res <- commitRes{err: err}
			continue
		}
		if req.key != "" {
			if _, seen := d.w.keys.seen(req.key); seen {
				req.res <- commitRes{replayed: true}
				continue
			}
			if groupKeys[req.key] {
				dups = append(dups, req)
				continue
			}
		}
		if err := d.failFast(held); err != nil {
			req.res <- commitRes{err: err}
			continue
		}
		if req.key != "" {
			groupKeys[req.key] = true
		}
		pend = append(pend, req)
		recs = append(recs, req.rec)
	}
	if len(pend) == 0 {
		return
	}

	// One durability point for the whole group. Failure is group-wide
	// (AppendBatch rolled every frame back): each caller gets the
	// error and may retry individually — including the in-group
	// duplicates, whose originals are not durable either.
	first, err := d.wal().AppendBatch(recs)
	if err != nil {
		d.maybeDegrade(held, err)
		for _, p := range pend {
			p.res <- commitRes{err: &DurabilityError{Err: err}}
		}
		for _, p := range dups {
			p.res <- commitRes{err: &DurabilityError{Err: err}}
		}
		return
	}

	// Apply in log order through the rule replay uses, publishing per
	// batch — concurrent readers see one snapshot per batch, whatever the
	// grouping, each stating its LSN.
	for i, p := range pend {
		p.res <- commitRes{bt: d.w.apply(first+uint64(i), p.key, p.g, p.rec.Type == walRecRetract)}
	}
	// In-group duplicates ack only now: their originals are durable
	// (the group fsync returned) and applied.
	for _, p := range dups {
		p.res <- commitRes{replayed: true}
	}
}
