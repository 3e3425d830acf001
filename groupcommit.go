package pghive

// groupcommit.go is the one commit path, with no goroutine of its own:
// every write — Ingest, Retract, their keyed forms, each batch of a
// DrainStream, on a Service and a DurableService alike — goes through
// writer.write and then writer.submit. A writer waits for the write
// lock and offers its request on the writer's unbuffered hand-off in
// one select. The caller that gets the lock claims whoever else is
// waiting (bounded by maxCommitGroup), commits the group through its
// owner's group step and unlocks; a claimed caller waits for the
// holder's answer. The owners differ only in that step.
//
// write refuses an overlong idempotency key before admission and, for
// a DurableService, encodes the record payload in the caller's
// goroutine, so no encode or compression runs inside the serialized
// section. The durable group step, commitGroup, runs per-request
// admission checks (context expiry, idempotency replay, read-only
// fail-fast), one wal.AppendBatch — N frames, ONE fsync — then applies
// and publishes each batch in log order before acknowledging anyone. It
// applies through writer.apply, the rule recovery, Rearm and a
// follower's tail replay through, so the writer's LSN and the log's
// agree after every group. A lone writer is a group of one: the same
// bytes on disk as a direct wal.Append. A plain Service's step applies
// each request whose context is still live and whose key it has not
// seen at the next LSN, and logs nothing.
//
// Two contracts ride on this path. Durability: no caller is
// acknowledged before the fsync covering its record returns, and a
// failed group fsync rolls every frame of the group back together
// (wal.AppendBatch), so the group fails atomically and each caller may
// retry — idempotency keys make that safe even when the failure was a
// lying fsync. Deadline-bounded admission: until a request is claimed,
// or its caller holds the lock, its context withdraws it — a long
// WriteCheckpoint holding the lock never parks a writer past its
// deadline. A step checks a request's context at admission only, so a
// holder whose own context ends mid-group still commits, and still
// answers everyone it claimed.

import (
	"context"
	"fmt"

	"github.com/pghive/pghive/internal/wal"
)

// maxCommitGroup bounds how many writes share one group (for a durable
// owner, one fsync and one write to the segment). Encoding is not in
// the group: every durable request arrives with its record payload.
const maxCommitGroup = 64

// commitReq is one write awaiting a group. rec.Type says ingest or
// retract for every owner; rec.Payload is the encoded record, nil on a
// plain Service, which keeps no log.
type commitReq struct {
	ctx context.Context
	key string
	g   *Graph
	rec wal.BatchRecord
	// res receives exactly one response; buffered so the holder never
	// blocks on a caller.
	res chan commitRes
}

// commitRes is the group step's answer to one request.
type commitRes struct {
	bt       BatchTiming
	replayed bool
	err      error
}

// submit commits req through the owner's group step and returns its
// answer. The hand-off is unbuffered, so the select in LockContext is
// the admission point: until the request is claimed, or its caller
// holds the lock, ctx withdraws it; once either happens it is always
// answered. The holder claims without blocking: a writer that arrives
// after the claim waits for the next holder, which may be itself.
func (w *writer) submit(ctx context.Context, req *commitReq) commitRes {
	req.ctx, req.res = ctx, make(chan commitRes, 1)
	held, claimed, err := w.mu.LockContext(ctx, w.commits, req)
	if err != nil {
		return commitRes{err: err}
	}
	if !claimed {
		group := []*commitReq{req}
	claim:
		for len(group) < maxCommitGroup {
			select {
			case r := <-w.commits:
				group = append(group, r)
			default:
				break claim
			}
		}
		w.commit(held, group)
		w.mu.Unlock()
	}
	return <-req.res
}

// write is the one write both owners take: it refuses a malformed key
// before admission, encodes the record payload where the owner logs,
// and submits.
func (w *writer) write(ctx context.Context, key string, g *Graph, retract bool) (BatchTiming, bool, error) {
	if len(key) > MaxIdempotencyKeyLen {
		return BatchTiming{}, false, fmt.Errorf("pghive: durable: idempotency key must be 1..%d bytes, got %d", MaxIdempotencyKeyLen, len(key))
	}
	req := &commitReq{key: key, g: g, rec: wal.BatchRecord{Type: walRecIngest}}
	if retract {
		req.rec.Type = walRecRetract
	}
	if w.logs {
		var err error
		if req.rec.Payload, err = encodeWALRecordPayload(key, g); err != nil {
			return BatchTiming{}, false, err
		}
	}
	res := w.submit(ctx, req)
	return res.bt, res.replayed, res.err
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
	groupKeys := make(map[string]int) // key → its request's index in pend
	for _, req := range group {
		if err := req.ctx.Err(); err != nil {
			req.res <- commitRes{err: err}
			continue
		}
		if req.key != "" {
			if lsn, seen := d.w.keys.seen(req.key); seen {
				req.res <- commitRes{bt: BatchTiming{LSN: lsn}, replayed: true}
				continue
			}
			if _, dup := groupKeys[req.key]; dup {
				dups = append(dups, req)
				continue
			}
		}
		if err := d.failFast(held); err != nil {
			req.res <- commitRes{err: err}
			continue
		}
		if req.key != "" {
			groupKeys[req.key] = len(pend)
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
	// In-group duplicates ack only now, with their originals' LSNs:
	// those are durable (the group fsync returned) and applied.
	for _, p := range dups {
		p.res <- commitRes{bt: BatchTiming{LSN: first + uint64(groupKeys[p.key])}, replayed: true}
	}
}
