package pghive

// ship.go uploads the durable layer's artifacts to a storage backend
// (internal/store) so read-only followers can bootstrap and tail the
// leader without sharing its filesystem. A shipping round runs under
// compactMu — at OpenDurable and inside every Compact — and uploads,
// in this order: sealed WAL segments (under wal.Prefix, named by
// wal.SegmentName), then the current checkpoint generation's data
// files (base image, delta runs), then its manifest LAST, so a
// follower that can fetch a manifest can always fetch every file it
// references; a torn round leaves at worst an unreferenced data
// object, never a dangling manifest. The data directory has the
// shipped layout, so every object is read from it through a store.Dir
// and uploaded under its own name, and a follower reads the backend
// with the readers recovery uses on the directory.
//
// The ship watermark is the highest LSN L such that every record up
// to L is durable in the backend — the shipped generation's coverage
// extended by the contiguous uploaded sealed segments above it. While
// shipping is enabled, the local sweep drops no WAL segment above
// min(WAL floor, watermark): a backend outage must stall reclamation
// loudly, never create records followers can no longer fetch. The
// watermark is persisted in each new manifest (Manifest.ShippedLSN) so
// a restart keeps honoring it before the first round completes. Each
// store is collected by the one collector (collect) with its own two
// generations: the local sweep keeps the data directory's, the backend
// GC the two newest shipped, and each drops the WAL segments below
// those generations' floor.
//
// Shipping failures never fail a compaction and never degrade the
// write path — they are counted in DurableStats (ShipFailures /
// LastShipError) and retried next round, while the retained WAL keeps
// the backend recoverable.

import (
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"slices"

	"github.com/pghive/pghive/internal/runfile"
	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/wal"
)

// shipper tracks what the backend durably holds. All fields are
// guarded by DurableService.compactMu (shipping rounds and compaction
// serialize on it).
type shipper struct {
	backend store.Backend
	// uploaded is the set of object names present in the backend,
	// seeded from a List on the first round, maintained by every Put
	// and Delete after that.
	uploaded map[string]bool
	// watermark is the highest LSN proven durable in the backend (see
	// the file comment); it only advances.
	watermark uint64
	// man / prevMan are the newest and previous fully-uploaded
	// generations — the backend GC keeps both, mirroring the local
	// two-generation fallback rule.
	man     *runfile.Manifest
	prevMan *runfile.Manifest

	faults // failed uploads and deletions
}

// shipRound uploads everything the backend is missing and advances
// the watermark. A failure is counted and stops the current step (later
// rounds retry), but the watermark still advances over what did upload.
// The backend calls run under the service's lifetime: the round holds
// compactMu across them, so Close must be able to end them.
func (d *DurableService) shipRound(held compactHeld) {
	s, ctx := d.ship, d.life
	if s == nil {
		return
	}

	// Seed the uploaded set from the backend once per process: objects
	// a previous incarnation shipped need not ship again.
	if s.uploaded == nil {
		names, err := s.backend.List(ctx, "")
		if err != nil {
			s.note(fmt.Errorf("pghive: ship: list backend: %w", err))
			return
		}
		s.uploaded = make(map[string]bool, len(names))
		for _, n := range names {
			s.uploaded[n] = true
		}
	}

	// upload copies one object of the data directory, which has the
	// shipped layout, to the backend under the same name.
	upload := func(obj string) error {
		data, err := d.local.Get(ctx, obj)
		if err == nil {
			err = s.backend.Put(ctx, obj, data)
		}
		if err == nil {
			s.uploaded[obj] = true
		}
		return err
	}

	// Sealed segments, in LSN order (sealed files are immutable, so an
	// object present in the backend is complete and final).
	sealed := d.wal().Sealed()
	for _, seg := range sealed {
		obj := wal.Prefix + filepath.Base(seg.Path)
		if s.uploaded[obj] {
			continue
		}
		if err := upload(obj); err != nil {
			s.note(fmt.Errorf("pghive: ship: segment %s: %w", obj, err))
			break
		}
	}

	// The current generation: data files first, manifest last.
	if cur := d.man; cur.Seq > 0 && (s.man == nil || s.man.Seq < cur.Seq) {
		shipped := true
		for f := range cur.Files() {
			if s.uploaded[f] {
				continue
			}
			if err := upload(f); err != nil {
				s.note(fmt.Errorf("pghive: ship: %s: %w", f, err))
				shipped = false
				break
			}
		}
		if shipped {
			mf := runfile.ManifestName(cur.Seq)
			if err := upload(mf); err != nil {
				s.note(fmt.Errorf("pghive: ship: %s: %w", mf, err))
				shipped = false
			}
		}
		if shipped {
			s.prevMan, s.man = s.man, cur
		}
	}

	// Advance the watermark over what is now proven durable: the
	// shipped generation's coverage plus the contiguous uploaded
	// segments above it.
	if s.man != nil && s.man.Covered() > s.watermark {
		s.watermark = s.man.Covered()
	}
	for _, seg := range sealed {
		if !s.uploaded[wal.Prefix+filepath.Base(seg.Path)] {
			break
		}
		if seg.First <= s.watermark+1 && seg.Last > s.watermark {
			s.watermark = seg.Last
		}
	}

	d.shipGC(held, ctx)
}

// shipGC deletes backend objects no follower can need anymore: collect,
// the sweep's collector, with the two newest shipped generations' Keep
// set and WAL floor (the floor a follower falling back one generation
// still replays from). Best effort — failures are counted and the
// objects retried next round.
func (d *DurableService) shipGC(_ compactHeld, ctx context.Context) {
	s := d.ship
	if s == nil || s.man == nil {
		return
	}
	names := slices.Sorted(maps.Keys(s.uploaded))
	for _, obj := range collect(ctx, s.backend, names, runfile.Keep(s.man, s.prevMan), runfile.Floor(s.man, s.prevMan), func(err error) {
		s.note(fmt.Errorf("pghive: ship: %w", err))
	}) {
		delete(s.uploaded, obj)
	}
}
