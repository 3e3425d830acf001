// Package wal implements a segmented, checksummed append-only
// write-ahead log. Callers append typed binary records; each record
// is stamped with a monotonically increasing log sequence number
// (LSN), length-prefixed, and protected by a CRC, so a reader can
// always tell a complete record from the torn tail a crash (or a
// lying disk) leaves behind. The log is split into segment files that
// rotate at a size threshold. The directory is the segment list: the
// log keeps none of its own, Open reads only the newest segment, and
// Sealed reads the rest from the names. A store whose checkpoints cover
// a prefix of the log drops the segments that prefix covers by one rule
// (Reclaimable), never the newest.
//
// The package is payload-agnostic: record types are caller-defined
// bytes and payloads are opaque. Durability policy is per-log: by
// default every append is fsynced before it returns; Options.NoSync
// trades power-loss durability for speed (process crashes are still
// safe — the OS page cache survives kill -9).
//
// On-disk format. Every segment starts with an 8-byte magic and holds
// a sequence of frames:
//
//	u32 length   = 9 + len(payload)        (little endian)
//	u32 crc      = CRC-32C of the body
//	body         = u64 LSN | u8 type | payload
//
// A frame whose length is implausible, whose bytes are incomplete, or
// whose CRC does not match ends the readable prefix of its segment:
// scanning stops there, and Open truncates the final segment at that
// point so appends continue after the last durable record.
//
// Segments are named SegmentName(first LSN) and live under Prefix: in
// a data directory the log is the subdirectory Prefix names, and a
// shipping backend holds each segment as the object Prefix+name. So one
// reader and one retention rule serve both: Replay walks the segments
// of a store.Backend — store.Dir over a data directory for recovery,
// the leader's backend for a follower — with one start rule and one
// continuity rule, and Reclaimable picks the segments either store
// drops, from the same parse of their names.
package wal

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
)

const (
	// DefaultSegmentBytes is the rotation threshold used when
	// Options.SegmentBytes is zero.
	DefaultSegmentBytes = 8 << 20
	// MaxRecordBytes bounds a single frame. A corrupted length field
	// almost never passes the CRC, but the bound keeps a scanner from
	// attempting gigabyte reads before finding out.
	MaxRecordBytes = 1 << 30

	frameHeaderLen = 8 // u32 length + u32 crc
	bodyFixedLen   = 9 // u64 lsn + u8 type

	segSuffix = ".wal"
)

// Prefix is the object-name prefix of a segment in a store.Backend;
// without its slash it is the subdirectory of a data directory that
// holds the log.
const Prefix = "wal/"

// segMagic identifies (and versions) a segment file.
var segMagic = []byte("PGHWAL1\n")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Options configures a log.
type Options struct {
	// SegmentBytes is the rotation threshold: an append that would
	// grow the active segment past it seals the segment and starts a
	// new one (a single oversized record still gets a segment to
	// itself). Zero selects DefaultSegmentBytes.
	SegmentBytes int64
	// NoSync skips the per-append fsync. Appends remain safe against
	// process crashes (kill -9) but not against power loss.
	NoSync bool
	// MinLSN floors the next LSN Open assigns. A caller that restored
	// a checkpoint covering LSNs up to C must pass C+1: if every
	// segment the checkpoint superseded was pruned, a fresh log would
	// otherwise restart numbering at 1 and new records would hide
	// behind the checkpoint's replay filter.
	MinLSN uint64
	// FS is the filesystem the log lives on; nil selects the real OS.
	// Tests substitute vfs.MemFS / vfs.InjectFS to prove the log
	// survives hostile disks.
	FS vfs.FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// Record is one logged mutation.
type Record struct {
	// LSN is the record's log sequence number; consecutive records
	// have consecutive LSNs, starting at 1 (or Options.MinLSN).
	LSN uint64
	// Type is the caller-defined record type.
	Type byte
	// Payload is the caller's opaque payload. During replay the slice
	// is only valid for the duration of the callback.
	Payload []byte
}

// SegmentInfo describes one segment file.
type SegmentInfo struct {
	// Path is the segment file path.
	Path string
	// First and Last are the segment's LSN range (inclusive); zero
	// for a segment holding no complete records.
	First, Last uint64
	// Records counts complete records.
	Records int
	// Bytes is the readable prefix length, magic included.
	Bytes int64
}

// Log is a segmented write-ahead log rooted in one directory. Append,
// Rotate, Sealed and Close are safe for concurrent use. A Log only
// writes; Replay reads.
type Log struct {
	dir  string
	opts Options
	fs   vfs.FS

	mu         sync.Mutex
	closed     bool
	broken     bool // a failed append could not be rolled back
	active     vfs.File
	activeInfo SegmentInfo
	nextLSN    uint64

	// syncs counts successful fsyncs of the active segment — the
	// denominator of group-commit efficiency (records acked per fsync).
	syncs atomic.Uint64
}

// logHeld witnesses a hold of a Log's mu: only lock mints one, so the
// helpers that take it cannot be reached without the mutex. A witness
// outlives its Unlock; keep it in the scope of the hold.
type logHeld struct{}

func (l *Log) lock() logHeld { l.mu.Lock(); return logHeld{} }

// Open opens the log in dir (creating it if needed) and returns it
// positioned to append after the last durable record. It reads only the
// newest segment: it truncates that segment's torn tail and reopens it
// for appending when it has room. A newest segment holding no complete
// record carries no state and its name could collide with the next
// segment the log creates, so Open drops it and reads the one before.
// The older segments are the directory's, not Open's: Replay checks
// them. Leftover temporary files from interrupted atomic writes are
// removed.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	fsys := vfs.OrOS(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := dirSegments(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if tmps, err := fsys.Glob(filepath.Join(dir, "*"+vfs.TmpSuffix)); err == nil {
		for _, t := range tmps {
			fsys.Remove(t)
		}
	}

	l := &Log{dir: dir, opts: opts, fs: fsys, nextLSN: max(1, opts.MinLSN)}
	var tail SegmentInfo
	for ; len(segs) > 0 && tail.Records == 0; segs = segs[:len(segs)-1] {
		path := filepath.Join(dir, segs[len(segs)-1].name)
		if tail, err = scanSegmentFile(fsys, path); err != nil {
			return nil, err
		}
		if tail.Records == 0 {
			if err := fsys.Remove(path); err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
		}
	}
	if tail.Records == 0 {
		return l, nil
	}
	// Truncate the torn tail so the next append lands right after the
	// last durable record.
	if fi, err := fsys.Stat(tail.Path); err == nil && fi.Size() > tail.Bytes {
		if err := fsys.Truncate(tail.Path, tail.Bytes); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	l.nextLSN = max(l.nextLSN, tail.Last+1)
	// Reopen the segment for appending when it has room; otherwise it
	// stays sealed and the next append starts a segment.
	if tail.Bytes < opts.SegmentBytes {
		f, err := vfs.OpenWrite(fsys, tail.Path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if _, err := f.Seek(tail.Bytes, io.SeekStart); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.active, l.activeInfo = f, tail
	}
	return l, nil
}

// SegmentName names the segment whose first record has LSN first:
// 20 zero-padded digits, so lexical order is LSN order.
func SegmentName(first uint64) string {
	return fmt.Sprintf("%020d%s", first, segSuffix)
}

// ParseSegmentName returns the first LSN a segment's name states. It
// accepts only the spelling SegmentName gives; any other name is not a
// segment of the log.
func ParseSegmentName(name string) (uint64, bool) {
	digits, ok := strings.CutSuffix(name, segSuffix)
	if !ok || len(digits) != 20 {
		return 0, false
	}
	first, err := strconv.ParseUint(digits, 10, 64)
	return first, err == nil
}

// segment is one segment of a listing: its name as listed and the first
// LSN the name states.
type segment struct {
	name  string
	first uint64
}

// segments is the one parse of segment names, which Replay, Reclaimable
// and the log's directory reads share: the names of a listing that are
// prefix followed by a SegmentName spelling, in LSN order. Every other
// name is not the log's.
func segments(names []string, prefix string) []segment {
	var segs []segment
	for _, name := range names {
		rest, ok := strings.CutPrefix(name, prefix)
		if !ok {
			continue
		}
		if first, ok := ParseSegmentName(rest); ok {
			segs = append(segs, segment{name, first})
		}
	}
	slices.SortFunc(segs, func(a, b segment) int { return cmp.Compare(a.first, b.first) })
	return segs
}

// dirSegments lists the segments in the log directory dir, by file name.
func dirSegments(fsys vfs.FS, dir string) ([]segment, error) {
	paths, err := fsys.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil {
		return nil, err
	}
	for i, p := range paths {
		paths[i] = filepath.Base(p)
	}
	return segments(paths, ""), nil
}

// Reclaimable is the one rule that decides which segments a store — a
// data directory or a shipping backend — drops. Given the store's
// listing and a floor its checkpoints cover every record up to, it
// returns the segments (under Prefix) that hold nothing above the floor:
// a segment goes when the segment after it starts at or below floor+1.
// The newest segment never goes, whatever the floor: it carries the
// log's position. Names that are not segments are ignored.
func Reclaimable(names []string, floor uint64) []string {
	segs := segments(names, Prefix)
	var drop []string
	for i := 0; i+1 < len(segs) && segs[i+1].first <= floor+1; i++ {
		drop = append(drop, segs[i].name)
	}
	return drop
}

// Append writes one record, fsyncs it (unless Options.NoSync), and
// returns its LSN. The payload is not retained. Equivalent to an
// AppendBatch of one record.
func (l *Log) Append(t byte, payload []byte) (uint64, error) {
	return l.AppendBatch([]BatchRecord{{Type: t, Payload: payload}})
}

// BatchRecord is one record of an AppendBatch group: a caller-defined
// type byte and an opaque payload (not retained).
type BatchRecord struct {
	Type    byte
	Payload []byte
}

// AppendBatch writes the records as one durability group — all frames
// in a single write to the active segment followed by a single fsync
// (unless Options.NoSync) — and returns the LSN of the first record;
// the rest follow consecutively. This is the group-commit primitive:
// N concurrent writers coalesced into one group pay one fsync instead
// of N, and the durability contract is unchanged because no caller is
// acknowledged before the shared fsync returns.
//
// The group is all-or-nothing: on a write or sync failure every frame
// is rolled back together (truncate to the group's start), so either
// all records are durable or none is; a rollback that itself fails
// marks the log broken, exactly as for a single append. A group never
// spans a rotation — if it does not fit the active segment, the
// segment is sealed first and the whole group lands in the next one
// (an oversized group gets a segment to itself, like an oversized
// record). An empty recs is a no-op returning (0, nil).
func (l *Log) AppendBatch(recs []BatchRecord) (uint64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	var total int64
	for _, r := range recs {
		if len(r.Payload) > MaxRecordBytes-bodyFixedLen {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes", len(r.Payload))
		}
		total += int64(frameHeaderLen + bodyFixedLen + len(r.Payload))
	}
	h := l.lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.broken {
		return 0, fmt.Errorf("wal: log broken by an earlier append failure that could not be rolled back")
	}
	if l.active != nil && l.activeInfo.Records > 0 && l.activeInfo.Bytes+total > l.opts.SegmentBytes {
		if err := l.rotate(h); err != nil {
			return 0, err
		}
	}
	if l.active == nil {
		if err := l.openSegment(h); err != nil {
			return 0, err
		}
	}

	first := l.nextLSN
	buf := make([]byte, total)
	off := 0
	for i, r := range recs {
		frame := buf[off : off+frameHeaderLen+bodyFixedLen+len(r.Payload)]
		binary.LittleEndian.PutUint32(frame[0:4], uint32(bodyFixedLen+len(r.Payload)))
		body := frame[frameHeaderLen:]
		binary.LittleEndian.PutUint64(body[0:8], first+uint64(i))
		body[8] = r.Type
		copy(body[bodyFixedLen:], r.Payload)
		binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(body, castagnoli))
		off += len(frame)
	}

	if _, err := l.active.Write(buf); err != nil {
		l.rollbackAppend(h)
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if !l.opts.NoSync {
		if err := l.active.Sync(); err != nil {
			// The frames may be fully on disk even though their
			// durability is unknown; they MUST NOT survive — a retry
			// would write second frames with the same LSNs and the
			// continuity check would reject the log on recovery.
			l.rollbackAppend(h)
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
		l.syncs.Add(1)
	}
	if l.activeInfo.Records == 0 {
		l.activeInfo.First = first
	}
	l.activeInfo.Last = first + uint64(len(recs)-1)
	l.activeInfo.Records += len(recs)
	l.activeInfo.Bytes += total
	l.nextLSN = l.activeInfo.Last + 1
	return first, nil
}

// rollbackAppend discards the bytes of a failed append so the
// segment ends exactly at the last acknowledged record: without it, a
// failed Sync could leave a complete frame on disk for an LSN the
// caller will reuse (duplicate LSN → unrecoverable continuity error
// on restart), and a partial write would leave garbage that makes
// recovery's CRC scan stop before later acknowledged records. If the
// rollback itself fails the log is marked broken and refuses further
// appends — better unavailable than silently unrecoverable.
func (l *Log) rollbackAppend(_ logHeld) {
	if err := l.active.Truncate(l.activeInfo.Bytes); err != nil {
		l.broken = true
		return
	}
	if _, err := l.active.Seek(l.activeInfo.Bytes, io.SeekStart); err != nil {
		l.broken = true
		return
	}
	if !l.opts.NoSync {
		// The truncation must itself be made durable. A failed fsync
		// does not promise the frame's bytes missed the platter — the
		// disk may have persisted them and then reported failure — so
		// without this sync a crash can resurrect the discarded frame
		// and recovery would replay a mutation the caller was told
		// failed.
		if err := l.active.Sync(); err != nil {
			l.broken = true
		}
	}
}

// openSegment creates the next segment file, named after the LSN its
// first record will carry.
func (l *Log) openSegment(_ logHeld) error {
	path := filepath.Join(l.dir, SegmentName(l.nextLSN))
	f, err := vfs.CreateExcl(l.fs, path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(segMagic); err != nil {
		// Remove the magic-less file: leaving it would make every
		// retry fail O_EXCL against a name the log still wants.
		_ = f.Close()
		_ = l.fs.Remove(path)
		return fmt.Errorf("wal: %w", err)
	}
	if !l.opts.NoSync {
		// The new file's directory entry must survive power loss too.
		if err := l.fs.SyncDir(l.dir); err != nil {
			_ = f.Close()
			_ = l.fs.Remove(path)
			return fmt.Errorf("wal: %w", err)
		}
	}
	l.active = f
	l.activeInfo = SegmentInfo{Path: path, Bytes: int64(len(segMagic))}
	return nil
}

// Rotate seals the active segment (a no-op when it holds no records),
// so a compactor can fold everything appended so far. The next append
// starts a fresh segment.
func (l *Log) Rotate() error {
	h := l.lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.rotate(h)
}

func (l *Log) rotate(_ logHeld) error {
	if l.active == nil {
		return nil
	}
	if l.activeInfo.Records == 0 {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.active = nil
	l.activeInfo = SegmentInfo{}
	return nil
}

// Sealed returns the sealed segments in LSN order: every segment in the
// log's directory below the active one. It reads them from the
// directory, not from the log: a segment's Last is one below the next
// segment's first LSN, or the log's last LSN for the newest, and Bytes
// is the file's size. A segment removed while Sealed reads is left out.
// The listing fails only on a directory name that is not a valid glob
// pattern, which Open has already refused; Sealed then reports none.
func (l *Log) Sealed() []SegmentInfo {
	l.mu.Lock()
	bound := l.nextLSN
	if l.active != nil {
		bound, _ = ParseSegmentName(filepath.Base(l.activeInfo.Path))
	}
	l.mu.Unlock()
	segs, err := dirSegments(l.fs, l.dir)
	if err != nil {
		return nil
	}
	var out []SegmentInfo
	for i, s := range segs {
		if s.first >= bound {
			break
		}
		next := bound
		if i+1 < len(segs) {
			next = min(segs[i+1].first, bound)
		}
		path := filepath.Join(l.dir, s.name)
		fi, err := l.fs.Stat(path)
		if err != nil {
			continue
		}
		out = append(out, SegmentInfo{Path: path, First: s.first, Last: next - 1, Records: int(next - s.first), Bytes: fi.Size()})
	}
	return out
}

// NextLSN returns the LSN the next appended record will carry.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Broken reports whether a failed append could not be rolled back, in
// which case the log refuses further appends: the failed record's
// durability is indeterminate (it may or may not survive a crash),
// and accepting more appends could put a duplicate LSN on disk.
func (l *Log) Broken() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

// PrunedError reports a replay that cannot start: every segment the
// source holds begins above the first record the replay needs, so the
// records in between are gone (pruned, reclaimed or never shipped).
type PrunedError struct {
	// Want is the first LSN the replay needs; Oldest is the first LSN
	// of the oldest segment the source holds.
	Want, Oldest uint64
}

func (e *PrunedError) Error() string {
	return fmt.Sprintf("wal: need LSN %d, oldest segment starts at %d", e.Want, e.Oldest)
}

// Replay streams every record of the log src holds with LSN > after,
// in LSN order, to fn. It is the one reader of the log: recovery and
// Rearm read a data directory through store.Dir, a follower reads the
// backend its leader ships to.
//
// Reading starts at the last segment whose name states a first LSN at
// or below after+1 — the one that can hold it — so segments a
// checkpoint covers are never read. When every segment starts above
// after+1 the result is a *PrunedError; a source with no segment holds
// no records. From there continuity is strict: the first record read
// may not lie above after+1, and every record after it must carry the
// previous LSN + 1. A duplicate or a gap — a segment torn, flipped,
// missing or repeated in the middle of the log, which no crash
// produces — is an error, never skipped. A torn tail on the final
// segment ends the replay cleanly. An error from fn aborts the replay
// and is returned as is.
//
// Replay holds one segment in memory at a time: at most
// Options.SegmentBytes, or the one oversized record such a segment
// holds. A record's Payload is valid only during fn.
func Replay(ctx context.Context, src store.Backend, after uint64, fn func(Record) error) error {
	names, err := src.List(ctx, Prefix)
	if err != nil {
		return fmt.Errorf("wal: list segments: %w", err)
	}
	segs := segments(names, Prefix)
	if len(segs) == 0 {
		return nil
	}
	start := -1
	for i, s := range segs {
		if s.first <= after+1 {
			start = i
		}
	}
	if start < 0 {
		return &PrunedError{Want: after + 1, Oldest: segs[0].first}
	}

	next, started := after+1, false
	for _, s := range segs[start:] {
		data, err := src.Get(ctx, s.name)
		if err != nil {
			return fmt.Errorf("wal: fetch %s: %w", s.name, err)
		}
		if _, err := scan(data, func(rec Record, _ int64) error {
			if rec.LSN != next && (started || rec.LSN > next) {
				return fmt.Errorf("wal: %s holds LSN %d where %d is next: a duplicate or a gap", s.name, rec.LSN, next)
			}
			started, next = true, rec.LSN+1
			if rec.LSN <= after {
				return nil
			}
			return fn(rec)
		}); err != nil {
			return err
		}
	}
	return nil
}

// Syncs returns the number of successful fsyncs the log has issued on
// its append path (AppendBatch groups). With
// group commit, acked-records/Syncs is the batching efficiency; the
// benchmark suite reports it.
func (l *Log) Syncs() uint64 { return l.syncs.Load() }

// Close syncs and closes the active segment. Further operations
// return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.active == nil {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		_ = l.active.Close()
		return fmt.Errorf("wal: sync: %w", err)
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.active = nil
	return nil
}

// scanSegmentFile scans one segment file into a SegmentInfo.
func scanSegmentFile(fsys vfs.FS, path string) (SegmentInfo, error) {
	info := SegmentInfo{Path: path}
	data, err := vfs.ReadFile(fsys, path)
	if err != nil {
		return info, fmt.Errorf("wal: %w", err)
	}
	info.Bytes, err = scan(data, func(rec Record, _ int64) error {
		if info.Records == 0 {
			info.First = rec.LSN
		}
		info.Last = rec.LSN
		info.Records++
		return nil
	})
	return info, err
}

// RecordEnds returns the byte offset just past each complete record
// of a segment file — every boundary a kill -9 can leave the file
// truncated at. Offsets are from the file start (magic included). A
// nil fsys reads from the real filesystem.
func RecordEnds(fsys vfs.FS, path string) ([]int64, error) {
	data, err := vfs.ReadFile(vfs.OrOS(fsys), path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var ends []int64
	_, err = scan(data, func(_ Record, end int64) error {
		ends = append(ends, end)
		return nil
	})
	return ends, err
}

// scan reads a segment's bytes, invoking fn for every complete record
// (whose Payload aliases data) with the offset of its end, and returns
// the end of the readable prefix — the truncation point that removes a
// torn tail. Corruption never yields an error: a missing magic, an
// implausible length, incomplete bytes, or a CRC mismatch simply ends
// the prefix, exactly the "stop at the torn tail" recovery rule; the
// returned error is fn's. A frame is read only when data holds all of
// it, so a hostile length field costs nothing.
func scan(data []byte, fn func(Record, int64) error) (int64, error) {
	if !bytes.HasPrefix(data, segMagic) {
		return 0, nil
	}
	off := len(segMagic)
	for len(data)-off >= frameHeaderLen {
		length := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if length < bodyFixedLen || length > MaxRecordBytes || int(length) > len(data)-off-frameHeaderLen {
			break
		}
		body := data[off+frameHeaderLen : off+frameHeaderLen+int(length)]
		if crc32.Checksum(body, castagnoli) != crc {
			break
		}
		off += frameHeaderLen + int(length)
		rec := Record{
			LSN:     binary.LittleEndian.Uint64(body[0:8]),
			Type:    body[8],
			Payload: body[bodyFixedLen:],
		}
		if err := fn(rec, int64(off)); err != nil {
			return int64(off), err
		}
	}
	return int64(off), nil
}
