package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
)

// logDir returns a fresh directory laid out as in a data directory: the
// log lives under Prefix, where Replay looks for it.
func logDir(t *testing.T) string {
	return filepath.Join(t.TempDir(), strings.TrimSuffix(Prefix, "/"))
}

// replay runs Replay over the directory that holds l's.
func replay(l *Log, after uint64, fn func(Record) error) error {
	return Replay(context.Background(), store.NewDir(l.fs, filepath.Dir(l.dir)), after, fn)
}

// collect replays the whole log into a slice (payloads copied).
func collect(t *testing.T, l *Log, after uint64) []Record {
	t.Helper()
	var recs []Record
	err := replay(l, after, func(r Record) error {
		recs = append(recs, Record{LSN: r.LSN, Type: r.Type, Payload: append([]byte(nil), r.Payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs
}

func appendN(t *testing.T, l *Log, n int, from int) {
	t.Helper()
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf("payload-%04d", from+i))
		if _, err := l.Append(byte(1+(from+i)%3), payload); err != nil {
			t.Fatalf("append %d: %v", from+i, err)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := logDir(t)
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10, 0)
	recs := collect(t, l, 0)
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d, want %d", i, r.LSN, i+1)
		}
		if want := fmt.Sprintf("payload-%04d", i); string(r.Payload) != want {
			t.Fatalf("record %d payload %q, want %q", i, r.Payload, want)
		}
		if r.Type != byte(1+i%3) {
			t.Fatalf("record %d type %d, want %d", i, r.Type, 1+i%3)
		}
	}
	// The after filter skips the prefix.
	if got := collect(t, l, 7); len(got) != 3 || got[0].LSN != 8 {
		t.Fatalf("replay after 7 returned %d records starting at %v", len(got), got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same records, appends continue the LSN sequence in the
	// same segment file.
	l2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.NextLSN(); got != 11 {
		t.Fatalf("NextLSN after reopen = %d, want 11", got)
	}
	appendN(t, l2, 2, 10)
	if got := collect(t, l2, 0); len(got) != 12 || got[11].LSN != 12 {
		t.Fatalf("after reopen+append: %d records, last LSN %d", len(got), got[len(got)-1].LSN)
	}
}

func TestRotationSealsAndPrunes(t *testing.T) {
	dir := logDir(t)
	// Tiny threshold: every record rotates into its own segment.
	l, err := Open(dir, Options{SegmentBytes: 1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 5, 0)
	if sealed := l.Sealed(); len(sealed) != 4 {
		t.Fatalf("%d sealed segments, want 4 (active holds the 5th)", len(sealed))
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	sealed := l.Sealed()
	if len(sealed) != 5 {
		t.Fatalf("%d sealed segments after Rotate, want 5", len(sealed))
	}
	for i, seg := range sealed {
		if seg.First != uint64(i+1) || seg.Last != uint64(i+1) || seg.Records != 1 {
			t.Fatalf("segment %d = %+v, want single record %d", i, seg, i+1)
		}
	}

	// A store whose checkpoints cover LSN 3 drops the segments holding
	// nothing above it, and never the newest; replay must still work
	// above the floor.
	names, err := store.NewDir(l.fs, filepath.Dir(dir)).List(context.Background(), Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if drop := Reclaimable(names, ^uint64(0)-1); !slices.Equal(drop, names[:4]) {
		t.Fatalf("Reclaimable above every record = %v, want all but the newest of %v", drop, names)
	}
	drop := Reclaimable(names, 3)
	if !slices.Equal(drop, names[:3]) {
		t.Fatalf("Reclaimable(3) = %v, want the first 3 of %v", drop, names)
	}
	for _, name := range drop {
		if err := os.Remove(filepath.Join(filepath.Dir(dir), name)); err != nil {
			t.Fatal(err)
		}
	}
	if got := collect(t, l, 3); len(got) != 2 || got[0].LSN != 4 {
		t.Fatalf("replay after prune: %v", got)
	}
	// Replaying from 0 now must fail loudly: records 1-3 are gone.
	var pruned *PrunedError
	if err := replay(l, 0, func(Record) error { return nil }); !errors.As(err, &pruned) || pruned.Want != 1 || pruned.Oldest != 4 {
		t.Fatalf("replay over a pruned prefix: %v; want a PrunedError (need 1, oldest 4)", err)
	}
	// A rotate with no new records is a no-op, and appends continue.
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 5)
	if got := l.NextLSN(); got != 7 {
		t.Fatalf("NextLSN = %d, want 7", got)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := logDir(t)
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if len(segs) != 1 {
		t.Fatalf("%d segments, want 1", len(segs))
	}
	seg := segs[0]

	cases := []struct {
		name string
		harm func(t *testing.T, path string)
		want int // surviving records
	}{
		{"garbage-appended", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01})
			f.Close()
		}, 3},
		{"partial-record-appended", func(t *testing.T, path string) {
			// A plausible header with a length the file doesn't hold.
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{40, 0, 0, 0, 1, 2, 3, 4, 9, 9})
			f.Close()
		}, 3},
		{"tail-cut-mid-record", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
		}, 2},
		{"tail-record-bit-flip", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-2] ^= 0x40 // inside the last record's payload
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, 2},
	}
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := os.WriteFile(seg, pristine, 0o644); err != nil {
				t.Fatal(err)
			}
			c.harm(t, seg)
			l, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			got := collect(t, l, 0)
			if len(got) != c.want {
				t.Fatalf("recovered %d records, want %d", len(got), c.want)
			}
			// The torn bytes are gone: appends continue right after the
			// last durable record and replay cleanly.
			if _, err := l.Append(7, []byte("after-recovery")); err != nil {
				t.Fatal(err)
			}
			got = collect(t, l, 0)
			last := got[len(got)-1]
			if len(got) != c.want+1 || string(last.Payload) != "after-recovery" || last.LSN != uint64(c.want+1) {
				t.Fatalf("after recovery append: %d records, last %+v", len(got), last)
			}
		})
	}
}

func TestMidLogCorruptionIsAnError(t *testing.T) {
	dir := logDir(t)
	l, err := Open(dir, Options{SegmentBytes: 1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 0) // three single-record segments
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if len(segs) != 3 {
		t.Fatalf("%d segments, want 3", len(segs))
	}
	// Flip a byte inside the FIRST segment: its record is lost, but
	// records exist after it, which no crash can produce — replay (and
	// the next Open's scan, which tolerates it) must not silently skip
	// the gap.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x10
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// Open reads only the newest segment: the flipped one stays on disk
	// for replay to judge, instead of vanishing as an empty segment.
	if _, err := os.Stat(segs[0]); err != nil {
		t.Fatalf("Open removed the corrupt first segment: %v", err)
	}
	if err := replay(l2, 0, func(Record) error { return nil }); err == nil {
		t.Fatal("replay over mid-log corruption succeeded; want error")
	}
}

func TestReplayStop(t *testing.T) {
	dir := logDir(t)
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 5, 0)
	// A callback error halts the replay and comes back as is: a caller
	// bounded by a target LSN stops there and recognizes its own error.
	stop := errors.New("stop")
	var seen []uint64
	err = replay(l, 0, func(r Record) error {
		if r.LSN > 2 {
			return stop
		}
		seen = append(seen, r.LSN)
		return nil
	})
	if err != stop {
		t.Fatalf("replay stopped with %v, want the callback's own error", err)
	}
	if len(seen) != 2 {
		t.Fatalf("saw %d records before stop, want 2", len(seen))
	}
}

func TestMinLSNFloorsNumbering(t *testing.T) {
	dir := logDir(t)
	l, err := Open(dir, Options{NoSync: true, MinLSN: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsn, err := l.Append(1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 42 {
		t.Fatalf("first LSN = %d, want 42 (a checkpoint covering 41 would otherwise hide this record)", lsn)
	}
	// Records below the floor were pruned; replay from the covered
	// point works, from zero it reports the gap.
	if got := collect(t, l, 41); len(got) != 1 {
		t.Fatalf("replay after 41: %d records, want 1", len(got))
	}
	if err := replay(l, 0, func(Record) error { return nil }); err == nil {
		t.Fatal("replay from 0 over a pruned prefix succeeded; want gap error")
	}
}

func TestClosedLogErrors(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, nil); err != ErrClosed {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
	if err := l.Rotate(); err != ErrClosed {
		t.Fatalf("Rotate after Close: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestWriteFileAtomic checks the atomic whole-file write on the real
// filesystem together with Open's sweep of the temporaries it stages.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "image.ckpt")
	if err := vfs.WriteFileAtomic(vfs.OS, path, func(w io.Writer) error {
		_, err := w.Write([]byte("v1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("content %q, want v1", got)
	}
	// A writer that fails must leave the previous content untouched
	// and no temporary file behind.
	err := vfs.WriteFileAtomic(vfs.OS, path, func(w io.Writer) error {
		w.Write([]byte("half-written"))
		return fmt.Errorf("boom")
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("error = %v, want boom", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("failed write clobbered content: %q", got)
	}
	leftovers, _ := filepath.Glob(filepath.Join(dir, "*"+vfs.TmpSuffix))
	if len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
	// Overwrite succeeds and replaces wholesale.
	if err := vfs.WriteFileAtomic(vfs.OS, path, func(w io.Writer) error {
		_, err := w.Write(bytes.Repeat([]byte("v2"), 1000))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); len(got) != 2000 {
		t.Fatalf("overwrite length %d, want 2000", len(got))
	}
	// A temporary left by a write interrupted before its rename is
	// removed when the log in that directory opens; the image is kept.
	stale := path + vfs.TmpSuffix
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temporary survived Open: %v", err)
	}
	if got, _ := os.ReadFile(path); len(got) != 2000 {
		t.Fatalf("Open disturbed the image: length %d, want 2000", len(got))
	}
}

func TestOversizedRecordGetsOwnSegment(t *testing.T) {
	dir := logDir(t)
	l, err := Open(dir, Options{SegmentBytes: 64, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	big := bytes.Repeat([]byte("B"), 300)
	if _, err := l.Append(1, []byte("small")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, big); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("small2")); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l, 0)
	if len(got) != 3 || !bytes.Equal(got[1].Payload, big) {
		t.Fatalf("oversized record did not round trip: %d records", len(got))
	}
}
