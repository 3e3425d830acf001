package wal

// FuzzWALReplay hardens the segment reader against arbitrary on-disk
// states: random byte streams, bit-flipped records, and truncations
// must never panic, and must either replay cleanly or stop at the
// torn tail. The corpus is seeded with real segments built by the
// writer — the crash-point fixtures — plus truncated and corrupted
// variants of them, so the fuzzer starts from the formats the durable
// service actually produces. The same bytes, split into one to three
// segment objects under fuzz-chosen names, go through Replay: it may
// refuse, but it hands fn only after+1, after+2, … and allocates
// within a constant factor of its input.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
)

// buildSeedSegment writes records through a real Log and returns the
// segment file's bytes.
func buildSeedSegment(f *testing.F, payloads ...string) []byte {
	f.Helper()
	dir := f.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	for i, p := range payloads {
		if _, err := l.Append(byte(1+i%3), []byte(p)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil || len(segs) != 1 {
		f.Fatalf("seed segment: %v (%d files)", err, len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// splitSegments cuts data into one segment object per name (at most
// three) at the cut points packed in cuts — the low half alone for two
// names — and stores them under Prefix on a fresh MemFS. Every piece
// after the first gets the segment magic, so a cut on a frame boundary
// yields a well-formed segment. Names the backend refuses are skipped.
func splitSegments(data []byte, cuts uint32, names string) store.Backend {
	src := store.NewDir(vfs.NewMemFS(), "/data")
	list := strings.Split(names, ",")
	if len(list) > 3 {
		list = list[:3]
	}
	lo, hi := int(cuts&0xffff)%(len(data)+1), int(cuts>>16)%(len(data)+1)
	bounds := [][]int{{0, len(data)}, {0, lo, len(data)}, {0, min(lo, hi), max(lo, hi), len(data)}}[len(list)-1]
	for i, name := range list {
		piece := data[bounds[i]:bounds[i+1]]
		if i > 0 {
			piece = append(append([]byte(nil), segMagic...), piece...)
		}
		_ = src.Put(context.Background(), Prefix+name, piece)
	}
	return src
}

func FuzzWALReplay(f *testing.F) {
	// Crash-point fixtures: an intact multi-record segment, the JSONL
	// shape real WAL payloads carry, an empty log, and torn variants.
	intact := buildSeedSegment(f, "alpha", "beta", "gamma", "delta")
	jsonl := buildSeedSegment(f,
		`{"kind":"node","id":1,"labels":["Person"],"props":{"name":{"t":"string","v":"a"}}}`+"\n",
		`{"kind":"edge","id":1,"labels":["KNOWS"],"src":1,"dst":1}`+"\n")
	one := SegmentName(1)
	f.Add(intact, uint32(0), one, uint8(0))
	f.Add(jsonl, uint32(0), one, uint8(0))
	f.Add(intact[:len(intact)-5], uint32(0), one, uint8(0))                                // torn tail
	f.Add(intact[:len(segMagic)+3], uint32(0), one, uint8(0))                              // torn first header
	f.Add(append(append([]byte{}, intact...), 0xff, 0x00, 0xfe), uint32(0), one, uint8(0)) // trailing garbage
	flipped := append([]byte(nil), intact...)
	flipped[len(flipped)/2] ^= 0x20 // bit flip mid-log
	f.Add(flipped, uint32(0), one, uint8(0))
	f.Add([]byte{}, uint32(0), one, uint8(0))
	f.Add([]byte("PGHWAL1\n"), uint32(0), one, uint8(0))
	f.Add([]byte("not a wal file at all"), uint32(0), one, uint8(0))
	// Split on frame boundaries: records 1-2, 3 and 4 in three segments,
	// read from after 1; the same with a gap in the names; and the four
	// records written twice, so the second segment repeats LSNs 1-4.
	var ends []int
	if _, err := scan(intact, func(_ Record, end int64) error { ends = append(ends, int(end)); return nil }); err != nil || len(ends) != 4 {
		f.Fatalf("seed segment holds %d records (%v), want 4", len(ends), err)
	}
	cuts := uint32(ends[1]) | uint32(ends[2])<<16
	three := strings.Join([]string{SegmentName(1), SegmentName(3), SegmentName(4)}, ",")
	f.Add(intact, cuts, three, uint8(1))
	f.Add(intact, cuts, strings.Join([]string{SegmentName(1), SegmentName(5), SegmentName(9)}, ","), uint8(2))
	f.Add(append(append([]byte(nil), intact...), intact[len(segMagic):]...), uint32(len(intact)), SegmentName(1)+","+SegmentName(5), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, cuts uint32, names string, after uint8) {
		var recs []Record
		valid, err := scan(data, func(r Record, _ int64) error {
			recs = append(recs, Record{LSN: r.LSN, Type: r.Type, Payload: append([]byte(nil), r.Payload...)})
			return nil
		})
		if err != nil {
			// The callback never errs; any error here is a reader bug.
			t.Fatalf("scan error: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}

		// Stopping at the torn tail must be a fixpoint: truncating at
		// the reported prefix and re-scanning yields exactly the same
		// records and the same (now clean) end.
		var again []Record
		valid2, err := scan(data[:valid], func(r Record, _ int64) error {
			again = append(again, Record{LSN: r.LSN, Type: r.Type, Payload: append([]byte(nil), r.Payload...)})
			return nil
		})
		if err != nil {
			t.Fatalf("re-scan error: %v", err)
		}
		if valid2 != valid {
			t.Fatalf("truncation not a fixpoint: %d then %d", valid, valid2)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-scan yielded %d records, first scan %d", len(again), len(recs))
		}
		for i := range recs {
			if recs[i].LSN != again[i].LSN || recs[i].Type != again[i].Type || !bytes.Equal(recs[i].Payload, again[i].Payload) {
				t.Fatalf("record %d differs between scans", i)
			}
		}

		// The bytes as one to three segment objects: whatever Replay
		// accepts is the contiguous run after+1, after+2, …, and reading
		// it costs at most a constant factor of the input.
		src := splitSegments(data, cuts, names)
		from := uint64(after)
		var got int
		var before, done runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = Replay(context.Background(), src, from, func(r Record) error {
			if want := from + 1 + uint64(got); r.LSN != want {
				t.Fatalf("replay after %d handed LSN %d, want %d", from, r.LSN, want)
			}
			got++
			return nil
		})
		runtime.ReadMemStats(&done)
		if grew, limit := done.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*(len(data)+len(names))); grew > limit {
			t.Fatalf("Replay of %d bytes allocated %d bytes (limit %d)", len(data), grew, limit)
		}

		// Re-writing the recovered records through a fresh log and
		// replaying it must reproduce types and payloads — the
		// replay-then-rewrite loop a compactor performs.
		if len(recs) == 0 {
			return
		}
		mem := vfs.NewMemFS()
		l, err := Open(strings.TrimSuffix(Prefix, "/"), Options{NoSync: true, FS: mem})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if _, err := l.Append(r.Type, r.Payload); err != nil {
				t.Fatal(err)
			}
		}
		var rewritten []Record
		if err := replay(l, 0, func(r Record) error {
			rewritten = append(rewritten, Record{Type: r.Type, Payload: append([]byte(nil), r.Payload...)})
			return nil
		}); err != nil {
			t.Fatalf("replay of rewritten log: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if len(rewritten) != len(recs) {
			t.Fatalf("rewrite round trip: %d records, want %d", len(rewritten), len(recs))
		}
		for i := range recs {
			if recs[i].Type != rewritten[i].Type || !bytes.Equal(recs[i].Payload, rewritten[i].Payload) {
				t.Fatalf("rewrite round trip: record %d differs", i)
			}
		}
	})
}
