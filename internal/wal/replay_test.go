package wal

// Replay's rules on segment objects damaged by hand: which names are
// segments, where reading starts, and the continuity it demands.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
)

func TestSegmentNames(t *testing.T) {
	for _, first := range []uint64{0, 1, 42, math.MaxUint64} {
		if got, ok := ParseSegmentName(SegmentName(first)); !ok || got != first {
			t.Errorf("ParseSegmentName(SegmentName(%d)) = %d, %v", first, got, ok)
		}
	}
	for _, bad := range []string{
		"", "1.wal", "x.wal", SegmentName(1) + ".tmp", strings.TrimSuffix(SegmentName(1), segSuffix),
		"0" + SegmentName(1), "+000000000000000001.wal", "99999999999999999999.wal", Prefix + SegmentName(1),
	} {
		if first, ok := ParseSegmentName(bad); ok {
			t.Errorf("ParseSegmentName(%q) = %d, want refused", bad, first)
		}
	}
}

// sixSegments returns a backend holding records 1-6, one per segment
// object.
func sixSegments(t *testing.T) store.Backend {
	t.Helper()
	mem := vfs.NewMemFS()
	l, err := Open(strings.TrimSuffix(Prefix, "/"), Options{FS: mem, SegmentBytes: 1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 6, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return store.NewDir(mem, ".")
}

func TestReplayRules(t *testing.T) {
	ctx := context.Background()
	obj := func(first uint64) string { return Prefix + SegmentName(first) }
	get := func(t *testing.T, src store.Backend, first uint64) []byte {
		data, err := src.Get(ctx, obj(first))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	put := func(t *testing.T, src store.Backend, name string, data []byte) {
		if err := src.Put(ctx, name, data); err != nil {
			t.Fatal(err)
		}
	}
	del := func(t *testing.T, src store.Backend, firsts ...uint64) {
		for _, first := range firsts {
			if err := src.Delete(ctx, obj(first)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name   string
		after  uint64
		damage func(*testing.T, store.Backend)
		want   []uint64 // the LSNs fn sees
		err    string   // in the error; "" for none
	}{
		{"whole log", 0, nil, []uint64{1, 2, 3, 4, 5, 6}, ""},
		{"covered segments are never read", 3, func(t *testing.T, src store.Backend) {
			for first := uint64(1); first <= 3; first++ {
				put(t, src, obj(first), []byte("garbage"))
			}
		}, []uint64{4, 5, 6}, ""},
		{"nothing above after", 6, nil, nil, ""},
		{"foreign names are not segments", 0, func(t *testing.T, src store.Backend) {
			put(t, src, Prefix+"7.wal", get(t, src, 6))
			put(t, src, Prefix+"notes.txt", []byte("x"))
		}, []uint64{1, 2, 3, 4, 5, 6}, ""},
		{"torn final segment ends cleanly", 0, func(t *testing.T, src store.Backend) {
			data := get(t, src, 6)
			put(t, src, obj(6), data[:len(data)-3])
		}, []uint64{1, 2, 3, 4, 5}, ""},
		{"repeated LSN", 0, func(t *testing.T, src store.Backend) {
			// Segment 5 now starts with a second copy of record 4.
			put(t, src, obj(5), append(get(t, src, 4), get(t, src, 5)[len(segMagic):]...))
		}, []uint64{1, 2, 3, 4}, "LSN 4 where 5 is next"},
		{"deleted middle segment", 0, func(t *testing.T, src store.Backend) {
			del(t, src, 3)
		}, []uint64{1, 2}, "LSN 4 where 3 is next"},
		{"bit flip in a middle segment", 0, func(t *testing.T, src store.Backend) {
			data := get(t, src, 3)
			data[len(data)-1] ^= 0x10
			put(t, src, obj(3), data)
		}, []uint64{1, 2}, "LSN 4 where 3 is next"},
		{"start segment begins above its name", 1, func(t *testing.T, src store.Backend) {
			put(t, src, obj(2), get(t, src, 3))
			del(t, src, 3)
		}, nil, "LSN 3 where 2 is next"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := sixSegments(t)
			if tc.damage != nil {
				tc.damage(t, src)
			}
			var got []uint64
			err := Replay(ctx, src, tc.after, func(r Record) error {
				got = append(got, r.LSN)
				return nil
			})
			if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
				t.Fatalf("Replay error %v, want %q", err, tc.err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("fn saw LSNs %v, want %v", got, tc.want)
			}
		})
	}

	// Every segment starting above after+1 is the one typed error; an
	// empty source holds no records.
	src := sixSegments(t)
	del(t, src, 1, 2)
	var pruned *PrunedError
	if err := Replay(ctx, src, 0, func(Record) error { return nil }); !errors.As(err, &pruned) || *pruned != (PrunedError{Want: 1, Oldest: 3}) {
		t.Fatalf("replay below the oldest segment: %v, want PrunedError{Want: 1, Oldest: 3}", err)
	}
	del(t, src, 3, 4, 5, 6)
	if err := Replay(ctx, src, 9, func(Record) error { return errors.New("no record expected") }); err != nil {
		t.Fatalf("replay of an empty source: %v", err)
	}
}
