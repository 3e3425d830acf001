package pghive

// walpayload_test.go holds the WAL record payload to its contract from
// both ends: arbitrary bytes are decoded without panicking and within a
// fixed allocation budget (FuzzWALPayload), everything the encoder
// writes decodes to the batch it was given, and an ordinary write costs
// the log what the compact spelling promises (TestWALBytesPerWrite).

import (
	"bytes"
	"compress/flate"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/pghive/pghive/internal/datagen"
	"github.com/pghive/pghive/internal/vfs"
)

// ldbcWrite is a self-contained ~50-element LDBC batch, drawn the way
// the benchmark draws its writes.
func ldbcWrite(seed int64) *Graph {
	spec := datagen.LDBC()
	return datagen.Generate(spec, 50/float64(spec.DefaultNodes+spec.DefaultEdges), seed).Graph
}

// rawDeflate is an unkeyed payload whose stream is data deflated at
// level with no regard for the inflation bound, ended by a final block
// when final is set.
func rawDeflate(tb testing.TB, data []byte, level int, final bool) []byte {
	tb.Helper()
	out := bytes.NewBuffer([]byte{0})
	zw, err := flate.NewWriter(out, level)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		tb.Fatal(err)
	}
	if final {
		err = zw.Close()
	} else {
		err = zw.Flush()
	}
	if err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// manyProps is one node line carrying n short string properties.
func manyProps(n int) []byte {
	var b strings.Builder
	b.WriteString(`{"kind":"node","id":1,"props":{`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"%x":"x"`, i)
	}
	b.WriteString("}}\n")
	return []byte(b.String())
}

// atBound is an unkeyed payload whose stream inflates to data, with
// empty stored blocks in front of data deflated until data is just
// inside walInflateLimit: the most a payload of its size may decode to.
func atBound(tb testing.TB, data []byte) []byte {
	tb.Helper()
	stream := rawDeflate(tb, data, flate.BestCompression, true)[1:]
	payload := []byte{0}
	for walInflateLimit(len(payload)-1+len(stream)) < int64(len(data)) {
		payload = append(payload, 0, 0, 0, 0xff, 0xff)
	}
	return append(payload, stream...)
}

// hostileLines are node lines of about size bytes that cost ReadJSONL
// the most per byte: internal/pg's hostileJSONL, which bounds that cost,
// in brief.
func hostileLines(size int) [][]byte {
	repeat := func(head, item, tail string) []byte {
		return []byte(head + strings.Repeat(item+",", size/(len(item)+1)) + item + tail)
	}
	return [][]byte{
		repeat(`{"kind":"node","id":1,"props":{`, `"":0`, `}}`),
		repeat(`{"kind":"node","id":1,"labels":[`, `""`, `]}`),
		[]byte(`{"kind":"node","id":1,"props":{"s":"` + strings.Repeat(":", size) + `"}}`),
	}
}

// FuzzWALPayload: a WAL record payload is hostile until proven
// otherwise. Arbitrary bytes must decode or be refused without panicking
// and without allocating more than FuzzImageDeltaApply's budget, 1 MiB
// plus 256 bytes per input byte. And whatever graph the input spells as
// JSONL, the encoder's payload for it decodes to a graph with the same
// JSONL bytes, under the same key.
func FuzzWALPayload(f *testing.F) {
	for _, g := range []*Graph{NewGraph(), internalStressGraph(f, 0, 8), ldbcWrite(3)} {
		for _, key := range []string{"", "key", strings.Repeat("k", MaxIdempotencyKeyLen)} {
			payload, err := encodeWALRecordPayload(key, g)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(payload)
		}
		var jsonl bytes.Buffer
		if err := WriteJSONL(&jsonl, g); err != nil {
			f.Fatal(err)
		}
		f.Add(jsonl.Bytes())
	}
	// A batch the encoder stores, because it deflates past the bound.
	blob := NewGraph()
	if err := blob.PutNode(1, []string{"Blob"}, PropsOf(map[string]Value{"s": Str(strings.Repeat("a", 16<<10))})); err != nil {
		f.Fatal(err)
	}
	stored, err := encodeWALRecordPayload("", blob)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stored)
	f.Add([]byte(`{"kind":"node","id":1,"props":{"s":"` + strings.Repeat("a", 16<<10) + `"}}`))
	// Hostile shapes: a truncated key, an empty stream, a stream with no
	// final block, bytes after the final block, a stream inflating far
	// past the bound, and the most allocation-heavy JSONL inflating to
	// just inside the bound and stored at any size.
	node := []byte(`{"kind":"node","id":1}` + "\n")
	f.Add(rawDeflate(f, node, flate.BestSpeed, false))
	f.Add([]byte{})
	f.Add([]byte{9, 'k'})
	f.Add([]byte{0})
	f.Add(append(rawDeflate(f, node, flate.BestSpeed, true), 0))
	f.Add(rawDeflate(f, bytes.Repeat(node, 1<<14), flate.BestSpeed, true))
	f.Add(atBound(f, manyProps(1<<15)))
	for _, line := range hostileLines(256 << 10) {
		f.Add(atBound(f, line))
	}
	f.Add(rawDeflate(f, manyProps(1<<11), flate.NoCompression, true))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _ = decodeWALRecordPayload(data)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); grew > limit {
			t.Fatalf("decoding a %d-byte payload allocated %d bytes (limit %d)", len(data), grew, limit)
		}

		g, err := ReadJSONL(bytes.NewReader(data), true)
		if err != nil {
			return
		}
		var want, got bytes.Buffer
		if err := WriteJSONL(&want, g); err != nil {
			t.Fatal(err)
		}
		key := string(data[:len(data)%(MaxIdempotencyKeyLen+1)])
		payload, err := encodeWALRecordPayload(key, g)
		if err != nil {
			t.Fatal(err)
		}
		gotKey, back, err := decodeWALRecordPayload(payload)
		if err != nil {
			t.Fatalf("the decoder refused what the encoder wrote: %v", err)
		}
		if err := WriteJSONL(&got, back); err != nil {
			t.Fatal(err)
		}
		if gotKey != key || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("payload round trip: key %q -> %q, JSONL equal %v", key, gotKey, bytes.Equal(got.Bytes(), want.Bytes()))
		}
	})
}

// TestWALBytesPerWrite pins what one ordinary write costs the log: a
// 41-element LDBC batch, framed. Deflated, it appends 1,243 bytes (30.3
// per element); as a plain JSONL record it appended 4,872 bytes (118.8
// per element).
func TestWALBytesPerWrite(t *testing.T) {
	g := ldbcWrite(3)
	d, err := OpenDurable("data", Options{Seed: 1, Parallelism: 1}, DurableOptions{
		FS: vfs.NewMemFS(), NoSync: true, DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, _, err := d.IngestIdempotent(context.Background(), "", g); err != nil {
		t.Fatal(err)
	}
	if err := d.wal().Rotate(); err != nil {
		t.Fatal(err)
	}
	sealed := d.wal().Sealed()
	if len(sealed) != 1 {
		t.Fatalf("%d sealed segments, want 1", len(sealed))
	}
	const segmentMagic = 8
	elems := g.NumNodes() + g.NumEdges()
	bytesPerElement := float64(sealed[0].Bytes-segmentMagic) / float64(elems)
	t.Logf("a %d-element write appends %d WAL bytes, %.1f per element", elems, sealed[0].Bytes-segmentMagic, bytesPerElement)
	if bytesPerElement > 40 {
		t.Fatalf("a %d-element write appends %.1f WAL bytes per element, want at most 40", elems, bytesPerElement)
	}
}

// TestLargeBatchDeflatesWithinBound: a bulk load is longer than one
// window. The encoder stores the windows that would take the stream past
// the decoder's bound and deflates the rest, so the batch logs in about
// a third of its JSONL (36.3% here), and decodes to the same JSONL.
func TestLargeBatchDeflatesWithinBound(t *testing.T) {
	g := datagen.Generate(datagen.LDBC(), 0.3, 1).Graph
	var want, got bytes.Buffer
	if err := WriteJSONL(&want, g); err != nil {
		t.Fatal(err)
	}
	payload, err := encodeWALRecordPayload("bulk", g)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d JSONL bytes in %d windows log in a %d-byte payload", want.Len(), want.Len()/flateWindow+1, len(payload))
	if want.Len() < 4*flateWindow {
		t.Fatalf("a %d-byte batch is too short to span windows", want.Len())
	}
	if 100*len(payload) > 37*want.Len() {
		t.Fatalf("a %d-byte batch logs in %d bytes, want at most 37%%", want.Len(), len(payload))
	}
	key, back, err := decodeWALRecordPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&got, back); err != nil {
		t.Fatal(err)
	}
	if key != "bulk" || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("round trip: key %q, JSONL equal %v", key, bytes.Equal(got.Bytes(), want.Bytes()))
	}
}
