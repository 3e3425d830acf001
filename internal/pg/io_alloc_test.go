package pg_test

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"github.com/pghive/pghive/internal/datagen"
	"github.com/pghive/pghive/internal/pg"
)

// allocsPerRun is testing.AllocsPerRun that also counts bytes: the mean
// bytes and mallocs of one call to f, after a warm-up call.
func allocsPerRun(runs int, f func()) (bytes, mallocs float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs),
		float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// ldbcJSONL is a seeded LDBC graph (14,014 elements) and its JSONL.
func ldbcJSONL(tb testing.TB) (*pg.Graph, []byte) {
	tb.Helper()
	g := datagen.Generate(datagen.LDBC(), 1, 1).Graph
	var buf bytes.Buffer
	if err := pg.WriteJSONL(&buf, g); err != nil {
		tb.Fatal(err)
	}
	return g, buf.Bytes()
}

// TestReadJSONLAllocsPerByte pins what loading JSONL allocates.
// encoding/json cost 13.5 bytes per JSONL byte in 24.7 mallocs per
// element here. The decoder costs 0.58 bytes per byte: per line, one
// Props of 48-byte entries sized to the line's properties, and one
// string holding the line's string values. When it handed over a map
// per element it cost 2.08, since Go gives a map of one to eight
// entries a 528-560 byte table. ReadJSONL adds the graph that holds the
// elements: 3.24 bytes per byte in 1.73 mallocs per element (4.53 and
// 2.75 with maps).
func TestReadJSONLAllocsPerByte(t *testing.T) {
	g, data := ldbcJSONL(t)
	elems := float64(g.NumNodes() + g.NumEdges())
	var err error
	decB, decM := allocsPerRun(3, func() { _, err = pg.DecodeJSONL(bytes.NewReader(data)) })
	if err != nil {
		t.Fatal(err)
	}
	readB, readM := allocsPerRun(3, func() { _, err = pg.ReadJSONL(bytes.NewReader(data), false) })
	if err != nil {
		t.Fatal(err)
	}
	perByte := float64(len(data))
	t.Logf("%d bytes, %.0f elements: decoder %.2f B/B %.2f mallocs/element; ReadJSONL %.2f B/B %.2f mallocs/element",
		len(data), elems, decB/perByte, decM/elems, readB/perByte, readM/elems)
	if decB > 0.75*perByte {
		t.Errorf("the decoder allocates %.2f bytes per JSONL byte, want at most 0.75", decB/perByte)
	}
	if readB > 3.6*perByte {
		t.Errorf("ReadJSONL allocates %.2f bytes per JSONL byte, want at most 3.6", readB/perByte)
	}
	if readM > 2*elems {
		t.Errorf("ReadJSONL mallocs %.2f times per element, want at most 2", readM/elems)
	}
}

// TestDecodedGraphBytesPerElement pins what a decoded graph costs to
// hold, which is what a server's resident set follows: the live heap,
// after collection, of the LDBC graph ReadJSONL returns. Each element
// holds a Props, one slice of 48-byte entries sized to its properties,
// and its 32-byte Values keep a float's bits where an int's would go:
// 189 bytes per element. A map per element and 40-byte Values held
// 398.
func TestDecodedGraphBytesPerElement(t *testing.T) {
	_, data := ldbcJSONL(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err := pg.ReadJSONL(bytes.NewReader(data), false)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	elems := float64(g.NumNodes() + g.NumEdges())
	perElem := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / elems
	runtime.KeepAlive(g)
	runtime.KeepAlive(data)
	t.Logf("%.0f elements hold %.0f bytes each", elems, perElem)
	if perElem > 250 {
		t.Errorf("a decoded graph holds %.0f bytes per element, want at most 250", perElem)
	}
}

// TestWriteJSONLAllocs pins that encoding allocates per call, not per
// element: a handful for the line buffer as it grows to the flush size.
// encoding/json cost 5.8 mallocs per element.
func TestWriteJSONLAllocs(t *testing.T) {
	g, _ := ldbcJSONL(t)
	var err error
	if n := testing.AllocsPerRun(3, func() { err = pg.WriteJSONL(io.Discard, g) }); n > 10 {
		t.Errorf("WriteJSONL of %d elements mallocs %.0f times, want at most 10", g.NumNodes()+g.NumEdges(), n)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// hostileJSONL are the lines that cost ReadJSONL the most per byte, each
// built to about size bytes. What the reader allocates is bounded per
// thing a line can hold, at the fewest bytes that thing can take:
//
//   - a property, five bytes at least (`"":0,`): a 32-byte scratch entry,
//     four of them at most as the scratch doubles, and its 48-byte entry
//     in the line's Props;
//   - a label, three bytes at least (`"",`): a 16-byte scratch entry,
//     which append grows to about six of, and the graph's copy;
//   - a string byte: the unescaped text, grown the same way, and the one
//     string a line's string values share;
//   - an element, 23 bytes at least: the graph's node or edge and its
//     index entry;
//   - any byte: the line buffer, which doubles up to the longest line.
//
// A line that names a property twice costs only its scratch: it is
// refused when its properties are sorted, before its Props is made.
func hostileJSONL(size int) map[string][]byte {
	repeat := func(head, item, tail string) []byte {
		n := (size - len(head) - len(tail)) / (len(item) + 1)
		return []byte(head + strings.TrimSuffix(strings.Repeat(item+",", n), ",") + tail)
	}
	var elements strings.Builder
	for id := 1; elements.Len() < size; id++ {
		fmt.Fprintf(&elements, "{\"kind\":\"node\",\"id\":%d}\n", id)
	}
	return map[string][]byte{
		"colons in a string":  []byte(`{"kind":"node","id":1,"props":{"s":"` + strings.Repeat(":", size) + `"}}`),
		"repeated properties": repeat(`{"kind":"node","id":1,"props":{`, `"":0`, `}}`),
		"short properties":    shortProps(size),
		"empty labels":        repeat(`{"kind":"node","id":1,"labels":[`, `""`, `]}`),
		"bare elements":       []byte(elements.String()),
	}
}

// shortProps is a node line of about size bytes holding distinct
// properties with the shortest names there are.
func shortProps(size int) []byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := []byte(`{"kind":"node","id":1,"props":{`)
	for i := 0; len(b) < size; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		for n := i; ; n = n/len(alphabet) - 1 {
			b = append(b, alphabet[n%len(alphabet)])
			if n < len(alphabet) {
				break
			}
		}
		b = append(b, `":0`...)
	}
	return append(b, "}}"...)
}

// maxReadJSONLBytesPerByte is the most ReadJSONL may allocate per
// JSONL byte, whatever the JSONL: the WAL's inflation bound
// (walInflateRatio) rests on it.
const maxReadJSONLBytesPerByte = 64

// TestReadJSONLHostileAllocsPerByte pins ReadJSONL's allocation on the
// costliest lines there are, across a range of sizes, since a map or a
// slice costs the most per entry just past a size it grows at. The
// costliest, empty labels, measures 38.7 bytes per byte. Properties,
// which cost up to 50 when each element held a map, now cost 31.6
// (short distinct names) and 26.7 (one name repeated, refused before
// its Props is made). A string full of colons costs no more than other
// text: 5.5.
func TestReadJSONLHostileAllocsPerByte(t *testing.T) {
	worst := map[string]float64{}
	for size := 128 << 10; size < 256<<10; size += 16 << 10 {
		for name, data := range hostileJSONL(size) {
			var err error
			b, _ := allocsPerRun(1, func() { _, err = pg.ReadJSONL(bytes.NewReader(data), true) })
			if err != nil && name != "repeated properties" {
				t.Fatalf("%s: %v", name, err)
			}
			worst[name] = max(worst[name], b/float64(len(data)))
		}
	}
	for name, perByte := range worst {
		t.Logf("%s: %.1f bytes per JSONL byte", name, perByte)
		limit := float64(maxReadJSONLBytesPerByte)
		if name == "colons in a string" {
			limit = 8
		}
		if perByte > limit {
			t.Errorf("%s: ReadJSONL allocates %.1f bytes per JSONL byte, want at most %.0f", name, perByte, limit)
		}
	}
}
