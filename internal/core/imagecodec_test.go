package core

// imagecodec_test.go holds the hand-written image codec to the
// encoding/json one kept in image_ref_test.go: the same bytes out, no
// input read that the oracle would read otherwise, and a fixpoint on
// what the writer writes. It also pins which spellings of the envelope
// the reader refuses, and what the codec costs per element.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/pghive/pghive/internal/datagen"
	"github.com/pghive/pghive/internal/pg"
)

// servedImage is the image a serving writer would capture after
// ingesting g in one batch: the pipeline plus a label index of g's
// nodes.
func servedImage(t testing.TB, g *pg.Graph) *Image {
	t.Helper()
	inc := NewIncremental(Options{Seed: 1, Parallelism: 1})
	inc.ProcessBatch(&pg.Batch{Graph: g, Resolver: g, Index: 1})
	img, err := inc.CaptureImage(&CheckpointExtras{Resolver: nodeIndex(g), NextEdgeID: 7, WALSeq: 9, AppliedKeys: []AppliedKey{{Key: "k<&>", LSN: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// nodeIndex is the label index of g's nodes, as a serving writer keeps
// it.
func nodeIndex(g *pg.Graph) *pg.LabelIndex {
	var x pg.LabelIndex
	for _, n := range g.Nodes() {
		x.Put(n.ID, n.Labels)
	}
	return &x
}

// oddGraph holds labels and property keys that encoding/json escapes or
// replaces (<, &, U+2028, invalid UTF-8) and node and edge IDs at both
// ends of int64, with label sets that share a first label.
func oddGraph(t testing.TB) *pg.Graph {
	t.Helper()
	odd := []string{"<a&b>", "x\u2028y", "\xff\xfe", "A"}
	g := pg.NewGraph()
	ids := []pg.ID{math.MinInt64, -5, 0, 3, math.MaxInt64 - 1, math.MaxInt64}
	for i, id := range ids {
		labels := []string{odd[i%len(odd)]}
		if i%2 == 1 {
			labels = append(labels, "A\x00B")
		}
		props := pg.PropsOf(map[string]pg.Value{odd[(i+1)%len(odd)]: pg.Str(odd[i%len(odd)]), "n": pg.Int(int64(i))})
		if err := g.PutNode(id, labels, props); err != nil {
			t.Fatal(err)
		}
	}
	for i := range ids {
		eid := []pg.ID{math.MinInt64, math.MaxInt64, -1, 1, 2, 4}[i]
		if err := g.PutEdge(eid, []string{odd[i%len(odd)]}, ids[i], ids[(i+1)%len(ids)], nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// codecImages are the images the codec is held to the oracle on.
func codecImages(t testing.TB) map[string]*Image {
	t.Helper()
	base, next := goldenImages(t)
	empty, err := EmptyImage(Options{})
	if err != nil {
		t.Fatal(err)
	}
	imgs := map[string]*Image{
		"golden base": base,
		"golden next": next,
		"empty":       empty,
		"odd strings": servedImage(t, oddGraph(t)),
		"LDBC":        servedImage(t, datagen.Generate(datagen.LDBC(), 0.25, 1).Graph),
		"noisy MB6":   servedImage(t, datagen.InjectNoise(datagen.Generate(datagen.MB6(), 0.25, 1), 0.3, 0.5, 7).Graph),
	}
	for seed := range int64(200) {
		imgs[fmt.Sprint("genImage ", seed)] = genImage(rand.New(rand.NewSource(seed)))
	}
	return imgs
}

// assertCodecMatchesRef fails unless EncodeImage writes what the oracle
// writes for img (or both refuse it). It returns the bytes.
func assertCodecMatchesRef(t testing.TB, name string, img *Image) []byte {
	t.Helper()
	var got, want bytes.Buffer
	gotErr, wantErr := EncodeImage(&got, img), refEncodeImage(&want, img)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: EncodeImage error %v, oracle error %v", name, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
		i := 0
		for i < min(got.Len(), want.Len()) && got.Bytes()[i] == want.Bytes()[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("%s: EncodeImage differs from the oracle at byte %d of %d/%d:\n got  %q\n want %q", name,
			i, got.Len(), want.Len(), got.Bytes()[lo:min(i+80, got.Len())], want.Bytes()[lo:min(i+80, want.Len())])
	}
	return got.Bytes()
}

// assertReadMatchesRef fails unless the oracle accepts what ParseImage
// accepted, with an equal image.
func assertReadMatchesRef(t testing.TB, name string, data []byte, img *Image) {
	t.Helper()
	ref, err := refParseImage(data)
	if err != nil {
		t.Fatalf("%s: ParseImage accepted what the oracle refuses (%v):\n%q", name, err, data)
	}
	if !reflect.DeepEqual(img, ref) {
		t.Fatalf("%s: ParseImage and the oracle read different images from\n%q", name, data)
	}
}

// TestImageCodecMatchesRef: over generated, golden, empty, hostile-string
// and discovered images, EncodeImage writes the oracle's bytes,
// ParseImage reads them as the oracle does, and what it reads re-encodes
// to the same bytes.
func TestImageCodecMatchesRef(t *testing.T) {
	for name, img := range codecImages(t) {
		b := assertCodecMatchesRef(t, name, img)
		back, err := ParseImage(b)
		if err != nil {
			t.Fatalf("%s: own bytes refused: %v", name, err)
		}
		assertReadMatchesRef(t, name, b, back)
		// An image holding invalid UTF-8 is written with U+FFFD in its
		// place, so the fixpoint is the image read back.
		again := assertCodecMatchesRef(t, name, back)
		if name != "odd strings" && !bytes.Equal(again, b) {
			t.Fatalf("%s: encode(decode(b)) != b", name)
		}
		back2, err := ParseImage(again)
		if err != nil || !bytes.Equal(assertCodecMatchesRef(t, name, back2), again) {
			t.Fatalf("%s: the image read back is not a fixpoint (%v)", name, err)
		}
		if img.Resolver.Len() > 0 {
			got, err := img.Resolver.MarshalJSON()
			want, refErr := refResolverOf(&img.Resolver).MarshalJSON()
			if err != nil || refErr != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: resolver writes %s (%v), the oracle %s (%v)", name, got, err, want, refErr)
			}
		}
	}
}

// runRefusals are spellings of a run the oracle reads and ParseDelta
// refuses, as ParseImage refuses them in an image.
var runRefusals = []struct{ why, text string }{
	{"unknown member", `{"version":3,"fromLSN":3,"toLSN":4,"extra":1}`},
	{"members reordered", `{"version":3,"toLSN":4,"fromLSN":3}`},
	{"member repeated", `{"version":3,"fromLSN":3,"toLSN":4,"toLSN":4}`},
	{"member case-folded", `{"version":3,"fromLSN":3,"ToLSN":4}`},
	{"whitespace between members", `{"version":3, "fromLSN":3,"toLSN":4}`},
	{"leading whitespace", ` {"version":3,"fromLSN":3,"toLSN":4}`},
	{"tally members reordered", `{"version":3,"fromLSN":3,"toLSN":4,"tallies":[{"srcPut":[{"v":1,"ids":[1]}],"type":5}]}`},
	{"resolver group members reordered", `{"version":3,"fromLSN":3,"toLSN":4,"resolverPut":[{"ids":[1],"labels":["A"]}]}`},
	{"whitespace in a resolver group", `{"version":3,"fromLSN":3,"toLSN":4,"resolverPut":[{"labels":["A"], "ids":[1]}]}`},
	{"tallies null", `{"version":3,"fromLSN":3,"toLSN":4,"tallies":null}`},
	{"tally group without its type", `{"version":3,"fromLSN":3,"toLSN":4,"tallies":[{"srcPut":[{"v":1,"ids":[1]}]}]}`},
}

// TestImageEnvelopeRefusals pins the spellings of an image or a run the
// oracles read and ParseImage and ParseDelta refuse: a member unknown,
// reordered, repeated or case-folded, whitespace inside the object or
// before it, and a tally group without its type. Every image and run a
// writer of this format wrote has none of them.
func TestImageEnvelopeRefusals(t *testing.T) {
	_, img := goldenImages(t)
	good := string(imageBytes(t, img))
	for _, c := range []struct{ why, text string }{
		{"unknown member", `{"version":3,"extra":1}`},
		{"members reordered", `{"version":3,"nextTypeID":4,"batches":2}`},
		{"version not first", `{"batches":2,"version":3}`},
		{"member repeated", `{"version":3,"batches":2,"batches":2}`},
		{"member case-folded", `{"version":3,"Batches":2}`},
		{"whitespace between members", `{"version":3, "batches":2}`},
		{"whitespace after a name", `{"version" :3}`},
		{"whitespace in a small member", `{"version":3,"nodeChoice":{"Mu": 1}}`},
		{"whitespace in a resolver group", `{"version":3,"resolver":[{"labels":["A"], "ids":[1]}]}`},
		{"resolver group members reordered", `{"version":3,"resolver":[{"ids":[1],"labels":["A"]}]}`},
		{"tally members reordered", `{"version":3,"tallies":[{"src":[{"v":1,"ids":[1]}],"type":5}]}`},
		{"leading whitespace", ` {"version":3}`},
		{"golden image indented", strings.Replace(good, `,"batches"`, `, "batches"`, 1)},
	} {
		if _, err := refParseImage([]byte(c.text)); err != nil {
			t.Fatalf("%s: the oracle refuses %s too (%v): not a new refusal", c.why, c.text, err)
		}
		if img, err := ParseImage([]byte(c.text)); err == nil {
			t.Errorf("%s: ParseImage accepted %s as %+v", c.why, c.text, img)
		}
	}
	for _, c := range runRefusals {
		if _, err := refParseDelta([]byte(c.text)); err != nil {
			t.Fatalf("run, %s: the oracle refuses %s too (%v): not a new refusal", c.why, c.text, err)
		}
		if d, err := ParseDelta([]byte(c.text)); err == nil {
			t.Errorf("run, %s: ParseDelta accepted %s as %+v", c.why, c.text, d)
		}
	}
}

// FuzzImageCodecMatchesRef: whatever ParseImage accepts, the oracle
// accepts as an equal image; for it EncodeImage writes the oracle's
// bytes; and what EncodeImage writes reads back and re-encodes to
// itself.
func FuzzImageCodecMatchesRef(f *testing.F) {
	base, next := goldenImages(f)
	for _, img := range []*Image{base, next, genImage(rand.New(rand.NewSource(1))), servedImage(f, oddGraph(f))} {
		f.Add(imageBytes(f, img))
	}
	gen2, err := os.ReadFile(filepath.Join("testdata", "image.gen2.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gen2)
	for _, text := range []string{
		`{"version":3}`, `{}`, `{"version":3,"tallies":[],"nodeAssign":[],"resolver":[]}`,
		`{"version":3,"resolver":[{"ids":[-9223372036854775808,18446744073709551615]},{"labels":["\u003c","\u2028","\ufffd"],"ids":[0]}]}`,
		`{"version":3,"tallies":[{"type":-1,"dst":[{"v":2,"ids":[-4,9]}]}],"nextEdgeID":-3}`,
		`{"version":3,"Batches":2}`, `{"version":3, "batches":2}`, `{"version":1,"nodeAssign":{"1":0}}`,
	} {
		f.Add([]byte(text))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := ParseImage(data)
		if err != nil {
			return
		}
		assertReadMatchesRef(t, "fuzz", data, img)
		b := assertCodecMatchesRef(t, "fuzz", img)
		if b == nil {
			return // both writers refuse the image
		}
		back, err := ParseImage(b)
		if err != nil {
			t.Fatalf("own bytes refused: %v\n%q", err, b)
		}
		if again := assertCodecMatchesRef(t, "fuzz", back); !bytes.Equal(again, b) {
			t.Fatalf("encode(decode(b)) != b:\n%q\n%q", again, b)
		}
	})
}

// FuzzDeltaCodecMatchesRef: whatever ParseDelta accepts, the oracle
// reads as an equal run, and EncodeDelta writes it as bytes that read
// back and re-encode to themselves.
func FuzzDeltaCodecMatchesRef(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "delta.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, text := range []string{
		`{}`, `{"version":3,"fromLSN":3,"toLSN":4}`,
		`{"version":3,"fromLSN":3,"toLSN":4,"resolverPut":[{"ids":[9]},{"labels":["X"],"ids":[2]}],"resolverDel":[2,75],"nodeShapePut":[{"key":"Ag=="},{"key":"AQ=="},{"key":"Ag=="}],"nodeShapeDel":["AQ==","/w=="]}`,
		`{"version":3,"fromLSN":3,"toLSN":4,"nodeAssign":[{"v":99,"ids":[1]}],"nodeUnassign":[1,499],"edgeUnassign":[100]}`,
		`{"version":3,"fromLSN":3,"toLSN":4,"edgeAssign":[{"v":5,"ids":[100]},{"v":6,"ids":[100]}]}`,
		`{"version":3,"fromLSN":3,"toLSN":4,"nodeUnassign":[1` + strings.Repeat(",1", 2000) + `]}`,
		`{"version":3,"fromLSN":3,"toLSN":4,"tallies":[{"type":5,"srcPut":[{"v":1,"ids":[1]}]},{"type":5,"srcDel":[1]}]}`,
		`{"version":3,"fromLSN":3,"toLSN":4,"tallies":[{"type":6,"srcPut":[{"v":1,"ids":[1]}]},{"type":5,"dstDel":[2]}]}`,
		`{"version":3,"fromLSN":3,"toLSN":4,"tallies":[{"type":5}]}`,
		`{"version":3,"fromLSN":3,"toLSN":4,"tallies":[{"type":5,"dstPut":[{"v":0,"ids":[1]}]}]}`,
		`{"version":3,"fromLSN":3,"toLSN":4,"tallies":[{"type":-1,"srcDel":[-4,9],"dstPut":[{"v":2,"ids":[7]}]}],"resolverPut":[{"labels":["\u003c","\u2028","\ufffd"],"ids":[0]}]}`,
	} {
		f.Add([]byte(text))
	}
	for _, c := range runRefusals {
		f.Add([]byte(c.text))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseDelta(data)
		if err != nil {
			return
		}
		ref, err := refParseDelta(data)
		if err != nil {
			t.Fatalf("ParseDelta accepted what the oracle refuses (%v):\n%q", err, data)
		}
		if !reflect.DeepEqual(d, ref) {
			t.Fatalf("ParseDelta and the oracle read different runs from\n%q", data)
		}
		b, err := EncodeDelta(d)
		if err != nil {
			t.Fatalf("a run ParseDelta read does not encode: %v\n%q", err, data)
		}
		back, err := ParseDelta(b)
		if err != nil {
			t.Fatalf("own bytes refused: %v\n%q", err, b)
		}
		if again, err := EncodeDelta(back); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("encode(decode(b)) != b (%v):\n%q\n%q", err, again, b)
		}
	})
}

// TestImageCodecAllocsPerElement pins what an image costs per element
// of a served store (LDBC scale 2 in one batch). With a label index as
// the resolver, encoding allocates ≤ 24 bytes and parsing ≤ 42; through
// encoding/json they were ~70–80 and ~147, most of it a map or a buffer
// per collection, and parsing was 64.4 while images held maps. The
// whole way out (CaptureImage + EncodeImage) allocates ≤ 24 bytes and
// the whole way in (ParseImage + RestoreImage) ≤ 48, without a resolver
// and with one: capture shares the pipeline's columns and the index,
// and restore adopts the image's, where both copied every element
// through a map (70.9 and 83.0) and, with the resolver a pg.Graph,
// capture copied and sorted its nodes and restore rebuilt it node by
// node (22.4 and 104.5).
func TestImageCodecAllocsPerElement(t *testing.T) {
	g := datagen.Generate(datagen.LDBC(), 2, 1).Graph
	img := servedImage(t, g)
	data := imageBytes(t, img)
	elems := float64(img.Elements())
	perElement := func(f func()) float64 {
		var runs []float64
		for range 5 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			runs = append(runs, float64(after.TotalAlloc-before.TotalAlloc)/elems)
		}
		slices.Sort(runs)
		return runs[len(runs)/2]
	}
	enc := perElement(func() {
		if err := EncodeImage(io.Discard, img); err != nil {
			t.Fatal(err)
		}
	})
	dec := perElement(func() {
		if _, err := ParseImage(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f elements, %d-byte image: EncodeImage %.1f B/element, ParseImage %.1f B/element", elems, len(data), enc, dec)
	if enc > 24 {
		t.Errorf("EncodeImage allocates %.1f bytes per element, want ≤ 24", enc)
	}
	if dec > 42 {
		t.Errorf("ParseImage allocates %.1f bytes per element, want ≤ 42", dec)
	}

	// The run of the same image against the empty one: every element a
	// put, read by the same member walk.
	empty, err := EmptyImage(Options{Seed: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := DiffImage(empty, img)
	if err != nil {
		t.Fatal(err)
	}
	run, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	runDec := perElement(func() {
		if _, err := ParseDelta(run); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d-byte run: ParseDelta %.1f B/element", len(run), runDec)
	if runDec > 23.2 {
		t.Errorf("ParseDelta allocates %.1f bytes per element, want ≤ 23.2", runDec)
	}

	// The way out and the way in, without a resolver and with one.
	opts := Options{Seed: 1, Parallelism: 1}
	inc := NewIncremental(opts)
	inc.ProcessBatch(&pg.Batch{Graph: g, Resolver: g, Index: 1})
	var out, in [2]float64
	for i, extras := range []*CheckpointExtras{nil, {Resolver: nodeIndex(g)}} {
		captured, err := inc.CaptureImage(extras)
		if err != nil {
			t.Fatal(err)
		}
		data := imageBytes(t, captured)
		out[i] = perElement(func() {
			img, err := inc.CaptureImage(extras)
			if err == nil {
				err = EncodeImage(io.Discard, img)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		in[i] = perElement(func() {
			img, err := ParseImage(data)
			if err == nil {
				_, _, err = RestoreImage(opts, img)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("CaptureImage + EncodeImage %.1f B/element (%.1f with the resolver), ParseImage + RestoreImage %.1f B/element (%.1f with the resolver)", out[0], out[1], in[0], in[1])
	for i, with := range []string{"", " with the resolver"} {
		if out[i] > 24 {
			t.Errorf("CaptureImage + EncodeImage allocate %.1f bytes per element%s, want ≤ 24", out[i], with)
		}
		if in[i] > 48 {
			t.Errorf("ParseImage + RestoreImage allocate %.1f bytes per element%s, want ≤ 48", in[i], with)
		}
	}
}
