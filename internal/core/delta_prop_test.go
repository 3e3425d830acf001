package core

// delta_prop_test.go holds the run payload to its contract from both
// ends: whatever bytes claim to be a delta, applying them is safe
// (FuzzImageDeltaApply), and whatever two images are diffed, the delta
// rebuilds the second from the first (TestDeltaDiffApplyProperty). It
// also pins the two invariants a typed image rests on — an Image
// never aliases a live pipeline, and a captured image is already in
// the form its own bytes decode to — and that a diff costs what
// changed, not what exists.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/pghive/pghive/internal/keyed"
	"github.com/pghive/pghive/internal/pg"
)

// FuzzImageDeltaApply: a run file's payload is hostile until proven
// otherwise. Arbitrary bytes that ParseDelta accepts must apply to a
// fixed small image without panicking and without allocating more than
// a constant factor of their own length, and an accepted delta must
// leave an image that still encodes and decodes.
func FuzzImageDeltaApply(f *testing.F) {
	base, _ := goldenImages(f)
	baseBytes := imageBytes(f, base)
	// Version 1 spelled element-keyed collections one record per element.
	// Its payloads are refused by their version, whatever else they hold.
	for _, v1 := range []string{
		`{"version":1,"fromLSN":3,"toLSN":4}`,
		`{"version":1,"fromLSN":3,"toLSN":4,"schemaPatch":{"version":1,"replace":{"version":1,"nodeTypes":null,"edgeTypes":null}}}`,
		`{"version":1,"fromLSN":3,"toLSN":4,"schemaPatch":{"version":1,"edgeIDs":[5,5,5,5,5,5,5,5],"edgeTypes":[{"id":5,"srcDegSet":{"1":1}}]}}`,
		`{"version":1,"fromLSN":3,"toLSN":4,"schemaPatch":{"version":1,"nodeIDs":[42]}}`,
		`{"version":1,"fromLSN":3,"toLSN":4,"schemaPatch":{"version":7}}`,
		`{"version":1,"fromLSN":3,"toLSN":4,"resolverPut":[{"id":9},{"id":2,"labels":["X"]},{"id":9,"labels":["Y"]}],"resolverDel":[77,2,2],"nodeShapePut":[{"key":"Ag=="},{"key":"AQ=="},{"key":"Ag=="}],"nodeShapeDel":["AQ==","/w=="]}`,
		`{"version":1,"fromLSN":3,"toLSN":4,"nodeAssign":[{"id":1,"type":99}],"nodeUnassign":[1,1,500],"edgeUnassign":[100]}`,
		`{"version":1,"fromLSN":3,"toLSN":4,"schemaPatch":{"version":1,"edgeIDs":[5],"edgeTypes":[{"id":5,"srcDegDel":["012"]}]}}`,
	} {
		if _, err := ParseDelta([]byte(v1)); err == nil || !strings.Contains(err.Error(), "version 1 is not supported") {
			f.Fatalf("version-1 payload %s: %v", v1, err)
		}
		f.Add([]byte(v1))
	}
	// Generation 2 carried the degree tallies inside a structural schema
	// patch. Its payloads are refused by their version too.
	gen2, err := os.ReadFile(filepath.Join("testdata", "delta.gen2.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, v2 := range [][]byte{
		gen2,
		[]byte(`{"version":2,"fromLSN":3,"toLSN":4,"schemaPatch":{"version":2,"edgeIDs":[5,5,5,5,5,5,5,5],"edgeTypes":[{"id":5,"srcDegSet":[{"v":1,"ids":[1]}]}]}}`),
	} {
		if _, err := ParseDelta(v2); err == nil || !strings.Contains(err.Error(), "version 2 is not supported") {
			f.Fatalf("version-2 payload %s: %v", v2, err)
		}
		f.Add(v2)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "delta.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":3,"fromLSN":3,"toLSN":4}`))
	// Hostile shapes: unsorted and repeated shape puts, dels of keys that
	// are not there, an ID in two groups, a long gap-coded run of
	// tombstones; and tally groups that list a type twice, out of order,
	// empty, or with a count below one.
	f.Add([]byte(`{"version":3,"fromLSN":3,"toLSN":4,"resolverPut":[{"ids":[9]},{"labels":["X"],"ids":[2]}],"resolverDel":[2,75],"nodeShapePut":[{"key":"Ag=="},{"key":"AQ=="},{"key":"Ag=="}],"nodeShapeDel":["AQ==","/w=="]}`))
	f.Add([]byte(`{"version":3,"fromLSN":3,"toLSN":4,"nodeAssign":[{"v":99,"ids":[1]}],"nodeUnassign":[1,499],"edgeUnassign":[100]}`))
	f.Add([]byte(`{"version":3,"fromLSN":3,"toLSN":4,"edgeAssign":[{"v":5,"ids":[100]},{"v":6,"ids":[100]}]}`))
	f.Add([]byte(`{"version":3,"fromLSN":3,"toLSN":4,"nodeUnassign":[1` + strings.Repeat(",1", 2000) + `]}`))
	for _, tallies := range []string{
		`[{"type":5,"srcPut":[{"v":1,"ids":[1]}]},{"type":5,"srcDel":[1]}]`, // a type twice
		`[{"type":6,"srcPut":[{"v":1,"ids":[1]}]},{"type":5,"dstDel":[2]}]`, // out of order
		`[{"type":5}]`, // an empty group
		`[{"type":5,"dstPut":[{"v":0,"ids":[1]}]}]`, // a count below one
	} {
		seed := []byte(`{"version":3,"fromLSN":3,"toLSN":4,"tallies":` + tallies + `}`)
		if _, err := ParseDelta(seed); err == nil {
			f.Fatalf("hostile tallies accepted: %s", seed)
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseDelta(data)
		if err != nil {
			return // refused where text is parsed
		}
		img, err := DecodeImage(bytes.NewReader(baseBytes))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = d.Apply(img)
		runtime.ReadMemStats(&after)
		// The fixed image is ~10 kB; everything beyond that must be paid
		// for by input bytes.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); grew > limit {
			t.Fatalf("Apply of a %d-byte delta allocated %d bytes (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		if _, err := DecodeImage(bytes.NewReader(imageBytes(t, img))); err != nil {
			t.Fatalf("an applied delta left an image that does not read back: %v", err)
		}
	})
}

// genImage draws a small image from a tiny vocabulary, so that two
// draws overlap in every collection: types that survive, change head,
// change only degrees, appear and vanish; and collections that are
// empty (and must encode as absent).
func genImage(rng *rand.Rand) *Image {
	var tallies Tallies
	genTypes := func(edge bool) []map[string]any {
		var types []map[string]any
		for _, id := range rng.Perm(5)[:rng.Intn(5)] {
			lbl := fmt.Sprintf("L%d", id)
			types = append(types, map[string]any{"id": id, "token": lbl, "labels": map[string]int{lbl: 1 + rng.Intn(3)}, "instances": 1 + rng.Intn(2)})
			if !edge {
				continue
			}
			t := Tally{Type: id}
			for _, side := range []*keyed.Column[pg.ID, int32]{&t.Src, &t.Dst} {
				for _, node := range rng.Perm(12)[:rng.Intn(4)] {
					side.Set(pg.ID(node), int32(1+rng.Intn(2)))
				}
			}
			if t.Src.Len()+t.Dst.Len() > 0 {
				tallies = append(tallies, t)
			}
		}
		return types
	}
	text, err := json.Marshal(map[string]any{"version": 1, "nodeTypes": genTypes(false), "edgeTypes": genTypes(true)})
	if err != nil {
		panic(err)
	}
	slices.SortFunc(tallies, func(a, b Tally) int { return a.Type - b.Type })
	img := &Image{
		Version: CheckpointVersion, Schema: mustSchema(string(text)), Tallies: tallies,
		Batches: rng.Intn(9), NodeClusters: rng.Intn(9), NextTypeID: 5 + rng.Intn(3), NextEdgeID: pg.ID(rng.Intn(3)),
	}
	for _, id := range rng.Perm(10)[:rng.Intn(6)] {
		img.NodeAssign.Set(pg.ID(id), int32(rng.Intn(3)))
	}
	for _, id := range rng.Perm(10)[:rng.Intn(3)] {
		img.EdgeAssign.Set(pg.ID(100+id), int32(rng.Intn(3)))
	}
	for k := byte(0); k < 6; k++ {
		if rng.Intn(2) == 0 {
			img.NodeShapeCache = append(img.NodeShapeCache, pg.ShapeEntry{Key: []byte{k}, Token: fmt.Sprint("t", rng.Intn(2))})
		}
		if rng.Intn(3) == 0 {
			img.EdgeShapeCache = append(img.EdgeShapeCache, pg.ShapeEntry{Key: []byte{k, 1}, Items: []string{"a", "b"}[:rng.Intn(3)]})
		}
		if rng.Intn(2) == 0 {
			img.Resolver.Put(pg.ID(k), []string{"A", "B"}[:rng.Intn(3)])
		}
	}
	return img
}

// TestDeltaDiffApplyProperty: Apply(Diff(a, b), a) ≡ b under image
// serialization, for generated pairs, with the delta carried through
// JSON the way a run file carries it — and diffing modifies neither
// image.
func TestDeltaDiffApplyProperty(t *testing.T) {
	tallied := 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := genImage(rng), genImage(rng)
		a.WALSeq = uint64(rng.Intn(4))
		b.WALSeq = a.WALSeq + uint64(rng.Intn(3))
		a.AppliedKeys = []AppliedKey{{Key: "old", LSN: a.WALSeq}}[:rng.Intn(2)]
		b.AppliedKeys = append([]AppliedKey(nil), a.AppliedKeys...)
		if b.WALSeq > a.WALSeq {
			b.AppliedKeys = append(b.AppliedKeys, AppliedKey{Key: "new", LSN: b.WALSeq})
		}
		aBytes, bBytes := imageBytes(t, a), imageBytes(t, b)

		d, err := DiffImage(a, b)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(d.Tallies) > 0 {
			tallied++
		}
		payload, err := EncodeDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := ParseDelta(payload)
		if err != nil {
			t.Fatalf("seed %d: own payload refused: %v\n%s", seed, err, payload)
		}
		img := cloneImage(t, a)
		if err := decoded.Apply(img); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := imageBytes(t, img); !bytes.Equal(got, bBytes) {
			t.Fatalf("seed %d: Apply(Diff(a, b), a) != b\n got %s\nwant %s\ndelta %s", seed, got, bBytes, payload)
		}
		// The in-memory delta (which may share memory with b) does the same.
		img = cloneImage(t, a)
		if err := d.Apply(img); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(imageBytes(t, img), bBytes) {
			t.Fatalf("seed %d: the undecoded delta applies differently", seed)
		}
		if !bytes.Equal(imageBytes(t, a), aBytes) || !bytes.Equal(imageBytes(t, b), bBytes) {
			t.Fatalf("seed %d: diffing or applying modified an input image", seed)
		}
	}
	if tallied == 0 {
		t.Fatal("no generated pair changed a degree tally")
	}
}

// TestMalformedSchemaTextRefusedAtDecode: an image and a delta hold
// values, so text that is not a schema (or not a patch) never gets as
// far as a diff or an apply — the decoders refuse it.
func TestMalformedSchemaTextRefusedAtDecode(t *testing.T) {
	for _, text := range []string{
		`{"version":3,"schema":not json}`,
		`{"version":3,"schema":"junk"}`,
		`{"version":3,"schema":{"version":1,"edgeTypes":[{"id":0,"srcDeg":{"012":1}}]}}`,
	} {
		if _, err := DecodeImage(strings.NewReader(text)); err == nil {
			t.Errorf("DecodeImage accepted %s", text)
		}
	}
	for _, text := range []string{
		`{"version":3,"fromLSN":3,"toLSN":4,"schema":not json}`,
		`{"version":3,"fromLSN":3,"toLSN":4,"schema":"junk"}`,
		`{"version":3,"fromLSN":3,"toLSN":4,"schema":{"version":1,"nodeTypes":"junk"}}`,
	} {
		if _, err := ParseDelta([]byte(text)); err == nil {
			t.Errorf("an ImageDelta decoded from %s", text)
		}
	}
	// An image with no schema member decodes (to the zero schema) and is
	// refused by the first thing that needs a schema.
	img, err := DecodeImage(strings.NewReader(`{"version":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RestoreImage(Options{}, img); err == nil {
		t.Fatal("RestoreImage accepted an image without a schema")
	}
}

// TestOtherVersionsRefusedByVersion: an image or a run of another
// version is refused with an error naming that version — also a
// version-1 document, whose element-keyed collections do not parse as
// version 2's.
func TestOtherVersionsRefusedByVersion(t *testing.T) {
	for _, c := range []struct{ text, want string }{
		{`{"version":1,"nodeAssign":{"1":0},"resolver":[{"id":1,"labels":["A"]}]}`, "checkpoint version 1 "},
		{`{"version":1}`, "checkpoint version 1 "},
		{`{"version":4,"nodeAssign":[{"v":0,"ids":[1]}]}`, "checkpoint version 4 "},
	} {
		if _, err := ParseImage([]byte(c.text)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseImage(%s): %v, want an error naming %q", c.text, err, c.want)
		}
	}
	for _, c := range []struct{ text, want string }{
		{`{"version":1,"fromLSN":3,"toLSN":4,"nodeAssign":[{"id":1,"type":0}]}`, "delta version 1 "},
		{`{"fromLSN":3,"toLSN":4}`, "delta version 0 "},
	} {
		if _, err := ParseDelta([]byte(c.text)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseDelta(%s): %v, want an error naming %q", c.text, err, c.want)
		}
	}
	// An image decoded from other bytes is refused where it is used, too.
	if _, _, err := RestoreImage(Options{}, &Image{Version: 1}); err == nil || !strings.Contains(err.Error(), "version 1 ") {
		t.Errorf("RestoreImage of a version-1 image: %v", err)
	}
}

// TestGenerationTwoRefused: the image and run that generation 2 wrote
// (the goldens before the degree tallies left the schema, kept as
// fixtures) are refused by their version, not read.
func TestGenerationTwoRefused(t *testing.T) {
	for _, c := range []struct {
		file, want string
		parse      func([]byte) error
	}{
		{"image.gen2.json", "checkpoint version 2 is not supported", func(b []byte) error { _, err := ParseImage(b); return err }},
		{"delta.gen2.json", "delta version 2 is not supported", func(b []byte) error { _, err := ParseDelta(b); return err }},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.parse(data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error naming %q", c.file, err, c.want)
		}
	}
}

// TestTalliesRefuseHostileGroups: an image's tally collection reads in
// one spelling only, and RestoreImage refuses tallies for an edge type
// its schema lacks.
func TestTalliesRefuseHostileGroups(t *testing.T) {
	for _, tallies := range []string{
		`[{"type":5,"src":[{"v":1,"ids":[1]}]},{"type":5,"dst":[{"v":1,"ids":[2]}]}]`, // a type twice
		`[{"type":6,"src":[{"v":1,"ids":[1]}]},{"type":5,"dst":[{"v":1,"ids":[2]}]}]`, // out of order
		`[{"type":5}]`, // an empty group
		`[{"type":5,"src":[{"v":-1,"ids":[1]}],"dst":[{"v":1,"ids":[2]}]}]`, // a count below one
	} {
		if _, err := ParseImage([]byte(`{"version":3,"tallies":` + tallies + `}`)); err == nil {
			t.Errorf("ParseImage accepted tallies %s", tallies)
		}
	}
	_, img := goldenImages(t)
	img = cloneImage(t, img)
	img.Tallies = append(img.Tallies, Tally{Type: 1000, Src: columnOf(map[pg.ID]int{1: 1})})
	if _, _, err := RestoreImage(Options{}, img); err == nil || !strings.Contains(err.Error(), "unknown edge type 1000") {
		t.Fatalf("RestoreImage of tallies for a type the schema lacks: %v", err)
	}
}

// TestImageParsersRefuseTrailingBytes: DecodeImage (RestoreService,
// ResumeFromCheckpoint, serve -restore) and ParseImage (recovery) are
// one parser, so both refuse an image followed by anything but
// whitespace.
func TestImageParsersRefuseTrailingBytes(t *testing.T) {
	_, img := goldenImages(t)
	good := imageBytes(t, img)
	if _, err := DecodeImage(bytes.NewReader(append(slices.Clone(good), " \n"...))); err != nil {
		t.Fatalf("trailing whitespace refused: %v", err)
	}
	for _, tail := range []string{"x", "{}", `{"version":3}`, "\x00"} {
		bad := append(slices.Clone(good), tail...)
		if _, err := DecodeImage(bytes.NewReader(bad)); err == nil {
			t.Errorf("DecodeImage accepted an image followed by %q", tail)
		}
		if _, err := ParseImage(bad); err == nil {
			t.Errorf("ParseImage accepted an image followed by %q", tail)
		}
	}
}

// ResolverNodes is a resolver spelled as its nodes, written through
// pg.LabelIndex's wire form and read back through pg.DecodeLabelIndex
// (parseResolverNodes): TestResolverWireForm's view of it. Nodes out of
// ID order, which no index holds, do not encode.
type ResolverNodes []ResolverNode

func (ns ResolverNodes) MarshalJSON() ([]byte, error) {
	var x pg.LabelIndex
	for i, n := range ns {
		if i > 0 && n.ID <= ns[i-1].ID {
			return nil, fmt.Errorf("resolver: node %d after node %d", n.ID, ns[i-1].ID)
		}
		x.Put(n.ID, n.Labels)
	}
	return x.MarshalJSON()
}

// parseResolverNodes reads a resolver's wire form, the whole of data.
func parseResolverNodes(data []byte) (ResolverNodes, error) {
	x, n, err := pg.DecodeLabelIndex(data)
	if err := wholeInput(n, data, err); err != nil {
		return nil, err
	}
	var ns ResolverNodes
	for id, labels := range x.All() {
		ns = append(ns, ResolverNode{ID: id, Labels: labels})
	}
	return ns, nil
}

// TestResolverWireForm: the resolver is written one ID list per label
// set, and only that spelling reads back.
func TestResolverWireForm(t *testing.T) {
	nodes := ResolverNodes{{ID: 1, Labels: []string{"B"}}, {ID: 2}, {ID: 3, Labels: []string{"A", "B"}}, {ID: 5, Labels: []string{"B"}}, {ID: 9, Labels: []string{"A\x00B"}}}
	b, err := json.Marshal(nodes)
	if err != nil {
		t.Fatal(err)
	}
	const want = `[{"ids":[2]},{"labels":["A","B"],"ids":[3]},{"labels":["A\u0000B"],"ids":[9]},{"labels":["B"],"ids":[1,4]}]`
	if string(b) != want {
		t.Fatalf("got %s, want %s", b, want)
	}
	back, err := parseResolverNodes(b)
	if err != nil || !reflect.DeepEqual(back, nodes) {
		t.Fatalf("round trip gave %v (%v)", back, err)
	}
	if _, err := json.Marshal(ResolverNodes{{ID: 2}, {ID: 1}}); err == nil {
		t.Fatal("nodes out of ID order must not encode")
	}
	for _, text := range []string{
		`[{"labels":["B"],"ids":[]}]`,                             // empty group
		`[{"labels":["B"],"ids":[1]},{"labels":["A"],"ids":[2]}]`, // sets out of order
		`[{"labels":["B"],"ids":[1]},{"labels":["B"],"ids":[2]}]`, // set twice
		`[{"labels":["A"],"ids":[1]},{"labels":["B"],"ids":[1]}]`, // node in two sets
		`[{"labels":["B","A"],"ids":[1]}]`,                        // labels unsorted
		`[{"labels":[],"ids":[1]}]`,                               // empty set spelled out
		`[{"labels":["A"],"ids":[1,0]}]`,                          // gap zero
		`[{"id":1,"labels":["A"]}]`,                               // version 1's spelling
	} {
		if back, err := parseResolverNodes([]byte(text)); err == nil {
			t.Errorf("accepted %s as %v", text, back)
		}
	}
}

// aliasPipeline is a pipeline with some history, plus a growth batch
// and a retraction that both touch types and nodes it already knows.
// Each batch is finalized, so the images carry derived fields.
func aliasPipeline() (inc *Incremental, grow, shrink *pg.Batch) {
	g := socialGraph(120, 0.7, 0.1, 41)
	batches := pg.SplitBatches(g, 3, rand.New(rand.NewSource(41)))
	inc = NewIncremental(Options{Seed: 41, Parallelism: 1})
	inc.ProcessBatch(batches[0])
	inc.Finalize()
	inc.ProcessBatch(batches[1])
	inc.Finalize()
	return inc, batches[2], batches[0]
}

// aliasResolver is a resolver of every node aliasPipeline's batches
// hold, put one by one as a serving writer keeps one beside its
// pipeline: no clone has shared it yet.
func aliasResolver(grow *pg.Batch) *CheckpointExtras {
	var x pg.LabelIndex
	for id, labels := range grow.Resolver.(*pg.LabelIndex).All() {
		x.Put(id, labels)
	}
	return &CheckpointExtras{Resolver: &x}
}

// scribbleResolver removes every other node of x and puts one new node
// with a label set x has not seen.
func scribbleResolver(x *pg.LabelIndex) {
	var ids []pg.ID
	for id := range x.All() {
		ids = append(ids, id)
	}
	for _, id := range ids {
		if id%2 == 0 {
			x.Remove(id)
		}
	}
	x.Put(1<<40, []string{"Scribbled"})
}

// assertImageWritesStayOff writes to an image that may share columns
// with the pipeline inc, or its index with the resolver in extras — a
// Set or a Delete on every entry of every column, a Remove of every
// other resolver node and a Put, then d applied, as recovery and a fold
// apply runs — and fails unless inc then captures want, the bytes of
// its state.
func assertImageWritesStayOff(t *testing.T, inc *Incremental, extras *CheckpointExtras, want []byte, img *Image, d *ImageDelta) {
	t.Helper()
	scribble := func(c *keyed.Column[pg.ID, int32]) {
		var ids []pg.ID
		var vals []int32
		for id, v := range c.All() {
			ids, vals = append(ids, id), append(vals, v)
		}
		for i, id := range ids {
			if id%2 == 0 {
				c.Delete(id)
			} else {
				c.Set(id, vals[i]+1)
			}
		}
	}
	scribble(&img.NodeAssign)
	scribble(&img.EdgeAssign)
	for i := range img.Tallies {
		scribble(&img.Tallies[i].Src)
		scribble(&img.Tallies[i].Dst)
	}
	scribbleResolver(&img.Resolver)
	if err := d.Apply(img); err != nil {
		t.Fatal(err)
	}
	now, err := inc.CaptureImage(extras)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imageBytes(t, now), want) {
		t.Fatal("a write to an image reached the pipeline it shares columns with")
	}
}

// TestImageDoesNotAliasCapturedPipeline: writes to a pipeline after
// CaptureImage leave the captured image as it was, and writes to the
// image leave the pipeline as it is. bench/layers.go captures, keeps
// writing to the same pipeline, captures again and diffs the two.
func TestImageDoesNotAliasCapturedPipeline(t *testing.T) {
	inc, grow, shrink := aliasPipeline()
	extras := aliasResolver(grow)
	img, err := inc.CaptureImage(extras)
	if err != nil {
		t.Fatal(err)
	}
	want := imageBytes(t, img)
	inc.ProcessBatch(grow)
	inc.RetractBatch(shrink)
	inc.Finalize()
	scribbleResolver(extras.Resolver.(*pg.LabelIndex))
	if !bytes.Equal(imageBytes(t, img), want) {
		t.Fatal("a write to the pipeline or its resolver changed an image captured before it")
	}
	later, err := inc.CaptureImage(extras)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DiffImage(img, later)
	if err != nil {
		t.Fatal(err)
	}
	assertImageWritesStayOff(t, inc, extras, imageBytes(t, later), img, d)
}

// TestImageDoesNotAliasRestoredPipeline: writes to a pipeline built by
// RestoreImage leave the image it was built from as it was, and writes
// to that image leave the pipeline as it is. Compaction restores a
// writer from the merged image, replays onto it and diffs the result
// against that same image.
func TestImageDoesNotAliasRestoredPipeline(t *testing.T) {
	src, grow, shrink := aliasPipeline()
	img, err := src.CaptureImage(aliasResolver(grow))
	if err != nil {
		t.Fatal(err)
	}
	want := imageBytes(t, img)
	inc, extras, err := RestoreImage(Options{Seed: 41, Parallelism: 1}, img)
	if err != nil {
		t.Fatal(err)
	}
	inc.ProcessBatch(grow)
	inc.RetractBatch(shrink)
	inc.Finalize()
	scribbleResolver(extras.Resolver.(*pg.LabelIndex))
	if !bytes.Equal(imageBytes(t, img), want) {
		t.Fatal("a write to the restored pipeline or its resolver changed the image it was restored from")
	}
	// And what compaction then does with the pair is exact.
	next, err := inc.CaptureImage(extras)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DiffImage(img, next)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Tallies) == 0 {
		t.Fatalf("expected tally changes, got %+v", d)
	}
	got := cloneImage(t, img)
	if err := d.Apply(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imageBytes(t, got), imageBytes(t, next)) {
		t.Fatal("Apply(Diff(restored-from, captured-after)) does not rebuild the captured image")
	}
	// An image read from bytes shares its columns with nothing until a
	// pipeline is restored from it.
	decoded := cloneImage(t, img)
	restored, restoredExtras, err := RestoreImage(Options{Seed: 41, Parallelism: 1}, decoded)
	if err != nil {
		t.Fatal(err)
	}
	assertImageWritesStayOff(t, inc, extras, imageBytes(t, next), img, d)
	assertImageWritesStayOff(t, restored, restoredExtras, want, decoded, d)
}

// TestCaptureImageIsCanonical: the schema CaptureImage holds is deeply
// equal to the one its own bytes decode to — empty collections are
// nil, never empty. Diff compares heads with reflect.DeepEqual, so a
// captured image that differed from its decoded twin only in nil-ness
// would re-emit every head in every run.
func TestCaptureImageIsCanonical(t *testing.T) {
	inc, grow, shrink := aliasPipeline()
	inc.ProcessBatch(grow)
	inc.RetractBatch(shrink)
	captured, err := inc.CaptureImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, golden := goldenImages(t)
	for _, img := range []*Image{captured, golden} {
		decoded := cloneImage(t, img)
		if !reflect.DeepEqual(img.Schema, decoded.Schema) {
			t.Fatal("a captured schema is not deeply equal to its decoded self")
		}
		d, err := DiffImage(decoded, img)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Tallies) != 0 || d.Tombstones() != 0 || d.NodeAssign.Len()+len(d.NodeShapePut)+len(d.EdgeShapePut)+d.ResolverPut.Len() != 0 {
			t.Fatalf("an image differs from its decoded self: %+v", d)
		}
	}
}

// TestDiffImageAllocsFollowChange: the same ~50-element write diffed
// against a base twice the size must not allocate twice as much. With
// the schema held as text, both blobs were unmarshalled whole on every
// diff, so allocations followed the database.
func TestDiffImageAllocsFollowChange(t *testing.T) {
	write := socialGraph(25, 1, 0, 99) // ~50 elements, disjoint IDs below
	allocs := func(persons int) (float64, int) {
		base := socialGraph(persons, 1, 0, 7)
		inc := NewIncremental(Options{Seed: 7, Parallelism: 1})
		inc.ProcessBatch(&pg.Batch{Graph: base, Resolver: base, Index: 1})
		pre, err := inc.CaptureImage(nil)
		if err != nil {
			t.Fatal(err)
		}
		shifted := pg.NewGraph()
		shifted.AllowDanglingEdges(true)
		const off = 1 << 20
		for _, n := range write.Nodes() {
			if err := shifted.PutNode(n.ID+off, n.Labels, n.Props); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range write.Edges() {
			if err := shifted.PutEdge(e.ID+off, e.Labels, e.Src+off, e.Dst+off, e.Props); err != nil {
				t.Fatal(err)
			}
		}
		inc.ProcessBatch(&pg.Batch{Graph: shifted, Resolver: shifted, Index: 2})
		post, err := inc.CaptureImage(nil)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := DiffImage(pre, post); err != nil {
				t.Fatal(err)
			}
		}), pre.Elements()
	}
	small, smallN := allocs(450)
	large, largeN := allocs(900)
	t.Logf("DiffImage allocations: %.0f against %d elements, %.0f against %d", small, smallN, large, largeN)
	if largeN < 2*smallN*9/10 {
		t.Fatalf("setup: bases of %d and %d elements are not 1:2", smallN, largeN)
	}
	if large > 1.5*small {
		t.Fatalf("DiffImage allocations follow the base, not the change: %.0f -> %.0f for a base twice the size", small, large)
	}
}
