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
	golden, err := os.ReadFile(filepath.Join("testdata", "delta.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":2,"fromLSN":3,"toLSN":4}`))
	f.Add([]byte(`{"version":2,"fromLSN":3,"toLSN":4,"schemaPatch":{"version":2,"replace":{"version":1,"nodeTypes":null,"edgeTypes":null}}}`))
	// Hostile shapes: a type listed many times, a new type without a
	// head, an unknown patch version, unsorted and repeated shape puts,
	// dels of keys that are not there, a non-canonical degree key, an ID
	// in two groups, a long gap-coded run of tombstones.
	f.Add([]byte(`{"version":2,"fromLSN":3,"toLSN":4,"schemaPatch":{"version":2,"edgeIDs":[5,5,5,5,5,5,5,5],"edgeTypes":[{"id":5,"srcDegSet":[{"v":1,"ids":[1]}]}]}}`))
	f.Add([]byte(`{"version":2,"fromLSN":3,"toLSN":4,"schemaPatch":{"version":2,"nodeIDs":[42]}}`))
	f.Add([]byte(`{"version":2,"fromLSN":3,"toLSN":4,"schemaPatch":{"version":7}}`))
	f.Add([]byte(`{"version":2,"fromLSN":3,"toLSN":4,"resolverPut":[{"ids":[9]},{"labels":["X"],"ids":[2]}],"resolverDel":[2,75],"nodeShapePut":[{"key":"Ag=="},{"key":"AQ=="},{"key":"Ag=="}],"nodeShapeDel":["AQ==","/w=="]}`))
	f.Add([]byte(`{"version":2,"fromLSN":3,"toLSN":4,"nodeAssign":[{"v":99,"ids":[1]}],"nodeUnassign":[1,499],"edgeUnassign":[100]}`))
	f.Add([]byte(`{"version":2,"fromLSN":3,"toLSN":4,"schemaPatch":{"version":2,"edgeIDs":[5],"edgeTypes":[{"id":5,"srcDegDel":["012"]}]}}`))
	f.Add([]byte(`{"version":2,"fromLSN":3,"toLSN":4,"edgeAssign":[{"v":5,"ids":[100]},{"v":6,"ids":[100]}]}`))
	f.Add([]byte(`{"version":2,"fromLSN":3,"toLSN":4,"nodeUnassign":[1` + strings.Repeat(",1", 2000) + `]}`))

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
// change only degrees, appear and vanish; collections that are empty
// (and must encode as absent); and — when dupIDs — a schema listing a
// type ID twice, which only a replace patch can carry.
func genImage(rng *rand.Rand, dupIDs bool) (img *Image, dup bool) {
	genTypes := func(edge bool) []map[string]any {
		var types []map[string]any
		for _, id := range rng.Perm(5)[:rng.Intn(5)] {
			lbl := fmt.Sprintf("L%d", id)
			ty := map[string]any{"id": id, "token": lbl, "labels": map[string]int{lbl: 1 + rng.Intn(3)}, "instances": 1 + rng.Intn(2)}
			if edge {
				for _, side := range []string{"srcDeg", "dstDeg"} {
					deg := map[string]int{}
					for _, node := range rng.Perm(12)[:rng.Intn(4)] {
						deg[fmt.Sprint(node)] = 1 + rng.Intn(2)
					}
					if len(deg) > 0 {
						ty[side] = deg
					}
				}
			}
			types = append(types, ty)
		}
		if dupIDs && len(types) > 0 {
			types, dup = append(types, types[0]), true
		}
		return types
	}
	text, err := json.Marshal(map[string]any{"version": 1, "nodeTypes": genTypes(false), "edgeTypes": genTypes(true)})
	if err != nil {
		panic(err)
	}
	img = &Image{
		Version: CheckpointVersion, Schema: mustSchema(string(text)),
		Batches: rng.Intn(9), NodeClusters: rng.Intn(9), NextTypeID: 5 + rng.Intn(3), NextEdgeID: pg.ID(rng.Intn(3)),
		NodeAssign: map[pg.ID]int{}, EdgeAssign: map[pg.ID]int{},
	}
	for _, id := range rng.Perm(10)[:rng.Intn(6)] {
		img.NodeAssign[pg.ID(id)] = rng.Intn(3)
	}
	for _, id := range rng.Perm(10)[:rng.Intn(3)] {
		img.EdgeAssign[pg.ID(100+id)] = rng.Intn(3)
	}
	for k := byte(0); k < 6; k++ {
		if rng.Intn(2) == 0 {
			img.NodeShapeCache = append(img.NodeShapeCache, pg.ShapeEntry{Key: []byte{k}, Token: fmt.Sprint("t", rng.Intn(2))})
		}
		if rng.Intn(3) == 0 {
			img.EdgeShapeCache = append(img.EdgeShapeCache, pg.ShapeEntry{Key: []byte{k, 1}, Items: []string{"a", "b"}[:rng.Intn(3)]})
		}
		if rng.Intn(2) == 0 {
			img.Resolver = append(img.Resolver, ResolverNode{ID: pg.ID(k), Labels: []string{"A", "B"}[:rng.Intn(3)]})
		}
	}
	return img, dup
}

// TestDeltaDiffApplyProperty: Apply(Diff(a, b), a) ≡ b under image
// serialization, for generated pairs, with the delta carried through
// JSON the way a run file carries it — and diffing modifies neither
// image.
func TestDeltaDiffApplyProperty(t *testing.T) {
	replaced := 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, dupA := genImage(rng, seed%7 == 3)
		b, dupB := genImage(rng, seed%5 == 2)
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
		if p := d.SchemaPatch; p != nil && (p.Replace != nil) != (dupA || dupB) {
			t.Fatalf("seed %d: duplicate IDs %v/%v, replace patch %v", seed, dupA, dupB, p.Replace != nil)
		} else if p != nil && p.Replace != nil {
			replaced++
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
	if replaced == 0 {
		t.Fatal("no generated pair exercised the replace fallback")
	}
}

// TestMalformedSchemaTextRefusedAtDecode: an image and a delta hold
// values, so text that is not a schema (or not a patch) never gets as
// far as a diff or an apply — the decoders refuse it.
func TestMalformedSchemaTextRefusedAtDecode(t *testing.T) {
	for _, text := range []string{
		`{"version":2,"schema":not json}`,
		`{"version":2,"schema":"junk"}`,
		`{"version":2,"schema":{"version":1,"edgeTypes":[{"id":0,"srcDeg":{"012":1}}]}}`,
	} {
		if _, err := DecodeImage(strings.NewReader(text)); err == nil {
			t.Errorf("DecodeImage accepted %s", text)
		}
	}
	for _, text := range []string{
		`{"version":2,"fromLSN":3,"toLSN":4,"schemaPatch":not json}`,
		`{"version":2,"fromLSN":3,"toLSN":4,"schemaPatch":"junk"}`,
		`{"version":2,"fromLSN":3,"toLSN":4,"schemaPatch":{"version":2,"replace":"junk"}}`,
	} {
		if _, err := ParseDelta([]byte(text)); err == nil {
			t.Errorf("an ImageDelta decoded from %s", text)
		}
	}
	// An image with no schema member decodes (to the zero schema) and is
	// refused by the first thing that needs a schema.
	img, err := DecodeImage(strings.NewReader(`{"version":2}`))
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
		{`{"version":3,"nodeAssign":[{"v":0,"ids":[1]}]}`, "checkpoint version 3 "},
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
	for _, tail := range []string{"x", "{}", `{"version":2}`, "\x00"} {
		bad := append(slices.Clone(good), tail...)
		if _, err := DecodeImage(bytes.NewReader(bad)); err == nil {
			t.Errorf("DecodeImage accepted an image followed by %q", tail)
		}
		if _, err := ParseImage(bad); err == nil {
			t.Errorf("ParseImage accepted an image followed by %q", tail)
		}
	}
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
	var back ResolverNodes
	if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(back, nodes) {
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
		if err := json.Unmarshal([]byte(text), &back); err == nil {
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

// TestImageDoesNotAliasCapturedPipeline: writes to a pipeline after
// CaptureImage leave the captured image as it was. bench/layers.go
// captures, keeps writing to the same pipeline, captures again and
// diffs the two.
func TestImageDoesNotAliasCapturedPipeline(t *testing.T) {
	inc, grow, shrink := aliasPipeline()
	img, err := inc.CaptureImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := imageBytes(t, img)
	inc.ProcessBatch(grow)
	inc.RetractBatch(shrink)
	inc.Finalize()
	if !bytes.Equal(imageBytes(t, img), want) {
		t.Fatal("a write to the pipeline changed an image captured before it")
	}
}

// TestImageDoesNotAliasRestoredPipeline: writes to a pipeline built by
// RestoreImage leave the image it was built from as it was. Compaction
// restores a writer from the merged image, replays onto it and diffs
// the result against that same image.
func TestImageDoesNotAliasRestoredPipeline(t *testing.T) {
	src, grow, shrink := aliasPipeline()
	img, err := src.CaptureImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := imageBytes(t, img)
	inc, _, err := RestoreImage(Options{Seed: 41, Parallelism: 1}, img)
	if err != nil {
		t.Fatal(err)
	}
	inc.ProcessBatch(grow)
	inc.RetractBatch(shrink)
	inc.Finalize()
	if !bytes.Equal(imageBytes(t, img), want) {
		t.Fatal("a write to the restored pipeline changed the image it was restored from")
	}
	// And what compaction then does with the pair is exact.
	next, err := inc.CaptureImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DiffImage(img, next)
	if err != nil {
		t.Fatal(err)
	}
	if d.SchemaPatch == nil || d.SchemaPatch.Replace != nil {
		t.Fatalf("expected a structural schema patch, got %+v", d.SchemaPatch)
	}
	got := cloneImage(t, img)
	if err := d.Apply(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imageBytes(t, got), imageBytes(t, next)) {
		t.Fatal("Apply(Diff(restored-from, captured-after)) does not rebuild the captured image")
	}
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
		if d.SchemaPatch != nil || d.Tombstones() != 0 || len(d.NodeAssign)+len(d.NodeShapePut)+len(d.EdgeShapePut)+len(d.ResolverPut) != 0 {
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
