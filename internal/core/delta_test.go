package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

// mustSchema parses a persisted schema for a hand-built image.
func mustSchema(text string) schema.Persisted {
	var p schema.Persisted
	if err := json.Unmarshal([]byte(text), &p); err != nil {
		panic(err)
	}
	return p
}

// deltaBase and deltaNext are hand-built canonical images exercising
// every collection the differ walks: assignments added, re-typed, and
// removed; shape-cache entries replaced and tombstoned; resolver
// nodes relabeled and deleted; applied keys before and after the base
// coverage.
func deltaBase() *Image {
	return &Image{
		Version: CheckpointVersion,
		Schema: mustSchema(`{"version":1,
			"nodeTypes":[{"id":0,"labels":{"A":2},"token":"A","instances":2},{"id":1,"labels":{"B":1},"token":"B","instances":1}],
			"edgeTypes":[{"id":2,"labels":{"E":1},"token":"E","instances":1,"srcTokens":["A"],"dstTokens":["B"],"srcDeg":{"1":1},"dstDeg":{"2":1}}]}`),
		Batches:      3,
		NodeAssign:   map[pg.ID]int{1: 0, 2: 1, 3: 0},
		EdgeAssign:   map[pg.ID]int{10: 0},
		NodeClusters: 2,
		EdgeClusters: 1,
		NodeShapes:   3,
		EdgeShapes:   1,
		NodeShapeCache: []pg.ShapeEntry{
			{Key: []byte{0x01}, Token: "t0"},
			{Key: []byte{0x02}, Token: "t1"},
		},
		EdgeShapeCache: []pg.ShapeEntry{{Key: []byte{0x09}, Token: "e0"}},
		Resolver: []ResolverNode{
			{ID: 1, Labels: []string{"A"}},
			{ID: 2, Labels: []string{"B"}},
			{ID: 3, Labels: []string{"A"}},
		},
		NextEdgeID:  11,
		NextTypeID:  2,
		WALSeq:      3,
		AppliedKeys: []AppliedKey{{Key: "k1", LSN: 2}},
	}
}

func deltaNext() *Image {
	return &Image{
		Version: CheckpointVersion,
		Schema: mustSchema(`{"version":1,
			"nodeTypes":[{"id":0,"labels":{"A":1},"token":"A","instances":1},{"id":1,"labels":{"B":2},"token":"B","instances":2}],
			"edgeTypes":null}`),
		Batches:      5,
		NodeAssign:   map[pg.ID]int{1: 1, 3: 0, 4: 1}, // 1 re-typed, 2 gone, 4 new
		EdgeAssign:   map[pg.ID]int{},                 // 10 gone
		NodeClusters: 3,
		EdgeClusters: 0,
		NodeShapes:   4,
		EdgeShapes:   0,
		NodeShapeCache: []pg.ShapeEntry{
			{Key: []byte{0x01}, Token: "t2"}, // replaced
			{Key: []byte{0x03}, Token: "t3"}, // added; 0x02 tombstoned
		},
		EdgeShapeCache: nil, // 0x09 tombstoned
		Resolver: []ResolverNode{
			{ID: 1, Labels: []string{"A", "X"}}, // relabeled
			{ID: 3, Labels: []string{"A"}},      // unchanged
			{ID: 4, Labels: []string{"C"}},      // added; 2 deleted
		},
		NextEdgeID:  11,
		NextTypeID:  3,
		WALSeq:      7,
		AppliedKeys: []AppliedKey{{Key: "k1", LSN: 2}, {Key: "k2", LSN: 6}},
	}
}

func imageBytes(t testing.TB, img *Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeImage(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func cloneImage(t testing.TB, img *Image) *Image {
	t.Helper()
	out, err := DecodeImage(bytes.NewReader(imageBytes(t, img)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDeltaDiffApplyRoundTrip is the exactness contract the run
// layout rests on: Apply(base, Diff(base, next)) rebuilds next
// byte-identically under image serialization — including after the
// delta itself round-trips through JSON, which is how run files carry
// it.
func TestDeltaDiffApplyRoundTrip(t *testing.T) {
	base, next := deltaBase(), deltaNext()
	d, err := DiffImage(base, next)
	if err != nil {
		t.Fatal(err)
	}
	if d.FromLSN != 3 || d.ToLSN != 7 {
		t.Fatalf("delta spans (%d, %d], want (3, 7]", d.FromLSN, d.ToLSN)
	}
	// Tombstones: node 2 unassigned, edge 10 unassigned, node shape
	// 0x02, edge shape 0x09, resolver node 2.
	if got := d.Tombstones(); got != 5 {
		t.Fatalf("Tombstones() = %d, want 5", got)
	}
	// Only keys applied after the base coverage ride in the delta.
	if len(d.AppliedKeys) != 1 || d.AppliedKeys[0].Key != "k2" {
		t.Fatalf("delta applied keys: %+v, want just k2", d.AppliedKeys)
	}

	payload, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var decoded ImageDelta
	if err := json.Unmarshal(payload, &decoded); err != nil {
		t.Fatal(err)
	}
	img := cloneImage(t, base)
	if err := decoded.Apply(img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imageBytes(t, img), imageBytes(t, next)) {
		t.Fatal("Apply(base, Diff(base, next)) does not rebuild next")
	}
}

// TestDeltaChainApply: two contiguous deltas applied in order rebuild
// the final image — the multi-run recovery path.
func TestDeltaChainApply(t *testing.T) {
	base, next := deltaBase(), deltaNext()
	mid := cloneImage(t, base)
	mid.Batches = 4
	mid.NodeAssign[4] = 1
	mid.Resolver = append(mid.Resolver, ResolverNode{ID: 4, Labels: []string{"C"}})
	mid.WALSeq = 5

	d1, err := DiffImage(base, mid)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DiffImage(mid, next)
	if err != nil {
		t.Fatal(err)
	}
	img := cloneImage(t, base)
	if err := d1.Apply(img); err != nil {
		t.Fatal(err)
	}
	if err := d2.Apply(img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imageBytes(t, img), imageBytes(t, next)) {
		t.Fatal("chained deltas do not rebuild the final image")
	}
}

// TestDeltaEmptyDiff: diffing an image against itself yields no puts,
// no tombstones, and applying it is an identity (modulo coverage).
func TestDeltaEmptyDiff(t *testing.T) {
	base := deltaBase()
	d, err := DiffImage(base, cloneImage(t, base))
	if err != nil {
		t.Fatal(err)
	}
	if d.Tombstones() != 0 || len(d.NodeAssign) != 0 || len(d.NodeShapePut) != 0 || len(d.ResolverPut) != 0 || len(d.AppliedKeys) != 0 {
		t.Fatalf("self-diff is not empty: %+v", d)
	}
	img := cloneImage(t, base)
	if err := d.Apply(img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imageBytes(t, img), imageBytes(t, base)) {
		t.Fatal("empty delta is not an identity")
	}
}

// TestDeltaContiguityEnforced: a delta applies only to the image
// whose coverage it starts from, and diffs only run forward.
func TestDeltaContiguityEnforced(t *testing.T) {
	base, next := deltaBase(), deltaNext()
	if _, err := DiffImage(next, base); err == nil {
		t.Fatal("DiffImage accepted a next image older than the base")
	}
	d, err := DiffImage(base, next)
	if err != nil {
		t.Fatal(err)
	}
	wrong := cloneImage(t, base)
	wrong.WALSeq = 4
	if err := d.Apply(wrong); err == nil {
		t.Fatal("Apply accepted an image at the wrong coverage")
	}
	bad := *d
	bad.Version = 99
	if err := bad.Apply(cloneImage(t, base)); err == nil {
		t.Fatal("Apply accepted an unknown delta version")
	}
}
