package core

// Golden-file snapshot tests pinning the PAYLOAD bytes recovery and
// followers parse: one encoded checkpoint image and one marshalled
// ImageDelta (a run file's payload). internal/runfile's goldens pin
// only the frame around a payload; these pin what is inside it, so a
// change to how an image is represented in memory cannot silently
// change what is written to disk. Regenerate after an intentional
// format change (and a version bump) with:
//
//	go test ./internal/core -run Golden -update

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/pghive/pghive/internal/pg"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func checkGolden(t testing.TB, got []byte, golden string) {
	t.Helper()
	goldenPath := filepath.Join("testdata", golden)
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("output drifted from %s:\n got: %s\nwant: %s", goldenPath, got, want)
	}
}

// labelOnly builds a resolver graph: IDs and labels, nothing else.
func labelOnly(t testing.TB, nodes map[pg.ID][]string) *pg.Graph {
	t.Helper()
	g := pg.NewGraph()
	g.AllowDanglingEdges(true)
	for id, labels := range nodes {
		if err := g.PutNode(id, labels, nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// goldenImages runs a real Incremental through a span that exercises
// every kind of change a delta can carry and returns the images
// captured before and after it:
//
//   - degree changes (KNOWS gains edges between known persons and loses
//     one, so degree entries are set and tombstoned),
//   - a new node type and a new edge type (Post, WROTE),
//   - a head change (Person gains a property and an unlabeled member),
//   - a merged-away type (alignment unifies Company into Organisation),
//   - a retraction that compacts a type away (Tag and HAS_TAG),
//   - and every keyed collection: assignments, both shape caches, the
//     resolver (added, relabeled, removed) and the applied keys.
func goldenImages(t testing.TB) (base, next *Image) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	person := func(name string, age int64) map[string]pg.Value {
		return map[string]pg.Value{"name": pg.Str(name), "age": pg.Int(age)}
	}

	g1 := pg.NewGraph()
	must(g1.PutNode(1, []string{"Person"}, person("ann", 31)))
	must(g1.PutNode(2, []string{"Person"}, person("bob", 42)))
	must(g1.PutNode(3, []string{"Person"}, person("cy", 27)))
	must(g1.PutNode(4, []string{"Person"}, person("di", 58)))
	must(g1.PutNode(9, []string{"Person"}, person("fay", 64)))
	must(g1.PutNode(12, []string{"Person"}, person("gus", 19)))
	must(g1.PutNode(10, []string{"City"}, map[string]pg.Value{"name": pg.Str("Oslo")}))
	must(g1.PutNode(11, []string{"City"}, map[string]pg.Value{"name": pg.Str("Rome")}))
	must(g1.PutNode(20, []string{"Tag"}, map[string]pg.Value{"name": pg.Str("go")}))
	must(g1.PutNode(30, []string{"Organisation"}, map[string]pg.Value{"name": pg.Str("ACME"), "url": pg.Str("a.example")}))
	must(g1.PutNode(31, []string{"Company"}, map[string]pg.Value{"name": pg.Str("Initech"), "url": pg.Str("i.example")}))
	must(g1.PutEdge(100, []string{"KNOWS"}, 1, 2, map[string]pg.Value{"since": pg.Int(2019)}))
	must(g1.PutEdge(101, []string{"KNOWS"}, 2, 3, map[string]pg.Value{"since": pg.Int(2021)}))
	must(g1.PutEdge(104, []string{"KNOWS"}, 9, 12, map[string]pg.Value{"since": pg.Int(2001)}))
	must(g1.PutEdge(105, []string{"KNOWS"}, 12, 9, map[string]pg.Value{"since": pg.Int(2002)}))
	must(g1.PutEdge(110, []string{"LIVES_IN"}, 1, 10, nil))
	must(g1.PutEdge(111, []string{"LIVES_IN"}, 2, 10, nil))
	must(g1.PutEdge(120, []string{"HAS_TAG"}, 1, 20, nil))

	inc := NewIncremental(Options{Seed: 7, Parallelism: 1})
	inc.ProcessBatch(&pg.Batch{Graph: g1, Resolver: g1, Index: 1})
	// §4.4 inference fills Mandatory / DataType / Enum / Cardinality; run
	// on both sides so untouched types (City, LIVES_IN) stay out of the
	// patch.
	inc.Finalize()
	var err error
	base, err = inc.CaptureImage(&CheckpointExtras{
		Resolver: labelOnly(t, map[pg.ID][]string{
			1: {"Person"}, 2: {"Person"}, 3: {"Person"}, 4: {"Person"}, 9: {"Person"}, 12: {"Person"},
			10: {"City"}, 11: {"City"}, 20: {"Tag"}, 30: {"Organisation"}, 31: {"Company"},
		}),
		NextEdgeID:  121,
		WALSeq:      3,
		AppliedKeys: []AppliedKey{{Key: "k1", LSN: 2}},
	})
	must(err)

	// Growth: degree changes, new types, a head change, an unlabeled
	// node that Jaccard-merges into a labeled type.
	g2 := pg.NewGraph()
	g2.AllowDanglingEdges(true)
	p5 := person("eve", 35)
	p5["email"] = pg.Str("eve@example")
	must(g2.PutNode(5, []string{"Person"}, p5))
	must(g2.PutNode(40, []string{"Post"}, map[string]pg.Value{"content": pg.Str("hi"), "lang": pg.Str("en")}))
	must(g2.PutNode(50, nil, person("anon", 50)))
	must(g2.PutEdge(102, []string{"KNOWS"}, 3, 1, map[string]pg.Value{"since": pg.Int(2022)}))
	must(g2.PutEdge(103, []string{"KNOWS"}, 5, 1, map[string]pg.Value{"since": pg.Int(2023)}))
	must(g2.PutEdge(130, []string{"WROTE"}, 1, 40, nil))
	resolver2 := labelOnly(t, map[pg.ID][]string{
		1: {"Person"}, 3: {"Person"}, 5: {"Person"}, 40: {"Post"},
	})
	inc.ProcessBatch(&pg.Batch{Graph: g2, Resolver: resolver2, Index: 2})

	// Churn: the only Tag and the only HAS_TAG go away, so retraction
	// compacts both types out of the schema; KNOWS loses three edges,
	// which tombstones degree entries of a surviving type (nodes 2, 9
	// and 12, listed in numeric order as gaps: [2,7,3]).
	r := pg.NewGraph()
	r.AllowDanglingEdges(true)
	must(r.PutNode(20, []string{"Tag"}, map[string]pg.Value{"name": pg.Str("go")}))
	must(r.PutEdge(120, []string{"HAS_TAG"}, 1, 20, nil))
	must(r.PutEdge(101, []string{"KNOWS"}, 2, 3, map[string]pg.Value{"since": pg.Int(2021)}))
	must(r.PutEdge(104, []string{"KNOWS"}, 9, 12, map[string]pg.Value{"since": pg.Int(2001)}))
	must(r.PutEdge(105, []string{"KNOWS"}, 12, 9, map[string]pg.Value{"since": pg.Int(2002)}))
	inc.RetractBatch(&pg.Batch{Graph: r, Resolver: r, Index: 3})

	// Alignment: Company is merged into Organisation and its instances
	// are re-typed, as align.NodeTypes + the caller's rewrite do.
	org, company := inc.sch.NodeTypeByToken("Organisation"), inc.sch.NodeTypeByToken("Company")
	if org == nil || company == nil {
		t.Fatal("setup: Organisation / Company types not discovered")
	}
	inc.sch.UnifyNodeTypes(org, company)
	for id, ty := range inc.result.NodeAssign {
		if ty == company {
			inc.result.NodeAssign[id] = org
		}
	}
	inc.Finalize()

	next, err = inc.CaptureImage(&CheckpointExtras{
		Resolver: labelOnly(t, map[pg.ID][]string{
			1: {"Person"}, 2: {"Person"}, 3: {"Person"}, 4: {"Person", "Retired"}, 5: {"Person"},
			9: {"Person"}, 12: {"Person"}, 10: {"City"}, 11: {"City"}, 30: {"Organisation"}, 31: {"Company"}, 40: {"Post"}, 50: nil,
		}),
		NextEdgeID:  131,
		WALSeq:      7,
		AppliedKeys: []AppliedKey{{Key: "k1", LSN: 2}, {Key: "k2", LSN: 6}},
	})
	must(err)
	return base, next
}

func TestGoldenImageFormat(t *testing.T) {
	_, next := goldenImages(t)
	checkGolden(t, imageBytes(t, next), "image.golden")
}

func TestGoldenDeltaFormat(t *testing.T) {
	base, next := goldenImages(t)
	d, err := DiffImage(base, next)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, append(payload, '\n'), "delta.golden")

	// The pinned payload is what recovery parses: decoded and applied to
	// the base it must rebuild the pinned image.
	decoded, err := ParseDelta(payload)
	if err != nil {
		t.Fatal(err)
	}
	img := cloneImage(t, base)
	if err := decoded.Apply(img); err != nil {
		t.Fatal(err)
	}
	if string(imageBytes(t, img)) != string(imageBytes(t, next)) {
		t.Fatal("the golden delta applied to its base does not rebuild the golden image")
	}
}
