package pghive_test

// pghive_formats_test.go sweeps every built-in dataset through every
// export format and the persistence round-trip, asserting mutual
// consistency — the cross-cutting integration test of the public
// surface.

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/datagen"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
	"github.com/pghive/pghive/internal/serialize"
)

func TestAllFormatsOnAllDatasets(t *testing.T) {
	for _, spec := range datagen.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			d := datagen.Generate(spec, 0.25, 5)
			res := pghive.Discover(d.Graph, pghive.Options{Seed: 5})
			s := res.Schema

			strict := pghive.PGSchema(s, pghive.Strict, "X")
			loose := pghive.PGSchema(s, pghive.Loose, "X")
			xsd := pghive.XSD(s)
			dot := pghive.DOT(s, "X")

			// Every declared type name appears in the PG-Schema and
			// XSD outputs.
			for _, name := range serialize.SortedTypeNames(s) {
				for fmtName, out := range map[string]string{
					"strict": strict, "loose": loose, "xsd": xsd,
				} {
					if !strings.Contains(out, name) {
						t.Errorf("%s output missing type %q", fmtName, name)
					}
				}
			}
			// DOT names node types by identifier and edge types by
			// their display name on the arrows.
			for _, nt := range s.NodeTypes {
				if !strings.Contains(dot, nt.Name()) && nt.Token != "" {
					t.Errorf("dot output missing node type %q", nt.Name())
				}
			}
			for _, et := range s.EdgeTypes {
				if et.Token != "" && !strings.Contains(dot, et.Token) {
					t.Errorf("dot output missing edge label %q", et.Token)
				}
			}
			// XSD must be well-formed.
			dec := xml.NewDecoder(strings.NewReader(xsd))
			for {
				if _, err := dec.Token(); err != nil {
					if err == io.EOF {
						break
					}
					t.Fatalf("XSD not well-formed: %v", err)
				}
			}
			// Persistence round-trip preserves the STRICT rendering
			// exactly (all constraint fields survive).
			var buf bytes.Buffer
			if err := pghive.WriteSchemaJSON(&buf, s); err != nil {
				t.Fatal(err)
			}
			restored, err := pghive.ReadSchemaJSON(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got := pghive.PGSchema(restored, pghive.Strict, "X"); got != strict {
				t.Error("STRICT rendering differs after persistence round-trip")
			}
			// The source graph validates against its own schema.
			if r := pghive.Validate(d.Graph, s, pghive.ValidateStrict); !r.Valid() {
				t.Errorf("self-validation failed with %d violations; first: %v",
					len(r.Violations), r.Violations[0])
			}
		})
	}
}

// TestRendersAfterAlignmentNameDeclaredTypes: once AlignNodeTypes has
// unified Organization into Company, an edge type observed towards
// Organization still carries that endpoint token. Every rendering must
// resolve it to the type that absorbed it: PG-Schema and DOT name a
// declared node type at every endpoint, and XSD's documented endpoints
// are labels of a declared node type.
func TestRendersAfterAlignmentNameDeclaredTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := pghive.NewGraph()
	var employers []pghive.ID
	for i := 0; i < 60; i++ {
		label := []string{"Organization", "Company"}[i%2]
		employers = append(employers, g.AddNode([]string{label}, map[string]pghive.Value{
			"name": pghive.Str(fmt.Sprintf("employer-%d", i)), "url": pghive.Str("https://example.com")}))
	}
	for i := 0; i < 150; i++ {
		p := g.AddNode([]string{"Person"}, map[string]pghive.Value{"name": pghive.Str(fmt.Sprintf("person-%d", i))})
		if _, err := g.AddEdge([]string{"WORKS_AT"}, p, employers[rng.Intn(len(employers))], nil); err != nil {
			t.Fatal(err)
		}
	}
	s := pghive.Discover(g, pghive.Options{Seed: 1}).Schema
	if merges := pghive.AlignNodeTypes(s, g, pghive.AlignOptions{}); len(merges) != 1 {
		t.Fatalf("want Organization and Company aligned, got merges %v", merges)
	}
	allDeclared := func(format string, declared, refs []string) {
		t.Helper()
		if len(refs) == 0 {
			t.Fatalf("%s: no endpoint found", format)
		}
		for _, r := range refs {
			if !slices.Contains(declared, r) {
				t.Errorf("%s: endpoint %q is none of the declared %v", format, r, declared)
			}
		}
	}
	matches := func(re, text string) []string {
		var out []string
		for _, m := range regexp.MustCompile(re).FindAllStringSubmatch(text, -1) {
			out = append(out, strings.Split(m[1], ", ")...)
		}
		return out
	}
	for _, mode := range []serialize.Mode{pghive.Strict, pghive.Loose} {
		out := pghive.PGSchema(s, mode, "G")
		allDeclared(fmt.Sprintf("PG-Schema %v", mode), matches(`(?m)^  \((\w+) :`, out), matches(`\(: (\w+)\)`, out))
	}
	dot := pghive.DOT(s, "G")
	allDeclared("DOT", matches(`(?m)^  (\w+) \[label=`, dot), append(matches(`(?m)^  (\w+) ->`, dot), matches(`-> (\w+) \[`, dot)...))
	xsd := pghive.XSD(s)
	allDeclared("XSD", matches(`node type; labels: ([^<]*)<`, xsd), append(matches(`sources: ([^;<]*)`, xsd), matches(`targets: ([^;<]*)`, xsd)...))
}

// TestWriteSchemaJSONAllocsFollowTypes: the schema document streams its
// degree tallies, so writing it allocates for its types and one scratch
// copy of the largest tally, not per tally entry. Four edge types hold
// 100 k entries in eight tallies; the writer that built each tally
// into a map and the whole document in encoding/json allocated
// ~200-240 B per entry.
func TestWriteSchemaJSONAllocsFollowTypes(t *testing.T) {
	const types, perTally = 4, 12_500
	s := schema.New()
	for k := range types {
		et := schema.NewEdgeCandidate()
		et.Token = fmt.Sprintf("E%d", k)
		et.Labels[et.Token] = perTally
		et.Instances = perTally
		et.SrcTokens["A"], et.DstTokens["B"] = true, true
		for i := range perTally {
			et.SrcDeg.Add(pg.ID(i*(k+3)), 1+i%4)
			et.DstDeg.Add(pg.ID(-1-i*(k+7)), 1+i%3)
		}
		s.AppendEdgeTypes([]*schema.EdgeType{et})
	}
	var ms runtime.MemStats
	samples := make([]uint64, 5)
	for i := range samples {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if err := pghive.WriteSchemaJSON(io.Discard, s); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		samples[i] = ms.TotalAlloc - before
	}
	slices.Sort(samples)
	const entries = 2 * types * perTally
	perEntry := float64(samples[len(samples)/2]) / entries
	t.Logf("WriteSchemaJSON of %d tally entries: median %d B allocated, %.1f B per entry", entries, samples[len(samples)/2], perEntry)
	if perEntry > 16 {
		t.Fatalf("writing the schema document allocates %.1f B per tally entry, want at most 16", perEntry)
	}
}
