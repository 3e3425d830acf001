package pghive_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/datagen"
)

// ExampleDiscover demonstrates end-to-end schema discovery on a tiny
// graph: two node types, one edge type, an unlabeled node merged by
// structural similarity.
func ExampleDiscover() {
	g := pghive.NewGraph()
	ann := g.AddNode([]string{"Person"}, map[string]pghive.Value{
		"name": pghive.Str("Ann"),
		"bday": pghive.ParseLexical("1990-04-01"),
	})
	// Unlabeled, but structurally a Person.
	g.AddNode(nil, map[string]pghive.Value{
		"name": pghive.Str("Ben"),
		"bday": pghive.ParseLexical("1988-11-23"),
	})
	post := g.AddNode([]string{"Post"}, map[string]pghive.Value{
		"content": pghive.Str("hello world"),
	})
	if _, err := g.AddEdge([]string{"LIKES"}, ann, post, nil); err != nil {
		panic(err)
	}

	res := pghive.Discover(g, pghive.Options{Seed: 1})
	fmt.Print(pghive.PGSchema(res.Schema, pghive.Strict, "Tiny"))
	// Output:
	// CREATE GRAPH TYPE Tiny STRICT {
	//   (personType : Person { bday DATE, name STRING }),
	//   (postType : Post { content STRING }),
	//   (: personType)-[likesType : LIKES]->(: postType) /* cardinality 1:1 */
	// }
}

// ExampleValidate shows conformance checking against a discovered
// schema.
func ExampleValidate() {
	g := pghive.NewGraph()
	for i := 0; i < 5; i++ {
		g.AddNode([]string{"City"}, map[string]pghive.Value{
			"name": pghive.Str(fmt.Sprintf("city-%d", i)),
			"pop":  pghive.Int(int64(1000 * (i + 1))),
		})
	}
	res := pghive.Discover(g, pghive.Options{Seed: 1})

	// A city missing its mandatory population violates STRICT mode.
	g.AddNode([]string{"City"}, map[string]pghive.Value{"name": pghive.Str("ghost town")})
	report := pghive.Validate(g, res.Schema, pghive.ValidateStrict)
	fmt.Println(report.Violations[0])
	// Output:
	// node 5: mandatory: mandatory property "pop" of type City missing
}

// ExampleComputeStats reports Table 2-style statistics of a graph.
func ExampleComputeStats() {
	g := pghive.NewGraph()
	a := g.AddNode([]string{"A"}, map[string]pghive.Value{"x": pghive.Int(1)})
	b := g.AddNode([]string{"B"}, nil)
	if _, err := g.AddEdge([]string{"R"}, a, b, nil); err != nil {
		panic(err)
	}
	s := pghive.ComputeStats(g)
	fmt.Printf("nodes=%d edges=%d nodeLabels=%d nodePatterns=%d\n",
		s.Nodes, s.Edges, s.NodeLabels, s.NodePatterns)
	// Output:
	// nodes=2 edges=1 nodeLabels=2 nodePatterns=2
}

// ExamplePGSchema renders a discovered schema in LOOSE mode (§4.5):
// labels and property names only, every content block OPEN, so data
// that strays from the discovered types still conforms. XSD and DOT
// render the same schema (see internal/serialize's golden files).
func ExamplePGSchema() {
	g := pghive.NewGraph()
	acme := g.AddNode([]string{"Company"}, map[string]pghive.Value{"name": pghive.Str("Acme")})
	city := g.AddNode([]string{"City"}, nil)
	for i := 0; i < 4; i++ {
		props := map[string]pghive.Value{"name": pghive.Str(fmt.Sprintf("p%d", i))}
		if i%2 == 0 {
			props["email"] = pghive.Str(fmt.Sprintf("p%d@acme.example", i))
		}
		p := g.AddNode([]string{"Person"}, props)
		if _, err := g.AddEdge([]string{"WORKS_AT"}, p, acme, map[string]pghive.Value{"since": pghive.Int(int64(2000 + i))}); err != nil {
			panic(err)
		}
	}
	if _, err := g.AddEdge([]string{"LOCATED_IN"}, acme, city, nil); err != nil {
		panic(err)
	}

	res := pghive.Discover(g, pghive.Options{Seed: 1})
	fmt.Print(pghive.PGSchema(res.Schema, pghive.Loose, "Staff"))
	// Output:
	// CREATE GRAPH TYPE Staff LOOSE {
	//   (companyType : Company { name, OPEN }),
	//   (cityType : City { OPEN }),
	//   (personType : Person { email, name, OPEN }),
	//   (: personType)-[worksAtType : WORKS_AT { since, OPEN }]->(: companyType),
	//   (: companyType)-[locatedInType : LOCATED_IN { OPEN }]->(: cityType)
	// }
}

// ExampleIncremental streams a social network into PG-HIVE in ten
// random batches (§4.6). The schema only grows, and the result keeps
// every labeled type a one-shot run over the whole graph finds
// (monotonicity, §4.7).
func ExampleIncremental() {
	d := datagen.Generate(datagen.LDBC(), 0.5, 42)
	inc := pghive.NewIncremental(pghive.Options{Seed: 42})
	fmt.Printf("%-6s %6s %6s %10s %10s\n", "batch", "nodes", "edges", "node types", "edge types")
	for _, b := range pghive.SplitBatches(d.Graph, 10, rand.New(rand.NewSource(7))) {
		inc.ProcessBatch(b)
		fmt.Printf("%-6d %6d %6d %10d %10d\n", b.Index, b.Graph.NumNodes(), b.Graph.NumEdges(),
			len(inc.Schema().NodeTypes), len(inc.Schema().EdgeTypes))
	}

	res := inc.Finalize()
	fmt.Printf("final schema: %d node types, %d edge types\n", len(res.Schema.NodeTypes), len(res.Schema.EdgeTypes))
	for _, nt := range res.Schema.NodeTypes {
		fmt.Printf("  %-16s %4d instances, %d properties\n", nt.Name(), nt.Instances, len(nt.Props))
	}

	static := pghive.Discover(d.Graph, pghive.Options{Seed: 42})
	missing := 0
	for _, nt := range static.Schema.NodeTypes {
		if !nt.Abstract && res.Schema.NodeTypeByToken(nt.Token) == nil {
			missing++
		}
	}
	fmt.Printf("labeled node types missing vs a one-shot run: %d\n", missing)
	// Output:
	// batch   nodes  edges node types edge types
	// 1         162    535          7         16
	// 2         152    529          7         17
	// 3         152    588          7         17
	// 4         168    488          7         17
	// 5         149    545          7         17
	// 6         159    579          7         17
	// 7         174    528          7         17
	// 8         184    502          7         17
	// 9         143    559          7         17
	// 10        150    553          7         17
	// final schema: 7 node types, 17 edge types
	//   Person            159 instances, 9 properties
	//   Forum             127 instances, 2 properties
	//   Message&Post      479 instances, 6 properties
	//   Comment&Message   639 instances, 5 properties
	//   Place              47 instances, 3 properties
	//   Organisation       63 instances, 3 properties
	//   Tag                79 instances, 2 properties
	// labeled node types missing vs a one-shot run: 0
}

// ExampleDiscoverStream discovers a graph from its JSONL export in
// batches of 500 elements, never holding the whole graph: the stream
// keeps one batch plus the labels of the nodes edges may still name.
// The schema is bit-identical to a one-shot Discover.
func ExampleDiscoverStream() {
	d := datagen.Generate(datagen.LDBC(), 0.5, 42)
	var jsonl bytes.Buffer
	check(pghive.WriteJSONL(&jsonl, d.Graph))
	fmt.Printf("exported %d nodes + %d edges (%d KiB)\n", d.Graph.NumNodes(), d.Graph.NumEdges(), jsonl.Len()/1024)

	fmt.Printf("%-6s %6s %6s\n", "batch", "nodes", "edges")
	res, err := pghive.DiscoverStream(pghive.NewJSONLStream(&jsonl, 500), pghive.Options{Seed: 42},
		func(bt pghive.BatchTiming) { fmt.Printf("%-6d %6d %6d\n", bt.Index, bt.Nodes, bt.Edges) })
	check(err)
	fmt.Printf("streamed schema: %d node types, %d edge types\n", len(res.Schema.NodeTypes), len(res.Schema.EdgeTypes))

	one := pghive.Discover(d.Graph, pghive.Options{Seed: 42})
	fmt.Printf("bit-identical to one-shot Discover: %v\n",
		pghive.PGSchema(res.Schema, pghive.Strict, "G") == pghive.PGSchema(one.Schema, pghive.Strict, "G"))
	// Output:
	// exported 1593 nodes + 5406 edges (895 KiB)
	// batch   nodes  edges
	// 1         500      0
	// 2         500      0
	// 3         500      0
	// 4          93    407
	// 5           0    500
	// 6           0    500
	// 7           0    500
	// 8           0    500
	// 9           0    500
	// 10          0    500
	// 11          0    500
	// 12          0    500
	// 13          0    500
	// 14          0    499
	// streamed schema: 7 node types, 17 edge types
	// bit-identical to one-shot Discover: true
}

// ExampleAlignNodeTypes integrates two sources that name one entity
// differently (Organization vs Company, the paper's §1 example) and
// aligns the labels (§6); the merged data validates against the
// aligned schema.
func ExampleAlignNodeTypes() {
	rng := rand.New(rand.NewSource(5))
	g := pghive.NewGraph()
	var employers, people, places []pghive.ID
	for i := 0; i < 60; i++ {
		label := "Organization"
		if i%2 == 1 {
			label = "Company"
		}
		employers = append(employers, g.AddNode([]string{label}, map[string]pghive.Value{
			"name":    pghive.Str(fmt.Sprintf("employer-%d", i)),
			"url":     pghive.Str("https://example.com"),
			"founded": pghive.Int(int64(1970 + rng.Intn(50))),
		}))
	}
	for i := 0; i < 150; i++ {
		people = append(people, g.AddNode([]string{"Person"}, map[string]pghive.Value{
			"name": pghive.Str(fmt.Sprintf("person-%d", i)),
			"bday": pghive.ParseLexical("1988-04-12"),
		}))
	}
	for i := 0; i < 15; i++ {
		places = append(places, g.AddNode([]string{"Place"}, map[string]pghive.Value{"name": pghive.Str(fmt.Sprintf("city-%d", i))}))
	}
	for _, p := range people {
		_, err := g.AddEdge([]string{"WORKS_AT"}, p, employers[rng.Intn(len(employers))],
			map[string]pghive.Value{"from": pghive.Int(int64(2000 + rng.Intn(20)))})
		check(err)
	}
	for _, e := range employers {
		_, err := g.AddEdge([]string{"LOCATED_IN"}, e, places[rng.Intn(len(places))], nil)
		check(err)
	}

	res := pghive.Discover(g, pghive.Options{Seed: 1})
	fmt.Printf("before alignment: %d node types\n", len(res.Schema.NodeTypes))
	for _, m := range pghive.AlignNodeTypes(res.Schema, g, pghive.AlignOptions{}) {
		fmt.Printf("  %s\n", m)
	}
	fmt.Printf("after alignment: %d node types\n", len(res.Schema.NodeTypes))
	for _, nt := range res.Schema.NodeTypes {
		fmt.Printf("  %-8s %3d instances, labels %v\n", nt.Name(), nt.Instances, nt.SortedLabels())
	}
	report := pghive.Validate(g, res.Schema, pghive.ValidateLoose)
	fmt.Printf("validation: %d elements checked, %d violations\n", report.Checked, len(report.Violations))
	// Output:
	// before alignment: 4 node types
	//   Company <= Organization (labels 1.00, structure 1.00)
	// after alignment: 3 node types
	//   Company   60 instances, labels [Company Organization]
	//   Person   150 instances, labels [Person]
	//   Place     15 instances, labels [Place]
	// validation: 435 elements checked, 0 violations
}

// check stops an example on an error it does not expect.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// stateImage is a service's full state: byte-equal images mean
// services no read can tell apart.
func stateImage(svc interface{ WriteCheckpoint(io.Writer) error }) []byte {
	var buf bytes.Buffer
	check(svc.WriteCheckpoint(&buf))
	return buf.Bytes()
}
