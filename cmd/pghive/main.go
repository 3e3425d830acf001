// Command pghive discovers the schema of a property graph and prints
// it as PG-Schema (LOOSE or STRICT) or XSD.
//
// The input is a JSONL graph file (one {"kind":"node"|"edge", ...}
// object per line — see pghive.WriteJSONL), a pair of neo4j-admin
// style CSV files, or one of the built-in synthetic evaluation
// datasets.
//
// Usage:
//
//	pghive -input graph.jsonl -format pgschema -mode strict
//	pghive -dataset LDBC -scale 0.5 -method minhash -format xsd
//	pghive -dataset LDBC -parallelism 8        # 8 workers per phase
//	pghive -dataset POLE -noise 0.2 -labels 0.5 -stats
//	pghive -dataset POLE -batches 5            # incremental run
//	pghive -nodes-csv n.csv -edges-csv e.csv -format dot
//	pghive -dataset MB6 -export mb6.jsonl      # dump a dataset
//	pghive -dataset LDBC -schema-out s.json    # persist the schema
//	pghive -dataset LDBC -schema-in s.json -validate strict
//	pghive -input huge.jsonl -stream -batch-size 10000   # bounded memory
//	pghive -input delta.jsonl -stream -schema-in s.json  # incremental maintenance
//	pghive serve -listen :8080                 # long-running HTTP service
//	pghive serve -restore state.ckpt           # resume from a checkpoint
//	pghive serve -data-dir /var/lib/pghive     # durable: WAL + compaction
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/datagen"
	"github.com/pghive/pghive/internal/lsh"
	"github.com/pghive/pghive/internal/vfs"
)

// discoveryFlags registers on fs the discovery flags `pghive` and
// `pghive serve` share. The returned function decodes them into
// Options once fs is parsed; an error from it is a usage error.
func discoveryFlags(fs *flag.FlagSet) func() (pghive.Options, error) {
	var (
		method   = fs.String("method", "elsh", "clustering method: elsh or minhash")
		seed     = fs.Int64("seed", 1, "random seed")
		parallel = fs.Int("parallelism", 0, "worker goroutines per pipeline phase (0 = all CPU cores, 1 = sequential); the schema is identical for every value")
		theta    = fs.Float64("theta", 0, "Jaccard merge threshold (0 = paper default 0.9)")
		tables   = fs.Int("tables", 0, "pin LSH table count T (0 = adaptive)")
		bucket   = fs.Float64("bucket", 0, "pin ELSH bucket length b; only with -tables (0 = adaptive)")
	)
	return func() (pghive.Options, error) {
		opts := pghive.Options{Seed: *seed, Theta: *theta, Parallelism: *parallel}
		switch strings.ToLower(*method) {
		case "elsh":
		case "minhash":
			opts.Method = pghive.MinHash
		default:
			return opts, fmt.Errorf("unknown method %q", *method)
		}
		if *bucket != 0 && *tables <= 0 {
			return opts, errors.New("-bucket only applies with -tables (the LSH parameters are pinned together)")
		}
		if *tables > 0 {
			p := &lsh.Params{Tables: *tables, BucketLength: *bucket}
			opts.NodeParams, opts.EdgeParams = p, p
		}
		return opts, nil
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	var (
		input     = flag.String("input", "", "JSONL graph file to discover (mutually exclusive with -dataset)")
		nodesCSV  = flag.String("nodes-csv", "", "neo4j-style node CSV file (repeatable via comma separation)")
		edgesCSV  = flag.String("edges-csv", "", "neo4j-style relationship CSV file (comma separated)")
		dataset   = flag.String("dataset", "", "built-in dataset: POLE, MB6, HET.IO, FIB25, ICIJ, CORD19, LDBC, IYP")
		scale     = flag.Float64("scale", 1, "dataset scale factor")
		noise     = flag.Float64("noise", 0, "property-removal probability (0-1)")
		labels    = flag.Float64("labels", 1, "label availability (0-1)")
		format    = flag.String("format", "pgschema", "output: pgschema, xsd, dot, or none")
		mode      = flag.String("mode", "strict", "PG-Schema mode: strict or loose")
		name      = flag.String("name", "DiscoveredGraphType", "graph type name in PG-Schema output")
		batches   = flag.Int("batches", 1, "process the graph incrementally in N random batches")
		stream    = flag.Bool("stream", false, "stream -input / -nodes-csv in bounded batches instead of materializing the graph (see -batch-size)")
		batchSize = flag.Int("batch-size", 0, "elements per streamed batch (0 = default 8192); only with -stream")
		stats     = flag.Bool("stats", true, "print run statistics to stderr")
		export    = flag.String("export", "", "write the (noisy) input graph as JSONL to this file and exit")
		alignFlag = flag.Bool("align", false, "semantically align synonym labels after discovery")
		validateF = flag.String("validate", "", "validate the graph against the discovered schema: loose or strict")
		schemaOut = flag.String("schema-out", "", "persist the discovered schema (with statistics) as JSON")
		schemaIn  = flag.String("schema-in", "", "resume from a persisted schema before processing")
	)
	discoveryOpts := discoveryFlags(flag.CommandLine)
	flag.Parse()

	opts, err := discoveryOpts()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pghive:", err)
		os.Exit(2)
	}

	var resume *pghive.Schema
	if *schemaIn != "" {
		f, err := os.Open(*schemaIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pghive:", err)
			os.Exit(1)
		}
		resume, err = pghive.ReadSchemaJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "pghive:", err)
			os.Exit(1)
		}
	}

	if *batchSize != 0 && !*stream {
		fmt.Fprintln(os.Stderr, "pghive: -batch-size only applies to -stream runs")
		os.Exit(2)
	}
	if *stream {
		for _, c := range []struct {
			flag string
			set  bool
		}{
			{"-dataset", *dataset != ""},
			{"-export", *export != ""},
			{"-align", *alignFlag},
			{"-validate", *validateF != ""},
			{"-batches", *batches > 1},
		} {
			if c.set {
				fmt.Fprintf(os.Stderr, "pghive: %s needs the whole graph in memory and cannot be combined with -stream\n", c.flag)
				os.Exit(2)
			}
		}
		res, elapsed, err := discoverStream(*input, *nodesCSV, *edgesCSV, *batchSize, opts, resume, *stats)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pghive:", err)
			os.Exit(1)
		}
		if *schemaOut != "" {
			persistSchema(*schemaOut, res.Schema)
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "schema: %d node types, %d edge types (raw clusters: %d nodes, %d edges)\n",
				len(res.Schema.NodeTypes), len(res.Schema.EdgeTypes), res.NodeClusters, res.EdgeClusters)
			fmt.Fprintf(os.Stderr, "time: %v total (preprocess %v, cluster %v, extract %v, post %v)\n",
				elapsed.Round(time.Millisecond),
				res.Timing.Preprocess.Round(time.Millisecond),
				res.Timing.Cluster.Round(time.Millisecond),
				res.Timing.Extract.Round(time.Millisecond),
				res.Timing.PostProcess.Round(time.Millisecond))
		}
		printSchema(*format, *mode, *name, res.Schema)
		return
	}

	g, err := loadGraph(*input, *nodesCSV, *edgesCSV, *dataset, *scale, *noise, *labels, opts.Seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pghive:", err)
		os.Exit(1)
	}

	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pghive:", err)
			os.Exit(1)
		}
		if err := pghive.WriteJSONL(f, g); err != nil {
			fmt.Fprintln(os.Stderr, "pghive:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "pghive:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d nodes, %d edges to %s\n", g.NumNodes(), g.NumEdges(), *export)
		return
	}

	start := time.Now()
	res := discover(g, opts, *batches, resume)
	elapsed := time.Since(start)

	if *alignFlag {
		for _, m := range pghive.AlignNodeTypes(res.Schema, g, pghive.AlignOptions{}) {
			fmt.Fprintf(os.Stderr, "align: %s\n", m)
		}
	}

	if *validateF != "" {
		mode := pghive.ValidateLoose
		if strings.ToLower(*validateF) == "strict" {
			mode = pghive.ValidateStrict
		}
		report := pghive.Validate(g, res.Schema, mode)
		fmt.Fprintf(os.Stderr, "validation: %d checked, %d violations\n",
			report.Checked, len(report.Violations))
		for i, v := range report.Violations {
			if i >= 20 {
				fmt.Fprintf(os.Stderr, "  ... %d more\n", len(report.Violations)-20)
				break
			}
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
	}

	if *schemaOut != "" {
		persistSchema(*schemaOut, res.Schema)
	}

	if *stats {
		st := pghive.ComputeStats(g)
		fmt.Fprintf(os.Stderr, "graph: %d nodes, %d edges, %d node patterns, %d edge patterns\n",
			st.Nodes, st.Edges, st.NodePatterns, st.EdgePatterns)
		// Distinct-shape totals accumulate per batch; the ratios are the
		// dedup factors interning exploits (elements hashed once per
		// shape instead of once per element).
		fmt.Fprintf(os.Stderr, "shapes: %d distinct node shapes (dedup %.1fx), %d distinct edge shapes (dedup %.1fx)\n",
			res.NodeShapes, dedup(st.Nodes, res.NodeShapes),
			res.EdgeShapes, dedup(st.Edges, res.EdgeShapes))
		fmt.Fprintf(os.Stderr, "schema: %d node types, %d edge types (raw clusters: %d nodes, %d edges)\n",
			len(res.Schema.NodeTypes), len(res.Schema.EdgeTypes), res.NodeClusters, res.EdgeClusters)
		fmt.Fprintf(os.Stderr, "time: %v total (preprocess %v, cluster %v, extract %v, post %v)\n",
			elapsed.Round(time.Millisecond),
			res.Timing.Preprocess.Round(time.Millisecond),
			res.Timing.Cluster.Round(time.Millisecond),
			res.Timing.Extract.Round(time.Millisecond),
			res.Timing.PostProcess.Round(time.Millisecond))
	}

	printSchema(*format, *mode, *name, res.Schema)
}

// printSchema emits the discovered schema on stdout in the selected
// serialization format.
func printSchema(format, mode, name string, s *pghive.Schema) {
	switch strings.ToLower(format) {
	case "pgschema":
		m := pghive.Strict
		if strings.ToLower(mode) == "loose" {
			m = pghive.Loose
		}
		fmt.Print(pghive.PGSchema(s, m, name))
	case "xsd":
		fmt.Print(pghive.XSD(s))
	case "dot":
		fmt.Print(pghive.DOT(s, name))
	case "none":
	default:
		fmt.Fprintf(os.Stderr, "pghive: unknown format %q\n", format)
		os.Exit(2)
	}
}

// persistSchema writes the schema (with statistics) as JSON. The
// write is atomic (temp file + rename): a crash mid-write must not
// leave a truncated, unrestorable image at the target path.
func persistSchema(path string, s *pghive.Schema) {
	err := vfs.WriteFileAtomic(vfs.OS, path, func(w io.Writer) error {
		return pghive.WriteSchemaJSON(w, s)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pghive:", err)
		os.Exit(1)
	}
}

// discoverStream builds a StreamReader over the input files and
// drives incremental discovery through it in bounded batches,
// printing a per-batch cost line when stats is set. resume, when
// non-nil, continues from a persisted schema (incremental
// maintenance: only the delta streams through the pipeline).
func discoverStream(input, nodesCSV, edgesCSV string, batchSize int, opts pghive.Options, resume *pghive.Schema, stats bool) (*pghive.Result, time.Duration, error) {
	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	open := func(paths string) ([]io.Reader, error) {
		var rs []io.Reader
		for _, p := range strings.Split(paths, ",") {
			f, err := os.Open(p)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
			rs = append(rs, f)
		}
		return rs, nil
	}

	var r pghive.StreamReader
	switch {
	case input != "" && nodesCSV != "":
		return nil, 0, fmt.Errorf("-input and -nodes-csv are mutually exclusive")
	case input != "":
		// -input is a single path (no comma splitting), exactly like
		// the one-shot path treats it.
		f, err := os.Open(input)
		if err != nil {
			return nil, 0, err
		}
		files = append(files, f)
		r = pghive.NewJSONLStream(f, batchSize)
	case nodesCSV != "":
		nodes, err := open(nodesCSV)
		if err != nil {
			return nil, 0, err
		}
		var edges []io.Reader
		if edgesCSV != "" {
			if edges, err = open(edgesCSV); err != nil {
				return nil, 0, err
			}
		}
		r = pghive.NewCSVStream(nodes, edges, batchSize)
	default:
		return nil, 0, fmt.Errorf("-stream needs -input FILE or -nodes-csv FILES")
	}

	// A nil onBatch also spares DrainStream its per-batch MemStats
	// reads when nobody prints them.
	var onBatch func(bt pghive.BatchTiming)
	if stats {
		onBatch = func(bt pghive.BatchTiming) {
			fmt.Fprintf(os.Stderr, "batch %d: %v, %d nodes + %d edges, alloc %s, live heap %s\n",
				bt.Index, bt.Timing.Discovery().Round(time.Millisecond),
				bt.Nodes, bt.Edges, fmtBytes(bt.AllocBytes), fmtBytes(bt.HeapLiveBytes))
		}
	}

	start := time.Now()
	inc := pghive.ResumeIncremental(opts, resume)
	if err := inc.DrainStream(r, onBatch); err != nil {
		return nil, 0, err
	}
	res := inc.Finalize()
	return res, time.Since(start), nil
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func loadGraph(input, nodesCSV, edgesCSV, dataset string, scale, noise, labels float64, seed int64) (*pghive.Graph, error) {
	sources := 0
	for _, s := range []string{input, nodesCSV, dataset} {
		if s != "" {
			sources++
		}
	}
	if sources > 1 {
		return nil, fmt.Errorf("-input, -nodes-csv and -dataset are mutually exclusive")
	}
	switch {
	case nodesCSV != "":
		g := pghive.NewGraph()
		for _, path := range strings.Split(nodesCSV, ",") {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			_, err = pghive.ReadNodesCSV(f, g)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
		}
		if edgesCSV != "" {
			for _, path := range strings.Split(edgesCSV, ",") {
				f, err := os.Open(path)
				if err != nil {
					return nil, err
				}
				_, err = pghive.ReadEdgesCSV(f, g)
				f.Close()
				if err != nil {
					return nil, fmt.Errorf("%s: %w", path, err)
				}
			}
		}
		return g, nil
	case input != "":
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return pghive.ReadJSONL(f, false)
	case dataset != "":
		spec := datagen.ByName(dataset)
		if spec == nil {
			return nil, fmt.Errorf("unknown dataset %q", dataset)
		}
		d := datagen.Generate(spec, scale, seed)
		if noise > 0 || labels < 1 {
			d = datagen.InjectNoise(d, noise, labels, seed+7)
		}
		return d.Graph, nil
	default:
		return nil, fmt.Errorf("provide -input FILE or -dataset NAME (see -h)")
	}
}

func discover(g *pghive.Graph, opts pghive.Options, batches int, resume *pghive.Schema) *pghive.Result {
	if batches <= 1 && resume == nil {
		return pghive.Discover(g, opts)
	}
	inc := pghive.ResumeIncremental(opts, resume)
	if batches <= 1 {
		inc.ProcessBatch(&pghive.Batch{Graph: g, Resolver: g, Index: 1})
		return inc.Finalize()
	}
	rng := newRand(opts.Seed + 21)
	for _, b := range pghive.SplitBatches(g, batches, rng) {
		bt := inc.ProcessBatch(b)
		fmt.Fprintf(os.Stderr, "batch %d: %v (%d/%d distinct node shapes, %d/%d distinct edge shapes)\n",
			bt.Index, bt.Timing.Discovery().Round(time.Millisecond),
			bt.NodeShapes, bt.Nodes, bt.EdgeShapes, bt.Edges)
	}
	return inc.Finalize()
}

// dedup returns elements per distinct shape.
func dedup(elements, shapes int) float64 {
	if shapes == 0 {
		return 1
	}
	return float64(elements) / float64(shapes)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
