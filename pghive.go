// Package pghive is the public API of PG-HIVE, a hybrid incremental
// schema-discovery framework for property graphs (Sideri et al.,
// EDBT 2026).
//
// PG-HIVE infers a full schema graph — node types, edge types,
// property data types, mandatory/optional constraints, and edge
// cardinalities — from a property graph with no prior schema
// information, tolerating noisy properties and missing labels, and
// optionally processing the graph incrementally in batches.
//
// # Quick start
//
//	g := pghive.NewGraph()
//	alice := g.AddNode([]string{"Person"}, map[string]pghive.Value{
//		"name": pghive.Str("Alice"),
//	})
//	post := g.AddNode([]string{"Post"}, map[string]pghive.Value{
//		"content": pghive.Str("hello"),
//	})
//	g.AddEdge([]string{"LIKES"}, alice, post, nil)
//
//	res := pghive.Discover(g, pghive.Options{})
//	fmt.Print(pghive.PGSchema(res.Schema, pghive.Strict, "MyGraph"))
//
// # Incremental discovery
//
//	inc := pghive.NewIncremental(pghive.Options{})
//	for batch := range stream {
//		inc.ProcessBatch(batch)
//	}
//	res := inc.Finalize()
//
// # Parallelism
//
// The pipeline parallelizes vectorization, LSH signature hashing,
// bucket sharding, and edge-endpoint preprocessing across
// Options.Parallelism worker goroutines (default: all CPU cores).
// Parallel execution is deterministic: for a fixed Options.Seed the
// discovered schema is bit-identical for every Parallelism value,
// because work is sharded into disjoint index ranges, shard results
// merge in a fixed order, and the stochastic stages (Word2Vec
// training, adaptive LSH parameter choice) always run sequentially.
// Set Parallelism to 1 to force fully sequential execution.
//
// See the examples/ directory for runnable end-to-end programs.
package pghive

import (
	"io"

	"github.com/pghive/pghive/internal/align"
	"github.com/pghive/pghive/internal/core"
	"github.com/pghive/pghive/internal/infer"
	"github.com/pghive/pghive/internal/lsh"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
	"github.com/pghive/pghive/internal/serialize"
	"github.com/pghive/pghive/internal/validate"
	"github.com/pghive/pghive/internal/word2vec"
)

// Core property-graph model (see internal/pg).
type (
	// Graph is an in-memory property graph.
	Graph = pg.Graph
	// Node is a property-graph node.
	Node = pg.Node
	// Edge is a directed property-graph edge.
	Edge = pg.Edge
	// ID identifies a node or edge.
	ID = pg.ID
	// Value is a typed property value.
	Value = pg.Value
	// Kind enumerates property value kinds.
	Kind = pg.Kind
	// Batch is one increment of a graph stream.
	Batch = pg.Batch
	// GraphStats summarizes a graph's structure.
	GraphStats = pg.Stats
)

// Value constructors and kinds.
var (
	// Int builds an integer value.
	Int = pg.Int
	// Float builds a floating-point value.
	Float = pg.Float
	// Bool builds a boolean value.
	Bool = pg.Bool
	// Str builds a string value.
	Str = pg.Str
	// Date builds a date value.
	Date = pg.Date
	// DateTime builds a timestamp value.
	DateTime = pg.DateTime
	// ParseLexical infers the most specific value from text (§4.4
	// priority order).
	ParseLexical = pg.ParseLexical
)

// Property value kinds.
const (
	KindInt      = pg.KindInt
	KindFloat    = pg.KindFloat
	KindBool     = pg.KindBool
	KindDate     = pg.KindDate
	KindDateTime = pg.KindDateTime
	KindString   = pg.KindString
)

// NewGraph returns an empty property graph.
func NewGraph() *Graph { return pg.NewGraph() }

// ReadJSONL loads a graph from the library's JSONL interchange format.
func ReadJSONL(r io.Reader, allowDangling bool) (*Graph, error) {
	return pg.ReadJSONL(r, allowDangling)
}

// WriteJSONL writes a graph in the JSONL interchange format.
func WriteJSONL(w io.Writer, g *Graph) error { return pg.WriteJSONL(w, g) }

// ReadNodesCSV imports a neo4j-admin style node CSV (":ID", ":LABEL",
// typed property columns) into the graph, returning the row count.
func ReadNodesCSV(r io.Reader, g *Graph) (int, error) { return pg.ReadNodesCSV(r, g) }

// ReadEdgesCSV imports a neo4j-admin style relationship CSV
// (":START_ID", ":END_ID", ":TYPE") into the graph.
func ReadEdgesCSV(r io.Reader, g *Graph) (int, error) { return pg.ReadEdgesCSV(r, g) }

// Streaming ingestion (see internal/pg/stream.go): readers that yield
// a graph in bounded batches instead of materializing it whole.
type (
	// StreamReader yields a property graph in bounded batches.
	StreamReader = pg.StreamReader
	// JSONLStream streams the JSONL interchange format.
	JSONLStream = pg.JSONLStream
	// CSVStream streams neo4j-admin style bulk CSV files.
	CSVStream = pg.CSVStream
)

// DefaultStreamBatchSize is the batch size used when a stream is
// created with batchSize <= 0.
const DefaultStreamBatchSize = pg.DefaultStreamBatchSize

// NewJSONLStream returns a bounded-batch reader over a JSONL graph
// stream (the format WriteJSONL emits). batchSize <= 0 selects
// DefaultStreamBatchSize.
func NewJSONLStream(r io.Reader, batchSize int) *JSONLStream {
	return pg.NewJSONLStream(r, batchSize)
}

// NewCSVStream returns a bounded-batch reader over neo4j-admin style
// CSV sources: node files first, then relationship files.
func NewCSVStream(nodes, edges []io.Reader, batchSize int) *CSVStream {
	return pg.NewCSVStream(nodes, edges, batchSize)
}

// ComputeStats returns Table 2-style statistics of a graph.
func ComputeStats(g *Graph) GraphStats { return pg.ComputeStats(g) }

// SplitBatches partitions a graph into n random batches for streaming.
var SplitBatches = pg.SplitBatches

// Discovery pipeline (see internal/core).
type (
	// Options configures a discovery run.
	Options = core.Options
	// Result is a discovery outcome: schema plus per-element type
	// assignments, cluster statistics and timings.
	Result = core.Result
	// Incremental is the streaming pipeline of §4.6.
	Incremental = core.Incremental
	// Method selects the LSH clustering scheme.
	Method = core.Method
	// BatchTiming is the per-batch cost record of a streaming run.
	BatchTiming = core.BatchTiming
	// EmbeddingMode selects how label tokens are embedded for ELSH.
	EmbeddingMode = core.EmbeddingMode
	// Timing breaks a run into pipeline phases.
	Timing = core.Timing
	// LSHParams pins explicit LSH parameters (overriding §4.2's
	// adaptive strategy).
	LSHParams = lsh.Params
	// InferOptions configures §4.4 post-processing.
	InferOptions = infer.Options
	// Word2VecConfig tunes the label-embedding training.
	Word2VecConfig = word2vec.Config
)

// Clustering methods.
const (
	// ELSH selects Euclidean LSH over hybrid representation vectors.
	ELSH = core.ELSH
	// MinHash selects MinHash LSH over label/property token sets.
	MinHash = core.MinHash
)

// Embedding modes.
const (
	// EmbedWord2Vec trains a skip-gram model per batch (the default).
	EmbedWord2Vec = core.EmbedWord2Vec
	// EmbedHashed derives deterministic hash-based vectors per token.
	EmbedHashed = core.EmbedHashed
)

// Discover runs the full PG-HIVE pipeline (Algorithm 1) over a graph.
func Discover(g *Graph, opts Options) *Result { return core.Discover(g, opts) }

// DiscoverStream runs the full pipeline over a batched stream without
// ever materializing the whole graph: each batch the reader yields is
// processed incrementally (§4.6) and released. Peak memory is one
// batch of decoded elements plus the evolving schema plus two
// per-element indexes that are small but grow with the stream — the
// reader's endpoint bookkeeping (node ID → labels) and the result's
// type assignments (element ID → type pointer, which unlabeled
// endpoint resolution, retraction and validation need); property
// values and representation vectors are never retained across
// batches. For streams whose edges never precede their endpoints (the
// order WriteJSONL and the CSV conventions guarantee), the discovered
// schema is bit-identical to a one-shot Discover over the same data
// for every batch size and Parallelism value. onBatch, when non-nil,
// observes each batch's timing and memory counters as it completes.
func DiscoverStream(r StreamReader, opts Options, onBatch func(BatchTiming)) (*Result, error) {
	return core.DiscoverStream(r, opts, onBatch)
}

// NewIncremental starts a streaming discovery with an empty schema.
func NewIncremental(opts Options) *Incremental { return core.NewIncremental(opts) }

// ResumeIncremental continues a streaming discovery from a previously
// discovered (typically persisted and reloaded) schema.
func ResumeIncremental(opts Options, s *Schema) *Incremental {
	return core.ResumeIncremental(opts, s)
}

// Checkpointing (see internal/core/checkpoint.go): persist the FULL
// cross-batch state of an incremental discovery — schema, per-element
// type assignments, interned shape caches, stream endpoint
// bookkeeping — so a run interrupted mid-stream resumes bit-identical
// to one that never stopped. Write with Incremental.WriteCheckpoint
// (or Service.WriteCheckpoint), restore with ResumeFromCheckpoint (or
// RestoreService).
type (
	// CheckpointExtras carries the stream-reader state persisted
	// alongside the Incremental: the resolver bookkeeping and, for CSV
	// streams, the sequential edge-ID counter.
	CheckpointExtras = core.CheckpointExtras
	// IncrementalStats summarizes the live state of an Incremental.
	IncrementalStats = core.IncrementalStats
)

// ResumeFromCheckpoint restores an incremental discovery from a
// checkpoint written by Incremental.WriteCheckpoint: the returned
// pipeline continues exactly where the interrupted run stood. Seed a
// new StreamReader over the remaining input with the returned extras
// (SeedResolver; SetNextEdgeID for CSV) to finish the stream
// bit-identically. opts must match the interrupted run's options.
func ResumeFromCheckpoint(opts Options, r io.Reader) (*Incremental, *CheckpointExtras, error) {
	return core.ResumeFromCheckpoint(opts, r)
}

// Schema model (see internal/schema).
type (
	// Schema is a discovered schema graph (Def. 3.4).
	Schema = schema.Schema
	// NodeType is a discovered node type (Def. 3.2).
	NodeType = schema.NodeType
	// EdgeType is a discovered edge type (Def. 3.3).
	EdgeType = schema.EdgeType
	// PropStat carries a property's constraints and statistics.
	PropStat = schema.PropStat
	// Cardinality classifies edge multiplicities (1:1, N:1, 1:N, M:N).
	Cardinality = schema.Cardinality
)

// Serialization (see internal/serialize).
type (
	// SerializationMode selects LOOSE or STRICT PG-Schema output.
	SerializationMode = serialize.Mode
)

// Serialization modes.
const (
	// Loose emits a LOOSE PG-Schema graph type.
	Loose = serialize.Loose
	// Strict emits a STRICT PG-Schema graph type.
	Strict = serialize.Strict
)

// PGSchema renders a schema as a PG-Schema CREATE GRAPH TYPE
// declaration (§4.5).
func PGSchema(s *Schema, mode SerializationMode, graphName string) string {
	return serialize.PGSchema(s, mode, graphName)
}

// XSD renders a schema as an XML Schema document (§4.5).
func XSD(s *Schema) string { return serialize.XSD(s) }

// DOT renders the schema graph as Graphviz DOT for visualization.
func DOT(s *Schema, graphName string) string { return serialize.DOT(s, graphName) }

// WriteSchemaJSON persists a schema, including the occurrence
// statistics that let a later session resume incremental discovery.
func WriteSchemaJSON(w io.Writer, s *Schema) error { return schema.WriteJSON(w, s) }

// ReadSchemaJSON restores a schema persisted with WriteSchemaJSON.
func ReadSchemaJSON(r io.Reader) (*Schema, error) { return schema.ReadJSON(r) }

// Validation (see internal/validate).
type (
	// ValidationReport lists the conformance violations of a graph
	// against a schema.
	ValidationReport = validate.Report
	// ValidationViolation is one conformance failure.
	ValidationViolation = validate.Violation
	// ValidationMode selects loose or strict validation.
	ValidationMode = validate.Mode
)

// Validation modes.
const (
	// ValidateLoose checks that every element is typeable.
	ValidateLoose = validate.Loose
	// ValidateStrict additionally checks properties, data types,
	// constraints, endpoints and cardinalities.
	ValidateStrict = validate.Strict
)

// Validate checks a graph against a discovered schema (§4.4's
// validation use case).
func Validate(g *Graph, s *Schema, mode ValidationMode) *ValidationReport {
	return validate.Graph(g, s, mode)
}

// Label alignment (see internal/align).
type (
	// AlignOptions tunes semantic label alignment.
	AlignOptions = align.Options
	// AlignMerge records one alignment decision.
	AlignMerge = align.Merge
)

// AlignNodeTypes merges node types whose labels are semantically
// equivalent (Organization vs Company) based on the label usage
// observable in g — the integration scenario of §6's future work.
func AlignNodeTypes(s *Schema, g *Graph, opts AlignOptions) []AlignMerge {
	return align.NodeTypes(s, g, opts)
}
