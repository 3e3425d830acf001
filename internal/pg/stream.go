package pg

import (
	"fmt"
	"io"
)

// DefaultStreamBatchSize is the batch size a StreamReader uses when
// the caller passes one <= 0: large enough to amortize per-batch
// pipeline overhead, small enough that a batch of typical elements
// stays in the tens of megabytes.
const DefaultStreamBatchSize = 8192

// StreamReader yields a property graph as a sequence of bounded
// batches, the ingestion form of the incremental pipeline (§4.6):
// instead of materializing the whole graph before discovery starts,
// the reader holds one batch of fully decoded elements at a time plus
// the cross-batch endpoint bookkeeping that dangling-edge resolution
// needs.
//
// Contract:
//   - Next returns the next *Batch, or (nil, io.EOF) once the stream
//     is exhausted. After any non-EOF error the reader is broken and
//     keeps returning that error.
//   - Each batch carries at most the configured number of elements
//     (nodes plus edges).
//   - Batch.Resolver is the reader's shared bookkeeping, a LabelIndex:
//     it holds the labels of every node seen so far — including the
//     current batch's — so edges whose endpoints arrived in earlier
//     batches still resolve their endpoint labels.
//     The reader appends to it on every Next call, so a batch must be
//     consumed before the next one is requested (exactly how
//     Incremental.DrainStream drives it); batches are not safe to
//     process concurrently with further Next calls.
//   - An edge whose endpoint has not streamed yet is dangling; the
//     pipeline falls back to discovered node types for it. Streams
//     written by WriteJSONL (all nodes first) and CSV streams (node
//     files before relationship files) never dangle, which is what
//     makes streamed discovery bit-identical to one-shot discovery.
type StreamReader interface {
	Next() (*Batch, error)
}

// streamState is the bookkeeping shared by the concrete readers: the
// label index, the batch under construction, and the batch counter.
type streamState struct {
	batchSize int
	resolver  *LabelIndex
	cur       *Graph
	index     int
}

func newStreamState(batchSize int) streamState {
	if batchSize <= 0 {
		batchSize = DefaultStreamBatchSize
	}
	s := streamState{batchSize: batchSize, resolver: &LabelIndex{}}
	s.reset()
	return s
}

func (s *streamState) reset() {
	s.cur = NewGraph()
	s.cur.AllowDanglingEdges(true)
}

func (s *streamState) full() bool {
	return s.cur.NumNodes()+s.cur.NumEdges() >= s.batchSize
}

// trackNode records a node's labels in the resolver — the per-node
// memory cost of the stream. A duplicate ID here means the node
// already arrived in an earlier batch.
func (s *streamState) trackNode(id ID, labels []string) error {
	if !s.resolver.Put(id, labels) {
		return fmt.Errorf("pg: duplicate node id %d", id)
	}
	return nil
}

// Resolver exposes the stream's endpoint bookkeeping: the labels of
// every node seen so far. Checkpoint writers persist it so a resumed
// stream over the remaining input can still resolve edges whose
// endpoints arrived before the checkpoint. The returned index is owned
// by the stream; callers must not mutate it and must read it (or
// Clone it) only between Next calls.
func (s *streamState) Resolver() *LabelIndex { return s.resolver }

// SeedResolver pre-registers a node in the endpoint bookkeeping, as if
// it had streamed through earlier — how a checkpoint-restored run
// rebuilds the resolver before reading the remaining input. It fails
// on IDs already tracked.
func (s *streamState) SeedResolver(id ID, labels []string) error {
	return s.trackNode(id, labels)
}

// emit hands the accumulated batch out and starts a fresh one. The
// reader keeps no reference to emitted batch graphs, so the consumer's
// release of a batch releases its elements.
func (s *streamState) emit() *Batch {
	s.index++
	b := &Batch{Graph: s.cur, Resolver: s.resolver, Index: s.index}
	s.reset()
	return b
}

// JSONLStream reads the JSONL interchange format (see WriteJSONL) in
// bounded batches. It shares the line decoder with ReadJSONL, so both
// accept the same inputs and report the same line-numbered errors;
// unlike the one-shot loader it never validates dangling edges (an
// endpoint may always arrive in a later batch) and it cannot detect
// edge IDs duplicated across batches — remembering every edge ID is
// exactly the unbounded state streaming exists to avoid. Duplicate
// node IDs are still rejected via the resolver bookkeeping.
type JSONLStream struct {
	dec *jsonlDecoder
	streamState
	err error // sticky terminal state (including io.EOF)
}

// NewJSONLStream returns a streaming reader over r emitting batches of
// at most batchSize elements (<= 0 selects DefaultStreamBatchSize).
func NewJSONLStream(r io.Reader, batchSize int) *JSONLStream {
	return &JSONLStream{dec: newJSONLDecoder(r), streamState: newStreamState(batchSize)}
}

// Next returns the next batch, or (nil, io.EOF) at the end of the
// stream.
func (s *JSONLStream) Next() (*Batch, error) {
	if s.err != nil {
		return nil, s.err
	}
	for !s.full() {
		el, err := s.dec.next()
		if err == io.EOF {
			if s.cur.NumNodes()+s.cur.NumEdges() > 0 {
				s.err = io.EOF
				return s.emit(), nil
			}
			s.err = io.EOF
			return nil, io.EOF
		}
		if err != nil {
			s.err = err
			return nil, err
		}
		if err := s.dec.addTo(s.cur, el); err != nil {
			s.err = err
			return nil, err
		}
		if el.kind == "node" {
			if err := s.trackNode(el.id, el.labels); err != nil {
				// In-batch duplicates error on addTo above; reaching
				// here means the ID arrived in an earlier batch.
				s.err = fmt.Errorf("pg: line %d: %w", s.dec.line, err)
				return nil, s.err
			}
		}
	}
	return s.emit(), nil
}

// CSVStream reads neo4j-admin style bulk CSV files in bounded
// batches: all node sources first, then all relationship sources,
// mirroring how the one-shot CLI path loads them. It shares the
// row decoders with ReadNodesCSV / ReadEdgesCSV. Edge IDs are
// assigned sequentially across the whole stream, so they match the
// one-shot loader's. Endpoints of every edge are validated against
// the resolver (all nodes precede all edges), like the one-shot
// loader validates them against the accumulated graph.
type CSVStream struct {
	nodeSrcs []io.Reader
	edgeSrcs []io.Reader
	nr       *nodeCSVReader
	er       *edgeCSVReader
	nrName   string // current node source, for error provenance
	erName   string
	nodeOrd  int // 1-based ordinal of the current source
	edgeOrd  int
	nextEdge ID
	streamState
	err error
}

// sourceName labels a CSV source for error messages: the file name
// when the reader exposes one (os.File does), else a 1-based ordinal
// — line counters reset per source, so errors must say which file the
// line number belongs to, like the one-shot CLI path does.
func sourceName(r io.Reader, kind string, ordinal int) string {
	if n, ok := r.(interface{ Name() string }); ok {
		return n.Name()
	}
	return fmt.Sprintf("%s csv #%d", kind, ordinal)
}

// NewCSVStream returns a streaming reader over node CSV sources and
// relationship CSV sources (either may be empty), emitting batches of
// at most batchSize elements. Headers are parsed lazily when a source
// is first read.
func NewCSVStream(nodes, edges []io.Reader, batchSize int) *CSVStream {
	return &CSVStream{nodeSrcs: nodes, edgeSrcs: edges, streamState: newStreamState(batchSize)}
}

// SetNextEdgeID overrides the sequential edge-ID counter. CSV rows
// carry no edge IDs, so a checkpoint-resumed stream over the remaining
// relationship rows must continue numbering where the interrupted run
// stopped to keep IDs — and therefore assignments — identical.
func (s *CSVStream) SetNextEdgeID(id ID) { s.nextEdge = id }

// NextEdgeID returns the ID the next decoded relationship row will
// get — the counterpart checkpoint writers persist for SetNextEdgeID.
func (s *CSVStream) NextEdgeID() ID { return s.nextEdge }

// Next returns the next batch, or (nil, io.EOF) at the end of the
// stream.
func (s *CSVStream) Next() (*Batch, error) {
	if s.err != nil {
		return nil, s.err
	}
	for !s.full() {
		if err := s.step(); err != nil {
			s.err = err
			if err == io.EOF && s.cur.NumNodes()+s.cur.NumEdges() > 0 {
				return s.emit(), nil
			}
			return nil, err
		}
	}
	return s.emit(), nil
}

// step decodes one row from the current source, advancing to the next
// source on its EOF; it returns io.EOF once every source is drained.
func (s *CSVStream) step() error {
	// Open the next node source if none is active.
	for s.nr == nil && len(s.nodeSrcs) > 0 {
		src := s.nodeSrcs[0]
		s.nodeSrcs = s.nodeSrcs[1:]
		s.nodeOrd++
		s.nrName = sourceName(src, "node", s.nodeOrd)
		nr, err := newNodeCSVReader(src)
		if err != nil {
			return fmt.Errorf("%s: %w", s.nrName, err)
		}
		s.nr = nr
	}
	if s.nr != nil {
		id, labels, props, err := s.nr.next()
		if err == io.EOF {
			s.nr = nil
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.nrName, err)
		}
		if err := s.cur.PutNode(id, labels, props); err != nil {
			return fmt.Errorf("%s: pg: csv line %d: %w", s.nrName, s.nr.line, err)
		}
		if err := s.trackNode(id, labels); err != nil {
			return fmt.Errorf("%s: pg: csv line %d: %w", s.nrName, s.nr.line, err)
		}
		return nil
	}
	for s.er == nil && len(s.edgeSrcs) > 0 {
		src := s.edgeSrcs[0]
		s.edgeSrcs = s.edgeSrcs[1:]
		s.edgeOrd++
		s.erName = sourceName(src, "relationship", s.edgeOrd)
		er, err := newEdgeCSVReader(src)
		if err != nil {
			return fmt.Errorf("%s: %w", s.erName, err)
		}
		s.er = er
	}
	if s.er != nil {
		src, dst, labels, props, err := s.er.next()
		if err == io.EOF {
			s.er = nil
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.erName, err)
		}
		if _, ok := s.resolver.NodeLabels(src); !ok {
			return fmt.Errorf("%s: pg: csv line %d: edge source node %d not found", s.erName, s.er.line, src)
		}
		if _, ok := s.resolver.NodeLabels(dst); !ok {
			return fmt.Errorf("%s: pg: csv line %d: edge target node %d not found", s.erName, s.er.line, dst)
		}
		if err := s.cur.PutEdge(s.nextEdge, labels, src, dst, props); err != nil {
			return fmt.Errorf("%s: pg: csv line %d: %w", s.erName, s.er.line, err)
		}
		s.nextEdge++
		return nil
	}
	return io.EOF
}
