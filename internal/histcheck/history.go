// Package histcheck is a black-box correctness harness for the
// serving layer: it drives a live service (in-process or over HTTP)
// with concurrent client sessions, records what every session
// observed into a History, and checks that history offline against
// the service's external consistency contract — without ever looking
// inside the implementation.
//
// The workload model is deliberately narrow so the checker can be
// exact: the service starts empty, every mutation is a scripted ingest
// batch whose node/edge counts are known in advance (the History
// carries the script), and the log names every state. An ack states
// the LSN its batch was written at; a read states the LSN of the state
// it was served from, which is therefore exactly the scripted batches
// with LSN <= n — n of them, since LSNs count writes. The only unknown
// is a batch its writer never saw acknowledged (at most one per
// writer, in flight when the history ended), so a read costs a linear
// scan of the acks plus at most 2^writers choices, not a search. Batch
// node counts are kept multiples of five by the driver, so a torn batch
// is arithmetically unreachable and a single off-by-one in an observed
// node count is a detected violation, not noise.
//
// Histories may span replicas: every event carries the name of the
// server it was recorded against (empty = the leader), and
// History.Replicas declares which names are read-only followers. Lag
// is legal; a state at LSN n is the same everywhere.
//
// Checked invariants (see Check):
//   - per-session monotonicity: a client never sees one server's LSN
//     move backwards;
//   - real-time monotonicity, per server: an observation that finished
//     before another began cannot carry a newer LSN of the same
//     server;
//   - determinism: every observation of LSN n, on any server, reports
//     the same totals;
//   - exact visibility: an observation at LSN n shows exactly the
//     batches with LSN <= n (node, edge and batch totals), none whose
//     write began after the read returned, and — on the leader — every
//     batch acknowledged before the read began;
//   - instance conservation: an atomic snapshot's per-type instance
//     counts sum to its own node and edge totals;
//   - acks are well formed: in order per writer, at distinct LSNs, and
//     only by the leader — an ack attributed to a declared replica is
//     malformed, never explainable.
package histcheck

// BatchSpec is the externally visible size of one scripted ingest
// batch: how many nodes and edges it adds. The checker only ever
// reasons about these counts, never about batch contents.
type BatchSpec struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
}

// Observation is one read of the service's public state, at the LSN
// it was served from. The two Has* flags record which facets the
// transport returned atomically: a stats read carries HasStats, a
// schema read HasInstances, and an in-process snapshot both — which is
// what licenses the conservation check between its stats and its
// instance sums.
type Observation struct {
	// LSN names the published state the read was served from (0 = the
	// initial empty state).
	LSN uint64 `json:"lsn"`

	// HasStats: the service's own element totals.
	HasStats bool `json:"hasStats,omitempty"`
	Batches  int  `json:"batches,omitempty"`
	Nodes    int  `json:"nodes,omitempty"`
	Edges    int  `json:"edges,omitempty"`

	// HasInstances: sums of per-type instance counts over the
	// published schema, non-abstract types only (abstract supertypes
	// aggregate their children and would double-count).
	HasInstances  bool `json:"hasInstances,omitempty"`
	NodeInstances int  `json:"nodeInstances,omitempty"`
	EdgeInstances int  `json:"edgeInstances,omitempty"`
}

// Event is one entry in a session's recorded history: either a
// mutation acknowledgement (Writer != "") or an observation
// (Obs != nil). Start and End are ticks from the recorder's shared
// logical clock taken immediately before the call was issued and
// immediately after it returned; they are what turns a pile of
// per-session logs into real-time ordering evidence.
type Event struct {
	Session string `json:"session"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`

	// Server names the server this event was recorded against; empty
	// means the leader. A non-empty Server must be declared in
	// History.Replicas, and only observations may carry one — a
	// replica never acknowledges a write.
	Server string `json:"server,omitempty"`

	// Acknowledgement fields: Writer's batch number Seq (1-based
	// index into History.Writers[Writer]) was durably applied and
	// published at LSN before End.
	Writer string `json:"writer,omitempty"`
	Seq    int    `json:"seq,omitempty"`
	LSN    uint64 `json:"lsn,omitempty"`

	Obs *Observation `json:"obs,omitempty"`
}

// History is a complete record of one harness run: the per-writer
// batch script and every session's stamped events. The model assumes
// the service started empty and received no mutations outside the
// script.
type History struct {
	Writers map[string][]BatchSpec `json:"writers"`
	Events  []Event                `json:"events"`

	// Replicas declares the read-only follower names that events may
	// attribute reads to via Event.Server. Declaring them up front
	// (rather than inferring from events) keeps a typo'd Server a
	// detected malformation instead of a silently weakened check.
	Replicas []string `json:"replicas,omitempty"`
}
