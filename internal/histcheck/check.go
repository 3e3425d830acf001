package histcheck

// check.go: the offline history checker. Check never talks to a
// service — it receives a History and decides whether every recorded
// observation is the state the log names at the observation's LSN. It
// is deliberately defensive: a malformed history (unknown
// writer, out-of-order acks, inverted stamps) is reported as a
// violation rather than trusted, so the checker can be fuzzed with
// arbitrary bytes and driven by recorders it has never met.

import (
	"fmt"
	"sort"
)

// Violation is one detected breach of the serving contract (or of the
// history's own well-formedness). Kind is a stable machine-checkable
// tag; Detail is for humans.
type Violation struct {
	Kind    string // "malformed", "monotonicity", "realtime", "determinism", "visibility", "conservation"
	Session string // offending session, when attributable
	Detail  string
}

func (v *Violation) Error() string {
	if v.Session != "" {
		return fmt.Sprintf("histcheck: %s violation in session %s: %s", v.Kind, v.Session, v.Detail)
	}
	return fmt.Sprintf("histcheck: %s violation: %s", v.Kind, v.Detail)
}

// Violation kinds.
const (
	KindMalformed    = "malformed"
	KindMonotonicity = "monotonicity"
	KindRealtime     = "realtime"
	KindDeterminism  = "determinism"
	KindVisibility   = "visibility"
	KindConservation = "conservation"
)

// ack is a validated acknowledgement: its batch, the LSN it was
// written at, and its real-time window.
type ack struct {
	spec       BatchSpec
	lsn        uint64
	start, end int64
}

// inFlight is a batch its writer never saw acknowledged. It may have
// been applied — after its writer's last ack returned, at a higher LSN.
type inFlight struct {
	spec  BatchSpec
	after uint64 // the writer's last acked LSN (0: none)
	since int64  // that ack's end stamp
}

// Check validates a recorded history against the serving contract.
// It returns nil when every event is explainable, and the first
// *Violation found otherwise. The order checks run in is fixed
// (well-formedness, then per-session monotonicity, then real-time
// ordering, then determinism, then visibility and conservation), so
// a history with several defects reports a deterministic one.
func Check(h *History) error {
	_, err := check(h)
	return err
}

// check is Check, also reporting the most in-flight choices one
// observation's visibility check tried: at most 2^writers.
func check(h *History) (int, error) {
	if h == nil {
		return 0, &Violation{Kind: KindMalformed, Detail: "nil history"}
	}

	replicas := make(map[string]bool, len(h.Replicas))
	for _, r := range h.Replicas {
		if r == "" {
			return 0, &Violation{Kind: KindMalformed, Detail: "empty replica name declared"}
		}
		replicas[r] = true
	}

	// Well-formedness: every event belongs to a session, has a
	// coherent stamp window, and is either an ack or an observation.
	// Acks must name a scripted writer, arrive in 1..n order per writer
	// (writers are sequential clients by construction), each after the
	// last in real time and in the log, and state distinct LSNs.
	byWriter := make(map[string][]ack)
	var acks []ack
	lsns := make(map[uint64]bool)
	var observations []Event
	perSession := make(map[string][]Event)
	for i, e := range h.Events {
		if e.Session == "" {
			return 0, &Violation{Kind: KindMalformed, Detail: fmt.Sprintf("event %d has no session", i)}
		}
		if e.Start >= e.End {
			return 0, &Violation{Kind: KindMalformed, Session: e.Session,
				Detail: fmt.Sprintf("event %d stamp window [%d,%d) is empty or inverted", i, e.Start, e.End)}
		}
		if e.Server != "" {
			if !replicas[e.Server] {
				return 0, &Violation{Kind: KindMalformed, Session: e.Session,
					Detail: fmt.Sprintf("event %d names undeclared server %q", i, e.Server)}
			}
			if e.Writer != "" {
				return 0, &Violation{Kind: KindMalformed, Session: e.Session,
					Detail: fmt.Sprintf("write acknowledged by read-only replica %q", e.Server)}
			}
		}
		switch {
		case e.Writer != "" && e.Obs == nil:
			spec, ok := h.Writers[e.Writer]
			if !ok {
				return 0, &Violation{Kind: KindMalformed, Session: e.Session,
					Detail: fmt.Sprintf("ack for unscripted writer %q", e.Writer)}
			}
			prev := byWriter[e.Writer]
			if want := len(prev) + 1; e.Seq != want || e.Seq > len(spec) {
				return 0, &Violation{Kind: KindMalformed, Session: e.Session,
					Detail: fmt.Sprintf("writer %q ack seq %d, want %d of %d", e.Writer, e.Seq, want, len(spec))}
			}
			if e.LSN == 0 || lsns[e.LSN] {
				return 0, &Violation{Kind: KindMalformed, Session: e.Session,
					Detail: fmt.Sprintf("writer %q ack %d states LSN %d, zero or already acked", e.Writer, e.Seq, e.LSN)}
			}
			if n := len(prev); n > 0 && (e.Start <= prev[n-1].end || e.LSN < prev[n-1].lsn) {
				return 0, &Violation{Kind: KindMalformed,
					Detail: fmt.Sprintf("writer %q acks %d and %d overlap in real time or run backwards in the log", e.Writer, n, n+1)}
			}
			lsns[e.LSN] = true
			a := ack{spec[e.Seq-1], e.LSN, e.Start, e.End}
			byWriter[e.Writer] = append(prev, a)
			acks = append(acks, a)
		case e.Writer == "" && e.Obs != nil:
			observations = append(observations, e)
		default:
			return 0, &Violation{Kind: KindMalformed, Session: e.Session,
				Detail: fmt.Sprintf("event %d is neither a pure ack nor a pure observation", i)}
		}
		perSession[e.Session] = append(perSession[e.Session], e)
	}
	var flight []inFlight
	for w, spec := range h.Writers {
		for _, b := range spec {
			if b.Nodes < 0 || b.Edges < 0 {
				return 0, &Violation{Kind: KindMalformed, Detail: fmt.Sprintf("writer %q scripts a batch of negative size", w)}
			}
		}
		if done := byWriter[w]; len(done) < len(spec) {
			f := inFlight{spec: spec[len(done)]}
			if n := len(done); n > 0 {
				f.after, f.since = done[n-1].lsn, done[n-1].end
			}
			flight = append(flight, f)
		}
	}

	if v := checkSessionMonotonicity(perSession); v != nil {
		return 0, v
	}
	if v := checkRealtimeMonotonicity(observations); v != nil {
		return 0, v
	}
	if v := checkDeterminism(observations); v != nil {
		return 0, v
	}
	most := 0
	for _, e := range observations {
		if v := checkConservation(e); v != nil {
			return most, v
		}
		tried, v := checkVisibility(acks, flight, e, replicas[e.Server])
		most = max(most, tried)
		if v != nil {
			return most, v
		}
	}
	return most, nil
}

// checkSessionMonotonicity: within one session, in stamp order, the
// observed LSN never decreases. A client that reads LSN 7 and then
// LSN 5 has time-travelled. A replica may trail the leader, so a
// session that reads from several servers is held to the rule
// independently per server.
func checkSessionMonotonicity(perSession map[string][]Event) *Violation {
	for session, events := range perSession {
		sort.SliceStable(events, func(i, j int) bool { return events[i].Start < events[j].Start })
		last := make(map[string]uint64)
		for _, e := range events {
			if e.Obs == nil {
				continue
			}
			if prev, have := last[e.Server]; have && e.Obs.LSN < prev {
				return &Violation{Kind: KindMonotonicity, Session: session,
					Detail: fmt.Sprintf("LSN went backwards: %d after %d", e.Obs.LSN, prev)}
			}
			last[e.Server] = e.Obs.LSN
		}
	}
	return nil
}

// checkRealtimeMonotonicity: across ALL sessions, an observation that
// finished before another began must not carry a newer LSN of the SAME
// server — each server's published state is a single register and
// reads of it must be consistent with real time. A replica lawfully
// trails the leader, so the sweep runs per server.
func checkRealtimeMonotonicity(observations []Event) *Violation {
	perServer := make(map[string][]Event)
	for _, e := range observations {
		perServer[e.Server] = append(perServer[e.Server], e)
	}
	for _, obs := range perServer {
		if v := realtimeSweep(obs); v != nil {
			return v
		}
	}
	return nil
}

// realtimeSweep runs the single-register real-time check over one
// server's observations: sweep in Start order, folding in the maximum
// LSN among observations that have fully completed.
func realtimeSweep(obs []Event) *Violation {
	byStart := append([]Event(nil), obs...)
	sort.SliceStable(byStart, func(i, j int) bool { return byStart[i].Start < byStart[j].Start })
	byEnd := append([]Event(nil), obs...)
	sort.SliceStable(byEnd, func(i, j int) bool { return byEnd[i].End < byEnd[j].End })

	var maxLSN uint64
	var maxFrom string
	done := 0
	for _, e := range byStart {
		for done < len(byEnd) && byEnd[done].End < e.Start {
			if n := byEnd[done].Obs.LSN; n > maxLSN {
				maxLSN, maxFrom = n, byEnd[done].Session
			}
			done++
		}
		if e.Obs.LSN < maxLSN {
			return &Violation{Kind: KindRealtime, Session: e.Session,
				Detail: fmt.Sprintf("observed LSN %d after session %s had already finished observing %d",
					e.Obs.LSN, maxFrom, maxLSN)}
		}
	}
	return nil
}

// totals is what an observation reports of its state: the stats'
// element totals, or else its instance sums.
func totals(o *Observation) (nodes, edges int, ok bool) {
	if o.HasStats {
		return o.Nodes, o.Edges, true
	}
	return o.NodeInstances, o.EdgeInstances, o.HasInstances
}

// checkDeterminism: an LSN names exactly one state, on every server —
// follower@n is leader@n — so every observation of it must report the
// same totals.
func checkDeterminism(observations []Event) *Violation {
	type seenAt struct {
		nodes, edges int
		session      string
	}
	seen := make(map[uint64]seenAt)
	for _, e := range observations {
		nodes, edges, ok := totals(e.Obs)
		if !ok {
			continue
		}
		prev, have := seen[e.Obs.LSN]
		if !have {
			seen[e.Obs.LSN] = seenAt{nodes, edges, e.Session}
			continue
		}
		if prev.nodes != nodes || prev.edges != edges {
			return &Violation{Kind: KindDeterminism, Session: e.Session,
				Detail: fmt.Sprintf("LSN %d reported as (nodes=%d edges=%d) and, to session %s, (nodes=%d edges=%d)",
					e.Obs.LSN, nodes, edges, prev.session, prev.nodes, prev.edges)}
		}
	}
	return nil
}

// checkConservation: when one atomic read returned both stats and
// per-type instance sums, they describe the same snapshot, so the
// instance sums must equal the element totals exactly.
func checkConservation(e Event) *Violation {
	o := e.Obs
	if !o.HasStats || !o.HasInstances {
		return nil
	}
	if o.NodeInstances != o.Nodes {
		return &Violation{Kind: KindConservation, Session: e.Session,
			Detail: fmt.Sprintf("node type instances sum to %d, stats count %d nodes", o.NodeInstances, o.Nodes)}
	}
	if o.EdgeInstances != o.Edges {
		return &Violation{Kind: KindConservation, Session: e.Session,
			Detail: fmt.Sprintf("edge type instances sum to %d, stats count %d edges", o.EdgeInstances, o.Edges)}
	}
	return nil
}

// checkVisibility: an observation at LSN n shows exactly the batches
// written at LSN <= n, n of them, in one scan of the acks. The acks
// name most of them and must agree with real time: none may have begun
// after the read returned, and on the leader every one acknowledged
// before the read began is among them (a replica may lag). The other
// positions up to n hold batches in flight — which of them is the one
// unknown, so the check folds each in as visible or not, and returns
// how many choices it kept.
func checkVisibility(acks []ack, flight []inFlight, e Event, replica bool) (int, *Violation) {
	o := e.Obs
	n := o.LSN
	fail := func(format string, args ...any) *Violation {
		return &Violation{Kind: KindVisibility, Session: e.Session, Detail: fmt.Sprintf("read at LSN %d: ", n) + fmt.Sprintf(format, args...)}
	}
	var known uint64
	nodes, edges := 0, 0
	for _, a := range acks {
		switch {
		case a.lsn <= n && a.start >= e.End:
			return 0, fail("shows the write at LSN %d, which began after the read returned", a.lsn)
		case a.lsn <= n:
			known++
			nodes, edges = nodes+a.spec.Nodes, edges+a.spec.Edges
		case !replica && a.end < e.Start:
			return 0, fail("misses the write at LSN %d, acknowledged before the read began", a.lsn)
		}
	}
	var maybe []BatchSpec
	for _, f := range flight {
		if f.after < n && f.since < e.End {
			maybe = append(maybe, f.spec)
		}
	}
	need := n - known
	if need > uint64(len(maybe)) {
		return 0, fail("%d positions are neither acknowledged nor in flight", need-uint64(len(maybe)))
	}
	if o.HasStats && (o.Batches < 0 || uint64(o.Batches) != n) {
		return 0, fail("reports %d batches", o.Batches)
	}
	wantNodes, wantEdges, ok := totals(o)
	if !ok {
		return 0, nil
	}
	type sum struct {
		k            uint64
		nodes, edges int
	}
	reach := []sum{{0, nodes, edges}}
	seen := map[sum]bool{reach[0]: true}
	for _, b := range maybe {
		for _, s := range reach { // the sums before b: b joins each at most once
			t := sum{s.k + 1, s.nodes + b.Nodes, s.edges + b.Edges}
			if t.k <= need && t.nodes <= wantNodes && t.edges <= wantEdges && !seen[t] {
				seen[t] = true
				reach = append(reach, t)
			}
		}
	}
	if !seen[sum{need, wantNodes, wantEdges}] {
		return len(reach), fail("(nodes=%d edges=%d) is not the %d acknowledged batches (nodes=%d edges=%d) plus %d of %d in flight",
			wantNodes, wantEdges, known, nodes, edges, need, len(maybe))
	}
	return len(reach), nil
}
