package histcheck

// driver.go: the recording workload driver. Run spawns writer and
// reader sessions against any Client transport (in-process service,
// HTTP — anything that can ingest a graph and read stats), stamps
// every call on a shared logical clock, and returns the History for
// Check. The driver owns the batch script: each writer ingests a
// deterministic sequence of disjoint-ID graphs whose node counts are
// multiples of five, so no sum of whole batches can be confused with
// a torn one by a single element.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	pghive "github.com/pghive/pghive"
)

// Client is one session's transport to the service under test.
// Implementations must be safe for a single goroutine; the driver
// never shares a Client across sessions.
type Client interface {
	// Ingest applies one batch; returning means the service
	// acknowledged it (applied and published) at the LSN returned.
	Ingest(g *pghive.Graph) (uint64, error)
	// Stats reads the service's element totals (HasStats).
	Stats() (Observation, error)
	// Schema reads the published schema document and sums its
	// non-abstract per-type instance counts (HasInstances). Every read
	// states the LSN it was served from.
	Schema() (Observation, error)
	// Snapshot reads stats and instance sums from ONE atomic
	// snapshot when the transport can (ok=false when it cannot, e.g.
	// over HTTP where stats and schema are separate requests).
	Snapshot() (Observation, bool, error)
}

// Config sizes a Run. Zero fields get modest defaults.
type Config struct {
	Writers          int // concurrent writer sessions (default 3)
	BatchesPerWriter int // scripted batches each (default 4)
	Readers          int // concurrent reader sessions (default 2)
	ReadsPerReader   int // observations each (default 16)

	// Replicas names the read-only follower servers a RunReplicated
	// workload also reads from; the names end up in History.Replicas
	// so the checker applies replica semantics to those reads. Run
	// ignores this field.
	Replicas []string
	// ReplicaReaders is the number of concurrent reader sessions per
	// replica (default 1 when Replicas is non-empty), each issuing
	// ReadsPerReader observations.
	ReplicaReaders int

	// IDStride separates writer ID namespaces (default 1 << 20).
	IDStride pghive.ID
}

func (c Config) withDefaults() Config {
	if c.Writers <= 0 {
		c.Writers = 3
	}
	if c.BatchesPerWriter <= 0 {
		c.BatchesPerWriter = 4
	}
	if c.Readers < 0 {
		c.Readers = 0
	} else if c.Readers == 0 {
		c.Readers = 2
	}
	if c.ReadsPerReader <= 0 {
		c.ReadsPerReader = 16
	}
	if c.ReplicaReaders <= 0 && len(c.Replicas) > 0 {
		c.ReplicaReaders = 1
	}
	if c.IDStride <= 0 {
		c.IDStride = 1 << 20
	}
	return c
}

// Script returns the deterministic batch plan Run will ingest for
// this config: batch k of writer w carries 5*(1+(w+k)%3) nodes in a
// ring of as many edges. Exposed so tests can precompute totals.
func (c Config) Script() map[string][]BatchSpec {
	c = c.withDefaults()
	script := make(map[string][]BatchSpec, c.Writers)
	for w := 0; w < c.Writers; w++ {
		name := fmt.Sprintf("w%d", w)
		for k := 0; k < c.BatchesPerWriter; k++ {
			n := 5 * (1 + (w+k)%3)
			script[name] = append(script[name], BatchSpec{Nodes: n, Edges: n})
		}
	}
	return script
}

// recorder collects stamped events from all sessions. The clock is a
// shared atomic counter: a tick taken before a call and one taken
// after bracket every real-time effect of that call.
type recorder struct {
	clock  atomic.Int64
	mu     sync.Mutex
	events []Event
}

func (r *recorder) tick() int64 { return r.clock.Add(1) }

func (r *recorder) record(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Run drives the scripted workload through per-session Clients and
// returns the recorded History. newClient is called once per session
// (sessions "w0".. write, "r0".. read) and may return the same
// underlying service wrapped per call. The first transport error
// aborts the run. Config.Replicas is ignored; use RunReplicated to
// also read from followers.
func Run(newClient func(session string) Client, cfg Config) (*History, error) {
	cfg.Replicas = nil
	return RunReplicated(func(session, _ string) Client { return newClient(session) }, cfg)
}

// RunReplicated is Run extended across a replication topology: the
// scripted writers and the plain readers target the leader (server
// ""), and for every name in cfg.Replicas, cfg.ReplicaReaders extra
// reader sessions observe that follower, with their events stamped
// Server so the checker holds them to replica semantics (atomicity
// mandatory, freshness per server). newClient receives the session
// name and the server it must talk to ("" = leader).
func RunReplicated(newClient func(session, server string) Client, cfg Config) (*History, error) {
	cfg = cfg.withDefaults()
	script := cfg.Script()
	rec := &recorder{}

	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	fail := func(err error) {
		if err != nil {
			firstErr.CompareAndSwap(nil, &err)
		}
	}

	for w := 0; w < cfg.Writers; w++ {
		name := fmt.Sprintf("w%d", w)
		base := pghive.ID(w+1) * cfg.IDStride
		c := newClient(name, "")
		wg.Add(1)
		go func() {
			defer wg.Done()
			off := pghive.ID(0) // running ID offset: batches use disjoint ranges
			for k, spec := range script[name] {
				if firstErr.Load() != nil {
					return
				}
				g := buildBatch(base+off, spec)
				off += pghive.ID(spec.Nodes)
				start := rec.tick()
				lsn, err := c.Ingest(g)
				end := rec.tick()
				if err != nil {
					fail(fmt.Errorf("histcheck: %s ingest %d: %w", name, k+1, err))
					return
				}
				rec.record(Event{Session: name, Start: start, End: end, Writer: name, Seq: k + 1, LSN: lsn})

				// Read-your-writes probe: a stats read issued after
				// the ack must (per the stamps) include this batch.
				if _, err := observe(rec, name, "", c, k); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	for r := 0; r < cfg.Readers; r++ {
		name := fmt.Sprintf("r%d", r)
		c := newClient(name, "")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cfg.ReadsPerReader; i++ {
				if firstErr.Load() != nil {
					return
				}
				if _, err := observe(rec, name, "", c, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	for _, server := range cfg.Replicas {
		for r := 0; r < cfg.ReplicaReaders; r++ {
			name := fmt.Sprintf("%s/r%d", server, r)
			c := newClient(name, server)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < cfg.ReadsPerReader; i++ {
					if firstErr.Load() != nil {
						return
					}
					if _, err := observe(rec, name, server, c, i); err != nil {
						fail(err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return nil, *ep
	}
	return &History{Writers: script, Events: rec.events, Replicas: cfg.Replicas}, nil
}

// observe issues the i-th read for a session against server, rotating
// across the three read shapes so every run exercises stats,
// schema-document, and (when the transport supports it)
// atomic-snapshot observations.
func observe(rec *recorder, session, server string, c Client, i int) (Observation, error) {
	var obs Observation
	var err error
	switch i % 3 {
	case 0:
		start := rec.tick()
		obs, err = c.Stats()
		end := rec.tick()
		if err == nil {
			rec.record(Event{Session: session, Server: server, Start: start, End: end, Obs: &obs})
		}
	case 1:
		start := rec.tick()
		obs, err = c.Schema()
		end := rec.tick()
		if err == nil {
			rec.record(Event{Session: session, Server: server, Start: start, End: end, Obs: &obs})
		}
	default:
		start := rec.tick()
		var ok bool
		obs, ok, err = c.Snapshot()
		end := rec.tick()
		if err == nil && !ok {
			// Transport can't read atomically; fall back to stats.
			start = rec.tick()
			obs, err = c.Stats()
			end = rec.tick()
		}
		if err == nil {
			rec.record(Event{Session: session, Server: server, Start: start, End: end, Obs: &obs})
		}
	}
	if err != nil {
		return Observation{}, fmt.Errorf("histcheck: %s read %d: %w", session, i, err)
	}
	return obs, nil
}

// buildBatch materializes one scripted batch: spec.Nodes nodes under
// label "Hist" with an int property, joined in a ring of spec.Edges
// "NEXT" edges. IDs start at base; node and edge IDs live in separate
// namespaces, so both use the same range.
func buildBatch(base pghive.ID, spec BatchSpec) *pghive.Graph {
	g := pghive.NewGraph()
	for i := 0; i < spec.Nodes; i++ {
		id := base + pghive.ID(i)
		if err := g.PutNode(id, []string{"Hist"}, pghive.Props{{Key: "k", Val: pghive.Int(int64(i))}}); err != nil {
			panic(err) // scripted IDs are disjoint by construction
		}
	}
	for i := 0; i < spec.Edges; i++ {
		src := base + pghive.ID(i%spec.Nodes)
		dst := base + pghive.ID((i+1)%spec.Nodes)
		if err := g.PutEdge(base+pghive.ID(i), []string{"NEXT"}, src, dst, nil); err != nil {
			panic(err)
		}
	}
	return g
}

// ServiceClient adapts an in-process serving type to the Client
// interface: reads go through the Reader every serving type shares —
// its Snapshot reads stats and schema from one published
// ServiceSnapshot, which is what makes the conservation invariant
// checkable at all — and writes through Write, which wraps whatever
// the type's own write method is and answers its ack's timing. Write
// stays nil for a follower: a replica has nothing to write through.
type ServiceClient struct {
	Svc   *pghive.Reader
	Write func(*pghive.Graph) (pghive.BatchTiming, error)
}

func (c ServiceClient) Ingest(g *pghive.Graph) (uint64, error) {
	if c.Write == nil {
		return 0, errors.New("histcheck: read-only client")
	}
	bt, err := c.Write(g)
	return bt.LSN, err
}

func (c ServiceClient) Stats() (Observation, error) {
	return statsObservation(c.Svc.Stats()), nil
}

func (c ServiceClient) Schema() (Observation, error) {
	snap := c.Svc.Snapshot()
	nodes, edges := instanceSums(snap.Schema)
	return Observation{LSN: snap.Stats.LSN, HasInstances: true, NodeInstances: nodes, EdgeInstances: edges}, nil
}

func (c ServiceClient) Snapshot() (Observation, bool, error) {
	snap := c.Svc.Snapshot()
	obs := statsObservation(snap.Stats)
	obs.HasInstances = true
	obs.NodeInstances, obs.EdgeInstances = instanceSums(snap.Schema)
	return obs, true, nil
}

func statsObservation(st pghive.ServiceStats) Observation {
	return Observation{
		LSN: st.LSN, HasStats: true, Batches: st.Batches, Nodes: st.Nodes, Edges: st.Edges,
	}
}

func instanceSums(s *pghive.Schema) (nodes, edges int) {
	for _, ty := range s.NodeTypes {
		if !ty.Abstract {
			nodes += ty.Instances
		}
	}
	for _, ty := range s.EdgeTypes {
		if !ty.Abstract {
			edges += ty.Instances
		}
	}
	return nodes, edges
}
