package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/pghive/pghive/client"
	"github.com/pghive/pghive/internal/core"
	"github.com/pghive/pghive/internal/infer"
	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/schema"
)

const (
	schemaReadPath = "/schema?format=pgschema&mode=strict"
	schemaJSONPath = "/schema?format=json"
)

// session is one generator talking to one server over two keep-alive
// connections: A carries every write, in ledger order; B carries the
// reads and the operator requests. One goroutine drives each, so the
// generator never has more requests in flight than connections.
type session struct {
	srv    *server
	ledger *ledger
	a, b   *conn
	writer *client.Client
	key    string // idempotency key of the write being sent
	next   int    // ledger writes consumed so far
}

func newSession(srv *server, l *ledger) *session {
	s := &session{srv: srv, ledger: l, a: newConn(srv.url), b: newConn(srv.url)}
	// One attempt, ledger-derived keys: a retry could hide a failure,
	// and a random key could not be replayed.
	s.writer = client.New(srv.url, client.Options{
		HTTPClient: s.a.hc, RequestTimeout: requestTimeout, MaxAttempts: 1,
		NewIdempotencyKey: func() string { return s.key },
	})
	return s
}

func (s *session) close() { s.a.close(); s.b.close() }

// write sends one ledger op on connection A and checks the answer.
func (s *session) write(op *writeOp) error {
	s.key = op.key
	var res *client.WriteResult
	var err error
	if op.kind == churnRetract {
		res, err = s.writer.RetractJSONL(context.Background(), op.body)
	} else {
		res, err = s.writer.IngestJSONL(context.Background(), op.body)
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", op.kind, op.key, err)
	}
	if res.Replayed {
		return fmt.Errorf("%s %s: server answered replayed:true to a first attempt", op.kind, op.key)
	}
	return nil
}

// read sends read i on connection B: the strict PG-Schema rendering
// when i is even, a validation of the probe batch when it is odd.
func (s *session) read(i int) error {
	if i%2 == 0 {
		body, err := s.b.do(http.MethodGet, schemaReadPath, nil)
		if err != nil {
			return fmt.Errorf("GET /schema: %w", err)
		}
		if !bytes.HasPrefix(body, []byte("CREATE GRAPH TYPE")) {
			return fmt.Errorf("GET /schema: not a PG-Schema document: %.40q", body)
		}
		return nil
	}
	body, err := s.b.do(http.MethodPost, "/validate", s.ledger.probe)
	if err != nil {
		return fmt.Errorf("POST /validate: %w", err)
	}
	var v struct {
		Checked int `json:"checked"`
	}
	if err := json.Unmarshal(body, &v); err != nil || v.Checked != s.ledger.probeElems {
		return fmt.Errorf("POST /validate: checked %d elements, sent %d (%v)", v.Checked, s.ledger.probeElems, err)
	}
	return nil
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	Stats struct {
		Batches   int `json:"batches"`
		Nodes     int `json:"nodes"`
		Edges     int `json:"edges"`
		NodeTypes int `json:"nodeTypes"`
		EdgeTypes int `json:"edgeTypes"`
	} `json:"stats"`
	Admission struct {
		Rejected uint64 `json:"rejected"`
	} `json:"admission"`
}

func (s *session) stats() (serverStats, error) {
	var st serverStats
	body, err := s.b.do(http.MethodGet, "/stats", nil)
	if err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	return st, nil
}

// checkCounts compares the server's element counts with what the
// ledger says the first s.next writes leave behind.
func (s *session) checkCounts(rep *report, when string) error {
	st, err := s.stats()
	if err != nil {
		return err
	}
	if problem := countMismatch(s.ledger, s.next, st); problem != "" {
		rep.problem("%s: %s", when, problem)
	}
	return nil
}

// countMismatch is the ledger half of the correctness gate: it returns
// a description of the difference between the server's counts and the
// ledger's after n writes, or "" when they agree.
func countMismatch(l *ledger, n int, st serverStats) string {
	nodes, edges := l.counts(n)
	batches := len(l.base)
	for _, op := range l.writes[:n] {
		if op.kind != churnRetract {
			batches++
		}
	}
	if st.Stats.Nodes != nodes || st.Stats.Edges != edges || st.Stats.Batches != batches {
		return fmt.Sprintf("server holds %d nodes, %d edges after %d batches; the ledger says %d, %d, %d",
			st.Stats.Nodes, st.Stats.Edges, st.Stats.Batches, nodes, edges, batches)
	}
	return ""
}

// firstError returns the first failed sample's error, for the log.
func firstError(ss []sample) error {
	for _, s := range ss {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// setPercentile records the p-th percentile of the samples' latency, or
// a problem when there are too few samples to report it.
func setPercentile(rep *report, name string, ss []sample, p float64) {
	v, err := percentile(sortedCopy(latenciesMs(ss)), p)
	if err != nil {
		rep.problem("%s: %v: raise --seconds", name, err)
		return
	}
	rep.set(name, "ms", v, len(ss))
}

// tailWindows is how many stretches of the open phase a tail latency is
// taken over (see windowedPercentile).
const tailWindows = 3

// setTail records the median, over tailWindows stretches of a phase
// that lasted dur, of each stretch's p-th percentile latency.
func setTail(rep *report, name string, ss []sample, dur time.Duration, p float64) {
	due := make([]float64, len(ss))
	for i, s := range ss {
		due[i] = s.due.Seconds()
	}
	v, err := windowedPercentile(due, latenciesMs(ss), dur.Seconds(), tailWindows, p)
	if err != nil {
		rep.problem("%s: %v: raise --seconds", name, err)
		return
	}
	rep.set(name, "ms", v, len(ss))
}

// loadBase sends the base graph and folds it into the first checkpoint.
func (s *session) loadBase() error {
	for i := range s.ledger.base {
		if err := s.write(&s.ledger.base[i]); err != nil {
			return fmt.Errorf("base load: %w", err)
		}
	}
	if _, err := s.b.do(http.MethodPost, "/checkpoint", nil); err != nil {
		return fmt.Errorf("first checkpoint: %w", err)
	}
	return nil
}

// laterWrites is how many ledger writes the time-boxed phases leave for
// the count-boxed ones that follow them.
const laterWrites = (compactRounds + 2) * roundWrites

// left is how many ledger writes have not been sent yet.
func (s *session) left() int { return len(s.ledger.writes) - s.next }

// writeNext sends the next ledger write.
func (s *session) writeNext() error {
	if s.left() == 0 {
		return fmt.Errorf("ledger exhausted after %d writes", s.next)
	}
	err := s.write(&s.ledger.writes[s.next])
	s.next++
	return err
}

// writeClosed sends n ledger writes back to back on A.
func (s *session) writeClosed(start time.Time, n int) []sample {
	return closedLoop(start, func(i int) bool { return i < n }, func(int) error { return s.writeNext() })
}

// traffic is what one time-boxed phase measured.
type traffic struct {
	ingests, retracts, reads []sample
	dur                      time.Duration
}

func (t traffic) writes() []sample { return append(append([]sample(nil), t.ingests...), t.retracts...) }
func (t traffic) all() []sample    { return append(t.writes(), t.reads...) }

// drive runs one time-boxed phase: writes on A, reads on B, each from a
// goroutine of its own for dur. A side that is not saturated follows
// its fixed open-loop schedule — the regime's write rate, readRate
// reads per second; a saturated side sends back to back. The open
// phase saturates neither; the two saturation phases saturate one side
// each, so the other side's load is the same known quantity every run.
func (s *session) drive(wl *workload, dur time.Duration, satWrites, satReads bool) traffic {
	wGap := time.Duration(float64(time.Second) / wl.writeRate)
	rGap := time.Duration(float64(time.Second) / readRate)
	start := time.Now().Add(10 * time.Millisecond)
	running := func(int) bool { return time.Since(start) < dur }
	first := s.next

	out := traffic{dur: dur}
	var ws []sample
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if satWrites {
			ws = closedLoop(start, func(i int) bool { return running(i) && s.left() > laterWrites },
				func(int) error { return s.writeNext() })
			return
		}
		n := min(int(dur.Seconds()*wl.writeRate), s.left()-laterWrites)
		ws = openLoop(start, max(n, 0), wGap, func(int) error { return s.writeNext() })
	}()
	go func() {
		defer wg.Done()
		if satReads {
			out.reads = closedLoop(start, running, s.read)
			return
		}
		// Reads are due half a period off the writes, so the two
		// schedules do not fire in the same instant by construction.
		out.reads = openLoop(start.Add(rGap/2), int(dur.Seconds()*readRate), rGap, s.read)
	}()
	wg.Wait()
	for i, smp := range ws {
		if s.ledger.writes[first+i].kind == churnRetract {
			out.retracts = append(out.retracts, smp)
		} else {
			out.ingests = append(out.ingests, smp)
		}
	}
	return out
}

// saturate runs the two saturation phases, one side at a time, and
// books the rate each side reached.
func (v *serving) saturate(each time.Duration) {
	rep := v.rep
	for _, side := range []struct {
		metric, unit string
		writes       bool
	}{{"ingest_sat_per_s", "acks/s", true}, {"read_sat_per_s", "reads/s", false}} {
		tr := v.s.drive(v.cfg.wl, each, side.writes, !side.writes)
		all := tr.all()
		rep.ops(len(all), countFailed(all))
		if err := firstError(all); err != nil {
			fmt.Fprintln(os.Stderr, "bench: sat phase: first failure:", err)
		}
		saturated := tr.reads
		if side.writes {
			saturated = tr.writes()
		}
		// The rate is over the time the back-to-back loop actually ran:
		// its last request ends a little after time is up.
		var elapsed time.Duration
		for _, smp := range saturated {
			elapsed = max(elapsed, smp.done)
		}
		if elapsed > 0 {
			rep.set(side.metric, side.unit, float64(len(saturated)-countFailed(saturated))/elapsed.Seconds(), len(saturated))
		}
	}
	v.clock.mark("sat")
}

// reportOpen books an open phase's end-to-end metrics.
func reportOpen(wl *workload, rep *report, o traffic) {
	all := o.all()
	rep.ops(len(all), countFailed(all))
	if err := firstError(all); err != nil {
		fmt.Fprintln(os.Stderr, "bench: open phase: first failure:", err)
	}
	setPercentile(rep, "ingest_p50_ms", o.ingests, 0.50)
	setTail(rep, "ingest_p90_ms", o.ingests, o.dur, 0.90)
	setPercentile(rep, "retract_p50_ms", o.retracts, 0.50)
	setPercentile(rep, "read_p50_ms", o.reads, 0.50)
	setTail(rep, "read_p90_ms", o.reads, o.dur, 0.90)
	late := sortedCopy(latenessMs(all))
	lateP99, _ := percentile(late, 0.99)
	if lateP95, err := percentile(late, 0.95); err == nil {
		rep.set("gen.late_p95_ms", "ms", lateP95, len(all))
	}
	worst := sortedCopy(latenciesMs(all))
	rep.note("open phase: %.0fs, %d ingests and %d retracts at %g writes/s, %d reads at %g/s; slowest request %.1f ms; generator sent p99 %.3f ms after due",
		o.dur.Seconds(), len(o.ingests), len(o.retracts), wl.writeRate, len(o.reads), readRate, worst[len(worst)-1], lateP99)
}

// round is one POST /checkpoint, as offsets from the phase start.
type round struct {
	begin, end time.Duration
	err        error
}

// checkpoint issues one POST /checkpoint on B.
func (s *session) checkpoint(start time.Time) round {
	begin := time.Since(start)
	_, err := s.b.do(http.MethodPost, "/checkpoint", nil)
	return round{begin: begin, end: time.Since(start), err: err}
}

// compactPhase measures compaction rounds. It opens with a settling
// round — it folds whatever the earlier phases logged, so that every
// measured round folds the same amount — issued on B while A already
// writes the first roundWrites writes back to back. Then, `rounds`
// times: B issues a round with nothing else in flight, and A writes
// roundWrites more. So each measured round folds the roundWrites writes
// acknowledged since the round before it was issued, and no write
// follows the last one. It returns the settling round, the measured
// rounds, the write samples, and for each measured round how many
// bytes of new files it left in the data directory.
func (s *session) compactPhase(rounds int, dataDir string) (settle round, measured []round, ws []sample, wrote []float64) {
	start := time.Now()
	settled := make(chan round, 1)
	go func() { settled <- s.checkpoint(start) }()
	ws = s.writeClosed(start, roundWrites)
	settle = <-settled
	for r := 0; r < rounds; r++ {
		if r > 0 {
			ws = append(ws, s.writeClosed(start, roundWrites)...)
		}
		before := fileSizes(dataDir)
		measured = append(measured, s.checkpoint(start))
		wrote = append(wrote, float64(newBytes(before, fileSizes(dataDir))))
	}
	return settle, measured, ws, wrote
}

// duringRounds returns the samples that were in flight while some
// round was.
func duringRounds(ws []sample, rs []round) []sample {
	var out []sample
	for _, w := range ws {
		for _, r := range rs {
			if w.sent < r.end && w.done > r.begin {
				out = append(out, w)
				break
			}
		}
	}
	return out
}

// snapshot is what must survive a crash: the counts and the persisted
// schema, byte for byte.
type snapshot struct {
	stats  serverStats
	schema []byte
}

func (s *session) snapshot() (snapshot, error) {
	st, err := s.stats()
	if err != nil {
		return snapshot{}, err
	}
	sch, err := s.b.do(http.MethodGet, schemaJSONPath, nil)
	if err != nil {
		return snapshot{}, fmt.Errorf("GET %s: %w", schemaJSONPath, err)
	}
	return snapshot{stats: st, schema: sch}, nil
}

// snapshotMismatch is the recovery half of the correctness gate: ""
// when the restarted server's state equals the state before the kill.
func snapshotMismatch(before, after snapshot) string {
	if before.stats.Stats != after.stats.Stats {
		return fmt.Sprintf("counts changed across the crash: %+v before, %+v after", before.stats.Stats, after.stats.Stats)
	}
	if !bytes.Equal(before.schema, after.schema) {
		return fmt.Sprintf("schema changed across the crash: %d bytes before, %d after", len(before.schema), len(after.schema))
	}
	return ""
}

// pipelineReplay feeds ledger ops through the discovery pipeline alone
// — no service, no log, no snapshots. It parses the same bytes the
// server received and keeps the endpoint bookkeeping a serving process
// keeps: labels of every live node, dropped again on retraction. What
// it computes is the reference the server's published schema is
// compared with.
type pipelineReplay struct {
	opts     core.Options
	inc      *core.Incremental
	resolver *pg.Graph
}

func newPipelineReplay(seed int64) *pipelineReplay {
	p := &pipelineReplay{opts: core.Options{Seed: seed}, resolver: pg.NewGraph()}
	p.inc = core.NewIncremental(p.opts)
	p.resolver.AllowDanglingEdges(true)
	return p
}

func (p *pipelineReplay) apply(op *writeOp) error {
	g, err := pg.ReadJSONL(bytes.NewReader(op.body), true)
	if err != nil {
		return fmt.Errorf("pipeline replay: %s: %w", op.key, err)
	}
	if op.kind == churnRetract {
		p.inc.RetractBatch(&pg.Batch{Graph: g, Resolver: p.resolver})
		for _, nd := range g.Nodes() {
			p.resolver.RemoveNode(nd.ID)
		}
		return nil
	}
	for _, nd := range g.Nodes() {
		if p.resolver.Node(nd.ID) == nil {
			_ = p.resolver.PutNode(nd.ID, nd.Labels, nil) // absence was just checked
		}
	}
	p.inc.ProcessBatch(&pg.Batch{Graph: g, Resolver: p.resolver, Index: p.inc.Batches() + 1})
	return nil
}

func (p *pipelineReplay) applyAll(ops []writeOp) error {
	for i := range ops {
		if err := p.apply(&ops[i]); err != nil {
			return err
		}
	}
	return nil
}

// schemaJSON is what a service over this state would publish: a clone
// of the live schema with constraints finalized, in persisted form.
func (p *pipelineReplay) schemaJSON() ([]byte, error) {
	sch := p.inc.Schema().Clone()
	infer.Finalize(sch, p.opts.Infer)
	var buf bytes.Buffer
	if err := schema.WriteJSON(&buf, sch); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// referenceSchema replays the base load and the first n ledger writes
// and returns the schema the server must be publishing.
func referenceSchema(l *ledger, n int, seed int64) ([]byte, error) {
	p := newPipelineReplay(seed)
	if err := p.applyAll(l.base); err != nil {
		return nil, err
	}
	if err := p.applyAll(l.writes[:n]); err != nil {
		return nil, err
	}
	return p.schemaJSON()
}

// startLoaded starts server number n of this run on an empty data
// directory, loads the base and takes the first checkpoint.
func startLoaded(cfg *config, bin string, n int, l *ledger) (*session, string, error) {
	dataDir := filepath.Join(cfg.runDir, fmt.Sprintf("data-%d", n))
	logPath := filepath.Join(cfg.outDir, fmt.Sprintf("server-%s-seed%d.log", cfg.wl.name, cfg.seed))
	if n == 0 {
		os.Remove(logPath) // a log per run, not per checkout
	}
	srv, err := startServer(bin, dataDir, logPath, cfg.seed)
	if err != nil {
		return nil, "", err
	}
	s := newSession(srv, l)
	if err := s.loadBase(); err != nil {
		return nil, "", withLogTail(err, srv)
	}
	return s, dataDir, nil
}

func withLogTail(err error, srv *server) error {
	return fmt.Errorf("%w\n--- tail of %s ---\n%s", err, srv.logPath, srv.logTail(20))
}

// serving is one run's serving regime: the server under test, its data
// directory and the generator's session with it.
type serving struct {
	cfg     *config
	bin     string
	rep     *report
	clock   *phaseClock
	s       *session
	dataDir string
}

// setUp is everything before the first timed sample: generating the
// inputs, then starting a server on an empty directory, loading the
// base and taking the first checkpoint. The server part is run and
// timed several times over — a single sample is at the mercy of one
// slow fsync — and all but the last server are discarded; the inputs
// are the benchmark's own work, generated once, and their time is part
// of every sample. times is how often the server part is run.
func setUp(cfg *config, rep *report, clock *phaseClock, times int) (*serving, *inputs, error) {
	v := &serving{cfg: cfg, rep: rep, clock: clock}
	var err error
	if v.bin, err = buildServer(cfg.root, cfg.runDir); err != nil {
		return nil, nil, err
	}
	begin := time.Now()
	in := generateInputs(cfg.wl, cfg.seed)
	generate := time.Since(begin)
	var setups []float64
	for n := 0; n < times; n++ {
		if v.s != nil {
			v.close()
			os.RemoveAll(v.dataDir)
		}
		settleDisk()
		begin := time.Now()
		if v.s, v.dataDir, err = startLoaded(cfg, v.bin, n, in.ledger); err != nil {
			return nil, nil, err
		}
		setups = append(setups, (generate + time.Since(begin)).Seconds())
	}
	settleDisk()
	clock.mark("set-up")
	rep.set("setup_s", "s", median(setups), len(setups))
	rep.ops(len(setups)*(len(in.ledger.base)+1), 0)
	rep.note("set-up: %.3fs on median of %d (%.3fs generating inputs, once; then server start, %d base requests, first checkpoint); ledger sha256 %s",
		median(setups), len(setups), generate.Seconds(), len(in.ledger.base), in.ledger.sha)
	return v, in, nil
}

// close ends the session and kills the server.
func (v *serving) close() {
	v.s.close()
	v.s.srv.kill()
}

// open runs the open phase and books its latencies.
func (v *serving) open(dur time.Duration) error {
	reportOpen(v.cfg.wl, v.rep, v.s.drive(v.cfg.wl, dur, false, false))
	v.clock.mark("open")
	if err := v.s.checkCounts(v.rep, "after the open phase"); err != nil {
		return withLogTail(err, v.s.srv)
	}
	return nil
}

// compact runs the compaction rounds — one to settle, then the measured
// ones — and books how long a round takes and how much it writes.
func (v *serving) compact() {
	rep := v.rep
	settle, rounds, cws, wrote := v.s.compactPhase(compactRounds, v.dataDir)
	var roundSecs []float64
	for _, r := range append([]round{settle}, rounds...) {
		if r.err != nil {
			rep.ops(1, 1)
			fmt.Fprintln(os.Stderr, "bench: POST /checkpoint:", r.err)
			continue
		}
		rep.ops(1, 0)
	}
	for _, r := range rounds {
		roundSecs = append(roundSecs, (r.end - r.begin).Seconds())
	}
	rep.ops(len(cws), countFailed(cws))
	rep.set("compact_round_s", "s", median(roundSecs), len(roundSecs))
	// The mean, not the median: the rounds differ by design (the first
	// after a fold writes a longer run) and each one's bytes count.
	var total float64
	for _, b := range wrote {
		total += b
	}
	rep.set("checkpoint_mb_per_round", "MiB", total/float64(len(wrote))/(1<<20), len(wrote))
	during := duringRounds(cws, []round{settle})
	rep.set("http.ingest_during_compact_ms", "ms", median(latenciesMs(during)), len(during))
	rep.note("compact phase: settling round %.3fs with %d writes in flight beside it (median %.3f ms), then %d rounds %.3f s alone, each after %d writes",
		(settle.end - settle.begin).Seconds(), len(during), median(latenciesMs(during)), len(roundSecs), roundSecs, roundWrites)
	settleDisk()
	v.clock.mark("compact")
}

// crash writes exactly roundWrites acknowledged writes past the last
// checkpoint, records what must survive, kills the process and recovers
// its directory. The restart is repeated — nothing folds the log in
// between, so every start recovers the same state from the same files.
func (v *serving) crash() error {
	rep, s := v.rep, v.s
	kws := s.writeClosed(time.Now(), roundWrites)
	rep.ops(len(kws), countFailed(kws))
	before, err := s.snapshot()
	if err != nil {
		return withLogTail(err, s.srv)
	}
	if problem := countMismatch(s.ledger, s.next, before.stats); problem != "" {
		rep.problem("before the kill: %s", problem)
	}
	rss, err := s.srv.peakRSSMiB()
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", "MiB", rss, 1)
	rep.set("data_dir_mb", "MiB", float64(dirBytes(v.dataDir))/(1<<20), 1)
	rep.set("schema_json_mb", "MiB", float64(len(before.schema))/(1<<20), 1)
	var recoverSecs []float64
	for i := 0; i < recoveries; i++ {
		v.close()
		restart := time.Now()
		srv, err := startServer(v.bin, v.dataDir, s.srv.logPath, v.cfg.seed)
		if err != nil {
			return err
		}
		recoverSecs = append(recoverSecs, time.Since(restart).Seconds())
		sent := s.next
		s = newSession(srv, s.ledger)
		s.next = sent
		v.s = s
	}
	rep.set("recover_s", "s", median(recoverSecs), len(recoverSecs))
	rep.note("crash phase: %d writes past the last checkpoint, then %d restarts on the same directory: %.3f s", roundWrites, recoveries, recoverSecs)
	rep.ops(recoveries, 0)
	after, err := s.snapshot()
	if err != nil {
		return withLogTail(err, s.srv)
	}
	if problem := snapshotMismatch(before, after); problem != "" {
		rep.problem("process-crash durability (kill -9 keeps the OS cache): %s", problem)
	}
	rep.set("admission.rejected", "count", float64(after.stats.Admission.Rejected), 1)
	v.clock.mark("crash")
	rep.note("serve regime %s: %d ledger writes sent; every response, the ledger's counts and crash recovery checked", v.cfg.wl.serveRegime, s.next)
	return nil
}

// endToEndRun is the untraced run: set-up, the discovery regime, then
// the serving regime's phases against a real server, with the
// correctness gate between and after them.
func endToEndRun(cfg *config, rep *report) error {
	clock := newPhaseClock()
	defer func() { rep.note("wall time by phase: %s", clock) }()
	v, in, err := setUp(cfg, rep, clock, setups)
	if err != nil {
		return err
	}
	defer func() { v.close() }()
	if err := discoverPhase(cfg, in, rep, cfg.budget(cfg.wl.discoverShare)); err != nil {
		return err
	}
	// The generator should not carry, and collect around, a graph it no
	// longer needs while it times requests.
	in.disc = nil
	runtime.GC()
	clock.mark("discover")
	if err := v.open(cfg.budget(cfg.wl.openShare)); err != nil {
		return err
	}
	v.compact()
	return v.crash()
}
