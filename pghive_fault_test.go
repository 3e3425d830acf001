package pghive_test

// Randomized fault-schedule property test: the durability contract
// under a hostile disk. Each schedule runs a fixed mutation script
// against a DurableService on an in-memory filesystem (vfs.MemFS)
// wrapped in a fault injector (vfs.InjectFS) that fails one or more
// chosen operations — a failed or lying fsync, a short write, a
// rename undone by power loss, a failed directory sync — then crashes
// the machine (optionally tearing the WAL tail) and recovers
// fault-free. The property: the recovered state is bit-identical
// (checkpoint-image equality) to a plain in-memory service that
// applied exactly the acknowledged mutations.
//
// The one tolerated ambiguity is inherent to write-ahead logging: an
// append whose fsync fails was reported as an error, but if the
// rollback of that append could not be made durable either, the
// record's frame may survive the crash — the disk persisted bytes
// while reporting failure. The WAL is honest about exactly this case:
// it marks itself broken (DurableStats.WALBroken) and refuses all
// later appends, so no acknowledged record can follow the
// indeterminate one. The oracle is therefore strict — recovery must
// equal image(acked) — unless the WAL reported broken, in which case
// image(acked + one trailing errored record) is also accepted. Every
// silent divergence — a lost acknowledged batch, a half-applied
// batch, a resurrected rolled-back record the log did not warn about
// — fails the test.
//
// Degradation rides on the same property. Schedules include ENOSPC
// faults, and every write may fail with either a DurabilityError (the
// WAL was touched and reported failure) or a ReadOnlyError (the
// service declared read-only mode and failed fast — the WAL was NOT
// touched, so the record can never resurrect and is never a tolerated
// tail variant). At the end of every schedule the service must be
// either fully healthy or in *declared* read-only mode: a broken WAL
// must be declared, a degraded service must still serve reads and
// fail probe writes fast, and recovery must always come back healthy.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"syscall"
	"testing"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/vfs"
)

const faultDataDir = "data"

// faultOp is one step of the mutation script.
type faultOp struct {
	id      string
	kind    int
	g       *pghive.Graph   // fIngest / fRetract
	data    []byte          // fStream: JSONL bytes
	bs      int             // fStream: batch size
	batches []*pghive.Graph // fStream: the batches the stream yields, in order
}

const (
	fIngest = iota
	fRetract
	fStream
	fCompact
)

// refRec is one WAL-record-sized reference step: an ingest (or
// drained stream batch, which replays identically) or a retraction.
type refRec struct {
	id      string
	retract bool
	g       *pghive.Graph
}

// buildFaultScript builds the script with fresh graphs (each shard
// gets its own copies so parallel shards never share a Graph).
func buildFaultScript(t testing.TB) []faultOp {
	g := func(base int) *pghive.Graph { return stressGraph(t, pghive.ID(base), 5) }
	g0, g1, g2, g3, g4 := g(0), g(1000), g(2000), g(3000), g(4000)
	var buf bytes.Buffer
	if err := pghive.WriteJSONL(&buf, g(5000)); err != nil {
		t.Fatal(err)
	}
	if err := pghive.WriteJSONL(&buf, g(6000)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	const bs = 7
	var batches []*pghive.Graph
	st := pghive.NewJSONLStream(bytes.NewReader(data), bs)
	for {
		b, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b.Graph)
	}
	return []faultOp{
		{id: "ing0", kind: fIngest, g: g0},
		{id: "ing1", kind: fIngest, g: g1},
		{id: "cmp0", kind: fCompact},
		{id: "ret0", kind: fRetract, g: g0},
		{id: "str0", kind: fStream, data: data, bs: bs, batches: batches},
		{id: "ing2", kind: fIngest, g: g2},
		{id: "cmp1", kind: fCompact},
		{id: "ret1", kind: fRetract, g: g1},
		{id: "ing3", kind: fIngest, g: g3},
		{id: "cmp2", kind: fCompact},
		{id: "ing4", kind: fIngest, g: g4},
	}
}

// faultSchedule is one randomized trial: the faults to inject and the
// crash circumstances.
type faultSchedule struct {
	seed     int64
	faults   []vfs.Fault
	cont     bool // keep running the script after an error
	closeLog bool // call Close before the crash
	torn     bool // append garbage to the WAL tail after the crash
}

func modeName(m vfs.Mode) string {
	switch m {
	case vfs.FailEarly:
		return "early"
	case vfs.FailLate:
		return "late"
	case vfs.ShortWrite:
		return "short"
	}
	return "?"
}

func (sc faultSchedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule(seed=%d cont=%v close=%v torn=%v", sc.seed, sc.cont, sc.closeLog, sc.torn)
	for _, f := range sc.faults {
		fmt.Fprintf(&b, " %v#%d/%s", f.Op, f.N, modeName(f.Mode))
		if f.Err == syscall.ENOSPC {
			b.WriteString("/enospc")
		}
	}
	b.WriteString(")")
	return b.String()
}

// genSchedule derives a schedule from a seed. probe holds per-kind
// operation counts of a fault-free run, so fault positions land on
// operations that actually happen (plus a margin of 2 to target ops
// that only exist in perturbed runs, like rollback syncs).
func genSchedule(seed int64, probe [8]int) faultSchedule {
	rng := rand.New(rand.NewSource(seed))
	sc := faultSchedule{
		seed:     seed,
		cont:     rng.Intn(2) == 0,
		closeLog: rng.Intn(2) == 0,
		torn:     rng.Intn(4) == 0,
	}
	kinds := []vfs.Op{vfs.OpOpen, vfs.OpWrite, vfs.OpSync, vfs.OpSyncDir, vfs.OpRename, vfs.OpRemove, vfs.AnyOp}
	pick := func() vfs.Fault {
		k := kinds[rng.Intn(len(kinds))]
		n := 1 + rng.Intn(probe[k]+2)
		var mode vfs.Mode
		if k == vfs.OpWrite || k == vfs.AnyOp {
			mode = []vfs.Mode{vfs.FailEarly, vfs.FailLate, vfs.ShortWrite}[rng.Intn(3)]
		} else {
			mode = []vfs.Mode{vfs.FailEarly, vfs.FailLate}[rng.Intn(2)]
		}
		f := vfs.Fault{Op: k, N: n, Mode: mode}
		// A third of the faults report a full disk, which the service
		// must answer with declared read-only mode, not a crash.
		if mode != vfs.ShortWrite && rng.Intn(3) == 0 {
			f.Err = syscall.ENOSPC
		}
		return f
	}
	if rng.Intn(8) == 0 {
		// The broken-log path: an append's sync fails (having possibly
		// persisted the frame) and the rollback's own sync fails too.
		n := 1 + rng.Intn(probe[vfs.OpSync]+1)
		sc.faults = []vfs.Fault{
			{Op: vfs.OpSync, N: n, Mode: vfs.FailLate},
			{Op: vfs.OpSync, N: n + 1, Mode: vfs.FailEarly},
		}
		return sc
	}
	sc.faults = append(sc.faults, pick())
	for rng.Intn(3) == 0 {
		sc.faults = append(sc.faults, pick())
	}
	return sc
}

// refImageFor replays the reference records on a plain in-memory
// Service and returns its state image, memoized by history signature.
func refImageFor(t *testing.T, opts pghive.Options, recs []refRec, cache map[string][]byte) []byte {
	t.Helper()
	var key strings.Builder
	for _, r := range recs {
		key.WriteString(r.id)
		key.WriteByte(';')
	}
	if img, ok := cache[key.String()]; ok {
		return img
	}
	svc := pghive.NewService(opts)
	for _, r := range recs {
		if r.retract {
			svc.Retract(r.g)
		} else {
			svc.Ingest(r.g)
		}
	}
	img := serviceImage(t, svc)
	cache[key.String()] = img
	return img
}

// requireDeclaredWriteError asserts a failed write used one of the two
// declared failure channels. It reports whether the failure was a
// read-only rejection — which by contract never touched the WAL, so
// the record can never resurrect after a crash.
func requireDeclaredWriteError(t *testing.T, sc faultSchedule, err error) (readOnly bool) {
	t.Helper()
	var de *pghive.DurabilityError
	if errors.As(err, &de) {
		return false
	}
	var re *pghive.ReadOnlyError
	if errors.As(err, &re) {
		return true
	}
	t.Fatalf("%v: mutation failed with undeclared error %T: %v", sc, err, err)
	return false
}

// appendTornTail writes garbage to the end of the last durable WAL
// segment — the torn frame a mid-write power loss leaves. 0xFF bytes
// decode as an implausible frame length, so recovery must stop the
// scan there and truncate.
func appendTornTail(t *testing.T, mem *vfs.MemFS, seed int64) {
	t.Helper()
	segs, err := mem.Glob(faultDataDir + "/wal/*.wal")
	if err != nil || len(segs) == 0 {
		return
	}
	f, err := mem.OpenFile(segs[len(segs)-1], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{0xFF}, 1+int(seed%43))); err != nil {
		t.Fatal(err)
	}
}

// runFaultSchedule executes one trial and checks the recovery oracle.
func runFaultSchedule(t *testing.T, opts pghive.Options, script []faultOp, sc faultSchedule, plan *vfs.Plan, cache map[string][]byte) {
	t.Helper()
	mem := vfs.NewMemFS()
	dopts := pghive.DurableOptions{
		FS:                 vfs.NewInjectFS(mem, plan),
		DisableAutoCompact: true,
		SegmentBytes:       768, // rotate every few records so pruning happens
		// A tight chain bound so the three compaction ops of the script
		// exercise run writes AND leveled folds: cmp0 writes a run on
		// the empty base, cmp1 folds (the retraction's tombstones cross
		// the ratio), cmp2 writes a run on the folded base. Faults land
		// between run write, manifest swap, and WAL prune.
		MaxRuns: 2,
	}
	d, err := pghive.OpenDurable(faultDataDir, opts, dopts)
	if err != nil {
		t.Fatalf("%v: initial open: %v", sc, err)
	}

	var applied []refRec
	var tail []refRec // errored records with no acknowledged record after them
	ack := func(r refRec) { applied = append(applied, r); tail = nil }

	for _, op := range script {
		var opErr error
		switch op.kind {
		case fCompact:
			// A failed compaction changes no logical state; recovery
			// must work from whatever files it left behind.
			opErr = d.Compact()
		case fIngest:
			if err := durableIngest(d, op.g); err != nil {
				if !requireDeclaredWriteError(t, sc, err) {
					tail = append(tail, refRec{id: op.id, g: op.g})
				}
				opErr = err
			} else {
				ack(refRec{id: op.id, g: op.g})
			}
		case fRetract:
			if err := durableRetract(d, op.g); err != nil {
				if !requireDeclaredWriteError(t, sc, err) {
					tail = append(tail, refRec{id: op.id, retract: true, g: op.g})
				}
				opErr = err
			} else {
				ack(refRec{id: op.id, retract: true, g: op.g})
			}
		case fStream:
			n := 0
			err := d.DrainStream(context.Background(), pghive.NewJSONLStream(bytes.NewReader(op.data), op.bs), func(pghive.BatchTiming) { n++ })
			for j := 0; j < n; j++ {
				ack(refRec{id: fmt.Sprintf("%s.%d", op.id, j), g: op.batches[j]})
			}
			if err != nil {
				if !requireDeclaredWriteError(t, sc, err) && n < len(op.batches) {
					tail = append(tail, refRec{id: fmt.Sprintf("%s.%d", op.id, n), g: op.batches[n]})
				}
				opErr = err
			}
		}
		if opErr != nil && !sc.cont {
			break
		}
	}

	// End-state property: the service is either fully healthy or in
	// DECLARED read-only mode. An undeclared broken WAL, a degraded
	// service that stops serving reads, or a degraded service that
	// admits a probe write all violate the robustness contract.
	stats := d.DurableStats()
	if stats.WALBroken && !stats.ReadOnly {
		t.Errorf("%v: WAL broken but service not declared read-only", sc)
	}
	if stats.ReadOnly {
		if stats.ReadOnlyReason == "" {
			t.Errorf("%v: read-only declared without a machine-readable reason", sc)
		}
		var re *pghive.ReadOnlyError
		if err := durableIngest(d, script[0].g); !errors.As(err, &re) {
			t.Errorf("%v: probe write in read-only mode returned %T (%v), want ReadOnlyError", sc, err, err)
		}
		if d.Snapshot() == nil {
			t.Errorf("%v: read-only service stopped serving reads", sc)
		}
	}

	// Unless the WAL declared itself broken — the one case where a
	// failed record's durability is indeterminate — every errored
	// record was rolled back durably and MUST NOT survive the crash.
	if !stats.WALBroken {
		tail = nil
	}

	if sc.closeLog {
		d.Close() // an injected sync fault may fail the close; crash anyway
	}
	mem.Crash()
	if sc.torn {
		appendTornTail(t, mem, sc.seed)
	}

	d2, err := pghive.OpenDurable(faultDataDir, opts, pghive.DurableOptions{FS: mem, DisableAutoCompact: true, SegmentBytes: 768, MaxRuns: 2})
	if err != nil {
		t.Fatalf("%v: recovery after crash failed: %v", sc, err)
	}
	if st2 := d2.DurableStats(); st2.WALBroken || st2.ReadOnly {
		t.Errorf("%v: recovery on a healthy disk must come back writable, got %+v", sc, st2)
	}
	got := serviceImage(t, d2)
	d2.Close()

	if bytes.Equal(got, refImageFor(t, opts, applied, cache)) {
		return
	}
	for _, e := range tail {
		variant := append(append([]refRec{}, applied...), e)
		if bytes.Equal(got, refImageFor(t, opts, variant, cache)) {
			return
		}
	}
	ids := make([]string, len(applied))
	for i, r := range applied {
		ids[i] = r.id
	}
	t.Errorf("%v: silent divergence: recovered state does not match the acked history [%s] (tolerated trailing variants: %d; fired: %v)",
		sc, strings.Join(ids, " "), len(tail), plan.Fired())
}

// TestFaultScheduleProperty runs the script across many randomized
// fault schedules. Sharded across parallel subtests; each shard owns
// its graphs and reference cache, so the test is -race clean.
func TestFaultScheduleProperty(t *testing.T) {
	opts := pghive.Options{Seed: 7, Parallelism: 1}
	total := 1200
	if testing.Short() {
		total = 160
	}

	// Probe: a fault-free run both counts operations per kind (so
	// schedules target real positions) and proves the oracle itself —
	// recovery with no faults must match the fully-acked reference.
	script := buildFaultScript(t)
	probePlan := vfs.NewPlan()
	runFaultSchedule(t, opts, script, faultSchedule{closeLog: true}, probePlan, map[string][]byte{})
	if t.Failed() {
		t.Fatal("fault-free probe run diverged; aborting schedules")
	}
	probe := probePlan.Ops()
	if probe[vfs.OpSync] == 0 || probe[vfs.OpWrite] == 0 || probe[vfs.OpRename] == 0 {
		t.Fatalf("probe saw no sync/write/rename operations: %v — injector not wired through the stack", probe)
	}

	const shards = 8
	for s := 0; s < shards; s++ {
		s := s
		t.Run(fmt.Sprintf("shard%02d", s), func(t *testing.T) {
			t.Parallel()
			script := buildFaultScript(t)
			cache := map[string][]byte{}
			for i := s; i < total; i += shards {
				sc := genSchedule(0x5EED0+int64(i), probe)
				runFaultSchedule(t, opts, script, sc, vfs.NewPlan(sc.faults...), cache)
			}
		})
	}
}
