package pghive_test

// Checkpoint round-trip property tests: a streamed discovery that is
// repeatedly killed — checkpointed after every k-th batch, thrown
// away, and restored into a fresh Incremental over only the remaining
// input — must end with a schema and per-element assignments
// bit-identical to an uninterrupted run. The crash simulation is
// total: the Incremental, the stream reader, and its resolver
// bookkeeping are all discarded; only the checkpoint bytes survive.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/datagen"
)

// skipLines returns data with the first n newline-terminated lines
// removed — the "remaining input" after a crash that had consumed n
// JSONL elements (WriteJSONL emits exactly one element per line).
func skipLines(data []byte, n int) []byte {
	off := 0
	for i := 0; i < n; i++ {
		j := bytes.IndexByte(data[off:], '\n')
		if j < 0 {
			return nil
		}
		off += j + 1
	}
	return data[off:]
}

// checkpointedStreamRun discovers the JSONL data in batches of bs
// elements, simulating a crash + restore after every k-th batch.
func checkpointedStreamRun(t *testing.T, data []byte, opts pghive.Options, bs, k int) *pghive.Result {
	t.Helper()
	inc := pghive.NewIncremental(opts)
	stream := pghive.NewJSONLStream(bytes.NewReader(data), bs)
	consumed, batchNo := 0, 0
	for {
		b, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		consumed += b.Graph.NumNodes() + b.Graph.NumEdges()
		inc.ProcessBatch(b)
		batchNo++
		if batchNo%k != 0 {
			continue
		}

		// Crash: only these bytes survive.
		var ckpt bytes.Buffer
		if err := inc.WriteCheckpoint(&ckpt, &pghive.CheckpointExtras{Resolver: stream.Resolver()}); err != nil {
			t.Fatal(err)
		}
		img := ckpt.Bytes()

		// A checkpoint written immediately after restoring must be
		// byte-identical — the state image is closed under the round
		// trip (nothing silently dropped or reordered).
		inc2, extras, err := pghive.ResumeFromCheckpoint(opts, bytes.NewReader(img))
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		var resolver *pghive.LabelIndex
		if extras != nil {
			resolver, _ = extras.Resolver.(*pghive.LabelIndex)
		}
		if err := inc2.WriteCheckpoint(&again, &pghive.CheckpointExtras{Resolver: resolver}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, again.Bytes()) {
			t.Fatalf("bs=%d k=%d batch %d: checkpoint not closed under restore+rewrite", bs, k, batchNo)
		}

		// Restore: fresh pipeline, fresh stream over the remaining
		// lines, resolver bookkeeping re-seeded from the checkpoint.
		inc = inc2
		stream = pghive.NewJSONLStream(bytes.NewReader(skipLines(data, consumed)), bs)
		if resolver != nil {
			for id, labels := range resolver.All() {
				if err := stream.SeedResolver(id, labels); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return inc.Finalize()
}

// assertResultsIdentical compares two discovery results at every
// public granularity: serialized schema bytes, all four rendered
// formats, and per-element assignments.
func assertResultsIdentical(t *testing.T, name string, want, got *pghive.Result) {
	t.Helper()
	var wantJSON, gotJSON bytes.Buffer
	if err := pghive.WriteSchemaJSON(&wantJSON, want.Schema); err != nil {
		t.Fatal(err)
	}
	if err := pghive.WriteSchemaJSON(&gotJSON, got.Schema); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
		t.Errorf("%s: serialized schema differs from uninterrupted run", name)
		return
	}
	if schemaFingerprint(want.Schema) != schemaFingerprint(got.Schema) {
		t.Errorf("%s: rendered schema differs from uninterrupted run", name)
		return
	}
	if got.NodeAssign.Len() != want.NodeAssign.Len() || got.EdgeAssign.Len() != want.EdgeAssign.Len() {
		t.Errorf("%s: assignment counts differ: %d/%d vs %d/%d", name,
			got.NodeAssign.Len(), got.EdgeAssign.Len(), want.NodeAssign.Len(), want.EdgeAssign.Len())
		return
	}
	for id := range want.NodeAssign.All() {
		ty := want.NodeTypeOf(id)
		if g := got.NodeTypeOf(id); g == nil || g.Name() != ty.Name() || g.ID != ty.ID {
			t.Fatalf("%s: node %d assigned %v, want %s", name, id, g, ty.Name())
		}
	}
	for id := range want.EdgeAssign.All() {
		ty := want.EdgeTypeOf(id)
		if g := got.EdgeTypeOf(id); g == nil || g.Name() != ty.Name() || g.ID != ty.ID {
			t.Fatalf("%s: edge %d assigned %v, want %s", name, id, g, ty.Name())
		}
	}
	if got.NodeClusters != want.NodeClusters || got.EdgeClusters != want.EdgeClusters ||
		got.NodeShapes != want.NodeShapes || got.EdgeShapes != want.EdgeShapes {
		t.Errorf("%s: accumulated counters differ", name)
	}
}

// TestCheckpointRoundTripProperty is the §4.6 crash-recovery
// contract over the full configuration matrix: batch sizes {1, 7,
// 1000} × ELSH/MinHash, with a checkpoint-restore cycle after every
// k-th batch (k scaled so each run restores several times).
func TestCheckpointRoundTripProperty(t *testing.T) {
	d := datagen.Generate(datagen.LDBC(), 0.25, 42)
	var buf bytes.Buffer
	if err := pghive.WriteJSONL(&buf, d.Graph); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// k per batch size: small batches checkpoint every ~100 batches,
	// large ones after every batch, so every configuration restores
	// at least twice mid-stream.
	ks := map[int]int{1: 97, 7: 13, 1000: 1}

	for _, method := range []pghive.Method{pghive.ELSH, pghive.MinHash} {
		opts := pghive.Options{Seed: 7, Method: method}
		for _, bs := range []int{1, 7, 1000} {
			name := fmt.Sprintf("%v/bs=%d", method, bs)
			t.Run(name, func(t *testing.T) {
				// The uninterrupted baseline uses the same batch
				// size: the schema is batch-size-invariant, but the
				// accumulated per-batch counters are not.
				want, err := pghive.DiscoverStream(pghive.NewJSONLStream(bytes.NewReader(data), bs), opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				got := checkpointedStreamRun(t, data, opts, bs, ks[bs])
				assertResultsIdentical(t, name, want, got)
			})
		}
	}
}

// TestCheckpointResumeCSVStream covers the CSV resume path: the
// sequential edge-ID counter and the resolver bookkeeping both carry
// through a checkpoint taken between two relationship files, so the
// resumed run numbers — and types — the remaining edges identically.
func TestCheckpointResumeCSVStream(t *testing.T) {
	var people, knows1, knows2 strings.Builder
	people.WriteString("id:ID,:LABEL,name,age:int\n")
	knows1.WriteString(":START_ID,:END_ID,:TYPE,since:int\n")
	knows2.WriteString(":START_ID,:END_ID,:TYPE,weight:float\n")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&people, "%d,Person,p%d,%d\n", i, i, 20+i)
		fmt.Fprintf(&knows1, "%d,%d,KNOWS,%d\n", i, (i+1)%60, 2000+i)
		fmt.Fprintf(&knows2, "%d,%d,FOLLOWS,%d.5\n", i, (i+7)%60, i)
	}
	opts := pghive.Options{Seed: 3}

	// Uninterrupted run over all three sources.
	full := pghive.NewCSVStream(
		[]io.Reader{strings.NewReader(people.String())},
		[]io.Reader{strings.NewReader(knows1.String()), strings.NewReader(knows2.String())}, 30)
	want, err := pghive.DiscoverStream(full, opts, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: nodes + first relationship file, then a crash.
	inc := pghive.NewIncremental(opts)
	phase1 := pghive.NewCSVStream(
		[]io.Reader{strings.NewReader(people.String())},
		[]io.Reader{strings.NewReader(knows1.String())}, 30)
	if err := inc.DrainStream(phase1, nil); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	err = inc.WriteCheckpoint(&ckpt, &pghive.CheckpointExtras{
		Resolver:   phase1.Resolver(),
		NextEdgeID: phase1.NextEdgeID(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Restore and stream only the remaining relationship file.
	inc2, extras, err := pghive.ResumeFromCheckpoint(opts, &ckpt)
	if err != nil {
		t.Fatal(err)
	}
	phase2 := pghive.NewCSVStream(nil, []io.Reader{strings.NewReader(knows2.String())}, 30)
	phase2.SetNextEdgeID(extras.NextEdgeID)
	for id, labels := range extras.Resolver.(*pghive.LabelIndex).All() {
		if err := phase2.SeedResolver(id, labels); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc2.DrainStream(phase2, nil); err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "csv-resume", want, inc2.Finalize())
}

// TestCheckpointPreservesTypeIDCounterAfterRetract pins the type-ID
// gap left by retraction: after a type is retracted and compacted
// away, the live schema's ID counter sits past the hole, and a
// checkpoint restore must not close it — the next extracted type
// would otherwise reuse the compacted ID, and every later
// ABSTRACT_<id> name (and assignment map) would diverge from the
// uninterrupted run.
func TestCheckpointPreservesTypeIDCounterAfterRetract(t *testing.T) {
	mkGraph := func(label string, base pghive.ID) *pghive.Graph {
		g := pghive.NewGraph()
		for j := pghive.ID(0); j < 5; j++ {
			_ = g.PutNode(base+j, []string{label}, pghive.PropsOf(map[string]pghive.Value{"k": pghive.Int(int64(j))}))
		}
		return g
	}
	run := func(restart bool) *pghive.Service {
		svc := pghive.NewService(pghive.Options{Seed: 1})
		svc.Ingest(mkGraph("A", 0))
		b := mkGraph("B", 100)
		svc.Ingest(b)
		svc.Retract(b) // type B compacted away; its ID stays burned
		if restart {
			var ckpt bytes.Buffer
			if err := svc.WriteCheckpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			var err error
			if svc, err = pghive.RestoreService(pghive.Options{Seed: 1}, &ckpt); err != nil {
				t.Fatal(err)
			}
		}
		svc.Ingest(mkGraph("C", 200))
		return svc
	}
	stayUp, restarted := run(false), run(true)
	var wantIDs, gotIDs []int
	for _, nt := range stayUp.Schema().NodeTypes {
		wantIDs = append(wantIDs, nt.ID)
	}
	for _, nt := range restarted.Schema().NodeTypes {
		gotIDs = append(gotIDs, nt.ID)
	}
	if fmt.Sprint(wantIDs) != fmt.Sprint(gotIDs) {
		t.Errorf("type IDs after restart %v, want %v — the restore reused a retracted type's ID", gotIDs, wantIDs)
	}
}

// TestServiceCheckpointCarriesCSVState covers the serving analogue:
// Service.WriteCheckpoint persists the sequential edge-ID counter and
// the endpoint bookkeeping, and Service.DrainStream seeds a fresh CSV
// reader from both — so CSV relationship files ingested across a
// restart end identical to an uninterrupted service.
func TestServiceCheckpointCarriesCSVState(t *testing.T) {
	var people, knows1, knows2 strings.Builder
	people.WriteString("id:ID,:LABEL,name\n")
	knows1.WriteString(":START_ID,:END_ID,:TYPE,since:int\n")
	knows2.WriteString(":START_ID,:END_ID,:TYPE,weight:float\n")
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&people, "%d,Person,p%d\n", i, i)
		fmt.Fprintf(&knows1, "%d,%d,KNOWS,%d\n", i, (i+1)%30, 2000+i)
		fmt.Fprintf(&knows2, "%d,%d,FOLLOWS,%d.5\n", i, (i+7)%30, i)
	}
	opts := pghive.Options{Seed: 3}
	phase1 := func() pghive.StreamReader {
		return pghive.NewCSVStream(
			[]io.Reader{strings.NewReader(people.String())},
			[]io.Reader{strings.NewReader(knows1.String())}, 30)
	}
	phase2 := func() pghive.StreamReader {
		return pghive.NewCSVStream(nil, []io.Reader{strings.NewReader(knows2.String())}, 30)
	}

	// Uninterrupted service: both phases into one instance.
	stayUp := pghive.NewService(opts)
	if err := stayUp.DrainStream(context.Background(), phase1(), nil); err != nil {
		t.Fatal(err)
	}
	if err := stayUp.DrainStream(context.Background(), phase2(), nil); err != nil {
		t.Fatal(err)
	}

	// Restarted service: checkpoint between the phases.
	first := pghive.NewService(opts)
	if err := first.DrainStream(context.Background(), phase1(), nil); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := first.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	restored, err := pghive.RestoreService(opts, &ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.DrainStream(context.Background(), phase2(), nil); err != nil {
		t.Fatal(err)
	}

	a := schemaFingerprint(stayUp.Schema())
	b := schemaFingerprint(restored.Schema())
	if a != b {
		t.Error("restarted service schema differs from uninterrupted service")
	}
	sa, sb := stayUp.Stats(), restored.Stats()
	if sa.Nodes != sb.Nodes || sa.Edges != sb.Edges || sa.Batches != sb.Batches {
		t.Errorf("restarted service stats %d/%d/%d differ from uninterrupted %d/%d/%d",
			sb.Nodes, sb.Edges, sb.Batches, sa.Nodes, sa.Edges, sa.Batches)
	}
	// Both services checkpoint to identical bytes — edge-ID counter
	// and resolver content included.
	var ca, cb bytes.Buffer
	if err := stayUp.WriteCheckpoint(&ca); err != nil {
		t.Fatal(err)
	}
	if err := restored.WriteCheckpoint(&cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Error("final checkpoints of uninterrupted and restarted service differ")
	}
}

// blockingWriter stands for a client that stops reading: its first
// Write announces itself on started and then waits for release.
type blockingWriter struct {
	started, release chan struct{}
	buf              bytes.Buffer
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	if w.started != nil {
		close(w.started)
		w.started = nil
		<-w.release
	}
	return w.buf.Write(p)
}

// TestWriteCheckpointEncodesOffTheWriteLock: a checkpoint whose
// destination stalls does not stall writes. WriteCheckpoint captures
// the state under the write lock and encodes it after releasing the
// lock, so an Ingest completes while the image's first Write is
// blocked, and the image is the state as captured, without that
// ingest.
func TestWriteCheckpointEncodesOffTheWriteLock(t *testing.T) {
	mkGraph := func(label string, base pghive.ID) *pghive.Graph {
		g := pghive.NewGraph()
		for j := pghive.ID(0); j < 5; j++ {
			_ = g.PutNode(base+j, []string{label}, pghive.PropsOf(map[string]pghive.Value{"k": pghive.Int(int64(j))}))
		}
		return g
	}
	svc := pghive.NewService(pghive.Options{Seed: 1})
	svc.Ingest(mkGraph("A", 0))
	var want bytes.Buffer
	if err := svc.WriteCheckpoint(&want); err != nil {
		t.Fatal(err)
	}

	w := &blockingWriter{started: make(chan struct{}), release: make(chan struct{})}
	started := w.started
	done := make(chan error, 1)
	go func() { done <- svc.WriteCheckpoint(w) }()
	<-started
	ingested := make(chan struct{})
	go func() {
		svc.Ingest(mkGraph("B", 100))
		close(ingested)
	}()
	select {
	case <-ingested:
	case <-time.After(10 * time.Second):
		close(w.release)
		<-done
		t.Fatal("an Ingest waited on a checkpoint blocked in its destination's Write")
	}
	close(w.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.buf.Bytes(), want.Bytes()) {
		t.Fatal("the image written while an Ingest landed differs from the state it was captured at")
	}
	if got := len(svc.Schema().NodeTypes); got != 2 {
		t.Fatalf("after the ingest the schema has %d node types, want 2", got)
	}
}
