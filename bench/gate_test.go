package main

import (
	"os"
	"path/filepath"
	"testing"
)

// quiet runs fn with standard output and error discarded: finish
// prints the table and the problems.
func quiet(t *testing.T, fn func()) {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = null, null
	defer func() { os.Stdout, os.Stderr = stdout, stderr }()
	fn()
}

func finishCode(t *testing.T, rep *report) int {
	t.Helper()
	for _, d := range endToEnd {
		rep.set(d.name, d.unit, 1, 1)
	}
	rep.ops(10, 0)
	var code int
	quiet(t, func() { code = rep.finish(endToEnd) })
	return code
}

func TestGateBitesOnALedgerCountMismatch(t *testing.T) {
	l := testLedger(5)
	const sent = 40
	var st serverStats
	st.Stats.Nodes, st.Stats.Edges = l.counts(sent)
	st.Stats.Batches = len(l.base)
	for _, op := range l.writes[:sent] {
		if op.kind != churnRetract {
			st.Stats.Batches++
		}
	}
	if problem := countMismatch(l, sent, st); problem != "" {
		t.Fatalf("matching counts reported as a mismatch: %s", problem)
	}
	rep := newReport()
	if code := finishCode(t, rep); code != 0 {
		t.Fatalf("a clean report finished with code %d: %v", code, rep.problems)
	}

	st.Stats.Nodes-- // the server lost a node
	problem := countMismatch(l, sent, st)
	if problem == "" {
		t.Fatal("a lost node was not noticed")
	}
	rep = newReport()
	rep.problem("after the sat phase: %s", problem)
	if code := finishCode(t, rep); code == 0 {
		t.Error("a count mismatch finished with code 0")
	}
}

func TestGateBitesOnAChangedSchemaHash(t *testing.T) {
	key := pinKey{"discover_test", 1}
	want := outcome{nodeF1: 0.9, edgeF1: 0.8, nodeTypes: 7, edgeTypes: 17, schemaSHA: "aa"}
	pinned[key] = want
	defer delete(pinned, key)
	cfg := &config{seed: 1, wl: &workload{discRegime: key.regime}}

	rep := newReport()
	checkDiscoverOutcome(cfg, rep, want)
	if len(rep.problems) != 0 {
		t.Fatalf("the pinned outcome itself was refused: %v", rep.problems)
	}
	changed := want
	changed.schemaSHA = "bb"
	checkDiscoverOutcome(cfg, rep, changed)
	if pinnedArch == "amd64" && len(rep.problems) != 1 {
		t.Fatalf("a changed schema hash raised %d problems, want 1", len(rep.problems))
	}
	if code := finishCode(t, rep); code == 0 {
		t.Error("a changed schema hash finished with code 0")
	}

	// The recovery half: the same bytes must come back after a crash.
	before := snapshot{schema: []byte(`{"a":1}`)}
	before.stats.Stats.Nodes = 3
	after := before
	if problem := snapshotMismatch(before, after); problem != "" {
		t.Errorf("identical snapshots reported as different: %s", problem)
	}
	after.schema = []byte(`{"a":2}`)
	if snapshotMismatch(before, after) == "" {
		t.Error("a schema that changed across the crash was not noticed")
	}
	after = before
	after.stats.Stats.Edges++
	if snapshotMismatch(before, after) == "" {
		t.Error("a count that changed across the crash was not noticed")
	}
}

func TestAFailedOperationFailsTheRun(t *testing.T) {
	rep := newReport()
	rep.ops(100, 1)
	if code := finishCode(t, rep); code == 0 {
		t.Error("a run with a failed operation finished with code 0")
	}
}

// BENCHMARK.json is what the driver reads; the program must print
// exactly the metrics it lists, for exactly the workloads it lists.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join(".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json lists workload %q, which the program does not have", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program prints %d", len(bf.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside [0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !sawSetup {
		t.Error("BENCHMARK.json lacks setup_s in s, lower is better")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
