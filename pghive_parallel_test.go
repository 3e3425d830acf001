// pghive_parallel_test.go proves the Parallelism contract: for a
// fixed seed, the discovered schema is byte-identical no matter how
// many workers the pipeline uses, in both static and incremental
// mode, for both clustering methods. Run with -race to also verify
// the sharding is free of data races.
package pghive_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/datagen"
)

// parallelisms returns the worker counts the equivalence tests
// compare against the sequential baseline: 2 and 4 exercise real
// sharding even on one core, NumCPU is the default production value.
func parallelisms() []int {
	ps := []int{2, 4}
	if n := runtime.NumCPU(); n > 4 {
		ps = append(ps, n)
	}
	return ps
}

// snapshot renders everything schema-shaped a run produces, so a
// comparison catches divergence in types, constraints, data types,
// cardinalities, and cluster counts alike.
func snapshot(res *pghive.Result) string {
	return fmt.Sprintf("%s\n%s\nclusters=%d/%d types=%d/%d assigned=%d/%d",
		pghive.PGSchema(res.Schema, pghive.Strict, "G"),
		pghive.XSD(res.Schema),
		res.NodeClusters, res.EdgeClusters,
		len(res.Schema.NodeTypes), len(res.Schema.EdgeTypes),
		res.NodeAssign.Len(), res.EdgeAssign.Len())
}

// TestDiscoverParallelDeterminism: fixed-seed Discover with
// Parallelism 1 and Parallelism N produces byte-identical schemas on
// noisy workloads, for both ELSH and MinHash.
func TestDiscoverParallelDeterminism(t *testing.T) {
	for _, ds := range []string{"POLE", "LDBC", "ICIJ"} {
		base := datagen.Generate(datagen.ByName(ds), 0.25, 1)
		noisy := datagen.InjectNoise(base, 0.2, 0.7, 7)
		for _, method := range []pghive.Method{pghive.ELSH, pghive.MinHash} {
			opts := pghive.Options{Seed: 1, Method: method, Parallelism: 1}
			want := snapshot(pghive.Discover(noisy.Graph, opts))
			for _, p := range parallelisms() {
				opts.Parallelism = p
				got := snapshot(pghive.Discover(noisy.Graph, opts))
				if got != want {
					t.Errorf("%s/%v: parallelism %d diverged from sequential run", ds, method, p)
				}
			}
		}
	}
}

// TestIncrementalParallelDeterminism repeats the equivalence check
// for the streaming pipeline: the same 6-batch split processed with
// different worker counts must evolve the exact same schema.
func TestIncrementalParallelDeterminism(t *testing.T) {
	base := datagen.Generate(datagen.ByName("LDBC"), 0.25, 1)
	noisy := datagen.InjectNoise(base, 0.2, 0.7, 7)
	run := func(p int) string {
		inc := pghive.NewIncremental(pghive.Options{Seed: 1, Parallelism: p})
		for _, batch := range pghive.SplitBatches(noisy.Graph, 6, rand.New(rand.NewSource(21))) {
			inc.ProcessBatch(batch)
		}
		return snapshot(inc.Finalize())
	}
	want := run(1)
	for _, p := range parallelisms() {
		if got := run(p); got != want {
			t.Errorf("incremental: parallelism %d diverged from sequential run", p)
		}
	}
}

// TestDefaultParallelismMatchesSequential pins the Options zero value
// (Parallelism 0 → NumCPU) to the sequential result: users who never
// touch the knob get parallel execution with sequential semantics.
func TestDefaultParallelismMatchesSequential(t *testing.T) {
	d := datagen.Generate(datagen.ByName("POLE"), 0.5, 1)
	want := snapshot(pghive.Discover(d.Graph, pghive.Options{Seed: 1, Parallelism: 1}))
	got := snapshot(pghive.Discover(d.Graph, pghive.Options{Seed: 1}))
	if got != want {
		t.Fatal("default parallelism diverged from sequential run")
	}
}
