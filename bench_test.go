// bench_test.go holds only the paper's evaluation (§5): one benchmark
// per table and figure, plus ablations of the discovery-core design
// choices (§4; ARCHITECTURE.md, "Discovery core"). Benchmarks run the
// same harness as cmd/experiments at a reduced scale so `go test
// -bench=. -benchmem` finishes on a laptop; raise benchScale for
// full-size runs. The system's end-to-end and per-layer performance is
// measured by bench/ (`bash bench/run.sh`, metrics declared in
// BENCHMARK.json).
//
// Quality metrics (F1*) are attached to the benchmark output via
// b.ReportMetric, so a single run documents both cost and accuracy.
package pghive_test

import (
	"math/rand"
	"testing"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/baselines/gmm"
	"github.com/pghive/pghive/internal/baselines/schemi"
	"github.com/pghive/pghive/internal/core"
	"github.com/pghive/pghive/internal/datagen"
	"github.com/pghive/pghive/internal/eval"
	"github.com/pghive/pghive/internal/experiments"
)

// benchScale shrinks the synthetic datasets for benchmarking (1.0 =
// the Table 2 ÷ 200 defaults).
const benchScale = 0.25

func benchCfg(datasets ...string) experiments.Config {
	return experiments.Config{Scale: benchScale, Seed: 1, Datasets: datasets}
}

// BenchmarkTable2DatasetGeneration regenerates all eight datasets —
// Table 2's content — per iteration.
func BenchmarkTable2DatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(benchCfg())
		if len(rows) != 8 {
			b.Fatal("expected 8 dataset rows")
		}
	}
}

// BenchmarkFig3Significance runs the 100%-label method comparison and
// the Nemenyi rank analysis (Fig. 3) on two contrasting datasets.
func BenchmarkFig3Significance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := experiments.Grid(benchCfg("POLE", "MB6"))
		r := experiments.Fig3(cells)
		b.ReportMetric(r.NodeRanks[experiments.MElsh], "elsh-node-rank")
		b.ReportMetric(r.NodeRanks[experiments.MGMM], "gmm-node-rank")
	}
}

// BenchmarkFig4Accuracy runs the accuracy grid (F1* across noise and
// label availability, Fig. 4) for one dataset per iteration.
func BenchmarkFig4Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := experiments.Grid(benchCfg("LDBC"))
		s := experiments.Summarize(cells)
		b.ReportMetric(s.MaxNodeGain, "max-node-gain")
	}
}

// BenchmarkFig5Efficiency measures time-until-type-discovery (Fig. 5)
// per dataset and method; the benchmark time itself is the figure's
// metric.
func BenchmarkFig5Efficiency(b *testing.B) {
	for _, name := range []string{"POLE", "MB6", "HET.IO", "FIB25", "ICIJ", "CORD19", "LDBC", "IYP"} {
		d := datagen.Generate(datagen.ByName(name), benchScale, 1)
		b.Run(name+"/PG-HIVE-ELSH", func(b *testing.B) {
			f1 := 0.0
			for i := 0; i < b.N; i++ {
				res := pghive.Discover(d.Graph, pghive.Options{Seed: 1})
				f1 = eval.MajorityF1(eval.NodeAssignments(res.NodeAssign), d.NodeTruth)
			}
			b.ReportMetric(f1, "nodeF1")
		})
		b.Run(name+"/PG-HIVE-MinHash", func(b *testing.B) {
			f1 := 0.0
			for i := 0; i < b.N; i++ {
				res := pghive.Discover(d.Graph, pghive.Options{Method: pghive.MinHash, Seed: 1})
				f1 = eval.MajorityF1(eval.NodeAssignments(res.NodeAssign), d.NodeTruth)
			}
			b.ReportMetric(f1, "nodeF1")
		})
		b.Run(name+"/GMM", func(b *testing.B) {
			f1 := 0.0
			for i := 0; i < b.N; i++ {
				res, err := gmm.Discover(d.Graph, gmm.Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				f1 = eval.MajorityF1(eval.NodeAssignments(res.NodeAssign), d.NodeTruth)
			}
			b.ReportMetric(f1, "nodeF1")
		})
		b.Run(name+"/SchemI", func(b *testing.B) {
			f1 := 0.0
			for i := 0; i < b.N; i++ {
				res, err := schemi.Discover(d.Graph)
				if err != nil {
					b.Fatal(err)
				}
				f1 = eval.MajorityF1(eval.NodeAssignments(res.NodeAssign), d.NodeTruth)
			}
			b.ReportMetric(f1, "nodeF1")
		})
	}
}

// BenchmarkFig6AdaptiveParams sweeps the (T, b) grid around the
// adaptive choice (Fig. 6).
func BenchmarkFig6AdaptiveParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := experiments.Fig6(benchCfg("POLE"))
		b.ReportMetric(results[0].AdaptiveNodeF1, "adaptive-nodeF1")
	}
}

// BenchmarkFig7Incremental processes a dataset in 10 random batches
// (Fig. 7).
func BenchmarkFig7Incremental(b *testing.B) {
	for _, name := range []string{"POLE", "LDBC"} {
		d := datagen.Generate(datagen.ByName(name), benchScale, 1)
		b.Run(name, func(b *testing.B) {
			f1 := 0.0
			for i := 0; i < b.N; i++ {
				inc := pghive.NewIncremental(pghive.Options{Seed: 1})
				for _, batch := range pghive.SplitBatches(d.Graph, experiments.Fig7Batches, rand.New(rand.NewSource(21))) {
					inc.ProcessBatch(batch)
				}
				res := inc.Finalize()
				f1 = eval.MajorityF1(eval.NodeAssignments(res.NodeAssign), d.NodeTruth)
			}
			b.ReportMetric(f1, "nodeF1")
		})
	}
}

// BenchmarkFig8SamplingError measures the datatype sampling-error
// distribution (Fig. 8).
func BenchmarkFig8SamplingError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig8(benchCfg("ICIJ"))
		b.ReportMetric(rows[0].Bins[0], "lowest-bin-share")
	}
}

// BenchmarkAblationHybridVectors contrasts the hybrid representation
// (label embedding ⊕ property bits, §4.1) against property-bits-only
// vectors (LabelWeight → 0) under heavy noise. The paper's argument:
// without the label block, semantically different but structurally
// similar types merge.
func BenchmarkAblationHybridVectors(b *testing.B) {
	base := datagen.Generate(datagen.HETIO(), benchScale*2, 1)
	d := datagen.InjectNoise(base, 0.4, 1, 7)
	for _, cfg := range []struct {
		name   string
		weight float64
	}{
		{"hybrid", 3},
		{"props-only", 0.001},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			f1 := 0.0
			for i := 0; i < b.N; i++ {
				res := pghive.Discover(d.Graph, pghive.Options{Seed: 1, LabelWeight: cfg.weight})
				f1 = eval.MajorityF1(eval.NodeAssignments(res.NodeAssign), d.NodeTruth)
			}
			b.ReportMetric(f1, "nodeF1")
		})
	}
}

// BenchmarkAblationMergeStep contrasts full Algorithm 2 merging with
// raw LSH clusters (§4.3 credits the refinement to the merge step).
func BenchmarkAblationMergeStep(b *testing.B) {
	base := datagen.Generate(datagen.ICIJ(), benchScale*2, 1)
	d := datagen.InjectNoise(base, 0.3, 1, 7)
	for _, cfg := range []struct {
		name    string
		disable bool
	}{
		{"with-merge", false},
		{"no-merge", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			types := 0.0
			for i := 0; i < b.N; i++ {
				res := pghive.Discover(d.Graph, core.Options{Seed: 1, DisableMerging: cfg.disable})
				types = float64(len(res.Schema.NodeTypes))
			}
			b.ReportMetric(types, "node-types")
		})
	}
}

// BenchmarkAblationTheta sweeps the Jaccard merge threshold θ (§4.3:
// lowering θ increases recall but mixes types).
func BenchmarkAblationTheta(b *testing.B) {
	base := datagen.Generate(datagen.CORD19(), benchScale*2, 1)
	d := datagen.InjectNoise(base, 0.3, 0.5, 7)
	for _, theta := range []float64{0.5, 0.7, 0.9, 1.0} {
		theta := theta
		b.Run(formatTheta(theta), func(b *testing.B) {
			f1 := 0.0
			for i := 0; i < b.N; i++ {
				res := pghive.Discover(d.Graph, pghive.Options{Seed: 1, Theta: theta})
				f1 = eval.MajorityF1(eval.NodeAssignments(res.NodeAssign), d.NodeTruth)
			}
			b.ReportMetric(f1, "nodeF1")
		})
	}
}

// BenchmarkAblationSampledDataTypes contrasts full-scan and sampled
// datatype inference cost (§4.4's performance flag; Fig. 8 covers its
// accuracy).
func BenchmarkAblationSampledDataTypes(b *testing.B) {
	d := datagen.Generate(datagen.IYP(), benchScale*2, 1)
	for _, cfg := range []struct {
		name   string
		sample bool
	}{
		{"full-scan", false},
		{"sampled", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := pghive.Options{Seed: 1}
				opts.Infer.SampleDataTypes = cfg.sample
				pghive.Discover(d.Graph, opts)
			}
		})
	}
}

func formatTheta(t float64) string {
	switch t {
	case 0.5:
		return "theta-0.5"
	case 0.7:
		return "theta-0.7"
	case 0.9:
		return "theta-0.9"
	default:
		return "theta-1.0"
	}
}
