package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/datagen"
	"github.com/pghive/pghive/internal/eval"
)

// inputs is everything a run feeds the program, generated from the
// seed and nothing else.
type inputs struct {
	disc   *datagen.Dataset // what the discovery regime discovers
	ledger *ledger          // what the serving regime is loaded with and sent
}

func generateDiscoverInput(wl *workload, seed int64) *datagen.Dataset {
	disc := datagen.Generate(datagen.LDBC(), wl.discScale, subSeed(seed, 10))
	if wl.propNoise > 0 || wl.labelAvail < 1 {
		disc = datagen.InjectNoise(disc, wl.propNoise, wl.labelAvail, subSeed(seed, 11))
	}
	return disc
}

func generateLedger(wl *workload, seed int64) *ledger {
	base := datagen.Generate(datagen.LDBC(), wl.baseScale, subSeed(seed, 12))
	return buildLedger(wl.serveRegime, base.Graph, wl.ledgerWrites, seed)
}

func generateInputs(wl *workload, seed int64) *inputs {
	return &inputs{disc: generateDiscoverInput(wl, seed), ledger: generateLedger(wl, seed)}
}

// discoverOptions is how the benchmark calls Discover: ELSH, every
// default, all cores.
func discoverOptions(seed int64) pghive.Options { return pghive.Options{Seed: seed} }

// outcome is what a discovery produced, reduced to what the gate
// compares: quality against ground truth, type counts, and a hash of
// the persisted schema.
type outcome struct {
	nodeF1, edgeF1       float64
	nodeTypes, edgeTypes int
	schemaSHA            string
}

func schemaSHA(s *pghive.Schema) (string, error) {
	var buf bytes.Buffer
	if err := pghive.WriteSchemaJSON(&buf, s); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// roundF1 drops the last bits of an F1: MajorityF1 sums per-type scores
// in map order, so its lowest bits differ between identical runs.
func roundF1(x float64) float64 { return math.Round(x*1e9) / 1e9 }

func outcomeOf(res *pghive.Result, d *datagen.Dataset) (outcome, error) {
	sha, err := schemaSHA(res.Schema)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		nodeF1:    roundF1(eval.MajorityF1(eval.NodeAssignments(res.NodeAssign), d.NodeTruth)),
		edgeF1:    roundF1(eval.MajorityF1(eval.EdgeAssignments(res.EdgeAssign), d.EdgeTruth)),
		nodeTypes: len(res.Schema.NodeTypes), edgeTypes: len(res.Schema.EdgeTypes),
		schemaSHA: sha,
	}, nil
}

// timedDiscover runs one-shot discovery repeatedly for about budget
// (and at least minReps times), collecting garbage between reps so one
// rep's heap is not charged to the next. It returns each rep's wall
// time in seconds, result timing and bytes allocated, and the last
// result.
func timedDiscover(g *pghive.Graph, opts pghive.Options, minReps int, budget time.Duration) (walls []float64, timings []pghive.Timing, allocs []float64, res *pghive.Result) {
	var m0, m1 runtime.MemStats
	begin := time.Now()
	for i := 0; ; i++ {
		if i >= minReps && time.Since(begin)+time.Duration(median(walls)*float64(time.Second)) > budget {
			break
		}
		res = nil
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t := time.Now()
		res = pghive.Discover(g, opts)
		walls = append(walls, time.Since(t).Seconds())
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc))
		timings = append(timings, res.Timing)
	}
	return walls, timings, allocs, res
}

// discoverPhase measures the discovery regime end to end and checks
// its output.
func discoverPhase(cfg *config, in *inputs, rep *report, budget time.Duration) error {
	g := in.disc.Graph
	elems := g.NumNodes() + g.NumEdges()
	walls, timings, allocs, res := timedDiscover(g, discoverOptions(cfg.seed), cfg.wl.minReps, budget)
	got, err := outcomeOf(res, in.disc)
	if err != nil {
		return err
	}
	rep.ops(len(walls), 0)
	med := median(walls)
	rep.set("discover_elems_per_s", "elem/s", float64(elems)/med, len(walls))
	rep.set("discover_alloc_mb", "MiB", median(allocs)/(1<<20), len(allocs))
	rep.set("node_f1", "f1", got.nodeF1, 1)
	rep.set("edge_f1", "f1", got.edgeF1, 1)
	checkDiscoverOutcome(cfg, rep, got)

	var extract []float64
	for _, tm := range timings {
		extract = append(extract, tm.Extract.Seconds())
	}
	rep.note("%s: %d elements, %d reps, median %.4fs (min %.4fs max %.4fs); %d node types, %d edge types; core.extract is %.0f%% of the wall",
		cfg.wl.discRegime, elems, len(walls), med, sortedCopy(walls)[0], sortedCopy(walls)[len(walls)-1],
		got.nodeTypes, got.edgeTypes, 100*median(extract)/med)
	return nil
}

// checkDiscoverOutcome is the discovery half of the correctness gate:
// the outcome must be sane for any seed and, for a pinned seed on the
// pinned architecture, exactly the pinned one.
func checkDiscoverOutcome(cfg *config, rep *report, got outcome) {
	if got.nodeTypes == 0 || got.edgeTypes == 0 || got.nodeF1 <= 0 || got.edgeF1 <= 0 {
		rep.problem("%s: degenerate discovery: %+v", cfg.wl.discRegime, got)
	}
	want, ok := pinned[pinKey{cfg.wl.discRegime, cfg.seed}]
	if !ok || runtime.GOARCH != pinnedArch {
		return
	}
	if got != want {
		rep.problem("%s seed %d: discovery output changed:\n  got  %+v\n  want %+v", cfg.wl.discRegime, cfg.seed, got, want)
	}
}

// printPins prints the current discovery outcome as a pins.go entry.
func printPins(cfg *config) int {
	disc := generateDiscoverInput(cfg.wl, cfg.seed)
	got, err := outcomeOf(pghive.Discover(disc.Graph, discoverOptions(cfg.seed)), disc)
	if err != nil {
		return die(err)
	}
	fmt.Printf("\t{%q, %d}: {nodeF1: %v, edgeF1: %v, nodeTypes: %d, edgeTypes: %d,\n\t\tschemaSHA: %q},\n",
		cfg.wl.discRegime, cfg.seed, got.nodeF1, got.edgeF1, got.nodeTypes, got.edgeTypes, got.schemaSHA)
	return 0
}
