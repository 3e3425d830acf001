// Durable demonstrates the WAL-backed serving mode end to end: a
// DurableService write-ahead logs every mutation into a data
// directory, the process "dies" (kill -9 style — the instance is
// simply abandoned, no shutdown, no final checkpoint), and a fresh
// OpenDurable over the same directory recovers a state bit-identical
// to the moment of death. Compactions then fold the log incrementally
// — each round writes a small delta run on top of the base image,
// until the chain crosses -max-runs and collapses into a fresh base —
// and a second kill-and-recover proves the manifest-driven path
// (base + runs + WAL tail) too. Run with:
//
//	go run ./examples/durable
package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/datagen"
)

const (
	scale   = 0.4
	seed    = 42
	batches = 10
)

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "durable:", err)
		os.Exit(1)
	}
}

// stateImage serializes a service's full state; byte-equal images
// mean indistinguishable services.
func stateImage(d *pghive.DurableService) []byte {
	var buf bytes.Buffer
	check(d.WriteCheckpoint(&buf))
	return buf.Bytes()
}

func walFiles(dir string) int {
	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	return len(segs)
}

func main() {
	dir, err := os.MkdirTemp("", "pghive-durable-*")
	check(err)
	defer os.RemoveAll(dir)

	data := datagen.Generate(datagen.LDBC(), scale, seed)
	parts := pghive.SplitBatches(data.Graph, batches, rand.New(rand.NewSource(7)))
	opts := pghive.Options{Seed: seed}
	// Tiny segments so the walkthrough rotates visibly, and a 2-run
	// chain cap so a fold happens within a few compactions; production
	// uses the defaults (8 MiB segments, 1 min cadence, 6 runs).
	dopts := pghive.DurableOptions{SegmentBytes: 64 << 10, DisableAutoCompact: true, MaxRuns: 2}

	fmt.Printf("data dir: %s\n", dir)
	fmt.Printf("dataset: %d nodes + %d edges in %d batches\n\n", data.Graph.NumNodes(), data.Graph.NumEdges(), batches)

	// Phase 1: ingest the first half durably, then "crash". Every
	// batch was fsynced to the WAL before it was applied, so
	// abandoning the instance without any shutdown loses nothing —
	// exactly what kill -9 at an arbitrary instant leaves behind is
	// covered by the same recovery path (a torn trailing record is
	// truncated away on reopen).
	d1, err := pghive.OpenDurable(dir, opts, dopts)
	check(err)
	start := time.Now()
	for _, b := range parts[:batches/2] {
		_, _, err := d1.IngestIdempotent(context.Background(), "", b.Graph)
		check(err)
	}
	preCrash := stateImage(d1)
	st := d1.Stats()
	fmt.Printf("phase 1: ingested %d batches (%d nodes, %d edges, %d node types) in %v\n",
		st.Batches, st.Nodes, st.Edges, st.NodeTypes, time.Since(start).Round(time.Millisecond))
	fmt.Printf("         WAL: %d segment file(s), next LSN %d\n", walFiles(dir), d1.DurableStats().WALNextLSN)
	fmt.Printf("         --- kill -9 (no shutdown, no checkpoint) ---\n\n")
	// d1 is abandoned, not closed.

	// Phase 2: recover from the directory alone and compare states.
	d2, err := pghive.OpenDurable(dir, opts, dopts)
	check(err)
	recovered := stateImage(d2)
	fmt.Printf("phase 2: recovered %d batches from WAL replay\n", d2.Stats().Batches)
	fmt.Printf("         recovered state bit-identical to pre-crash state: %v\n\n", bytes.Equal(preCrash, recovered))

	// Phase 3: compact after each remaining batch. Each round writes a
	// delta run — bytes proportional to the batch, not the database —
	// until the chain crosses MaxRuns and folds into a fresh base.
	fmt.Printf("phase 3: one compaction per batch (runs accumulate, then fold at %d)\n", dopts.MaxRuns)
	for _, b := range parts[batches/2 : batches-1] {
		_, _, err := d2.IngestIdempotent(context.Background(), "", b.Graph)
		check(err)
		segsBefore := walFiles(dir)
		check(d2.Compact())
		ds := d2.DurableStats()
		kind := fmt.Sprintf("run   (chain %d, %5d run bytes)", ds.Runs, ds.RunBytes)
		if ds.Runs == 0 {
			kind = fmt.Sprintf("FOLD  (fresh base at LSN %d)", ds.BaseLSN)
		}
		fmt.Printf("         gen %d: %s  covers LSN %d, WAL segments %d -> %d\n",
			ds.ManifestSeq, kind, ds.CheckpointLSN, segsBefore, walFiles(dir))
	}
	fmt.Println()

	// Phase 4: one more batch after the last round, crash again, and
	// recover through manifest -> base image -> delta runs -> WAL tail.
	_, _, err = d2.IngestIdempotent(context.Background(), "", parts[batches-1].Graph)
	check(err)
	preCrash2 := stateImage(d2)
	fmt.Printf("phase 4: ingested final batch on top of the run chain\n")
	fmt.Printf("         --- kill -9 again ---\n\n")
	// d2 abandoned too.

	d3, err := pghive.OpenDurable(dir, opts, dopts)
	check(err)
	defer d3.Close()
	final := stateImage(d3)
	st = d3.Stats()
	ds := d3.DurableStats()
	fmt.Printf("phase 5: recovered gen %d (base LSN %d + %d run(s)) + %d-record WAL tail\n",
		ds.ManifestSeq, ds.BaseLSN, ds.Runs, ds.WALNextLSN-1-d3.CheckpointLSN())
	fmt.Printf("         final: %d batches, %d nodes, %d edges, %d node types + %d edge types\n",
		st.Batches, st.Nodes, st.Edges, st.NodeTypes, st.EdgeTypes)
	fmt.Printf("         recovered state bit-identical to pre-crash state: %v\n", bytes.Equal(preCrash2, final))

	if !bytes.Equal(preCrash, recovered) || !bytes.Equal(preCrash2, final) {
		fmt.Fprintln(os.Stderr, "durable: recovery diverged")
		os.Exit(1)
	}
}
