// Serve demonstrates the concurrent schema service: a pghive.Service
// ingests a social-network dataset batch by batch on one goroutine
// while reader goroutines concurrently watch the published schema
// snapshot grow — lock-free, and never observing a half-merged state.
// Midway through the stream the service is checkpointed, a second
// service is restored from the checkpoint, fed the remaining batches,
// and shown to end bit-identical to the uninterrupted one. Run with:
//
//	go run ./examples/serve
package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/datagen"
)

const (
	scale   = 0.5
	seed    = 42
	batches = 12
	readers = 4
)

func main() {
	d := datagen.Generate(datagen.LDBC(), scale, seed)
	g := d.Graph
	fmt.Printf("dataset: %d nodes + %d edges\n\n", g.NumNodes(), g.NumEdges())
	parts := pghive.SplitBatches(g, batches, newRand())

	// One writer ingests; a pool of readers hammers the published
	// snapshot concurrently. Every snapshot a reader observes is
	// internally consistent — served types always have instances.
	svc := pghive.NewService(pghive.Options{Seed: seed})
	var reads atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := svc.Snapshot()
				for _, nt := range snap.Schema.NodeTypes {
					if nt.Instances == 0 {
						panic("reader observed a type with zero instances")
					}
				}
				_ = svc.PGSchema(pghive.Strict, "Live")
				reads.Add(1)
			}
		}()
	}

	var checkpoint bytes.Buffer
	fmt.Printf("%-6s %11s %11s %12s %9s\n", "batch", "node types", "edge types", "snapshot", "time")
	for i, b := range parts {
		bt := svc.Ingest(b.Graph)
		st := svc.Stats()
		fmt.Printf("%-6d %11d %11d %12d %9s\n",
			bt.Index, st.NodeTypes, st.EdgeTypes, st.Snapshot,
			bt.Timing.Discovery().Round(100*time.Microsecond))
		if i == batches/2-1 {
			// Mid-stream checkpoint: the full state (schema,
			// assignments, shape caches, endpoint bookkeeping) goes
			// into one JSON image.
			check(svc.WriteCheckpoint(&checkpoint))
			fmt.Printf("       --- checkpoint after batch %d (%d KiB) ---\n",
				bt.Index, checkpoint.Len()/1024)
		}
	}
	close(done)
	wg.Wait()
	fmt.Printf("\nreaders performed %d consistent snapshot reads during ingestion\n", reads.Load())

	// Crash-recovery: restore a second service from the checkpoint and
	// feed it the batches the first service processed afterwards.
	restored, err := pghive.RestoreService(pghive.Options{Seed: seed}, &checkpoint)
	check(err)
	for _, b := range parts[batches/2:] {
		restored.Ingest(b.Graph)
	}

	a, b := render(svc.Reader), render(restored.Reader)
	fmt.Printf("restored-from-checkpoint schema identical to uninterrupted run: %v\n", a == b)
	if a != b {
		os.Exit(1)
	}
	fmt.Printf("\n%s", svc.PGSchema(pghive.Strict, "SocialNetwork"))
}

// render fingerprints every serialization of the published schema.
func render(svc *pghive.Reader) string {
	return svc.PGSchema(pghive.Strict, "G") + svc.PGSchema(pghive.Loose, "G") +
		svc.XSD() + svc.DOT("G")
}

func newRand() *rand.Rand { return rand.New(rand.NewSource(seed + 21)) }

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}
