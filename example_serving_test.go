package pghive_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/datagen"
	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
)

// ExampleService ingests a social network batch by batch while four
// readers render the published snapshot concurrently, lock-free, and
// never see a half-merged state. Midway the service is checkpointed;
// a second service restored from the checkpoint and fed the remaining
// batches ends identical to the uninterrupted one.
func ExampleService() {
	d := datagen.Generate(datagen.LDBC(), 0.5, 42)
	parts := pghive.SplitBatches(d.Graph, 12, rand.New(rand.NewSource(63)))
	svc := pghive.NewService(pghive.Options{Seed: 42})

	var torn atomic.Bool
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
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
						torn.Store(true)
					}
				}
				_ = pghive.PGSchema(snap.Schema, pghive.Strict, "Live")
			}
		}()
	}

	var checkpoint bytes.Buffer
	fmt.Printf("%-6s %10s %10s %4s\n", "batch", "node types", "edge types", "lsn")
	for i, b := range parts {
		svc.Ingest(b.Graph)
		st := svc.Stats()
		fmt.Printf("%-6d %10d %10d %4d\n", b.Index, st.NodeTypes, st.EdgeTypes, st.LSN)
		if i == len(parts)/2-1 {
			check(svc.WriteCheckpoint(&checkpoint))
			fmt.Printf("checkpoint after batch %d: %d KiB\n", b.Index, checkpoint.Len()/1024)
		}
	}
	close(done)
	wg.Wait()
	fmt.Printf("every snapshot read was whole: %v\n", !torn.Load())

	restored, err := pghive.RestoreService(pghive.Options{Seed: 42}, &checkpoint)
	check(err)
	for _, b := range parts[len(parts)/2:] {
		restored.Ingest(b.Graph)
	}
	render := func(s *pghive.Schema) string {
		return pghive.PGSchema(s, pghive.Strict, "G") + pghive.PGSchema(s, pghive.Loose, "G") + pghive.XSD(s) + pghive.DOT(s, "G")
	}
	fmt.Printf("restored service renders identically to the uninterrupted one: %v\n",
		render(svc.Schema()) == render(restored.Schema()))
	// Output:
	// batch  node types edge types  lsn
	// 1               7         17    1
	// 2               7         17    2
	// 3               7         17    3
	// 4               7         17    4
	// 5               7         17    5
	// 6               7         17    6
	// checkpoint after batch 6: 30 KiB
	// 7               7         17    7
	// 8               7         17    8
	// 9               7         17    9
	// 10              7         17   10
	// 11              7         17   11
	// 12              7         17   12
	// every snapshot read was whole: true
	// restored service renders identically to the uninterrupted one: true
}

// ExampleOpenDurable logs every write ahead into a data directory,
// abandons the service as kill -9 would (no shutdown, no checkpoint),
// and recovers a bit-identical state from the directory alone. Each
// compaction then writes a delta run on top of the base image until the
// chain passes MaxRuns and folds into a fresh base, and a second crash
// recovers through base, runs and WAL tail.
func ExampleOpenDurable() {
	dir, err := os.MkdirTemp("", "pghive-durable-*")
	check(err)
	defer os.RemoveAll(dir)

	data := datagen.Generate(datagen.LDBC(), 0.4, 42)
	parts := pghive.SplitBatches(data.Graph, 10, rand.New(rand.NewSource(7)))
	opts := pghive.Options{Seed: 42}
	// Small segments and a 2-run chain, so rotation and a fold show
	// within a few batches.
	dopts := pghive.DurableOptions{SegmentBytes: 64 << 10, DisableAutoCompact: true, MaxRuns: 2}

	d1, err := pghive.OpenDurable(dir, opts, dopts)
	check(err)
	defer d1.Close() // only at the end: until then d1 is abandoned
	for _, b := range parts[:5] {
		check(durableIngest(d1, b.Graph))
	}
	preCrash := stateImage(d1)
	fmt.Printf("ingested %d batches, next LSN %d, %d sealed WAL segment(s); kill -9\n",
		d1.Stats().Batches, d1.DurableStats().WALNextLSN, d1.DurableStats().WALSealedSegments)

	d2, err := pghive.OpenDurable(dir, opts, dopts)
	check(err)
	defer d2.Close()
	fmt.Printf("recovered %d batches from the WAL, state bit-identical: %v\n",
		d2.Stats().Batches, bytes.Equal(preCrash, stateImage(d2)))

	for _, b := range parts[5:9] {
		check(durableIngest(d2, b.Graph))
		check(d2.Compact())
		ds := d2.DurableStats()
		if ds.Runs == 0 {
			fmt.Printf("gen %d: fold, base at LSN %d\n", ds.ManifestSeq, ds.BaseLSN)
		} else {
			fmt.Printf("gen %d: run chain %d (%d bytes), covers LSN %d\n", ds.ManifestSeq, ds.Runs, ds.RunBytes, ds.CheckpointLSN)
		}
	}
	check(durableIngest(d2, parts[9].Graph))
	preCrash = stateImage(d2)
	fmt.Println("ingested the last batch on top of the chain; kill -9")

	d3, err := pghive.OpenDurable(dir, opts, dopts)
	check(err)
	defer d3.Close()
	ds, st := d3.DurableStats(), d3.Stats()
	fmt.Printf("recovered gen %d: base LSN %d + %d run(s) + %d WAL record(s)\n",
		ds.ManifestSeq, ds.BaseLSN, ds.Runs, ds.WALNextLSN-1-ds.CheckpointLSN)
	fmt.Printf("%d batches, %d nodes, %d edges, %d node types, %d edge types\n",
		st.Batches, st.Nodes, st.Edges, st.NodeTypes, st.EdgeTypes)
	fmt.Printf("recovered state bit-identical to pre-crash state: %v\n", bytes.Equal(preCrash, stateImage(d3)))
	// Output:
	// ingested 5 batches, next LSN 6, 4 sealed WAL segment(s); kill -9
	// recovered 5 batches from the WAL, state bit-identical: true
	// gen 1: run chain 1 (30219 bytes), covers LSN 6
	// gen 2: run chain 2 (42912 bytes), covers LSN 7
	// gen 3: fold, base at LSN 8
	// gen 4: run chain 1 (13003 bytes), covers LSN 9
	// ingested the last batch on top of the chain; kill -9
	// recovered gen 4: base LSN 8 + 1 run(s) + 1 WAL record(s)
	// 10 batches, 1275 nodes, 4321 edges, 7 node types, 17 edge types
	// recovered state bit-identical to pre-crash state: true
}

// ExampleNewFollower ships a durable leader's sealed WAL segments and
// checkpoints into an object store, and two read-only followers
// bootstrap from the newest shipped generation and tail the log. A
// follower at LSN n is bit-identical to the leader at n; when the
// leader dies the followers keep serving what was shipped, and they
// catch up once a recovered leader ships again. The followers take one
// Bootstrap and then one TailOnce after each leader step — what Start's
// poll loop does on its own cadence — so every count printed is the
// same on every run. It all runs over in-memory filesystems;
// store.NewHTTP in place of store.NewDir is the deployed shape (pghive
// serve -ship-dir and -follow).
func ExampleNewFollower() {
	backend := store.NewDir(vfs.NewMemFS(), "/objects")
	leaderFS := vfs.NewMemFS()
	openLeader := func() *pghive.DurableService {
		leader, err := pghive.OpenDurable("leader-data", pghive.Options{Seed: 42}, pghive.DurableOptions{
			FS: leaderFS, DisableAutoCompact: true, SegmentBytes: 16 << 10, ShipTo: backend,
		})
		check(err)
		return leader
	}
	catchUp := func(f *pghive.Follower, target uint64) {
		check(f.TailOnce(context.Background()))
		if f.AppliedLSN() != target {
			panic(fmt.Sprintf("follower at LSN %d, want %d", f.AppliedLSN(), target))
		}
	}

	data := datagen.Generate(datagen.LDBC(), 0.3, 42)
	parts := pghive.SplitBatches(data.Graph, 12, rand.New(rand.NewSource(7)))
	leader := openLeader()
	defer leader.Close() // only at the end: until then it is abandoned
	for _, p := range parts[:6] {
		check(durableIngest(leader, p.Graph))
	}
	check(leader.Compact()) // seals, folds and ships one generation

	var followers []*pghive.Follower
	for i := 0; i < 2; i++ {
		f := pghive.NewFollower(pghive.Options{Seed: 42}, backend, pghive.FollowerOptions{})
		defer f.Close()
		check(f.Bootstrap(context.Background()))
		followers = append(followers, f)
	}
	target, want := leader.DurableStats().WALNextLSN-1, stateImage(leader)
	for i, f := range followers {
		catchUp(f, target)
		fmt.Printf("follower %d: bootstrapped from generation %d, bit-identical to the leader at LSN %d: %v\n",
			i, f.Lag(context.Background()).BootstrapGeneration, target, bytes.Equal(stateImage(f), want))
	}

	// Two batches ship; two more are acked and logged but not shipped
	// when the leader dies.
	for _, p := range parts[6:8] {
		check(durableIngest(leader, p.Graph))
	}
	check(leader.Compact())
	for _, p := range parts[8:10] {
		check(durableIngest(leader, p.Graph))
	}
	shipped := leader.DurableStats().ShippedLSN
	fmt.Printf("leader dies at LSN %d, shipped through %d\n", leader.DurableStats().WALNextLSN-1, shipped)
	for i, f := range followers {
		catchUp(f, shipped)
		fmt.Printf("follower %d: serving LSN %d\n", i, f.AppliedLSN())
	}

	recovered := openLeader()
	defer recovered.Close()
	for _, p := range parts[10:] {
		check(durableIngest(recovered, p.Graph))
	}
	check(recovered.Compact())
	target, want = recovered.DurableStats().WALNextLSN-1, stateImage(recovered)
	for i, f := range followers {
		catchUp(f, target)
		lag := f.Lag(context.Background())
		fmt.Printf("follower %d: caught up to LSN %d, bit-identical: %v (fetchFaults=%d, bootstrapFallbacks=%d)\n",
			i, lag.AppliedLSN, bytes.Equal(stateImage(f), want), lag.FetchFaults, lag.BootstrapFallbacks)
	}
	st := recovered.Stats()
	fmt.Printf("%d batches, %d nodes, %d edges, %d node types\n", st.Batches, st.Nodes, st.Edges, st.NodeTypes)
	// Output:
	// follower 0: bootstrapped from generation 1, bit-identical to the leader at LSN 6: true
	// follower 1: bootstrapped from generation 1, bit-identical to the leader at LSN 6: true
	// leader dies at LSN 10, shipped through 8
	// follower 0: serving LSN 8
	// follower 1: serving LSN 8
	// follower 0: caught up to LSN 12, bit-identical: true (fetchFaults=0, bootstrapFallbacks=0)
	// follower 1: caught up to LSN 12, bit-identical: true (fetchFaults=0, bootstrapFallbacks=0)
	// 12 batches, 954 nodes, 3236 edges, 7 node types
}
