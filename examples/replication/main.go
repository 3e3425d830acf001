// Replication demonstrates the WAL-shipping topology end to end: a
// durable leader ships sealed WAL segments and checkpoint generations
// into an object store, two read-only followers bootstrap from the
// newest shipped generation and tail the stream, and the program proves the operator-facing contract at
// every step — followers converge to states bit-identical to the
// leader's (and, having no write methods, cannot be made to diverge),
// and when the leader is killed mid-stream they keep serving their last
// snapshot, report growing lag honestly, and catch up bit-identically
// once a recovered leader resumes shipping. Everything runs
// in-process over an in-memory filesystem; swap the Dir backend for
// store.NewHTTP and the pieces are the production deployment
// (`pghive serve -ship-dir` / `-follow`). Run with:
//
//	go run ./examples/replication
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/datagen"
	"github.com/pghive/pghive/internal/store"
	"github.com/pghive/pghive/internal/vfs"
)

const (
	scale   = 0.3
	seed    = 42
	batches = 12
)

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "replication:", err)
		os.Exit(1)
	}
}

// stateImage serializes a leader's or follower's full state;
// byte-equal images mean indistinguishable services.
func stateImage(svc interface{ WriteCheckpoint(io.Writer) error }) []byte {
	var buf bytes.Buffer
	check(svc.WriteCheckpoint(&buf))
	return buf.Bytes()
}

// openLeader starts (or recovers) the durable leader over fs,
// shipping into backend.
func openLeader(fs vfs.FS, backend store.Backend) *pghive.DurableService {
	leader, err := pghive.OpenDurable("leader-data", pghive.Options{Seed: seed}, pghive.DurableOptions{
		FS:                 fs,
		DisableAutoCompact: true, // compactions (and thus shipping) are explicit below
		SegmentBytes:       16 << 10,
		ShipTo:             backend,
	})
	check(err)
	return leader
}

// catchUp polls a follower until it reaches the target LSN.
func catchUp(f *pghive.Follower, target uint64) {
	deadline := time.Now().Add(10 * time.Second)
	for f.AppliedLSN() != target || !f.Ready() {
		if time.Now().After(deadline) {
			check(fmt.Errorf("follower stuck at LSN %d, want %d (lag %+v)",
				f.AppliedLSN(), target, f.Lag(context.Background())))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func main() {
	// The object store both sides share. A leader started with
	// -ship-dir serves exactly this backend at /v1/objects.
	backend := store.NewDir(vfs.NewMemFS(), "/objects")

	leaderFS := vfs.NewMemFS()
	leader := openLeader(leaderFS, backend)

	// Phase 1: ingest, ship, then bring up followers — they bootstrap
	// from the newest consistent shipped generation, not from LSN 0.
	fmt.Println("=== leader + two followers over one object store ===")
	data := datagen.Generate(datagen.LDBC(), scale, seed)
	parts := pghive.SplitBatches(data.Graph, batches, rand.New(rand.NewSource(7)))

	half := len(parts) / 2
	for _, p := range parts[:half] {
		_, err := leader.Ingest(p.Graph)
		check(err)
	}
	check(leader.Compact()) // seals, folds, ships; the manifest publishes the generation

	// (FollowerOptions.LeaderLSN is optional — omitted here, so Lag
	// reports the replica's own position without probing a leader.)
	var followers []*pghive.Follower
	for i := 0; i < 2; i++ {
		f := pghive.NewFollower(pghive.Options{Seed: seed}, backend, pghive.FollowerOptions{
			PollInterval: time.Millisecond,
		})
		f.Start()
		defer f.Close()
		followers = append(followers, f)
	}

	target := leader.DurableStats().WALNextLSN - 1
	for i, f := range followers {
		catchUp(f, target)
		lag := f.Lag(context.Background())
		fmt.Printf("follower %d: ready=%v appliedLSN=%d bootstrapGeneration=%d\n",
			i, lag.Ready, lag.AppliedLSN, lag.BootstrapGeneration)
	}

	// Bit-identity: a follower at LSN n IS the leader at LSN n.
	want := stateImage(leader)
	for i, f := range followers {
		if !bytes.Equal(stateImage(f), want) {
			check(fmt.Errorf("follower %d diverged from leader at LSN %d", i, target))
		}
		fmt.Printf("follower %d: state bit-identical to leader at LSN %d (%d bytes)\n",
			i, target, len(want))
	}

	// Read-only contract: a Follower's data API is the shared
	// *pghive.Reader — there is no write method to call. (`pghive serve
	// -follow` answers a misdirected HTTP write with 409, reason
	// "follower".)
	var replica *pghive.Reader = followers[0].Reader
	fmt.Printf("follower 0 serves %d node types through a read-only %T\n", replica.Stats().NodeTypes, replica)

	// Phase 2: kill the leader mid-stream.
	fmt.Println("\n=== kill the leader mid-stream ===")
	for _, p := range parts[half : half+2] {
		_, err := leader.Ingest(p.Graph)
		check(err)
	}
	check(leader.Compact()) // these batches ship...
	for _, p := range parts[half+2 : half+4] {
		_, err := leader.Ingest(p.Graph)
		check(err) // ...these are acked and WAL-durable but NOT yet shipped
	}
	shippedLSN := leader.DurableStats().ShippedLSN
	deadStats := leader.Stats()
	// Abandon the instance: no Close, no final compaction — the
	// kill -9 model. The data directory (leaderFS) survives.
	leader = nil

	for i, f := range followers {
		catchUp(f, shippedLSN)
		fmt.Printf("follower %d: serving at shipped LSN %d while the leader is down (leader died at %d batches)\n",
			i, f.AppliedLSN(), deadStats.Batches)
	}

	// Phase 3: the leader recovers from its directory and resumes
	// shipping; followers catch up without re-bootstrapping.
	fmt.Println("\n=== leader recovers, followers converge ===")
	leader = openLeader(leaderFS, backend)
	for _, p := range parts[half+4:] {
		_, err := leader.Ingest(p.Graph)
		check(err)
	}
	check(leader.Compact())
	defer leader.Close()

	target = leader.DurableStats().WALNextLSN - 1
	want = stateImage(leader)
	for i, f := range followers {
		catchUp(f, target)
		if !bytes.Equal(stateImage(f), want) {
			check(fmt.Errorf("follower %d diverged after leader recovery", i))
		}
		lag := f.Lag(context.Background())
		fmt.Printf("follower %d: caught up bit-identically at LSN %d (fetchFaults=%d, bootstrapFallbacks=%d)\n",
			i, lag.AppliedLSN, lag.FetchFaults, lag.BootstrapFallbacks)
	}

	st := leader.Stats()
	fmt.Printf("\nfinal state everywhere: %d batches, %d nodes, %d edges, %d node types\n",
		st.Batches, st.Nodes, st.Edges, st.NodeTypes)
}
