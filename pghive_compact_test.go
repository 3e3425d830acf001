package pghive_test

// What a compaction round costs, pinned from outside the package: a
// delta round writes far fewer bytes than the base image; a round
// carrying tombstones on a store that has no base (or a small one)
// writes a run, not the database; a steady-state round's allocations
// follow the write, not the store, as a durable write's own do; and it
// reads no checkpoint or run file.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/vfs"
)

// openFoldedBase builds a durable service on mem whose checkpoint is
// a fresh base image of 2*baseN elements (baseN nodes plus baseN ring
// edges) with an empty run chain, then reopens it with a run-chain cap
// high enough that the measured compactions never fold.
func openFoldedBase(t *testing.T, mem *vfs.MemFS, dir string, baseN int) *pghive.DurableService {
	t.Helper()
	dopts := pghive.DurableOptions{
		NoSync:             true,
		DisableAutoCompact: true,
		MaxTombstoneRatio:  1e9,
		FS:                 mem,
	}
	d, err := pghive.OpenDurable(dir, pghive.Options{Parallelism: 1}, dopts)
	if err != nil {
		t.Fatal(err)
	}
	// Ingest the base in chunks, then compact: a load this size
	// outgrows the writer's dirty record, so the round captures the
	// state whole and writes a base image with no runs on top.
	const chunk = 1000
	for off := 0; off < baseN; off += chunk {
		n := min(chunk, baseN-off)
		if _, err := d.Ingest(stressGraph(t, pghive.ID(off), n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := d.DurableStats(); st.Runs != 0 || st.LastRound.FoldReason != pghive.FoldDirtyOverflow {
		t.Fatalf("bulk load not captured as a base: %d runs, fold reason %q", st.Runs, st.LastRound.FoldReason)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	dopts.MaxRuns = 1 << 30
	d, err = pghive.OpenDurable(dir, pghive.Options{Parallelism: 1}, dopts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// baseImagePath reconstructs the base checkpoint file name from the
// manifest stats (the layout is pinned by the runfile golden tests).
func baseImagePath(dir string, st pghive.DurableStats) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%020d.ckpt", st.BaseLSN))
}

// TestCompactionDeltaIOBound: compaction IO is proportional to what
// changed, not to database size — on a 10k-element base, compacting a
// 100-element delta must write at least 10x fewer checkpoint bytes
// than the base image, which is what a round rewriting the whole
// state would write. And what a run spends per written element is
// bounded: format generation 2 writes element-keyed state grouped and
// gap-coded, 1,550 bytes for this run (15.5 per element, 77x under a
// 118,791-byte base); generation 1 wrote one JSON record per element,
// 6,276 bytes (62.8 per element, beside a 335,399-byte base).
func TestCompactionDeltaIOBound(t *testing.T) {
	const baseN, deltaN = 5_000, 50
	mem := vfs.NewMemFS()
	d := openFoldedBase(t, mem, "data", baseN)
	defer d.Close()

	st, err := mem.Stat(baseImagePath("data", d.DurableStats()))
	if err != nil {
		t.Fatal(err)
	}
	imageBytes := st.Size()

	if _, err := d.Ingest(stressGraph(t, 1_000_000, deltaN)); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	runBytes := d.DurableStats().RunBytes
	if runBytes <= 0 {
		t.Fatal("delta compaction wrote no run")
	}
	if runBytes*10 > imageBytes {
		t.Fatalf("delta run is %d bytes vs %d-byte base image: less than the required 10x saving", runBytes, imageBytes)
	}
	const written, perElement = 2 * deltaN, 25
	if runBytes > written*perElement {
		t.Fatalf("a %d-element run is %d bytes: more than %d per written element", written, runBytes, perElement)
	}
}

// TestFirstTombstoneDoesNotFoldUnfoldedStore: the fold rule weighs the
// chain's tombstones against the elements the generation holds, not
// against the base image alone — so a store that never folded (base of
// zero elements), or whose base is small beside its runs, does not
// rewrite everything at the first retraction.
func TestFirstTombstoneDoesNotFoldUnfoldedStore(t *testing.T) {
	opts := pghive.Options{Seed: 9, Parallelism: 1}
	open := func(t *testing.T, mem *vfs.MemFS, maxRuns int) *pghive.DurableService {
		t.Helper()
		d, err := pghive.OpenDurable("data", opts, pghive.DurableOptions{
			FS: mem, NoSync: true, DisableAutoCompact: true, MaxRuns: maxRuns,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	compact := func(t *testing.T, d *pghive.DurableService) pghive.DurableStats {
		t.Helper()
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		return d.DurableStats()
	}
	// retractRound retracts one small batch in a round of its own and
	// requires the round to have written a small run on top of loaded.
	retractRound := func(t *testing.T, d *pghive.DurableService, victim *pghive.Graph, loaded pghive.DurableStats) {
		t.Helper()
		if _, err := d.Retract(victim); err != nil {
			t.Fatal(err)
		}
		st := compact(t, d)
		if st.BaseLSN != loaded.BaseLSN || st.Runs != loaded.Runs+1 {
			t.Fatalf("the round carrying the first tombstones rewrote the store: base LSN %d -> %d, runs %d -> %d",
				loaded.BaseLSN, st.BaseLSN, loaded.Runs, st.Runs)
		}
		if st.RunTombstones == 0 {
			t.Fatal("setup: the retraction left no tombstones")
		}
		if wrote := st.RunBytes - loaded.RunBytes; wrote*5 > loaded.RunBytes {
			t.Fatalf("a %d-element retraction wrote a %d-byte run beside %d bytes of chain: not O(batch)",
				victim.NumNodes()+victim.NumEdges(), wrote, loaded.RunBytes)
		}
	}

	t.Run("no base", func(t *testing.T) {
		d := open(t, vfs.NewMemFS(), 100)
		defer d.Close()
		victim := stressGraph(t, 0, 10)
		if _, err := d.Ingest(victim); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 5; i++ {
			if _, err := d.Ingest(stressGraph(t, pghive.ID(1000*i), 100)); err != nil {
				t.Fatal(err)
			}
		}
		loaded := compact(t, d)
		if loaded.BaseLSN != 0 || loaded.Runs != 1 {
			t.Fatalf("setup: want one run and no base, got base LSN %d and %d runs", loaded.BaseLSN, loaded.Runs)
		}
		retractRound(t, d, victim, loaded)
	})

	t.Run("small base under a long chain", func(t *testing.T) {
		mem := vfs.NewMemFS()
		// A 50-element base: one run, then a second round that trips
		// MaxRuns 1 and folds.
		d := open(t, mem, 1)
		victim := stressGraph(t, 0, 10)
		for _, g := range []*pghive.Graph{victim, stressGraph(t, 100, 14)} {
			if _, err := d.Ingest(g); err != nil {
				t.Fatal(err)
			}
		}
		compact(t, d)
		if _, err := d.Ingest(stressGraph(t, 200, 1)); err != nil {
			t.Fatal(err)
		}
		if st := compact(t, d); st.BaseLSN == 0 || st.Runs != 0 {
			t.Fatalf("setup: want a folded base, got base LSN %d and %d runs", st.BaseLSN, st.Runs)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		// 5 k elements of chain on top of it, in five rounds.
		d = open(t, mem, 100)
		defer d.Close()
		var loaded pghive.DurableStats
		for i := 1; i <= 5; i++ {
			if _, err := d.Ingest(stressGraph(t, pghive.ID(10_000*i), 500)); err != nil {
				t.Fatal(err)
			}
			loaded = compact(t, d)
		}
		if loaded.Runs != 5 {
			t.Fatalf("setup: want 5 runs over the base, got %d", loaded.Runs)
		}
		retractRound(t, d, victim, loaded)
	})
}

// openLoaded returns a durable service on fsys holding n elements
// (stressGraph chunks) under one checkpoint generation, with folding
// off for the rounds the caller measures.
func openLoaded(t *testing.T, fsys vfs.FS, n int) *pghive.DurableService {
	t.Helper()
	d, err := pghive.OpenDurable("data", pghive.Options{Seed: 9, Parallelism: 1}, pghive.DurableOptions{
		FS: fsys, NoSync: true, DisableAutoCompact: true, MaxRuns: 1 << 30, MaxTombstoneRatio: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 500 // nodes; as many edges
	for off := 0; 2*off < n; off += chunk {
		if _, err := d.Ingest(stressGraph(t, pghive.ID(off), chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	return d
}

// writeAllocs measures one 25-node + 25-edge durable Ingest on a store
// loaded with n elements, followed by a compaction round when compact
// is set. The graph is built inside the measured call on both sides.
func writeAllocs(t *testing.T, n int, compact bool) float64 {
	t.Helper()
	d := openLoaded(t, vfs.NewMemFS(), n)
	defer d.Close()
	next := pghive.ID(1 << 24)
	write := func() {
		if _, err := d.Ingest(stressGraph(t, next, 25)); err != nil {
			t.Fatal(err)
		}
		next += 1000
		if !compact {
			return
		}
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	write() // the first write (and round) after the load, not a steady-state one
	return testing.AllocsPerRun(5, write)
}

// TestDurableIngestAllocsFollowBatch: one durable write — committer
// hand-off, WAL append, apply, publish — on a 2 k-element and on a
// 20 k-element store. Its allocations follow the batch, not the store.
func TestDurableIngestAllocsFollowBatch(t *testing.T) {
	small, large := writeAllocs(t, 2_000, false), writeAllocs(t, 20_000, false)
	t.Logf("durable Ingest allocations: %.0f on 2 k elements, %.0f on 20 k", small, large)
	if large > 1.5*small {
		t.Fatalf("a durable write's allocations follow the store, not the batch: %.0f -> %.0f for a store ten times the size", small, large)
	}
}

// TestCompactAllocsFollowChange: the same ~50-element write followed
// by Compact on a 2 k-element and on a 20 k-element store. A round
// that re-reads the generation and replays onto a second copy of the
// state allocates in proportion to the store; one that lifts what the
// writer recorded does not. (The write is inside the measured call on
// both sides: a round with nothing to fold measures nothing.)
func TestCompactAllocsFollowChange(t *testing.T) {
	small, large := writeAllocs(t, 2_000, true), writeAllocs(t, 20_000, true)
	t.Logf("ingest + Compact allocations: %.0f on 2 k elements, %.0f on 20 k", small, large)
	if large > 1.5*small {
		t.Fatalf("a compaction round's allocations follow the store, not the change: %.0f -> %.0f for a store ten times the size", small, large)
	}
}

// readCountingFS counts read-only opens by file name.
type readCountingFS struct {
	vfs.FS
	mu    sync.Mutex
	reads []string
}

func (c *readCountingFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		c.mu.Lock()
		c.reads = append(c.reads, filepath.Base(name))
		c.mu.Unlock()
	}
	return c.FS.OpenFile(name, flag, perm)
}

// TestSteadyRoundReadsNothing: a steady-state round opens no base
// image and no run for reading — what it writes comes from memory.
func TestSteadyRoundReadsNothing(t *testing.T) {
	counting := &readCountingFS{FS: vfs.NewMemFS()}
	d := openLoaded(t, counting, 2_000)
	defer d.Close()
	for i := 0; i < 3; i++ {
		g := stressGraph(t, pghive.ID(1<<24+1000*i), 25)
		if _, err := d.Ingest(g); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if _, err := d.Retract(g); err != nil {
				t.Fatal(err)
			}
		}
		counting.mu.Lock()
		counting.reads = nil
		counting.mu.Unlock()
		runs := d.DurableStats().Runs
		if err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		if st := d.DurableStats(); st.Runs != runs+1 {
			t.Fatalf("round %d: want a steady-state round (one more run), got %d -> %d runs", i, runs, st.Runs)
		}
		for _, name := range counting.reads {
			if strings.HasSuffix(name, ".ckpt") || strings.HasSuffix(name, ".run") {
				t.Fatalf("round %d read %s: a steady-state round reads nothing of the generation (all reads: %v)", i, name, counting.reads)
			}
		}
	}
}
