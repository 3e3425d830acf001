// bench_durable_test.go measures the headline win of the run-based
// checkpoint layout: compaction IO proportional to what changed, not
// to database size. BenchmarkCompactionDelta compacts 1k-element
// deltas on a 100k-element base and reports the checkpoint bytes each
// design writes per round — the delta-run layout against the previous
// rewrite-the-whole-image design. TestCompactionDeltaIOBound enforces
// the same property at test scale so the ratio is gated on every CI
// run, not just when benchmarks happen to be compared.
package pghive_test

import (
	"fmt"
	"path/filepath"
	"testing"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/core"
	"github.com/pghive/pghive/internal/vfs"
)

// openFoldedBase builds a durable service on mem whose checkpoint is
// a fresh base image of 2*baseN elements (baseN nodes plus baseN ring
// edges) with an empty run chain, then reopens it with a run-chain cap
// high enough that the measured compactions never fold.
func openFoldedBase(tb testing.TB, mem *vfs.MemFS, dir string, baseN int) *pghive.DurableService {
	tb.Helper()
	dopts := pghive.DurableOptions{
		NoSync:             true,
		DisableAutoCompact: true,
		MaxTombstoneRatio:  1e9,
		FS:                 mem,
	}
	d, err := pghive.OpenDurable(dir, pghive.Options{Parallelism: 1}, dopts)
	if err != nil {
		tb.Fatal(err)
	}
	// Ingest the base in chunks, then compact: a load this size
	// outgrows the writer's dirty record, so the round captures the
	// state whole and writes a base image with no runs on top.
	const chunk = 1000
	for off := 0; off < baseN; off += chunk {
		n := min(chunk, baseN-off)
		if _, err := d.Ingest(stressGraph(tb, pghive.ID(off), n)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := d.Compact(); err != nil {
		tb.Fatal(err)
	}
	if st := d.DurableStats(); st.Runs != 0 || st.LastRound.FoldReason != pghive.FoldDirtyOverflow {
		tb.Fatalf("bulk load not captured as a base: %d runs, fold reason %q", st.Runs, st.LastRound.FoldReason)
	}
	if err := d.Close(); err != nil {
		tb.Fatal(err)
	}
	dopts.MaxRuns = 1 << 30
	d, err = pghive.OpenDurable(dir, pghive.Options{Parallelism: 1}, dopts)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// baseImagePath reconstructs the base checkpoint file name from the
// manifest stats (the layout is pinned by the runfile golden tests).
func baseImagePath(dir string, st pghive.DurableStats) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%020d.ckpt", st.BaseLSN))
}

func BenchmarkCompactionDelta(b *testing.B) {
	const baseN, deltaN = 50_000, 500 // elements = 2*N (nodes + edges)

	b.Run("runs", func(b *testing.B) {
		mem := vfs.NewMemFS()
		d := openFoldedBase(b, mem, "data", baseN)
		defer d.Close()
		prev := d.DurableStats().RunBytes
		var total int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			base := pghive.ID(1_000_000 + i*10_000)
			if _, err := d.Ingest(stressGraph(b, base, deltaN)); err != nil {
				b.Fatal(err)
			}
			if err := d.Compact(); err != nil {
				b.Fatal(err)
			}
			cur := d.DurableStats().RunBytes
			total += cur - prev
			prev = cur
		}
		b.ReportMetric(float64(total)/float64(b.N), "ckpt-bytes/op")
	})

	b.Run("monolithic", func(b *testing.B) {
		// The pre-run design wrote the entire image on every
		// compaction; replaying that write (encode to a byte counter)
		// against the same base measures the IO the run layout avoids.
		mem := vfs.NewMemFS()
		d := openFoldedBase(b, mem, "data", baseN)
		defer d.Close()
		img, err := core.LoadImage(mem, baseImagePath("data", d.DurableStats()))
		if err != nil {
			b.Fatal(err)
		}
		var total int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var cw countWriter
			if err := core.EncodeImage(&cw, img); err != nil {
				b.Fatal(err)
			}
			total += cw.n
		}
		b.ReportMetric(float64(total)/float64(b.N), "ckpt-bytes/op")
	})
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// TestCompactionDeltaIOBound pins the ratio the benchmark reports: on
// a 10k-element base, compacting a 100-element delta must write at
// least 10x fewer checkpoint bytes than rewriting the base image.
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
}
