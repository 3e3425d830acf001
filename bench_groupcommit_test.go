// bench_groupcommit_test.go measures what group commit buys: acked
// durable writes per second as ingester concurrency grows, with the
// fsync count per acked write reported alongside.
//
// The filesystem underneath is MemFS with a fixed latency added to
// every file Sync, modeling a disk whose fsync costs ~1ms (commodity
// SSD territory). Measuring against the container's real disk is not
// reproducible: when a warm fsync returns in microseconds, producers
// never pile up behind the committer (on a single-core box they
// serialize entirely) and the coalescing ratio swings run to run.
// With the latency pinned, the benchmark isolates the algorithm: the
// committer parks in Sync, concurrent ingesters queue behind it, and
// the group size — fsyncs/op — is a stable property of the design.
package pghive_test

import (
	"fmt"
	"io/fs"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pghive "github.com/pghive/pghive"
	"github.com/pghive/pghive/internal/vfs"
)

// syncCost is the modeled fsync latency.
const syncCost = time.Millisecond

// slowSyncFS delegates to an inner vfs.FS but adds syncCost to every
// File.Sync, modeling stable-storage flush latency.
type slowSyncFS struct {
	vfs.FS
}

func (s *slowSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &slowSyncFile{File: f}, nil
}

func (s *slowSyncFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	f, err := s.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &slowSyncFile{File: f}, nil
}

type slowSyncFile struct {
	vfs.File
}

func (f *slowSyncFile) Sync() error {
	time.Sleep(syncCost)
	return f.File.Sync()
}

// BenchmarkGroupCommitThroughput distributes b.N acked Ingest calls
// over C concurrent ingesters against a durable leader whose
// fsync costs syncCost. Reported: ns per acked write (writes/s =
// 1e9/ns_per_op) and fsyncs/op — the coalescing ratio; 1.0 means no
// sharing, and it falls toward 1/C as ingesters stack up behind the
// committer's flush.
func BenchmarkGroupCommitThroughput(b *testing.B) {
	const deltaN = 10 // elements per write: 10 nodes + 10 ring edges

	for _, conc := range []int{1, 8, 64} {
		// No "-N" suffix in the name: benchgate strips a trailing
		// -digits as the GOMAXPROCS suffix.
		b.Run(fmt.Sprintf("conc%d", conc), func(b *testing.B) {
			d, err := pghive.OpenDurable("data", pghive.Options{Parallelism: 1}, pghive.DurableOptions{
				FS:                 &slowSyncFS{FS: vfs.NewMemFS()},
				DisableAutoCompact: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()

			// Warm the pipeline so setup cost stays out of the window.
			if _, err := d.Ingest(stressGraph(b, 1, deltaN)); err != nil {
				b.Fatal(err)
			}
			startSyncs := d.DurableStats().WALSyncs

			var next atomic.Int64
			var wg sync.WaitGroup
			var failed atomic.Bool
			b.ResetTimer()
			for w := 0; w < conc; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i > int64(b.N) || failed.Load() {
							return
						}
						// Disjoint ID ranges per write keep the
						// applied graphs independent.
						base := pghive.ID(1_000_000 + i*1_000)
						if _, err := d.Ingest(stressGraph(b, base, deltaN)); err != nil {
							failed.Store(true)
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			syncs := d.DurableStats().WALSyncs - startSyncs
			b.ReportMetric(float64(syncs)/float64(b.N), "fsyncs/op")
		})
	}
}
