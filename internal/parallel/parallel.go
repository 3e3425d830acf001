// Package parallel provides the deterministic worker-pool primitives
// the discovery pipeline parallelizes with. Work is always split into
// contiguous index ranges with disjoint writes, so a run with N
// workers produces bit-identical results to a sequential run — the
// property the pipeline's Parallelism knob promises.
package parallel

import (
	"runtime"
	"sync"
)

// Workers normalizes a parallelism knob: values <= 0 select
// runtime.NumCPU(), everything else passes through.
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// For splits the index range [0, n) into at most `workers` contiguous
// chunks and invokes fn(lo, hi) for each chunk, concurrently when
// workers > 1. fn must only write state derived from its own index
// range; under that contract the result is independent of scheduling.
// With workers <= 1 (or n small) fn runs inline on the caller's
// goroutine, making the sequential path allocation- and
// goroutine-free.
func For(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
