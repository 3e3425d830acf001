package vectorize

import (
	"strconv"
	"testing"
	"time"

	"github.com/pghive/pghive/internal/pg"
	"github.com/pghive/pghive/internal/word2vec"
)

// TestWideElementCostsNearLinear: the per-element stages of discovery,
// fingerprinting (pg.ShapeCache) and vectorizing, sort an element's k
// keys and bits in O(k log k), so one wide element cannot hold a write
// for long. A 16x wider element may cost at most 64x as much, the best
// of three runs each: it costs about 20x. Sorting by insertion, as both
// stages once did, cost 162x here, and 32,934 properties held one
// write under the lock for 6.1 s.
func TestWideElementCostsNearLinear(t *testing.T) {
	emb := word2vec.NewHashedEmbedder(8)
	cost := func(width int) time.Duration {
		props := make(map[string]pg.Value, width)
		for i := 0; i < width; i++ {
			props[strconv.Itoa(i)] = pg.Int(int64(i)) // lengths vary: byte order is not (length, bytes) order
		}
		g := pg.NewGraph()
		g.AddNode([]string{"Wide"}, props)
		nodes := g.Nodes()
		keys := nodes[0].PropertyKeys()
		best := time.Duration(1<<63 - 1)
		for run := 0; run < 3; run++ {
			start := time.Now()
			pg.NewShapeCache().IndexNodes(nodes)
			NodesParallel(nodes, keys, emb, 1)
			best = min(best, time.Since(start))
		}
		return best
	}
	narrow, wide := cost(1<<10), cost(1<<14)
	ratio := float64(wide) / float64(narrow)
	t.Logf("1,024 properties: %v; 16,384: %v; ratio %.1f", narrow, wide, ratio)
	if ratio > 64 {
		t.Errorf("a 16x wider element costs %.0fx as much, want at most 64x", ratio)
	}
}
