package schema

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pghive/pghive/internal/pg"
)

// randomCandidates builds a reproducible random candidate population
// from a seed: a mix of labeled and unlabeled node candidates over a
// small label/key universe.
func randomCandidates(seed int64, n int) []*NodeType {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"A", "B", "C", "D"}
	keys := []string{"k1", "k2", "k3", "k4", "k5", "k6"}
	cands := make([]*NodeType, n)
	for i := range cands {
		c := NewNodeCandidate()
		var ls []string
		if rng.Float64() < 0.7 {
			ls = []string{labels[rng.Intn(len(labels))]}
			if rng.Float64() < 0.3 {
				ls = append(ls, labels[rng.Intn(len(labels))])
			}
		}
		props := map[string]pg.Value{}
		for _, k := range keys {
			if rng.Float64() < 0.5 {
				props[k] = pg.Int(int64(rng.Intn(10)))
			}
		}
		for j := 0; j < 1+rng.Intn(3); j++ {
			c.observe(ls, pg.PropsOf(props))
		}
		c.Token = pg.LabelToken(c.SortedLabels())
		c.Abstract = c.Token == ""
		cands[i] = c
	}
	return cands
}

// TestMonotonicityProperty verifies Lemma 1 / the §4.7 type
// completeness guarantee end to end: after extraction, every label and
// every property key observed in any candidate is present in the type
// the candidate was merged into, and global instance counts are
// conserved.
func TestMonotonicityProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		cands := randomCandidates(seed, n)
		// Snapshot candidate contents before extraction mutates the
		// types they merge into.
		type snap struct {
			labels []string
			keys   []string
			inst   int
		}
		snaps := make([]snap, n)
		for i, c := range cands {
			snaps[i] = snap{c.SortedLabels(), c.PropertyKeys(), c.Instances}
		}
		s := New()
		res := s.ExtractNodeTypes(cands, 0.9)

		totalInst := 0
		for i := range snaps {
			ty := res[i]
			if ty == nil {
				return false
			}
			for _, l := range snaps[i].labels {
				if ty.Labels[l] <= 0 {
					return false // label lost — violates Lemma 1
				}
			}
			for _, k := range snaps[i].keys {
				if ty.Props[k] == nil {
					return false // property lost — violates Lemma 1
				}
			}
		}
		for _, ty := range s.NodeTypes {
			totalInst += ty.Instances
		}
		wantInst := 0
		for i := range snaps {
			wantInst += snaps[i].inst
		}
		return totalInst == wantInst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalChainProperty verifies S_i ⊑ S_{i+1} (§4.6): feeding
// candidates in two batches yields a schema whose types cover
// everything a single-batch extraction covers, and batch order never
// loses information.
func TestIncrementalChainProperty(t *testing.T) {
	f := func(seed int64) bool {
		cands := randomCandidates(seed, 12)
		// Single shot.
		all := New()
		all.ExtractNodeTypes(randomCandidates(seed, 12), 0.9)

		// Two batches.
		inc := New()
		inc.ExtractNodeTypes(cands[:6], 0.9)
		// Snapshot after batch 1.
		cover1 := map[string]bool{}
		for _, ty := range inc.NodeTypes {
			for l := range ty.Labels {
				cover1["L:"+l] = true
			}
			for k := range ty.Props {
				cover1["K:"+k] = true
			}
		}
		inc.ExtractNodeTypes(cands[6:], 0.9)
		cover2 := map[string]bool{}
		for _, ty := range inc.NodeTypes {
			for l := range ty.Labels {
				cover2["L:"+l] = true
			}
			for k := range ty.Props {
				cover2["K:"+k] = true
			}
		}
		// Monotone: everything covered after batch 1 is still covered.
		for k := range cover1 {
			if !cover2[k] {
				return false
			}
		}
		// And the incremental coverage equals the single-shot one.
		coverAll := map[string]bool{}
		for _, ty := range all.NodeTypes {
			for l := range ty.Labels {
				coverAll["L:"+l] = true
			}
			for k := range ty.Props {
				coverAll["K:"+k] = true
			}
		}
		if len(coverAll) != len(cover2) {
			return false
		}
		for k := range coverAll {
			if !cover2[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestJaccardProperty checks the metric axioms we rely on: symmetry,
// range, and identity.
func TestJaccardProperty(t *testing.T) {
	mkSet := func(bits uint8) map[string]bool {
		keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		m := map[string]bool{}
		for i, k := range keys {
			if bits&(1<<i) != 0 {
				m[k] = true
			}
		}
		return m
	}
	f := func(x, y uint8) bool {
		a, b := mkSet(x), mkSet(y)
		j1, j2 := Jaccard(a, b), Jaccard(b, a)
		if j1 != j2 {
			return false
		}
		if j1 < 0 || j1 > 1 {
			return false
		}
		if x == y && j1 != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
