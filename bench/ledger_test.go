package main

import (
	"bytes"
	"testing"

	"github.com/pghive/pghive/internal/datagen"
)

func testLedger(seed int64) *ledger {
	base := datagen.Generate(datagen.LDBC(), 0.05, subSeed(seed, 12))
	return buildLedger("serve_test", base.Graph, 120, seed)
}

func TestLedgerIsAPureFunctionOfTheSeed(t *testing.T) {
	a, b, c := testLedger(7), testLedger(7), testLedger(8)
	if a.sha != b.sha {
		t.Errorf("same seed, different ledgers: %s vs %s", a.sha, b.sha)
	}
	if a.sha == c.sha {
		t.Errorf("seeds 7 and 8 produced the same ledger %s", a.sha)
	}
	for i := range a.writes {
		if a.writes[i].key != b.writes[i].key || !bytes.Equal(a.writes[i].body, b.writes[i].body) {
			t.Fatalf("write %d differs between two builds of seed 7", i)
		}
	}
}

func TestChurnIsIngestedBeforeItIsRetracted(t *testing.T) {
	l := testLedger(3)
	ingestedAt := map[int]int{}
	retracted := map[int]bool{}
	kinds := map[opKind]int{}
	for i, op := range l.writes {
		kinds[op.kind]++
		switch op.kind {
		case churnIngest:
			if _, dup := ingestedAt[op.churn]; dup {
				t.Fatalf("write %d ingests churn batch %d a second time", i, op.churn)
			}
			ingestedAt[op.churn] = i
		case churnRetract:
			at, ok := ingestedAt[op.churn]
			if !ok {
				t.Fatalf("write %d retracts churn batch %d before it was ingested", i, op.churn)
			}
			if retracted[op.churn] {
				t.Fatalf("write %d retracts churn batch %d a second time", i, op.churn)
			}
			retracted[op.churn] = true
			if i-at != churnGap {
				t.Errorf("churn batch %d: ingested at %d, retracted at %d, want %d writes apart", op.churn, at, i, churnGap)
			}
			if !bytes.Equal(op.body, l.writes[at].body) {
				t.Errorf("churn batch %d is retracted with other bytes than it was ingested with", op.churn)
			}
		}
	}
	if kinds[growthIngest] == 0 || kinds[churnIngest] == 0 || kinds[churnRetract] == 0 {
		t.Fatalf("pattern lacks a kind: %v", kinds)
	}
	if ratio := float64(kinds[growthIngest]) / float64(kinds[churnIngest]); ratio < 2.9 || ratio > 3.2 {
		t.Errorf("growth to churn-ingest is %.2f to 1, want 3 to 1", ratio)
	}

	// What is left after all writes is the base, the growth and the
	// churn batches whose retraction has not come up yet.
	nodes, edges := l.counts(len(l.writes))
	var wantNodes, wantEdges int
	for _, op := range l.base {
		wantNodes, wantEdges = wantNodes+op.nodes, wantEdges+op.edges
	}
	for _, op := range l.writes {
		if op.kind == growthIngest || (op.kind == churnIngest && !retracted[op.churn]) {
			wantNodes, wantEdges = wantNodes+op.nodes, wantEdges+op.edges
		}
	}
	if nodes != wantNodes || edges != wantEdges {
		t.Errorf("counts after all writes: %d nodes %d edges, want %d and %d", nodes, edges, wantNodes, wantEdges)
	}
}
