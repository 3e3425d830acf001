package schema

// FuzzReadSchemaJSON hardens the checkpoint/persistence read path
// against corrupt input: whatever bytes arrive (truncated downloads,
// hand-edited checkpoints, bit rot), ReadJSON must never panic, and
// any input it does accept must reach a write→read→write fixpoint —
// the re-serialized schema reads back and serializes identically, so
// a restored-and-resaved checkpoint never drifts.

import (
	"bytes"
	"testing"

	"github.com/pghive/pghive/internal/pg"
)

// fuzzSeedSchema is a small but feature-complete valid schema image.
func fuzzSeedSchema() []byte {
	s := New()
	nt := NewNodeCandidate()
	nt.Token = "Person"
	nt.Labels["Person"] = 3
	nt.Instances = 3
	nt.Props["name"] = &PropStat{Count: 3, Mandatory: true, DataType: pg.KindString,
		Distinct: map[string]int{"ann": 2, "bob": 1}}
	nt.Props["age"] = &PropStat{Count: 2, MinInt: 1, MaxInt: 9, HasIntRange: true, DataType: pg.KindInt}
	nt.Props["bio"] = &PropStat{Count: 1, DistinctOverflow: true, DataType: pg.KindString}
	ab := NewNodeCandidate()
	ab.Abstract = true
	ab.Instances = 1
	s.AppendNodeTypes([]*NodeType{nt, ab})
	et := NewEdgeCandidate()
	et.Token = "KNOWS"
	et.Labels["KNOWS"] = 2
	et.Instances = 2
	et.SrcTokens["Person"] = true
	et.DstTokens["Person"] = true
	et.SrcDeg[pg.ID(1)] = 2
	et.DstDeg[pg.ID(2)] = 1
	et.Cardinality = CardManyToOne
	s.AppendEdgeTypes([]*EdgeType{et})
	var buf bytes.Buffer
	if err := WriteJSON(&buf, s); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzReadSchemaJSON(f *testing.F) {
	f.Add(fuzzSeedSchema())
	f.Add([]byte(`{"version":1,"nodeTypes":[],"edgeTypes":[]}`))
	f.Add([]byte(`{"version":1,"nodeTypes":null,"edgeTypes":null}`))
	// Corrupt variants: wrong version, oversized kind tally, malformed
	// degree key, truncation, type garbage.
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{"version":1,"nodeTypes":[{"id":0,"instances":1,"props":{"p":{"count":1,"kinds":[1,2,3,4,5,6,7,8]}}}]}`))
	f.Add([]byte(`{"version":1,"edgeTypes":[{"id":0,"instances":1,"srcDeg":{"not-a-number":3}}]}`))
	f.Add([]byte(`{"version":1,"nodeTypes":[{"id":`))
	f.Add([]byte(`{"version":1,"nodeTypes":[{"id":-5,"token":"T","labels":{"":0},"instances":-1}]}`))
	// Four spellings of one node ID: only the canonical one is a key.
	f.Add([]byte(`{"version":1,"edgeTypes":[{"id":0,"instances":1,"srcDeg":{"12abc":1,"012":5,"12":7," 12":9}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return // rejected input: only the no-panic property applies
		}
		var first bytes.Buffer
		if err := WriteJSON(&first, s); err != nil {
			t.Fatalf("accepted schema failed to serialize: %v", err)
		}
		s2, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("own serialization rejected on read-back: %v", err)
		}
		var second bytes.Buffer
		if err := WriteJSON(&second, s2); err != nil {
			t.Fatalf("re-read schema failed to serialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write→read→write not a fixpoint:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}
