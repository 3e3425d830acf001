package schema

// persist_ref_test.go is the schema document writer as it was before
// WriteJSON streamed: the whole document, each tally copied into a map,
// through encoding/json. It is kept, named refWriteJSON, as the oracle
// TestWriteJSONMatchesRef and FuzzWriteJSONMatchesRef hold WriteJSON to.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"testing"

	"github.com/pghive/pghive/internal/pg"
)

func refWriteJSON(w io.Writer, s *Schema) error {
	p := Persist(s)
	for i, et := range s.EdgeTypes {
		p.EdgeTypes[i].SrcDeg, p.EdgeTypes[i].DstDeg = DegreeCounts[nodeKey](et.SrcDeg), DegreeCounts[nodeKey](et.DstDeg)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// docSchema builds a schema whose strings — labels, tokens, property
// keys, Distinct values and Enum members — are str or hold it, and
// whose first edge type counts ids at its sources and their negations
// at its targets. Its second edge type has no tallies and no
// cardinality, so both omissions are written too.
func docSchema(str string, ids []pg.ID) *Schema {
	s := New()
	nt := NewNodeCandidate()
	nt.Token = str
	nt.Labels[str], nt.Labels[str+"<&>"] = 2, 1
	nt.Instances = 3
	nt.Props[str] = &PropStat{Count: 3, Kinds: [pg.KindString + 1]int{pg.KindString: 3}, Mandatory: true,
		DataType: pg.KindString, Distinct: map[string]int{str: 2, "\u2028" + str: 1}, Enum: []string{str, "\u2028" + str}}
	nt.Props["n"] = &PropStat{Count: 1, MinInt: -4, MaxInt: 9, HasIntRange: true, DataType: pg.KindInt}
	ab := NewNodeCandidate()
	ab.Instances = 1
	s.AppendNodeTypes([]*NodeType{nt, ab})

	et := NewEdgeCandidate()
	et.Token = str
	et.Labels[str] = len(ids) + 1
	et.Instances = len(ids) + 1
	et.Props[str] = &PropStat{Count: 1, DistinctOverflow: true, DataType: pg.KindString}
	et.SrcTokens[str], et.SrcTokens[""] = true, true
	et.DstTokens[str+"&"] = true
	for i, id := range ids {
		et.SrcDeg.Add(id, 1+i%3)
		et.DstDeg.Add(-id, 1)
	}
	et.Cardinality = Cardinality(1 + len(ids)%3)
	bare := NewEdgeCandidate()
	bare.Instances = 1
	s.AppendEdgeTypes([]*EdgeType{et, bare})
	return s
}

// assertWriteJSONMatchesRef fails unless WriteJSON and refWriteJSON
// write the same bytes for s.
func assertWriteJSONMatchesRef(t *testing.T, s *Schema) {
	t.Helper()
	var got, want bytes.Buffer
	if err := WriteJSON(&got, s); err != nil {
		t.Fatal(err)
	}
	if err := refWriteJSON(&want, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		i := 0
		for i < min(got.Len(), want.Len()) && got.Bytes()[i] == want.Bytes()[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("WriteJSON differs from the reference at byte %d of %d/%d:\n got  %q\n want %q",
			i, got.Len(), want.Len(), got.Bytes()[lo:min(i+80, got.Len())], want.Bytes()[lo:min(i+80, want.Len())])
	}
}

// FuzzWriteJSONMatchesRef holds the streaming writer to the reference
// on schemas whose strings are the fuzzer's, invalid UTF-8, HTML
// characters and line separators included, and whose tallies hold the
// node IDs it spells: each 8 bytes are an int64 shifted right by its
// low 6 bits, so IDs of every length and sign turn up. The document
// read back is held to the reference again.
func FuzzWriteJSONMatchesRef(f *testing.F) {
	f.Add("Person", []byte{})
	f.Add("<a&b>\u2028\u2029", []byte("\x01\x00\x00\x00\x00\x00\x00\x80\x3f\xff\xff\xff\xff\xff\xff\x7f"))
	f.Add("\xff\xfe\"\\\x01", []byte("\x3c\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x20\x00\x00\x00\x00\x00\x00\x03"))
	f.Fuzz(func(t *testing.T, str string, raw []byte) {
		var ids []pg.ID
		for ; len(raw) >= 8; raw = raw[8:] {
			ids = append(ids, pg.ID(int64(binary.LittleEndian.Uint64(raw))>>(raw[0]&63)))
		}
		s := docSchema(str, ids)
		assertWriteJSONMatchesRef(t, s)
		var first bytes.Buffer
		if err := WriteJSON(&first, s); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("own document refused: %v", err)
		}
		assertWriteJSONMatchesRef(t, back)
	})
}
