package schema

// patch_test.go exercises Diff / Patch.Apply on hand-built Persisted
// fixtures: the patch pair operates on values, so the tests construct
// them directly and go through JSON only where a run file would — to
// measure a patch, and to check that a value read back from its own
// bytes patches the same way.

import (
	"encoding/json"
	"strings"
	"testing"
)

// fixtureSchema builds a schema with two node types and one edge type
// whose degree maps hold n entries each — the O(elements) state the
// patch must not re-emit.
func fixtureSchema(n int) *Persisted {
	deg := func(off int) map[nodeKey]int {
		m := make(map[nodeKey]int, n)
		for i := 0; i < n; i++ {
			m[nodeKey(off+i)] = 1 + i%3
		}
		return m
	}
	return &Persisted{
		Version: persistVersion,
		NodeTypes: []jsonType{
			{ID: 0, Labels: map[string]int{"Person": n}, Token: "Person", Instances: n,
				Props: map[string]jsonProp{"age": {Count: n, Kinds: []int{0, n, 0, 0, 0, 0, 0}, MinInt: 20, MaxInt: 69, HasIntRange: true}}},
			{ID: 1, Labels: map[string]int{"City": 1}, Token: "City", Instances: 1},
		},
		EdgeTypes: []jsonType{
			{ID: 2, Labels: map[string]int{"KNOWS": n}, Token: "KNOWS", Instances: n,
				SrcTokens: []string{"Person"}, DstTokens: []string{"Person"},
				SrcDeg: deg(0), DstDeg: deg(1), Cardinality: 1},
		},
	}
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// viaJSON returns the value a reader of v's bytes would hold.
func viaJSON[T any](t *testing.T, v *T) *T {
	t.Helper()
	out := new(T)
	if err := json.Unmarshal(marshal(t, v), out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSchemaPatchDegreeOnly: growing the edge type by a handful of
// endpoints yields a patch proportional to the touched nodes, not to
// the degree maps, and applies back exactly.
func TestSchemaPatchDegreeOnly(t *testing.T) {
	const n = 1000
	old, new_ := fixtureSchema(n), fixtureSchema(n)
	et := &new_.EdgeTypes[0]
	et.Instances += 5
	et.Labels["KNOWS"] += 5
	for i := 0; i < 5; i++ {
		et.SrcDeg[nodeKey(n+i)] = 1
		et.DstDeg[nodeKey(i)] += 1
	}
	want := marshal(t, new_)

	p := Diff(old, new_)
	if p == nil || p.Replace != nil {
		t.Fatalf("structural diff fell back to replace (or found no change): %+v", p)
	}
	got, err := p.Apply(old)
	if err != nil {
		t.Fatal(err)
	}
	if string(marshal(t, got)) != string(want) {
		t.Fatalf("patched schema differs from target:\n got %s", marshal(t, got))
	}
	if !old.equal(fixtureSchema(n)) {
		t.Fatal("Apply modified the schema it patched")
	}
	if patch := marshal(t, p); len(patch)*10 > len(want) {
		t.Fatalf("touching 5 endpoints produced a %d-byte patch for a %d-byte schema", len(patch), len(want))
	}
	// Where the values came from must not matter: recovery holds a base
	// and a patch it decoded from files.
	got2, err := viaJSON(t, p).Apply(viaJSON(t, old))
	if err != nil {
		t.Fatal(err)
	}
	if string(marshal(t, got2)) != string(want) {
		t.Fatal("patch result depends on whether the values were decoded")
	}
}

// TestSchemaPatchTypeLifecycle: types appear, change head fields, and
// vanish (merges remove types); membership and order come from the
// patch's ID lists.
func TestSchemaPatchTypeLifecycle(t *testing.T) {
	old, new_ := fixtureSchema(10), fixtureSchema(10)
	new_.NodeTypes = []jsonType{
		new_.NodeTypes[0], // Person survives
		{ID: 3, Labels: map[string]int{"Country": 2}, Token: "Country", Instances: 2}, // City replaced
	}
	new_.NodeTypes[0].Instances = 12 // head change
	new_.EdgeTypes = nil             // edge type merged away

	p := Diff(old, new_)
	if p == nil || p.Replace != nil {
		t.Fatalf("lifecycle diff fell back to replace (or found no change): %+v", p)
	}
	got, err := viaJSON(t, p).Apply(old)
	if err != nil {
		t.Fatal(err)
	}
	if string(marshal(t, got)) != string(marshal(t, new_)) {
		t.Fatalf("lifecycle patch:\n got %s\nwant %s", marshal(t, got), marshal(t, new_))
	}
}

// TestSchemaPatchFallback: bases the structural differ cannot model
// degrade to a replace patch that still applies exactly.
func TestSchemaPatchFallback(t *testing.T) {
	good := fixtureSchema(10)
	var null Persisted
	if err := json.Unmarshal([]byte("null"), &null); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		old  *Persisted
	}{
		{"old empty", &Persisted{}}, // an image without a schema member decodes to this
		{"old null", &null},
		{"old unknown version", &Persisted{Version: 99, NodeTypes: []jsonType{}, EdgeTypes: []jsonType{}}},
		{"old duplicate ids", &Persisted{Version: persistVersion, NodeTypes: []jsonType{{ID: 0, Instances: 1}, {ID: 0, Instances: 2}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Diff(tc.old, good)
			if p == nil || p.Replace == nil {
				t.Fatal("unpatchable base did not fall back to replace")
			}
			got, err := viaJSON(t, p).Apply(tc.old)
			if err != nil {
				t.Fatal(err)
			}
			if string(marshal(t, got)) != string(marshal(t, good)) {
				t.Fatal("replace patch does not carry the new schema")
			}
		})
	}
	// Duplicate IDs in the NEW schema are carried whole, too.
	dup := cases[3].old
	if p := Diff(good, dup); p == nil || p.Replace == nil {
		t.Fatal("unpatchable target did not fall back to replace")
	}
}

func TestSchemaPatchApplyRejects(t *testing.T) {
	good := fixtureSchema(5)
	if _, err := (&Patch{Version: 99}).Apply(good); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown patch version: %v", err)
	}
	// A structural patch against a base it does not describe: new
	// type ID with no head to build it from.
	if _, err := (&Patch{Version: patchVersion, NodeIDs: []int{42}}).Apply(good); err == nil || !strings.Contains(err.Error(), "no head") {
		t.Fatalf("headless new type: %v", err)
	}
	// A patch cannot apply to a base that is itself unpatchable.
	if _, err := (&Patch{Version: patchVersion, NodeIDs: []int{0}}).Apply(&Persisted{}); err == nil || !strings.Contains(err.Error(), "not patchable") {
		t.Fatalf("unpatchable base: %v", err)
	}
	// Malformed TEXT is refused where text is parsed — see
	// core.TestMalformedSchemaTextRefusedAtDecode. What reaches a Patch
	// from a file is a degree key, and only its canonical spelling does:
	// not version 1's decimal strings, not a gap of zero.
	for _, text := range []string{
		`{"version":2,"edgeIDs":[2],"edgeTypes":[{"id":2,"srcDegDel":["012"]}]}`,
		`{"version":2,"edgeIDs":[2],"edgeTypes":[{"id":2,"srcDegDel":[12,0]}]}`,
		`{"version":2,"edgeIDs":[2],"edgeTypes":[{"id":2,"dstDegSet":{"12":1}}]}`,
	} {
		var p Patch
		if err := json.Unmarshal([]byte(text), &p); err == nil {
			t.Fatalf("non-canonical degree key accepted: %s", text)
		}
	}
	// A version-1 patch is refused by its version.
	if _, err := (&Patch{Version: 1}).Apply(good); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 patch: %v", err)
	}
}

// TestDiffEqualIsNil: an unchanged schema yields no patch at all, from
// whichever side of a file the two values came.
func TestDiffEqualIsNil(t *testing.T) {
	a := fixtureSchema(20)
	if p := Diff(a, viaJSON(t, a)); p != nil {
		t.Fatalf("self-diff produced a patch: %+v", p)
	}
}
