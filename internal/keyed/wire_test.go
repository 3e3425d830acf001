package keyed

import (
	"encoding/json"
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"
)

type id int64

// TestWireForm pins the two spellings and their round trip through
// encoding/json, which is how images and runs carry them.
func TestWireForm(t *testing.T) {
	ids := IDs[id]{10000017, 10000018, 10000019, 10000022}
	m := Map[id]{7: 3, 9: 3, 12: 1, -4: 0}
	for _, c := range []struct {
		v    any
		want string
	}{
		{ids, `[10000017,1,1,3]`},
		{m, `[{"v":0,"ids":[-4]},{"v":1,"ids":[12]},{"v":3,"ids":[7,2]}]`},
		{IDs[id]{math.MinInt64, math.MaxInt64}, `[-9223372036854775808,18446744073709551615]`},
		{IDs[id](nil), `[]`},
		{Map[id](nil), `[]`},
	} {
		got, err := json.Marshal(c.v)
		if err != nil || string(got) != c.want {
			t.Fatalf("%v: got %s (%v), want %s", c.v, got, err, c.want)
		}
	}

	var holder struct {
		Dels IDs[id] `json:"dels,omitempty"`
		Puts Map[id] `json:"puts,omitempty"`
	}
	if b, _ := json.Marshal(holder); string(b) != `{}` {
		t.Fatalf("empty collections must be absent, got %s", b)
	}
	holder.Dels, holder.Puts = ids, m
	b, err := json.Marshal(holder)
	if err != nil {
		t.Fatal(err)
	}
	holder.Dels, holder.Puts = nil, nil
	if err := json.Unmarshal(b, &holder); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(holder.Dels, ids) || !maps.Equal(holder.Puts, m) {
		t.Fatalf("round trip through %s gave %v / %v", b, holder.Dels, holder.Puts)
	}

	if _, err := json.Marshal(IDs[id]{3, 3}); err == nil {
		t.Fatal("a list that does not ascend must not encode")
	}
}

// refusals are spellings no encoder writes; every one must be refused.
var refusals = []struct{ why, ids, m string }{
	{why: "gap zero", ids: `[5,0]`, m: `[{"v":1,"ids":[5,0]}]`},
	{why: "negative gap", ids: `[5,-1]`, m: `[{"v":1,"ids":[5,-1]}]`},
	{why: "int64 overflow", ids: `[9223372036854775807,1]`, m: `[{"v":1,"ids":[9223372036854775800,8]}]`},
	{why: "first ID overflows", ids: `[9223372036854775808]`, m: `[{"v":1,"ids":[-9223372036854775809]}]`},
	{why: "gap overflows uint64", ids: `[0,18446744073709551616]`},
	{why: "value overflows", m: `[{"v":9223372036854775808,"ids":[1]}]`},
	{why: "groups out of order", m: `[{"v":2,"ids":[1]},{"v":1,"ids":[2]}]`},
	{why: "group repeated", m: `[{"v":1,"ids":[1]},{"v":1,"ids":[2]}]`},
	{why: "empty group", m: `[{"v":1,"ids":[]}]`},
	{why: "ID in two groups", m: `[{"v":1,"ids":[4]},{"v":2,"ids":[1,3]}]`},
	{why: "leading zero", ids: `[07]`, m: `[{"v":01,"ids":[7]}]`},
	{why: "negative zero", ids: `[-0]`, m: `[{"v":-0,"ids":[7]}]`},
	{why: "plus sign", ids: `[+7]`, m: `[{"v":1,"ids":[7,+1]}]`},
	{why: "whitespace", ids: `[7, 1]`, m: `[ {"v":1,"ids":[7]}]`},
	{why: "keys reordered", m: `[{"ids":[7],"v":1}]`},
	{why: "fraction", ids: `[7.0]`, m: `[{"v":1.5,"ids":[7]}]`},
	{why: "trailing bytes", ids: `[7]x`, m: `[]]`},
	{why: "truncated", ids: `[7,`, m: `[{"v":1,"ids":[7]}`},
	{why: "null", ids: `null`, m: `null`},
	{why: "object", ids: `{}`, m: `{"7":1}`},
	{why: "empty input", ids: ``, m: ``},
}

func TestWireFormRefuses(t *testing.T) {
	for _, c := range refusals {
		if c.ids != "" || c.why == "empty input" {
			if got, err := parseIDs[id]([]byte(c.ids)); err == nil {
				t.Errorf("%s: parseIDs(%s) accepted %v", c.why, c.ids, got)
			}
		}
		if c.m != "" || c.why == "empty input" {
			if got, err := parseMap[id]([]byte(c.m)); err == nil {
				t.Errorf("%s: parseMap(%s) accepted %v", c.why, c.m, got)
			}
		}
	}
}

// FuzzWireForm: the decoders read hostile bytes. They must not panic,
// must allocate no more than a constant factor of the input, and what
// they accept must re-encode to the same bytes — one spelling per value.
func FuzzWireForm(f *testing.F) {
	f.Add([]byte(`[]`))
	f.Add([]byte(`[10000017,1,1,3]`))
	f.Add([]byte(`[-9223372036854775808,18446744073709551615]`))
	f.Add([]byte(`[{"v":0,"ids":[-4]},{"v":1,"ids":[12]},{"v":3,"ids":[7,2]}]`))
	for _, c := range refusals {
		f.Add([]byte(c.ids))
		f.Add([]byte(c.m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ids, idsErr := parseIDs[id](data)
		m, mErr := parseMap[id](data)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), grew, limit)
		}
		if idsErr == nil {
			if got, err := ids.MarshalJSON(); err != nil || string(got) != string(data) {
				t.Fatalf("IDs %s re-encode as %s (%v)", data, got, err)
			}
		}
		if mErr == nil {
			if got, err := m.MarshalJSON(); err != nil || string(got) != string(data) {
				t.Fatalf("Map %s re-encodes as %s (%v)", data, got, err)
			}
		}
	})
}
