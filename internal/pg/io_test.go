package pg

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// randomValue draws a value of any kind, biased toward the lexical
// edge cases that used to break round-trips (numeric strings, float
// values with integral lexical forms).
func randomValue(r *rand.Rand) Value {
	switch r.Intn(8) {
	case 0:
		return Int(r.Int63() - r.Int63())
	case 1:
		return Float(r.NormFloat64() * math.Pow(10, float64(r.Intn(20)-10)))
	case 2:
		// Floats whose lexical form looks like an int ("5"): the
		// historical tag-ignoring bug collapsed these to KindInt.
		return Float(float64(r.Intn(1000)))
	case 3:
		return Bool(r.Intn(2) == 0)
	case 4:
		return Date(time.Unix(r.Int63n(4e9), 0))
	case 5:
		return DateTime(time.Unix(r.Int63n(4e9), 0))
	case 6:
		// Strings that look like other kinds must stay strings.
		return Str([]string{"5", "1.5", "true", "2020-01-02", "", "héllo\nworld"}[r.Intn(6)])
	default:
		// Arbitrary valid-UTF-8 strings (JSON cannot carry invalid
		// UTF-8 losslessly, so that is out of the contract's scope).
		rs := make([]rune, r.Intn(12))
		for i := range rs {
			rs[i] = rune(r.Intn(0xD7FF) + 1)
		}
		return Str(string(rs))
	}
}

// Property: every Kind survives Write→Read exactly — the tagged wire
// format preserves both kind and payload for arbitrary values.
func TestJSONLKindFidelity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph()
		props := map[string]Value{}
		for i := 0; i < 1+r.Intn(8); i++ {
			props[string(rune('a'+i))] = randomValue(r)
		}
		g.AddNode([]string{"T"}, props)

		var buf bytes.Buffer
		if err := WriteJSONL(&buf, g); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		got, err := ReadJSONL(&buf, false)
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		have := got.Node(0)
		if have == nil || len(have.Props) != len(props) {
			return false
		}
		for k, want := range props {
			v := have.Props.Get(k)
			if v.Kind() != want.Kind() {
				t.Logf("prop %q: kind %v -> %v (lexical %q)", k, want.Kind(), v.Kind(), want.Lexical())
				return false
			}
			if !v.Equal(want) {
				t.Logf("prop %q: %#v -> %#v", k, want, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Regression: the type tag is authoritative. {"t":"float","v":"5"}
// used to round-trip as KindInt via lexical inference, violating the
// "round-trips preserve kinds exactly" contract.
func TestJSONLFloatTagPreserved(t *testing.T) {
	in := `{"kind":"node","id":1,"labels":["T"],"props":{"x":{"t":"float","v":"5"}}}` + "\n"
	g, err := ReadJSONL(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	v := g.Node(1).Props.Get("x")
	if v.Kind() != KindFloat {
		t.Fatalf("float tag ignored: got kind %v, want DOUBLE", v.Kind())
	}
	if v.AsFloat() != 5 {
		t.Fatalf("value = %v, want 5", v.AsFloat())
	}
}

// Tag/value mismatches are line-numbered errors, not silent
// re-inference.
func TestJSONLTagMismatchErrors(t *testing.T) {
	cases := []struct {
		name, val string
	}{
		{"int-fraction", `{"t":"int","v":"5.5"}`},
		{"int-text", `{"t":"int","v":"five"}`},
		{"float-text", `{"t":"float","v":"fast"}`},
		{"bool-yes", `{"t":"bool","v":"yes"}`},
		{"bool-one", `{"t":"bool","v":"1"}`},
		{"bool-TRUE", `{"t":"bool","v":"TRUE"}`},
		{"date-malformed", `{"t":"date","v":"not-a-date"}`},
		{"date-datetime", `{"t":"date","v":"2020-01-02T10:00:00Z"}`},
		{"datetime-malformed", `{"t":"datetime","v":"yesterday"}`},
		{"unknown-tag", `{"t":"decimal","v":"5"}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := `{"kind":"node","id":1}` + "\n" +
				`{"kind":"node","id":2,"props":{"x":` + c.val + `}}` + "\n"
			_, err := ReadJSONL(strings.NewReader(in), false)
			if err == nil {
				t.Fatalf("value %s must be rejected", c.val)
			}
			if !strings.Contains(err.Error(), "line 2") {
				t.Errorf("error must carry the line number, got: %v", err)
			}
			if !strings.Contains(err.Error(), `"x"`) {
				t.Errorf("error must name the property, got: %v", err)
			}
		})
	}
}

// Untagged plain JSON scalars are accepted: numbers map to int/float,
// booleans to bool, strings go through ParseLexical inference.
func TestJSONLUntaggedValues(t *testing.T) {
	in := `{"kind":"node","id":1,"props":{"i":5,"f":1.25,"b":true,"s":"hello","d":"2020-01-02","e":2e3}}` + "\n"
	g, err := ReadJSONL(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	p := g.Node(1).Props
	if p.Get("i").Kind() != KindInt || p.Get("i").AsInt() != 5 {
		t.Errorf("i = %#v, want Int 5", p.Get("i"))
	}
	if p.Get("f").Kind() != KindFloat || p.Get("f").AsFloat() != 1.25 {
		t.Errorf("f = %#v, want Float 1.25", p.Get("f"))
	}
	if p.Get("e").Kind() != KindFloat || p.Get("e").AsFloat() != 2000 {
		t.Errorf("e = %#v, want Float 2000", p.Get("e"))
	}
	if p.Get("b").Kind() != KindBool || !p.Get("b").AsBool() {
		t.Errorf("b = %#v, want Bool true", p.Get("b"))
	}
	if p.Get("s").Kind() != KindString || p.Get("s").AsString() != "hello" {
		t.Errorf("s = %#v, want Str hello", p.Get("s"))
	}
	if p.Get("d").Kind() != KindDate {
		t.Errorf("d = %#v, want Date (untagged strings run lexical inference)", p.Get("d"))
	}
	if _, err := ReadJSONL(strings.NewReader(`{"kind":"node","id":1,"props":{"x":null}}`+"\n"), false); err == nil {
		t.Error("null property value must be rejected")
	}
}

// The tagless object form {"v":"..."} keeps its historical meaning:
// string, never inference (a hand-written zip code "02134" must not
// collapse to Int(2134)).
func TestJSONLTaglessObjectStaysString(t *testing.T) {
	in := `{"kind":"node","id":1,"props":{"zip":{"v":"02134"}}}` + "\n"
	g, err := ReadJSONL(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	v := g.Node(1).Props.Get("zip")
	if v.Kind() != KindString || v.AsString() != "02134" {
		t.Fatalf("tagless object value = %#v, want Str(\"02134\")", v)
	}
}

// jsonlQuirks are the decisions the reader takes where encoding/json,
// which read JSONL before it, had a quirk. Each line is read by the
// reader and by the reference kept in io_ref_test.go: want is what the
// reader makes of it and ref what the reference made of it, as the
// JSONL WriteJSONL writes back, "" for a refusal.
//
// The reader refuses what encoding/json let through with a guess:
// field names in another case, names it does not know, a name twice
// in one object, a null label. It keeps what is plain JSON: null for a
// field is the field left out, an ID is an integer literal, \u escapes
// and invalid UTF-8 decode as encoding/json decodes them.
var jsonlQuirks = []struct {
	name, line, want, ref string
}{
	{"field name in another case", `{"Kind":"node","ID":1}`,
		"", `{"kind":"node","id":1}`},
	{"field name folding to one", "{\"kind\":\"node\",\"id\":1,\"label\u017f\":[\"A\"]}",
		"", `{"kind":"node","id":1,"labels":["A"]}`},
	{"tag field name in another case", `{"kind":"node","id":1,"props":{"x":{"T":"int","V":"5"}}}`,
		"", `{"kind":"node","id":1,"props":{"x":{"t":"int","v":"5"}}}`},
	{"duplicate field", `{"kind":"node","id":1,"id":2}`,
		"", `{"kind":"node","id":2}`},
	{"duplicate props merge", `{"kind":"node","id":1,"props":{"a":1},"props":{"b":2}}`,
		"", `{"kind":"node","id":1,"props":{"a":{"t":"int","v":"1"},"b":{"t":"int","v":"2"}}}`},
	{"duplicate property", `{"kind":"node","id":1,"props":{"a":1,"a":2}}`,
		"", `{"kind":"node","id":1,"props":{"a":{"t":"int","v":"2"}}}`},
	{"duplicate tag", `{"kind":"node","id":1,"props":{"a":{"t":"int","t":"float","v":"5"}}}`,
		"", `{"kind":"node","id":1,"props":{"a":{"t":"float","v":"5"}}}`},
	{"unknown field", `{"kind":"node","id":1,"lables":["A"]}`,
		"", `{"kind":"node","id":1}`},
	{"unknown tag field", `{"kind":"node","id":1,"props":{"a":{"t":"int","v":"5","unit":"kg"}}}`,
		"", `{"kind":"node","id":1,"props":{"a":{"t":"int","v":"5"}}}`},
	{"null label", `{"kind":"node","id":1,"labels":["A",null]}`,
		"", `{"kind":"node","id":1,"labels":["","A"]}`},
	{"null labels and props", `{"kind":"node","id":1,"labels":null,"props":null}`,
		`{"kind":"node","id":1}`, `{"kind":"node","id":1}`},
	{"null id", `{"kind":"node","id":null,"labels":["A"]}`,
		`{"kind":"node","id":0,"labels":["A"]}`, `{"kind":"node","id":0,"labels":["A"]}`},
	{"null tag and value", `{"kind":"node","id":1,"props":{"a":{"t":null,"v":null}}}`,
		`{"kind":"node","id":1,"props":{"a":{"t":"string","v":""}}}`, `{"kind":"node","id":1,"props":{"a":{"t":"string","v":""}}}`},
	{"null kind", `{"kind":null,"id":1}`, "", ""},
	{"id 1.0", `{"kind":"node","id":1.0}`, "", ""},
	{"id 1e3", `{"kind":"node","id":1e3}`, "", ""},
	{"id past int64", `{"kind":"node","id":9223372036854775808}`, "", ""},
	{"id -0", `{"kind":"node","id":-0}`,
		`{"kind":"node","id":0}`, `{"kind":"node","id":0}`},
	{"untagged number forms", `{"kind":"node","id":1,"props":{"a":-0,"b":1.0,"c":1e3,"d":9223372036854775808}}`,
		`{"kind":"node","id":1,"props":{"a":{"t":"int","v":"0"},"b":{"t":"float","v":"1"},"c":{"t":"float","v":"1000"},"d":{"t":"float","v":"9.223372036854776e+18"}}}`,
		`{"kind":"node","id":1,"props":{"a":{"t":"int","v":"0"},"b":{"t":"float","v":"1"},"c":{"t":"float","v":"1000"},"d":{"t":"float","v":"9.223372036854776e+18"}}}`},
	{"surrogate pair", `{"kind":"node","id":1,"labels":["\ud83d\ude00"]}`,
		"{\"kind\":\"node\",\"id\":1,\"labels\":[\"\U0001F600\"]}", "{\"kind\":\"node\",\"id\":1,\"labels\":[\"\U0001F600\"]}"},
	{"lone surrogates", `{"kind":"node","id":1,"labels":["\ud800A\udc00\ud83d"]}`,
		"{\"kind\":\"node\",\"id\":1,\"labels\":[\"\ufffdA\ufffd\ufffd\"]}", "{\"kind\":\"node\",\"id\":1,\"labels\":[\"\ufffdA\ufffd\ufffd\"]}"},
	{"invalid UTF-8", "{\"kind\":\"node\",\"id\":1,\"labels\":[\"a\xffb\xed\xa0\x80\"]}",
		"{\"kind\":\"node\",\"id\":1,\"labels\":[\"a\ufffdb\ufffd\ufffd\ufffd\"]}", "{\"kind\":\"node\",\"id\":1,\"labels\":[\"a\ufffdb\ufffd\ufffd\ufffd\"]}"},
	{"invalid UTF-8 outside a string", "{\"kind\":\"node\",\"id\":1}\xff", "", ""},
}

// TestJSONLQuirks pins each decision in jsonlQuirks, for the reader and
// for the reference, so the table shows where the two part.
func TestJSONLQuirks(t *testing.T) {
	read := func(read func(io.Reader, bool) (*Graph, error), line string) string {
		g, err := read(strings.NewReader(line), true)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "pg: line 1") {
				t.Errorf("error names no line: %v", err)
			}
			return ""
		}
		var b bytes.Buffer
		if err := WriteJSONL(&b, g); err != nil {
			t.Fatal(err)
		}
		return strings.TrimSuffix(b.String(), "\n")
	}
	for _, q := range jsonlQuirks {
		t.Run(q.name, func(t *testing.T) {
			if got := read(ReadJSONL, q.line); got != q.want {
				t.Errorf("reader: %q, want %q", got, q.want)
			}
			if got := read(refReadJSONL, q.line); got != q.ref {
				t.Errorf("reference: %q, want %q", got, q.ref)
			}
		})
	}
}

// WriteJSONL writes a string that is not UTF-8 as encoding/json did:
// each invalid byte as the escape \ufffd, which reads back as U+FFFD.
func TestWriteJSONLInvalidUTF8(t *testing.T) {
	g := NewGraph()
	g.AddNode([]string{"a\xffb"}, map[string]Value{"k\xfe": Str("\xc0<\u2028>")})
	var got, want bytes.Buffer
	if err := WriteJSONL(&got, g); err != nil {
		t.Fatal(err)
	}
	if err := refWriteJSONL(&want, g); err != nil {
		t.Fatal(err)
	}
	const line = `{"kind":"node","id":0,"labels":["a\ufffdb"],"props":{"k\ufffd":{"t":"string","v":"\ufffd\u003c\u2028\u003e"}}}` + "\n"
	if got.String() != line || want.String() != line {
		t.Fatalf("wrote %q, reference %q, want %q", got.String(), want.String(), line)
	}
}

// A line over the 16 MiB cap is refused with its line number, like
// every other refusal.
func TestJSONLOverlongLineNamesLine(t *testing.T) {
	in := `{"kind":"node","id":1}` + "\n" + `{"kind":"node","id":2,"labels":["` + strings.Repeat("a", 1<<24) + `"]}` + "\n"
	_, err := ReadJSONL(strings.NewReader(in), true)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("ReadJSONL: %v, want an error naming line 2", err)
	}
}
