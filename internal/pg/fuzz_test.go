package pg

import (
	"bytes"
	"encoding/json"
	"io"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadJSONL hardens the JSONL ingestion path: arbitrary input
// must never panic, and any input the one-shot loader accepts must
// stream identically through JSONLStream (same elements, no error) —
// the two paths share one decoder, and the fuzzer checks nothing has
// diverged around it.
func FuzzReadJSONL(f *testing.F) {
	f.Add(`{"kind":"node","id":1,"labels":["Person"],"props":{"name":{"t":"string","v":"Alice"},"age":{"t":"int","v":"30"}}}`)
	f.Add(`{"kind":"edge","id":1,"labels":["KNOWS"],"src":1,"dst":2,"props":{"since":{"t":"date","v":"2020-01-02"}}}`)
	f.Add(`{"kind":"node","id":2,"props":{"x":5,"y":1.5,"z":true,"s":"hi"}}`)
	// Malformed fixtures from the regression tests.
	f.Add(`{"kind":"node","id":1,"props":{"x":{"t":"float","v":"fast"}}}`)
	f.Add(`{"kind":"node","id":1,"props":{"x":{"t":"int","v":"5.5"}}}`)
	f.Add(`{"kind":"node","id":1,"props":{"x":{"t":"bool","v":"yes"}}}`)
	f.Add(`{"kind":"node","id":1,"props":{"x":{"t":"decimal","v":"5"}}}`)
	f.Add(`{"kind":"node","id":1,"props":{"x":null}}`)
	f.Add(`{"kind":"widget","id":1}`)
	f.Add(`{bad json`)
	f.Add("{\"kind\":\"node\",\"id\":7}\n{\"kind\":\"node\",\"id\":7}")
	f.Add("")

	f.Fuzz(func(t *testing.T, data string) {
		g, err := ReadJSONL(strings.NewReader(data), true)
		if err != nil {
			return
		}
		// One-shot accepted the input: the streamed path must agree.
		s := NewJSONLStream(strings.NewReader(data), 2)
		nodes, edges := 0, 0
		for {
			b, serr := s.Next()
			if serr == io.EOF {
				break
			}
			if serr != nil {
				t.Fatalf("one-shot accepted but stream rejected: %v\ninput: %q", serr, data)
			}
			nodes += b.Graph.NumNodes()
			edges += b.Graph.NumEdges()
		}
		if nodes != g.NumNodes() || edges != g.NumEdges() {
			t.Fatalf("stream saw %d/%d elements, one-shot %d/%d\ninput: %q",
				nodes, edges, g.NumNodes(), g.NumEdges(), data)
		}
		// Accepted graphs round-trip through the writer.
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, g); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		if _, err := ReadJSONL(&buf, true); err != nil {
			t.Fatalf("round-trip of accepted input failed: %v\ninput: %q", err, data)
		}
	})
}

// FuzzJSONLMatchesRef holds the hand-written codec in io.go to the
// encoding/json one kept in io_ref_test.go. On every input both readers
// accept it or both refuse it, at the same line; what they accept, the
// two writers encode to the same bytes. The exception is a line with a
// quirk encoding/json lets through and the reader refuses on purpose
// (jsonlQuirk): the reader refuses at the first such line, unless the
// reference refused an earlier one. The writers are also held to each
// other on a graph whose strings are the raw input, invalid UTF-8 and
// all, which no decoded graph holds; and ParseLexical to the one the
// reference used, on the raw input.
func FuzzJSONLMatchesRef(f *testing.F) {
	for _, seed := range jsonlQuirks {
		f.Add(seed.line)
	}
	f.Add(`{"kind":"node","id":1,"labels":["Person"],"props":{"name":{"t":"string","v":"Alice"},"age":{"t":"int","v":"30"}}}` + "\n" +
		`{"kind":"edge","id":1,"labels":["KNOWS"],"src":1,"dst":2,"props":{"since":{"t":"date","v":"2020-01-02"}}}`)
	f.Add(`{"kind":"node","id":2,"props":{"x":5,"y":1.5,"z":true,"s":"hi","d":"2020-01-02","n":-0,"e":1E400}}`)
	f.Add(`{"kind":"node","id":1,"props":{"x":{"t":"datetime","v":"2020-01-02 10:00:00"},"y":{"v":"7"},"z":{"t":"bool","v":"yes"}}}`)
	f.Add(" { \"kind\" : \"node\" , \"id\" : 3 , \"labels\" : [ \"a\\u003c\\/b\" ] } \r\n\n{\"kind\":\"node\",\"id\":3}")
	f.Add("{\"kind\":\"node\",\"id\":1,\"labels\":[\"\\ud83d\\ude00\\ud800\\u0041\\udc00\",\"\u2028<&>\x01\"]}")
	f.Add(`{"kind":"node","id":01}`)
	lexical := []string{"+5", "-", "+", ".5", "5.", "1e5", "1E+5", "9223372036854775808", "1e400", "0x1p-2", "0x_1p0", "1_000",
		"Inf", "-infinity", "+nan", "NaN", "infin", "TRUE", "2020-01-02", "2020-1-02", "2020-01-02T10:00:00Z",
		"2020-01-02T1:04:05+01:00", "2020-01-02 10:00:00", "2020-01-02T10:00:00.5Z", "20200-01-02", "x"}
	props := make([]string, len(lexical))
	for i, s := range lexical {
		f.Add(s)
		props[i] = strconv.Quote(s) + ":" + strconv.Quote(s)
	}
	f.Add(`{"kind":"node","id":1,"props":{` + strings.Join(props, ",") + `}}`)
	f.Add(`{"kind":"edge","id":1,"src":1,"dst":2}` + "\n" + `{"kind":"edge","id":1}`)

	f.Fuzz(func(t *testing.T, data string) {
		got, err := ReadJSONL(strings.NewReader(data), true)
		want, refErr := refReadJSONL(strings.NewReader(data), true)
		wantLine := errorLine(t, refErr)
		if q := jsonlQuirkLine(data); q > 0 && (refErr == nil || q < wantLine) {
			wantLine = q
		}
		if gotLine := errorLine(t, err); (err == nil) != (wantLine == 0) || gotLine != wantLine {
			t.Fatalf("reader: %v\nreference: %v (quirk line %d)\ninput: %q", err, refErr, jsonlQuirkLine(data), data)
		}
		if err == nil {
			assertSameJSONL(t, got, want)
		}

		if got, want := ParseLexical(data), refParseLexical(data); got.Kind() != want.Kind() || !got.Equal(want) {
			t.Fatalf("ParseLexical(%q) = %#v, reference %#v", data, got, want)
		}
		raw := NewGraph()
		raw.AllowDanglingEdges(true)
		_ = raw.PutNode(1, []string{data, "x"}, PropsOf(map[string]Value{data: Str(data), "k": ParseLexical(data)}))
		_ = raw.PutEdge(-1, []string{data}, 1, -1, PropsOf(map[string]Value{data: Float(float64(len(data)) / 3)}))
		assertSameJSONL(t, raw, raw)
	})
}

// assertSameJSONL fails unless WriteJSONL(got) and the reference
// writer's bytes for want are equal.
func assertSameJSONL(t *testing.T, got, want *Graph) {
	t.Helper()
	var gotB, wantB bytes.Buffer
	if err := WriteJSONL(&gotB, got); err != nil {
		t.Fatal(err)
	}
	if err := refWriteJSONL(&wantB, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotB.Bytes(), wantB.Bytes()) {
		t.Fatalf("writers differ:\n got  %q\n want %q", gotB.Bytes(), wantB.Bytes())
	}
}

var lineOfError = regexp.MustCompile(`^pg: line (\d+)[:,]`)

// errorLine is the line a reader's error names, or 0 for no error.
func errorLine(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	m := lineOfError.FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("error names no line: %v", err)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// jsonlQuirkLine is the first line, split as bufio.Scanner splits
// lines, with a quirk (jsonlQuirk), or 0.
func jsonlQuirkLine(data string) int {
	for i, line := range strings.Split(data, "\n") {
		if jsonlQuirk([]byte(strings.TrimSuffix(line, "\r"))) {
			return i + 1
		}
	}
	return 0
}

// jsonlQuirk reports whether encoding/json, reading line as an element,
// would let through what the reader refuses: a field name that is not
// one of the element's (a different case of one included), a name
// twice in one object, or a null label. It reads the line with
// encoding/json's own tokenizer, so it decodes names as the reference
// does.
func jsonlQuirk(line []byte) bool {
	if !json.Valid(line) {
		return false // the reference refuses it too
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	el, ok := readJSONTree(dec).([]jsonMember)
	if !ok {
		return false
	}
	if quirkyObject(el, "kind", "id", "labels", "src", "dst", "props") {
		return true
	}
	for _, m := range el {
		switch v := m.val.(type) {
		case []any:
			if m.key == "labels" && slices.Contains(v, nil) {
				return true
			}
		case []jsonMember:
			if m.key != "props" {
				continue
			}
			if quirkyObject(v) {
				return true
			}
			for _, p := range v {
				if tv, ok := p.val.([]jsonMember); ok && quirkyObject(tv, "t", "v") {
					return true
				}
			}
		}
	}
	return false
}

// quirkyObject reports whether obj repeats a name, or has one outside
// names when names are given.
func quirkyObject(obj []jsonMember, names ...string) bool {
	seen := map[string]bool{}
	for _, m := range obj {
		if seen[m.key] || (len(names) > 0 && !slices.Contains(names, m.key)) {
			return true
		}
		seen[m.key] = true
	}
	return false
}

// jsonMember is one name/value pair of an object, kept in order and
// with repeats.
type jsonMember struct {
	key string
	val any
}

// readJSONTree reads one value of valid JSON: an object as
// []jsonMember, an array as []any, a scalar as its token.
func readJSONTree(dec *json.Decoder) any {
	tok, err := dec.Token()
	if err != nil {
		panic(err) // the input is valid JSON
	}
	switch tok {
	case json.Delim('{'):
		var obj []jsonMember
		for dec.More() {
			key, _ := dec.Token()
			obj = append(obj, jsonMember{key.(string), readJSONTree(dec)})
		}
		_, _ = dec.Token()
		return obj
	case json.Delim('['):
		arr := []any{}
		for dec.More() {
			arr = append(arr, readJSONTree(dec))
		}
		_, _ = dec.Token()
		return arr
	}
	return tok
}

// FuzzPropsMatchMap holds Props to the map it replaced. The fuzzer
// writes a list of (key, value) pairs: the keys are list's lines, the
// values come from vals. The Props the JSONL decoder builds from a line
// holding those pairs, and the one PutNode keeps when handed them in
// that order, must each agree with a map model on Get, Len and iteration order (keys
// ascending), and each must be refused exactly when a key repeats.
func FuzzPropsMatchMap(f *testing.F) {
	f.Add("name\nage\nbio", []byte{1, 2, 3})
	f.Add("b\na\nb", []byte{7})
	f.Add("", []byte{})
	f.Add("\n\n", []byte{0})
	f.Add("z\ny\nx\nw\nv\nu\nt\ns\nr\nq\np\no\nn\nm", []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add("\xff\n\xfe\n\u2028\n<&>", []byte{2})

	f.Fuzz(func(t *testing.T, list string, vals []byte) {
		keys := strings.Split(list, "\n")
		pairs := make([]Prop, len(keys))
		for i, k := range keys {
			var b byte
			if len(vals) > 0 {
				b = vals[i%len(vals)]
			}
			var v Value
			switch b % 4 {
			case 0:
				v = Int(int64(b) - 100)
			case 1:
				v = Str(strings.Repeat(k, int(b%3)))
			case 2:
				v = Float(float64(b) / 3)
			default:
				v = Bool(b%8 == 3)
			}
			pairs[i] = Prop{Key: k, Val: v}
		}

		// The decoder reads keys as JSON strings, where each byte of
		// invalid UTF-8 becomes U+FFFD, as converting to runes does.
		line := []byte(`{"kind":"node","id":1,"props":{`)
		decoded := make([]Prop, len(pairs))
		for i, p := range pairs {
			if i > 0 {
				line = append(line, ',')
			}
			line = appendJSONValue(append(appendJSONString(line, p.Key), ':'), p.Val)
			decoded[i] = Prop{Key: string([]rune(p.Key)), Val: p.Val}
			if p.Val.Kind() == KindString {
				decoded[i].Val = Str(string([]rune(p.Val.AsString())))
			}
		}
		line = append(line, "}}\n"...)
		g, err := ReadJSONL(bytes.NewReader(line), false)
		var fromLine Props
		if err == nil {
			fromLine = g.Node(1).Props
		}
		assertPropsMatchMap(t, "decoder", decoded, fromLine, err)

		g = NewGraph()
		var put Props
		if err = g.PutNode(1, nil, slices.Clone(pairs)); err == nil {
			put = g.Node(1).Props
		}
		assertPropsMatchMap(t, "PutNode", pairs, put, err)
	})
}

// assertPropsMatchMap fails unless ps, built from pairs with error err,
// is what a map filled with pairs says: refused iff a key repeats, and
// otherwise the same keys, ascending, with the same values.
func assertPropsMatchMap(t *testing.T, name string, pairs []Prop, ps Props, err error) {
	t.Helper()
	model := map[string]Value{}
	repeats := false
	for _, p := range pairs {
		if _, ok := model[p.Key]; ok {
			repeats = true
		}
		model[p.Key] = p.Val
	}
	if repeats != (err != nil) {
		t.Fatalf("%s: error %v, but a key repeats: %v (pairs %v)", name, err, repeats, pairs)
	}
	if repeats {
		return
	}
	if ps.Len() != len(model) {
		t.Fatalf("%s: Len %d, map holds %d", name, ps.Len(), len(model))
	}
	want := make([]string, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	slices.Sort(want)
	var got []string
	for k, v := range ps.All() {
		got = append(got, k)
		if !v.Equal(model[k]) {
			t.Fatalf("%s: All yields %q = %#v, map holds %#v", name, k, v, model[k])
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: iteration order %q, want %q", name, got, want)
	}
	for k, v := range model {
		if got := ps.Get(k); !got.Equal(v) {
			t.Fatalf("%s: Get(%q) = %#v, map holds %#v", name, k, got, v)
		}
		if absent := k + "\x00"; model[absent].Kind() == KindInvalid && ps.Get(absent).IsValid() {
			t.Fatalf("%s: Get(%q) of an absent key is valid", name, absent)
		}
	}
}

// FuzzReadCSV hardens the CSV ingestion path: arbitrary node and
// relationship files must never panic (the historical failure mode:
// ragged rows indexing past the record), and whatever the one-shot
// node loader accepts must stream identically.
func FuzzReadCSV(f *testing.F) {
	f.Add("id:ID,:LABEL,age:int\n1,Person,30\n", ":START_ID,:END_ID,:TYPE\n1,1,KNOWS\n")
	// Malformed fixtures from the regression tests.
	f.Add("name,age:int,personId:ID\nAlice,30,1\nBob\n", ":START_ID,:END_ID\n1\n")
	f.Add("id:ID,active:boolean\n1,yes\n", "note,:START_ID,:END_ID\nx\n")
	f.Add("id:ID,age:itn\n1,30\n", ":START_ID,:END_ID,w:flaot\n1,1,2\n")
	f.Add("id:ID\n1\n1\n", ":START_ID,:END_ID\n1,99\n")
	f.Add("", "")

	f.Fuzz(func(t *testing.T, nodes, edges string) {
		g := NewGraph()
		g.AllowDanglingEdges(true)
		if _, err := ReadNodesCSV(strings.NewReader(nodes), g); err == nil {
			// One-shot accepted the node file: the streamed path must
			// accept it too and see the same node count.
			s := NewCSVStream([]io.Reader{strings.NewReader(nodes)}, nil, 2)
			got := 0
			for {
				b, serr := s.Next()
				if serr == io.EOF {
					break
				}
				if serr != nil {
					t.Fatalf("one-shot accepted nodes but stream rejected: %v\ninput: %q", serr, nodes)
				}
				got += b.Graph.NumNodes()
			}
			if got != g.NumNodes() {
				t.Fatalf("stream saw %d nodes, one-shot %d\ninput: %q", got, g.NumNodes(), nodes)
			}
		}
		// The edge loader must not panic regardless of either file's
		// validity (dangling endpoints allowed here; strict endpoint
		// checks are covered by unit tests).
		_, _ = ReadEdgesCSV(strings.NewReader(edges), g)
	})
}
