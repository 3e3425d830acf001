package pg

// io.go is the JSONL interchange format: one JSON object per line,
//
//	{"kind":"node","id":1,"labels":["Person"],"props":{"age":{"t":"int","v":"30"}}}
//	{"kind":"edge","id":1,"labels":["KNOWS"],"src":1,"dst":2}
//
// Property values are written with an explicit type tag so round-trips
// preserve kinds exactly; untagged plain JSON values (strings, numbers,
// booleans) are also accepted on input — JSON strings are inferred
// with the ParseLexical priority rules, numbers map to int or float,
// booleans to bool.
//
// Both directions work on a line's bytes directly. The writer appends
// each line to one reused buffer, byte for byte what encoding/json
// writes for the same element. The reader makes one pass over a line,
// interns label and property-key strings across lines, cuts every
// property string of a line out of one allocation and builds the
// line's Props in one more, sized to its properties. It accepts what
// encoding/json accepted before it, except where encoding/json
// guessed: a field name in another case, an unknown field, a name
// twice in one object and a null label are refused (README,
// TestJSONLQuirks).

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// WriteJSONL serializes the graph as one JSON object per line: all
// nodes first, then all edges. The format is the library's native
// interchange format for the CLI, and the nodes-before-edges order is
// what makes streamed re-ingestion (JSONLStream) resolve every edge
// endpoint from elements already seen.
//
// A line holds kind, id, labels, src, dst and props in that order,
// leaves out labels, src, dst and props when they are empty or zero,
// sorts property keys, and escapes strings as encoding/json does:
// HTML-safe, with U+2028 and U+2029 escaped and invalid UTF-8 as
// \ufffd.
func WriteJSONL(w io.Writer, g *Graph) error {
	e := jsonlEncoder{w: w, buf: make([]byte, 0, 4<<10)}
	for i := range g.Nodes() {
		n := &g.Nodes()[i]
		e.element(`{"kind":"node","id":`, n.ID, n.Labels, 0, 0, n.Props)
		if err := e.flush(jsonlFlushAt); err != nil {
			return err
		}
	}
	for i := range g.Edges() {
		ed := &g.Edges()[i]
		e.element(`{"kind":"edge","id":`, ed.ID, ed.Labels, ed.Src, ed.Dst, ed.Props)
		if err := e.flush(jsonlFlushAt); err != nil {
			return err
		}
	}
	return e.flush(1)
}

// jsonlFlushAt is how many encoded bytes WriteJSONL gathers before it
// hands them to its writer.
const jsonlFlushAt = 32 << 10

type jsonlEncoder struct {
	w   io.Writer
	buf []byte
}

// flush writes the buffer out once it holds at least atLeast bytes.
func (e *jsonlEncoder) flush(atLeast int) error {
	if len(e.buf) < atLeast {
		return nil
	}
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

func (e *jsonlEncoder) element(head string, id ID, labels []string, src, dst ID, props Props) {
	b := append(e.buf, head...)
	b = strconv.AppendInt(b, int64(id), 10)
	if len(labels) > 0 {
		b = append(b, `,"labels":[`...)
		for i, l := range labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, l)
		}
		b = append(b, ']')
	}
	if src != 0 {
		b = append(b, `,"src":`...)
		b = strconv.AppendInt(b, int64(src), 10)
	}
	if dst != 0 {
		b = append(b, `,"dst":`...)
		b = strconv.AppendInt(b, int64(dst), 10)
	}
	if len(props) > 0 {
		b = append(b, `,"props":{`...)
		for i, p := range props {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, p.Key)
			b = appendJSONValue(append(b, ':'), p.Val)
		}
		b = append(b, '}')
	}
	e.buf = append(b, '}', '\n')
}

// appendJSONValue appends v's tagged wire form, {"t":tag,"v":lexical};
// the zero Value is written as an empty string. Only a string's
// lexical form can hold a byte JSON escapes; the others are digits,
// signs, letters and '.', ':', '-', '+'.
func appendJSONValue(b []byte, v Value) []byte {
	kind := v.kind
	if kind == KindInvalid {
		kind = KindString
	}
	b = append(b, `{"t":"`...)
	b = append(b, tagNames[kind]...)
	b = append(b, `","v":`...)
	if kind == KindString {
		return append(appendJSONString(b, v.str), '}')
	}
	b = append(b, '"')
	switch kind {
	case KindInt:
		b = strconv.AppendInt(b, v.num, 10)
	case KindFloat:
		b = strconv.AppendFloat(b, v.float(), 'g', -1, 64)
	case KindBool:
		b = strconv.AppendBool(b, v.num != 0)
	case KindDate:
		b = v.AsTime().AppendFormat(b, "2006-01-02")
	case KindDateTime:
		b = v.AsTime().AppendFormat(b, time.RFC3339)
	}
	return append(b, '"', '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted the way encoding/json's default
// (HTML-escaping) encoder quotes it.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// fromJSONValue parses a typed wire value strictly per its type tag:
// a value whose lexical form does not belong to the tagged kind is a
// tag/value mismatch error, never silently re-inferred — so kinds
// survive round-trips exactly (a "float" 5 stays DOUBLE, it does not
// collapse to INT via lexical inference). A "string" value needs no
// parsing, so tag is never KindString; v is not retained, so the
// caller may hand in a view of its scratch.
func fromJSONValue(tag Kind, v string) (Value, error) {
	switch tag {
	case KindInt:
		if i, err := strconv.ParseInt(v, 10, 64); err == nil {
			return Int(i), nil
		}
	case KindFloat:
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return Float(f), nil
		}
	case KindBool:
		switch v {
		case "true":
			return Bool(true), nil
		case "false":
			return Bool(false), nil
		}
	case KindDate:
		if t, err := time.Parse("2006-01-02", v); err == nil {
			return Date(t), nil
		}
	case KindDateTime:
		if t, err := time.Parse(time.RFC3339, v); err == nil {
			return DateTime(t), nil
		}
		if t, err := time.Parse("2006-01-02 15:04:05", v); err == nil {
			return DateTime(t), nil
		}
	}
	return Value{}, fmt.Errorf("value %q does not match type tag %q", strings.Clone(v), tagNames[tag])
}

// tagNames are the wire type tags, by the kind each names.
var tagNames = [...]string{
	KindInt:      "int",
	KindFloat:    "float",
	KindBool:     "bool",
	KindDate:     "date",
	KindDateTime: "datetime",
	KindString:   "string",
}

// tagKind is the kind a wire type tag names. The tagless object form
// {"v":"..."} has always meant string (only plain JSON scalars go
// through inference), so existing hand-written files keep their kinds.
func tagKind(tag []byte) (Kind, bool) {
	if len(tag) == 0 {
		return KindString, true
	}
	for k, name := range tagNames {
		if name != "" && name == string(tag) {
			return Kind(k), true
		}
	}
	return KindInvalid, false
}

// jsonlElement is one decoded JSONL line: the raw wire element plus
// its properties converted to typed values. labels is the decoder's
// scratch, valid until the next line; the graph copies it.
type jsonlElement struct {
	kind   string // "node" | "edge"
	id     ID
	labels []string
	src    ID
	dst    ID
	props  Props
}

// jsonlDecoder decodes the JSONL wire format one element at a time,
// tracking line numbers for errors. It is the single record→element
// decoding path shared by the one-shot loader (ReadJSONL) and the
// streaming loader (JSONLStream), so both accept exactly the same
// inputs and reject exactly the same malformed lines.
type jsonlDecoder struct {
	sc    *bufio.Scanner
	line  int
	names map[string]string // interned labels and property keys

	// The line being decoded, and scratch reused from line to line.
	data   []byte
	pos    int
	labels []string
	props  []jsonlProp
	text   []byte // the line's property value strings, unescaped
	lits   []byte // the text of the line's other property values
	name   []byte // the string being read
}

// jsonlProp is a property of the line being decoded. Its value is made
// once the whole line is read, from text[start:end] if text is set and
// from lits[start:end] if not, so that the line's string values can be
// cut out of one string. It is kept small: a line may hold a property
// every five bytes, and this scratch is what such a line costs most.
type jsonlProp struct {
	key        string
	start, end int32
	text       bool
	// In text, KindString, or KindInvalid for a plain JSON string to
	// infer with ParseLexical; in lits, the wire type tag (KindBool for
	// a plain JSON boolean), or KindInvalid for a plain JSON number.
	tag Kind
}

// maxInterned bounds the intern table, so a stream that keeps
// inventing names does not keep them after the graph lets them go.
const maxInterned = 1 << 12

func newJSONLDecoder(r io.Reader) *jsonlDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	return &jsonlDecoder{sc: sc, names: map[string]string{}}
}

// next decodes the next non-empty line, or returns io.EOF at the end
// of the stream. Errors carry the 1-based line number.
func (d *jsonlDecoder) next() (jsonlElement, error) {
	for d.sc.Scan() {
		d.line++
		if len(d.sc.Bytes()) == 0 {
			continue
		}
		el, err := d.decode(d.sc.Bytes())
		if err != nil {
			return jsonlElement{}, fmt.Errorf("pg: line %d: %w", d.line, err)
		}
		return el, nil
	}
	if err := d.sc.Err(); err != nil {
		// The scanner stopped inside the line after the last one read:
		// one over the length cap, or one the reader failed to deliver.
		return jsonlElement{}, fmt.Errorf("pg: line %d: %w", d.line+1, err)
	}
	return jsonlElement{}, io.EOF
}

// The members of an element's object, and of a tagged value's.
var (
	elementFields = []string{"kind", "id", "labels", "src", "dst", "props"}
	valueFields   = []string{"t", "v"}
)

// decode reads one line.
func (d *jsonlDecoder) decode(line []byte) (el jsonlElement, err error) {
	d.data, d.pos = line, 0
	d.labels, d.props, d.text, d.lits = d.labels[:0], d.props[:0], d.text[:0], d.lits[:0]
	err = d.object(elementFields, func(field int) (err error) {
		switch field {
		case 0:
			el.kind, err = d.kind()
		case 1:
			el.id, err = d.int64()
		case 2:
			err = d.labelList()
		case 3:
			el.src, err = d.int64()
		case 4:
			el.dst, err = d.int64()
		case 5:
			err = d.propList()
		}
		return err
	})
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return el, err
	}
	if el.kind == "" {
		return el, fmt.Errorf("unknown element kind %q", "")
	}
	el.labels = d.labels
	el.props, err = d.buildProps()
	return el, err
}

// object reads a JSON object whose member names are among names, none
// twice, and has member read the value of each, by its name's index.
// A member whose value is null is absent.
func (d *jsonlDecoder) object(names []string, member func(int) error) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	for seen := 0; !d.accept('}'); {
		if seen != 0 {
			if err := d.expect(','); err != nil {
				return err
			}
		}
		if err := d.str(); err != nil {
			return err
		}
		i := slices.Index(names, string(d.name))
		if i < 0 {
			return d.fail(fmt.Sprintf("unknown field %q", d.name))
		}
		if seen&(1<<i) != 0 {
			return d.fail(fmt.Sprintf("duplicate field %q", d.name))
		}
		seen |= 1 << i
		if err := d.expect(':'); err != nil {
			return err
		}
		if d.literal("null") {
			continue
		}
		if err := member(i); err != nil {
			return err
		}
	}
	return nil
}

// buildProps builds the line's Props. It sorts the line's properties
// by key and refuses a name given twice before it allocates anything,
// then cuts the string values out of one string holding all of the
// line's text, parses the others, and fills one slice sized to the
// line.
func (d *jsonlDecoder) buildProps() (Props, error) {
	if len(d.props) == 0 {
		return nil, nil
	}
	if k, dup := sortUnique(d.props, func(p jsonlProp) string { return p.key }); dup {
		return nil, fmt.Errorf("duplicate property %q", k)
	}
	var text string
	if len(d.text) > 0 {
		text = string(d.text)
	}
	ps := make(Props, len(d.props))
	for i := range d.props {
		p := &d.props[i]
		var v Value
		var err error
		switch {
		case p.text && p.tag == KindString:
			v = Str(text[p.start:p.end])
		case p.text:
			v = ParseLexical(text[p.start:p.end])
		case p.tag == KindInvalid:
			v, err = numberValue(string(d.lits[p.start:p.end]))
		default:
			v, err = fromJSONValue(p.tag, string(d.lits[p.start:p.end]))
		}
		if err != nil {
			return nil, fmt.Errorf("property %q: %w", p.key, err)
		}
		ps[i] = Prop{Key: p.key, Val: v}
	}
	return ps, nil
}

// numberValue is the value of a plain JSON number: an int if it has
// no fraction or exponent and fits, a float if not.
func numberValue(lit string) (Value, error) {
	if mayBeInt(lit) {
		if i, err := strconv.ParseInt(lit, 10, 64); err == nil {
			return Int(i), nil
		}
	}
	if f, err := strconv.ParseFloat(lit, 64); err == nil {
		return Float(f), nil
	}
	return Value{}, fmt.Errorf("number %s is out of range", strings.Clone(lit))
}

func (d *jsonlDecoder) kind() (string, error) {
	if err := d.str(); err != nil {
		return "", err
	}
	switch string(d.name) {
	case "node":
		return "node", nil
	case "edge":
		return "edge", nil
	}
	return "", fmt.Errorf("unknown element kind %q", d.name)
}

func (d *jsonlDecoder) int64() (ID, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	i, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		return 0, d.fail(fmt.Sprintf("%s is not an int64", lit))
	}
	return ID(i), nil
}

func (d *jsonlDecoder) labelList() error {
	if err := d.expect('['); err != nil {
		return err
	}
	if d.accept(']') {
		return nil
	}
	for {
		if err := d.str(); err != nil {
			return err
		}
		d.labels = append(d.labels, d.intern(d.name))
		if d.accept(']') {
			return nil
		}
		if err := d.expect(','); err != nil {
			return err
		}
	}
}

func (d *jsonlDecoder) propList() error {
	if err := d.expect('{'); err != nil {
		return err
	}
	if d.accept('}') {
		return nil
	}
	for {
		if err := d.str(); err != nil {
			return err
		}
		p := jsonlProp{key: d.intern(d.name)}
		if err := d.expect(':'); err != nil {
			return err
		}
		if err := d.propValue(&p); err != nil {
			return fmt.Errorf("property %q: %w", p.key, err)
		}
		// Doubled as it fills, the scratch has cost at most four entries
		// for each property of the longest line; append, which grows a
		// long slice by a quarter at a time, would cost about six.
		if len(d.props) == cap(d.props) {
			d.props = append(make([]jsonlProp, 0, max(16, 2*len(d.props))), d.props...)
		}
		d.props = append(d.props, p)
		if d.accept('}') {
			return nil
		}
		if err := d.expect(','); err != nil {
			return err
		}
	}
}

// propValue reads a tagged {"t":...,"v":...} object, whose fields may
// come in either order or be absent, or a plain JSON scalar, and keeps
// its text for buildProps.
func (d *jsonlDecoder) propValue(p *jsonlProp) (err error) {
	var lit []byte
	switch {
	case d.literal("true"):
		p.tag, lit = KindBool, d.data[d.pos-len("true"):d.pos]
	case d.literal("false"):
		p.tag, lit = KindBool, d.data[d.pos-len("false"):d.pos]
	case d.literal("null"):
		return d.fail("null is not a valid property value")
	case d.peek('"'):
		p.text = true
		return d.appendText(p)
	case d.peek('{'):
		tag := KindString
		p.start, p.end = int32(len(d.text)), int32(len(d.text))
		err = d.object(valueFields, func(field int) (err error) {
			if field == 0 {
				if err := d.str(); err != nil {
					return err
				}
				var ok bool
				if tag, ok = tagKind(d.name); !ok {
					return fmt.Errorf("unknown value type tag %q", d.name)
				}
				return nil
			}
			return d.appendText(p)
		})
		p.tag = tag
		if err != nil || tag == KindString {
			p.text = true
			return err
		}
		// A typed value's text stays out of the string the line's
		// string values share.
		lit = d.text[p.start:p.end]
		d.text = d.text[:p.start]
	default:
		if lit, err = d.number(); err != nil {
			return err
		}
	}
	p.start = int32(len(d.lits))
	d.lits = append(d.lits, lit...)
	p.end = int32(len(d.lits))
	return nil
}

// appendText reads a JSON string into text, as p's value.
func (d *jsonlDecoder) appendText(p *jsonlProp) (err error) {
	p.start = int32(len(d.text))
	d.text, err = d.appendString(d.text)
	p.end = int32(len(d.text))
	return err
}

// intern returns b as a string, the same string every time it reads
// the same bytes while the table has room.
func (d *jsonlDecoder) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.names) < maxInterned {
		d.names[s] = s
	}
	return s
}

func (d *jsonlDecoder) fail(why string) error {
	return fmt.Errorf("offset %d: %s", d.pos, why)
}

// skipSpace consumes JSON whitespace.
func (d *jsonlDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

// peek reports whether c is the next token's first byte.
func (d *jsonlDecoder) peek(c byte) bool {
	d.skipSpace()
	return d.pos < len(d.data) && d.data[d.pos] == c
}

// accept consumes c if it is the next token.
func (d *jsonlDecoder) accept(c byte) bool {
	if !d.peek(c) {
		return false
	}
	d.pos++
	return true
}

// expect consumes c, or fails where it is not the next token.
func (d *jsonlDecoder) expect(c byte) error {
	if !d.accept(c) {
		return d.fail(fmt.Sprintf("want %q", c))
	}
	return nil
}

// literal consumes s if it is next. What follows it is the caller's to
// check: a delimiter is all that may.
func (d *jsonlDecoder) literal(s string) bool {
	d.skipSpace()
	if len(d.data)-d.pos < len(s) || string(d.data[d.pos:d.pos+len(s)]) != s {
		return false
	}
	d.pos += len(s)
	return true
}

// end fails unless only whitespace is left.
func (d *jsonlDecoder) end() error {
	if d.skipSpace(); d.pos != len(d.data) {
		return d.fail("trailing bytes")
	}
	return nil
}

// number consumes a JSON number and returns its text.
func (d *jsonlDecoder) number() ([]byte, error) {
	d.skipSpace()
	start := d.pos
	d.acceptByte('-')
	switch {
	case d.acceptByte('0'):
	case d.digits() == 0:
		return nil, d.fail("want a value")
	}
	if d.acceptByte('.') && d.digits() == 0 {
		return nil, d.fail("want a digit")
	}
	if d.acceptByte('e') || d.acceptByte('E') {
		if !d.acceptByte('+') {
			d.acceptByte('-')
		}
		if d.digits() == 0 {
			return nil, d.fail("want a digit")
		}
	}
	return d.data[start:d.pos], nil
}

// acceptByte consumes c if it is the next byte.
func (d *jsonlDecoder) acceptByte(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// digits consumes decimal digits and returns how many.
func (d *jsonlDecoder) digits() int {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

// str reads a JSON string into d.name.
func (d *jsonlDecoder) str() (err error) {
	d.name, err = d.appendString(d.name[:0])
	return err
}

// appendString consumes a JSON string and appends its contents to dst,
// decoded as encoding/json decodes them: a \u escape of half a
// surrogate pair that is not followed by its other half, and each byte
// of invalid UTF-8, become U+FFFD.
func (d *jsonlDecoder) appendString(dst []byte) ([]byte, error) {
	if !d.accept('"') {
		return dst, d.fail("want a string")
	}
	for {
		start := d.pos
		for d.pos < len(d.data) && plainStringByte[d.data[d.pos]] {
			d.pos++
		}
		dst = append(dst, d.data[start:d.pos]...)
		if d.pos == len(d.data) {
			return dst, d.fail("unterminated string")
		}
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return dst, nil
		case c == '\\':
			var err error
			if dst, err = d.appendEscape(dst); err != nil {
				return dst, err
			}
		case c < ' ':
			return dst, d.fail("control character in string")
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && size == 1 {
				dst = utf8.AppendRune(dst, utf8.RuneError)
			} else {
				dst = append(dst, d.data[d.pos:d.pos+size]...)
			}
			d.pos += size
		}
	}
}

// plainStringByte marks the bytes a string copies through unchanged:
// ASCII that is neither a control character, '"' nor '\\'.
var plainStringByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// appendEscape consumes the escape sequence at d.pos and appends what
// it stands for.
func (d *jsonlDecoder) appendEscape(dst []byte) ([]byte, error) {
	if d.pos+1 >= len(d.data) {
		return dst, d.fail("unterminated string")
	}
	d.pos += 2
	switch c := d.data[d.pos-1]; c {
	case '"', '\\', '/':
		return append(dst, c), nil
	case 'b':
		return append(dst, '\b'), nil
	case 'f':
		return append(dst, '\f'), nil
	case 'n':
		return append(dst, '\n'), nil
	case 'r':
		return append(dst, '\r'), nil
	case 't':
		return append(dst, '\t'), nil
	case 'u':
		r := hex4(d.data[d.pos:])
		if r < 0 {
			return dst, d.fail("want four hex digits")
		}
		d.pos += 4
		if utf16.IsSurrogate(r) {
			var low rune = -1
			if len(d.data)-d.pos >= 6 && d.data[d.pos] == '\\' && d.data[d.pos+1] == 'u' {
				low = hex4(d.data[d.pos+2:])
			}
			if r = utf16.DecodeRune(r, low); r != utf8.RuneError {
				d.pos += 6
			}
		}
		return utf8.AppendRune(dst, r), nil
	}
	d.pos--
	return dst, d.fail("invalid escape")
}

// hex4 is the value of the four hex digits b starts with, or -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	n, err := strconv.ParseUint(string(b[:4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(n)
}

// addTo inserts a decoded element into the graph, wrapping insertion
// errors (duplicate IDs, missing endpoints) with the source line.
func (d *jsonlDecoder) addTo(g *Graph, el jsonlElement) error {
	var err error
	switch el.kind {
	case "node":
		err = g.PutNode(el.id, el.labels, el.props)
	case "edge":
		err = g.PutEdge(el.id, el.labels, el.src, el.dst, el.props)
	}
	if err != nil {
		return fmt.Errorf("pg: line %d: %w", d.line, err)
	}
	return nil
}

// ReadJSONL parses a JSONL stream produced by WriteJSONL (or
// hand-written in the same shape) into a new Graph. Edges may appear
// before their endpoints; dangling edges are accepted during the read
// and validated afterwards unless allowDangling is set.
func ReadJSONL(r io.Reader, allowDangling bool) (*Graph, error) {
	g := NewGraph()
	g.AllowDanglingEdges(true)
	dec := newJSONLDecoder(r)
	for {
		el, err := dec.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := dec.addTo(g, el); err != nil {
			return nil, err
		}
	}
	if !allowDangling {
		for i := range g.Edges() {
			e := &g.Edges()[i]
			if g.Node(e.Src) == nil {
				return nil, fmt.Errorf("pg: edge %d references missing source node %d", e.ID, e.Src)
			}
			if g.Node(e.Dst) == nil {
				return nil, fmt.Errorf("pg: edge %d references missing target node %d", e.ID, e.Dst)
			}
		}
		g.AllowDanglingEdges(false)
	}
	return g, nil
}
