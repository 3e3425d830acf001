package core

// imagecodec.go writes and reads the bytes of a checkpoint image and of
// a run by hand, the bytes encoding/json wrote for an Image and an
// ImageDelta before (image_ref_test.go and delta_ref_test.go keep that
// codec as the oracle they are held to).
//
// The writer emits the members in declaration order, each member that
// is tagged omitempty only when it is not empty, and a trailing
// newline. The members that grow with the types (the schema's heads,
// the adaptive choices, the shape caches, the applied keys) go through
// encoding/json one at a time, so their escaping and number spelling
// are encoding/json's. The members that grow with the elements (the
// assignments, each tally's sides, the resolver) are grouped by value
// straight from the image's columns, in ID order, into the destination
// through one keyed.Grouper, whose ID scratch they share: writing costs
// that scratch and the distinct values, not a sort, a map or a buffer
// per member. EncodeDelta writes a run through the same writer.
//
// The reader mirrors the writer: one walk over the same members reads
// an image (ParseImage) and a run (ParseDelta). Any member may be
// absent and none may come twice, out of order, under another name or
// in another case, no whitespace may stand outside a string, and a
// tally group starts with its type; after the object only whitespace
// may follow. The element-keyed members are decoded in place into
// collections made at their size; the others are handed, as their raw
// bytes, to encoding/json.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"github.com/pghive/pghive/internal/keyed"
	"github.com/pghive/pghive/internal/pg"
)

// imageChunk is how many bytes the writer gathers before it hands them
// to the destination.
const imageChunk = 32 << 10

// EncodeImage writes the image in the canonical checkpoint byte format
// (compact JSON, members in declaration order, trailing newline). On an
// error w may have received a prefix of the image.
func EncodeImage(w io.Writer, img *Image) error {
	e := &imageWriter{w: w, b: make([]byte, 0, 2*imageChunk)}
	e.g.Flush = e.flush
	e.members(reflect.ValueOf(img).Elem())
	e.b = append(e.b, '\n')
	if e.err != nil {
		return e.err
	}
	_, err := w.Write(e.b)
	return err
}

// imageWriter gathers an image's or a run's bytes in b and hands them to
// w, when there is one, a chunk at a time. err is the first failure, a
// refused member or a failed write; after it nothing more is written.
type imageWriter struct {
	w   io.Writer
	b   []byte
	g   keyed.Grouper[pg.ID]
	sep byte // what precedes the next member: the object's brace, then a comma
	err error
}

// flush hands b to w once it holds a chunk, and returns what to go on
// appending to.
func (e *imageWriter) flush(b []byte) []byte {
	if e.w == nil || len(b) < imageChunk {
		return b
	}
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
	return b[:0]
}

// name opens a member.
func (e *imageWriter) name(name string) {
	e.b = append(e.flush(e.b), e.sep, '"')
	e.b = append(append(e.b, name...), '"', ':')
	e.sep = ','
}

// members writes v, an addressable Image, ImageDelta or tally group, as
// an object of its members (wireMembers). A number is spelled as
// encoding/json spells it. A column, an ID list and the resolver are
// grouped and gap-coded straight from where they are, and a tally
// collection is an array of groups written the same way. Everything
// else goes through encoding/json.
func (e *imageWriter) members(v reflect.Value) {
	e.sep = '{'
	for i, m := range wireMembers[v.Type()] {
		f := v.Field(i)
		if m.omitEmpty && empty(f) {
			continue
		}
		if e.err != nil {
			return
		}
		e.name(m.name)
		switch x := f.Addr().Interface().(type) {
		case *keyed.Column[pg.ID, int32]:
			e.b = keyed.AppendColumn(&e.g, e.b, *x)
		case *keyed.IDs[pg.ID]:
			e.b, e.err = keyed.AppendIDs(e.b, *x)
		case *pg.LabelIndex:
			e.b = pg.AppendLabelIndex(&e.g, e.b, x)
		case *Tallies, *TallyChanges:
			e.b = append(e.b, '[')
			for j := range f.Len() {
				if j > 0 {
					e.b = append(e.b, ',')
				}
				e.members(f.Index(j))
			}
			e.b = append(e.b, ']')
		default:
			switch {
			case f.CanInt():
				e.b = strconv.AppendInt(e.b, f.Int(), 10)
			case f.CanUint():
				e.b = strconv.AppendUint(e.b, f.Uint(), 10)
			default:
				e.json(x)
			}
		}
	}
	if e.sep == '{' { // no member
		e.b = append(e.b, '{')
	}
	e.b = append(e.b, '}')
	e.sep = ','
}

// empty reports whether an omitempty member is left out: by
// encoding/json's rule, or as a column or an index without entries.
func empty(f reflect.Value) bool {
	switch x := f.Addr().Interface().(type) {
	case *keyed.Column[pg.ID, int32]:
		return x.Len() == 0
	case *pg.LabelIndex:
		return x.Len() == 0
	}
	return f.Kind() == reflect.Slice && f.Len() == 0 || f.IsZero()
}

// json writes a member's value that grows with the types through
// encoding/json.
func (e *imageWriter) json(v any) {
	text, err := json.Marshal(v)
	if err != nil {
		e.err = err
		return
	}
	e.b = append(e.b, text...)
}

// DecodeImage reads r to its end and parses it as one image (ParseImage).
func DecodeImage(r io.Reader) (*Image, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	return ParseImage(data)
}

// ParseImage decodes one checkpoint image, refusing any other version,
// any other spelling of the envelope and any bytes but whitespace after
// the image.
func ParseImage(data []byte) (*Image, error) {
	var img Image
	if err := parseVersioned(data, func(data []byte) error { return read(data, &img) }, &img.Version, "checkpoint", CheckpointVersion); err != nil {
		return nil, err
	}
	return &img, nil
}

// member is one of a struct's JSON members.
type member struct {
	name      string
	omitEmpty bool
}

// wireMembers are the JSON members, in declaration order, of the
// structs an image and a run are written from: the order the members
// are written and read in.
var wireMembers = func() map[reflect.Type][]member {
	out := map[reflect.Type][]member{}
	for _, v := range []any{Image{}, ImageDelta{}, Tally{}, TallyChange{}} {
		t := reflect.TypeOf(v)
		for i := range t.NumField() {
			name, opt, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
			out[t] = append(out[t], member{name, opt == "omitempty"})
		}
	}
	return out
}()

// read decodes data, one image or run, into v, an *Image or an
// *ImageDelta: its members, then nothing but whitespace.
func read(data []byte, v any) error {
	r := &imageReader{data: data}
	if err := r.members(reflect.ValueOf(v).Elem()); err != nil {
		return err
	}
	for _, c := range data[r.pos:] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return r.fail("trailing bytes")
		}
	}
	return nil
}

// imageReader walks one encoded image or run.
type imageReader struct {
	data []byte
	pos  int
}

func (r *imageReader) fail(why string) error {
	return fmt.Errorf("offset %d: %s", r.pos, why)
}

// accept consumes s if it is next.
func (r *imageReader) accept(s string) bool {
	if len(r.data)-r.pos < len(s) || string(r.data[r.pos:r.pos+len(s)]) != s {
		return false
	}
	r.pos += len(s)
	return true
}

// expect consumes s, or fails where it is not next.
func (r *imageReader) expect(s string) error {
	if !r.accept(s) {
		return r.fail(fmt.Sprintf("want %q", s))
	}
	return nil
}

// seq consumes an object or an array: open, elements separated by
// commas, close. elem consumes one element.
func (r *imageReader) seq(open, close string, elem func() error) error {
	if err := r.expect(open); err != nil {
		return err
	}
	if r.accept(close) {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if r.accept(close) {
			return nil
		}
		if err := r.expect(","); err != nil {
			return err
		}
	}
}

// name consumes a member name and its colon. Member names hold no
// escapes, so a name spelled with one is one no member has.
func (r *imageReader) name() (string, error) {
	if err := r.expect(`"`); err != nil {
		return "", err
	}
	start := r.pos
	for r.pos < len(r.data) && r.data[r.pos] != '"' {
		r.pos++
	}
	name := string(r.data[start:r.pos])
	if err := r.expect(`":`); err != nil {
		return "", err
	}
	return name, nil
}

// members reads v, an addressable Image, ImageDelta or tally group, from
// an object of its members as imageWriter.members writes it: in
// declaration order (wireMembers), any of them absent and none twice,
// out of order, under another name or in another case. A column, an ID
// list and the resolver decode in place into collections made at their
// size, and a tally collection is an array of groups read the same way.
// Everything else goes, as its raw bytes, to encoding/json.
func (r *imageReader) members(v reflect.Value) error {
	members := wireMembers[v.Type()]
	next := 0 // the first member that may still come
	return r.seq("{", "}", func() error {
		name, err := r.name()
		if err != nil {
			return err
		}
		i := slices.IndexFunc(members[next:], func(m member) bool { return m.name == name })
		if i < 0 {
			return r.fail(fmt.Sprintf("member %q is unknown, repeated or out of order", name))
		}
		next += i + 1
		if err := r.member(v.Field(next - 1)); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	})
}

// member decodes one member's value into f.
func (r *imageReader) member(f reflect.Value) error {
	var n int
	var err error
	switch x := f.Addr().Interface().(type) {
	case *keyed.Column[pg.ID, int32]:
		*x, n, err = keyed.DecodeColumn[pg.ID, int32](r.data[r.pos:])
	case *keyed.IDs[pg.ID]:
		// Counted first, then filled into one slice of that size.
		var count int
		if count, n, err = keyed.DecodeIDs(r.data[r.pos:], func(pg.ID) error { return nil }); err == nil && count > 0 {
			ids := make(keyed.IDs[pg.ID], 0, count)
			keyed.DecodeIDs(r.data[r.pos:], func(id pg.ID) error {
				ids = append(ids, id)
				return nil
			})
			*x = ids
		}
	case *pg.LabelIndex:
		*x, n, err = pg.DecodeLabelIndex(r.data[r.pos:])
	case *Tallies, *TallyChanges:
		return r.groups(f)
	default:
		return r.json(x)
	}
	r.pos += n
	return err
}

// groups decodes a tally collection: an array of groups, each an object
// of its members that starts with its type, refusing what checkGroup
// refuses.
func (r *imageReader) groups(f reflect.Value) error {
	out := reflect.MakeSlice(f.Type(), 0, 0)
	prev := 0
	err := r.seq("[", "]", func() error {
		if !bytes.HasPrefix(r.data[r.pos:], []byte(`{"type":`)) {
			return r.fail(`want {"type":`)
		}
		g := reflect.New(f.Type().Elem())
		if err := r.members(g.Elem()); err != nil {
			return err
		}
		typ := int(g.Elem().Field(0).Int()) // Type, a group's first member
		ordered := out.Len() == 0 || typ > prev
		prev = typ
		out = reflect.Append(out, g.Elem())
		switch g := g.Interface().(type) {
		case *Tally:
			return checkGroup(typ, ordered, g.Src.Len()+g.Dst.Len() == 0, g.Src, g.Dst)
		case *TallyChange:
			return checkGroup(typ, ordered, g.empty(), g.SrcPut, g.DstPut)
		}
		return nil
	})
	if err == nil {
		f.Set(out)
	}
	return err
}

// json decodes the JSON value at the reader's position into v through
// encoding/json, after finding where it ends.
func (r *imageReader) json(v any) error {
	raw, err := r.value()
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// value consumes one JSON value and returns its bytes, refusing
// whitespace outside its strings. It finds only where the value ends;
// encoding/json checks the rest.
func (r *imageReader) value() ([]byte, error) {
	start, depth := r.pos, 0
	for r.pos < len(r.data) {
		c := r.data[r.pos]
		switch c {
		case '"':
			for r.pos++; r.pos < len(r.data) && r.data[r.pos] != '"'; r.pos++ {
				if r.data[r.pos] == '\\' {
					r.pos++
				}
			}
			if r.pos >= len(r.data) {
				return nil, r.fail("unterminated string")
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 { // a scalar, closed by what holds it
				return r.data[start:r.pos], nil
			}
			depth--
		case ',':
			if depth == 0 {
				return r.data[start:r.pos], nil
			}
		case ' ', '\t', '\n', '\r':
			return nil, r.fail("whitespace outside a string")
		}
		r.pos++
		if depth == 0 && (c == '"' || c == '}' || c == ']') {
			return r.data[start:r.pos], nil
		}
	}
	return r.data[start:], nil
}
