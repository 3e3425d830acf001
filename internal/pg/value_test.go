package pg

import (
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		lex  string
	}{
		{Int(42), KindInt, "42"},
		{Int(-7), KindInt, "-7"},
		{Float(3.5), KindFloat, "3.5"},
		{Bool(true), KindBool, "true"},
		{Bool(false), KindBool, "false"},
		{Str("hello"), KindString, "hello"},
		{Date(time.Date(1999, 12, 19, 14, 3, 0, 0, time.UTC)), KindDate, "1999-12-19"},
		{DateTime(time.Date(2025, 1, 2, 3, 4, 5, 0, time.UTC)), KindDateTime, "2025-01-02T03:04:05Z"},
	}
	for _, c := range cases {
		if got := c.v.Kind(); got != c.kind {
			t.Errorf("Kind(%v) = %v, want %v", c.v, got, c.kind)
		}
		if got := c.v.Lexical(); got != c.lex {
			t.Errorf("Lexical(%v) = %q, want %q", c.v, got, c.lex)
		}
		if !c.v.IsValid() {
			t.Errorf("IsValid(%v) = false, want true", c.v)
		}
	}
}

func TestZeroValueInvalid(t *testing.T) {
	var v Value
	if v.IsValid() {
		t.Fatal("zero Value must be invalid")
	}
	if v.Kind() != KindInvalid {
		t.Fatalf("zero Value kind = %v, want KindInvalid", v.Kind())
	}
	if v.Lexical() != "" {
		t.Fatalf("zero Value lexical = %q, want empty", v.Lexical())
	}
}

func TestValueAccessors(t *testing.T) {
	if Int(9).AsInt() != 9 {
		t.Error("AsInt failed")
	}
	if Int(9).AsFloat() != 9.0 {
		t.Error("AsFloat on int failed")
	}
	if Float(2.25).AsFloat() != 2.25 {
		t.Error("AsFloat failed")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("AsBool failed")
	}
	if Str("x").AsString() != "x" {
		t.Error("AsString failed")
	}
	ts := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	if !Date(ts).AsTime().Equal(ts) {
		t.Error("AsTime failed")
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(3).Equal(Int(3)) {
		t.Error("equal ints must compare equal")
	}
	if Int(3).Equal(Float(3)) {
		t.Error("int and float must differ by kind")
	}
	if Int(3).Equal(Int(4)) {
		t.Error("distinct ints must differ")
	}
	if !Str("a").Equal(Str("a")) || Str("a").Equal(Str("b")) {
		t.Error("string equality broken")
	}
	nan := Float(math.NaN())
	if !nan.Equal(nan) {
		t.Error("NaN values should compare equal for schema purposes")
	}
	if !Float(0).Equal(Float(math.Copysign(0, -1))) {
		t.Error("0 and -0 are equal floats, whatever their bits")
	}
}

// TestValueAndPropSizes pins what a property costs: a Value keeps a
// float's bits in the int payload, and a Prop is a key and a Value.
func TestValueAndPropSizes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Errorf("a Value is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(Prop{}); n != 48 {
		t.Errorf("a Prop is %d bytes, want 48", n)
	}
	if Bool(true).AsFloat() != 0 || Date(time.Unix(86400, 0)).AsFloat() != 0 {
		t.Error("AsFloat is 0 for a kind that is not a number")
	}
}

func TestParseLexicalPriority(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
	}{
		{"42", KindInt},
		{"-13", KindInt},
		{"3.14", KindFloat},
		{"1e6", KindFloat},
		{"true", KindBool},
		{"FALSE", KindBool},
		{"2024-05-01", KindDate},
		{"2024-05-01T10:00:00Z", KindDateTime},
		{"2024-05-01 10:00:00", KindDateTime},
		{"hello world", KindString},
		{"", KindString},
		{"12abc", KindString},
	}
	for _, c := range cases {
		if got := ParseLexical(c.in).Kind(); got != c.kind {
			t.Errorf("ParseLexical(%q).Kind() = %v, want %v", c.in, got, c.kind)
		}
	}
}

// Property: every Value round-trips through its lexical form to a
// value of the same kind and payload, for all kinds the generators
// emit. This is the invariant the JSONL loader depends on.
func TestLexicalRoundTripProperty(t *testing.T) {
	f := func(i int64, fl float64, b bool) bool {
		if math.IsNaN(fl) || math.IsInf(fl, 0) {
			fl = 1.5
		}
		for _, v := range []Value{Int(i), Bool(b)} {
			got := ParseLexical(v.Lexical())
			if !got.Equal(v) {
				return false
			}
		}
		// Floats that happen to print as integers re-parse as ints
		// (the paper's priority order); only check float identity
		// when the lexical form is not integral.
		fv := Float(fl)
		got := ParseLexical(fv.Lexical())
		if got.Kind() == KindFloat && got.AsFloat() != fl {
			return false
		}
		if got.Kind() == KindInt && float64(got.AsInt()) != fl {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDateRoundTrip(t *testing.T) {
	d := Date(time.Date(1980, 5, 2, 13, 45, 0, 0, time.UTC))
	got := ParseLexical(d.Lexical())
	if got.Kind() != KindDate || !got.Equal(d) {
		t.Fatalf("date round-trip: got %#v want %#v", got, d)
	}
	dt := DateTime(time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC))
	got = ParseLexical(dt.Lexical())
	if got.Kind() != KindDateTime || !got.Equal(dt) {
		t.Fatalf("datetime round-trip: got %#v want %#v", got, dt)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindInt: "INT", KindFloat: "DOUBLE", KindBool: "BOOLEAN",
		KindDate: "DATE", KindDateTime: "TIMESTAMP", KindString: "STRING",
		KindInvalid: "INVALID",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}
