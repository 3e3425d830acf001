// Package pg implements the property-graph data model used throughout
// PG-HIVE: typed property values, nodes and edges, and an in-memory
// graph store with JSONL import/export and batch streaming.
//
// It is the stand-in for the Neo4j storage layer the paper loads from
// (§4.1): PG-HIVE only needs the nodes, edges and their key-value
// properties in memory, so a single-process store preserves all
// algorithmic behaviour. What it holds per element is what a server's
// memory follows, so an element's properties are one key-sorted slice
// (Props) of 48-byte entries, each a key and a 32-byte Value, not a
// map: a decoded LDBC graph holds about 190 bytes per element.
package pg

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the dynamic types a property value can carry.
// The ordering mirrors the inference priority of §4.4: integer before
// float before bool before date/time, with string as the fallback.
type Kind uint8

const (
	// KindInvalid is the zero Kind; it marks an absent value.
	KindInvalid Kind = iota
	// KindInt is a 64-bit signed integer (GQL INT).
	KindInt
	// KindFloat is a 64-bit IEEE float (GQL DOUBLE).
	KindFloat
	// KindBool is a boolean (GQL BOOLEAN).
	KindBool
	// KindDate is a calendar date without time-of-day (GQL DATE).
	KindDate
	// KindDateTime is a date with time-of-day (GQL TIMESTAMP).
	KindDateTime
	// KindString is an arbitrary UTF-8 string (GQL STRING).
	KindString
)

// String returns the GQL-style name of the kind, as used by the
// PG-Schema serializer.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "INT"
	case KindFloat:
		return "DOUBLE"
	case KindBool:
		return "BOOLEAN"
	case KindDate:
		return "DATE"
	case KindDateTime:
		return "TIMESTAMP"
	case KindString:
		return "STRING"
	default:
		return "INVALID"
	}
}

// Value is a dynamically typed property value. The zero Value is
// invalid (absent). A Value is 32 bytes with no heap indirection for
// the non-string kinds, so property sets stay compact for
// multi-million element graphs.
type Value struct {
	kind Kind
	num  int64  // int, bool (0/1), date/datetime (unix seconds), float (IEEE bits)
	str  string // string
}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, num: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, num: int64(math.Float64bits(v))} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n int64
	if v {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Str returns a string value.
func Str(v string) Value { return Value{kind: KindString, str: v} }

// Date returns a date value (time-of-day truncated).
func Date(t time.Time) Value {
	y, m, d := t.Date()
	tt := time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
	return Value{kind: KindDate, num: tt.Unix()}
}

// DateTime returns a timestamp value with second resolution.
func DateTime(t time.Time) Value {
	return Value{kind: KindDateTime, num: t.Truncate(time.Second).Unix()}
}

// Kind reports the dynamic kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value is present (non-zero).
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsInt returns the integer payload; it is only meaningful for KindInt.
func (v Value) AsInt() int64 { return v.num }

// AsFloat returns the numeric payload as float64 for KindInt and
// KindFloat values, and 0 for the other kinds.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.num)
	case KindFloat:
		return v.float()
	}
	return 0
}

// float is a KindFloat value's payload.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.num)) }

// AsBool returns the boolean payload; it is only meaningful for KindBool.
func (v Value) AsBool() bool { return v.num != 0 }

// AsString returns the string payload; it is only meaningful for
// KindString.
func (v Value) AsString() string { return v.str }

// AsTime returns the time payload for KindDate and KindDateTime values.
func (v Value) AsTime() time.Time { return time.Unix(v.num, 0).UTC() }

// Equal reports whether two values have the same kind and payload.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindFloat:
		f, g := v.float(), o.float()
		return f == g || (math.IsNaN(f) && math.IsNaN(g))
	case KindString:
		return v.str == o.str
	default:
		return v.num == o.num
	}
}

// Lexical returns the canonical textual form of the value, used by the
// serializers and by the datatype-inference sampler (§4.4), which
// re-parses lexical forms the way the paper's heuristics do.
func (v Value) Lexical() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.num, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case KindDate:
		return v.AsTime().Format("2006-01-02")
	case KindDateTime:
		return v.AsTime().Format(time.RFC3339)
	case KindString:
		return v.str
	default:
		return ""
	}
}

// GoString implements fmt.GoStringer for debugging output.
func (v Value) GoString() string {
	return fmt.Sprintf("pg.Value{%s %q}", v.kind, v.Lexical())
}

// ParseLexical applies the paper's priority-based inference (§4.4) to a
// lexical form: integer, then float, then boolean, then ISO date /
// date-time via format checks, defaulting to string. It returns the
// most specific Value the text is compatible with.
//
// A parser is tried only on text it could accept, since a parse that
// fails allocates its error: a word that is none of the kinds costs
// nothing to infer, which keeps a hostile WAL record's decode within
// its allocation bound (walInflateRatio).
func ParseLexical(s string) Value {
	if s == "" {
		return Str(s)
	}
	if mayBeInt(s) {
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return Int(i)
		}
	}
	if mayBeFloat(s) {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return Float(f)
		}
	}
	switch s {
	case "true", "false", "TRUE", "FALSE", "True", "False":
		return Bool(strings.EqualFold(s, "true"))
	}
	if !mayBeDate(s) {
		return Str(s)
	}
	if t, err := time.Parse("2006-01-02", s); err == nil {
		return Date(t)
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return DateTime(t)
	}
	if t, err := time.Parse("2006-01-02 15:04:05", s); err == nil {
		return DateTime(t)
	}
	return Str(s)
}

// mayBeInt reports whether s is a sign and decimal digits, all that
// strconv.ParseInt accepts in base 10.
func mayBeInt(s string) bool {
	if s[0] == '+' || s[0] == '-' {
		s = s[1:]
	}
	return s != "" && digitsOnly(s)
}

// mayBeFloat reports whether s could be a float to strconv.ParseFloat:
// after a sign, a digit or '.', or inf, infinity or nan in any case.
func mayBeFloat(s string) bool {
	if s[0] == '+' || s[0] == '-' {
		s = s[1:]
	}
	if s != "" && ('0' <= s[0] && s[0] <= '9' || s[0] == '.') {
		return true
	}
	return strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity") || strings.EqualFold(s, "nan")
}

// mayBeDate reports whether s starts the way every layout ParseLexical
// tries does: a four-digit year, then '-', and at least a day after.
func mayBeDate(s string) bool {
	return len(s) >= len("2006-01-02") && digitsOnly(s[:4]) && s[4] == '-'
}

func digitsOnly(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
