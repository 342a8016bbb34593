package query

import (
	"cmp"
	"math"
	"strconv"
	"strings"
	"time"
)

// ValueKind tags a Value.
type ValueKind uint8

// Value kinds. The dialect is deliberately small: strings, float64
// numbers, booleans, and timestamps cover every column the three
// tables expose.
const (
	KindNull ValueKind = iota
	KindString
	KindNumber
	KindBool
	KindTime
)

// Value is one cell of a query result (and the runtime representation
// of literals and column reads during evaluation): a tagged union of
// 32 bytes. A string lives in Str; every other kind in one 64-bit word
// — a number's IEEE 754 bits, a bool as 0 or 1, a time's Unix seconds,
// with its nanoseconds beside it — so a cell holds no time.Time and no
// zone. Seconds and nanoseconds, not Unix nanoseconds, keep every
// instant a time literal can name (years 0000 to 9999); Time returns
// the instant in UTC. The accessors read the zero value of a kind the
// cell is not.
type Value struct {
	Str  string
	word uint64
	nsec int32
	Kind ValueKind
}

// StringValue is a string cell.
func StringValue(s string) Value { return Value{Kind: KindString, Str: s} }

// NumberValue is a number cell.
func NumberValue(f float64) Value { return Value{Kind: KindNumber, word: math.Float64bits(f)} }

// BoolValue is a bool cell.
func BoolValue(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.word = 1
	}
	return v
}

// TimeValue is a time cell: t's instant, without its zone.
func TimeValue(t time.Time) Value {
	return Value{Kind: KindTime, word: uint64(t.Unix()), nsec: int32(t.Nanosecond())}
}

// Num is a number cell's value, 0 for any other kind.
func (v Value) Num() float64 {
	if v.Kind != KindNumber {
		return 0
	}
	return math.Float64frombits(v.word)
}

// Bool is a bool cell's value, false for any other kind.
func (v Value) Bool() bool { return v.Kind == KindBool && v.word != 0 }

// Time is a time cell's instant in UTC, the zero time for any other
// kind.
func (v Value) Time() time.Time {
	if v.Kind != KindTime {
		return time.Time{}
	}
	return time.Unix(int64(v.word), int64(v.nsec)).UTC()
}

// Render returns the cell's human-readable form (REPL tables, CSV).
func (v Value) Render() string {
	switch v.Kind {
	case KindString:
		return v.Str
	case KindNumber:
		n := v.Num()
		if n == float64(int64(n)) {
			return strconv.FormatInt(int64(n), 10)
		}
		return strconv.FormatFloat(n, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.Bool())
	case KindTime:
		return v.Time().Format(time.RFC3339)
	default:
		return ""
	}
}

// JSON returns the natural JSON representation of the cell: string,
// number, bool, RFC 3339 timestamp, or nil.
func (v Value) JSON() any {
	switch v.Kind {
	case KindString:
		return v.Str
	case KindNumber:
		return v.Num()
	case KindBool:
		return v.Bool()
	case KindTime:
		return v.Time().Format(time.RFC3339Nano)
	default:
		return nil
	}
}

// String is the cell as fmt's %v prints it: Render's form, with a
// string quoted, a time to the nanosecond and a null as NULL, so that
// cells of different kinds print apart.
func (v Value) String() string {
	switch v.Kind {
	case KindString:
		return strconv.Quote(v.Str)
	case KindTime:
		return v.Time().Format(time.RFC3339Nano)
	case KindNull:
		return "NULL"
	default:
		return v.Render()
	}
}

// compare orders two values of the same kind: -1, 0, +1. Nulls sort
// first; cross-kind comparisons are prevented at plan time.
func (v Value) compare(o Value) int {
	if v.Kind == KindNull || o.Kind == KindNull {
		switch {
		case v.Kind == o.Kind:
			return 0
		case v.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	switch v.Kind {
	case KindString:
		return strings.Compare(v.Str, o.Str)
	case KindNumber:
		switch a, b := v.Num(), o.Num(); {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	case KindBool:
		return cmp.Compare(v.word, o.word)
	case KindTime:
		if c := cmp.Compare(int64(v.word), int64(o.word)); c != 0 {
			return c
		}
		return cmp.Compare(v.nsec, o.nsec)
	}
	return 0
}

// groupKey appends a canonical encoding of the value for group-by
// hashing (length-prefixed so adjacent keys cannot collide). It
// allocates nothing beyond growing b.
func (v Value) groupKey(b []byte) []byte {
	b = append(b, byte(v.Kind))
	var tmp [32]byte
	enc := tmp[:0]
	switch v.Kind {
	case KindString:
		b = strconv.AppendInt(b, int64(len(v.Str)), 10)
		b = append(b, ':')
		return append(b, v.Str...)
	case KindNumber:
		enc = strconv.AppendFloat(enc, v.Num(), 'g', -1, 64)
	case KindBool:
		enc = strconv.AppendBool(enc, v.Bool())
	case KindTime:
		// time.Time.UnixNano's own arithmetic, wrapping where it does.
		enc = strconv.AppendInt(enc, int64(v.word)*1e9+int64(v.nsec), 10)
	}
	b = strconv.AppendInt(b, int64(len(enc)), 10)
	b = append(b, ':')
	return append(b, enc...)
}

// timeLayouts are the accepted time-literal forms, most specific
// first.
var timeLayouts = []string{
	time.RFC3339Nano,
	time.RFC3339,
	"2006-01-02 15:04:05",
	"2006-01-02T15:04:05",
	"2006-01-02",
}

// parseTimeLiteral interprets a string literal against a time column.
func parseTimeLiteral(s string) (time.Time, bool) {
	for _, layout := range timeLayouts {
		if t, err := time.Parse(layout, s); err == nil {
			return t, true
		}
	}
	return time.Time{}, false
}
