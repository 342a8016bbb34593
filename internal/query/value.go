package query

import (
	"strconv"
	"strings"
	"time"
)

// ValueKind tags a Value.
type ValueKind int

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
// of literals and column reads during evaluation).
type Value struct {
	Kind ValueKind
	Str  string
	Num  float64
	Bool bool
	Time time.Time
}

// Convenience constructors.
func stringValue(s string) Value  { return Value{Kind: KindString, Str: s} }
func numberValue(f float64) Value { return Value{Kind: KindNumber, Num: f} }
func boolValue(b bool) Value      { return Value{Kind: KindBool, Bool: b} }
func timeValue(t time.Time) Value { return Value{Kind: KindTime, Time: t} }

// Render returns the cell's human-readable form (REPL tables, CSV).
func (v Value) Render() string {
	switch v.Kind {
	case KindString:
		return v.Str
	case KindNumber:
		if v.Num == float64(int64(v.Num)) {
			return strconv.FormatInt(int64(v.Num), 10)
		}
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.Bool)
	case KindTime:
		return v.Time.Format(time.RFC3339)
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
		return v.Num
	case KindBool:
		return v.Bool
	case KindTime:
		return v.Time.Format(time.RFC3339Nano)
	default:
		return nil
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
		switch {
		case v.Num < o.Num:
			return -1
		case v.Num > o.Num:
			return 1
		default:
			return 0
		}
	case KindBool:
		switch {
		case v.Bool == o.Bool:
			return 0
		case !v.Bool:
			return -1
		default:
			return 1
		}
	case KindTime:
		switch {
		case v.Time.Before(o.Time):
			return -1
		case v.Time.After(o.Time):
			return 1
		default:
			return 0
		}
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
		enc = strconv.AppendFloat(enc, v.Num, 'g', -1, 64)
	case KindBool:
		enc = strconv.AppendBool(enc, v.Bool)
	case KindTime:
		enc = strconv.AppendInt(enc, v.Time.UnixNano(), 10)
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
