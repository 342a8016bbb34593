// Package isodur implements parsing, formatting, and arithmetic for
// ISO-8601 durations such as "P6M" (six months) or "PT1H30M" (ninety
// minutes).
//
// The paper's policy language expresses retention periods as ISO-8601
// durations (Figure 2 uses "P6M"), so the policy layer needs a real
// implementation rather than time.ParseDuration, which cannot express
// calendar units (days, months, years).
//
// A Duration keeps calendar components (years, months, weeks, days)
// separate from clock components (hours, minutes, seconds) because
// calendar arithmetic is not fixed-length: adding one month to Jan 31
// is not the same as adding 30 days. AddTo applies the duration with
// proper calendar semantics via time.Time.AddDate.
package isodur

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Duration is an ISO-8601 duration. The zero value is "PT0S".
//
// All components are non-negative; the sign applies to the duration as
// a whole, mirroring the ISO-8601 "-P..." form.
type Duration struct {
	Negative bool
	Years    int
	Months   int
	Weeks    int
	Days     int
	Hours    int
	Minutes  int
	Seconds  float64
}

// Common retention periods used throughout the test suite and examples.
var (
	// Day is "P1D".
	Day = Duration{Days: 1}
	// Week is "P1W".
	Week = Duration{Weeks: 1}
	// Month is "P1M".
	Month = Duration{Months: 1}
	// SixMonths is "P6M", the retention period in the paper's Figure 2.
	SixMonths = Duration{Months: 6}
	// Year is "P1Y".
	Year = Duration{Years: 1}
)

// ErrSyntax reports a malformed ISO-8601 duration string.
var ErrSyntax = errors.New("isodur: invalid ISO-8601 duration")

// maxComponent bounds each component Parse accepts, so a number never
// wraps and every parsed duration formats to a string Parse accepts.
const maxComponent = 1_000_000_000

// Parse parses an ISO-8601 duration such as "P6M", "P1Y2M10DT2H30M",
// "PT0.5S", "P4W", or "-P1D".
func Parse(s string) (Duration, error) {
	var d Duration
	orig := s
	if s == "" {
		return d, fmt.Errorf("%w: empty string", ErrSyntax)
	}
	if s[0] == '-' {
		d.Negative = true
		s = s[1:]
	} else if s[0] == '+' {
		s = s[1:]
	}
	if len(s) == 0 || (s[0] != 'P' && s[0] != 'p') {
		return Duration{}, fmt.Errorf("%w: %q missing 'P' designator", ErrSyntax, orig)
	}
	s = s[1:]
	if s == "" {
		return Duration{}, fmt.Errorf("%w: %q has no components", ErrSyntax, orig)
	}

	inTime := false
	sawComponent := false
	// seen guards against repeated designators like "P1M2M".
	seen := map[string]bool{}

	for len(s) > 0 {
		if s[0] == 'T' || s[0] == 't' {
			if inTime {
				return Duration{}, fmt.Errorf("%w: %q has two 'T' designators", ErrSyntax, orig)
			}
			inTime = true
			s = s[1:]
			if s == "" {
				return Duration{}, fmt.Errorf("%w: %q has trailing 'T'", ErrSyntax, orig)
			}
			continue
		}
		value, frac, rest, err := scanNumber(s)
		if err != nil {
			return Duration{}, fmt.Errorf("%w: %q: %v", ErrSyntax, orig, err)
		}
		if rest == "" {
			return Duration{}, fmt.Errorf("%w: %q has number with no unit", ErrSyntax, orig)
		}
		unit := rest[0]
		s = rest[1:]
		key := string(unit)
		if inTime {
			key = "T" + key
		}
		if seen[key] {
			return Duration{}, fmt.Errorf("%w: %q repeats unit %q", ErrSyntax, orig, key)
		}
		seen[key] = true
		if frac != 0 && !(inTime && (unit == 'S' || unit == 's')) {
			return Duration{}, fmt.Errorf("%w: %q has fraction on non-second unit", ErrSyntax, orig)
		}
		switch {
		case !inTime && (unit == 'Y' || unit == 'y'):
			d.Years = value
		case !inTime && (unit == 'M' || unit == 'm'):
			d.Months = value
		case !inTime && (unit == 'W' || unit == 'w'):
			d.Weeks = value
		case !inTime && (unit == 'D' || unit == 'd'):
			d.Days = value
		case inTime && (unit == 'H' || unit == 'h'):
			d.Hours = value
		case inTime && (unit == 'M' || unit == 'm'):
			d.Minutes = value
		case inTime && (unit == 'S' || unit == 's'):
			d.Seconds = float64(value) + frac
			if d.Seconds > maxComponent {
				return Duration{}, fmt.Errorf("%w: %q has seconds above %d", ErrSyntax, orig, maxComponent)
			}
		default:
			return Duration{}, fmt.Errorf("%w: %q has unit %q in wrong section", ErrSyntax, orig, string(unit))
		}
		sawComponent = true
	}
	if !sawComponent {
		return Duration{}, fmt.Errorf("%w: %q has no components", ErrSyntax, orig)
	}
	return d, nil
}

// MustParse is like Parse but panics on error. It is intended for
// package-level variables and tests with known-good literals.
func MustParse(s string) Duration {
	d, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return d
}

// scanNumber reads a decimal integer with optional fractional part
// (either '.' or ',' separator) from the head of s.
func scanNumber(s string) (value int, frac float64, rest string, err error) {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		value = value*10 + int(s[i]-'0')
		if value > maxComponent {
			return 0, 0, "", fmt.Errorf("number above %d at %q", maxComponent, s)
		}
		i++
	}
	if i == 0 {
		return 0, 0, "", fmt.Errorf("expected digit at %q", s)
	}
	if i < len(s) && (s[i] == '.' || s[i] == ',') {
		i++
		scale := 0.1
		start := i
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			frac += float64(s[i]-'0') * scale
			scale /= 10
			i++
		}
		if i == start {
			return 0, 0, "", fmt.Errorf("expected digit after decimal point at %q", s)
		}
	}
	return value, frac, s[i:], nil
}

// String renders the duration in canonical ISO-8601 form. Zero-valued
// components are omitted; the zero duration renders as "PT0S".
func (d Duration) String() string {
	var b strings.Builder
	if d.Negative && !d.IsZero() {
		b.WriteByte('-')
	}
	b.WriteByte('P')
	if d.Years != 0 {
		fmt.Fprintf(&b, "%dY", d.Years)
	}
	if d.Months != 0 {
		fmt.Fprintf(&b, "%dM", d.Months)
	}
	if d.Weeks != 0 {
		fmt.Fprintf(&b, "%dW", d.Weeks)
	}
	if d.Days != 0 {
		fmt.Fprintf(&b, "%dD", d.Days)
	}
	if d.Hours != 0 || d.Minutes != 0 || d.Seconds != 0 {
		b.WriteByte('T')
		if d.Hours != 0 {
			fmt.Fprintf(&b, "%dH", d.Hours)
		}
		if d.Minutes != 0 {
			fmt.Fprintf(&b, "%dM", d.Minutes)
		}
		if d.Seconds != 0 {
			writeSeconds(&b, d.Seconds)
		}
	}
	if b.Len() == 1 || (d.Negative && b.Len() == 2) {
		return "PT0S"
	}
	return b.String()
}

func writeSeconds(b *strings.Builder, secs float64) {
	// 'f' never writes an exponent, which Parse would reject.
	b.WriteString(strconv.FormatFloat(secs, 'f', -1, 64))
	b.WriteByte('S')
}

// IsZero reports whether every component of d is zero.
func (d Duration) IsZero() bool {
	return d.Years == 0 && d.Months == 0 && d.Weeks == 0 && d.Days == 0 &&
		d.Hours == 0 && d.Minutes == 0 && d.Seconds == 0
}

// AddTo returns t shifted forward by d (or backward if d is negative),
// applying calendar components with time.Time.AddDate semantics and
// clock components as an exact offset.
func (d Duration) AddTo(t time.Time) time.Time {
	sign := 1
	if d.Negative {
		sign = -1
	}
	t = t.AddDate(sign*d.Years, sign*d.Months, sign*(d.Weeks*7+d.Days))
	clock := time.Duration(d.Hours)*time.Hour +
		time.Duration(d.Minutes)*time.Minute +
		time.Duration(d.Seconds*float64(time.Second))
	return t.Add(time.Duration(sign) * clock)
}

// Approx converts d to a time.Duration using the fixed conventions
// 1 year = 365 days, 1 month = 30 days. Use it only where an
// order-of-magnitude scalar is needed (e.g. comparing retention
// periods); use AddTo for deadline computation.
func (d Duration) Approx() time.Duration {
	days := d.Years*365 + d.Months*30 + d.Weeks*7 + d.Days
	total := time.Duration(days)*24*time.Hour +
		time.Duration(d.Hours)*time.Hour +
		time.Duration(d.Minutes)*time.Minute +
		time.Duration(d.Seconds*float64(time.Second))
	if d.Negative {
		return -total
	}
	return total
}

// Cmp compares the approximate lengths of two durations, returning -1,
// 0, or +1. It is used to order retention periods (shorter = more
// privacy-protective).
func (d Duration) Cmp(other Duration) int {
	a, b := d.Approx(), other.Approx()
	switch {
	case a < b:
		return -1
	case a > b:
		return +1
	default:
		return 0
	}
}

// MarshalText implements encoding.TextMarshaler.
func (d Duration) MarshalText() ([]byte, error) {
	return []byte(d.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (d *Duration) UnmarshalText(b []byte) error {
	parsed, err := Parse(string(b))
	if err != nil {
		return err
	}
	*d = parsed
	return nil
}
