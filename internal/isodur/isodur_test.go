package isodur

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestParseValid(t *testing.T) {
	tests := []struct {
		in   string
		want Duration
	}{
		{"P6M", Duration{Months: 6}},
		{"P1Y", Duration{Years: 1}},
		{"P2W", Duration{Weeks: 2}},
		{"P10D", Duration{Days: 10}},
		{"PT1H", Duration{Hours: 1}},
		{"PT30M", Duration{Minutes: 30}},
		{"PT15S", Duration{Seconds: 15}},
		{"PT0.5S", Duration{Seconds: 0.5}},
		{"PT0,5S", Duration{Seconds: 0.5}},
		{"P1Y2M10DT2H30M", Duration{Years: 1, Months: 2, Days: 10, Hours: 2, Minutes: 30}},
		{"P1W2D", Duration{Weeks: 1, Days: 2}},
		{"-P1D", Duration{Negative: true, Days: 1}},
		{"+P1D", Duration{Days: 1}},
		{"p6m", Duration{Months: 6}},
		{"PT1H30M", Duration{Hours: 1, Minutes: 30}},
		{"P1MT1M", Duration{Months: 1, Minutes: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := Parse(tt.in)
			if err != nil {
				t.Fatalf("Parse(%q) error: %v", tt.in, err)
			}
			if got != tt.want {
				t.Errorf("Parse(%q) = %+v, want %+v", tt.in, got, tt.want)
			}
		})
	}
}

func TestParseInvalid(t *testing.T) {
	bad := []string{
		"",
		"P",
		"PT",
		"6M",
		"-",
		"P-6M",
		"PX",
		"P6",
		"P6M3",
		"P1M1M",
		"P1MT",
		"PT1MT1S",
		"P1H",                      // hours require T section
		"PT1D",                     // days forbidden in T section
		"PT1W",                     // weeks forbidden in T section
		"P0.5Y",                    // fraction on non-second unit
		"PT0.5M",                   // fraction only allowed on seconds
		"P1Y2M3X",                  // unknown unit
		"P.5D",                     // no leading digit
		"P6M ",                     // trailing garbage
		"P99999999999999999999Y",   // would wrap around int
		"P1000000001D",             // above maxComponent
		"PT1000000000.5S",          // seconds above maxComponent
		"PT9999999999999999999.5S", // would wrap, then format as "-8…S"
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestStringCanonical(t *testing.T) {
	tests := []struct {
		d    Duration
		want string
	}{
		{Duration{}, "PT0S"},
		{Duration{Negative: true}, "PT0S"},
		{Duration{Months: 6}, "P6M"},
		{Duration{Years: 1, Months: 2, Days: 10, Hours: 2, Minutes: 30}, "P1Y2M10DT2H30M"},
		{Duration{Negative: true, Days: 1}, "-P1D"},
		{Duration{Seconds: 0.5}, "PT0.5S"},
		{Duration{Weeks: 3}, "P3W"},
		{Duration{Minutes: 90}, "PT90M"},
		{Duration{Seconds: 1e-7}, "PT0.0000001S"},
		{Duration{Seconds: 12345678.25}, "PT12345678.25S"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("(%+v).String() = %q, want %q", tt.d, got, tt.want)
		}
	}
}

// TestParsedDurationsFormatParseable: whatever Parse accepts, String
// renders as something Parse accepts, even where a fraction of a second
// does not survive bit for bit.
func TestParsedDurationsFormatParseable(t *testing.T) {
	for _, s := range []string{"PT0.0000001S", "PT999999999.9999999999S", "PT1000000000S", "P1000000000Y", "PT0,5S"} {
		d, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if _, err := Parse(d.String()); err != nil {
			t.Errorf("Parse(%q) = %+v, whose String %q does not parse: %v", s, d, d.String(), err)
		}
	}
}

// TestRoundTripProperty: String then Parse must reproduce the duration
// exactly for any duration with integer seconds.
func TestRoundTripProperty(t *testing.T) {
	gen := func(r *rand.Rand) Duration {
		return Duration{
			Negative: r.Intn(2) == 1,
			Years:    r.Intn(10),
			Months:   r.Intn(24),
			Weeks:    r.Intn(10),
			Days:     r.Intn(40),
			Hours:    r.Intn(30),
			Minutes:  r.Intn(70),
			Seconds:  float64(r.Intn(70)),
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		d := gen(r)
		got, err := Parse(d.String())
		if err != nil {
			t.Fatalf("Parse(%q) error: %v", d.String(), err)
		}
		// A negative zero duration canonicalizes to positive zero.
		want := d
		if want.IsZero() {
			want.Negative = false
		}
		if got != want {
			t.Fatalf("round trip %+v -> %q -> %+v", d, d.String(), got)
		}
	}
}

func TestAddToCalendarSemantics(t *testing.T) {
	base := time.Date(2017, time.January, 31, 12, 0, 0, 0, time.UTC)
	tests := []struct {
		dur  string
		want time.Time
	}{
		// Go's AddDate normalizes Feb 31 -> Mar 3 (2017 is not a leap year).
		{"P1M", time.Date(2017, time.March, 3, 12, 0, 0, 0, time.UTC)},
		{"P6M", time.Date(2017, time.July, 31, 12, 0, 0, 0, time.UTC)},
		{"P1Y", time.Date(2018, time.January, 31, 12, 0, 0, 0, time.UTC)},
		{"P1W", time.Date(2017, time.February, 7, 12, 0, 0, 0, time.UTC)},
		{"PT36H", time.Date(2017, time.February, 2, 0, 0, 0, 0, time.UTC)},
		{"-P1D", time.Date(2017, time.January, 30, 12, 0, 0, 0, time.UTC)},
	}
	for _, tt := range tests {
		d := MustParse(tt.dur)
		if got := d.AddTo(base); !got.Equal(tt.want) {
			t.Errorf("%s.AddTo(%v) = %v, want %v", tt.dur, base, got, tt.want)
		}
	}
}

// TestAddToInverse: for clock-only durations, adding then subtracting
// returns to the original instant.
func TestAddToInverse(t *testing.T) {
	f := func(hours uint8, minutes uint8, secs uint8) bool {
		d := Duration{Hours: int(hours), Minutes: int(minutes), Seconds: float64(secs)}
		neg := d
		neg.Negative = true
		base := time.Date(2017, time.June, 15, 8, 30, 0, 0, time.UTC)
		return neg.AddTo(d.AddTo(base)).Equal(base)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApproxOrdering(t *testing.T) {
	ordered := []string{"PT1S", "PT1M", "PT1H", "P1D", "P1W", "P1M", "P6M", "P1Y"}
	for i := 1; i < len(ordered); i++ {
		a, b := MustParse(ordered[i-1]), MustParse(ordered[i])
		if a.Cmp(b) >= 0 {
			t.Errorf("want %s < %s (approx)", ordered[i-1], ordered[i])
		}
		if b.Cmp(a) <= 0 {
			t.Errorf("want %s > %s (approx)", ordered[i], ordered[i-1])
		}
	}
	if MustParse("P1M").Cmp(MustParse("P30D")) != 0 {
		t.Error("P1M and P30D should compare equal under Approx convention")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	type doc struct {
		Retention Duration `json:"retention"`
	}
	in := doc{Retention: SixMonths}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"P6M"`) {
		t.Fatalf("marshaled %s, want embedded \"P6M\"", b)
	}
	var out doc
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Retention != in.Retention {
		t.Errorf("JSON round trip: got %+v, want %+v", out.Retention, in.Retention)
	}
	var bad doc
	if err := json.Unmarshal([]byte(`{"retention":"six months"}`), &bad); err == nil {
		t.Error("unmarshal of invalid duration succeeded, want error")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse of invalid input did not panic")
		}
	}()
	MustParse("junk")
}

func TestNegativeApprox(t *testing.T) {
	d := MustParse("-PT2H")
	if got := d.Approx(); got != -2*time.Hour {
		t.Errorf("Approx() = %v, want -2h", got)
	}
}

func TestIsZero(t *testing.T) {
	if !(Duration{}).IsZero() {
		t.Error("zero value should be IsZero")
	}
	if (Duration{Seconds: 0.1}).IsZero() {
		t.Error("PT0.1S should not be IsZero")
	}
}
