package query

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

// TestValueIs32Bytes: a cell is a string header, one 64-bit word, the
// nanoseconds beside it and the kind, so every result row costs 32 bytes
// a column. A cell that holds a time.Time again is 64.
func TestValueIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 32 {
		t.Fatalf("a Value is %d bytes, want at most 32", n)
	}
}

// TestValuePrintsItsCell: %v prints a cell as its value, not as the
// words that hold it, so a failure message that prints cells reads.
func TestValuePrintsItsCell(t *testing.T) {
	cells := []Value{
		StringValue("4"), NumberValue(4), NumberValue(2.5), BoolValue(true),
		TimeValue(time.Date(1969, 12, 31, 23, 59, 59, 5, time.FixedZone("x", 7200))), {},
	}
	const want = `["4" 4 2.5 true 1969-12-31T21:59:59.000000005Z NULL]`
	if got := fmt.Sprintf("%v", cells); got != want {
		t.Errorf("%%v of the cells = %s, want %s", got, want)
	}
}

// TestTimeValueKeepsTheInstant: a time cell keeps every instant a time
// literal can name, Unix nanoseconds' range (1678–2262) and beyond,
// reads back in UTC, orders as time.Time's Before and After do, groups
// by time.Time.UnixNano's encoding and renders as RFC 3339 in UTC.
func TestTimeValueKeepsTheInstant(t *testing.T) {
	lits := []string{
		"0001-01-01",
		"0001-01-01T00:00:00.000000001Z",
		"1969-12-31T23:59:59.123456789Z",
		"1970-01-01 00:00:00",
		"2262-04-11T23:47:16.854775807Z", // the last instant in Unix nanoseconds
		"2262-04-12",
		"2262-04-12T00:00:00.5Z",
		"3000-06-07T14:00:00Z",
		"9999-12-31T23:59:59.999999999Z",
		"2017-06-07T19:30:00+05:30",
	}
	times := make([]time.Time, len(lits))
	for i, lit := range lits {
		ts, ok := parseTimeLiteral(lit)
		if !ok {
			t.Fatalf("%q does not parse", lit)
		}
		times[i] = ts
		v := TimeValue(ts)
		if got := v.Time(); !got.Equal(ts) || got.Location() != time.UTC {
			t.Errorf("%s: Time() = %v, want %v in UTC", lit, got, ts)
		}
		if got, want := v.JSON(), ts.UTC().Format(time.RFC3339Nano); got != want {
			t.Errorf("%s: JSON() = %v, want %s", lit, got, want)
		}
		if got, want := v.Render(), ts.UTC().Format(time.RFC3339); got != want {
			t.Errorf("%s: Render() = %q, want %q", lit, got, want)
		}
		enc := strconv.AppendInt(nil, ts.UnixNano(), 10)
		want := append(strconv.AppendInt([]byte{byte(KindTime)}, int64(len(enc)), 10), ':')
		if got := v.groupKey(nil); string(got) != string(append(want, enc...)) {
			t.Errorf("%s: groupKey = %q, want %q", lit, got, append(want, enc...))
		}
	}
	for i, a := range times {
		for j, b := range times {
			want := 0
			if a.Before(b) {
				want = -1
			} else if a.After(b) {
				want = 1
			}
			if got := TimeValue(a).compare(TimeValue(b)); got != want {
				t.Errorf("compare(%s, %s) = %d, want %d", lits[i], lits[j], got, want)
			}
		}
	}

	te := &testEnv{obs: defaultObs()}
	res := mustRun(t, te, reqr(), "SELECT seq, time FROM observations WHERE time >= '0001-01-01'")
	if len(res.Rows) != len(te.obs) {
		t.Fatalf("time >= '0001-01-01' returned %d rows, want all %d", len(res.Rows), len(te.obs))
	}
	for i, row := range res.Rows {
		if o := te.obs[i]; !row[1].Time().Equal(o.Time) {
			t.Errorf("row %d: time %v, captured at %v", o.Seq, row[1].Time(), o.Time)
		}
	}
}

// TestRowModeBytesPerRow: a row-mode statement's result costs its cells
// and one row header: four 32-byte cells and a 24-byte slice header are
// 152 bytes a released row, and the chunks' size classes and their
// last, partly filled one add the rest (158 measured; 178 with chunks
// of whole powers of two rows). With 64-byte cells and a row list grown
// row by row the same statement measured 355 bytes a row, and 211 with
// 32-byte cells alone.
func TestRowModeBytesPerRow(t *testing.T) {
	const rows = 1000
	obs := make([]sensor.Observation, rows)
	for i := range obs {
		obs[i] = obsAt(uint64(i+1), "ap-1", fmt.Sprintf("dbh/%d", i%4), fmt.Sprintf("u%02d", i%10), i%600, 1)
	}
	env := Env{
		ScanEach: func(f obstore.Filter, visit func(*sensor.Observation, obstore.Codes) bool) {
			var scratch sensor.Observation
			for i := range obs {
				scratch = obs[i]
				if !visit(&scratch, obstore.Codes{}) {
					return
				}
			}
		},
		Decide: func(req enforce.Request) enforce.Decision {
			return enforce.Decision{Allowed: true, Granularity: policy.GranExact}
		},
		Apply: func(d enforce.Decision, o sensor.Observation) (sensor.Observation, bool, error) { return o, true, nil },
	}
	stmt, err := Parse("SELECT seq, time, user_id, space_id FROM observations")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(stmt, env, reqr())
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := plan.Execute()
		if err != nil || len(res.Rows) != rows || res.Stats.ReleasedRows != rows {
			t.Fatalf("%d rows, stats %+v, err %v; want %d released", len(res.Rows), res.Stats, err, rows)
		}
	}
	run() // warm the pooled tables
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / (runs * rows)
	t.Logf("SELECT seq, time, user_id, space_id: %.1f B per released row", perRow)
	if perRow > 192 {
		t.Errorf("a released row of four columns costs %.1f B in Execute, want at most 192", perRow)
	}
}
