package obstore

import (
	"math/rand"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/sensor"
)

// TestCutoffFailsClosed: over random UTC instants — month ends and
// February 29 among them — and the TTLs policies carry, the read
// predicate (the TTL subtracted from the end of the clock's minute)
// never keeps a row that TTL.AddTo(o.Time) <= now expires, and never
// expires a row more than three days early. Three days is how far a
// month or a year subtracted from a date can land past the same span
// added to the other end (March 31 less a month is March 3, not
// February 28); the minute the cutoff is evaluated at the end of adds
// at most one more.
func TestCutoffFailsClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ttls := []isodur.Duration{isodur.MustParse("PT1H"), isodur.MustParse("P7D"), isodur.MustParse("P1M"), isodur.SixMonths, isodur.Year}
	// Instants near the calendar's edges, and anywhere.
	instant := func() time.Time {
		year := 2015 + rng.Intn(12)
		var day time.Time
		switch rng.Intn(4) {
		case 0: // the last days of a month
			first := time.Date(year, time.Month(1+rng.Intn(12)), 1, 0, 0, 0, 0, time.UTC)
			day = first.AddDate(0, 1, -1-rng.Intn(3))
		case 1: // around a February 29
			day = time.Date(2016+4*rng.Intn(3), time.February, 27+rng.Intn(4), 0, 0, 0, 0, time.UTC)
		case 2: // the first days of a month
			day = time.Date(year, time.Month(1+rng.Intn(12)), 1+rng.Intn(3), 0, 0, 0, 0, time.UTC)
		default:
			day = time.Date(year, time.January, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, rng.Intn(366))
		}
		return day.Add(time.Duration(rng.Int63n(int64(24 * time.Hour))))
	}
	const early = 3*24*time.Hour + time.Minute
	worst := time.Duration(0)
	for i := 0; i < 100000; i++ {
		ttl := ttls[rng.Intn(len(ttls))]
		now := instant()
		s := New()
		s.SetClock(func() time.Time { return now })
		s.AddRetentionRule(RetentionRule{Kind: sensor.ObsWiFiConnect, TTL: ttl})
		cut := s.Cutoffs()
		// A row near its expiry: its TTL runs out within a few days of now.
		o := sensor.Observation{Kind: sensor.ObsWiFiConnect}
		back := ttl
		back.Negative = true
		o.Time = back.AddTo(now).Add(time.Duration(rng.Int63n(int64(8*24*time.Hour))) - 4*24*time.Hour)
		expiry := ttl.AddTo(o.Time)
		if !expiry.After(now) && !cut.Expired(&o) {
			t.Fatalf("TTL %v, now %v: a row observed %v expired at %v and is kept", ttl, now, o.Time, expiry)
		}
		if cut.Expired(&o) {
			if d := expiry.Sub(now); d > early {
				t.Fatalf("TTL %v, now %v: a row observed %v expires at %v, %v early", ttl, now, o.Time, expiry, d)
			} else if d > worst {
				worst = d
			}
		}
	}
	t.Logf("the earliest expiry seen: %v before the row's TTL ran out", worst)
}
