package obstore

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/sensor"
)

var t0 = time.Date(2017, time.June, 1, 8, 0, 0, 0, time.UTC)

func obsAt(minute int, sensorID, userID, spaceID string, kind sensor.ObservationKind) sensor.Observation {
	return sensor.Observation{
		SensorID: sensorID,
		UserID:   userID,
		SpaceID:  spaceID,
		Kind:     kind,
		Time:     t0.Add(time.Duration(minute) * time.Minute),
	}
}

func newPopulatedStore(t testing.TB) *Store {
	t.Helper()
	s := New()
	seed := []sensor.Observation{
		obsAt(0, "ap-1", "mary", "dbh/1", sensor.ObsWiFiConnect),
		obsAt(5, "ap-1", "bob", "dbh/1", sensor.ObsWiFiConnect),
		obsAt(10, "ap-2", "mary", "dbh/2", sensor.ObsWiFiConnect),
		obsAt(15, "ble-1", "mary", "dbh/2/2065", sensor.ObsBLESighting),
		obsAt(20, "pm-1", "", "dbh/2/2065", sensor.ObsPowerReading),
		obsAt(25, "cam-1", "", "dbh/1/corr", sensor.ObsCameraFrame),
	}
	appendAll(t, s, seed)
	return s
}

func appendAll(t testing.TB, s *Store, obs []sensor.Observation) {
	t.Helper()
	for _, o := range obs {
		if _, err := s.Append(o); err != nil {
			t.Fatal(err)
		}
	}
}

// counters are the store's stored-row count and its ingest and removal
// counters.
type counters struct {
	live            int
	ingested, swept uint64
}

func (s *Store) counters() counters {
	return counters{s.Len(), s.totalIngests.Load(), s.totalSwept.Load()}
}

// matches is the reference Filter predicate, by strings, over
// everything but AfterSeq and Limit: the tests' slice tiers and
// reference scans apply it, the log by its codes.
func matches(o *sensor.Observation, f *Filter) bool {
	if !f.From.IsZero() && o.Time.Before(f.From) {
		return false
	}
	if !f.To.IsZero() && !o.Time.Before(f.To) {
		return false
	}
	if f.SensorID != "" && o.SensorID != f.SensorID {
		return false
	}
	if f.UserID != "" && o.UserID != f.UserID {
		return false
	}
	if f.DeviceMAC != "" && o.DeviceMAC != f.DeviceMAC {
		return false
	}
	if f.Kind != "" && o.Kind != f.Kind {
		return false
	}
	return len(f.SpaceIDs) == 0 || slices.Contains(f.SpaceIDs, o.SpaceID)
}

func TestAppendAssignsSeq(t *testing.T) {
	s := New()
	a, err := s.Append(obsAt(0, "ap-1", "mary", "dbh/1", sensor.ObsWiFiConnect))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Append(obsAt(1, "ap-1", "mary", "dbh/1", sensor.ObsWiFiConnect))
	if a.Seq == 0 || b.Seq <= a.Seq {
		t.Errorf("seqs not increasing: %d, %d", a.Seq, b.Seq)
	}
	if _, err := s.Append(sensor.Observation{SensorID: "x"}); !errors.Is(err, ErrZeroTime) {
		t.Errorf("zero-time append: %v", err)
	}
}

func TestQueryFilters(t *testing.T) {
	s := newPopulatedStore(t)
	tests := []struct {
		name string
		f    Filter
		want int
	}{
		{"all", Filter{}, 6},
		{"by user", Filter{UserID: "mary"}, 3},
		{"by sensor", Filter{SensorID: "ap-1"}, 2},
		{"by kind", Filter{Kind: sensor.ObsWiFiConnect}, 3},
		{"by space", Filter{SpaceIDs: []string{"dbh/2/2065"}}, 2},
		{"by spaces", Filter{SpaceIDs: []string{"dbh/1", "dbh/2"}}, 3},
		{"user+kind", Filter{UserID: "mary", Kind: sensor.ObsWiFiConnect}, 2},
		{"time window", Filter{From: t0.Add(5 * time.Minute), To: t0.Add(16 * time.Minute)}, 3},
		{"to exclusive", Filter{To: t0.Add(5 * time.Minute)}, 1},
		{"from inclusive", Filter{From: t0.Add(25 * time.Minute)}, 1},
		{"limit", Filter{Limit: 2}, 2},
		{"no match", Filter{UserID: "ghost"}, 0},
		{"mac", Filter{DeviceMAC: "absent"}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := s.Query(tt.f)
			if len(got) != tt.want {
				t.Errorf("Query(%+v) = %d observations, want %d", tt.f, len(got), tt.want)
			}
		})
	}
}

func TestQueryOrderAndCount(t *testing.T) {
	s := newPopulatedStore(t)
	got := s.Query(Filter{UserID: "mary"})
	for i := 1; i < len(got); i++ {
		if got[i-1].Seq >= got[i].Seq {
			t.Error("results not in insertion order")
		}
	}
	if got := s.Count(Filter{UserID: "mary", Limit: 1}); got != 3 {
		t.Errorf("Count ignores Limit: got %d, want 3", got)
	}
}

func TestQueryAfterSeqPages(t *testing.T) {
	s := newPopulatedStore(t)
	// Page through the full log two at a time using the cursor.
	var got []uint64
	var cursor uint64
	for {
		page := s.Query(Filter{AfterSeq: cursor, Limit: 2})
		if len(page) == 0 {
			break
		}
		if len(page) > 2 {
			t.Fatalf("page size %d exceeds limit", len(page))
		}
		for _, o := range page {
			got = append(got, o.Seq)
		}
		cursor = page[len(page)-1].Seq
	}
	if len(got) != s.Len() {
		t.Fatalf("paged %d observations, store holds %d", len(got), s.Len())
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("page seqs not ascending: %v", got)
		}
	}
	// Cursor composes with narrower index filters too.
	mary := s.Query(Filter{UserID: "mary"})
	tail := s.Query(Filter{UserID: "mary", AfterSeq: mary[0].Seq})
	if len(tail) != len(mary)-1 {
		t.Errorf("AfterSeq over user index returned %d, want %d", len(tail), len(mary)-1)
	}
	// A cursor at or past the newest seq yields nothing.
	if rest := s.Query(Filter{AfterSeq: got[len(got)-1]}); len(rest) != 0 {
		t.Errorf("cursor at tail returned %d observations", len(rest))
	}
}

func TestRetentionDefault(t *testing.T) {
	s := newPopulatedStore(t)
	if n := s.Sweep(t0.Add(24 * time.Hour)); n != 0 {
		t.Fatalf("sweep with no rules removed %d", n)
	}
	s.SetDefaultRetention(isodur.MustParse("PT10M"))
	// At t0+20m: obs at minutes 0,5,10 have expired (expiry = obsTime+10m <= now).
	if n := s.Sweep(t0.Add(20 * time.Minute)); n != 3 {
		t.Fatalf("sweep removed %d, want 3", n)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	// Reads apply the default before any sweep, on the store's clock.
	s.SetClock(func() time.Time { return t0.Add(40 * time.Minute) })
	if got := s.Count(Filter{}); got != 0 {
		t.Errorf("reads at t0+40m see %d rows past a ten-minute retention", got)
	}
}

// TestRetentionPrecedence: the first rule installed on a kind wins, and
// reads apply the table with no Sweep; Sweep then drops what reads
// already skip.
func TestRetentionPrecedence(t *testing.T) {
	s := newPopulatedStore(t)
	s.SetClock(func() time.Time { return t0.Add(30 * time.Minute) })
	s.AddRetentionRule(RetentionRule{Kind: sensor.ObsWiFiConnect, TTL: isodur.SixMonths})
	s.AddRetentionRule(RetentionRule{Kind: sensor.ObsWiFiConnect, TTL: isodur.MustParse("PT1M")}) // second on wifi: ignored
	s.AddRetentionRule(RetentionRule{Kind: sensor.ObsBLESighting, TTL: isodur.MustParse("PT10M")})
	// Reads at t0+30m evaluate at t0+31m: the BLE sighting at minute 15
	// is past its ten minutes, the wifi rows are inside six months.
	if got := s.Count(Filter{Kind: sensor.ObsWiFiConnect}); got != 3 {
		t.Errorf("wifi observations = %d, want 3 (the first rule on a kind wins)", got)
	}
	if got := s.Query(Filter{Kind: sensor.ObsBLESighting}); len(got) != 0 {
		t.Errorf("expired BLE sighting read before any sweep: %v", got)
	}
	if got := s.Len(); got != 6 {
		t.Errorf("Len = %d, want 6: it counts stored rows", got)
	}
	if n := s.Sweep(t0.Add(30 * time.Minute)); n != 1 {
		t.Fatalf("sweep removed %d, want the BLE sighting", n)
	}
	if got := s.Len(); got != 5 {
		t.Errorf("Len after sweep = %d, want 5", got)
	}
}

// TestRetentionKindBeatsCatchAll: a rule with no kind is the default
// TTL, and a kind's own rule beats it.
func TestRetentionKindBeatsCatchAll(t *testing.T) {
	s := newPopulatedStore(t)
	s.SetClock(func() time.Time { return t0.Add(time.Hour) })
	s.AddRetentionRule(RetentionRule{TTL: isodur.MustParse("PT1M")})                 // catch-all: 1 minute
	s.AddRetentionRule(RetentionRule{Kind: sensor.ObsWiFiConnect, TTL: isodur.Year}) // wifi: 1 year
	if got := s.Count(Filter{}); got != 3 {
		t.Errorf("readable observations = %d, want the 3 wifi ones (kind rule beats catch-all)", got)
	}
	s.Sweep(t0.Add(time.Hour))
	if got := s.Len(); got != 3 {
		t.Errorf("Len = %d, want 3 (non-wifi swept)", got)
	}
}

func TestSweepIdempotent(t *testing.T) {
	s := newPopulatedStore(t)
	s.SetDefaultRetention(isodur.MustParse("PT1M"))
	now := t0.Add(time.Hour)
	first := s.Sweep(now)
	second := s.Sweep(now)
	if first != 6 || second != 0 {
		t.Errorf("sweeps = %d, %d; want 6, 0", first, second)
	}
	if st := s.counters(); st != (counters{0, 6, 6}) {
		t.Errorf("counters = %+v", st)
	}
}

func TestDeleteUser(t *testing.T) {
	s := newPopulatedStore(t)
	if n := s.DeleteUser("mary", nil); n != 3 {
		t.Fatalf("DeleteUser removed %d, want 3", n)
	}
	if got := s.Query(Filter{UserID: "mary"}); len(got) != 0 {
		t.Errorf("mary still queryable: %v", got)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if n := s.DeleteUser("mary", nil); n != 0 {
		t.Errorf("second DeleteUser removed %d", n)
	}
	users := s.Users()
	for _, u := range users {
		if u == "mary" {
			t.Error("Users() still lists mary")
		}
	}
}

func TestUsersListsLiveOnly(t *testing.T) {
	s := newPopulatedStore(t)
	got := s.Users()
	if len(got) != 2 || got[0] != "bob" || got[1] != "mary" {
		t.Errorf("Users() = %v, want [bob mary]", got)
	}
}

// TestCompaction drives enough churn to trigger index compaction and
// verifies queries stay correct afterwards.
func TestCompaction(t *testing.T) {
	s := New()
	s.SetDefaultRetention(isodur.MustParse("PT1M"))
	base := t0
	const n = 3000
	s.SetClock(func() time.Time { return base.Add(n / 2 * time.Second) })
	for i := 0; i < n; i++ {
		_, err := s.Append(sensor.Observation{
			SensorID: fmt.Sprintf("ap-%d", i%7),
			UserID:   fmt.Sprintf("u-%d", i%11),
			Kind:     sensor.ObsWiFiConnect,
			SpaceID:  "dbh/1",
			Time:     base.Add(time.Duration(i) * time.Second),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Expire roughly the first half.
	removed := s.Sweep(base.Add(n/2*time.Second + time.Minute))
	if removed == 0 {
		t.Fatal("nothing swept")
	}
	if s.Len() != n-removed {
		t.Fatalf("Len = %d, want %d", s.Len(), n-removed)
	}
	// All queries must agree with a brute-force count.
	got := s.Count(Filter{SensorID: "ap-3"})
	want := 0
	for _, o := range s.Query(Filter{}) {
		if o.SensorID == "ap-3" {
			want++
		}
	}
	if got != want {
		t.Errorf("post-compaction Count(ap-3) = %d, want %d", got, want)
	}
	// New appends still work and are queryable.
	s.Append(sensor.Observation{SensorID: "ap-3", Kind: sensor.ObsWiFiConnect, Time: base.Add(2 * n * time.Second)})
	if s.Count(Filter{SensorID: "ap-3"}) != want+1 {
		t.Error("append after compaction not visible")
	}
}

// TestQueryEquivalenceProperty: indexed queries must return the same
// multiset as a brute-force scan, across random filters and data.
func TestQueryEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	s := New()
	kinds := []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting, sensor.ObsPowerReading}
	var all []sensor.Observation
	for i := 0; i < 500; i++ {
		o := sensor.Observation{
			SensorID: fmt.Sprintf("s-%d", r.Intn(5)),
			UserID:   fmt.Sprintf("u-%d", r.Intn(4)),
			SpaceID:  fmt.Sprintf("sp-%d", r.Intn(3)),
			Kind:     kinds[r.Intn(len(kinds))],
			Time:     t0.Add(time.Duration(r.Intn(1000)) * time.Second),
		}
		stored, err := s.Append(o)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, stored)
	}
	for trial := 0; trial < 200; trial++ {
		f := Filter{}
		if r.Intn(2) == 0 {
			f.SensorID = fmt.Sprintf("s-%d", r.Intn(5))
		}
		if r.Intn(2) == 0 {
			f.UserID = fmt.Sprintf("u-%d", r.Intn(4))
		}
		if r.Intn(2) == 0 {
			f.Kind = kinds[r.Intn(len(kinds))]
		}
		if r.Intn(2) == 0 {
			f.SpaceIDs = []string{fmt.Sprintf("sp-%d", r.Intn(3))}
		}
		if r.Intn(2) == 0 {
			f.From = t0.Add(time.Duration(r.Intn(500)) * time.Second)
			f.To = f.From.Add(time.Duration(r.Intn(500)) * time.Second)
		}
		got := s.Query(f)
		want := 0
		spaceSet := map[string]bool{}
		for _, id := range f.SpaceIDs {
			spaceSet[id] = true
		}
		for _, o := range all {
			if f.SensorID != "" && o.SensorID != f.SensorID {
				continue
			}
			if f.UserID != "" && o.UserID != f.UserID {
				continue
			}
			if f.Kind != "" && o.Kind != f.Kind {
				continue
			}
			if len(spaceSet) > 0 && !spaceSet[o.SpaceID] {
				continue
			}
			if !f.From.IsZero() && o.Time.Before(f.From) {
				continue
			}
			if !f.To.IsZero() && !o.Time.Before(f.To) {
				continue
			}
			want++
		}
		if len(got) != want {
			t.Fatalf("filter %+v: indexed=%d brute=%d", f, len(got), want)
		}
	}
}

func TestConcurrentIngestAndQuery(t *testing.T) {
	s := New()
	s.SetDefaultRetention(isodur.Day)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, err := s.Append(sensor.Observation{
					SensorID: fmt.Sprintf("s-%d", g),
					UserID:   "u",
					Kind:     sensor.ObsWiFiConnect,
					Time:     t0.Add(time.Duration(i) * time.Second),
				})
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if i%50 == 0 {
					s.Query(Filter{UserID: "u", Limit: 10})
					s.Sweep(t0)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8*200 {
		t.Errorf("Len = %d, want 1600", s.Len())
	}
}
