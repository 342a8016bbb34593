package obstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/sensor"
)

// sliceTier is the smallest ColdTier: sealed rows in a slice, deleted
// ones in a set. It stands in for internal/colstore (which imports this
// package) so the seam — union reads, deletes over both tiers, Len,
// eviction and the checkpoint it runs — is tested where it lives.
type sliceTier struct {
	mu   sync.Mutex
	rows []sensor.Observation // ascending seq, all <= wm
	wm   uint64
	dead map[uint64]bool
}

func (t *sliceTier) ObservationsDeleted(dels []Deletion) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, d := range dels {
		if d.Seq <= t.wm {
			t.dead[d.Seq] = true
		}
	}
}

func (t *sliceTier) ScanCold(f Filter, cut *Cutoffs, visit func(*sensor.Observation, Codes) bool) (Filter, bool) {
	t.mu.Lock()
	var match []sensor.Observation
	for i := range t.rows {
		if o := &t.rows[i]; o.Seq > f.AfterSeq && !t.dead[o.Seq] && matches(o, &f) && !cut.Expired(o) {
			match = append(match, *o)
		}
	}
	tail := f
	tail.AfterSeq = max(f.AfterSeq, t.wm)
	t.mu.Unlock()
	for i := range match {
		if !visit(&match[i], Codes{}) {
			return tail, false
		}
		if f.Limit > 0 && i+1 >= f.Limit {
			return tail, false
		}
	}
	if f.Limit > 0 {
		tail.Limit = f.Limit - len(match)
	}
	return tail, true
}

// ColdRows counts the rows that are not dead: a deletion racing a seal
// can mark a seq the seal never took.
func (t *sliceTier) ColdRows() (int, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, o := range t.rows {
		if !t.dead[o.Seq] {
			n++
		}
	}
	return n, t.wm
}

// seal takes over every row of s up to wm, as a compaction commit
// would, and lets s evict them. It holds the tier's lock from reading
// the log to raising the watermark, so a deletion of a row it takes is
// recorded against the new watermark.
func (t *sliceTier) seal(s *Store, wm uint64) int {
	t.mu.Lock()
	v := s.view(Filter{}, nil)
	v.each(Filter{AfterSeq: t.wm}, func(o *sensor.Observation, _ Codes) bool {
		if o.Seq <= wm {
			t.rows = append(t.rows, *o)
		}
		return o.Seq < wm
	})
	t.wm = max(t.wm, wm)
	t.mu.Unlock()
	return s.EvictThrough(wm)
}

func attachSliceTier(s *Store) *sliceTier {
	t := &sliceTier{dead: make(map[uint64]bool)}
	s.AttachTier(t)
	return t
}

// TestTierUnionMatchesPlainStore: with most of its history sealed into
// a cold tier and evicted, the store answers Query, Count, Len and
// Users, pages on a cursor, deletes by erasure and hides what retention
// expires with the same results and counts as a store that kept every
// row.
func TestTierUnionMatchesPlainStore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, twin := New(), New()
	tier := attachSliceTier(s)
	now := t0
	for _, st := range []*Store{s, twin} {
		st.SetClock(func() time.Time { return now })
		st.SetDefaultRetention(isodur.MustParse("PT40M"))
		st.AddRetentionRule(RetentionRule{Kind: sensor.ObsPowerReading, TTL: isodur.MustParse("PT10M")})
	}
	add := func(n int) {
		for i := 0; i < n; i++ {
			o := sensor.Observation{
				SensorID: fmt.Sprintf("ap-%d", rng.Intn(5)),
				UserID:   []string{"", "u0", "u1", "u2", "u3"}[rng.Intn(5)],
				Kind:     []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsPowerReading}[rng.Intn(2)],
				SpaceID:  fmt.Sprintf("s%d", rng.Intn(3)),
				Time:     t0.Add(time.Duration(rng.Intn(3600)) * time.Second),
				Value:    float64(i),
			}
			a, err := s.Append(o)
			if err != nil {
				t.Fatal(err)
			}
			if b, _ := twin.Append(o); a.Seq != b.Seq {
				t.Fatalf("seq %d vs the twin's %d", a.Seq, b.Seq)
			}
		}
	}
	check := func(stage string) {
		t.Helper()
		// Len counts stored rows: after a sweep the twin has dropped the
		// expired rows the tier still holds.
		if got, want := s.Len(), twin.Len(); got != want && stage != "after sweep" {
			t.Fatalf("%s: Len = %d, the twin holds %d", stage, got, want)
		}
		if got, want := s.Users(), twin.Users(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Users = %v, the twin lists %v", stage, got, want)
		}
		for trial := 0; trial < 40; trial++ {
			var f Filter
			if rng.Intn(2) == 0 {
				f.UserID = fmt.Sprintf("u%d", rng.Intn(5))
			}
			if rng.Intn(3) == 0 {
				f.SensorID = fmt.Sprintf("ap-%d", rng.Intn(5))
			}
			if rng.Intn(3) == 0 {
				f.From = t0.Add(time.Duration(rng.Intn(3000)) * time.Second)
				f.To = f.From.Add(10 * time.Minute)
			}
			if rng.Intn(3) == 0 {
				f.SpaceIDs = []string{"s0", "s2"}
			}
			if rng.Intn(2) == 0 {
				f.AfterSeq = uint64(rng.Intn(700))
			}
			if rng.Intn(2) == 0 {
				f.Limit = 1 + rng.Intn(60)
			}
			if got, want := s.Query(f), twin.Query(f); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %+v: %d rows, the twin has %d", stage, f, len(got), len(want))
			}
			var scanned []sensor.Observation
			s.Scan(f, func(o *sensor.Observation, _ Codes) bool {
				scanned = append(scanned, *o)
				return true
			})
			if want := twin.Query(f); len(scanned)+len(want) > 0 && !reflect.DeepEqual(scanned, want) {
				t.Fatalf("%s: %+v: Scan visited %d rows, the twin has %d", stage, f, len(scanned), len(want))
			}
			if got, want := s.Count(f), twin.Count(f); got != want {
				t.Fatalf("%s: %+v: Count = %d, the twin says %d", stage, f, got, want)
			}
		}
	}
	add(400)
	check("all hot")
	if n := tier.seal(s, 300); n != 300 || s.Resident() != 100 || s.Evicted() != 300 {
		t.Fatalf("sealing 300 rows evicted %d, left %d resident", n, s.Resident())
	}
	check("300 cold")
	add(200)
	check("more hot")
	if got, want := s.DeleteUser("u1", nil), twin.DeleteUser("u1", nil); got != want || got == 0 {
		t.Fatalf("DeleteUser removed %d rows, the twin %d", got, want)
	}
	check("after erasure")
	tier.seal(s, 520)
	check("520 cold")
	now = t0.Add(75 * time.Minute) // everything on the short rule, and the oldest third of the rest
	check("expired")
	if got, want := s.Sweep(now), twin.Sweep(now); got == 0 || got >= want {
		t.Fatalf("Sweep removed %d hot rows, the twin %d: the tier's rows are not the sweep's", got, want)
	}
	check("after sweep")
}

// TestAttachTierAheadOfStore: a tier that already holds history (its
// directory outlived the store's) must not have new observations
// numbered on top of its rows, where no reader would look for them.
func TestAttachTierAheadOfStore(t *testing.T) {
	old := New()
	tier := attachSliceTier(old)
	for i := 0; i < 30; i++ {
		if _, err := old.Append(durableObs(i, "u1")); err != nil {
			t.Fatal(err)
		}
	}
	tier.seal(old, 30)

	fresh := New()
	fresh.AttachTier(tier)
	o, err := fresh.Append(durableObs(3600, "u2"))
	if err != nil {
		t.Fatal(err)
	}
	if o.Seq != 31 {
		t.Fatalf("first append on the new store got seq %d, want 31", o.Seq)
	}
	if got := fresh.Len(); got != 31 {
		t.Fatalf("Len = %d, want the tier's 30 rows and the new one", got)
	}
	if rows := fresh.Query(Filter{AfterSeq: 29}); len(rows) != 2 || rows[1].UserID != "u2" {
		t.Fatalf("rows after seq 29: %+v", rows)
	}
}

// deletionWatch is a sliceTier that records the store's deletion count
// each time it is told of deleted rows.
type deletionWatch struct {
	*sliceTier
	s    *Store
	seen []uint64
}

func (w *deletionWatch) ObservationsDeleted(dels []Deletion) {
	w.seen = append(w.seen, w.s.Deletions())
	w.sliceTier.ObservationsDeleted(dels)
}

// TestDeletionsCountsCallsThatRemoved: the deletion count moves once
// for each Sweep or DeleteUser that removed a row, hot or cold, and not
// for one that removed nothing; and it moves only after the tier holds
// the deletion's tombstones, so a reader that sees the new count never
// scans a row the deletion removed. Sweep tells the tier nothing: it
// drops expired rows from the log alone.
func TestDeletionsCountsCallsThatRemoved(t *testing.T) {
	s := New()
	s.SetClock(func() time.Time { return t0.Add(4*time.Minute + 30*time.Second) })
	w := &deletionWatch{sliceTier: &sliceTier{dead: make(map[uint64]bool)}, s: s}
	s.AttachTier(w)
	for i := 0; i < 6; i++ {
		o := sensor.Observation{SensorID: "ap-1", Kind: sensor.ObsWiFiConnect, UserID: fmt.Sprintf("u%d", i%3),
			Time: t0.Add(time.Duration(i) * time.Minute)}
		if _, err := s.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	w.seal(s, 3) // u0, u1, u2 once each in the tier, once each in the log
	steps := []struct {
		name    string
		remove  func() int
		removed int
	}{
		{"an erasure of a subject with no row", func() int { return s.DeleteUser("nobody", nil) }, 0},
		{"an erasure across both tiers", func() int { return s.DeleteUser("u0", nil) }, 2},
		{"a sweep that expires nothing", func() int { return s.Sweep(t0) }, 0},
		{"a sweep of the log", func() int {
			s.SetDefaultRetention(isodur.MustParse("PT1M"))
			return s.Sweep(t0.Add(5 * time.Minute))
		}, 1},
	}
	for _, st := range steps {
		before, told := s.Deletions(), len(w.seen)
		if n := st.remove(); n != st.removed {
			t.Fatalf("%s removed %d rows, want %d", st.name, n, st.removed)
		}
		want := before
		if st.removed > 0 {
			want++
		}
		if got := s.Deletions(); got != want {
			t.Fatalf("after %s the count is %d, want %d", st.name, got, want)
		}
		for _, c := range w.seen[told:] {
			if c != before {
				t.Fatalf("%s: the tier was told of its rows with the count already at %d, want %d", st.name, c, before)
			}
		}
	}
	if n := s.Count(Filter{}); n != 1 {
		t.Fatalf("%d rows left, want u2's newest", n)
	}
}
