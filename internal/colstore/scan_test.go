package colstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// oracleQuery is the read path Scan replaced, kept as the reference:
// collect one page of matching unexpired rows per unpruned segment
// under s.mu, k-way merge the pages by seq, then append the row
// store's tail above the watermark.
func oracleQuery(s *Store, f obstore.Filter) []sensor.Observation {
	s.mu.RLock()
	src := s.src
	wm := s.wm
	var segRows []sensor.Observation
	if len(s.segs) > 0 && f.AfterSeq < s.wm {
		spaceSet := spaceSetFor(f)
		var cut *obstore.Cutoffs
		if src != nil {
			cut = src.Cutoffs()
		}
		var pages [][]sensor.Observation
		for _, sg := range s.segs {
			if sg.disjoint(&f) {
				continue
			}
			var page []sensor.Observation
			for i := 0; i < sg.rows(); i++ {
				if _, dead := s.seqTomb[sg.seqs[i]]; dead {
					continue
				}
				if o := sg.row(i); oracleRowMatches(o, f, spaceSet) && !cut.Expired(&o) {
					page = append(page, o)
				}
			}
			if len(page) > 0 {
				pages = append(pages, page)
			}
		}
		segRows = oracleMerge(pages, f.Limit)
	}
	s.mu.RUnlock()
	if src == nil {
		return segRows
	}
	tf := f
	if wm > tf.AfterSeq {
		tf.AfterSeq = wm
	}
	if tf.Limit > 0 {
		tf.Limit -= len(segRows)
		if tf.Limit <= 0 {
			return segRows
		}
	}
	return append(segRows, src.Query(tf)...)
}

// spaceSetFor is the oracle's space predicate: a set of f.SpaceIDs, nil
// when f names no space.
func spaceSetFor(f obstore.Filter) map[string]bool {
	if len(f.SpaceIDs) == 0 {
		return nil
	}
	set := make(map[string]bool, len(f.SpaceIDs))
	for _, id := range f.SpaceIDs {
		set[id] = true
	}
	return set
}

func oracleRowMatches(o sensor.Observation, f obstore.Filter, spaceSet map[string]bool) bool {
	switch {
	case o.Seq <= f.AfterSeq,
		!f.From.IsZero() && o.Time.Before(f.From),
		!f.To.IsZero() && !o.Time.Before(f.To),
		f.SensorID != "" && o.SensorID != f.SensorID,
		f.UserID != "" && o.UserID != f.UserID,
		f.DeviceMAC != "" && o.DeviceMAC != f.DeviceMAC,
		f.Kind != "" && o.Kind != f.Kind,
		spaceSet != nil && !spaceSet[o.SpaceID]:
		return false
	}
	return true
}

func oracleMerge(pages [][]sensor.Observation, limit int) []sensor.Observation {
	var out []sensor.Observation
	heads := make([]int, len(pages))
	for {
		best := -1
		for i, p := range pages {
			if heads[i] < len(p) && (best < 0 || p[heads[i]].Seq < pages[best][heads[best]].Seq) {
				best = i
			}
		}
		if best < 0 || (limit > 0 && len(out) >= limit) {
			return out
		}
		out = append(out, pages[best][heads[best]])
		heads[best]++
	}
}

var poison = sensor.Observation{Seq: ^uint64(0), SensorID: "POISON", SpaceID: "POISON", UserID: "POISON"}

// poisoning wraps a visitor so the row it was handed is overwritten
// the moment it returns: anything that kept the pointer instead of
// copying reads poison, not a plausible stale row.
func poisoning(visit func(*sensor.Observation) bool) func(*sensor.Observation) bool {
	return func(o *sensor.Observation) bool {
		ok := visit(o)
		*o = poison
		return ok
	}
}

func scanAll(src *obstore.Store, f obstore.Filter) []sensor.Observation {
	var out []sensor.Observation
	src.Scan(f, poisoning(func(o *sensor.Observation) bool {
		out = append(out, *o)
		return true
	}))
	return out
}

// scanWorld ingests rows whose observation times jump between buckets
// in arrival order, so every compaction pass seals several segments
// with interleaved seq ranges, then leaves seq tombstones from an
// erasure, a retention cutoff inside a sealed segment, and an
// uncompacted tail, in place. Every mutation is mirrored into a twin
// store that never evicts.
func scanWorld(t *testing.T, rng *rand.Rand) (mirrored, *Store) {
	t.Helper()
	m, cs := newMirroredPair(t, "")
	add := func(n int) {
		for i := 0; i < n; i++ {
			at := csNow.Add(-time.Duration(2+rng.Intn(12)) * time.Minute).Add(time.Duration(rng.Intn(60000)) * time.Millisecond)
			kind := sensor.ObsWiFiConnect
			if rng.Intn(4) == 0 {
				kind = sensor.ObsPowerReading
			}
			o := obsAt(fmt.Sprintf("ap-%d", rng.Intn(4)), fmt.Sprintf("s%d", rng.Intn(4)),
				[]string{"", "u0", "u1", "u2", "u3"}[rng.Intn(5)], kind, at, float64(rng.Intn(100)))
			if rng.Intn(6) == 0 {
				o.DeviceMAC = fmt.Sprintf("aa:%02d", rng.Intn(3))
			}
			if rng.Intn(15) == 0 {
				o.Kind = sensor.ObsBLESighting
			}
			m.append(o)
		}
	}
	for pass := 0; pass < 3; pass++ {
		add(150 + rng.Intn(150))
		if _, err := cs.CompactOnce(); err != nil {
			t.Fatal(err)
		}
	}
	overlaps := 0
	for i := 1; i < len(cs.segs); i++ {
		if cs.segs[i].minSeq < cs.segs[i-1].maxSeq {
			overlaps++
		}
	}
	if overlaps == 0 {
		t.Fatal("precondition: no two segments interleave in seq")
	}
	// BLE sightings now expire on a rule of their own, whose cutoff
	// falls mid-bucket: a sealed segment holding it is read row by row.
	m.retain(obstore.RetentionRule{Kind: sensor.ObsBLESighting, TTL: isodur.MustParse("PT5M30S")})
	straddled := 0
	for _, sg := range cs.segs {
		if gone, check, _ := sg.expiry(m.src.Cutoffs()); check && !gone {
			straddled++
		}
	}
	if straddled == 0 {
		t.Fatal("precondition: no sealed segment straddles the retention cutoff")
	}
	// Retention records no tombstone; erasure does.
	if n := m.sweep(csNow); n == 0 {
		t.Fatal("Sweep removed nothing")
	}
	if n := m.deleteUser("u3"); n == 0 {
		t.Fatal("DeleteUser removed nothing")
	}
	if st := cs.Stats(); st.SeqTombstones == 0 {
		t.Fatalf("precondition: want erasure's seq tombstones, have %+v", st)
	}
	add(60) // the tail above the watermark
	return m, cs
}

func randomFilter(rng *rand.Rand, maxSeq uint64) obstore.Filter {
	var f obstore.Filter
	if rng.Intn(3) == 0 {
		f.SensorID = fmt.Sprintf("ap-%d", rng.Intn(5)) // ap-4 exists nowhere
	}
	if rng.Intn(3) == 0 {
		f.UserID = fmt.Sprintf("u%d", rng.Intn(5))
	}
	if rng.Intn(5) == 0 {
		f.DeviceMAC = fmt.Sprintf("aa:%02d", rng.Intn(3))
	}
	if rng.Intn(3) == 0 {
		f.Kind = []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsPowerReading}[rng.Intn(2)]
	}
	if rng.Intn(3) == 0 {
		f.From = csNow.Add(-time.Duration(rng.Intn(15*60)) * time.Second)
	}
	if rng.Intn(3) == 0 {
		f.To = csNow.Add(-time.Duration(rng.Intn(15*60)) * time.Second)
	}
	if rng.Intn(3) == 0 {
		for _, id := range []string{"s0", "s1", "s2", "s3", "nowhere"} {
			if rng.Intn(2) == 0 {
				f.SpaceIDs = append(f.SpaceIDs, id)
			}
		}
	}
	if rng.Intn(2) == 0 {
		f.AfterSeq = uint64(rng.Int63n(int64(maxSeq) + 10))
	}
	if rng.Intn(2) == 0 {
		f.Limit = 1 + rng.Intn(200)
	}
	return f
}

// TestScanMatchesQuery: Scan visits exactly what the old
// collect-and-merge Query returned — which is what a twin store that
// never evicted returns — in the same order, across random filters ×
// AfterSeq/Limit × a retention cutoff inside segments × erasure tombstones × segments whose seq ranges
// interleave — with every visited row poisoned on return, so Scan's own
// wrappers are checked for retaining the scratch pointer.
func TestScanMatchesQuery(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, cs := scanWorld(t, rng)
		maxSeq := uint64(m.twin.Len())
		for trial := 0; trial < 300; trial++ {
			f := randomFilter(rng, maxSeq)
			want := oracleQuery(cs, f)
			if twin := normTimes(m.twin.Query(f)); len(want)+len(twin) > 0 && !reflect.DeepEqual(want, twin) {
				t.Fatalf("seed %d filter %+v: the segment oracle has %d rows, the never-evicted twin %d", seed, f, len(want), len(twin))
			}
			if got := scanAll(m.src, f); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d filter %+v: Scan visited %d rows, oracle has %d", seed, f, len(got), len(want))
			}
			if got := cs.Query(f); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d filter %+v: Query returned %d rows, oracle has %d", seed, f, len(got), len(want))
			}
			fc := f
			fc.Limit = 0
			if got, want := m.src.Count(fc), len(oracleQuery(cs, fc)); got != want {
				t.Fatalf("seed %d filter %+v: Count = %d, oracle has %d", seed, fc, got, want)
			}
			// Early stop: a visitor that gives up after n rows saw the
			// oracle's first n and was not called again.
			if stop := rng.Intn(20); stop < len(want) {
				var got []sensor.Observation
				m.src.Scan(f, func(o *sensor.Observation) bool {
					got = append(got, *o)
					return len(got) <= stop
				})
				if !reflect.DeepEqual(got, want[:stop+1]) {
					t.Fatalf("seed %d filter %+v: stopping after %d rows visited %d", seed, f, stop+1, len(got))
				}
			}
		}
	}
}

// TestScanRetainedPointerIsPoisoned is the visitor contract's tripwire:
// the row pointer is valid only during the call, and a visitor that
// keeps it is caught — under the poisoning wrapper every retained
// pointer reads poison, never a believable row.
func TestScanRetainedPointerIsPoisoned(t *testing.T) {
	m, _ := scanWorld(t, rand.New(rand.NewSource(42)))
	var kept []*sensor.Observation
	m.src.Scan(obstore.Filter{}, poisoning(func(o *sensor.Observation) bool {
		kept = append(kept, o)
		return true
	}))
	if len(kept) < 100 {
		t.Fatalf("visited only %d rows", len(kept))
	}
	for i, o := range kept {
		if !reflect.DeepEqual(*o, poison) {
			t.Fatalf("retained pointer %d still reads as a row: %+v", i, *o)
		}
	}
}

// TestScanMatchesQueryConcurrent runs scans while compaction swaps the
// segment set and erasure mutates the tombstones. Under -race it
// proves the walk shares no unsynchronized state with either; the
// visitor calls back into the store, which would self-deadlock against
// a queued writer if Scan still held s.mu around it. Rows of the
// untouched subject must be visited exactly, in order, throughout.
func TestScanMatchesQueryConcurrent(t *testing.T) {
	src, cs := newPair(t, "")
	var stable []sensor.Observation
	appendRows := func(n int, user string) {
		for i := 0; i < n; i++ {
			at := csNow.Add(-time.Duration(2+i%9) * time.Minute).Add(time.Duration(i) * time.Millisecond)
			o, err := src.Append(obsAt(fmt.Sprintf("ap-%d", i%3), fmt.Sprintf("s%d", i%4), user, sensor.ObsWiFiConnect, at, float64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if user == "stable" {
				o.Time = o.Time.UTC()
				stable = append(stable, o)
			}
		}
	}
	appendRows(400, "stable")
	for v := 0; v < 6; v++ {
		appendRows(60, fmt.Sprintf("victim%d", v))
	}
	if _, err := cs.CompactOnce(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(2)
	go func() { // compactor: rewrites tombstoned segments, seals new rows
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := cs.CompactOnce(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // eraser: user and seq tombstones, through the listener
		defer wg.Done()
		for v := 0; v < 6; v++ {
			src.DeleteUser(fmt.Sprintf("victim%d", v), nil)
			cs.ObservationsDeleted([]obstore.Deletion{{Seq: uint64(1000000 + v), Time: csNow}})
		}
	}()
	for round := 0; round < 40; round++ {
		var got []sensor.Observation
		src.Scan(obstore.Filter{UserID: "stable"}, poisoning(func(o *sensor.Observation) bool {
			got = append(got, *o)
			_ = cs.Watermark() // re-enters s.mu: legal only because Scan holds no lock here
			return true
		}))
		if !reflect.DeepEqual(normTimes(got), stable) {
			t.Fatalf("round %d: scan under compaction+erasure visited %d rows, want %d", round, len(got), len(stable))
		}
	}
}
