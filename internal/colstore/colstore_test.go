package colstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// csNow is the tests' fixed "wall clock": everything timestamped
// before it lives in a closed bucket.
var csNow = time.Date(2026, 3, 14, 12, 0, 0, 0, time.UTC)

func obsAt(sensorID, space, user string, kind sensor.ObservationKind, at time.Time, value float64) sensor.Observation {
	return sensor.Observation{
		SensorID: sensorID, Kind: kind, Time: at, SpaceID: space,
		UserID: user, Value: value,
	}
}

// newPair wires an in-memory row store to a columnar tier with a
// fixed clock.
func newPair(t *testing.T, dir string) (*obstore.Store, *Store) {
	t.Helper()
	src := obstore.New()
	src.SetClock(func() time.Time { return csNow })
	cs, err := Open(Config{Dir: dir, BucketDur: time.Minute, Clock: func() time.Time { return csNow }})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.AttachStore(src); err != nil {
		t.Fatal(err)
	}
	return src, cs
}

func TestSegmentRoundTrip(t *testing.T) {
	base := csNow.Add(-10 * time.Minute)
	var rows []sensor.Observation
	for i := 0; i < 200; i++ {
		o := obsAt(fmt.Sprintf("ap-%d", i%3), fmt.Sprintf("s%d", i%4), fmt.Sprintf("u%d", i%5),
			sensor.ObsWiFiConnect, base.Add(time.Duration(i)*100*time.Millisecond), float64(i)*1.5)
		o.Seq = uint64(i + 1)
		if i%7 == 0 {
			o.Kind = sensor.ObsPowerReading
			o.UserID = ""
			o.DeviceMAC = "aa:bb:cc"
			o.Payload = map[string]string{"unit": "W", "phase": "1"}
		}
		rows = append(rows, o)
	}
	sg, err := buildSegment(1, base.Truncate(time.Minute), rows)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeSegment(1, sg.encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.rows() != len(rows) {
		t.Fatalf("decoded %d rows, want %d", dec.rows(), len(rows))
	}
	for i, want := range rows {
		want.Time = want.Time.UTC()
		if got := dec.row(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d round-trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if dec.minSeq != 1 || dec.maxSeq != 200 {
		t.Fatalf("zone map seq range [%d,%d], want [1,200]", dec.minSeq, dec.maxSeq)
	}
}

func TestSegmentDecodeRejectsCorruption(t *testing.T) {
	rows := []sensor.Observation{
		{Seq: 1, SensorID: "ap-1", Kind: sensor.ObsWiFiConnect, Time: csNow.Add(-time.Hour), SpaceID: "s1", UserID: "u1", Value: 1},
		{Seq: 2, SensorID: "ap-1", Kind: sensor.ObsWiFiConnect, Time: csNow.Add(-time.Hour), SpaceID: "s1", UserID: "u2", Value: 2},
	}
	sg, err := buildSegment(1, csNow.Add(-time.Hour).Truncate(time.Minute), rows)
	if err != nil {
		t.Fatal(err)
	}
	data := sg.encode()
	if _, err := decodeSegment(1, data); err != nil {
		t.Fatalf("clean decode failed: %v", err)
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		if _, err := decodeSegment(1, mut); err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := decodeSegment(1, data[:cut]); err == nil {
			t.Fatalf("truncation at %d went undetected", cut)
		}
	}
}

// TestUnifiedQueryMatchesStore is the core read-equivalence check:
// through ingest, compaction, retention sweeps, and erasure, the
// unified segments+tail view — asked through the tier and through the
// row store that evicts behind it — answers every filter exactly as a
// plain row store that kept every row does.
func TestUnifiedQueryMatchesStore(t *testing.T) {
	m, cs := newMirroredPair(t, "")
	rng := rand.New(rand.NewSource(7))
	users := []string{"", "u0", "u1", "u2"}
	for i := 0; i < 600; i++ {
		at := csNow.Add(-time.Duration(1+rng.Intn(30)) * time.Minute).Add(time.Duration(rng.Intn(60000)) * time.Millisecond)
		kind := sensor.ObsWiFiConnect
		if i%5 == 0 {
			kind = sensor.ObsPowerReading
		}
		m.append(obsAt(fmt.Sprintf("ap-%d", rng.Intn(4)), fmt.Sprintf("s%d", rng.Intn(3)),
			users[rng.Intn(len(users))], kind, at, float64(rng.Intn(100))))
	}

	retained := false
	check := func(stage string) {
		t.Helper()
		filters := []obstore.Filter{
			{},
			{SensorID: "ap-1"},
			{UserID: "u1"},
			{Kind: sensor.ObsPowerReading},
			{From: csNow.Add(-20 * time.Minute), To: csNow.Add(-5 * time.Minute)},
			{SpaceIDs: []string{"s0", "s2"}},
			{AfterSeq: 100},
			{AfterSeq: 100, Limit: 37},
			{Limit: 11},
			{SensorID: "ap-2", Kind: sensor.ObsWiFiConnect, From: csNow.Add(-25 * time.Minute)},
		}
		for fi, f := range filters {
			want := normTimes(m.twin.Query(f))
			if got := cs.Query(f); !reflect.DeepEqual(normTimes(got), want) {
				t.Fatalf("%s: filter %d: unified query diverged (%d rows vs %d)", stage, fi, len(got), len(want))
			}
			if got := m.src.Query(f); !reflect.DeepEqual(normTimes(got), want) {
				t.Fatalf("%s: filter %d: the evicting store's query diverged (%d rows vs %d)", stage, fi, len(got), len(want))
			}
			fc := f
			fc.Limit = 0
			if sn, wn := m.src.Count(fc), m.twin.Count(fc); sn != wn {
				t.Fatalf("%s: filter %d: Count = %d, the twin says %d", stage, fi, sn, wn)
			}
		}
		// Len counts stored rows: once retention expires some, the two
		// stores drop them at different times.
		if got, want := m.src.Len(), m.twin.Len(); got != want && !retained {
			t.Fatalf("%s: Len = %d, the twin holds %d", stage, got, want)
		}
		if got, want := m.src.Users(), m.twin.Users(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Users = %v, the twin lists %v", stage, got, want)
		}
	}

	check("before compaction")
	n, err := cs.CompactOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("compaction sealed nothing")
	}
	if cs.Watermark() == 0 {
		t.Fatal("watermark did not advance")
	}
	if resident := m.src.Resident(); resident != 0 {
		t.Fatalf("%d rows still resident after every bucket was sealed", resident)
	}
	check("after compaction")

	// More ingest above the watermark, then another pass.
	for i := 0; i < 100; i++ {
		m.append(obsAt("ap-9", "s1", "u0", sensor.ObsWiFiConnect,
			csNow.Add(-time.Duration(1+rng.Intn(4))*time.Minute), float64(i)))
	}
	check("after more ingest")
	if _, err := cs.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	check("after second compaction")

	// Erasure: sealed rows become tombstones and both views agree
	// immediately, before any rewrite happens.
	if n := m.deleteUser("u1"); n == 0 {
		t.Fatal("DeleteUser removed nothing")
	}
	check("after erasure")
	if _, err := cs.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	check("after tombstone rewrite")
	if st := cs.Stats(); st.SeqTombstones != 0 {
		t.Fatalf("tombstones not retired by rewrite: %+v", st)
	}

	// Retention: reads hide expired rows at once, and a sweep and the
	// compaction that drops them from segments change no read.
	m.retain(obstore.RetentionRule{TTL: isodur.MustParse("PT10M")})
	retained = true
	check("expired")
	if n := m.sweep(csNow); n == 0 {
		t.Fatal("sweep removed nothing")
	}
	check("after sweep")
	if _, err := cs.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	check("after retention rewrite")
	if st := cs.Stats(); st.SeqTombstones != 0 {
		t.Fatalf("retention left tombstones: %+v", st)
	}
}

// normTimes UTC-normalizes observation times: the codec stores unix
// nanos, so location (not instant) may differ from the row store.
func normTimes(rows []sensor.Observation) []sensor.Observation {
	out := make([]sensor.Observation, len(rows))
	for i, o := range rows {
		o.Time = o.Time.UTC()
		out[i] = o
	}
	return out
}

func TestOpenBucketFencesWatermark(t *testing.T) {
	m, cs := newMirroredPair(t, "")
	// Two rows in a closed bucket, one in the currently open bucket,
	// then another closed-bucket row *after* it in seq order: the open
	// bucket must fence the watermark below all of them.
	closedAt := csNow.Add(-5 * time.Minute)
	openAt := csNow // csNow's own minute: bucket ends after now, still open
	for _, at := range []time.Time{closedAt, closedAt.Add(time.Second), openAt, closedAt.Add(2 * time.Second)} {
		m.append(obsAt("ap-1", "s1", "u1", sensor.ObsWiFiConnect, at, 1))
	}
	if _, err := cs.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	if wm := cs.Watermark(); wm != 2 {
		t.Fatalf("watermark = %d, want 2 (open bucket at seq 3 fences seq 4)", wm)
	}
	if n := m.src.Resident(); n != 2 {
		t.Fatalf("%d rows resident, want the 2 above the watermark", n)
	}
	if got, want := cs.Query(obstore.Filter{}), m.twin.Query(obstore.Filter{}); !reflect.DeepEqual(normTimes(got), normTimes(want)) {
		t.Fatalf("unified view diverged: %d rows vs %d", len(got), len(want))
	}
}

func TestDurableReopen(t *testing.T) {
	dir := t.TempDir()
	src, cs := newPair(t, dir)
	for i := 0; i < 50; i++ {
		at := csNow.Add(-time.Duration(2+i%6) * time.Minute)
		if _, err := src.Append(obsAt(fmt.Sprintf("ap-%d", i%2), "s1", fmt.Sprintf("u%d", i%3), sensor.ObsWiFiConnect, at, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cs.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	wantSegs := cs.Segments()
	wantWM := cs.Watermark()

	cs2, err := Open(Config{Dir: dir, BucketDur: time.Minute, Clock: func() time.Time { return csNow }})
	if err != nil {
		t.Fatal(err)
	}
	if cs2.Watermark() != wantWM {
		t.Fatalf("reopened watermark = %d, want %d", cs2.Watermark(), wantWM)
	}
	gotSegs := cs2.Segments()
	if !reflect.DeepEqual(gotSegs, wantSegs) {
		t.Fatalf("reopened segments diverged:\n got %+v\nwant %+v", gotSegs, wantSegs)
	}
	// The segments alone serve the sealed history to a fresh row store.
	if err := cs2.AttachStore(obstore.New()); err != nil {
		t.Fatal(err)
	}
	if n := len(cs2.Query(obstore.Filter{})); n != 50 {
		t.Fatalf("segment-only query returned %d rows, want 50", n)
	}
}

// TestRollupsMatchGroundTruth: the per-minute occupancy roll-up a
// reader computes from the unified scan — the one data path occupancy
// has — equals the ground truth while the rows are hot, once they are
// sealed, and after an erasure has tombstoned some of them, with and
// without a space predicate.
func TestRollupsMatchGroundTruth(t *testing.T) {
	src, cs := newPair(t, "")
	rng := rand.New(rand.NewSource(11))
	type key struct {
		minute int64
		space  string
		kind   sensor.ObservationKind
		user   string
	}
	want := map[key]int{}
	for i := 0; i < 400; i++ {
		at := csNow.Add(-time.Duration(1+rng.Intn(10)) * time.Minute).Add(time.Duration(rng.Intn(60)) * time.Second)
		o := obsAt(fmt.Sprintf("ap-%d", rng.Intn(3)), fmt.Sprintf("s%d", rng.Intn(3)),
			fmt.Sprintf("u%d", rng.Intn(4)), sensor.ObsWiFiConnect, at, float64(rng.Intn(50)))
		if _, err := src.Append(o); err != nil {
			t.Fatal(err)
		}
		want[key{at.Truncate(time.Minute).UnixNano(), o.SpaceID, o.Kind, o.UserID}]++
	}
	verify := func(stage string) {
		t.Helper()
		for _, spaces := range [][]string{nil, {"s1", "nowhere"}} {
			got, wantIn := map[key]int{}, map[key]int{}
			src.Scan(obstore.Filter{SpaceIDs: spaces}, func(o *sensor.Observation) bool {
				got[key{o.Time.Truncate(time.Minute).UnixNano(), o.SpaceID, o.Kind, o.UserID}]++
				return true
			})
			for k, n := range want {
				if spaces == nil || k.space == "s1" {
					wantIn[k] = n
				}
			}
			if !reflect.DeepEqual(got, wantIn) {
				t.Fatalf("%s, spaces %v: the scan's roll-up diverged from ground truth (%d vs %d cells)", stage, spaces, len(got), len(wantIn))
			}
		}
	}
	verify("hot")

	if _, err := cs.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	if cs.Stats().ColdRows != 400 {
		t.Fatalf("compaction sealed %d rows, want 400", cs.Stats().ColdRows)
	}
	verify("after compaction")

	src.DeleteUser("u2", nil)
	for k := range want {
		if k.user == "u2" {
			delete(want, k)
		}
	}
	verify("after erasure")
}
