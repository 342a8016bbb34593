package colstore

// What a sealed row costs on the heap. A sealed segment stays resident
// for as long as the tier keeps it, so its bytes per row are what a
// node's heap grows by with age.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// heapRows streams n rows shaped like a simulated building's day into
// add, seq-ascending over hours consecutive hours from base: about 1 000
// subjects with one device each, 280 sensors, 120 spaces, three kinds,
// millisecond-aligned times, one shared payload on the Wi-Fi rows
// (about 15 %) and a power reading with a drawn value on one row in
// ten. Every string is a fresh allocation, as a decoded request's are.
func heapRows(rng *rand.Rand, base time.Time, hours, n int, add func(sensor.Observation)) {
	slot := time.Duration(hours) * time.Hour / time.Duration(n)
	for i := range n {
		at := base.Add(time.Duration(i)*slot + time.Duration(rng.Int63n(int64(slot)))).Truncate(time.Millisecond)
		u, space := rng.Intn(1000), rng.Intn(120)
		o := sensor.Observation{
			SensorID: fmt.Sprintf("ble-%03d", rng.Intn(280)),
			Kind:     sensor.ObsBLESighting,
			Time:     at.UTC(),
			SpaceID:  fmt.Sprintf("dbh/%d/r%03d", space%6, space),
		}
		switch r := rng.Intn(20); {
		case r < 2:
			o.Kind, o.Value = sensor.ObsPowerReading, 20+rng.Float64()*120
		case r < 5:
			o.Kind, o.Payload = sensor.ObsWiFiConnect, map[string]string{"event": "assoc"}
			fallthrough
		default:
			o.UserID = fmt.Sprintf("u%04d", u)
			o.DeviceMAC = fmt.Sprintf("02:00:00:%02x:%02x:%02x", u>>8, u&0xff, u%7)
		}
		add(o)
	}
}

// unshared counts the subjects that consecutive segments both hold, each
// in a string of its own.
func unshared(segs []*segment) int {
	n := 0
	for i := 1; i < len(segs); i++ {
		for _, u := range segs[i].users.dict {
			if p := segs[i-1].users.find(u); u != "" && p >= 0 && unsafe.StringData(segs[i-1].users.dict[p]) != unsafe.StringData(u) {
				n++
			}
		}
	}
	return n
}

// liveHeap is the heap in use after a collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSealedTierHeapPerRow: a tier of 108 000 rows in twelve hour
// segments, shaped like a simulated building's day, holds at most 32 B
// of heap per sealed row — columns, dictionaries, postings and payloads
// together — once compaction has sealed it and neither the row store
// nor the tier holds anything else, and again once the tier is reopened
// from its segment files. Both times TierStats.ResidentBytes is within
// 5 % of the heap measured — a dictionary string two segments share
// counts once — and the two heaps are within 0.5 B per row
// of each other: a compacted dictionary holds strings of the tier's own,
// not the allocations the rows it was built from were decoded into.
// Both times a subject in consecutive hours is one string.
func TestSealedTierHeapPerRow(t *testing.T) {
	const rows, hours, perRow = 108_000, 12, 32
	dir := t.TempDir()
	base := csNow.Add(-24 * time.Hour).Truncate(time.Hour)
	clock := func() time.Time { return csNow }

	// The compacted segments alone: the row store, whose emptied log
	// keeps sizing hints, goes with the tier that holds them.
	before := liveHeap()
	src := obstore.New()
	src.SetClock(clock)
	cs, err := Open(Config{Dir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.AttachStore(src); err != nil {
		t.Fatal(err)
	}
	heapRows(rand.New(rand.NewSource(1)), base, hours, rows, func(o sensor.Observation) {
		if _, err := src.Append(o); err != nil {
			t.Fatal(err)
		}
	})
	if n, err := cs.CompactOnce(); err != nil || n != rows {
		t.Fatalf("sealed %d rows (%v), want %d", n, err, rows)
	}
	st := cs.Stats()
	if st.Segments != hours || st.Rows != rows || st.HotRows != 0 {
		t.Fatalf("%d segments of %d rows and %d hot, want %d of %d and none", st.Segments, st.Rows, st.HotRows, hours, rows)
	}
	reported := map[string]int64{"compacted": st.ResidentBytes}
	segs := cs.segs
	if n := unshared(segs); n > 0 {
		t.Errorf("compacted: %d subjects of consecutive segments are held in two strings", n)
	}
	src, cs = nil, nil
	built := liveHeap() - before
	runtime.KeepAlive(segs)
	segs = nil

	before = liveHeap()
	cs, err = Open(Config{Dir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	decoded := liveHeap() - before
	if st = cs.Stats(); st.Rows != rows {
		t.Fatalf("the reopened tier holds %d rows, want %d", st.Rows, rows)
	}
	reported["reopened"] = st.ResidentBytes
	if n := unshared(cs.segs); n > 0 {
		t.Errorf("reopened: %d subjects of consecutive segments are held in two strings", n)
	}
	runtime.KeepAlive(cs)

	for name, delta := range map[string]int64{"compacted": built, "reopened": decoded} {
		t.Logf("%s: %d B of heap, %.1f B per sealed row; %d B reported resident", name, delta, float64(delta)/rows, reported[name])
		if delta > perRow*rows {
			t.Errorf("%s: the tier holds %.1f B of heap per sealed row, want at most %d", name, float64(delta)/rows, perRow)
		}
		if off := math.Abs(float64(reported[name]-delta)) / float64(delta); off > 0.05 {
			t.Errorf("%s: TierStats.ResidentBytes is %d B, %.0f %% off the %d B measured", name, reported[name], 100*off, delta)
		}
	}
	if apart := math.Abs(float64(built-decoded)) / rows; apart > 0.5 {
		t.Errorf("compacted and reopened, the tier holds %.1f and %.1f B per sealed row, %.2f B apart, want at most 0.5",
			float64(built)/rows, float64(decoded)/rows, apart)
	}
}

// TestSubjectAcrossAGapIsOneString: a subject seen in the first and
// third hour of a pass but not in the second is held in one string by
// both segments, compacted as reopened — not a copy per segment whose
// neighbour lacks it.
func TestSubjectAcrossAGapIsOneString(t *testing.T) {
	dir := t.TempDir()
	base := csNow.Add(-6 * time.Hour).Truncate(time.Hour)
	clock := func() time.Time { return csNow }
	src := obstore.New()
	src.SetClock(clock)
	cs, err := Open(Config{Dir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.AttachStore(src); err != nil {
		t.Fatal(err)
	}
	for hour, users := range [][]string{{"gone", "stays"}, {"stays"}, {"gone", "stays"}} {
		for i, u := range users {
			at := base.Add(time.Duration(hour)*time.Hour + time.Duration(i)*time.Minute)
			// A fresh string per row, as a decoded request's is.
			if _, err := src.Append(obsAt("ap-1", "s1", string([]byte(u)), sensor.ObsWiFiConnect, at, 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := cs.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	check := func(stage string, segs []*segment) {
		t.Helper()
		if len(segs) != 3 {
			t.Fatalf("%s: %d segments, want 3", stage, len(segs))
		}
		first, third := segs[0].users, segs[2].users
		a, b := first.dict[first.find("gone")], third.dict[third.find("gone")]
		if unsafe.StringData(a) != unsafe.StringData(b) {
			t.Errorf("%s: the subject of the first and third hour is held in two strings", stage)
		}
	}
	check("compacted", cs.segs)
	reopened, err := Open(Config{Dir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	check("reopened", reopened.segs)
}
