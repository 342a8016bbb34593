package colstore

// What a compaction pass allocates. A pass keeps only the segments it
// seals; everything else it allocates — dictionary lookups, sort
// scratch, the encode buffer — is garbage the collector has to chase
// on the ingest path.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// TestCompactAllocatesWhatItKeeps: a durable tier seals 108 000 rows
// shaped like a simulated building's day, in twelve hour buckets, in
// one pass that allocates at most 64 B per sealed row and 100 objects
// per sealed segment — about what the sealed segments and their files
// take, not a copy of each column, dictionary and encoding per bucket.
// Twenty subjects are then erased, and the next pass, which rewrites
// every segment, allocates at most 64 B per surviving row and 100
// objects per rewritten segment.
func TestCompactAllocatesWhatItKeeps(t *testing.T) {
	const rows, hours, perRow, perSeg = 108_000, 12, 64, 100
	base := csNow.Add(-24 * time.Hour).Truncate(time.Hour)
	clock := func() time.Time { return csNow }
	src := obstore.New()
	src.SetClock(clock)
	cs, err := Open(Config{Dir: t.TempDir(), Clock: clock})
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

	// pass runs one compaction and returns what it allocated, in bytes
	// and objects.
	pass := func() (bytes, objects uint64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := cs.CompactOnce(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	check := func(stage string, bytes, objects uint64, kept, segs int) {
		t.Helper()
		t.Logf("%s: %d B and %d objects: %.1f B per row of %d, %.1f objects per segment of %d",
			stage, bytes, objects, float64(bytes)/float64(kept), kept, float64(objects)/float64(segs), segs)
		if bytes > perRow*uint64(kept) {
			t.Errorf("%s: the pass allocates %.1f B per row, want at most %d", stage, float64(bytes)/float64(kept), perRow)
		}
		if objects > perSeg*uint64(segs) {
			t.Errorf("%s: the pass allocates %.1f objects per segment, want at most %d", stage, float64(objects)/float64(segs), perSeg)
		}
	}

	bytes, objects := pass()
	if st := cs.Stats(); st.Segments != hours || st.Rows != rows {
		t.Fatalf("sealed %d segments of %d rows, want %d of %d", st.Segments, st.Rows, hours, rows)
	}
	check("sealing", bytes, objects, rows, hours)

	old := cs.segs
	for u := range 20 {
		src.DeleteUser(fmt.Sprintf("u%04d", 50*u), nil)
	}
	bytes, objects = pass()
	st := cs.Stats()
	for _, sg := range cs.segs {
		for _, o := range old {
			if sg == o {
				t.Fatalf("segment %d was not rewritten", sg.id)
			}
		}
	}
	if st.Segments != hours || st.Rows >= rows {
		t.Fatalf("rewrote %d segments of %d rows, want %d of fewer than %d", st.Segments, st.Rows, hours, rows)
	}
	check("rewriting", bytes, objects, st.Rows, hours)
}

// TestEncodedLen: the length the encode buffer is grown to is the
// length of the encoding, for segments with and without payloads,
// readings and subjects.
func TestEncodedLen(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 300, 5000} {
		rows := layoutRows(rng, csNow.Truncate(time.Hour), n)
		sg, err := buildSegment(1, csNow.Truncate(time.Hour), rows)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sg.encodedLen(), len(sg.encode()); got != want {
			t.Errorf("%d rows: encodedLen %d, encoding %d B", n, got, want)
		}
	}
}
