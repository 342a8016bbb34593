package colstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// retentionWorld is a durable tier of hour buckets under a row store
// and an untiered twin, all on one clock, fed the paper's mix: per hour
// about 100 Wi-Fi, 200 power and 750 BLE rows.
type retentionWorld struct {
	mirrored
	cs  *Store
	dir string
	rng *rand.Rand
	// now is the clock; the rows observed before last are in.
	now, last time.Time
	wifi      int // Wi-Fi rows appended
}

// retentionStart is an hour boundary: the world holds the six hours
// before it, all sealed.
var retentionStart = csNow.Truncate(time.Hour)

func newRetentionWorld(t *testing.T, rule obstore.RetentionRule) *retentionWorld {
	t.Helper()
	w := &retentionWorld{dir: t.TempDir(), now: retentionStart, rng: rand.New(rand.NewSource(16))}
	clock := func() time.Time { return w.now }
	w.mirrored = mirrored{t: t, src: obstore.New(), twin: obstore.New()}
	for _, st := range []*obstore.Store{w.src, w.twin} {
		st.SetClock(clock)
		st.AddRetentionRule(rule)
	}
	cs, err := Open(Config{Dir: w.dir, BucketDur: time.Hour, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.AttachStore(w.src); err != nil {
		t.Fatal(err)
	}
	w.cs = cs
	w.last = retentionStart.Add(-6 * time.Hour)
	w.ingest()
	w.compact()
	return w
}

// ingest appends the mix's rows observed from last to the clock.
func (w *retentionWorld) ingest() {
	at := w.last
	for ; at.Before(w.now); at = at.Add(time.Duration(w.rng.Int63n(int64(6860 * time.Millisecond)))) {
		kind, sensorID := sensor.ObsBLESighting, "ble-1"
		switch n := w.rng.Intn(1050); {
		case n < 100:
			kind, sensorID = sensor.ObsWiFiConnect, "ap-1"
			w.wifi++
		case n < 300:
			kind, sensorID = sensor.ObsPowerReading, "pm-1"
		}
		w.append(obsAt(sensorID, fmt.Sprintf("s%d", w.rng.Intn(6)), fmt.Sprintf("u%02d", w.rng.Intn(40)), kind, at, float64(w.rng.Intn(100))))
	}
	w.last = at
}

func (w *retentionWorld) compact() {
	w.t.Helper()
	if _, err := w.cs.CompactOnce(); err != nil {
		w.t.Fatal(err)
	}
}

// step is one minute of a node at steady state: the minute's rows, a
// sweep and a compaction. It returns the segments written in it, by
// bucket.
func (w *retentionWorld) step(k int) map[time.Time]int {
	w.t.Helper()
	before := make(map[uint64]bool)
	for _, sg := range w.cs.Segments() {
		before[sg.ID] = true
	}
	w.now = retentionStart.Add(time.Duration(k)*time.Minute + 30*time.Second)
	w.ingest()
	w.src.Sweep(w.now)
	w.twin.Sweep(w.now)
	if st := w.cs.Stats(); st.SeqTombstones != 0 {
		w.t.Fatalf("minute %d: retention recorded %d seq tombstones", k, st.SeqTombstones)
	}
	w.compact()
	written := make(map[time.Time]int)
	for _, sg := range w.cs.Segments() {
		if !before[sg.ID] {
			written[sg.Bucket]++
		}
	}
	if got, want := w.src.Count(obstore.Filter{}), w.twin.Count(obstore.Filter{}); got != want {
		w.t.Fatalf("minute %d: %d rows readable, the untiered twin %d", k, got, want)
	}
	for _, f := range []obstore.Filter{{Kind: sensor.ObsWiFiConnect}, {UserID: "u07"}, {From: retentionStart.Add(-4 * time.Hour), To: retentionStart.Add(-2 * time.Hour)}} {
		if got, want := normTimes(w.src.Query(f)), normTimes(w.twin.Query(f)); !reflect.DeepEqual(got, want) {
			w.t.Fatalf("minute %d: filter %+v: %d rows, the untiered twin %d", k, f, len(got), len(want))
		}
	}
	return written
}

// TestRetentionRewritesEachSegmentOnce: sixty one-minute steps of sweep
// and compaction at steady state, on the paper's mix. With a Wi-Fi rule
// and power and BLE unruled, the sealed hours that hold Wi-Fi rows also
// hold rows that never expire: retention records no tombstone, rewrites
// each segment it touches once (when the Wi-Fi cutoff passes the
// segment's newest row), and reads equal the untiered twin's at every
// step. With a default TTL every kind expires together: a segment
// leaves whole when the cutoff passes its newest row, unwritten, and
// its file is unlinked.
func TestRetentionRewritesEachSegmentOnce(t *testing.T) {
	ttl := isodur.MustParse("PT3H")
	t.Run("mixed", func(t *testing.T) {
		w := newRetentionWorld(t, obstore.RetentionRule{Kind: sensor.ObsWiFiConnect, TTL: ttl})
		sealed := w.cs.bytesWritten.Load()
		expired := w.twin.Count(obstore.Filter{Kind: sensor.ObsWiFiConnect}) - w.wifi
		rewrites := make(map[time.Time]int)
		for k := 0; k < 60; k++ {
			for bucket, n := range w.step(k) {
				if rewrites[bucket] += n; rewrites[bucket] > 1 {
					t.Fatalf("minute %d: the segment of %v was written %d times", k, bucket, rewrites[bucket])
				}
			}
		}
		expired += w.wifi - w.twin.Count(obstore.Filter{Kind: sensor.ObsWiFiConnect})
		written := w.cs.bytesWritten.Load() - sealed
		if len(rewrites) != 1 || expired < 50 {
			t.Fatalf("%d segments rewritten as %d Wi-Fi rows expired; want the one hour whose Wi-Fi rows ran out", len(rewrites), expired)
		}
		t.Logf("%d Wi-Fi rows expired; %d B of segment files written, %.0f B per expired row", expired, written, float64(written)/float64(expired))
	})
	t.Run("default", func(t *testing.T) {
		w := newRetentionWorld(t, obstore.RetentionRule{TTL: ttl})
		sealed := w.cs.bytesWritten.Load()
		files := func() map[string]bool {
			m := make(map[string]bool)
			for _, sg := range w.cs.Segments() {
				m[segFileName(sg.ID)] = true
			}
			return m
		}
		first := files()
		for k := 0; k < 60; k++ {
			if written := w.step(k); len(written) != 0 {
				t.Fatalf("minute %d: segments written: %v", k, written)
			}
		}
		if written := w.cs.bytesWritten.Load() - sealed; written != 0 {
			t.Fatalf("retention wrote %d B of segment files", written)
		}
		last := files()
		unlinked := 0
		for name := range first {
			if !last[name] {
				unlinked++
				if _, err := os.Stat(filepath.Join(w.dir, name)); !os.IsNotExist(err) {
					t.Fatalf("expired segment %s is still on disk (%v)", name, err)
				}
			}
		}
		if unlinked == 0 {
			t.Fatal("no segment expired in the hour")
		}
	})
}
