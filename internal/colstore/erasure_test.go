package colstore

// GDPR-erasure regression: DeleteUser must reach the columnar tier's
// disk, not just its indexes. The subject's rows are tombstoned the
// instant the row store drops them (reads agree immediately), and the
// next compaction rewrites every touched segment so the subject's
// marker bytes — row data and dictionary entries alike — are gone
// from the segment files and the manifest.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// TestSweepRacingCompactionSealsNoExpiredRow: a row expired when a
// compaction starts is never sealed, even as a Sweep drops it from the
// row store between the compactor's snapshot and its commit, and no
// tombstone is recorded for it; a row that expires mid-compaction is
// sealed but never read, and leaves the segment at the first
// compaction after its cutoff passes the segment's newest row.
func TestSweepRacingCompactionSealsNoExpiredRow(t *testing.T) {
	src, cs := newPair(t, "")
	now := csNow
	src.SetClock(func() time.Time { return now })
	src.SetDefaultRetention(isodur.MustParse("PT10M"))

	// One row already past retention, one five minutes inside it, the
	// rest a minute old; every bucket closed so the whole tail seals.
	if _, err := src.Append(obsAt("ap-1", "s1", "victim", sensor.ObsWiFiConnect, csNow.Add(-15*time.Minute), 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		at := csNow.Add(-time.Minute).Add(time.Duration(i) * time.Second)
		if i == 0 {
			at = csNow.Add(-5 * time.Minute)
		}
		if _, err := src.Append(obsAt("ap-1", "s1", fmt.Sprintf("u%d", i), sensor.ObsWiFiConnect, at, float64(i))); err != nil {
			t.Fatal(err)
		}
	}

	swept := 0
	testHookAfterSnapshot = func() {
		swept = src.Sweep(now)
		// u0's row, five minutes old at the snapshot, expires now.
		now = now.Add(6 * time.Minute)
	}
	defer func() { testHookAfterSnapshot = nil }()
	if _, err := cs.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	testHookAfterSnapshot = nil
	if swept != 1 {
		t.Fatalf("sweep removed %d rows mid-compaction, want 1", swept)
	}
	sealed := 0
	for _, sg := range cs.segs {
		sealed += sg.rows()
		for i := range sg.rows() {
			if sg.users.at(i) == "victim" {
				t.Fatal("the row expired at the compaction's start was sealed")
			}
		}
	}
	if sealed != 8 {
		t.Fatalf("sealed %d rows, want the 8 unexpired at the start", sealed)
	}
	if st := cs.Stats(); st.SeqTombstones != 0 {
		t.Fatalf("retention recorded tombstones: %+v", st)
	}
	// Both expired rows are unreadable, and the rest agree.
	for _, u := range []string{"victim", "u0"} {
		if rows := cs.Query(obstore.Filter{UserID: u}); len(rows) != 0 {
			t.Fatalf("expired row of %s read: %d rows", u, len(rows))
		}
	}
	if got, want := src.Count(obstore.Filter{}), 7; got != want {
		t.Fatalf("unified count %d, want %d", got, want)
	}
	// Once the cutoff passes the newest row of a segment, the next
	// compaction rewrites it without its expired rows.
	now = now.Add(10 * time.Minute)
	if _, err := cs.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	if st := cs.Stats(); st.Segments != 0 || st.SeqTombstones != 0 {
		t.Fatalf("expired segments not dropped: %+v", st)
	}
}

// TestErasureLeavesDisk: a subject whose rows are all sealed into
// segments and evicted from the row store — nothing of them is resident
// as a row any more — is forgotten, and, separately, expires. Either
// way reads stop releasing the subject at once and still do after a
// reopen (through the erasure's tombstones, or the retention rule every
// store reading the tier carries), and after the next compaction plus
// checkpoint no file under either directory (the store's WAL and
// checkpoint, the tier's segments and manifest) holds the subject's
// bytes. Until then Len counts an expired row, not an erased one.
func TestErasureLeavesDisk(t *testing.T) {
	const marker = "ERASURE-MARKER-SUBJECT-7f3a"
	// The marker's readings are the only rows on this rule.
	expire := obstore.RetentionRule{Kind: sensor.ObsPowerReading, TTL: isodur.MustParse("PT1M")}
	for _, tc := range []struct {
		name   string
		rules  []obstore.RetentionRule
		remove func(src *obstore.Store) int
		stored int // rows Len counts once the subject is unreadable
	}{
		{"forgotten", nil, func(src *obstore.Store) int { return src.DeleteUser(marker, nil) }, 80},
		{"expired", []obstore.RetentionRule{expire}, func(src *obstore.Store) int {
			before := src.Count(obstore.Filter{UserID: marker})
			retainOn(src, expire)
			return before - src.Count(obstore.Filter{UserID: marker})
		}, 120},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			colDir := filepath.Join(dir, "col")
			src, err := obstore.OpenDurable(obstore.DurableConfig{Dir: filepath.Join(dir, "store"), SegmentBytes: 2 << 10})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			src.SetClock(func() time.Time { return csNow })
			cs, err := Open(Config{Dir: colDir, BucketDur: time.Minute, Clock: func() time.Time { return csNow }})
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.AttachStore(src); err != nil {
				t.Fatal(err)
			}

			// Sealed rows for the marker subject interleaved with others.
			const markerRows = 40
			for i := 0; i < 120; i++ {
				user, kind := fmt.Sprintf("u%d", i%4), sensor.ObsWiFiConnect
				if i%3 == 0 {
					user, kind = marker, sensor.ObsPowerReading
				}
				at := csNow.Add(-time.Duration(2+i%8) * time.Minute)
				if _, err := src.Append(obsAt(fmt.Sprintf("ap-%d", i%3), "s1", user, kind, at, float64(i))); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := cs.CompactOnce(); err != nil {
				t.Fatal(err)
			}
			if n := src.Resident(); n != 0 {
				t.Fatalf("precondition: %d rows still resident; the subject must live in segments only", n)
			}
			if !dirContains(t, colDir, marker) {
				t.Fatal("precondition: sealed segments should contain the subject's bytes")
			}

			if n := tc.remove(src); n != markerRows {
				t.Fatalf("removed %d rows, want the subject's %d", n, markerRows)
			}

			// Reads stop serving the subject immediately, before any rewrite.
			if rows := cs.Query(obstore.Filter{UserID: marker}); len(rows) != 0 {
				t.Fatalf("tombstoned subject still readable: %d rows", len(rows))
			}
			if n := src.Count(obstore.Filter{UserID: marker}); n != 0 {
				t.Fatalf("the row store still counts %d of the subject's rows", n)
			}
			if got := src.Len(); got != tc.stored {
				t.Fatalf("Len = %d, want %d", got, tc.stored)
			}
			for _, u := range src.Users() {
				if u == marker {
					t.Fatal("Users still lists the subject")
				}
			}

			// The tombstones themselves are durable (manifest) so a crash
			// between erasure and rewrite cannot resurrect the subject...
			if !dirContains(t, colDir, marker) {
				t.Fatal("precondition: segments not yet rewritten")
			}
			reopened, err := Open(Config{Dir: colDir, BucketDur: time.Minute, Clock: func() time.Time { return csNow }})
			if err != nil {
				t.Fatal(err)
			}
			fresh := obstore.New()
			fresh.SetClock(func() time.Time { return csNow })
			retainOn(fresh, tc.rules...)
			if err := reopened.AttachStore(fresh); err != nil {
				t.Fatal(err)
			}
			if rows := reopened.Query(obstore.Filter{UserID: marker}); len(rows) != 0 {
				t.Fatalf("after reopen, removed subject readable again: %d rows", len(rows))
			}
			if live, _ := reopened.ColdRows(); live != tc.stored {
				t.Fatalf("after reopen the tier counts %d stored rows, want %d", live, tc.stored)
			}

			// ...and the rewrite at the next compaction removes the bytes
			// from the segments, the checkpoint those the log still held.
			if _, err := cs.CompactOnce(); err != nil {
				t.Fatal(err)
			}
			if err := src.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if dirContains(t, dir, marker) {
				t.Fatal("erased subject's bytes still on disk after rewrite and checkpoint")
			}
			if rows := cs.Query(obstore.Filter{UserID: marker}); len(rows) != 0 {
				t.Fatalf("erased subject readable after rewrite: %d rows", len(rows))
			}
			// Everyone else survived intact.
			if got := len(cs.Query(obstore.Filter{})); got != 120-markerRows || src.Len() != got {
				t.Fatalf("rewrite lost bystander rows: %d read, Len %d, want %d", got, src.Len(), 120-markerRows)
			}
		})
	}
}

// parentTierRow is the i-th row of testdata/parent-tier, written by a
// build that kept a user tombstone beside the seq tombstones: rows
// 0..59 sealed by one compaction, then DeleteUser("erased") left 15 seq
// tombstones and one user tombstone in the manifest, not yet rewritten.
func parentTierRow(i int) sensor.Observation {
	o := obsAt(fmt.Sprintf("ap-%d", i%3), fmt.Sprintf("s%d", i%4),
		[]string{"", "mary", "bob", "erased"}[i%4], sensor.ObsWiFiConnect,
		csNow.Add(-time.Duration(2+i%5)*time.Minute).Add(time.Duration(i)*time.Second), float64(i))
	if i%2 == 1 {
		o.Kind = sensor.ObsBLESighting
	}
	o.Seq = uint64(i + 1)
	return o
}

// TestOpenParentWrittenTier: a tier of minute segments whose manifest
// still lists a user tombstone opens under the hour-wide default. Its
// seq tombstones alone hide the same rows, the tier counts the same
// live rows, and the next compaction rewrites the subject off disk —
// each minute segment stays a minute segment, never re-bucketed. Rows
// then ingested into the hour of the newest minute segment seal beside
// it as hour segments: every row is served exactly once, the cold rows
// are every row, and a minute segment no tombstone touches is not
// rewritten. Reopened, each tier is sealed through the end of its
// newest bucket at that bucket's own width.
func TestOpenParentWrittenTier(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "parent-tier")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !dirContains(t, dir, `"user_tombstones"`) {
		t.Fatal("precondition: the parent manifest lists no user tombstone")
	}
	now := csNow
	cs, err := Open(Config{Dir: dir, Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	store := obstore.New()
	if err := cs.AttachStore(store); err != nil {
		t.Fatal(err)
	}
	var want []sensor.Observation
	for i := 0; i < 60; i++ {
		if o := parentTierRow(i); o.UserID != "erased" {
			want = append(want, o)
		}
	}
	// check reads every row once; all but the hot ones are cold.
	check := func(stage string, wantWM uint64, hot int) {
		t.Helper()
		if live, wm := cs.ColdRows(); live != len(want)-hot || store.Len() != len(want) || wm != wantWM {
			t.Fatalf("%s: ColdRows = (%d, %d), Len %d, want (%d, %d), Len %d", stage, live, wm, store.Len(), len(want)-hot, wantWM, len(want))
		}
		if got := normTimes(store.Query(obstore.Filter{})); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: read %d rows\n got %+v\nwant %+v", stage, len(got), got, want)
		}
	}
	// minuteFiles reads the segments whose bucket is not hour-aligned:
	// the minute segments, by file name.
	minuteFiles := func() map[string]string {
		t.Helper()
		out := map[string]string{}
		for _, sg := range cs.Segments() {
			if !sg.Bucket.Equal(sg.Bucket.Truncate(time.Hour)) {
				raw, err := os.ReadFile(filepath.Join(dir, segFileName(sg.ID)))
				if err != nil {
					t.Fatal(err)
				}
				out[segFileName(sg.ID)] = string(raw)
			}
		}
		return out
	}
	parentFiles := minuteFiles()
	if len(parentFiles) != 5 {
		t.Fatalf("precondition: %d minute segments in the parent tier, want 5", len(parentFiles))
	}
	check("reopened", 60, 0)
	// The tier has sealed through the end of its newest minute bucket,
	// not through the end of that bucket's hour.
	var newestBucket time.Time
	for _, sg := range cs.Segments() {
		if sg.Bucket.After(newestBucket) {
			newestBucket = sg.Bucket
		}
	}
	if end := time.Unix(0, cs.lastBucketEnd.Load()).UTC(); !end.Equal(newestBucket.Add(time.Minute)) {
		t.Fatalf("reopened tier sealed through %v, want %v", end, newestBucket.Add(time.Minute))
	}
	if lag := cs.Stats().SegmentLagSec; lag != now.Sub(newestBucket.Add(time.Minute)).Seconds() {
		t.Fatalf("SegmentLagSec = %v, want %v", lag, now.Sub(newestBucket.Add(time.Minute)).Seconds())
	}

	// Rows in the newest minute segment's hour, one in that very minute,
	// and one in the hour still open: the compaction seals the first
	// three as one hour segment, fenced by the fourth, and rewrites every
	// tombstoned minute segment as a minute segment.
	newest := cs.Segments()[len(cs.Segments())-1].Bucket
	ingest := func(at ...time.Time) {
		t.Helper()
		for i, ts := range at {
			o, err := store.Append(obsAt("ap-9", "s9", "late", sensor.ObsWiFiConnect, ts, float64(100+i)))
			if err != nil {
				t.Fatal(err)
			}
			o.Time = o.Time.UTC()
			want = append(want, o)
		}
	}
	hour := newest.Truncate(time.Hour)
	ingest(hour.Add(5*time.Minute), newest.Add(30*time.Second), hour.Add(59*time.Minute), now.Add(10*time.Minute))
	if _, err := cs.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	check("rewritten", 63, 1)
	if dirContains(t, dir, "erased") {
		t.Fatal("the erased subject's bytes are still on disk after the rewrite")
	}
	rewritten := minuteFiles()
	if len(rewritten) != 5 {
		t.Fatalf("%d minute segments after the rewrite, want 5: a minute segment was re-bucketed", len(rewritten))
	}
	for name := range rewritten {
		if _, ok := parentFiles[name]; ok {
			t.Fatalf("%s holds a tombstoned row and was not rewritten", name)
		}
	}

	// Past the open hour: more rows into the minute segments' hour and
	// the next, and no tombstone — the minute segments stay as they are.
	ingest(newest.Add(10*time.Second), hour.Add(time.Hour+30*time.Minute))
	now = now.Add(2 * time.Hour)
	if _, err := cs.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	check("compacted past the hour", want[len(want)-1].Seq, 0)
	if store.Resident() != 0 {
		t.Fatalf("%d rows still resident after every bucket closed", store.Resident())
	}
	if !reflect.DeepEqual(minuteFiles(), rewritten) {
		t.Fatal("a minute segment no tombstone touches was rewritten")
	}
	hours := 0
	for _, sg := range cs.Segments() {
		if sg.Bucket.Equal(sg.Bucket.Truncate(time.Hour)) {
			hours++
		}
	}
	if hours != 3 { // 11:00 twice (one per pass), 12:00 once
		t.Fatalf("%d hour segments, want 3", hours)
	}
	// Reopened, the tier is sealed through the same point as live: the
	// 12:00 segment's last row is at 12:30, and it still ends at 13:00.
	live := cs.Stats().SegmentLagSec
	reopened, err := Open(Config{Dir: dir, Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Stats().SegmentLagSec; got != live {
		t.Fatalf("lag after reopen = %vs, live it was %vs", got, live)
	}
}

// dirContains reports whether any file under dir contains needle.
func dirContains(t *testing.T, dir, needle string) bool {
	t.Helper()
	found := false
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || found {
			return err
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		if bytes.Contains(data, []byte(needle)) {
			found = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}
