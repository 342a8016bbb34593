package obstore

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/telemetry"
)

// durableDirCfg returns a config with tiny segments and manual-ish
// commit timing so tests control durability points via the WAL.
func durableDirCfg(dir string) DurableConfig {
	return DurableConfig{Dir: dir, SegmentBytes: 1 << 10, SyncInterval: time.Hour}
}

func durableObs(i int, userID string) sensor.Observation {
	return sensor.Observation{
		SensorID: "ap-1",
		UserID:   userID,
		Kind:     sensor.ObsWiFiConnect,
		SpaceID:  "dbh/1/100",
		Time:     t0.Add(time.Duration(i) * time.Second),
		Value:    float64(i),
		Payload:  map[string]string{"rssi": "-60"},
	}
}

// assertNotOnDisk greps every file under dir for marker.
func assertNotOnDisk(t *testing.T, dir, marker string) {
	t.Helper()
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		if bytes.Contains(raw, []byte(marker)) {
			t.Errorf("%q still on disk in %s", marker, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(durableDirCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := s.Append(durableObs(i, "mary")); err != nil {
			t.Fatal(err)
		}
	}
	wantStats := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything is back, and appends continue the sequence.
	s2, err := OpenDurable(durableDirCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 300 {
		t.Fatalf("recovered %d observations, want 300", s2.Len())
	}
	if got := s2.Stats(); got != wantStats {
		t.Errorf("stats drifted across restart: %+v vs %+v", got, wantStats)
	}
	obs := s2.Query(Filter{UserID: "mary", Limit: 1})
	if len(obs) != 1 || obs[0].Payload["rssi"] != "-60" || obs[0].Value != 0 {
		t.Fatalf("replayed observation mangled: %+v", obs)
	}
	if !obs[0].Time.Equal(t0) {
		t.Errorf("time drifted: %v vs %v", obs[0].Time, t0)
	}
	o, err := s2.Append(durableObs(1000, "bob"))
	if err != nil {
		t.Fatal(err)
	}
	if o.Seq != 301 {
		t.Fatalf("post-recovery seq = %d, want 301", o.Seq)
	}
}

func TestDurableRecoversWithoutClose(t *testing.T) {
	// Simulate a crash: plenty of appends, an explicit WAL sync (the
	// group-commit daemon normally does this), then the store is
	// abandoned without Close or Checkpoint.
	dir := t.TempDir()
	s, err := OpenDurable(durableDirCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Append(durableObs(i, "mary")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	// No Close: the *os.File is simply dropped, like a killed process.

	s2, err := OpenDurable(durableDirCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 100 {
		t.Fatalf("recovered %d, want 100", s2.Len())
	}
	if s2.Count(Filter{UserID: "mary"}) != 100 {
		t.Fatal("user index not rebuilt by replay")
	}
}

func TestDurableCheckpointTruncatesAndRestores(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(durableDirCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := s.Append(durableObs(i, "mary")); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.WAL().SealedSegments()); n == 0 {
		t.Fatal("expected sealed segments before checkpoint")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Everything appended so far is covered by the checkpoint: no
	// sealed segment should survive.
	if segs := s.WAL().SealedSegments(); len(segs) != 0 {
		t.Fatalf("%d sealed segments survived checkpoint", len(segs))
	}
	// Appends after the checkpoint land in the WAL and replay on top
	// of the restored snapshot.
	for i := 200; i < 250; i++ {
		if _, err := s.Append(durableObs(i, "bob")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDurable(durableDirCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 250 {
		t.Fatalf("recovered %d, want 250", s2.Len())
	}
	if got := s2.Count(Filter{UserID: "bob"}); got != 50 {
		t.Fatalf("post-checkpoint records: %d, want 50", got)
	}
}

// TestRecoveredRowsShareEqualPayloads: rows restored from the
// checkpoint and replayed from the WAL in one open hold one map per
// distinct payload, as the rows of one decoded segment do, and equal
// the rows the store held before the restart; rows without a payload
// still have none.
func TestRecoveredRowsShareEqualPayloads(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(durableDirCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	payloads := []map[string]string{nil, {"event": "assoc"}, {"event": "disassoc"}, {"event": "assoc", "rssi": "-60"}}
	appendRows := func(from, to int) {
		for i := from; i < to; i++ {
			o := durableObs(i, fmt.Sprintf("u%d", i%7))
			o.Payload = payloads[i%len(payloads)]
			if _, err := s.Append(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendRows(0, 120)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendRows(120, 200)
	before := s.Query(Filter{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDurable(durableDirCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	after := s2.Query(Filter{})
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("recovered rows differ from the rows before the restart")
	}
	byContent := map[string]uintptr{}
	for _, o := range after {
		if o.Payload == nil {
			continue
		}
		key, m := fmt.Sprint(o.Payload), reflect.ValueOf(o.Payload).Pointer()
		if first, seen := byContent[key]; !seen {
			byContent[key] = m
		} else if first != m {
			t.Fatalf("row %d's payload %v is a second map", o.Seq, o.Payload)
		}
	}
	if len(byContent) != len(payloads)-1 {
		t.Fatalf("%d distinct payloads recovered, want %d", len(byContent), len(payloads)-1)
	}
	if s2.replayed != nil {
		t.Fatal("the replay's payload table outlived the open")
	}
}

// TestDurableRetentionErasesSegments is the retention × durability
// guarantee: after GC, expired observations are gone from the
// in-memory indexes AND from the on-disk segments — whether the store
// still holds them as rows or a cold tier sealed them and the store
// evicted its copies, leaving the log as the only place under this
// directory that has them.
func TestDurableRetentionErasesSegments(t *testing.T) {
	const marker = "privacy-victim"
	for _, sealed := range []bool{false, true} {
		t.Run(fmt.Sprintf("sealed=%t", sealed), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenDurable(durableDirCfg(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.SetDefaultRetention(isodur.MustParse("PT1H"))

			// Several segments of soon-to-expire observations...
			for i := 0; i < 200; i++ {
				if _, err := s.Append(durableObs(i, marker)); err != nil {
					t.Fatal(err)
				}
			}
			// ...sealed away from the fresh one that stays live.
			if err := s.WAL().Rotate(); err != nil {
				t.Fatal(err)
			}
			keeper := durableObs(0, "keeper")
			keeper.Time = t0.Add(24 * time.Hour)
			if _, err := s.Append(keeper); err != nil {
				t.Fatal(err)
			}
			if sealed {
				if n := attachSliceTier(s).seal(s, 200); n != 200 || s.Resident() != 1 {
					t.Fatalf("evicted %d rows, %d resident; want 200 and the keeper", n, s.Resident())
				}
			}

			removed := s.Sweep(t0.Add(2 * time.Hour)) // every marker record expired
			if removed != 200 {
				t.Fatalf("swept %d, want 200", removed)
			}
			// Memory: gone.
			if got := s.Count(Filter{UserID: marker}); got != 0 {
				t.Fatalf("%d expired observations still queryable", got)
			}
			// Disk: every sealed all-dead segment deleted; no file anywhere
			// under the durable dir still contains the marker bytes.
			if segs := s.WAL().SealedSegments(); len(segs) != 0 {
				t.Fatalf("%d sealed segments survived retention GC", len(segs))
			}
			assertNotOnDisk(t, dir, marker)
			// The keeper survived in memory and on disk.
			if s.Count(Filter{UserID: "keeper"}) != 1 || s.Len() != 1 {
				t.Fatal("live observation lost by retention GC")
			}
			s.WAL().Sync()
			s2, err := OpenDurable(durableDirCfg(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if s2.Count(Filter{UserID: "keeper"}) != 1 || s2.Count(Filter{UserID: marker}) != 0 {
				t.Fatalf("restart after GC: keeper=%d victim=%d, want 1/0",
					s2.Count(Filter{UserID: "keeper"}), s2.Count(Filter{UserID: marker}))
			}
		})
	}
}

func TestDurableDeleteUserPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(durableDirCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 150; i++ {
		if _, err := s.Append(durableObs(i, "erase-me")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WAL().Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(durableObs(999, "other")); err != nil {
		t.Fatal(err)
	}
	if n := s.DeleteUser("erase-me", nil); n != 150 {
		t.Fatalf("deleted %d, want 150", n)
	}
	if segs := s.WAL().SealedSegments(); len(segs) != 0 {
		t.Fatalf("%d sealed segments survived erasure", len(segs))
	}
}

func TestDurableTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(durableDirCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Append(durableObs(i, "mary")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the newest segment: append garbage bytes.
	walDir := filepath.Join(dir, "wal")
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	last := filepath.Join(walDir, entries[len(entries)-1].Name())
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenDurable(durableDirCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 50 {
		t.Fatalf("recovered %d, want 50 (torn tail dropped, committed records intact)", s2.Len())
	}
	if rep := s2.WAL().Recovery(); rep.TruncatedSegments != 1 || rep.DroppedBytes != 3 {
		t.Errorf("recovery = %+v, want 1 truncated segment / 3 dropped bytes", rep)
	}
}

func TestDurableMetricsExposed(t *testing.T) {
	s, err := OpenDurable(durableDirCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(durableObs(1, "mary")); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, w := range []string{"tippers_wal_appends_total 1", "tippers_obstore_ingested_total 1"} {
		if !strings.Contains(out, w) {
			t.Errorf("metrics missing %q", w)
		}
	}
}

func TestObservationCodecRoundTrip(t *testing.T) {
	cases := []sensor.Observation{
		{Seq: 1, SensorID: "ap-1", Kind: sensor.ObsWiFiConnect, Time: t0, SpaceID: "dbh/1/100"},
		{Seq: 2, SensorID: "c", Kind: "k", Time: t0.Add(time.Nanosecond), UserID: "mary",
			DeviceMAC: "aa:bb:cc:dd:ee:ff", Value: -273.15,
			Payload: map[string]string{"a": "1", "b": "", "": "c"}},
	}
	for _, want := range cases {
		raw := appendObservation(nil, want)
		got, err := decodeObservation(want.Seq, raw)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if !got.Time.Equal(want.Time) {
			t.Errorf("time: %v vs %v", got.Time, want.Time)
		}
		got.Time, want.Time = time.Time{}, time.Time{}
		if got.SensorID != want.SensorID || got.Kind != want.Kind || got.UserID != want.UserID ||
			got.DeviceMAC != want.DeviceMAC || got.SpaceID != want.SpaceID ||
			got.Value != want.Value || got.Seq != want.Seq || len(got.Payload) != len(want.Payload) {
			t.Errorf("round trip mangled: %+v vs %+v", got, want)
		}
		for k, v := range want.Payload {
			if got.Payload[k] != v {
				t.Errorf("payload[%q] = %q, want %q", k, got.Payload[k], v)
			}
		}
	}
}

func TestObservationCodecRejectsCorrupt(t *testing.T) {
	raw := appendObservation(nil, durableObs(1, "mary"))
	for cut := 0; cut < len(raw); cut++ {
		if _, err := decodeObservation(1, raw[:cut]); err == nil && cut < len(raw)-1 {
			// Some prefixes decode "successfully" into short strings —
			// only a version or structural failure is guaranteed. Make
			// sure nothing panics; hard errors are best-effort.
			continue
		}
	}
	if _, err := decodeObservation(1, []byte{0x7F}); err == nil {
		t.Error("wrong codec version accepted")
	}
}

// FuzzDecodeObservation feeds the codec that parses bytes off disk
// (WAL payloads and checkpoint frames alike). It must never panic, and
// whatever it accepts must survive a re-encode: the CRC only proves
// the bytes are the ones written, not that they decode.
func FuzzDecodeObservation(f *testing.F) {
	f.Add(appendObservation(nil, durableObs(1, "mary")))
	f.Add(appendObservation(nil, sensor.Observation{SensorID: "c", Kind: "k", Time: t0.Add(time.Nanosecond),
		DeviceMAC: "aa:bb:cc:dd:ee:ff", Value: -273.15, Payload: map[string]string{"a": "1", "b": "", "": "c"}}))
	f.Add([]byte{obsCodecVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := decodeObservation(7, data)
		if err != nil {
			return
		}
		again, err := decodeObservation(7, appendObservation(nil, o))
		if err != nil {
			t.Fatalf("re-encoded observation rejected: %v", err)
		}
		// NaN values never compare equal; their bits do.
		if math.Float64bits(o.Value) != math.Float64bits(again.Value) {
			t.Fatalf("value bits changed: %x vs %x", math.Float64bits(o.Value), math.Float64bits(again.Value))
		}
		o.Value, again.Value = 0, 0
		if !reflect.DeepEqual(o, again) {
			t.Fatalf("re-encode changed the observation:\n was %+v\n now %+v", o, again)
		}
	})
}

func TestOpenDurableRejectsCorruptCheckpoint(t *testing.T) {
	for name, tc := range map[string]struct{ raw, want string }{
		"garbage":      {"not json\n", "frame 0 at byte 0"},
		"legacy JSONL": {`{"version":1,"next_seq":0,"ingested":0,"swept":0,"count":0}` + "\n", "retired JSON-lines snapshot format"},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, checkpointFile), []byte(tc.raw), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenDurable(durableDirCfg(dir))
		if err == nil {
			t.Fatalf("%s: corrupt checkpoint accepted", name)
		}
		if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), checkpointFile) {
			t.Errorf("%s: error %q does not name the file and %q", name, err, tc.want)
		}
	}
}

// TestCheckpointErasesActiveSegment is erasure reaching disk at the
// checkpoint: the forgotten subject's records sit in the active
// segment, which no sweep may delete — the checkpoint must seal it,
// truncate it, and rewrite the checkpoint file without them.
func TestCheckpointErasesActiveSegment(t *testing.T) {
	const marker = "privacy-victim"
	dir := t.TempDir()
	s, err := OpenDurable(DurableConfig{Dir: dir, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Append(durableObs(i, marker)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Append(durableObs(999, "keeper")); err != nil {
		t.Fatal(err)
	}
	// A first checkpoint puts the subject in checkpoint.snap as well.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 100; i++ {
		if _, err := s.Append(durableObs(i, marker)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.DeleteUser(marker, nil); n != 100 {
		t.Fatalf("deleted %d, want 100", n)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	assertNotOnDisk(t, dir, marker)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDurable(DurableConfig{Dir: dir, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Count(Filter{UserID: "keeper"}) != 1 || s2.Count(Filter{UserID: marker}) != 0 {
		t.Fatalf("restart after erasure: keeper=%d victim=%d, want 1/0",
			s2.Count(Filter{UserID: "keeper"}), s2.Count(Filter{UserID: marker}))
	}
	if o, err := s2.Append(durableObs(1000, "bob")); err != nil || o.Seq != 102 {
		t.Fatalf("post-recovery append: seq %d, err %v; want seq 102", o.Seq, err)
	}
}

// TestOpenDurableRemovesStaleCheckpointTemp: a crash mid-checkpoint
// skips the deferred remove, and nothing else ever touches the file.
func TestOpenDurableRemovesStaleCheckpointTemp(t *testing.T) {
	const marker = "privacy-victim"
	dir := t.TempDir()
	stale := filepath.Join(dir, checkpointFile+".tmp-123456")
	if err := os.WriteFile(stale, []byte("half a checkpoint about "+marker), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDurable(durableDirCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	assertNotOnDisk(t, dir, marker)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived open: %v", err)
	}
}
