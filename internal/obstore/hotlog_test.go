package obstore

// Tests for the hot log (obstore.go): one append-only, seq-ordered log
// that readers walk in place. Gap-free AfterSeq paging under concurrent
// ingest, erasure and retention reaching the rows of every sensor, and
// deterministic checkpoints — what the lock-striped store this log
// replaced had to prove across stripes, and whose test names the first
// three below keep — hold by construction on the one log; readers
// racing every kind of writer see ascending, duplicate-free rows; a
// scan allocates the same however long the log; and a directory
// written before the log replaced the stripes opens to the same rows.

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/sensor"
)

// spreadDataset builds a deterministic mixed workload: many sensors,
// repeated users and spaces, interleaved kinds, and out-of-order
// timestamps.
func spreadDataset(n int) []sensor.Observation {
	rng := rand.New(rand.NewSource(41))
	kinds := []sensor.ObservationKind{
		sensor.ObsWiFiConnect, sensor.ObsBLESighting, sensor.ObsPowerReading,
	}
	out := make([]sensor.Observation, n)
	for i := range out {
		out[i] = sensor.Observation{
			SensorID:  fmt.Sprintf("sensor-%03d", rng.Intn(97)),
			UserID:    fmt.Sprintf("user-%02d", rng.Intn(23)),
			SpaceID:   fmt.Sprintf("dbh/%d/%d", rng.Intn(4)+1, rng.Intn(9)),
			DeviceMAC: fmt.Sprintf("aa:bb:%02x", rng.Intn(16)),
			Kind:      kinds[rng.Intn(len(kinds))],
			Time:      t0.Add(time.Duration(rng.Intn(6000)) * time.Second),
			Value:     float64(i),
		}
	}
	return out
}

// TestAfterSeqPagingConcurrent drives AfterSeq paging while writers
// append: each page must be strictly ascending in seq and the union of
// all pages gap-free — the pager may never skip over a seq that was
// still in flight.
func TestAfterSeqPagingConcurrent(t *testing.T) {
	const writers = 8
	const perWriter = 1500
	s := New()

	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_, err := s.Append(sensor.Observation{
					SensorID: fmt.Sprintf("w%d-sensor-%d", w, i%13),
					UserID:   fmt.Sprintf("user-%d", w),
					Kind:     sensor.ObsWiFiConnect,
					Time:     t0.Add(time.Duration(i) * time.Second),
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()

	var cursor uint64
	var got []uint64
	done := false
	for !done {
		select {
		case <-writersDone:
			done = true // drain one final time after the last append
		default:
		}
		for {
			page := s.Query(Filter{AfterSeq: cursor, Limit: 97})
			if len(page) == 0 {
				break
			}
			for _, o := range page {
				if o.Seq <= cursor {
					t.Fatalf("page regressed: seq %d at cursor %d", o.Seq, cursor)
				}
				cursor = o.Seq
				got = append(got, o.Seq)
			}
		}
	}
	if len(got) != writers*perWriter {
		t.Fatalf("paged %d observations, want %d", len(got), writers*perWriter)
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("gap in paged seqs: position %d holds %d", i, seq)
		}
	}
}

// TestShardedDeleteUserAllShards spreads one user's observations over
// many sensors and checks erasure reaches all of them.
func TestShardedDeleteUserAllShards(t *testing.T) {
	s := New()
	for i := 0; i < 160; i++ {
		user := "other"
		if i%2 == 0 {
			user = "erase-me"
		}
		_, err := s.Append(sensor.Observation{
			SensorID: fmt.Sprintf("sensor-%03d", i), // one sensor per append: full spread
			UserID:   user,
			Kind:     sensor.ObsWiFiConnect,
			Time:     t0.Add(time.Duration(i) * time.Second),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if removed := s.DeleteUser("erase-me", nil); removed != 80 {
		t.Fatalf("DeleteUser removed %d, want 80", removed)
	}
	if n := s.Count(Filter{UserID: "erase-me"}); n != 0 {
		t.Fatalf("%d observations of the erased user remain queryable", n)
	}
	for _, o := range s.Query(Filter{}) {
		if o.UserID == "erase-me" {
			t.Fatalf("erased observation seq %d still in full scan", o.Seq)
		}
	}
	if users := s.Users(); !reflect.DeepEqual(users, []string{"other"}) {
		t.Fatalf("Users() = %v after erasure", users)
	}
	if s.Len() != 80 {
		t.Fatalf("Len = %d, want 80", s.Len())
	}
}

// TestShardedSweepAllShards checks the retention pass removes expired
// observations of every sensor and leaves the survivors intact.
func TestShardedSweepAllShards(t *testing.T) {
	s := New()
	s.SetClock(func() time.Time { return t0.Add(200*time.Minute + time.Hour) })
	s.SetDefaultRetention(isodur.MustParse("PT1H"))
	for i := 0; i < 300; i++ {
		_, err := s.Append(sensor.Observation{
			SensorID: fmt.Sprintf("sensor-%03d", i%50),
			UserID:   "mary",
			Kind:     sensor.ObsWiFiConnect,
			// The first 201 (i <= 200) have expired at sweep time — the
			// boundary observation's expiry equals the sweep instant —
			// and the last 99 survive.
			Time: t0.Add(time.Duration(i) * time.Minute),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	removed := s.Sweep(t0.Add(200*time.Minute + time.Hour))
	if removed != 201 {
		t.Fatalf("swept %d, want 201", removed)
	}
	if s.Len() != 99 {
		t.Fatalf("Len = %d, want 99", s.Len())
	}
	for _, o := range s.Query(Filter{}) {
		if !o.Time.After(t0.Add(200 * time.Minute)) {
			t.Fatalf("expired observation seq %d survived the sweep", o.Seq)
		}
	}
	if st := s.counters(); st != (counters{99, 300, 201}) {
		t.Fatalf("counters = %+v", st)
	}
}

// TestShardedDurableSweepPrunesWAL is the storage half: expired records
// of many sensors must still let whole dead segments leave the disk at
// the next Checkpoint.
func TestShardedDurableSweepPrunesWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(durableDirCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetClock(func() time.Time { return t0.Add(2 * time.Hour) })
	s.SetDefaultRetention(isodur.MustParse("PT1H"))
	for i := 0; i < 200; i++ {
		o := durableObs(i, "victim")
		o.SensorID = fmt.Sprintf("sensor-%03d", i%40)
		if _, err := s.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WAL().Rotate(); err != nil {
		t.Fatal(err)
	}
	keeper := durableObs(0, "keeper")
	keeper.Time = t0.Add(24 * time.Hour)
	if _, err := s.Append(keeper); err != nil {
		t.Fatal(err)
	}
	if removed := s.Sweep(t0.Add(2 * time.Hour)); removed != 200 {
		t.Fatalf("swept %d, want 200", removed)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if segs := s.WAL().SealedSegments(); len(segs) != 0 {
		t.Fatalf("%d sealed all-dead segments survived retention GC", len(segs))
	}
	assertNotOnDisk(t, dir, "victim")
	if s.Count(Filter{UserID: "keeper"}) != 1 {
		t.Fatal("live observation lost by retention GC")
	}
}

// TestCheckpointBytesDeterministic pins the checkpoint format: the same
// ingest produces byte-identical checkpoints (multi-key Payload maps
// included — the codec sorts their keys), every time, and a checkpoint
// restores into a fresh store that continues the sequence.
func TestCheckpointBytesDeterministic(t *testing.T) {
	data := spreadDataset(500)
	for i := range data {
		if i%3 == 0 {
			data[i].Payload = map[string]string{"rssi": "-60", "event": "assoc", "ch": "11", "band": "5"}
		}
	}
	a, b := New(), New()
	for _, s := range []*Store{a, b} {
		appendAll(t, s, data)
	}
	want := checkpointBytes(t, a)
	if !bytes.Equal(checkpointBytes(t, b), want) || !bytes.Equal(checkpointBytes(t, a), want) {
		t.Fatal("the same input wrote different checkpoint bytes")
	}
	restored := New()
	if err := restored.readCheckpoint(bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Query(Filter{}), a.Query(Filter{})) {
		t.Fatal("restored store diverges from its source")
	}
	o, err := restored.Append(sensor.Observation{SensorID: "sensor-xyz", Kind: sensor.ObsWiFiConnect, Time: t0})
	if err != nil {
		t.Fatal(err)
	}
	if o.Seq != uint64(len(data)+1) {
		t.Fatalf("post-restore seq = %d, want %d", o.Seq, len(data)+1)
	}
}

// TestHotScanAllocsFlat: a scan walks the log in place through one
// scratch row, so visiting every row of a 1 000-row and of a 20 000-row
// hot window allocates the same, and at most twice.
func TestHotScanAllocsFlat(t *testing.T) {
	var allocs []float64
	for _, n := range []int{1000, 20000} {
		s := New()
		// Policy 2's rule, on a clock that puts its cutoff among the rows:
		// the scan tests every Wi-Fi row against it.
		s.SetClock(func() time.Time { return isodur.SixMonths.AddTo(t0.Add(50 * time.Minute)) })
		s.AddRetentionRule(RetentionRule{Kind: sensor.ObsWiFiConnect, TTL: isodur.SixMonths})
		live := 0
		for _, o := range spreadDataset(n) {
			if _, err := s.Append(o); err != nil {
				t.Fatal(err)
			}
			if !s.Cutoffs().Expired(&o) {
				live++
			}
		}
		if live == n || live < n/2 {
			t.Fatalf("precondition: %d of %d rows unexpired; the cutoff must fall among the Wi-Fi rows", live, n)
		}
		visited := 0
		visit := func(*sensor.Observation) bool {
			visited++
			return true
		}
		a := testing.AllocsPerRun(5, func() { s.Scan(Filter{}, visit) })
		if visited != 6*live { // AllocsPerRun adds one warm-up run
			t.Fatalf("%d rows: visited %d, want %d", n, visited, 6*live)
		}
		allocs = append(allocs, a)
	}
	if allocs[0] != allocs[1] || allocs[0] > 2 {
		t.Fatalf("a full scan allocates %v objects at 1 000 rows and %v at 20 000; want equal and <= 2", allocs[0], allocs[1])
	}
}

// TestHotLogReadersUnderChurn races four appenders, Sweep, DeleteUser
// and sealing with eviction against Scan, Query, Count and Len, whose
// visitors call back into the store. Every read is strictly ascending
// and free of duplicates; once writes stop, every reader equals a
// serial reference built from what the writers did.
func TestHotLogReadersUnderChurn(t *testing.T) {
	s := New()
	tier := attachSliceTier(s)
	s.SetDefaultRetention(isodur.MustParse("PT1H"))
	now := t0.Add(time.Hour + 300*time.Second) // expires preloaded rows 0..300
	// Reads evaluate retention at the end of the clock's minute: the
	// minute before now expires what Sweep(now) does.
	s.SetClock(func() time.Time { return now.Add(-time.Minute) })

	// Preloaded history: victims to erase, rows to expire, keepers.
	var ref []sensor.Observation
	for i := 0; i < 800; i++ {
		user := fmt.Sprintf("keeper%d", i%3)
		if i%2 == 0 {
			user = fmt.Sprintf("victim%d", i%8/2)
		}
		o, err := s.Append(sensor.Observation{
			SensorID: fmt.Sprintf("ap-%d", i%7), UserID: user, SpaceID: fmt.Sprintf("s%d", i%3),
			Kind: []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting}[i%2],
			Time: t0.Add(time.Duration(i) * time.Second),
		})
		if err != nil {
			t.Fatal(err)
		}
		if i > 300 && user[0] == 'k' {
			ref = append(ref, o)
		}
	}

	const appenders, perAppender = 4, 400
	var adders, churner, readers sync.WaitGroup
	var stop atomic.Bool
	appended := make([][]sensor.Observation, appenders)
	for w := 0; w < appenders; w++ {
		adders.Add(1)
		go func(w int) {
			defer adders.Done()
			for i := 0; i < perAppender; i++ {
				o, err := s.Append(sensor.Observation{
					SensorID: fmt.Sprintf("ap-%d", i%7), UserID: fmt.Sprintf("w%d", w), SpaceID: fmt.Sprintf("s%d", i%3),
					Kind: sensor.ObsWiFiConnect, Time: t0.Add(2*time.Hour + time.Duration(i)*time.Second),
				})
				if err != nil {
					t.Error(err)
					return
				}
				appended[w] = append(appended[w], o)
			}
		}(w)
	}
	churner.Add(1)
	go func() { // retention, erasure, and sealing with eviction
		defer churner.Done()
		for round := 0; !stop.Load() || round < 4; round++ {
			s.Sweep(now)
			s.DeleteUser(fmt.Sprintf("victim%d", round%4), nil)
			if hwm := s.view(Filter{}, nil).hwm; hwm > 60 {
				tier.seal(s, hwm-60)
			}
		}
	}()

	filters := []Filter{
		{}, {UserID: "w1"}, {UserID: "keeper2"}, {UserID: "victim3"}, {SensorID: "ap-3"},
		{Kind: sensor.ObsBLESighting}, {SpaceIDs: []string{"s0", "s2"}},
		{From: t0.Add(2 * time.Hour), To: t0.Add(2*time.Hour + 100*time.Second)},
		{AfterSeq: 500, Limit: 100}, {UserID: "w2", AfterSeq: 1000, Limit: 7},
	}
	ascending := func(who string, f Filter, seqs []uint64) {
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Errorf("%s %+v: seq %d after %d", who, f, seqs[i], seqs[i-1])
				return
			}
		}
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var seqs []uint64
			for !stop.Load() {
				for _, f := range filters {
					seqs = seqs[:0]
					s.Scan(f, func(o *sensor.Observation) bool {
						seqs = append(seqs, o.Seq)
						_ = s.Resident() // a visitor may call back into the store
						return true
					})
					ascending("Scan", f, seqs)
					seqs = seqs[:0]
					for _, o := range s.Query(f) {
						seqs = append(seqs, o.Seq)
					}
					ascending("Query", f, seqs)
					s.Count(f)
				}
				s.Len()
			}
		}()
	}
	// The churner and the readers run until the appenders are done.
	adders.Wait()
	stop.Store(true)
	churner.Wait()
	readers.Wait()
	if tier.wm == 0 || s.Evicted() == 0 {
		t.Fatal("nothing was sealed and evicted while the readers ran")
	}

	for _, rows := range appended {
		ref = append(ref, rows...)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i].Seq < ref[j].Seq })
	for _, f := range filters {
		var want []sensor.Observation
		for i := range ref {
			if o := &ref[i]; o.Seq > f.AfterSeq && matches(o, &f) && (f.Limit == 0 || len(want) < f.Limit) {
				want = append(want, *o)
			}
		}
		if got := s.Query(f); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: Query returned %d rows, the reference %d", f, len(got), len(want))
		}
		var scanned []sensor.Observation
		s.Scan(f, func(o *sensor.Observation) bool {
			scanned = append(scanned, *o)
			return true
		})
		if len(scanned)+len(want) > 0 && !reflect.DeepEqual(scanned, want) {
			t.Errorf("%+v: Scan visited %d rows, the reference %d", f, len(scanned), len(want))
		}
		if f.Limit == 0 && s.Count(f) != len(want) {
			t.Errorf("%+v: Count = %d, the reference %d", f, s.Count(f), len(want))
		}
	}
	if s.Len() != len(ref) {
		t.Errorf("Len = %d, the reference holds %d", s.Len(), len(ref))
	}
}

// TestUnionRetryWhenEvictionOvertakesSplit: an eviction landing between
// the tier's scan and the log snapshot — forced there by a hook — takes
// rows above the reader's split out of the log. The reader must notice
// before it visits a row of the log, scan the tier again from the
// split, and so visit every row once.
func TestUnionRetryWhenEvictionOvertakesSplit(t *testing.T) {
	s := New()
	tier := attachSliceTier(s)
	for i := 0; i < 600; i++ {
		if _, err := s.Append(durableObs(i, fmt.Sprintf("u%d", i%3))); err != nil {
			t.Fatal(err)
		}
	}
	tier.seal(s, 100)
	defer func() { testHookAfterCold = nil }()
	wm := uint64(100)
	hooked := func() (fired *int) {
		fired = new(int)
		testHookAfterCold = func() {
			if *fired++; *fired == 1 {
				wm += 100
				tier.seal(s, wm) // commit and evict past the split the reader holds
			}
		}
		return fired
	}
	checkSeqs := func(what string, seqs []uint64, want []uint64, fired *int) {
		t.Helper()
		if !reflect.DeepEqual(seqs, want) {
			t.Fatalf("%s: visited %d rows (%v...), want %d", what, len(seqs), seqs[:min(len(seqs), 5)], len(want))
		}
		if *fired < 2 {
			t.Fatalf("%s: the hook ran %d times; the read never retried", what, *fired)
		}
	}
	seqRange := func(from, to uint64, step uint64) (out []uint64) {
		for q := from; q <= to; q += step {
			out = append(out, q)
		}
		return out
	}

	fired := hooked()
	var seqs []uint64
	s.Scan(Filter{}, func(o *sensor.Observation) bool {
		seqs = append(seqs, o.Seq)
		return true
	})
	checkSeqs("Scan", seqs, seqRange(1, 600, 1), fired)

	fired = hooked()
	seqs = seqs[:0]
	for _, o := range s.Query(Filter{UserID: "u1", AfterSeq: 150, Limit: 120}) {
		seqs = append(seqs, o.Seq)
	}
	checkSeqs("Query", seqs, seqRange(152, 152+119*3, 3), fired)

	fired = hooked()
	if n := s.Count(Filter{UserID: "u2"}); n != 200 {
		t.Fatalf("Count = %d, want 200", n)
	}
	if *fired < 2 {
		t.Fatal("Count never retried")
	}
	fired = hooked()
	if users := s.Users(); !reflect.DeepEqual(users, []string{"u0", "u1", "u2"}) || *fired < 2 {
		t.Fatalf("Users = %v after %d hook runs", users, *fired)
	}
	if s.Len() != 600 || s.Resident() != 600-int(wm) {
		t.Fatalf("Len = %d, resident %d with the watermark at %d", s.Len(), s.Resident(), wm)
	}
}

// TestEvictionRebuildsLog: eviction publishes a log of the survivors
// alone — its indexes and its time zone map narrow to them — and a
// window only sealed rows fall in cuts an empty snapshot.
func TestEvictionRebuildsLog(t *testing.T) {
	s := New()
	tier := attachSliceTier(s)
	for i := 0; i < 5000; i++ {
		if _, err := s.Append(sensor.Observation{
			SensorID: fmt.Sprintf("ap-%d", i%9), UserID: fmt.Sprintf("u%d", i%50), Kind: sensor.ObsWiFiConnect,
			SpaceID: "s1", Time: t0.Add(time.Duration(i) * time.Second),
		}); err != nil {
			t.Fatal(err)
		}
	}
	tier.seal(s, 4990)
	l := s.hot
	if l.n != 10 || len(l.chunks) != 1 || len(l.byUser) != 10 || len(l.bySensor) != 9 || l.floor != 4990 {
		t.Fatalf("log keeps %d rows in %d chunks, %d users, %d sensors, floor %d after sealing all but 10",
			l.n, len(l.chunks), len(l.byUser), len(l.bySensor), l.floor)
	}
	if lo := time.Unix(0, l.lo); lo.Before(t0.Add(4990 * time.Second)) {
		t.Fatalf("zone map still reaches back to %v", lo)
	}
	f := Filter{From: t0.Add(100 * time.Second), To: t0.Add(200 * time.Second)}
	if v := s.view(f, nil); v.n != 0 {
		t.Fatalf("a window of sealed history snapshots %d rows of the log", v.n)
	}
	if got := s.Count(f); got != 100 {
		t.Fatalf("Count over a sealed window = %d, want 100", got)
	}
}

// parentRow is the i-th row of testdata/parent-dir, which the striped
// store this log replaced wrote: rows 0..89, then DeleteUser("erased")
// and a Checkpoint, then rows 90..149 left in the WAL alone.
func parentRow(i int) sensor.Observation {
	o := sensor.Observation{
		SensorID:  fmt.Sprintf("ap-%d", i%5),
		UserID:    []string{"", "mary", "bob", "erased"}[i%4],
		Kind:      []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting}[i%2],
		SpaceID:   fmt.Sprintf("dbh/%d/%d", i%2+1, i%3),
		DeviceMAC: fmt.Sprintf("aa:bb:%02x", i%7),
		Time:      t0.Add(time.Duration(i) * time.Second),
		Value:     float64(i) / 4,
	}
	if i%3 == 0 {
		o.Payload = map[string]string{"rssi": strconv.Itoa(-40 - i%30), "band": "5"}
	}
	return o
}

// TestOpenParentWrittenDirectory: the WAL and checkpoint formats did not
// change, so a directory the striped store wrote opens to the same rows,
// counters and sequence.
func TestOpenParentWrittenDirectory(t *testing.T) {
	// OpenDurable writes to its directory; it gets a copy.
	dir := t.TempDir()
	src := filepath.Join("testdata", "parent-dir")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, path[len(src):])
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := durableDirCfg(dir)
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var want []sensor.Observation
	for i := 0; i < 150; i++ {
		if o := parentRow(i); i >= 90 || o.UserID != "erased" {
			o.Seq = uint64(i + 1)
			want = append(want, o)
		}
	}
	if got := s.Query(Filter{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("opened %d rows, want %d", len(got), len(want))
	}
	if got := s.counters(); got != (counters{128, 150, 22}) {
		t.Fatalf("counters = %+v", got)
	}
	if o, err := s.Append(parentRow(150)); err != nil || o.Seq != 151 {
		t.Fatalf("first append got seq %d (%v), want 151", o.Seq, err)
	}
}

// TestEvictedLogStartsAtPreviousLength: a log an eviction cuts starts
// each position list at the length it had in the log it replaced, and
// with room for its keys and chunks, so an epoch shaped like the last
// allocates one list per distinct key and one chunk per chunkRows rows,
// and regrows nothing; an index map too small to presize (Go allocates
// a small map's slots at its first insert) may add one. Lists started
// at one block would each regrow two to seven times here.
func TestEvictedLogStartsAtPreviousLength(t *testing.T) {
	const users, sensors, rows = 64, 16, 2048 // 32 rows per user, 128 per sensor
	sensorIDs, userIDs := make([]string, sensors), make([]string, users)
	for i := range sensorIDs {
		sensorIDs[i] = fmt.Sprintf("ap-%d", i)
	}
	for i := range userIDs {
		userIDs[i] = fmt.Sprintf("u%d", i)
	}
	at := t0
	appendEpoch := func(s *Store) {
		for i := range rows {
			at = at.Add(time.Second)
			if _, err := s.Append(sensor.Observation{SensorID: sensorIDs[i%sensors], UserID: userIDs[i%users],
				Kind: sensor.ObsWiFiConnect, SpaceID: "s1", Time: at}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Each measured run appends the second epoch to its own store, cut
	// beforehand from a first epoch of the same shape.
	const runs = 3
	stores := make([]*Store, runs+1) // AllocsPerRun adds one warm-up run
	for i := range stores {
		s := New()
		tier := attachSliceTier(s)
		appendEpoch(s)
		tier.wm = s.LastSeq() // the tier copies nothing: only the log is measured
		if s.EvictThrough(tier.wm) != rows {
			t.Fatal("the first epoch was not evicted")
		}
		stores[i] = s
	}
	next := 0
	a := testing.AllocsPerRun(runs, func() {
		appendEpoch(stores[next])
		next++
	})
	keys := users + sensors + 1
	if want := keys + rows/chunkRows + 3; a > float64(want) {
		t.Fatalf("an evicted log's epoch allocates %v objects; want at most %d, one per key (%d), chunk and index map", a, want, keys)
	}
	for k, list := range stores[runs].hot.byUser {
		if cap(list) != rows/users {
			t.Fatalf("user %s's list holds %d positions in a capacity of %d", k, len(list), cap(list))
		}
	}
}

// TestForgetUserLeavesNoHotLogKey: after DeleteUser, and again after the
// next eviction, no map of the log — position lists or hints — is keyed
// by the erased subject's ID, whether the erasure rewrote the log (the
// subject had rows in it) or left it as it was (every row already
// sealed, the ID only a hint).
func TestForgetUserLeavesNoHotLogKey(t *testing.T) {
	for _, hotRows := range []bool{true, false} {
		s := New()
		tier := attachSliceTier(s)
		at := t0
		add := func(user string, n int) {
			for i := range n {
				at = at.Add(time.Second)
				if _, err := s.Append(sensor.Observation{SensorID: fmt.Sprintf("ap-%d", i%3), UserID: user,
					Kind: sensor.ObsWiFiConnect, SpaceID: "s1", Time: at}); err != nil {
					t.Fatal(err)
				}
			}
		}
		add("victim", 40)
		add("keeper", 40)
		tier.seal(s, s.LastSeq())
		if s.hot.hint["victim"] != 40 {
			t.Fatalf("the evicted log's hint for victim is %d, want 40", s.hot.hint["victim"])
		}
		want := 40
		if hotRows {
			add("victim", 5)
			want += 5
		}
		add("keeper", 5)
		if n := s.DeleteUser("victim", nil); n != want {
			t.Fatalf("hot rows %v: DeleteUser removed %d rows, want %d", hotRows, n, want)
		}
		check := func(when string) {
			t.Helper()
			l := s.hot
			_, inSensors := l.bySensor["victim"]
			_, inUsers := l.byUser["victim"]
			_, inKinds := l.byKind["victim"]
			_, inHints := l.hint["victim"]
			if inSensors || inUsers || inKinds || inHints {
				t.Fatalf("hot rows %v, %s: the log is still keyed by victim (sensors %v, users %v, kinds %v, hints %v)",
					hotRows, when, inSensors, inUsers, inKinds, inHints)
			}
		}
		check("after DeleteUser")
		add("keeper", 5)
		tier.seal(s, s.LastSeq())
		check("after the next eviction")
		if s.hot.hint["keeper"] == 0 {
			t.Fatalf("hot rows %v: the next eviction left keeper no hint", hotRows)
		}
	}
}
