package obstore

// Tests for the shard layer (shard.go): the striped store must be
// externally indistinguishable from the single-lock baseline —
// identical query results in identical order, gap-free AfterSeq
// paging under concurrent ingest, erasure and retention reaching
// every shard, and snapshots that stay byte-compatible across stripe
// counts.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/sensor"
)

// shardedDataset builds a deterministic mixed workload: many sensors
// (so every stripe count gets populated shards), repeated users and
// spaces, interleaved kinds, and out-of-order timestamps.
func shardedDataset(n int) []sensor.Observation {
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

// shardedFilters is a spread of query shapes: indexed and unindexed,
// paged, limited, spatial, and time-windowed.
func shardedFilters() []Filter {
	return []Filter{
		{},
		{SensorID: "sensor-007"},
		{UserID: "user-11"},
		{Kind: sensor.ObsBLESighting},
		{UserID: "user-03", Kind: sensor.ObsWiFiConnect},
		{From: t0.Add(10 * time.Minute), To: t0.Add(40 * time.Minute)},
		{SpaceIDs: []string{"dbh/1/0", "dbh/2/3", "dbh/4/8"}},
		{DeviceMAC: "aa:bb:0a"},
		{Kind: sensor.ObsPowerReading, Limit: 17},
		{AfterSeq: 500, Limit: 64},
		{AfterSeq: 1999},
		{UserID: "user-11", AfterSeq: 100, Limit: 5},
		{SensorID: "sensor-042", From: t0.Add(5 * time.Minute)},
	}
}

// TestShardedMatchesSingleLock is the equivalence property the
// tentpole hangs on: every filter must return byte-for-byte the same
// results, in the same order, from a sharded store and the one-shard
// baseline.
func TestShardedMatchesSingleLock(t *testing.T) {
	data := shardedDataset(2000)
	baseline := NewSharded(1)
	if err := baseline.AppendAll(data); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 8, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := NewSharded(shards)
			if err := s.AppendAll(data); err != nil {
				t.Fatal(err)
			}
			if got := s.Shards(); got != shards {
				t.Fatalf("Shards() = %d, want %d", got, shards)
			}
			for i, f := range shardedFilters() {
				want := baseline.Query(f)
				got := s.Query(f)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("filter %d (%+v): sharded result diverges (%d vs %d rows)",
						i, f, len(got), len(want))
				}
				if cw, cg := baseline.Count(f), s.Count(f); cw != cg {
					t.Errorf("filter %d: Count = %d, want %d", i, cg, cw)
				}
			}
			if !reflect.DeepEqual(s.Users(), baseline.Users()) {
				t.Error("Users() diverges from baseline")
			}
		})
	}
}

// TestShardedAfterSeqPagingConcurrent drives AfterSeq paging while
// writers append into every shard: each page must be strictly
// ascending in seq and the union of all pages gap-free — the pager
// may never skip over a seq that was still in flight.
func TestShardedAfterSeqPagingConcurrent(t *testing.T) {
	const writers = 8
	const perWriter = 1500
	s := NewSharded(8)

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
// many sensors (hence many shards) and checks erasure reaches all of
// them.
func TestShardedDeleteUserAllShards(t *testing.T) {
	s := NewSharded(8)
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
	if removed := s.DeleteUser("erase-me"); removed != 80 {
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
// observations from every shard and leaves the survivors intact.
func TestShardedSweepAllShards(t *testing.T) {
	s := NewSharded(8)
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
	st := s.Stats()
	if st.Ingested != 300 || st.Swept != 201 || st.Live != 99 {
		t.Fatalf("Stats = %+v", st)
	}
}

// TestShardedDurableSweepPrunesWAL is the storage half on a sharded
// durable store: expired records spread across shards must still let
// whole dead segments leave the disk.
func TestShardedDurableSweepPrunesWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := durableDirCfg(dir)
	cfg.Shards = 8
	s, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
	if segs := s.WAL().SealedSegments(); len(segs) != 0 {
		t.Fatalf("%d sealed all-dead segments survived retention GC", len(segs))
	}
	if s.Count(Filter{UserID: "keeper"}) != 1 {
		t.Fatal("live observation lost by retention GC")
	}
}

// TestShardedSnapshotByteCompat pins the checkpoint format: the same
// ingest produces byte-identical checkpoints at every stripe count
// (multi-key Payload maps included — the codec sorts their keys), and
// a checkpoint written at one count restores at any other.
func TestShardedSnapshotByteCompat(t *testing.T) {
	data := shardedDataset(500)
	for i := range data {
		if i%3 == 0 {
			data[i].Payload = map[string]string{"rssi": "-60", "event": "assoc", "ch": "11", "band": "5"}
		}
	}
	base := NewSharded(1)
	if err := base.AppendAll(data); err != nil {
		t.Fatal(err)
	}
	want := checkpointBytes(t, base)
	for _, shards := range []int{2, 8} {
		s := NewSharded(shards)
		if err := s.AppendAll(data); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(checkpointBytes(t, s), want) {
			t.Fatalf("checkpoint at %d shards not byte-identical to the single-lock checkpoint", shards)
		}
		// Cross-count restore: 1-shard checkpoint into a striped store.
		restored := NewSharded(shards + 3)
		if err := restored.readCheckpoint(bytes.NewReader(want)); err != nil {
			t.Fatal(err)
		}
		restored.gate.reset(restored.nextSeq.Load())
		if !reflect.DeepEqual(restored.Query(Filter{}), base.Query(Filter{})) {
			t.Fatalf("restore into %d shards diverges from source", shards+3)
		}
		// Appends keep working with the restored global seq.
		o, err := restored.Append(sensor.Observation{
			SensorID: "sensor-xyz", Kind: sensor.ObsWiFiConnect, Time: t0,
		})
		if err != nil {
			t.Fatal(err)
		}
		if o.Seq != uint64(len(data)+1) {
			t.Fatalf("post-restore seq = %d, want %d", o.Seq, len(data)+1)
		}
	}
}

// TestShardedDurableReopenAcrossCounts writes a durable store at one
// stripe count and recovers it at others: WAL and checkpoint are
// layout-independent.
func TestShardedDurableReopenAcrossCounts(t *testing.T) {
	dir := t.TempDir()
	cfg := durableDirCfg(dir)
	cfg.Shards = 4
	s, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		o := durableObs(i, fmt.Sprintf("user-%d", i%7))
		o.SensorID = fmt.Sprintf("sensor-%02d", i%31)
		if _, err := s.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil { // half via checkpoint...
		t.Fatal(err)
	}
	for i := 120; i < 200; i++ {
		o := durableObs(i, fmt.Sprintf("user-%d", i%7))
		o.SensorID = fmt.Sprintf("sensor-%02d", i%31)
		if _, err := s.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Query(Filter{})
	if err := s.Close(); err != nil { // ...half via WAL replay
		t.Fatal(err)
	}
	for _, shards := range []int{1, 8} {
		cfg.Shards = shards
		s2, err := OpenDurable(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := s2.Query(Filter{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("recovery at %d shards diverges (%d vs %d rows)", shards, len(got), len(want))
		}
		s2.Close()
	}
}
