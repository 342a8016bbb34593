package stream

// Replay over a sharded store: the hub's splice invariant leans on
// the store returning AfterSeq pages in global seq order even when
// observations live in different lock stripes. These tests drive the
// replay path against a multi-shard store under concurrent ingest.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/bus"
	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// newShardedHubFixture is newHubFixture over an explicitly striped
// store (the default shard count is GOMAXPROCS, which is 1 on small
// CI runners — that would never cross a shard boundary).
func newShardedHubFixture(t *testing.T, shards int) *fixture {
	t.Helper()
	f := &fixture{store: obstore.NewSharded(shards), bus: bus.New(256)}
	hub, err := NewHub(Config{
		Store: f.store,
		Bus:   f.bus,
		Decide: func(req enforce.Request) enforce.Decision {
			return enforce.Decision{Allowed: true}
		},
		Apply: func(d enforce.Decision, obs []sensor.Observation) ([]sensor.Observation, error) {
			return obs, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		hub.Close()
		f.bus.Close()
	})
	f.hub = hub
	return f
}

// ingestSensor is fixture.ingest with a caller-chosen sensor so the
// history spreads across shards.
func (f *fixture) ingestSensor(t testing.TB, sensorID, user string, minute int) sensor.Observation {
	t.Helper()
	stored, err := f.store.Append(sensor.Observation{
		SensorID: sensorID,
		Kind:     sensor.ObsWiFiConnect,
		Time:     fixtureBase.Add(time.Duration(minute) * time.Minute),
		SpaceID:  "dbh/1/r0",
		UserID:   user,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.bus.Publish(bus.TopicObservations, stored)
	return stored
}

// TestShardedReplayGloballyOrdered replays a history spread over 8
// shards and checks the delivered stream is exactly 1..N ascending —
// the cross-shard merge must never interleave out of order or drop a
// seq, or the subscription would die with ErrReplayOrder.
func TestShardedReplayGloballyOrdered(t *testing.T) {
	f := newShardedHubFixture(t, 8)
	const total = 300
	for i := 0; i < total; i++ {
		f.ingestSensor(t, fmt.Sprintf("sensor-%03d", i%37), "mary", i)
	}
	sub, err := f.hub.Subscribe(Options{
		Request:     enforce.Request{ServiceID: "svc", Kind: sensor.ObsWiFiConnect},
		Replay:      true,
		ReplayChunk: 16, // many pages → many cross-shard merge boundaries
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	seqs := collectSeqs(t, sub, total, 5*time.Second)
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("replay position %d delivered seq %d", i, seq)
		}
	}
}

// TestShardedResumeSpliceUnderConcurrentIngest resumes mid-history
// while writers keep appending into every shard: the subscriber must
// see every seq after its cursor exactly once, in order.
func TestShardedResumeSpliceUnderConcurrentIngest(t *testing.T) {
	f := newShardedHubFixture(t, 8)
	const preexisting = 120
	for i := 0; i < preexisting; i++ {
		f.ingestSensor(t, fmt.Sprintf("sensor-%03d", i%29), "mary", i)
	}
	const cursor = 50
	sub, err := f.hub.Subscribe(Options{
		Request:     enforce.Request{ServiceID: "svc", Kind: sensor.ObsWiFiConnect},
		Replay:      true,
		AfterSeq:    cursor,
		ReplayChunk: 8,
		Buffer:      1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	const writers = 4
	const perWriter = 60
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f.ingestSensor(t, fmt.Sprintf("live-%d-%d", w, i%11), "mary", preexisting+i)
			}
		}(w)
	}

	want := preexisting - cursor + writers*perWriter
	seqs := collectSeqs(t, sub, want, 10*time.Second)
	wg.Wait()
	for i, seq := range seqs {
		if seq != uint64(cursor+i+1) {
			t.Fatalf("position %d delivered seq %d, want %d (duplicate or hole at the splice)", i, seq, cursor+i+1)
		}
	}
}
