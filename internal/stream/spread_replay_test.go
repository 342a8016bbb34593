package stream

// Replay over a history spread across many sensors: the hub's splice
// invariant leans on the store returning AfterSeq pages in global seq
// order. The test names are those of the lock-striped store the one
// hot log replaced, whose stripes these tests crossed; the log now
// gives the order by construction, and they drive the replay path
// under concurrent ingest all the same.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// newSpreadHubFixture is newHubFixture with every subject allowed, for
// histories spread over many sensors.
func newSpreadHubFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{store: obstore.New()}
	hub, err := NewHub(Config{
		Store: f.store,
		Decide: func(req enforce.Request) enforce.Decision {
			return enforce.Decision{Allowed: true}
		},
		Apply: func(d enforce.Decision, o sensor.Observation) (sensor.Observation, bool, error) {
			return o, true, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Close)
	f.hub = hub
	return f
}

// TestShardedReplayGloballyOrdered replays a history spread over 37
// sensors and checks the delivered stream is exactly 1..N ascending —
// a page must never come out of order or drop a seq, or the
// subscription would die with ErrReplayOrder.
func TestShardedReplayGloballyOrdered(t *testing.T) {
	f := newSpreadHubFixture(t)
	const total = 300
	for i := 0; i < total; i++ {
		f.ingestSensor(t, fmt.Sprintf("sensor-%03d", i%37), "mary", i)
	}
	sub, err := f.hub.Subscribe(Options{
		Request:     enforce.Request{ServiceID: "svc", Kind: sensor.ObsWiFiConnect},
		Replay:      true,
		ReplayChunk: 16, // many pages → many page boundaries
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

// TestResumeSpliceUnderConcurrentIngest resumes mid-history while
// writers keep appending: the subscriber must see every seq after its
// cursor exactly once, in order.
func TestResumeSpliceUnderConcurrentIngest(t *testing.T) {
	f := newSpreadHubFixture(t)
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
