package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/bus"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

// busSeqs drains what a buffered bus subscription holds and returns the
// observations' seqs in delivery order.
func busSeqs(t *testing.T, sub *bus.Subscription) []uint64 {
	t.Helper()
	if n := sub.Dropped(); n != 0 {
		t.Fatalf("the subscription dropped %d events", n)
	}
	var seqs []uint64
	for len(sub.C) > 0 {
		seqs = append(seqs, (<-sub.C).Payload.(sensor.Observation).Seq)
	}
	return seqs
}

// TestEveryStoredRowReachesTheBus: rows that enter the store outside
// the capture pipeline — a derived occupancy row, and the access log of
// a governed space with no reader — are published and counted like an
// ingested one.
func TestEveryStoredRowReachesTheBus(t *testing.T) {
	f := newFixture(t)
	// dbh/2/r1 has an access policy and no reader.
	for _, p := range policy.Policy3MeetingRoomAccess("dbh/2/r1") {
		if err := f.bms.RegisterPolicy(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", 0)); err != nil {
		t.Fatal(err)
	}
	sub := f.bms.Bus().SubscribeBuffered(bus.TopicObservations, 16)
	defer sub.Cancel()
	ingested := f.bms.Stats().Ingested

	if n, err := f.bms.DeriveOccupancy(f.now, f.now.Add(time.Hour), 15*time.Minute); err != nil || n != 1 {
		t.Fatalf("DeriveOccupancy = %d, %v; want one derived row", n, err)
	}
	if _, err := f.bms.CheckAccess("mary", "dbh/2/r1", "card", f.now); err != nil {
		t.Fatal(err)
	}

	var kinds []sensor.ObservationKind
	for len(sub.C) > 0 {
		o := (<-sub.C).Payload.(sensor.Observation)
		if o.Seq == 0 {
			t.Errorf("published without the store's seq: %+v", o)
		}
		kinds = append(kinds, o.Kind)
	}
	if len(kinds) != 2 || kinds[0] != sensor.ObsOccupancy || kinds[1] != sensor.ObsCardSwipe {
		t.Fatalf("the bus carried %v, want the derived occupancy row then the card swipe", kinds)
	}
	if got := f.bms.Stats().Ingested - ingested; got != 2 {
		t.Fatalf("ingested moved by %d, want 2", got)
	}
}

// TestDeriveRacingIngestPublishesInSeqOrder: derived rows and captured
// rows share the append step, so the bus carries them in seq order
// however the two writers interleave.
func TestDeriveRacingIngestPublishesInSeqOrder(t *testing.T) {
	f := newFixture(t)
	const minutes = 1000
	for i := 0; i < minutes; i++ {
		for _, ap := range []string{"ap-1", "ap-2"} {
			if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", ap, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sub := f.bms.Bus().SubscribeBuffered(bus.TopicObservations, 1<<16)
	defer sub.Cancel()

	// The ingester runs until the deriver has stored its last row.
	var (
		wg       sync.WaitGroup
		derived  atomic.Bool
		ingested int
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer derived.Store(true)
		if n, err := f.bms.DeriveOccupancy(f.now, f.now.Add(minutes*time.Minute), time.Minute); err != nil || n != 2*minutes {
			t.Errorf("DeriveOccupancy = %d, %v; want %d rows", n, err, 2*minutes)
		}
	}()
	go func() {
		defer wg.Done()
		for ; !derived.Load(); ingested++ {
			if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:02", "ap-1", ingested%minutes)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	seqs := busSeqs(t, sub)
	if len(seqs) != 2*minutes+ingested {
		t.Fatalf("the bus carried %d rows, want %d", len(seqs), 2*minutes+ingested)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("bus position %d carries seq %d after seq %d", i, seqs[i], seqs[i-1])
		}
	}
}
