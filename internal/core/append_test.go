package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/service"
	"github.com/tippers/tippers/internal/stream"
)

// liveTap subscribes a building service that declares every kind these
// tests store, so enforcement releases each row the hub offers it.
func liveTap(t *testing.T, f *fixture, buffer int) *stream.Subscription {
	t.Helper()
	tap := service.Service{ID: "stream-tap", Name: "Stream tap", Developer: service.DeveloperBuilding}
	for _, kind := range []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsOccupancy, sensor.ObsCardSwipe} {
		tap.Declares = append(tap.Declares, service.DataRequest{
			ObsKind: kind, Purpose: policy.PurposeProvidingService, Granularity: policy.GranExact,
		})
	}
	f.bms.Services().MustRegister(tap)
	return subscribe(t, f, enforce.Request{ServiceID: tap.ID, Purpose: policy.PurposeProvidingService}, buffer)
}

// TestEveryStoredRowReachesLiveStreams: rows that enter the store
// outside the capture pipeline — a derived occupancy row, and the
// access log of a governed space with no reader — are streamed and
// counted like an ingested one.
func TestEveryStoredRowReachesLiveStreams(t *testing.T) {
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
	sub := liveTap(t, f, 16)
	ingested := f.bms.Stats().Ingested

	if n, err := f.bms.DeriveOccupancy(f.now, f.now.Add(time.Hour), 15*time.Minute); err != nil || n != 1 {
		t.Fatalf("DeriveOccupancy = %d, %v; want one derived row", n, err)
	}
	if _, err := f.bms.CheckAccess("mary", "dbh/2/r1", "card", f.now); err != nil {
		t.Fatal(err)
	}

	var kinds []sensor.ObservationKind
	for _, o := range collectStream(t, sub, 3, 200*time.Millisecond) {
		if o.Seq == 0 {
			t.Errorf("streamed without the store's seq: %+v", o)
		}
		kinds = append(kinds, o.Kind)
	}
	if len(kinds) != 2 || kinds[0] != sensor.ObsOccupancy || kinds[1] != sensor.ObsCardSwipe {
		t.Fatalf("the stream carried %v, want the derived occupancy row then the card swipe", kinds)
	}
	if st := sub.Stats(); st.Denied != 0 || st.Dropped != 0 {
		t.Fatalf("the tap lost rows: %+v", st)
	}
	if got := f.bms.Stats().Ingested - ingested; got != 2 {
		t.Fatalf("ingested moved by %d, want 2", got)
	}
}

// TestDeriveRacingIngestStreamsInSeqOrder: derived rows and captured
// rows share the store's append step, so live streams carry them in seq
// order however the two writers interleave.
func TestDeriveRacingIngestStreamsInSeqOrder(t *testing.T) {
	f := newFixture(t)
	const minutes = 1000
	for i := 0; i < minutes; i++ {
		for _, ap := range []string{"ap-1", "ap-2"} {
			if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", ap, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sub := liveTap(t, f, 1<<16)

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

	want := 2*minutes + ingested
	got := collectStream(t, sub, want, 10*time.Second)
	if len(got) != want {
		t.Fatalf("the stream carried %d rows, want %d (%+v)", len(got), want, sub.Stats())
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("stream position %d carries seq %d after seq %d", i, got[i].Seq, got[i-1].Seq)
		}
	}
	if st := sub.Stats(); st.Denied != 0 || st.Dropped != 0 {
		t.Fatalf("the tap lost rows: %+v", st)
	}
}
