package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/stream"
)

// subscribe attaches a live observation stream for req, cancelled when
// the test ends.
func subscribe(t testing.TB, f *fixture, req enforce.Request, buffer int) *stream.Subscription {
	t.Helper()
	sub, err := f.bms.Streams().Subscribe(stream.Options{Request: req, Buffer: buffer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Cancel)
	return sub
}

// collectStream returns the released observations sub delivers, up to
// want of them, stopping early when timeout passes or sub ends.
func collectStream(t *testing.T, sub *stream.Subscription, want int, timeout time.Duration) []sensor.Observation {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var out []sensor.Observation
	for len(out) < want {
		ev, err := sub.Next(ctx)
		if err != nil {
			return out
		}
		if ev.Type == stream.EventObservation {
			out = append(out, *ev.Observation)
		}
	}
	return out
}

func TestSubscribeEnforcesPerEvent(t *testing.T) {
	f := newFixture(t)
	// mary limits concierge to building granularity; bob is untouched.
	if err := f.bms.SetPreference(policy.CoarseLocationPreference("mary", "concierge")); err != nil {
		t.Fatal(err)
	}
	sub := subscribe(t, f, enforce.Request{
		ServiceID: "concierge",
		Purpose:   policy.PurposeProvidingService,
		Kind:      sensor.ObsWiFiConnect,
	}, 16)

	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", 0)); err != nil { // mary
		t.Fatal(err)
	}
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:02", "ap-1", 1)); err != nil { // bob
		t.Fatal(err)
	}

	got := collectStream(t, sub, 2, 2*time.Second)
	if len(got) != 2 {
		t.Fatalf("delivered %d events, want 2", len(got))
	}
	bySubject := map[string]sensor.Observation{}
	for _, o := range got {
		bySubject[o.UserID] = o
	}
	if o := bySubject["mary"]; o.SpaceID != "dbh" {
		t.Errorf("mary's event not coarsened: %+v", o)
	}
	if o := bySubject["bob"]; o.SpaceID != "dbh/1/r0" {
		t.Errorf("bob's event degraded: %+v", o)
	}
	if s := sub.Stats(); s.Delivered != 2 || s.Denied != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSubscribeDeniesOptedOutSubjects(t *testing.T) {
	f := newFixture(t)
	for _, p := range policy.Preference2NoLocation("mary") {
		if err := f.bms.SetPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	sub := subscribe(t, f, enforce.Request{
		ServiceID: "concierge",
		Purpose:   policy.PurposeProvidingService,
		Kind:      sensor.ObsWiFiConnect,
	}, 16)

	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", 0)); err != nil { // mary: denied
		t.Fatal(err)
	}
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:02", "ap-1", 1)); err != nil { // bob: delivered
		t.Fatal(err)
	}
	got := collectStream(t, sub, 1, 2*time.Second)
	if len(got) != 1 || got[0].UserID != "bob" {
		t.Fatalf("delivered = %+v, want only bob", got)
	}
	// Allow the denial to be counted before asserting.
	deadline := time.After(time.Second)
	for sub.Stats().Denied == 0 {
		select {
		case <-deadline:
			t.Fatalf("stats = %+v, want a denial", sub.Stats())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestSubscribeFiltersKind(t *testing.T) {
	f := newFixture(t)
	sub := subscribe(t, f, enforce.Request{
		ServiceID: "concierge",
		Purpose:   policy.PurposeProvidingService,
		Kind:      sensor.ObsBLESighting,
	}, 4)
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", 0)); err != nil {
		t.Fatal(err)
	}
	if got := collectStream(t, sub, 1, 200*time.Millisecond); len(got) != 0 {
		t.Errorf("wifi event leaked into a BLE stream: %+v", got)
	}
}

// TestSubscribeValidation: the node streams observations, notifications
// and conflicts, and only observations have a log to resume from.
func TestSubscribeValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := f.bms.Streams().Subscribe(stream.Options{Topic: "settings"}); err == nil {
		t.Error("subscription to a topic the node does not stream accepted")
	}
	if _, err := f.bms.Streams().Subscribe(stream.Options{Topic: stream.TopicConflicts, Replay: true}); err == nil {
		t.Error("resume accepted on a live-only topic")
	}
}

func TestSubscribeCancelIdempotentAndCloses(t *testing.T) {
	f := newFixture(t)
	sub := subscribe(t, f, enforce.Request{
		ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		Kind: sensor.ObsWiFiConnect,
	}, 4)
	sub.Cancel()
	sub.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := sub.Next(ctx); !errors.Is(err, stream.ErrClosed) {
		t.Errorf("Next after cancel = %v, want ErrClosed", err)
	}
}

// TestStreamFanoutSharesEngineMemo pins where fan-out amortization
// lives now that the hub keeps no decisions: N subscribers × M
// identical events cost one engine-memo miss, and a preference change
// costs exactly one more — the next event is decided under the new
// rules without anything having been flushed by hand.
func TestStreamFanoutSharesEngineMemo(t *testing.T) {
	f := newFixture(t)
	engine := f.bms.Engine().(*enforce.Compiled)
	const subs, events = 3, 4
	var all []*stream.Subscription
	for i := 0; i < subs; i++ {
		all = append(all, subscribe(t, f, enforce.Request{
			ServiceID: "concierge",
			Purpose:   policy.PurposeProvidingService,
			Kind:      sensor.ObsWiFiConnect,
		}, 16))
	}
	deliver := func(n int) []sensor.Observation {
		t.Helper()
		for i := 0; i < n; i++ {
			// Same subject, space and minute every time.
			if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", 0)); err != nil {
				t.Fatal(err)
			}
		}
		var last []sensor.Observation
		for _, s := range all {
			if last = collectStream(t, s, n, 2*time.Second); len(last) != n {
				t.Fatalf("subscriber got %d/%d events", len(last), n)
			}
		}
		return last
	}

	hits0, misses0 := engine.Stats()
	if got := deliver(events); got[0].SpaceID != "dbh/2/r0" {
		t.Fatalf("event released at %q before any preference", got[0].SpaceID)
	}
	hits, misses := engine.Stats()
	if misses-misses0 != 1 || hits-hits0 != subs*events-1 {
		t.Errorf("%d deliveries cost %d engine misses and %d hits, want 1 and %d",
			subs*events, misses-misses0, hits-hits0, subs*events-1)
	}

	if err := f.bms.SetPreference(policy.CoarseLocationPreference("mary", "concierge")); err != nil {
		t.Fatal(err)
	}
	if got := deliver(1); got[0].SpaceID != "dbh" {
		t.Errorf("event after SetPreference released at %q, want the coarsened dbh", got[0].SpaceID)
	}
	if _, after := engine.Stats(); after-misses != 1 {
		t.Errorf("preference change cost %d engine misses, want 1", after-misses)
	}
}

// TestStreamReplayHitsMemo: a replay of rows hours behind the node's
// clock judges each at its capture time and decides once per window
// class: the engine memo keys by class, so every later row of a class
// is a hit.
func TestStreamReplayHitsMemo(t *testing.T) {
	f := newFixture(t)
	engine := f.bms.Engine().(*enforce.Compiled)
	if err := f.bms.SetPreference(policy.Preference{ID: "mary-nights", UserID: "mary", Name: "nights",
		Scope: policy.Scope{ObsKind: sensor.ObsWiFiConnect, Window: policy.AfterHours},
		Rule:  policy.Rule{Action: policy.ActionDeny}, Source: "explicit"}); err != nil {
		t.Fatal(err)
	}
	for h := 12; h >= 1; h-- { // 02:00 to 13:00, six rows either side of 08:00
		if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", -60*h)); err != nil {
			t.Fatal(err)
		}
	}
	hits0, misses0 := engine.Stats()
	sub, err := f.bms.Streams().Subscribe(stream.Options{Replay: true, ReplayChunk: 5, Request: enforce.Request{
		ServiceID: "concierge", Purpose: policy.PurposeProvidingService, Kind: sensor.ObsWiFiConnect}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Cancel)
	got := collectStream(t, sub, 6, 2*time.Second)
	if len(got) != 6 || got[0].Time.Hour() != 8 {
		t.Fatalf("replay released %d rows from %v, want the six from 08:00", len(got), got)
	}
	hits, misses := engine.Stats()
	if misses-misses0 != 2 || hits-hits0 != 10 {
		t.Errorf("twelve replayed rows cost %d engine misses and %d hits, want 2 and 10", misses-misses0, hits-hits0)
	}
}

// TestDerivedOccupancyStreamsWithStoreSeq: a derived observation
// reaches live subscribers carrying the sequence number the store
// assigned it — the resume cursor — not the zero of the un-stored
// value.
func TestDerivedOccupancyStreamsWithStoreSeq(t *testing.T) {
	f := newFixture(t)
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", 0)); err != nil {
		t.Fatal(err)
	}
	s := subscribe(t, f, enforce.Request{
		ServiceID: "smart-meeting",
		Purpose:   policy.PurposeProvidingService,
		Kind:      sensor.ObsOccupancy,
	}, 16)

	n, err := f.bms.DeriveOccupancy(f.now.Add(-time.Hour), f.now.Add(time.Hour), 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	stored := f.bms.Store().Query(obstore.Filter{Kind: sensor.ObsOccupancy})
	if n == 0 || len(stored) != n {
		t.Fatalf("derived %d, stored %d", n, len(stored))
	}
	got := collectStream(t, s, n, 2*time.Second)
	if len(got) != n {
		t.Fatalf("streamed %d derived observations, want %d", len(got), n)
	}
	for i, o := range got {
		if o.Seq == 0 || o.Seq != stored[i].Seq {
			t.Errorf("derived observation %d streamed with seq %d, store assigned %d", i, o.Seq, stored[i].Seq)
		}
	}
}
