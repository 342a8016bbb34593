package stream

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/reasoner"
	"github.com/tippers/tippers/internal/sensor"
)

// fixture wires a hub over a real store with a stub decision pipeline:
// subject "blocked" is denied, everything else released unchanged.
type fixture struct {
	store *obstore.Store
	hub   *Hub
}

var fixtureBase = time.Date(2017, 6, 7, 14, 0, 0, 0, time.UTC)

func newHubFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{store: obstore.New()}
	hub, err := NewHub(Config{
		Store: f.store,
		Decide: func(req enforce.Request) enforce.Decision {
			if req.SubjectID == "blocked" {
				return enforce.Decision{DenyReason: "blocked subject"}
			}
			return enforce.Decision{Allowed: true}
		},
		Apply: func(d enforce.Decision, o sensor.Observation) (sensor.Observation, bool, error) {
			return o, d.Allowed, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Close)
	f.hub = hub
	return f
}

// ingest mimics the core pipeline: append to the store, then wake the
// hub, which reads the row back from the store.
func (f *fixture) ingest(t testing.TB, user string, minute int) sensor.Observation {
	t.Helper()
	return f.ingestSensor(t, "ap-1", user, minute)
}

func (f *fixture) ingestSensor(t testing.TB, sensorID, user string, minute int) sensor.Observation {
	t.Helper()
	o := sensor.Observation{
		SensorID: sensorID,
		Kind:     sensor.ObsWiFiConnect,
		Time:     fixtureBase.Add(time.Duration(minute) * time.Minute),
		SpaceID:  "dbh/1/r0",
		UserID:   user,
	}
	stored, err := f.store.Append(o)
	if err != nil {
		t.Fatal(err)
	}
	f.hub.Wake()
	return stored
}

func collectSeqs(t *testing.T, sub *Subscription, want int, timeout time.Duration) []uint64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var seqs []uint64
	for len(seqs) < want {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("Next after %d/%d events: %v", len(seqs), want, err)
		}
		if ev.Type != EventObservation {
			t.Fatalf("unexpected event %+v", ev)
		}
		seqs = append(seqs, ev.Seq)
	}
	return seqs
}

func TestLiveDeliveryEnforcesPerSubject(t *testing.T) {
	f := newHubFixture(t)
	sub, err := f.hub.Subscribe(Options{
		Request: enforce.Request{ServiceID: "svc", Kind: sensor.ObsWiFiConnect},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	f.ingest(t, "mary", 0)
	f.ingest(t, "blocked", 1)
	f.ingest(t, "bob", 2)

	seqs := collectSeqs(t, sub, 2, 2*time.Second)
	if seqs[0] != 1 || seqs[1] != 3 {
		t.Fatalf("delivered seqs %v, want [1 3] (blocked subject suppressed)", seqs)
	}
	waitFor(t, func() bool { return sub.Stats().Denied == 1 })
}

// TestResumeSpliceExactlyOnce is the resume seam test: a consumer
// dies mid-stream, reconnects with its cursor while the publisher
// keeps going, and must observe every matching observation exactly
// once — replayed history spliced onto the live feed with no
// duplicates and no holes.
func TestResumeSpliceExactlyOnce(t *testing.T) {
	f := newHubFixture(t)
	const preexisting = 40
	for i := 0; i < preexisting; i++ {
		f.ingest(t, "mary", i)
	}

	// First connection: replay from the beginning, die after 15 events.
	sub1, err := f.hub.Subscribe(Options{
		Request:     enforce.Request{ServiceID: "svc", Kind: sensor.ObsWiFiConnect},
		Replay:      true,
		ReplayChunk: 7, // force several catch-up pages
	})
	if err != nil {
		t.Fatal(err)
	}
	seqs := collectSeqs(t, sub1, 15, 2*time.Second)
	cursor := seqs[len(seqs)-1]
	sub1.Cancel()
	if cursor != 15 {
		t.Fatalf("cursor after 15 events = %d, want 15", cursor)
	}

	// The publisher keeps going while the consumer is away and while
	// it replays after reconnecting.
	const live = 40
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		for i := 0; i < live; i++ {
			f.ingest(t, "mary", preexisting+i)
		}
	}()

	sub2, err := f.hub.Subscribe(Options{
		Request:     enforce.Request{ServiceID: "svc", Kind: sensor.ObsWiFiConnect},
		Replay:      true,
		AfterSeq:    cursor,
		ReplayChunk: 7,
		Buffer:      2 * live, // no backpressure: this test is about the splice
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Cancel()
	<-pubDone

	total := preexisting + live
	want := total - int(cursor)
	got := collectSeqs(t, sub2, want, 5*time.Second)
	seen := make(map[uint64]bool, len(got))
	for _, s := range got {
		if s <= cursor {
			t.Fatalf("seq %d delivered twice (already seen before cursor %d)", s, cursor)
		}
		if seen[s] {
			t.Fatalf("seq %d duplicated in resumed stream", s)
		}
		seen[s] = true
	}
	for s := cursor + 1; s <= uint64(total); s++ {
		if !seen[s] {
			t.Fatalf("seq %d missing from resumed stream (hole in the splice)", s)
		}
	}
	st := sub2.Stats()
	if st.Replayed == 0 {
		t.Error("resume served nothing from the durable store")
	}
	if st.Gaps != 0 || st.Dropped != 0 {
		t.Errorf("unbackpressured resume reported loss: %+v", st)
	}
}

func TestDropOldestEmitsGapMarker(t *testing.T) {
	f := newHubFixture(t)
	sub, err := f.hub.Subscribe(Options{
		Request: enforce.Request{ServiceID: "svc", Kind: sensor.ObsWiFiConnect},
		Buffer:  4,
		Policy:  DropOldest,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	for i := 0; i < 10; i++ {
		f.ingest(t, "mary", i)
	}
	waitFor(t, func() bool { return sub.Stats().Dropped == 6 })

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	ev, err := sub.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != EventGap || ev.GapFrom != 0 || ev.GapTo != 6 {
		t.Fatalf("first event = %+v, want gap over (0, 6]", ev)
	}
	seqs := collectSeqs(t, sub, 4, 2*time.Second)
	for i, s := range seqs {
		if s != uint64(7+i) {
			t.Fatalf("post-gap seqs %v, want [7 8 9 10]", seqs)
		}
	}
	if st := sub.Stats(); st.Gaps != 1 {
		t.Errorf("stats = %+v, want 1 gap", st)
	}
}

func TestBlockPolicyWaitsForConsumer(t *testing.T) {
	f := newHubFixture(t)
	sub, err := f.hub.Subscribe(Options{
		Request:      enforce.Request{ServiceID: "svc", Kind: sensor.ObsWiFiConnect},
		Buffer:       1,
		Policy:       Block,
		BlockTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	const n = 5
	done := make(chan []uint64)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var seqs []uint64
		for len(seqs) < n {
			ev, err := sub.Next(ctx)
			if err != nil {
				done <- nil
				return
			}
			if ev.Type == EventObservation {
				seqs = append(seqs, ev.Seq)
			}
			time.Sleep(2 * time.Millisecond) // a deliberately slow consumer
		}
		done <- seqs
	}()
	for i := 0; i < n; i++ {
		f.ingest(t, "mary", i)
	}
	seqs := <-done
	if len(seqs) != n {
		t.Fatalf("slow consumer under Block got %d events, want %d", len(seqs), n)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seqs %v, want 1..%d in order", seqs, n)
		}
	}
	if st := sub.Stats(); st.Dropped != 0 || st.Gaps != 0 {
		t.Errorf("Block policy lost events: %+v", st)
	}
}

func TestDisconnectPolicyThenResume(t *testing.T) {
	f := newHubFixture(t)
	sub, err := f.hub.Subscribe(Options{
		Request: enforce.Request{ServiceID: "svc", Kind: sensor.ObsWiFiConnect},
		Buffer:  2,
		Policy:  Disconnect,
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		f.ingest(t, "mary", i)
	}
	// The hub disconnects the subscription when it offers the third
	// event to the full ring. A read before that would free ring space
	// and race the offer, so wait for the disconnect first.
	select {
	case <-sub.done:
	case <-time.After(2 * time.Second):
		t.Fatal("the hub never disconnected the slow subscription")
	}

	// The buffered prefix stays readable; then the subscription
	// reports why it died.
	seqs := collectSeqs(t, sub, 2, 2*time.Second)
	if seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("buffered prefix %v, want [1 2]", seqs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := sub.Next(ctx); !errors.Is(err, ErrSlowConsumer) {
		t.Fatalf("Next after disconnect = %v, want ErrSlowConsumer", err)
	}

	// Reconnect with the cursor: the durable store fills the gap.
	sub2, err := f.hub.Subscribe(Options{
		Request:  enforce.Request{ServiceID: "svc", Kind: sensor.ObsWiFiConnect},
		Replay:   true,
		AfterSeq: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Cancel()
	seqs = collectSeqs(t, sub2, 2, 2*time.Second)
	if seqs[0] != 3 || seqs[1] != 4 {
		t.Fatalf("resumed seqs %v, want [3 4]", seqs)
	}
}

// TestStalledSubscriberCostsOthersNothing: a Block subscriber that
// never drains stalls the hub's scan, not the store, so once it is
// cancelled a second subscriber receives every row, in order and with
// no gap, however far the hub fell behind.
func TestStalledSubscriberCostsOthersNothing(t *testing.T) {
	f := newHubFixture(t)
	req := enforce.Request{ServiceID: "svc", Kind: sensor.ObsWiFiConnect}
	stalled, err := f.hub.Subscribe(Options{Request: req, Buffer: 1, Policy: Block, BlockTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Cancel()
	sub, err := f.hub.Subscribe(Options{Request: req, Buffer: 8192, Policy: DropOldest})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	const rows = 3000
	for i := 0; i < rows; i++ {
		f.ingest(t, "mary", i)
	}
	stalled.Cancel()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for want := uint64(1); want <= rows; want++ {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("Next after %d/%d rows: %v", want-1, rows, err)
		}
		if ev.Type != EventObservation || ev.Seq != want {
			t.Fatalf("event %d = %+v, want the row with seq %d", want, ev, want)
		}
	}
	if st := sub.Stats(); st.Dropped != 0 || st.Gaps != 0 {
		t.Errorf("the draining subscriber lost rows to the stalled one: %+v", st)
	}
}

// TestErasedRowIsNeverStreamed: rows erased while the hub is stalled
// behind them are gone from the store when its scan reaches them, so
// no subscriber receives them.
func TestErasedRowIsNeverStreamed(t *testing.T) {
	f := newHubFixture(t)
	req := enforce.Request{ServiceID: "svc", Kind: sensor.ObsWiFiConnect}
	stalled, err := f.hub.Subscribe(Options{Request: req, Buffer: 1, Policy: Block, BlockTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Cancel()
	sub, err := f.hub.Subscribe(Options{Request: req, Buffer: 8192, Policy: DropOldest})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	// bob's first row fills the stalled ring; the hub parks on his
	// second before anything else is appended.
	f.ingest(t, "bob", 0)
	f.ingest(t, "bob", 1)
	waitFor(t, func() bool { return f.hub.headSeq.Load() == 2 })
	for i := 0; i < 20; i++ {
		f.ingest(t, "mary", 2+i)
	}
	if n := f.store.DeleteUser("mary", nil); n != 20 {
		t.Fatalf("DeleteUser erased %d rows, want 20", n)
	}
	last := f.ingest(t, "bob", 22)
	stalled.Cancel()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var bob int
	for {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("Next after %d of bob's rows: %v", bob, err)
		}
		if ev.Type != EventObservation {
			t.Fatalf("unexpected event %+v", ev)
		}
		if u := ev.Observation.UserID; u != "bob" {
			t.Fatalf("streamed %s's erased row %d", u, ev.Seq)
		}
		if bob++; ev.Seq == last.Seq {
			break
		}
	}
	if bob != 3 {
		t.Errorf("streamed %d of bob's rows, want 3", bob)
	}
}

func TestNotificationAndConflictTopics(t *testing.T) {
	f := newHubFixture(t)
	nsub, err := f.hub.Subscribe(Options{Topic: TopicNotifications, UserID: "mary"})
	if err != nil {
		t.Fatal(err)
	}
	defer nsub.Cancel()
	csub, err := f.hub.Subscribe(Options{Topic: TopicConflicts})
	if err != nil {
		t.Fatal(err)
	}
	defer csub.Cancel()

	f.hub.PublishNotification(enforce.Notification{UserID: "bob", Message: "not for mary"})
	f.hub.PublishNotification(enforce.Notification{UserID: "mary", Message: "override"})
	f.hub.PublishConflict(reasoner.Conflict{PolicyID: "pol-1", PreferenceID: "pref-1", UserID: "mary"})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	ev, err := nsub.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != EventNotification || ev.Notification.UserID != "mary" || ev.Notification.Message != "override" {
		t.Fatalf("notification stream delivered %+v, want mary's (bob's filtered)", ev)
	}
	if ev.Seq == 0 {
		t.Error("notification event carries no cursor")
	}
	ev, err = csub.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != EventConflict || ev.Conflict.PolicyID != "pol-1" {
		t.Fatalf("conflict stream delivered %+v", ev)
	}
}

// TestLiveOnlyTopicsNeverWait: notifications are pushed from their
// producers' goroutines, so a Block subscription drops its oldest
// instead of stalling them, and concurrent producers still fill every
// ring in seq order.
func TestLiveOnlyTopicsNeverWait(t *testing.T) {
	f := newHubFixture(t)
	blocked, err := f.hub.Subscribe(Options{Topic: TopicNotifications, Buffer: 4, Policy: Block, BlockTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer blocked.Cancel()
	sub, err := f.hub.Subscribe(Options{Topic: TopicNotifications, Buffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	const producers, each = 4, 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f.hub.PublishNotification(enforce.Notification{UserID: "mary"})
			}
		}()
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var last uint64
	for i := 0; i < producers*each; i++ {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("Next after %d notifications: %v", i, err)
		}
		if ev.Type != EventNotification || ev.Seq <= last {
			t.Fatalf("event %d = %+v after seq %d", i, ev, last)
		}
		last = ev.Seq
	}
	if st := blocked.Stats(); st.Dropped != producers*each-4 {
		t.Errorf("the Block subscription dropped %d, want %d", st.Dropped, producers*each-4)
	}
}

func TestSubscribeValidatesOptions(t *testing.T) {
	f := newHubFixture(t)
	if _, err := f.hub.Subscribe(Options{Topic: "weather"}); err == nil {
		t.Error("unknown topic accepted")
	}
	if _, err := f.hub.Subscribe(Options{Topic: TopicNotifications, Replay: true}); err == nil {
		t.Error("replay accepted on a topic with no durable log")
	}
}

func TestHubCloseCancelsSubscriptions(t *testing.T) {
	f := newHubFixture(t)
	sub, err := f.hub.Subscribe(Options{
		Request: enforce.Request{ServiceID: "svc", Kind: sensor.ObsWiFiConnect},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.hub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := sub.Next(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Next after hub close = %v, want ErrClosed", err)
	}
	if _, err := f.hub.Subscribe(Options{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after close = %v, want ErrClosed", err)
	}
}

func TestParseBackpressure(t *testing.T) {
	cases := map[string]Backpressure{
		"":            PolicyDefault,
		"default":     PolicyDefault,
		"drop":        DropOldest,
		"drop-oldest": DropOldest,
		"block":       Block,
		"disconnect":  Disconnect,
	}
	for in, want := range cases {
		got, err := ParseBackpressure(in)
		if err != nil || got != want {
			t.Errorf("ParseBackpressure(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseBackpressure("nope"); err == nil {
		t.Error("bogus policy accepted")
	}
	for _, p := range []Backpressure{PolicyDefault, DropOldest, Block, Disconnect} {
		if p.String() == "" {
			t.Errorf("policy %d has empty name", p)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(time.Millisecond)
	}
}
