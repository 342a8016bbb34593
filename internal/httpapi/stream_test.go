package httpapi

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

var errStopStream = errors.New("collected enough")

// TestStreamReconnectResumeExactlyOnce drives the resume seam over
// the wire: a streaming client dies mid-stream, reconnects with its
// cursor while ingest continues, and must observe every matching
// observation exactly once — with the same enforcement decisions the
// one-shot query path applies for the same requester.
func TestStreamReconnectResumeExactlyOnce(t *testing.T) {
	bms, client := newServer(t)
	if err := bms.SetPreference(policy.CoarseLocationPreference("mary", "concierge")); err != nil {
		t.Fatal(err)
	}

	const phase1Ingest = 30
	for i := 0; i < phase1Ingest; i++ {
		if err := bms.Ingest(ObservationFromDTO(wifiObs("aa:00:00:00:00:01", i))); err != nil {
			t.Fatal(err)
		}
	}

	opts := StreamOptions{
		Request: RequestDTO{
			ServiceID: "concierge",
			Purpose:   string(policy.PurposeProvidingService),
			Kind:      string(sensor.ObsWiFiConnect),
		},
		Replay: true,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// First connection: die after 10 events.
	var phase1 []StreamEventDTO
	err := client.Stream(ctx, opts, func(ev StreamEventDTO) error {
		if ev.Type != "observation" {
			t.Errorf("unexpected event %+v", ev)
		}
		phase1 = append(phase1, ev)
		if len(phase1) == 10 {
			return errStopStream
		}
		return nil
	})
	if !errors.Is(err, errStopStream) {
		t.Fatalf("stream phase 1 = %v", err)
	}
	cursor := phase1[len(phase1)-1].Seq
	if cursor != 10 {
		t.Fatalf("cursor after 10 events = %d, want 10", cursor)
	}

	// Ingest continues while the consumer is away and while it
	// replays after reconnecting.
	const phase2Ingest = 30
	ingestDone := make(chan error, 1)
	go func() {
		for i := 0; i < phase2Ingest; i++ {
			if err := bms.Ingest(ObservationFromDTO(wifiObs("aa:00:00:00:00:01", phase1Ingest+i))); err != nil {
				ingestDone <- err
				return
			}
		}
		ingestDone <- nil
	}()

	// Reconnect with the cursor.
	total := phase1Ingest + phase2Ingest
	want := total - int(cursor)
	opts.AfterSeq = cursor
	var phase2 []StreamEventDTO
	err = client.Stream(ctx, opts, func(ev StreamEventDTO) error {
		phase2 = append(phase2, ev)
		if len(phase2) == want {
			return errStopStream
		}
		return nil
	})
	if !errors.Is(err, errStopStream) {
		t.Fatalf("stream phase 2 = %v", err)
	}
	if err := <-ingestDone; err != nil {
		t.Fatal(err)
	}

	seen := make(map[uint64]bool)
	for _, ev := range append(phase1, phase2...) {
		if seen[ev.Seq] {
			t.Fatalf("seq %d delivered twice across the reconnect", ev.Seq)
		}
		seen[ev.Seq] = true
	}
	for s := uint64(1); s <= uint64(total); s++ {
		if !seen[s] {
			t.Fatalf("seq %d missing across the reconnect (hole in the splice)", s)
		}
	}

	// Enforcement parity: the stream coarsened mary to building
	// granularity, exactly as the one-shot request path does.
	for _, ev := range phase2 {
		if ev.Observation.SpaceID != "dbh" || ev.Observation.UserID != "mary" {
			t.Fatalf("streamed observation not enforced: %+v", ev.Observation)
		}
	}
	resp, err := client.RequestUser(ctx, enforce.Request{
		ServiceID: "concierge",
		Purpose:   policy.PurposeProvidingService,
		Kind:      sensor.ObsWiFiConnect,
		SubjectID: "mary",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Observations) == 0 {
		t.Fatal("one-shot query released nothing")
	}
	for _, o := range resp.Observations {
		if o.SpaceID != "dbh" {
			t.Fatalf("one-shot release disagrees with stream: %+v", o)
		}
	}
}

func TestStreamNotificationsTopic(t *testing.T) {
	bms, client := newServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	go func() {
		// Give the subscription a moment to attach; notifications have
		// no durable log to replay from.
		time.Sleep(50 * time.Millisecond)
		bms.Streams().PublishNotification(enforce.Notification{UserID: "bob", Message: "not mary's"})
		bms.Streams().PublishNotification(enforce.Notification{UserID: "mary", PolicyID: "pol-1", Message: "override applied"})
	}()

	var got []StreamEventDTO
	err := client.Stream(ctx, StreamOptions{Topic: "notifications", UserID: "mary"}, func(ev StreamEventDTO) error {
		got = append(got, ev)
		return errStopStream
	})
	if !errors.Is(err, errStopStream) {
		t.Fatalf("stream = %v", err)
	}
	if len(got) != 1 || got[0].Type != "notification" || got[0].Notification.UserID != "mary" {
		t.Fatalf("notification stream delivered %+v, want mary's only", got)
	}
	if got[0].Notification.PolicyID != "pol-1" {
		t.Errorf("notification payload = %+v", got[0].Notification)
	}
}

func TestStreamRejectsBadParameters(t *testing.T) {
	_, client := newServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := client.Stream(ctx, StreamOptions{Policy: "bogus"}, func(StreamEventDTO) error { return nil })
	if err == nil {
		t.Fatal("bogus backpressure policy accepted")
	}
	err = client.Stream(ctx, StreamOptions{Topic: "notifications", Replay: true}, func(StreamEventDTO) error { return nil })
	if err == nil {
		t.Fatal("replay on a live-only topic accepted")
	}
}
