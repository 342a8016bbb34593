package httpapi

import (
	"context"
	"errors"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/core"
	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/irr"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/service"
	"github.com/tippers/tippers/internal/spatial"
	"github.com/tippers/tippers/internal/telemetry"
)

// TestSingleTraceIDAcrossPipeline is the observability acceptance
// test: one client-originated trace ID must link the HTTP requests, an
// IRR fetch across the tippersd↔irrd boundary, and SSE stream delivery
// — everything a slow aggregate request or laggy stream would need for
// diagnosis. The ingest and occupancy server spans carry each stage the
// request ran (the stage clock is the node's one timing source: no
// stage has a span of its own) and the counts that describe it.
func TestSingleTraceIDAcrossPipeline(t *testing.T) {
	tracer := telemetry.NewTracer(telemetry.TracerOptions{SampleOneIn: 1})

	store, err := obstore.OpenDurable(obstore.DurableConfig{
		Dir: t.TempDir(), SyncEveryAppend: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	spaces := spatial.NewModel()
	spaces.MustAdd("", spatial.Space{ID: "dbh", Kind: spatial.KindBuilding})
	spaces.MustAdd("dbh", spatial.Space{ID: "dbh/1", Kind: spatial.KindFloor, Floor: 1})
	spaces.MustAdd("dbh/1", spatial.Space{ID: "dbh/1/r0", Kind: spatial.KindRoom, Floor: 1})
	users := profile.NewDirectory()
	users.MustAdd(profile.User{
		ID: "mary", Profiles: []profile.Profile{{Group: profile.GroupGradStudent}},
		DeviceMACs: []string{"aa:00:00:00:00:01"},
	})
	users.MustAdd(profile.User{
		ID: "bob", Profiles: []profile.Profile{{Group: profile.GroupFaculty}},
		DeviceMACs: []string{"aa:00:00:00:00:02"},
	})
	sensors := sensor.NewRegistry()
	sensors.MustAdd(sensor.MustNew("ap-1", sensor.TypeWiFiAP, "dbh/1/r0"))
	services := service.NewRegistry()
	services.MustRegister(service.Concierge())

	bms, err := core.New(core.Config{
		Spaces: spaces, Users: users, Sensors: sensors, Services: services,
		DefaultAllow: true,
		Clock:        func() time.Time { return testNow },
		Store:        store,
		Tracer:       tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bms.Close)

	// The TIPPERS API and a standalone IRR share the tracer the way a
	// single test process can: spans from both sides land in one ring,
	// so the cross-process traceparent hop is directly observable.
	apiSrv := httptest.NewServer(NewServer(bms).WithTracing(tracer, 0, nil).Handler())
	t.Cleanup(apiSrv.Close)

	registry := irr.NewRegistry("e2e-irr", nil)
	for _, res := range policy.Figure2Document().Resources {
		if err := registry.Publish("dbh", res); err != nil {
			t.Fatal(err)
		}
	}
	irrSrv := httptest.NewServer(telemetry.InstrumentHandler(telemetry.HTTPOptions{Tracer: tracer}, "irr", registry.Handler()))
	t.Cleanup(irrSrv.Close)

	// One root span stands in for the IoT Assistant driving the whole
	// interaction; every downstream call inherits its trace ID.
	ctx, root := tracer.StartRoot(context.Background(), "e2e.client")
	defer root.End()
	sc, ok := telemetry.SpanContextFrom(ctx)
	if !ok || !sc.Sampled {
		t.Fatalf("root span context = %+v, sampled %v", sc, ok)
	}
	traceID := sc.TraceID.String()

	client := NewClient(apiSrv.URL, nil)
	if _, err := client.Ingest(ctx, []ObservationDTO{
		wifiObs("aa:00:00:00:00:01", 0), wifiObs("aa:00:00:00:00:02", 1),
	}); err != nil {
		t.Fatal(err)
	}

	resp, err := client.RequestOccupancy(ctx, enforce.Request{
		ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		Kind: sensor.ObsWiFiConnect, SpaceID: "dbh", Time: testNow,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("occupancy response has no decision trace")
	}
	if resp.Trace.TraceID != traceID {
		t.Errorf("decision trace joined trace %q, want %q", resp.Trace.TraceID, traceID)
	}

	// Cross the tippersd↔irrd boundary with the same trace.
	if _, err := irr.NewClient(irrSrv.URL, nil).Resources(ctx, ""); err != nil {
		t.Fatal(err)
	}

	// Stream the ingested history back over SSE under the same trace;
	// stop after the first delivered observation.
	streamCtx, cancelStream := context.WithCancel(ctx)
	defer cancelStream()
	errStop := errors.New("stop")
	err = client.Stream(streamCtx, StreamOptions{
		Topic: "observations",
		Request: RequestDTO{
			ServiceID: "concierge", Purpose: string(policy.PurposeProvidingService),
			Kind: string(sensor.ObsWiFiConnect), SubjectID: "mary",
		},
		Replay:      true,
		NoReconnect: true,
	}, func(ev StreamEventDTO) error {
		if ev.Type == "observation" {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("stream ended with %v, want stop sentinel", err)
	}
	cancelStream()

	// The server finishes its stream span and the SSE delivery spans
	// asynchronously after the client hangs up; poll briefly.
	want := []string{
		"http POST /v1/observations",
		"http POST /v1/requests/occupancy",
		"http irr",
		"http GET /v1/stream",
		"stream.subscribe",
		"stream.replay_page",
		"sse.deliver",
	}
	deadline := time.Now().Add(5 * time.Second)
	var missing []string
	for {
		names := make(map[string]bool)
		for _, s := range tracer.Trace(sc.TraceID) {
			names[s.Name] = true
		}
		missing = missing[:0]
		for _, w := range want {
			if !names[w] {
				missing = append(missing, w)
			}
		}
		if len(missing) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never accumulated spans %v (has %v)", traceID, missing, names)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Parent links must resolve inside the trace: every span is either
	// a child of another recorded span or a child of the client root.
	spans := tracer.Trace(sc.TraceID)
	ids := map[string]bool{sc.SpanID.String(): true}
	for _, s := range spans {
		ids[s.SpanID] = true
	}
	for _, s := range spans {
		if s.ParentID != "" && !ids[s.ParentID] {
			t.Errorf("span %s (%s) has unknown parent %s", s.Name, s.SpanID, s.ParentID)
		}
	}

	// The server spans carry the stages and the counts the stage spans
	// once did: every stage as µs (a want of ""), and what the request
	// handled.
	type attr struct{ key, value string }
	wantAttrs := map[string][]attr{
		"http POST /v1/observations": {{"stage.decode_us", ""}, {"stage.append_us", ""}, {"stage.encode_us", ""},
			{"observations", "2"}, {"accepted", "2"}},
		"http POST /v1/requests/occupancy": {{"stage.decode_us", ""}, {"stage.fetch_us", ""}, {"stage.decide-subjects_us", ""},
			{"stage.aggregate_us", ""}, {"stage.encode_us", ""}, {"allowed", "true"}, {"observations", "2"},
			{"subjects", "2"}, {"subjects_released", "2"}, {"k", "2"}, {"spaces", "1"}, {"spaces_suppressed", "0"}},
	}
	for _, s := range spans {
		for _, want := range wantAttrs[s.Name] {
			i := slices.IndexFunc(s.Attrs, func(a telemetry.Attr) bool { return a.Key == want.key })
			switch {
			case i < 0:
				t.Errorf("%s span has no %s attribute: %v", s.Name, want.key, s.Attrs)
			case want.value == "":
				if _, err := strconv.ParseInt(s.Attrs[i].Value, 10, 64); err != nil {
					t.Errorf("%s span's %s = %q, want a count of µs", s.Name, want.key, s.Attrs[i].Value)
				}
			case s.Attrs[i].Value != want.value:
				t.Errorf("%s span's %s = %q, want %q", s.Name, want.key, s.Attrs[i].Value, want.value)
			}
		}
	}

	// WAL group commits serve many requests, so fsync spans are roots
	// of their own traces — but with per-append sync they must exist.
	foundFsync := false
	for _, tr := range tracer.RecentTraces(0) {
		if tr.Root == "wal.fsync" {
			foundFsync = true
			break
		}
	}
	if !foundFsync {
		t.Error("no wal.fsync root span recorded despite SyncEveryAppend")
	}
}
