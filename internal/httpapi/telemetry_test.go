package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/core"
	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/service"
	"github.com/tippers/tippers/internal/spatial"
	"github.com/tippers/tippers/internal/telemetry"
)

// newObservedServer wires a BMS onto a shared telemetry registry and
// serves the instrumented API plus the observability endpoints, the
// way tippersd mounts them.
func newObservedServer(t testing.TB) (*core.BMS, *Client, *httptest.Server) {
	t.Helper()
	spaces := spatial.NewModel()
	spaces.MustAdd("", spatial.Space{ID: "dbh", Kind: spatial.KindBuilding})
	spaces.MustAdd("dbh", spatial.Space{ID: "dbh/1", Kind: spatial.KindFloor, Floor: 1})
	spaces.MustAdd("dbh/1", spatial.Space{ID: "dbh/1/r0", Kind: spatial.KindRoom, Floor: 1})

	users := profile.NewDirectory()
	users.MustAdd(profile.User{
		ID: "mary", Profiles: []profile.Profile{{Group: profile.GroupGradStudent}},
		DeviceMACs: []string{"aa:00:00:00:00:01"},
	})

	sensors := sensor.NewRegistry()
	sensors.MustAdd(sensor.MustNew("ap-1", sensor.TypeWiFiAP, "dbh/1/r0"))

	services := service.NewRegistry()
	services.MustRegister(service.Concierge())

	reg := telemetry.NewRegistry()
	bms, err := core.New(core.Config{
		Spaces: spaces, Users: users, Sensors: sensors, Services: services,
		DefaultAllow: true,
		Clock:        func() time.Time { return testNow },
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bms.Close)

	mux := http.NewServeMux()
	mux.Handle("/", NewServer(bms).WithMetrics(reg).Handler())
	reg.Mount(mux, false)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return bms, NewClient(srv.URL, nil), srv
}

// TestStatsJSONBackwardCompat pins the exact /v1/stats field names:
// tools scripted against the pre-telemetry daemon must keep working
// after the Stats migration onto the registry.
func TestStatsJSONBackwardCompat(t *testing.T) {
	_, client, srv := newObservedServer(t)
	ctx := context.Background()

	if _, err := client.Ingest(ctx, []ObservationDTO{wifiObs("aa:00:00:00:00:01", 0)}); err != nil {
		t.Fatal(err)
	}
	res, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	for _, name := range []string{
		"ingested", "dropped_disabled", "dropped_unlogged", "pseudonymized",
		"requests_decided", "requests_denied", "notifications_sent",
	} {
		if _, ok := fields[name]; !ok {
			t.Errorf("/v1/stats missing field %q (got %s)", name, raw)
		}
	}
	var ingested uint64
	if err := json.Unmarshal(fields["ingested"], &ingested); err != nil || ingested != 1 {
		t.Errorf("ingested = %s, %v, want 1", fields["ingested"], err)
	}
}

// TestMetricsEndpoint drives traffic through the API and asserts
// /metrics exposes at least one counter, one gauge, and one histogram
// contributed by three different packages (core, obstore, http
// middleware).
func TestMetricsEndpoint(t *testing.T) {
	_, client, srv := newObservedServer(t)
	ctx := context.Background()

	if _, err := client.Ingest(ctx, []ObservationDTO{wifiObs("aa:00:00:00:00:01", 0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.RequestUser(ctx, enforce.Request{
		ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		Kind: sensor.ObsWiFiConnect, SubjectID: "mary", Time: testNow,
	}); err != nil {
		t.Fatal(err)
	}

	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		// counter from internal/core
		"# TYPE tippers_core_ingested_total counter",
		"tippers_core_ingested_total 1",
		// gauge from internal/obstore
		"# TYPE tippers_obstore_live_observations gauge",
		// histogram from internal/core's enforcement timing
		"# TYPE tippers_enforce_decide_seconds histogram",
		// histogram from the HTTP middleware
		"# TYPE tippers_http_request_seconds histogram",
		`tippers_http_requests_total{code="200",route="POST /v1/observations"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /debug/vars serves the same registry as JSON.
	res2, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	var vars []map[string]any
	if err := json.NewDecoder(res2.Body).Decode(&vars); err != nil {
		t.Fatalf("decoding /debug/vars: %v", err)
	}
	if len(vars) == 0 {
		t.Error("/debug/vars empty")
	}
}

// TestDecisionTraceOverHTTP asserts a user-data request's response
// carries a decision trace naming the matched preference and stage
// timings, and that the audit endpoint surfaces recent traces.
func TestDecisionTraceOverHTTP(t *testing.T) {
	_, client, srv := newObservedServer(t)
	ctx := context.Background()

	if _, err := client.Ingest(ctx, []ObservationDTO{wifiObs("aa:00:00:00:00:01", 0)}); err != nil {
		t.Fatal(err)
	}
	if err := client.SetPreference(policy.CoarseLocationPreference("mary", "concierge")); err != nil {
		t.Fatal(err)
	}
	resp, err := client.RequestUser(ctx, enforce.Request{
		ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		Kind: sensor.ObsWiFiConnect, SubjectID: "mary", Time: testNow,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := resp.Trace
	if tr == nil {
		t.Fatal("response has no trace")
	}
	if tr.Path != "user" || tr.SubjectID != "mary" || tr.ServiceID != "concierge" {
		t.Errorf("trace identity = %+v", tr)
	}
	if !tr.Allowed || tr.Granularity != "building" {
		t.Errorf("trace outcome = allowed=%v granularity=%q", tr.Allowed, tr.Granularity)
	}
	if len(tr.MatchedPreferences) != 1 || !strings.Contains(tr.MatchedPreferences[0], "mary") {
		t.Errorf("trace matched preferences = %v", tr.MatchedPreferences)
	}
	if tr.Engine == "" {
		t.Errorf("trace engine empty: %+v", tr)
	}
	wantStages := []string{"decide", "fetch", "apply"}
	if len(tr.Stages) != len(wantStages) {
		t.Fatalf("trace stages = %+v", tr.Stages)
	}
	for i, s := range tr.Stages {
		if s.Name != wantStages[i] {
			t.Errorf("stage %d = %q, want %q", i, s.Name, wantStages[i])
		}
		if s.DurationMicros < 0 {
			t.Errorf("stage %q negative duration", s.Name)
		}
	}

	// The audit endpoint replays the retained trace.
	report, err := client.Audit(ctx, "mary")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.RecentTraces) == 0 {
		t.Fatal("audit has no recent traces")
	}
	if report.RecentTraces[0].ID != tr.ID {
		t.Errorf("audit trace ID = %d, want %d", report.RecentTraces[0].ID, tr.ID)
	}

	// /v1/decisions lists it too, newest first.
	res, err := http.Get(srv.URL + "/v1/decisions?user=mary")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var traces []DecisionTraceDTO
	if err := json.NewDecoder(res.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 || traces[0].ID != tr.ID {
		t.Errorf("/v1/decisions = %+v", traces)
	}
}

// TestRequestStagesOverHTTP: each data request adds one observation to
// its path's decode and encode histograms, and a sampled request's
// server span carries the µs of every stage it ran, the decision
// trace's in its order between decode and encode. An ingest is one
// batch: one decode, one append and one encode, however many rows, and
// its span counts the rows it was sent and accepted.
func TestRequestStagesOverHTTP(t *testing.T) {
	tracer := telemetry.NewTracer(telemetry.TracerOptions{SampleOneIn: 1})
	bms, _ := newServer(t, func(c *core.Config) { c.Tracer = tracer })
	srv := httptest.NewServer(NewServer(bms).WithMetrics(bms.Metrics()).WithTracing(tracer, 0, nil).Handler())
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, nil)
	ctx := context.Background()
	ingestCtx, root := tracer.StartRoot(ctx, "test")
	if _, err := client.Ingest(ingestCtx, []ObservationDTO{wifiObs("aa:00:00:00:00:01", 0), wifiObs("aa:00:00:00:00:02", 1)}); err != nil {
		t.Fatal(err)
	}
	root.End()
	for _, stage := range []string{"decode", "append", "encode"} {
		h, ok := bms.Metrics().LookupHistogram("tippers_request_stage_seconds", telemetry.Labels{"path": "ingest", "stage": stage})
		if !ok || h.Snapshot().Count != 1 {
			t.Errorf("ingest: %s histogram registered %v, want one observation", stage, ok)
		}
	}
	var ingestAttrs []string
	for _, s := range tracer.Trace(root.Context().TraceID) {
		if s.Name == "http POST /v1/observations" {
			for _, a := range s.Attrs {
				if strings.HasPrefix(a.Key, "stage.") {
					ingestAttrs = append(ingestAttrs, a.Key)
				} else if a.Key == "observations" || a.Key == "accepted" {
					ingestAttrs = append(ingestAttrs, a.Key+"="+a.Value)
				}
			}
		}
	}
	if got, want := strings.Join(ingestAttrs, " "), "stage.decode_us stage.append_us stage.encode_us observations=2 accepted=2"; got != want {
		t.Errorf("ingest: server span attributes %q, want %q", got, want)
	}
	req := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		Kind: sensor.ObsWiFiConnect, Time: testNow}
	check := func(path, route string, serve func() *DecisionTraceDTO) {
		t.Helper()
		tr := serve()
		if tr == nil || tr.TraceID == "" {
			t.Fatalf("%s: no decision trace joined to a sampled trace: %+v", path, tr)
		}
		for _, stage := range []string{"decode", "encode"} {
			h, ok := bms.Metrics().LookupHistogram("tippers_request_stage_seconds", telemetry.Labels{"path": path, "stage": stage})
			if !ok || h.Snapshot().Count != 1 {
				t.Errorf("%s: %s histogram registered %v, want one observation", path, stage, ok)
			}
		}
		want := []string{"stage.decode_us"}
		for _, s := range tr.Stages {
			want = append(want, "stage."+s.Name+"_us")
		}
		want = append(want, "stage.encode_us")
		id, err := telemetry.ParseTraceID(tr.TraceID)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, s := range tracer.Trace(id) {
			if s.Name != "http "+route {
				continue
			}
			for _, a := range s.Attrs {
				if strings.HasPrefix(a.Key, "stage.") {
					got = append(got, a.Key)
				}
			}
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: server span stage attributes %v, want %v", path, got, want)
		}
	}
	check("user", "POST /v1/requests/user", func() *DecisionTraceDTO {
		r := req
		r.SubjectID = "mary"
		resp, err := client.RequestUser(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Trace
	})
	check("occupancy", "POST /v1/requests/occupancy", func() *DecisionTraceDTO {
		resp, err := client.RequestOccupancy(ctx, req, 1)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Trace
	})
	check("query", "POST /v1/query", func() *DecisionTraceDTO {
		res, err := client.Query(ctx, QueryRequestDTO{SQL: "SELECT user_id FROM observations",
			ServiceID: "concierge", Purpose: string(policy.PurposeProvidingService)})
		if err != nil {
			t.Fatal(err)
		}
		return res.Trace
	})

	// Unsampled, observing a request's stages allocates nothing: no
	// attribute, no header.
	reg := telemetry.NewRegistry()
	ingest := ingestStages{codecStages: newCodecStages(reg, "ingest"), append: reg.StageHistogram("ingest", "append")}
	user := newCodecStages(reg, "user")
	unsampled := httptest.NewRequest(http.MethodPost, "/v1/observations", nil)
	rec := httptest.NewRecorder()
	var tr core.DecisionTrace
	tr.Stages[core.StageDecide] = core.StageTime{Nanos: 1000, Calls: 1}
	if a := testing.AllocsPerRun(100, func() {
		ingest.observe(rec, unsampled, time.Microsecond, time.Millisecond, time.Microsecond, 100)
		user.observe(rec, unsampled, &tr, time.Microsecond, time.Microsecond)
	}); a != 0 || len(rec.Header()) != 0 {
		t.Errorf("unsampled stages: %v allocations, headers %v; want none", a, rec.Header())
	}
}

// TestServerTimingMatchesSpan: a sampled response to each data route
// carries a Server-Timing header whose stages are its server span's, in
// order and to the microsecond; an unsampled response carries none.
func TestServerTimingMatchesSpan(t *testing.T) {
	// Only a sampled traceparent samples a request.
	tracer := telemetry.NewTracer(telemetry.TracerOptions{SampleOneIn: 1 << 40})
	bms, _ := newServer(t, func(c *core.Config) { c.Tracer = tracer })
	srv := httptest.NewServer(NewServer(bms).WithMetrics(bms.Metrics()).WithTracing(tracer, 0, nil).Handler())
	t.Cleanup(srv.Close)
	ask := RequestDTO{ServiceID: "concierge", Purpose: string(policy.PurposeProvidingService),
		Kind: string(sensor.ObsWiFiConnect), Time: testNow}
	user := ask
	user.SubjectID = "mary"
	routes := []struct {
		path string
		body any
	}{
		{"/v1/observations", []ObservationDTO{wifiObs("aa:00:00:00:00:01", 0), wifiObs("aa:00:00:00:00:02", 1)}},
		{"/v1/requests/user", user},
		{"/v1/requests/occupancy", ask},
		{"/v1/query", QueryRequestDTO{SQL: "SELECT user_id FROM observations",
			ServiceID: "concierge", Purpose: string(policy.PurposeProvidingService)}},
	}
	for i, r := range routes {
		body, err := json.Marshal(r.body)
		if err != nil {
			t.Fatal(err)
		}
		send := func(flags string) (*http.Response, string) {
			t.Helper()
			traceID := fmt.Sprintf("%032x", i+1)
			req, err := http.NewRequest(http.MethodPost, srv.URL+r.path, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Traceparent", "00-"+traceID+"-00f067aa0ba902b7-"+flags)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", r.path, resp.StatusCode)
			}
			return resp, traceID
		}
		if resp, _ := send("00"); resp.Header.Get("Server-Timing") != "" {
			t.Errorf("%s: unsampled response has Server-Timing %q", r.path, resp.Header.Get("Server-Timing"))
		}
		resp, traceID := send("01")
		var header []string
		for _, entry := range strings.Split(resp.Header.Get("Server-Timing"), ", ") {
			name, dur, ok := strings.Cut(entry, ";dur=")
			ms, err := strconv.ParseFloat(dur, 64)
			if !ok || err != nil {
				t.Fatalf("%s: Server-Timing entry %q", r.path, entry)
			}
			header = append(header, fmt.Sprintf("stage.%s_us=%d", name, int64(math.Round(ms*1000))))
		}
		id, err := telemetry.ParseTraceID(traceID)
		if err != nil {
			t.Fatal(err)
		}
		var span []string
		for _, s := range tracer.Trace(id) {
			if s.Name != "http POST "+r.path {
				continue
			}
			for _, a := range s.Attrs {
				if strings.HasPrefix(a.Key, "stage.") {
					span = append(span, a.Key+"="+a.Value)
				}
			}
		}
		if len(span) < 3 || strings.Join(header, " ") != strings.Join(span, " ") {
			t.Errorf("%s: Server-Timing stages %v, server span's %v", r.path, header, span)
		}
	}
}
