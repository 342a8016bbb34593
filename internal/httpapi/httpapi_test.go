package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/core"
	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/iota"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/service"
	"github.com/tippers/tippers/internal/spatial"
	"github.com/tippers/tippers/internal/telemetry"
)

var testNow = time.Date(2017, time.June, 7, 14, 0, 0, 0, time.UTC)

// newServer serves the standard test BMS; adjust can change its
// Config (a durable store).
func newServer(t testing.TB, adjust ...func(*core.Config)) (*core.BMS, *Client) {
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
	users.MustAdd(profile.User{
		ID: "bob", Profiles: []profile.Profile{{Group: profile.GroupFaculty}},
		DeviceMACs: []string{"aa:00:00:00:00:02"},
	})

	sensors := sensor.NewRegistry()
	sensors.MustAdd(sensor.MustNew("ap-1", sensor.TypeWiFiAP, "dbh/1/r0"))

	services := service.NewRegistry()
	services.MustRegister(service.Concierge())

	cfg := core.Config{
		Spaces: spaces, Users: users, Sensors: sensors, Services: services,
		DefaultAllow: true,
		Clock:        func() time.Time { return testNow },
	}
	for _, a := range adjust {
		a(&cfg)
	}
	bms, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bms.Close)
	srv := httptest.NewServer(NewServer(bms).Handler())
	t.Cleanup(srv.Close)
	return bms, NewClient(srv.URL, nil)
}

func wifiObs(mac string, minute int) ObservationDTO {
	return ObservationDTO{
		SensorID:  "ap-1",
		Kind:      string(sensor.ObsWiFiConnect),
		DeviceMAC: mac,
		Time:      testNow.Add(time.Duration(minute) * time.Minute),
	}
}

func TestEndToEndOverHTTP(t *testing.T) {
	bms, client := newServer(t)
	ctx := context.Background()

	// Register Policy 2 in-process (admin path).
	if err := bms.RegisterPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
		t.Fatal(err)
	}
	pols, err := client.Policies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(pols) != 1 || pols[0].ID != "policy-2-emergency-location" || pols[0].Retention != "P6M" {
		t.Fatalf("policies = %+v", pols)
	}
	if !pols[0].Override || pols[0].Kind != "collection" {
		t.Errorf("policy DTO = %+v", pols[0])
	}

	// Ingest observations over the wire.
	n, err := client.Ingest(ctx, []ObservationDTO{wifiObs("aa:00:00:00:00:01", 0), wifiObs("aa:00:00:00:00:02", 1)})
	if err != nil || n != 2 {
		t.Fatalf("ingest = %d, %v", n, err)
	}

	// Set a coarse preference via the client (the IoTA path).
	if err := client.SetPreference(policy.CoarseLocationPreference("mary", "concierge")); err != nil {
		t.Fatal(err)
	}
	prefs, err := client.Preferences(ctx, "mary")
	if err != nil || len(prefs) != 1 {
		t.Fatalf("preferences = %+v, %v", prefs, err)
	}
	if prefs[0].Rule.Action != "limit" || prefs[0].Rule.MaxGranularity != "building" {
		t.Errorf("preference DTO = %+v", prefs[0])
	}

	// Request mary's data as concierge: released at building level.
	resp, err := client.RequestUser(ctx, enforce.Request{
		ServiceID: "concierge",
		Purpose:   policy.PurposeProvidingService,
		Kind:      sensor.ObsWiFiConnect,
		SubjectID: "mary",
		Time:      testNow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Decision.Allowed || resp.Decision.Granularity != "building" {
		t.Fatalf("decision = %+v", resp.Decision)
	}
	if len(resp.Observations) != 1 || resp.Observations[0].SpaceID != "dbh" {
		t.Errorf("observations = %+v", resp.Observations)
	}

	// Stats reflect the traffic.
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ingested != 2 || stats.RequestsDecided != 1 {
		t.Errorf("stats = %+v", stats)
	}

	// Remove the preference; a repeat request is exact again.
	if err := client.RemovePreference(ctx, prefs[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := client.RemovePreference(ctx, prefs[0].ID); err == nil {
		t.Error("double delete succeeded")
	}
}

func TestConflictAndNotificationOverHTTP(t *testing.T) {
	bms, client := newServer(t)
	ctx := context.Background()
	if err := bms.RegisterPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
		t.Fatal(err)
	}
	for _, p := range policy.Preference2NoLocation("mary") {
		if err := client.SetPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	conflicts, err := client.Conflicts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(conflicts) == 0 || !conflicts[0].OverrideApplied {
		t.Fatalf("conflicts = %+v", conflicts)
	}
	notifs, err := client.Notifications(ctx, "mary")
	if err != nil || len(notifs) == 0 {
		t.Fatalf("notifications = %+v, %v", notifs, err)
	}
	if !strings.Contains(notifs[0].Message, "policy-2-emergency-location") {
		t.Errorf("message = %q", notifs[0].Message)
	}
	// Drained.
	notifs, err = client.Notifications(ctx, "mary")
	if err != nil || len(notifs) != 0 {
		t.Errorf("inbox not drained: %+v", notifs)
	}
}

// TestConflictsOrderOverHTTP pins /v1/conflicts' order — policy, then
// preference, then other preference — whatever order the rules arrived
// in: the BMS keeps conflicts in a map and sorts on the read side.
func TestConflictsOrderOverHTTP(t *testing.T) {
	bms, client := newServer(t)
	for _, p := range []policy.Preference{
		{ID: "z", UserID: "mary", Rule: policy.Rule{Action: policy.ActionDeny}},
		{ID: "m", UserID: "bob", Rule: policy.Rule{Action: policy.ActionDeny}},
		{ID: "a", UserID: "mary", Rule: policy.Rule{Action: policy.ActionLimit, MinAggregationK: 3}},
	} {
		if err := client.SetPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"pol-b", "pol-a"} {
		if err := bms.RegisterPolicy(policy.BuildingPolicy{ID: id, Kind: policy.KindCollection}); err != nil {
			t.Fatal(err)
		}
	}
	conflicts, err := client.Conflicts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range conflicts {
		got = append(got, c.PolicyID+"|"+c.PreferenceID+"|"+c.OtherPreferenceID)
	}
	want := "|a|z pol-a|a| pol-a|m| pol-a|z| pol-b|a| pol-b|m| pol-b|z|"
	if strings.Join(got, " ") != want {
		t.Fatalf("/v1/conflicts order\n got  %s\n want %s", strings.Join(got, " "), want)
	}
}

func TestOccupancyOverHTTP(t *testing.T) {
	_, client := newServer(t)
	ctx := context.Background()
	if _, err := client.Ingest(ctx, []ObservationDTO{wifiObs("aa:00:00:00:00:01", 0), wifiObs("aa:00:00:00:00:02", 1)}); err != nil {
		t.Fatal(err)
	}
	resp, err := client.RequestOccupancy(ctx, enforce.Request{
		ServiceID: "concierge",
		Purpose:   policy.PurposeProvidingService,
		Kind:      sensor.ObsWiFiConnect,
		SpaceID:   "dbh",
		Time:      testNow,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Aggregates) != 1 || resp.Aggregates[0].Count != 2 {
		t.Errorf("aggregates = %+v", resp.Aggregates)
	}
	if resp.SubjectsConsidered != 2 || resp.SubjectsReleased != 2 {
		t.Errorf("coverage = %+v", resp)
	}
}

func TestErrorPaths(t *testing.T) {
	_, client := newServer(t)
	ctx := context.Background()
	// Invalid preference: unknown user.
	err := client.SetPreference(policy.Preference{
		ID: "x", UserID: "ghost", Rule: policy.Rule{Action: policy.ActionDeny},
	})
	if err == nil || !strings.Contains(err.Error(), "unknown user") {
		t.Errorf("unknown user error = %v", err)
	}
	// Invalid enum on the wire.
	if err := client.do(ctx, "PUT", "/v1/preferences", PreferenceDTO{ID: "x", UserID: "mary", Rule: RuleDTO{Action: "shrug"}}, nil); err == nil {
		t.Error("bad action accepted")
	}
	// Bad ingest: unregistered sensor.
	if _, err := client.Ingest(ctx, []ObservationDTO{{SensorID: "ghost", Kind: "wifi_access_point", Time: testNow}}); err == nil {
		t.Error("ghost sensor ingest accepted")
	}
	// Subject-less user request.
	if _, err := client.RequestUser(ctx, enforce.Request{Kind: sensor.ObsWiFiConnect}); err == nil {
		t.Error("subject-less request accepted")
	}
	// Missing user params.
	if _, err := client.Preferences(ctx, ""); err == nil {
		t.Error("missing user param accepted")
	}
	if _, err := client.Notifications(ctx, ""); err == nil {
		t.Error("missing user param accepted")
	}
	// Bad k.
	if err := client.do(ctx, "POST", "/v1/requests/occupancy?k=zero", RequestToDTO(enforce.Request{Kind: "x", Purpose: "p"}), nil); err == nil {
		t.Error("bad k accepted")
	}
	// Malformed JSON body.
	if err := client.do(ctx, "PUT", "/v1/preferences", "not a preference", nil); err == nil {
		t.Error("malformed body accepted")
	}
}

// TestClientIsPreferenceSink verifies the client satisfies
// iota.PreferenceSink, wiring assistant-to-remote-building
// configuration.
func TestClientIsPreferenceSink(t *testing.T) {
	var _ iota.PreferenceSink = (*Client)(nil)

	_, client := newServer(t)
	a, err := iota.New(iota.Config{
		UserID: "mary",
		Sink:   client,
		Clock:  func() time.Time { return testNow },
	})
	if err != nil {
		t.Fatal(err)
	}
	res := policy.Figure2Document().Resources[0]
	res.Purpose.ServiceID = "concierge"
	// Train the model to object, then auto-configure through HTTP.
	for i := 0; i < 20; i++ {
		a.Model().Learn(iota.FeaturesOf(res), true)
	}
	g, ok, err := a.AutoConfigure(res, 0.5)
	if err != nil || !ok || g != policy.GranNone {
		t.Fatalf("auto-configure over HTTP = %v, %v, %v", g, ok, err)
	}
	ctx := context.Background()
	prefs, err := client.Preferences(ctx, "mary")
	if err != nil || len(prefs) != 1 {
		t.Fatalf("remote prefs = %+v, %v", prefs, err)
	}
	if prefs[0].Rule.Action != "deny" {
		t.Errorf("remote pref = %+v", prefs[0])
	}
}

func TestAuditOverHTTP(t *testing.T) {
	bms, client := newServer(t)
	ctx := context.Background()
	if err := bms.RegisterPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Ingest(ctx, []ObservationDTO{wifiObs("aa:00:00:00:00:01", 0)}); err != nil {
		t.Fatal(err)
	}
	if err := client.SetPreference(policy.CoarseLocationPreference("mary", "concierge")); err != nil {
		t.Fatal(err)
	}
	report, err := client.Audit(ctx, "mary")
	if err != nil {
		t.Fatal(err)
	}
	if report.UserID != "mary" || report.Preferences != 1 {
		t.Errorf("report = %+v", report)
	}
	if len(report.Entries) == 0 {
		t.Fatal("no entries")
	}
	found := false
	for _, e := range report.Entries {
		if e.ServiceID == "concierge" && e.Kind == "wifi_access_point" {
			found = true
			if !e.Allowed || e.Granularity != "building" || e.StoredObservations != 1 {
				t.Errorf("concierge entry = %+v", e)
			}
		}
	}
	if !found {
		t.Errorf("concierge wifi entry missing: %+v", report.Entries)
	}
	if _, err := client.Audit(ctx, "ghost"); err == nil {
		t.Error("unknown user audited")
	}
	if _, err := client.Audit(ctx, ""); err == nil {
		t.Error("empty user accepted")
	}
}

func TestForgetUserOverHTTP(t *testing.T) {
	_, client := newServer(t)
	ctx := context.Background()
	if _, err := client.Ingest(ctx, []ObservationDTO{wifiObs("aa:00:00:00:00:01", 0), wifiObs("aa:00:00:00:00:01", 1)}); err != nil {
		t.Fatal(err)
	}
	deleted, retained, err := client.ForgetUser(ctx, "mary")
	if err != nil || deleted != 2 || retained != 0 {
		t.Fatalf("ForgetUser = (%d, %d), %v", deleted, retained, err)
	}
	if _, _, err := client.ForgetUser(ctx, "ghost"); err == nil {
		t.Error("unknown user forgotten over HTTP")
	}
}

// TestForgetUserDropsInboxOverHTTP: after DELETE /v1/users/{id}/data
// the override notification the subject was owed is gone from GET
// /v1/notifications.
func TestForgetUserDropsInboxOverHTTP(t *testing.T) {
	bms, client := newServer(t)
	ctx := context.Background()
	if err := bms.RegisterPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
		t.Fatal(err)
	}
	for _, p := range policy.Preference2NoLocation("mary") {
		if err := client.SetPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := client.ForgetUser(ctx, "mary"); err != nil {
		t.Fatal(err)
	}
	if got, err := client.Notifications(ctx, "mary"); err != nil || len(got) != 0 {
		t.Fatalf("notifications after ForgetUser = %+v, %v; want none", got, err)
	}
}

// TestForgetUserDropsDecisionTraces: after ForgetUser, no surface over
// the decision-trace ring names the subject — TracesForSubject,
// /v1/decisions?user=, /v1/audit's recent traces and the SQL audit
// table — while a bystander's traces stay.
func TestForgetUserDropsDecisionTraces(t *testing.T) {
	bms, client := newServer(t)
	ctx := context.Background()
	batch := []ObservationDTO{wifiObs("aa:00:00:00:00:02", 0)}
	for i := 0; i < 3; i++ {
		batch = append(batch, wifiObs("aa:00:00:00:00:01", i))
	}
	if _, err := client.Ingest(ctx, batch); err != nil {
		t.Fatal(err)
	}
	for _, user := range []string{"mary", "bob", "mary"} {
		resp, err := client.RequestUser(ctx, enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
			Kind: sensor.ObsWiFiConnect, SubjectID: user, Time: testNow})
		if err != nil || len(resp.Observations) == 0 {
			t.Fatalf("%s read: %d rows, %v", user, len(resp.Observations), err)
		}
	}
	surfaces := func(user string) map[string]int {
		t.Helper()
		var decisions []DecisionTraceDTO
		if err := client.do(ctx, http.MethodGet, "/v1/decisions?user="+user, nil, &decisions); err != nil {
			t.Fatal(err)
		}
		audit, err := client.Audit(ctx, user)
		if err != nil {
			t.Fatal(err)
		}
		res, err := client.Query(ctx, QueryRequestDTO{SQL: "SELECT id, subject_id FROM audit",
			ServiceID: "concierge", Purpose: string(policy.PurposeProvidingService), UserID: user})
		if err != nil {
			t.Fatal(err)
		}
		return map[string]int{
			"TracesForSubject": len(bms.TracesForSubject(user, 0)),
			"/v1/decisions":    len(decisions),
			"/v1/audit":        len(audit.RecentTraces),
			"SQL audit":        len(res.Rows),
		}
	}
	for surface, n := range surfaces("mary") {
		if n < 2 {
			t.Fatalf("before ForgetUser, %s lists %d of mary's traces, want 2 or more", surface, n)
		}
	}
	if _, _, err := client.ForgetUser(ctx, "mary"); err != nil {
		t.Fatal(err)
	}
	for surface, n := range surfaces("mary") {
		if n != 0 {
			t.Errorf("after ForgetUser, %s still lists %d of mary's traces", surface, n)
		}
	}
	for surface, n := range surfaces("bob") {
		if n == 0 {
			t.Errorf("ForgetUser(mary) dropped bob's traces from %s", surface)
		}
	}
}

// TestForgetUserLeavesNoSubjectInTraces: with every request sampled, a
// read of mary's rows followed by ForgetUser("mary") leaves neither her
// ID nor her device MAC in any span /v1/traces serves.
func TestForgetUserLeavesNoSubjectInTraces(t *testing.T) {
	tracer := telemetry.NewTracer(telemetry.TracerOptions{SampleOneIn: 1})
	bms, _ := newServer(t, func(c *core.Config) { c.Tracer = tracer })
	srv := httptest.NewServer(NewServer(bms).WithTracing(tracer, 0, nil).Handler())
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, nil)
	ctx := context.Background()
	if _, err := client.Ingest(ctx, []ObservationDTO{wifiObs("aa:00:00:00:00:01", 0)}); err != nil {
		t.Fatal(err)
	}
	resp, err := client.RequestUser(ctx, enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		Kind: sensor.ObsWiFiConnect, SubjectID: "mary", Time: testNow})
	if err != nil || len(resp.Observations) != 1 {
		t.Fatalf("mary's read: %d rows, %v", len(resp.Observations), err)
	}
	if _, _, err := bms.ForgetUser("mary"); err != nil {
		t.Fatal(err)
	}
	var sums []telemetry.TraceSummary
	if err := client.do(ctx, http.MethodGet, "/v1/traces?n=1000", nil, &sums); err != nil {
		t.Fatal(err)
	}
	read := false
	for _, sum := range sums {
		var spans json.RawMessage
		if err := client.do(ctx, http.MethodGet, "/v1/traces/"+sum.TraceID, nil, &spans); err != nil {
			t.Fatal(err)
		}
		read = read || strings.Contains(string(spans), `"name":"bms.request_user"`)
		for _, id := range []string{"mary", "aa:00:00:00:00:01"} {
			if strings.Contains(string(spans), id) {
				t.Errorf("trace %s (%s) still names %s: %s", sum.TraceID, sum.Root, id, spans)
			}
		}
	}
	if !read {
		t.Fatalf("no bms.request_user span among the traces %+v: the read was not sampled", sums)
	}
}

func TestDTORoundTrips(t *testing.T) {
	pref := policy.Preference{
		ID: "p1", UserID: "mary", Name: "n",
		Scope: policy.Scope{
			SpaceID:    "dbh/1",
			SensorType: sensor.TypeWiFiAP,
			ObsKind:    sensor.ObsWiFiConnect,
			Purposes:   []policy.Purpose{policy.PurposeProvidingService},
			ServiceID:  "concierge",
			Window:     policy.AfterHours,
		},
		Rule:   policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranFloor, NoiseEpsilon: 0.5, MinAggregationK: 2},
		Source: "explicit",
	}
	got, err := PreferenceFromDTO(PreferenceToDTO(pref))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", pref) {
		t.Errorf("preference round trip:\n got %+v\nwant %+v", got, pref)
	}

	req := enforce.Request{
		ServiceID: "s", Purpose: policy.PurposeSecurity, Kind: sensor.ObsBLESighting,
		SubjectID: "u", SpaceID: "dbh", Granularity: policy.GranRoom,
		Time: testNow, From: testNow.Add(-time.Hour), To: testNow,
	}
	gotReq, err := RequestFromDTO(RequestToDTO(req))
	if err != nil {
		t.Fatal(err)
	}
	if gotReq != req {
		t.Errorf("request round trip:\n got %+v\nwant %+v", gotReq, req)
	}

	if _, err := RequestFromDTO(RequestDTO{Granularity: "street"}); err == nil {
		t.Error("bad granularity accepted")
	}
	if _, err := PreferenceFromDTO(PreferenceDTO{Scope: ScopeDTO{SensorType: "Quantum"}, Rule: RuleDTO{Action: "allow"}}); err == nil {
		t.Error("bad sensor type accepted")
	}
	if _, err := PreferenceFromDTO(PreferenceDTO{Rule: RuleDTO{Action: "allow", MaxGranularity: "street"}}); err == nil {
		t.Error("bad rule granularity accepted")
	}
}

// TestRuleLogFailureIs500: on a durable node whose rule log can no
// longer be written (here: the node was closed), PUT and DELETE
// /v1/preferences and DELETE /v1/users/{id}/data answer 500 — the
// request was fine, the node's disk was not — and the preferences the
// node lists do not change.
func TestRuleLogFailureIs500(t *testing.T) {
	store, err := obstore.OpenDurable(obstore.DurableConfig{Dir: t.TempDir(),
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	bms, client := newServer(t, func(c *core.Config) { c.Store = store })
	ctx := context.Background()
	kept := policy.Preference2NoLocation("bob")[0]
	if err := client.SetPreference(kept); err != nil {
		t.Fatal(err)
	}
	bms.Close()
	is500 := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "500") {
			t.Errorf("%s with the rule log closed: %v, want a 500", what, err)
		}
	}
	is500("PUT", client.SetPreference(policy.Preference2NoLocation("mary")[0]))
	is500("DELETE", client.RemovePreference(ctx, kept.ID))
	_, _, err = client.ForgetUser(ctx, "bob")
	is500("forget", err)
	for user, want := range map[string]int{"mary": 0, "bob": 1} {
		if got, err := client.Preferences(ctx, user); err != nil || len(got) != want {
			t.Errorf("%s's preferences after refused writes: %d (%v), want %d", user, len(got), err, want)
		}
	}
}
