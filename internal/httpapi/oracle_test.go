package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/core"
	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/query"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/service"
	"github.com/tippers/tippers/internal/sim"
)

// The response path the appenders replaced, kept as their reference:
// core.Response and query results converted to DTOs and encoded by
// encoding/json.

func decisionToDTO(d enforce.Decision) DecisionDTO {
	out := DecisionDTO{
		Allowed:            d.Allowed,
		DenyReason:         d.DenyReason,
		MatchedPreferences: d.MatchedPreferences,
		MatchedDefaults:    d.MatchedDefaults,
		MatchedPolicy:      d.OverridePolicyID,
		Overridden:         d.Overridden,
		CacheHit:           d.FromCache,
	}
	if d.Granularity.Valid() {
		out.Granularity = d.Granularity.String()
	}
	return out
}

func responseToDTO(r core.Response) ResponseDTO {
	out := ResponseDTO{
		Decision:           decisionToDTO(r.Decision),
		SubjectsConsidered: r.SubjectsConsidered,
		SubjectsReleased:   r.SubjectsReleased,
	}
	for _, o := range r.Observations {
		out.Observations = append(out.Observations, observationToDTO(o))
	}
	for _, a := range r.Aggregates {
		out.Aggregates = append(out.Aggregates, aggregateToDTO(a))
	}
	if r.Trace.ID != 0 {
		t := traceToDTO(r.Trace)
		out.Trace = &t
	}
	return out
}

func aggregateToDTO(a privacy.AggregateCount) AggregateDTO {
	return AggregateDTO{Key: a.Key, Count: a.Count}
}

func queryStatsToDTO(s query.Stats) QueryStatsDTO {
	return QueryStatsDTO{
		ScannedRows:      s.ScannedRows,
		DeniedRows:       s.DeniedRows,
		ExcludedRows:     s.ExcludedRows,
		ReleasedRows:     s.ReleasedRows,
		Subjects:         s.Subjects,
		Decisions:        s.Decisions,
		EffectiveK:       s.EffectiveK,
		SuppressedGroups: s.SuppressedGroups,
	}
}

func queryResultToDTO(res *query.Result, tr *core.DecisionTrace) QueryResultDTO {
	out := QueryResultDTO{
		Columns: res.Columns,
		Rows:    make([][]any, 0, len(res.Rows)),
		Stats:   queryStatsToDTO(res.Stats),
	}
	for _, row := range res.Rows {
		cells := make([]any, len(row))
		for i, v := range row {
			cells[i] = v.JSON()
		}
		out.Rows = append(out.Rows, cells)
	}
	if tr != nil {
		t := traceToDTO(*tr)
		out.Trace = &t
	}
	return out
}

// encodeOracle is the body the reference path writes for v.
func encodeOracle(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newPaperNode builds a small simulated building under the paper's
// Policies 1–4 with one simulated day ingested; two calls build twins
// that decide, degrade and noise alike.
func newPaperNode(t *testing.T) (*core.BMS, *sim.Building, []*profile.User) {
	t.Helper()
	building, err := sim.SmallDBH().Build()
	if err != nil {
		t.Fatal(err)
	}
	users := sim.GeneratePopulation(building, 40, sim.CampusMix(), 3)
	services := service.NewRegistry()
	services.MustRegister(service.Concierge())
	services.MustRegister(service.SmartMeeting())
	services.MustRegister(service.Service{
		ID: "bms-emergency", Name: "BMS Emergency Response", Developer: service.DeveloperBuilding,
		Declares: []service.DataRequest{{ObsKind: sensor.ObsWiFiConnect, Purpose: policy.PurposeEmergencyResponse, Granularity: policy.GranExact}},
	})
	day := time.Date(2017, time.June, 7, 0, 0, 0, 0, time.UTC)
	bms, err := core.New(core.Config{
		Spaces: building.Spaces, Users: users, Sensors: building.Sensors, Services: services,
		DefaultAllow: true, PseudonymKey: []byte("paper-node-key"),
		Clock: func() time.Time { return day.Add(20 * time.Hour) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bms.Close)
	pols := []policy.BuildingPolicy{
		policy.Policy1Comfort(building.Spec.ID, 70),
		policy.Policy2EmergencyLocation(building.Spec.ID),
		policy.Policy4EventDisclosure(building.Classrooms[0], "event-participants"),
	}
	pols = append(pols, policy.Policy3MeetingRoomAccess(building.Offices[0])...)
	for _, p := range pols {
		if err := bms.RegisterPolicy(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range sim.SimulateDay(building, users, sim.DayConfig{Date: day, Seed: 3}).Observations {
		if err := bms.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	return bms, building, users.All()
}

var (
	totalMicros = regexp.MustCompile(`"total_us":\d+`)
	stageMicros = regexp.MustCompile(`"duration_us":\d+`)
)

// normalizeTimings zeroes what differs between two runs of one request.
func normalizeTimings(b []byte) []byte {
	b = totalMicros.ReplaceAll(b, []byte(`"total_us":0`))
	return stageMicros.ReplaceAll(b, []byte(`"duration_us":0`))
}

// TestResponsesMatchOracle drives twin nodes through the same requests,
// one through the handlers and one through the reference path, and
// requires every /v1/requests/user, /v1/requests/occupancy and
// /v1/query body to be byte-equal once stage timings are zeroed: denied,
// overridden, coarsened, noised, k-floored and empty answers, payloads
// that need escaping, and grouped, row-level, audit and empty query
// results.
func TestResponsesMatchOracle(t *testing.T) {
	served, building, users := newPaperNode(t)
	ref, _, _ := newPaperNode(t)
	h := NewServer(served).Handler()
	ctx := context.Background()
	u := func(i int) string { return users[i].ID }

	// Rule state: a subject who shares no location (overridden by Policy
	// 2 in an emergency), one coarsened, one noised, one behind a k floor.
	prefs := append(policy.Preference2NoLocation(u(0)),
		policy.CoarseLocationPreference(u(1), "concierge"),
		policy.Preference{ID: "noised-" + u(2), UserID: u(2), Source: "explicit", Scope: policy.Scope{ServiceID: "concierge"},
			Rule: policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranFloor, NoiseEpsilon: 0.5}},
		policy.Preference{ID: "k-floor-" + u(3), UserID: u(3), Source: "explicit", Scope: policy.Scope{ServiceID: "concierge"},
			Rule: policy.Rule{Action: policy.ActionLimit, MinAggregationK: 3}},
	)
	ap := building.Sensors.ByType(sensor.TypeWiFiAP)[0]
	odd := sensor.Observation{SensorID: ap.ID, Kind: sensor.ObsWiFiConnect, DeviceMAC: users[4].DeviceMACs[0],
		Time:    time.Date(2017, time.June, 7, 12, 0, 0, 123456789, time.FixedZone("PDT", -7*3600)),
		Payload: map[string]string{"ssid": `<café & "bar">`, "note": "line\u2028break", "a": "plain", "bad": "\xff\x01"}}
	for _, b := range []*core.BMS{served, ref} {
		for _, p := range prefs {
			if err := b.SetPreference(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Ingest(odd); err != nil {
			t.Fatal(err)
		}
		// Seal the closed hours, so queries read segments as well as the
		// hot window.
		if _, err := b.Columnar().CompactOnce(); err != nil {
			t.Fatal(err)
		}
	}

	concierge := func(subject string) enforce.Request {
		return enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService, Kind: sensor.ObsWiFiConnect, SubjectID: subject}
	}
	emergency := enforce.Request{ServiceID: "bms-emergency", Purpose: policy.PurposeEmergencyResponse, Kind: sensor.ObsWiFiConnect, SubjectID: u(0)}
	empty := concierge(u(5))
	empty.From, empty.To = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2016, 1, 2, 0, 0, 0, 0, time.UTC)
	userReqs := []enforce.Request{concierge(u(0)), emergency, concierge(u(1)), concierge(u(2)), concierge(u(3)), concierge(u(4)), empty, concierge(u(6))}
	for _, s := range []string{u(4), u(6), u(7)} { // every kind a subject has
		r := concierge(s)
		r.Kind = ""
		userReqs = append(userReqs, r)
	}
	userReqs = append(userReqs, concierge(u(1))) // a decision-cache hit

	type occReq struct {
		req enforce.Request
		k   int
	}
	occ := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService, Kind: sensor.ObsWiFiConnect, SpaceID: building.Spec.ID}
	occReqs := []occReq{{occ, 1}, {occ, 2}, {occ, 1}, {occ, 1000}}

	queryer := QueryRequestDTO{ServiceID: "concierge", Purpose: string(policy.PurposeProvidingService)}
	queries := []QueryRequestDTO{}
	for _, sql := range []string{
		"SELECT user_id, COUNT(*) AS n FROM observations GROUP BY user_id",
		"SELECT * FROM observations LIMIT 60",
		"SELECT * FROM observations WHERE user_id = '" + u(2) + "'",
		"SELECT sensor_id, AVG(value) AS v FROM observations GROUP BY sensor_id",
		"SELECT * FROM occupancy",
		"SELECT * FROM observations WHERE user_id = 'nobody'",
	} {
		q := queryer
		q.SQL = sql
		queries = append(queries, q)
	}
	grouped := queryer
	grouped.SQL, grouped.K = "SELECT space_id, COUNT(*) AS n FROM observations GROUP BY space_id", 4
	audit := QueryRequestDTO{SQL: "SELECT * FROM audit", UserID: u(0)}
	queries = append(queries, grouped, audit)

	serve := func(path string, body any) []byte {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s %s: status %d, Content-Type %q: %s", path, raw, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
		}
		return rec.Body.Bytes()
	}
	var all bytes.Buffer
	check := func(what string, got, want []byte) {
		t.Helper()
		got, want = normalizeTimings(got), normalizeTimings(want)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: body differs from the reference path\n got  %s\n want %s", what, got, want)
		}
		all.Write(got)
	}

	for i, r := range userReqs {
		got := serve("/v1/requests/user", RequestToDTO(r))
		resp, err := ref.RequestUserCtx(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("user request %d", i), got, encodeOracle(t, responseToDTO(resp)))
	}
	for i, o := range occReqs {
		got := serve(fmt.Sprintf("/v1/requests/occupancy?k=%d", o.k), RequestToDTO(o.req))
		resp, err := ref.RequestOccupancyCtx(ctx, o.req, o.k)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("occupancy request %d", i), got, encodeOracle(t, responseToDTO(resp)))
	}
	for _, q := range queries {
		got := serve("/v1/query", q)
		requester, err := requesterFromDTO(q)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ref.Query(ctx, requester, q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		check(q.SQL, got, encodeOracle(t, queryResultToDTO(resp.Result, &resp.Trace)))
	}

	// The cases above must have produced what they are there for.
	for _, want := range []string{
		`"allowed":false`, `"overridden":[`, `"matched_policy":"policy-2-emergency-location"`,
		`"granularity":"building"`, `"granularity":"floor"`, `"deny_reason":"subject requires aggregation`,
		`"deny_reason":"no space reached the k=1000`, `"aggregates":[{`, `"payload":{"a":"plain"`,
		`"bad":"\ufffd\u0001","note":"line\u2028break","ssid":"\u003ccafé \u0026 \"bar\"\u003e"}`,
		`"cache_hit":true`, `"rows":[]`,
		`"value":`, `"time":"2017-06-07T19:00:00.123456789Z"`,
	} {
		if !bytes.Contains(all.Bytes(), []byte(want)) {
			t.Errorf("no response carried %s", want)
		}
	}
	if n := strings.Count(all.String(), `"observations":[{`); n < 5 {
		t.Errorf("only %d responses released rows", n)
	}
}
