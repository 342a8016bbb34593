package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/query"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/telemetry"
)

func conciergeRequester() query.Requester {
	return query.Requester{ServiceID: "concierge", Purpose: policy.PurposeProvidingService}
}

func ingestQueryFixture(t *testing.T, f *fixture) {
	t.Helper()
	// mary on ap-2 (dbh/2/r0) three times, bob on ap-1 (dbh/1/r0) twice.
	for i := 0; i < 3; i++ {
		if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:02", "ap-1", i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueryEndToEnd(t *testing.T) {
	f := newFixture(t)
	ingestQueryFixture(t, f)

	resp, err := f.bms.Query(context.Background(), conciergeRequester(),
		"SELECT sensor_id, COUNT(*) AS n FROM observations GROUP BY sensor_id ORDER BY sensor_id")
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Result
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str != "ap-1" || res.Rows[0][1].Num() != 2 {
		t.Errorf("ap-1 row = %v", res.Rows[0])
	}
	if res.Rows[1][0].Str != "ap-2" || res.Rows[1][1].Num() != 3 {
		t.Errorf("ap-2 row = %v", res.Rows[1])
	}
	if res.Stats.ScannedRows != 5 || res.Stats.ReleasedRows != 5 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if resp.Trace.ID == 0 || resp.Trace.Path != "query" || !resp.Trace.Allowed {
		t.Fatalf("trace = %+v", resp.Trace)
	}
	if ran := ran(&resp.Trace.Stages); !slices.Equal(ran, []Stage{StageParse, StagePlan, StageExecute}) {
		t.Errorf("stages = %v", ran)
	}
	// The trace is retained in the ring.
	recent := f.bms.RecentTraces(1)
	if len(recent) != 1 || recent[0].Path != "query" {
		t.Errorf("retained trace = %+v", recent)
	}
}

// TestQueryPreferenceShrinksResults is the E11 scenario: the same
// query returns less once a subject opts out mid-session.
func TestQueryPreferenceShrinksResults(t *testing.T) {
	f := newFixture(t)
	ingestQueryFixture(t, f)

	const sql = "SELECT user_id, space_id FROM observations WHERE kind = 'wifi_access_point'"
	before, err := f.bms.Query(context.Background(), conciergeRequester(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Result.Rows) != 5 {
		t.Fatalf("rows before = %d", len(before.Result.Rows))
	}

	for _, p := range policy.Preference2NoLocation("bob") {
		if err := f.bms.SetPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	after, err := f.bms.Query(context.Background(), conciergeRequester(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Result.Rows) != 3 {
		t.Fatalf("rows after opt-out = %d, want 3", len(after.Result.Rows))
	}
	for _, row := range after.Result.Rows {
		if row[0].Str == "bob" {
			t.Fatalf("opted-out subject released: %v", row)
		}
	}
	if after.Result.Stats.DeniedRows != 2 {
		t.Errorf("DeniedRows = %d, want 2", after.Result.Stats.DeniedRows)
	}

	// The privacy outcomes are on /metrics too, summed over statements:
	// a third, grouped one whose only surviving group (mary alone)
	// falls short of k=2.
	k2 := conciergeRequester()
	k2.MinK = 2
	if _, err := f.bms.Query(context.Background(), k2, "SELECT space_id, COUNT(*) AS n FROM observations GROUP BY space_id"); err != nil {
		t.Fatal(err)
	}
	for outcome, want := range map[string]float64{"scanned": 15, "denied": 4, "excluded": 0, "released": 11} {
		if got, ok := f.bms.Metrics().LookupValue("tippers_query_rows_total", telemetry.Labels{"outcome": outcome}); !ok || got != want {
			t.Errorf("tippers_query_rows_total{outcome=%q} = %v (registered %v), want %v", outcome, got, ok, want)
		}
	}
	if got, _ := f.bms.Metrics().LookupValue("tippers_query_groups_suppressed_total", nil); got != 1 {
		t.Errorf("tippers_query_groups_suppressed_total = %v, want 1", got)
	}
}

func TestQueryPushdownUsesStoreFilter(t *testing.T) {
	f := newFixture(t)
	ingestQueryFixture(t, f)

	// A sensor-scoped query must scan only that sensor's rows: the
	// stats' scanned count equals the sensor's rows, not the store's.
	resp, err := f.bms.Query(context.Background(), conciergeRequester(),
		"SELECT seq FROM observations WHERE sensor_id = 'ap-1'")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Stats.ScannedRows != 2 {
		t.Errorf("ScannedRows = %d, want 2 (sensor filter pushed down)", resp.Result.Stats.ScannedRows)
	}

	// Space predicates expand to the spatial subtree before the scan.
	resp, err = f.bms.Query(context.Background(), conciergeRequester(),
		"SELECT seq FROM observations WHERE space_id = 'dbh/2'")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Stats.ScannedRows != 3 {
		t.Errorf("ScannedRows = %d, want 3 (dbh/2 subtree)", resp.Result.Stats.ScannedRows)
	}
}

func TestQueryOccupancyMatchesRequestOccupancy(t *testing.T) {
	f := newFixture(t)
	ingestQueryFixture(t, f)

	resp, err := f.bms.Query(context.Background(), conciergeRequester(),
		"SELECT * FROM occupancy ORDER BY space_id")
	if err != nil {
		t.Fatal(err)
	}
	occ, err := f.bms.RequestOccupancy(enforce.Request{
		ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		Kind: sensor.ObsWiFiConnect, Time: f.now,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Rows) != len(occ.Aggregates) {
		t.Fatalf("query occupancy %v != request occupancy %v", resp.Result.Rows, occ.Aggregates)
	}
	for i, a := range occ.Aggregates {
		row := resp.Result.Rows[i]
		if row[0].Str != a.Key || int(row[1].Num()) != a.Count {
			t.Errorf("row %d = %v, want %+v", i, row, a)
		}
	}
}

func TestQueryAuditScopedToRequester(t *testing.T) {
	f := newFixture(t)
	ingestQueryFixture(t, f)

	// Generate decisions about mary and bob.
	for _, subject := range []string{"mary", "bob", "mary"} {
		if _, err := f.bms.RequestUser(enforce.Request{
			ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
			Kind: sensor.ObsWiFiConnect, SubjectID: subject, Time: f.now,
		}); err != nil {
			t.Fatal(err)
		}
	}

	r := conciergeRequester()
	r.UserID = "mary"
	resp, err := f.bms.Query(context.Background(), r,
		"SELECT subject_id, path, allowed FROM audit")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Rows) != 2 {
		t.Fatalf("rows = %v, want mary's 2 decisions", resp.Result.Rows)
	}
	for _, row := range resp.Result.Rows {
		if row[0].Str != "mary" {
			t.Fatalf("foreign subject in audit view: %v", row)
		}
	}

	// Without a user identity the audit table is rejected, and the
	// rejection itself lands in the trace ring.
	r.UserID = ""
	_, err = f.bms.Query(context.Background(), r, "SELECT * FROM audit")
	var ee *query.EnforceError
	if !errors.As(err, &ee) {
		t.Fatalf("want *query.EnforceError, got %v", err)
	}
	recent := f.bms.RecentTraces(1)
	if len(recent) != 1 || recent[0].Allowed || recent[0].Path != "query" {
		t.Errorf("rejection trace = %+v", recent)
	}
}

// TestAuditTimeRendersUTC: the audit table's time column is the
// decision's instant in UTC, whatever zone the node's clock reads in:
// a cell keeps an instant, not a zone.
func TestAuditTimeRendersUTC(t *testing.T) {
	at := testNow.In(time.FixedZone("x", 7200))
	f := newFixtureWith(t, func(c *Config) { c.Clock = func() time.Time { return at } })
	for range 2 {
		if _, err := f.bms.RequestUser(enforce.Request{
			ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
			Kind: sensor.ObsWiFiConnect, SubjectID: "mary", Time: f.now,
		}); err != nil {
			t.Fatal(err)
		}
	}
	r := conciergeRequester()
	r.UserID = "mary"
	resp, err := f.bms.Query(context.Background(), r, "SELECT time FROM audit")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Rows) != 2 {
		t.Fatalf("rows = %v, want mary's 2 decisions", resp.Result.Rows)
	}
	want := at.UTC().Format(time.RFC3339Nano)
	for _, row := range resp.Result.Rows {
		if !row[0].Time().Equal(at) || row[0].JSON() != want || !strings.HasSuffix(row[0].Render(), "Z") {
			t.Errorf("audit time %v renders %q, want the instant %s", row[0].JSON(), row[0].Render(), want)
		}
	}
}

func TestQueryTypedErrors(t *testing.T) {
	f := newFixture(t)
	var pe *query.ParseError
	if _, err := f.bms.Query(context.Background(), conciergeRequester(), "SELEC *"); !errors.As(err, &pe) {
		t.Errorf("want *query.ParseError, got %v", err)
	}
	var le *query.PlanError
	if _, err := f.bms.Query(context.Background(), conciergeRequester(), "SELECT nope FROM observations"); !errors.As(err, &le) {
		t.Errorf("want *query.PlanError, got %v", err)
	}
}

// TestQueryPlanCacheObservable: a statement whose shape the node has
// compiled before is bound to the shape's template, and both the
// query's trace and tippers_query_plan_cache_total say so.
func TestQueryPlanCacheObservable(t *testing.T) {
	f := newFixture(t)
	ingestQueryFixture(t, f)
	count := func(result string) float64 {
		v, _ := f.bms.Metrics().LookupValue("tippers_query_plan_cache_total", telemetry.Labels{"result": result})
		return v
	}
	for i, c := range []struct {
		sql          string
		cached       bool
		hits, misses float64
	}{
		{"SELECT seq FROM observations WHERE user_id = 'mary'", false, 0, 1},
		{"SELECT seq FROM observations WHERE user_id = 'bob'", true, 1, 1},
		{"select seq from observations where user_id = 'mary';", false, 1, 2},
		{"SELECT seq FROM observations WHERE user_id = 5", false, 1, 3},
	} {
		resp, err := f.bms.Query(context.Background(), conciergeRequester(), c.sql)
		if i < 3 && err != nil {
			t.Fatal(err)
		}
		if resp.Trace.PlanCached != c.cached || count("hit") != c.hits || count("miss") != c.misses {
			t.Errorf("%q: trace plan_cached %v, %v hits and %v misses; want %v, %v and %v",
				c.sql, resp.Trace.PlanCached, count("hit"), count("miss"), c.cached, c.hits, c.misses)
		}
		if err == nil && !slices.Equal(ran(&resp.Trace.Stages), []Stage{StageParse, StagePlan, StageExecute}) {
			t.Errorf("%q: stages %v", c.sql, ran(&resp.Trace.Stages))
		}
	}
}

// TestPlanCachePinsNoLiteral: the plan cache keys a statement by its
// shape and keeps a template of it, neither of which holds a literal
// or points into a statement's text, so a subject named in a query's
// WHERE is unreachable from the cache once the subject is forgotten
// (forgetting is node-wide).
func TestPlanCachePinsNoLiteral(t *testing.T) {
	f := newFixture(t)
	ingestQueryFixture(t, f)
	// Each statement is built on the heap, as a request body's is, so
	// that a string the cache keeps can be told apart from one that
	// points into a statement.
	var sent []string
	for _, format := range []string{
		"SELECT seq, space_id FROM observations WHERE user_id = '%s'",
		"SELECT space_id, COUNT(*) AS n FROM observations WHERE user_id IN ('%s', 'bob') GROUP BY space_id HAVING n >= 1",
		"SELECT seq FROM observations WHERE NOT (user_id = '%s' OR device_mac = 'aa:00:00:00:00:01') LIMIT 3",
	} {
		for i := 0; i < 2; i++ {
			sql := fmt.Sprintf(format, "mary")
			sent = append(sent, sql)
			if _, err := f.bms.Query(context.Background(), conciergeRequester(), sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := f.bms.ForgetUser("mary"); err != nil {
		t.Fatal(err)
	}
	strs := 0
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.String:
			strs++
			s := v.String()
			if strings.Contains(s, "mary") || strings.Contains(s, "aa:00:00:00:00:01") {
				t.Errorf("the plan cache holds %q", s)
			}
			if s == "" {
				return
			}
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			for _, sql := range sent {
				if lo := uintptr(unsafe.Pointer(unsafe.StringData(sql))); lo <= p && p < lo+uintptr(len(sql)) {
					t.Errorf("the plan cache's %q points into the statement %q", s, sql)
				}
			}
		case reflect.Pointer, reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	walk(reflect.ValueOf(&f.bms.plans).Elem())
	if strs < 3 {
		t.Fatalf("the plan cache holds %d strings: no shape was cached", strs)
	}
}
