package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/query"
)

// TestQueryStatsReachTheWire sets every field of query.Stats — by
// reflection, so a field added later is set too — and requires the DTO
// to carry each one under the name query.Stats itself marshals it as.
// used_rollup and rollup_cells were dropped here once, so an HTTP
// client could not tell a cube-served answer from a scanned one.
func TestQueryStatsReachTheWire(t *testing.T) {
	var st query.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("query.Stats.%s is a %s: teach this test to set it", v.Type().Field(i).Name, f.Kind())
		}
	}
	wire := func(x any) map[string]any {
		b, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	want, got := wire(st), wire(queryStatsToDTO(st))
	if len(want) != v.NumField() {
		t.Fatalf("query.Stats marshals %d of its %d fields", len(want), v.NumField())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the DTO carries %v, query.Stats has %v", got, want)
	}
	var a appender
	a.queryStats(&st)
	if got := wire(json.RawMessage(a.b)); !reflect.DeepEqual(got, want) {
		t.Fatalf("the appender writes %v, query.Stats has %v", got, want)
	}
	// The rollup fields are additive: a scanned answer's stats keep
	// their old shape.
	if m := wire(queryStatsToDTO(query.Stats{ScannedRows: 1})); len(m) != 8 {
		t.Fatalf("a row-scan answer's stats grew on the wire: %v", m)
	}
}

func TestQueryOverHTTP(t *testing.T) {
	bms, client := newServer(t)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := bms.Ingest(ObservationFromDTO(wifiObs("aa:00:00:00:00:01", i))); err != nil {
			t.Fatal(err)
		}
	}

	res, err := client.Query(ctx, QueryRequestDTO{
		SQL:       "SELECT user_id, COUNT(*) AS n FROM observations GROUP BY user_id",
		ServiceID: "concierge",
		Purpose:   string(policy.PurposeProvidingService),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "user_id" || res.Columns[1] != "n" {
		t.Errorf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// JSON round-trip: string cell stays a string, count is a number.
	if res.Rows[0][0] != "mary" {
		t.Errorf("user cell = %v", res.Rows[0][0])
	}
	if n, ok := res.Rows[0][1].(float64); !ok || n != 3 {
		t.Errorf("count cell = %v", res.Rows[0][1])
	}
	if res.Stats.ScannedRows != 3 || res.Stats.ReleasedRows != 3 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if res.Trace == nil || res.Trace.Path != "query" || len(res.Trace.Stages) != 3 {
		t.Errorf("trace = %+v", res.Trace)
	}
}

// postQuery posts a raw query and decodes the typed error payload.
func postQuery(t *testing.T, base string, dto QueryRequestDTO) (int, QueryErrorDTO) {
	t.Helper()
	body, _ := json.Marshal(dto)
	resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out QueryErrorDTO
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestQueryTypedErrorDTOs(t *testing.T) {
	_, client := newServer(t)
	requester := QueryRequestDTO{ServiceID: "concierge", Purpose: string(policy.PurposeProvidingService)}

	parse := requester
	parse.SQL = "SELECT *\nFORM observations"
	status, eb := postQuery(t, client.base, parse)
	if status != http.StatusBadRequest || eb.Kind != "parse" {
		t.Errorf("parse error: status=%d dto=%+v", status, eb)
	}
	if eb.Line != 2 || eb.Col < 1 {
		t.Errorf("parse position = %d:%d, want line 2", eb.Line, eb.Col)
	}

	plan := requester
	plan.SQL = "SELECT nonexistent FROM observations"
	status, eb = postQuery(t, client.base, plan)
	if status != http.StatusBadRequest || eb.Kind != "plan" || eb.Line != 0 {
		t.Errorf("plan error: status=%d dto=%+v", status, eb)
	}

	// The audit table requires a user identity; refusal is 403.
	enforce := requester
	enforce.SQL = "SELECT * FROM audit"
	status, eb = postQuery(t, client.base, enforce)
	if status != http.StatusForbidden || eb.Kind != "enforce" {
		t.Errorf("enforce error: status=%d dto=%+v", status, eb)
	}

	// The typed payload stays compatible with the generic errorBody,
	// so Client.do surfaces the message.
	_, err := client.Query(context.Background(), parse)
	if err == nil || !strings.Contains(err.Error(), "parse error") {
		t.Errorf("client error = %v", err)
	}
}

func TestStreamRejectsUnknownParam(t *testing.T) {
	_, client := newServer(t)

	resp, err := http.Get(client.base + "/v1/stream?suject=mary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "suject") {
		t.Errorf("error %q does not name the offending key", eb.Error)
	}
}
