package tippers

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/httpapi"
	"github.com/tippers/tippers/internal/sensor"
)

// TestServiceReadAllocs holds the service-reads workload's requests,
// served through the whole APIHandler chain — the instrumentation
// middleware, the body read and decode, the enforced scan over sealed
// rows and the appended answer — to the objects their answers need.
// Each request is reused, as the benchmark's driver reuses it, so what
// is counted is the node's own. Per-request scratch that escapes to the
// heap (a status recorder, a body-limit wrapper, a decoded request, a
// scan's row, one slice per released SQL row, a parsed query string)
// shows here as a ceiling crossed.
func TestServiceReadAllocs(t *testing.T) {
	dep, err := NewDeployment(DeploymentConfig{Spec: SmallDBH(), Population: 100, Seed: 1,
		Clock: func() time.Time { return benchDay.Add(24 * time.Hour) }})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if _, err := dep.SimulateDay(benchDay, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.BMS.Columnar().CompactOnce(); err != nil {
		t.Fatal(err)
	}
	h := dep.APIHandler()
	serve := func(method, target string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
		}
		return rec
	}
	mustJSON := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	// A subject with 20 releasable sealed BLE sightings.
	var user []byte
	for _, u := range dep.Users.All() {
		raw := mustJSON(httpapi.RequestDTO{ServiceID: "concierge", Purpose: string(PurposeProvidingService),
			Kind: string(sensor.ObsBLESighting), SubjectID: u.ID, Limit: 20})
		var resp httpapi.ResponseDTO
		if json.Unmarshal(serve(http.MethodPost, "/v1/requests/user", raw).Body.Bytes(), &resp) == nil && len(resp.Observations) == 20 {
			user = raw
			break
		}
	}
	if user == nil {
		t.Fatal("no subject has 20 releasable BLE sightings")
	}

	occupancy := mustJSON(httpapi.RequestDTO{ServiceID: "smart-meeting", Purpose: string(PurposeProvidingService),
		Kind: string(sensor.ObsBLESighting), SpaceID: "dbh/1", Time: benchDay.Add(11 * time.Hour),
		From: benchDay.Add(10 * time.Hour), To: benchDay.Add(11 * time.Hour)})
	var occ httpapi.ResponseDTO
	if json.Unmarshal(serve(http.MethodPost, "/v1/requests/occupancy?k=2", occupancy).Body.Bytes(), &occ) != nil || len(occ.Aggregates) == 0 {
		t.Fatal("the occupancy request releases no space")
	}

	// The workload's row-mode statement — one beacon's sightings over a
	// window — sized to release about 100 rows.
	var sql []byte
	for _, room := range dep.Building.RoomIDs[0] {
		for _, beacon := range dep.Building.BeaconsIn(room) {
			for hours := 1; hours <= 8 && sql == nil; hours++ {
				raw := mustJSON(httpapi.QueryRequestDTO{SQL: fmt.Sprintf(
					"SELECT seq, time, user_id, space_id FROM observations WHERE sensor_id = '%s' AND time >= '%s' AND time < '%s'",
					beacon, benchDay.Add(9*time.Hour).Format(time.RFC3339), benchDay.Add(time.Duration(9+hours)*time.Hour).Format(time.RFC3339)),
					ServiceID: "concierge", Purpose: string(PurposeProvidingService)})
				var res httpapi.QueryResultDTO
				if json.Unmarshal(serve(http.MethodPost, "/v1/query", raw).Body.Bytes(), &res) == nil && len(res.Rows) >= 90 && len(res.Rows) <= 150 {
					sql = raw
				}
			}
		}
	}
	if sql == nil {
		t.Fatal("no beacon releases about 100 rows in a window of whole hours")
	}

	inbox := "/v1/notifications?user=" + dep.Users.All()[0].ID

	cases := []struct {
		name, method, target string
		body                 []byte
		before               func()
		ceiling              float64
	}{
		{name: "user read over sealed rows", method: http.MethodPost, target: "/v1/requests/user", body: user, ceiling: 2},
		{name: "occupancy miss", method: http.MethodPost, target: "/v1/requests/occupancy?k=2", body: occupancy,
			before: dep.BMS.ClearOccupancyCache, ceiling: 14},
		{name: "occupancy hit", method: http.MethodPost, target: "/v1/requests/occupancy?k=2", body: occupancy, ceiling: 2},
		{name: "row-mode query of about 100 rows", method: http.MethodPost, target: "/v1/query", body: sql, ceiling: 80},
		{name: "notifications", method: http.MethodGet, target: inbox, ceiling: 2},
	}
	for _, c := range cases {
		var (
			body benchBody
			req  = httptest.NewRequest(c.method, c.target, nil)
			rw   = benchResponse{header: http.Header{}}
		)
		allocs := testing.AllocsPerRun(50, func() {
			if c.before != nil {
				c.before()
			}
			body.Reset(c.body)
			req.Body, req.ContentLength = &body, int64(len(c.body))
			rw.code = 0
			h.ServeHTTP(&rw, req)
			if rw.code != http.StatusOK {
				t.Fatalf("%s: status %d", c.name, rw.code)
			}
		})
		t.Logf("%s: %.0f objects per request (ceiling %.0f)", c.name, allocs, c.ceiling)
		if !raceEnabled && allocs > c.ceiling {
			t.Errorf("%s: %.0f objects per request, above the ceiling of %.0f", c.name, allocs, c.ceiling)
		}
	}
}
