package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/core"
	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/query"
	"github.com/tippers/tippers/internal/sensor"
)

// appended runs fill on a fresh appender and returns its bytes and
// error.
func appended(fill func(a *appender)) ([]byte, error) {
	var a appender
	fill(&a)
	return a.b, a.err
}

// checkAppend requires fill to write json.Marshal(want) byte for byte,
// and to report an error exactly when json.Marshal refuses want.
func checkAppend(t testing.TB, what string, fill func(a *appender), want any) {
	t.Helper()
	wantB, wantErr := json.Marshal(want)
	got, err := appended(fill)
	switch {
	case wantErr != nil && err == nil:
		t.Fatalf("%s: appended %s, but encoding/json refuses it: %v", what, got, wantErr)
	case wantErr == nil && err != nil:
		t.Fatalf("%s: appender refused what encoding/json writes as %s: %v", what, wantB, err)
	case wantErr == nil && !bytes.Equal(got, wantB):
		t.Fatalf("%s:\n got  %s\n want %s", what, got, wantB)
	}
}

// Inputs that exercise every rule the appenders copy from encoding/json.
var (
	trickyStrings = []string{
		"", "plain", `<script>&"quoted"\`, "tab\tnew\nline\x00\x1f\x7f",
		"line\u2028sep\u2029para", "café", "emoji 🙂", "\xff\xfe", "trunc\xc3", "a\xed\xa0\x80b",
	}
	trickyFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, -1e21, 123456789.125,
		1e-300, 5e-324, math.SmallestNonzeroFloat64, 2.2250738585072009e-308, math.MaxFloat64, 1.5e-10,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	trickyZones = []*time.Location{
		time.UTC, time.FixedZone("PDT", -7*3600), time.FixedZone("IST", 5*3600+30*60),
		time.FixedZone("edge", 23*3600+59*60), time.FixedZone("bad", 24*3600), time.FixedZone("worse", -100*3600),
	}
)

func randString(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return trickyStrings[rng.Intn(len(trickyStrings))]
	}
	const pieces = "ab<>&\"\\\x01\x7f"
	var b strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		switch rng.Intn(6) {
		case 0:
			b.WriteString("\u2028")
		case 1:
			b.WriteByte(byte(0x80 + rng.Intn(0x80))) // often invalid UTF-8
		default:
			b.WriteByte(pieces[rng.Intn(len(pieces))])
		}
	}
	return b.String()
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		return trickyFloats[rng.Intn(len(trickyFloats))]
	case 1:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	default:
		return float64(rng.Intn(1000) - 500)
	}
}

func randTime(rng *rand.Rand) time.Time {
	switch rng.Intn(8) {
	case 0:
		return time.Time{}
	case 1:
		years := []int{-1, 0, 9999, 10000}
		return time.Date(years[rng.Intn(len(years))], time.March, 1, 2, 3, 4, 0, time.UTC)
	}
	t := time.Date(2017, time.June, 7, rng.Intn(24), rng.Intn(60), rng.Intn(60), 0, time.UTC)
	if rng.Intn(2) == 0 {
		t = t.Add(time.Duration(rng.Intn(1e9)))
	}
	return t.In(trickyZones[rng.Intn(len(trickyZones))])
}

func randStrings(rng *rand.Rand) []string {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, 1+rng.Intn(3))
	for i := range out {
		out[i] = randString(rng)
	}
	return out
}

func randObservation(rng *rand.Rand) sensor.Observation {
	o := sensor.Observation{
		SensorID: randString(rng), Kind: sensor.ObservationKind(randString(rng)), Time: randTime(rng),
	}
	if rng.Intn(2) == 0 {
		o.Seq = rng.Uint64() >> rng.Intn(64)
	}
	if rng.Intn(2) == 0 {
		o.SpaceID, o.DeviceMAC, o.UserID = randString(rng), randString(rng), randString(rng)
	}
	if rng.Intn(2) == 0 {
		o.Value = randFloat(rng)
	}
	switch rng.Intn(3) {
	case 0:
		o.Payload = map[string]string{}
	case 1:
		o.Payload = make(map[string]string)
		for n := 1 + rng.Intn(12); n > 0; n-- { // past the appender's 8 stack keys too
			o.Payload[randString(rng)] = randString(rng)
		}
	}
	return o
}

func randDecision(rng *rand.Rand) enforce.Decision {
	d := enforce.Decision{
		Allowed:            rng.Intn(2) == 0,
		Granularity:        policy.Granularity(rng.Intn(7)), // 0 and 6 are not levels
		MatchedPreferences: randStrings(rng),
		MatchedDefaults:    randStrings(rng),
		Overridden:         randStrings(rng),
		FromCache:          rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		d.DenyReason, d.OverridePolicyID = randString(rng), randString(rng)
	}
	return d
}

func randTrace(rng *rand.Rand) core.DecisionTrace {
	small := func() int { return rng.Intn(3) * (rng.Intn(200) - 50) }
	t := core.DecisionTrace{
		ID: rng.Uint64() >> rng.Intn(64), Time: randTime(rng), TraceID: randString(rng), Path: randString(rng),
		ServiceID: randString(rng), SubjectID: randString(rng), ObsKind: randString(rng), Purpose: randString(rng),
		Engine: randString(rng), Allowed: rng.Intn(2) == 0, DenyReason: randString(rng),
		Granularity: randString(rng), CacheHit: rng.Intn(2) == 0,
		MatchedPolicies: randStrings(rng), MatchedPreferences: randStrings(rng), MatchedDefaults: randStrings(rng),
		Overridden:         randStrings(rng),
		SubjectsConsidered: small(), SubjectsReleased: small(), ObservationsReleased: small(),
		TotalMicros: rng.Int63n(1e6) - 10,
	}
	if rng.Intn(2) == 0 {
		for s := range t.Stages {
			if rng.Intn(2) == 0 {
				t.Stages[s] = core.StageTime{Nanos: rng.Int63n(1e8) - 5000, Calls: 1 + rng.Int31n(3)}
			}
		}
	}
	return t
}

func randValue(rng *rand.Rand) query.Value {
	switch rng.Intn(5) {
	case 0:
		return query.Value{}
	case 1:
		return query.StringValue(randString(rng))
	case 2:
		return query.NumberValue(randFloat(rng))
	case 3:
		return query.BoolValue(rng.Intn(2) == 0)
	default:
		return query.TimeValue(randTime(rng))
	}
}

// TestAppendersMatchEncodingJSON holds every appender to json.Marshal of
// the DTO the reference path (oracle_test.go) builds from the same
// value, over strings that need escaping (<, >, &, quotes, backslashes,
// control bytes, U+2028, invalid UTF-8), floats at encoding/json's
// format boundaries (1e-6, 1e21, -0, subnormals, non-finite), times in
// other zones, out of RFC 3339's range and zero, payloads of every size,
// nil versus empty slices and maps, and notifications.
func TestAppendersMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		o := randObservation(rng)
		checkAppend(t, "observation", func(a *appender) { a.observation(&o) }, observationToDTO(o))

		d := randDecision(rng)
		checkAppend(t, "decision", func(a *appender) { a.decision(&d) }, decisionToDTO(d))

		tr := randTrace(rng)
		checkAppend(t, "trace", func(a *appender) { a.trace(&tr) }, traceToDTO(tr))

		v := randValue(rng)
		checkAppend(t, "value", func(a *appender) { a.value(v) }, v.JSON())

		resp := core.Response{Decision: d, SubjectsConsidered: rng.Intn(3), SubjectsReleased: rng.Intn(3)}
		var rows appender
		for n := rng.Intn(4); n > 0; n-- {
			o := randObservation(rng)
			rows.row(&o)
			resp.Observations = append(resp.Observations, o)
		}
		for n := rng.Intn(4); n > 0; n-- {
			resp.Aggregates = append(resp.Aggregates, privacy.AggregateCount{Key: randString(rng), Count: rng.Intn(50)})
		}
		if rng.Intn(2) == 0 {
			resp.Trace = tr
		}
		checkAppend(t, "response", func(a *appender) { a.response(&resp, &rows) }, responseToDTO(resp))

		res := query.Result{Stats: query.Stats{
			ScannedRows: rng.Intn(9), DeniedRows: rng.Intn(9), ExcludedRows: rng.Intn(9), ReleasedRows: rng.Intn(9),
			Subjects: rng.Intn(9), Decisions: rng.Intn(9), EffectiveK: rng.Intn(9), SuppressedGroups: rng.Intn(9),
		}}
		if rng.Intn(4) > 0 {
			res.Columns = randStrings(rng)
		}
		for n := rng.Intn(4); n > 0; n-- {
			row := make([]query.Value, rng.Intn(4))
			for j := range row {
				row[j] = randValue(rng)
			}
			res.Rows = append(res.Rows, row)
		}
		qt := &resp.Trace
		if qt.ID == 0 {
			qt = nil
		}
		checkAppend(t, "query result", func(a *appender) { a.queryResult(&res, qt) }, queryResultToDTO(&res, qt))
	}
	// An ingest's success answer, as the handler writes it: the bytes and
	// Content-Type writeJSON gives ingestResult.
	for _, n := range []int{0, 1, 100, math.MaxInt} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ingestResult{Accepted: n}); err != nil {
			t.Fatal(err)
		}
		viaJSON := httptest.NewRecorder()
		writeJSON(viaJSON, http.StatusOK, ingestResult{Accepted: n})
		got := httptest.NewRecorder()
		a := getAppender()
		a.ingested(n)
		a.respond(got)
		a.release()
		if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Bytes()) ||
			got.Header().Get("Content-Type") != viaJSON.Header().Get("Content-Type") {
			t.Fatalf("ingest answer for %d: %d %q %q, want 200 %q %q", n, got.Code, got.Header().Get("Content-Type"),
				got.Body, viaJSON.Header().Get("Content-Type"), want.Bytes())
		}
	}
}

// FuzzAppendersMatchEncodingJSON holds the observation and SQL-cell
// appenders to encoding/json on arbitrary strings, floats and times.
func FuzzAppendersMatchEncodingJSON(f *testing.F) {
	for _, s := range trickyStrings {
		f.Add(s, 1.5, int64(1496844000), int64(0), 0)
	}
	for _, v := range trickyFloats {
		f.Add("k", v, int64(0), int64(1), -7*3600)
	}
	f.Add("<&>", 1e21, int64(253402300800), int64(0), 0) // year 10000
	f.Add("x", -1e-7, int64(-62167219201), int64(5), 0)  // year -1
	f.Add("z", 0.0, int64(1496844000), int64(999999999), 24*3600)
	f.Fuzz(func(t *testing.T, s string, v float64, sec, nsec int64, offset int) {
		tm := time.Unix(sec, nsec).In(time.FixedZone("", offset))
		o := sensor.Observation{SensorID: s, Kind: "k", Time: tm, UserID: s, Value: v, Payload: map[string]string{s: s, "b": s + "<"}}
		checkAppend(t, "observation", func(a *appender) { a.observation(&o) }, observationToDTO(o))
		for _, c := range []query.Value{
			query.StringValue(s), query.NumberValue(v), query.TimeValue(tm),
		} {
			checkAppend(t, "value", func(a *appender) { a.value(c) }, c.JSON())
		}
	})
}

// TestWriteResponseDropsStreamedRowsOnError: a subject read that fails
// after its scan has streamed rows answers 400 with the error alone.
func TestWriteResponseDropsStreamedRowsOnError(t *testing.T) {
	var rows appender
	rows.row(&sensor.Observation{SensorID: "ap-1", Kind: sensor.ObsWiFiConnect, UserID: "mary", Time: testNow})
	rec := httptest.NewRecorder()
	var c codecStages
	c.respond(rec, httptest.NewRequest(http.MethodPost, "/v1/requests/user", nil), testNow, testNow, core.Response{}, &rows, errors.New("boom"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	if want := `{"error":"boom"}` + "\n"; rec.Body.String() != want {
		t.Fatalf("body %q, want %q", rec.Body, want)
	}
}

// TestNonFiniteAggregateAnswers500: a SUM that overflows to +Inf has no
// JSON form. It used to answer 200 with an empty body; it answers 500
// with an error body naming the value.
func TestNonFiniteAggregateAnswers500(t *testing.T) {
	bms, client := newServer(t)
	for i := 0; i < 2; i++ {
		o := ObservationFromDTO(wifiObs("aa:00:00:00:00:01", i))
		o.Value = 1e308
		if err := bms.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	body, _ := json.Marshal(QueryRequestDTO{
		SQL:       "SELECT sensor_id, SUM(value) AS s FROM observations GROUP BY sensor_id",
		ServiceID: "concierge", Purpose: string(policy.PurposeProvidingService),
	})
	resp, err := http.Post(client.base+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("status %d, undecodable body: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(eb.Error, "unsupported value: +Inf") {
		t.Fatalf("status %d, error %q; want 500 naming +Inf", resp.StatusCode, eb.Error)
	}
}

// TestWriteJSONRefusesNonFinite: writeJSON encodes before it commits to
// a status, so a value encoding/json refuses answers 500, not the
// requested status with an empty body.
func TestWriteJSONRefusesNonFinite(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusInternalServerError || !strings.Contains(eb.Error, "NaN") {
		t.Fatalf("status %d, body %q (%v); want 500 naming NaN", rec.Code, rec.Body, err)
	}
}
