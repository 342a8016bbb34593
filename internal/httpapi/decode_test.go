package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sim"
)

// decodeOutcome is readJSON's answer on body, resolving subjects
// through users: 200 and no error body when it decoded into v, else the
// status and body it wrote.
func decodeOutcome(body []byte, v any, users *profile.Directory) (int, string) {
	rec := httptest.NewRecorder()
	if readJSON(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), v, users) {
		return http.StatusOK, ""
	}
	return rec.Code, rec.Body.String()
}

// referenceOutcome is readJSON's answer as it was with json.Unmarshal
// alone.
func referenceOutcome(body []byte, v any) (int, string) {
	if err := json.Unmarshal(body, v); err != nil {
		rec := httptest.NewRecorder()
		writeErr(rec, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return rec.Code, rec.Body.String()
	}
	return http.StatusOK, ""
}

// dirtyRequest and dirtyQuery are a data request and a query a reused
// target already holds.
var (
	dirtyRequest = RequestDTO{ServiceID: "old", Purpose: "old", SubjectID: "old", Time: testNow, AfterSeq: 3, Limit: 9}
	dirtyQuery   = QueryRequestDTO{SQL: "old", ServiceID: "old", UserID: "old", K: 4}
)

// checkDecode holds readJSON on body to json.Unmarshal alone, as a
// batch, as a data request and as a query: the same status and error
// body, and on success the same value — decoded into a fresh target,
// and into a reused one (a batch with spare zero capacity, as
// handleIngest hands it over, and a request or query that already
// holds values). It also holds the scanner to its decline contract: a
// declined batch is empty and zero over its capacity, a declined
// request or query unchanged. users, which may be nil, resolves subject
// identifiers. It reports whether the scanner itself decoded body as
// each.
func checkDecode(t testing.TB, body []byte, users *profile.Directory) (batch, request, query bool) {
	t.Helper()
	same := func(what string, got, want any, fresh func() any) {
		t.Helper()
		gotV, wantV := fresh(), fresh()
		reflect.ValueOf(gotV).Elem().Set(reflect.ValueOf(got))
		reflect.ValueOf(wantV).Elem().Set(reflect.ValueOf(want))
		code, errBody := decodeOutcome(body, gotV, users)
		wantCode, wantErrBody := referenceOutcome(body, wantV)
		if code != wantCode || errBody != wantErrBody {
			t.Fatalf("%s, body %q:\n got  %d %s\n want %d %s", what, body, code, errBody, wantCode, wantErrBody)
		}
		if code == http.StatusOK && !reflect.DeepEqual(gotV, wantV) {
			t.Fatalf("%s, body %q:\n got  %+v\n want %+v", what, body, reflect.ValueOf(gotV).Elem(), reflect.ValueOf(wantV).Elem())
		}
	}
	newBatch := func() any { return new([]ObservationDTO) }
	newRequest := func() any { return new(RequestDTO) }
	same("fresh batch", []ObservationDTO(nil), []ObservationDTO(nil), newBatch)
	same("reused batch", make([]ObservationDTO, 0, 3), make([]ObservationDTO, 0, 3), newBatch)
	same("fresh request", RequestDTO{}, RequestDTO{}, newRequest)
	same("reused request", dirtyRequest, dirtyRequest, newRequest)
	newQuery := func() any { return new(QueryRequestDTO) }
	same("fresh query", QueryRequestDTO{}, QueryRequestDTO{}, newQuery)
	same("reused query", dirtyQuery, dirtyQuery, newQuery)

	probe := make([]ObservationDTO, 0, 3)
	if batch = decodeFast(body, &probe, users); !batch {
		if len(probe) != 0 {
			t.Fatalf("body %q: a declined batch kept %d elements", body, len(probe))
		}
		for i, o := range probe[:cap(probe)] {
			if !reflect.DeepEqual(o, ObservationDTO{}) {
				t.Fatalf("body %q: a declined batch still holds element %d: %+v", body, i, o)
			}
		}
	}
	r := dirtyRequest
	if request = decodeFast(body, &r, users); !request && !reflect.DeepEqual(r, dirtyRequest) {
		t.Fatalf("body %q: a declined request changed its target to %+v", body, r)
	}
	q := dirtyQuery
	if query = decodeFast(body, &q, users); !query && !reflect.DeepEqual(q, dirtyQuery) {
		t.Fatalf("body %q: a declined query changed its target to %+v", body, q)
	}
	return batch, request, query
}

// decodeStrings are string literals as they appear in a body. outside
// marks those the scanner must decline: escapes, control bytes and
// invalid UTF-8 (a raw DEL, U+2028 and the replacement character are
// valid).
var decodeStrings = []struct {
	lit     string
	outside bool
}{
	{`""`, false}, {`"ap-1"`, false}, {`"aa:bb:cc:dd:ee:ff"`, false}, {`"café"`, false}, {`"🙂"`, false},
	{"\"line\u2028sep\"", false}, {`"<&>"`, false}, {"\"del\x7f\"", false}, {"\"\uFFFD\"", false},
	{`"a\"b"`, true}, {`"a\\b"`, true}, {`"\/"`, true}, {`"\u0041"`, true}, {`"\ud83d\ude42"`, true},
	{`"\ud800"`, true}, {`"\udc00x"`, true}, {`"\n"`, true}, {`"\x"`, true},
	{"\"\xff\"", true}, {"\"trunc\xc3\"", true}, {"\"a\xed\xa0\x80b\"", true}, {"\"\xf4\x90\x80\x80\"", true},
	{"\"tab\tx\"", true}, {"\"nul\x00\"", true}, {"\"\x1f\"", true},
}

// sqlStrings are statements as a query body carries them. A statement
// is decoded with its escapes, so outside marks only those the scanner
// must decline: control bytes, invalid UTF-8 and invalid escapes.
var sqlStrings = []struct {
	lit     string
	outside bool
}{
	{`"SELECT * FROM observations"`, false},
	{`"SELECT seq FROM observations WHERE time \u003e= '2017-06-07T14:00:00Z' AND time \u003c '2017-06-07T15:00:00Z'"`, false},
	{`"SELECT seq FROM observations WHERE user_id = 'o''brien' \u0026\u0026"`, false}, {`"select 'café'"`, false},
	{`"a\"b"`, false}, {`"a\\b"`, false}, {`"\/"`, false}, {`"\u0041"`, false}, {`"\ud83d\ude42"`, false},
	{`"\ud800"`, false}, {`"\udc00x"`, false}, {`"\n"`, false}, {`""`, false}, {"\"line\u2028sep\"", false},
	{`"\x"`, true}, {"\"\xff\"", true}, {"\"trunc\xc3\"", true}, {"\"a\xed\xa0\x80b\"", true},
	{"\"tab\tx\"", true}, {"\"nul\x00\"", true},
}

// decodeNumbers cover the JSON number grammar's edges, what strconv
// takes that JSON does not (a sign, hex floats, underscores, ".5",
// "1.", NaN), and overflow of uint64, int and float64.
var decodeNumbers = []string{
	"0", "-0", "7", "-1", "1.5", "-2.25e3", "1e2", "1E-2", "1e+2", "0.000001",
	"18446744073709551615", "18446744073709551616", "9223372036854775807", "9223372036854775808",
	"-9223372036854775808", "-9223372036854775809", "1e400", "-1e400", "1e-400",
	"01", "-01", "1.", ".5", "+1", "0x10", "0x1p4", "1_0", "-", "1e", "1e+", "--1", "NaN", "Infinity", "1.0", "00",
}

// decodeTimes cover RFC 3339 with offsets and fractions, the edges
// time.Time.UnmarshalJSON refuses, and non-strings.
var decodeTimes = []struct {
	lit     string
	outside bool
}{
	{`"2017-06-07T14:00:00Z"`, false}, {`"2017-06-07T14:00:00.123456789Z"`, false}, {`"2017-06-07T14:00:00+05:30"`, false},
	{`"2017-06-07T14:00:00.5-07:00"`, false}, {`"0001-01-01T00:00:00Z"`, false}, {`"9999-12-31T23:59:59.999999999Z"`, false},
	{`"2017-06-07T14:00:00+00:00"`, false}, {`"2017-06-07T14:00:00z"`, true}, {`"2017-13-07T14:00:00Z"`, true},
	{`"2017-06-07 14:00:00Z"`, true}, {`"2017-06-07T14:00:00"`, true}, {`""`, true}, {`"2017-06-07T14:00:00+24:00"`, false},
	{`"2017-06-07T14:00:00,5Z"`, false}, {`"2017-06-07T14:00:00.Z"`, true}, {`"2017-06-07T14:00:00\u005a"`, true},
	{`1496844000`, true}, {`"10000-01-01T00:00:00Z"`, true},
}

var (
	observationKeys = []string{"seq", "sensor_id", "kind", "time", "space_id", "device_mac", "user_id", "value", "payload"}
	requestKeys     = []string{"service_id", "purpose", "kind", "subject_id", "space_id", "granularity", "time", "from", "to", "after_seq", "limit"}
	queryKeys       = []string{"sql", "service_id", "purpose", "user_id", "granularity", "k"}
	prefKeys        = []string{"id", "user_id", "name", "scope", "rule", "source"}
	prefScopeKeys   = []string{"space_id", "sensor_type", "obs_kind", "purposes", "service_id", "window"}
	prefWindowKeys  = []string{"start_minute", "end_minute", "days"}
	prefRuleKeys    = []string{"action", "max_granularity", "noise_epsilon", "min_aggregation_k"}
)

// bodyGen writes one random body near the scanner's subset. outside
// records that it wrote something the scanner must decline: an escape,
// a control byte, invalid UTF-8, null, an unknown, case-respelled or
// repeated key, a non-string payload value, a malformed time, other
// whitespace, trailing data or a cut.
type bodyGen struct {
	rng     *rand.Rand
	b       strings.Builder
	outside bool
}

func (g *bodyGen) ws() {
	if g.rng.Intn(5) == 0 {
		g.b.WriteString([]string{" ", "\n\t", "\r\n  ", "\t"}[g.rng.Intn(4)])
	}
}

func (g *bodyGen) tok(s string) { g.ws(); g.b.WriteString(s) }

func (g *bodyGen) str() {
	if g.rng.Intn(8) > 0 {
		const plain = "abcxyz0123456789:-/ .ABC"
		var s strings.Builder
		for n := g.rng.Intn(12); n > 0; n-- {
			s.WriteByte(plain[g.rng.Intn(len(plain))])
		}
		g.tok(`"` + s.String() + `"`)
		return
	}
	s := decodeStrings[g.rng.Intn(len(decodeStrings))]
	g.outside = g.outside || s.outside
	g.tok(s.lit)
}

// name writes one of names most of the time, else a random string.
func (g *bodyGen) name(names ...string) {
	if g.rng.Intn(4) == 0 {
		g.str()
		return
	}
	g.tok(strconv.Quote(names[g.rng.Intn(len(names))]))
}

func (g *bodyGen) number(integer bool) {
	switch {
	case g.rng.Intn(4) == 0:
		g.tok(decodeNumbers[g.rng.Intn(len(decodeNumbers))])
	case integer:
		g.tok(strconv.FormatUint(g.rng.Uint64()>>g.rng.Intn(64), 10))
	default:
		g.tok(strconv.FormatFloat(g.rng.NormFloat64()*float64(g.rng.Intn(1e6)), 'g', -1, 64))
	}
}

func (g *bodyGen) time() {
	if g.rng.Intn(4) > 0 {
		t := time.Date(2017, time.June, 7, g.rng.Intn(24), g.rng.Intn(60), g.rng.Intn(60), 0, time.UTC)
		if g.rng.Intn(2) == 0 {
			t = t.Add(time.Duration(g.rng.Intn(1e9)))
		}
		g.tok(`"` + t.In(trickyZones[g.rng.Intn(4)]).Format(time.RFC3339Nano) + `"`)
		return
	}
	lit := decodeTimes[g.rng.Intn(len(decodeTimes))]
	g.outside = g.outside || lit.outside
	g.tok(lit.lit)
}

func (g *bodyGen) payload() {
	switch g.rng.Intn(20) {
	case 0:
		g.tok(`{"a":{"b":"c"}}`)
	case 1:
		g.tok(`{"a":1}`)
	case 2:
		g.tok(`{"a":null}`)
	case 3:
		g.tok(`["a"]`)
	default:
		g.tok("{")
		for i := range g.rng.Intn(4) {
			if i > 0 {
				g.tok(",")
			}
			g.str()
			g.tok(":")
			g.str()
		}
		g.tok("}")
		return
	}
	g.outside = true
}

func (g *bodyGen) value(key string) {
	if g.rng.Intn(40) == 0 {
		g.tok("null")
		g.outside = true
		return
	}
	switch key {
	case "scope":
		g.object(prefScopeKeys)
	case "window":
		g.object(prefWindowKeys)
	case "rule":
		g.object(prefRuleKeys)
	case "purposes":
		g.tok("[")
		for i := range g.rng.Intn(3) {
			if i > 0 {
				g.tok(",")
			}
			g.name("comfort", "security", "providing-service")
		}
		g.tok("]")
	case "action":
		g.name("allow", "deny", "limit", "Deny", "permit")
	case "max_granularity":
		g.name("", "building", "floor", "fine", "street")
	case "sensor_type":
		g.name("", "Camera", "WiFi Access Point", "wifi")
	case "start_minute", "end_minute", "days", "min_aggregation_k":
		if g.rng.Intn(2) == 0 {
			g.tok(strconv.Itoa(g.rng.Intn(300)))
		} else {
			g.number(true)
		}
	case "noise_epsilon":
		g.number(false)
	case "seq", "after_seq", "limit", "k":
		g.number(true)
	case "sql":
		s := sqlStrings[g.rng.Intn(len(sqlStrings))]
		g.outside = g.outside || s.outside
		g.tok(s.lit)
	case "value":
		g.number(false)
	case "time", "from", "to":
		g.time()
	case "payload":
		g.payload()
	default:
		g.str()
	}
}

// object writes some of keys in a random order; now and then one is
// respelled in another case (ſ folds to s for encoding/json), unknown
// or a repeat.
func (g *bodyGen) object(keys []string) {
	g.tok("{")
	var used []string
	for i, k := range g.rng.Perm(len(keys))[:g.rng.Intn(len(keys)+1)] {
		if i > 0 {
			g.tok(",")
		}
		key, name := keys[k], keys[k]
		switch g.rng.Intn(80) {
		case 0:
			j := g.rng.Intn(len(name))
			name = name[:j] + strings.ToUpper(name[j:j+1]) + name[j+1:]
			if name == key {
				name = strings.ToUpper(key)
			}
		case 1:
			name = strings.Replace(key, "s", "ſ", 1)
			if name == key {
				name = "KIND"
			}
		case 2:
			name = "extra"
		case 3:
			if len(used) > 0 {
				key = used[g.rng.Intn(len(used))]
				name = key
			}
		}
		g.outside = g.outside || name != key || (len(used) > 0 && slices.Contains(used, key))
		used = append(used, key)
		g.tok(strconv.Quote(name))
		g.tok(":")
		g.value(key)
	}
	g.tok("}")
}

// finish pads the body with whitespace, and now and then appends
// trailing data or other whitespace, or cuts it short.
func (g *bodyGen) finish() []byte {
	g.ws()
	body := g.b.String()
	switch g.rng.Intn(30) {
	case 0:
		body += []string{"x", ",", "]", "{}", "\u00a0", "\v", "null"}[g.rng.Intn(7)]
		g.outside = true
	case 1:
		cut := body[:g.rng.Intn(len(body))]
		g.outside = g.outside || strings.TrimRight(cut, " \t\r\n") != strings.TrimRight(body, " \t\r\n")
		body = cut
	}
	return []byte(body)
}

func genBatch(rng *rand.Rand) (body []byte, outside bool) {
	g := &bodyGen{rng: rng}
	switch rng.Intn(16) {
	case 0:
		g.tok("null")
		g.outside = true
	case 1:
		g.tok("{}")
		g.outside = true
	case 2:
		g.tok("[null]")
		g.outside = true
	default:
		g.tok("[")
		for i := range rng.Intn(5) {
			if i > 0 {
				g.tok(",")
			}
			g.object(observationKeys)
		}
		g.tok("]")
	}
	body = g.finish()
	return body, g.outside
}

// genObject writes a data request's or a query's body, keyed by keys.
func genObject(rng *rand.Rand, keys []string) (body []byte, outside bool) {
	g := &bodyGen{rng: rng}
	switch rng.Intn(16) {
	case 0:
		g.tok("null")
		g.outside = true
	case 1:
		g.tok("[]")
		g.outside = true
	default:
		g.object(keys)
	}
	body = g.finish()
	return body, g.outside
}

// TestDecodeMatchesEncodingJSON: over random batches, data requests
// and queries near the scanner's subset, readJSON answers and decodes
// exactly as json.Unmarshal alone did, the scanner declines every body
// that leaves its subset, and it serves a good share of the rest.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const rounds = 3000
	var servedBatch, servedRequest, servedQuery int
	for range rounds {
		body, outside := genBatch(rng)
		if served, _, _ := checkDecode(t, body, nil); served {
			if outside {
				t.Fatalf("the scanner decoded a batch outside its subset: %q", body)
			}
			servedBatch++
		}
		body, outside = genObject(rng, requestKeys)
		if _, served, _ := checkDecode(t, body, nil); served {
			if outside {
				t.Fatalf("the scanner decoded a request outside its subset: %q", body)
			}
			servedRequest++
		}
		body, outside = genObject(rng, queryKeys)
		if _, _, served := checkDecode(t, body, nil); served {
			if outside {
				t.Fatalf("the scanner decoded a query outside its subset: %q", body)
			}
			servedQuery++
		}
	}
	t.Logf("the scanner served %d batches, %d requests and %d queries of %d each", servedBatch, servedRequest, servedQuery, rounds)
	if servedBatch < rounds/4 || servedRequest < rounds/4 || servedQuery < rounds/4 {
		t.Fatalf("the scanner served %d batches, %d requests and %d queries of %d each; the property hardly reaches it",
			servedBatch, servedRequest, servedQuery, rounds)
	}
}

// FuzzDecodeMatchesEncodingJSON holds readJSON to json.Unmarshal alone
// on arbitrary bodies, as a batch, as a data request and as a query.
func FuzzDecodeMatchesEncodingJSON(f *testing.F) {
	const obs = `{"sensor_id":"ap-1","kind":"wifi_access_point","time":"2017-06-07T14:00:00Z","device_mac":"aa:bb","user_id":"mary","value":1.5,"payload":{"event":"assoc"}}`
	const req = `{"service_id":"concierge","purpose":"providing_service","kind":"ble_beacon","subject_id":"mary","time":"2017-06-07T14:00:00Z","after_seq":3,"limit":20}`
	const query = `{"sql":"SELECT seq FROM observations WHERE sensor_id = 'b-1' AND time \u003c '2017-06-07T14:00:00Z'","service_id":"concierge","purpose":"providing_service","user_id":"mary","granularity":"room","k":2}`
	for _, s := range []string{
		query, `{"sql":"a\"b\\c\/\n\ud83d\ude42\ud800"}`, `{"sql":"\x"}`, "{\"sql\":\"tab\tx\"}", `{"SQL":"x"}`, `{"sql":"x","sql":"y"}`,
		`{"sql":null}`, `{"k":1.5}`, `{"k":-1}`, `{"user_id":"a\u0041"}`, `{"sql":1}`,
		"[" + obs + "]", "[" + obs + "," + obs + "]", req, "[]", "{}", "[{}]", "null", "[null]", "", " ", "[" + obs + "]x", req + " ",
		" \t\r\n[ " + obs + " ]\n", "[\v]", "\u00a0{}",
		// case-respelled, repeated, unknown keys and null fields
		`[{"SENSOR_ID":"a","Payload":{"k":"v"},"user_ID":"u"}]`, `{"Subject_Id":"mary","LIMIT":2}`, `{"ſubject_id":"mary"}`,
		`[{"sensor_id":"a","sensor_id":"b"}]`, `[{"payload":{"a":"1"},"payload":{"b":"2"}}]`, `{"limit":1,"limit":2}`,
		`[{"extra":1,"sensor_id":"a"}]`, `{"extra":{"x":[1,2]},"purpose":"p"}`,
		`[{"seq":null,"sensor_id":null,"time":null,"value":null,"payload":null}]`, `{"service_id":null,"time":null,"after_seq":null,"limit":null}`,
		// escapes, surrogates, invalid and truncated UTF-8, control bytes
		`[{"user_id":"a\"b","payload":{"\u0041":"\ud83d\ude42"}}]`, `{"subject_id":"\ud800"}`, `{"subject_id":"\udc00\ud800"}`,
		"[{\"user_id\":\"\xff\"}]", "{\"subject_id\":\"trunc\xc3\"}", "{\"subject_id\":\"a\xed\xa0\x80b\"}", "[{\"user_id\":\"nul\x00\"}]",
		"{\"subject_id\":\"tab\tx\"}", "[{\"payload\":{\"k\":\"del\x7f\"}}]", "{\"subject_id\":\"line\u2028sep\"}",
		// numbers
		`[{"value":-0}]`, `[{"value":01}]`, `[{"value":1.}]`, `[{"value":.5}]`, `[{"value":1e400}]`, `[{"value":+1}]`,
		`[{"value":0x10}]`, `[{"value":1_0}]`, `[{"seq":18446744073709551616}]`, `[{"seq":18446744073709551615}]`,
		`{"after_seq":-1}`, `{"after_seq":-0}`, `{"limit":9223372036854775808}`, `{"limit":1.5}`, `{"limit":1e2}`,
		// times
		`{"time":"2017-06-07T14:00:00+05:30"}`, `{"from":"2017-06-07T14:00:00.123456789-07:00"}`, `{"to":"2017-06-07T14:00:00+24:00"}`,
		`{"time":"2017-13-07T14:00:00Z"}`, `[{"time":"2017-06-07 14:00:00Z"}]`, `[{"time":1496844000}]`, `[{"time":"2017-06-07T14:00:00\u005a"}]`,
		// payload shapes, empty containers
		`[{"payload":{}}]`, `[{"payload":{"a":{"b":"c"}}}]`, `[{"payload":{"a":1}}]`, `[{"payload":{"a":null}}]`, `[{"payload":[]}]`,
		`[{"payload":{"":""}}]`, `[{"payload":{"a":"1","a":"2"}}]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body, nil) })
}

// simulatedBatch is 100 of a simulated day's readings, sampled across
// it as the benchmark's ingest batch is, and the directory of the
// population that produced them.
func simulatedBatch(t *testing.T) ([]ObservationDTO, *profile.Directory) {
	t.Helper()
	b, err := sim.SmallDBH().Build()
	if err != nil {
		t.Fatal(err)
	}
	users := sim.GeneratePopulation(b, 50, sim.CampusMix(), 1)
	day := sim.SimulateDay(b, users, sim.DayConfig{Date: testNow, Seed: 1}).Observations
	batch := make([]ObservationDTO, 100)
	for i := range batch {
		batch[i] = observationToDTO(day[i*len(day)/len(batch)])
	}
	return batch, users
}

// TestDecodeBatchAllocs: a 100-row batch shaped like the benchmark's
// ingest — a simulated day's readings — decodes through the scanner
// with one map (its header and its slots) and one string per value for
// each distinct payload encoding, not each payload, and a few more. Its
// device MACs and user IDs are the population's, so with the directory
// they cost nothing; without it, one string each.
func TestDecodeBatchAllocs(t *testing.T) {
	batch, users := simulatedBatch(t)
	subjects, payloads := 0, 0
	distinct := map[string]int{} // a payload's encoding: its value count
	for _, o := range batch {
		for _, s := range []string{o.DeviceMAC, o.UserID} {
			if s == "" {
				continue
			}
			if _, ok := users.Canonical([]byte(s)); !ok {
				t.Fatalf("%q is no occupant's; the directory bound would not hold", s)
			}
			subjects++
		}
		if o.Payload != nil {
			enc, err := json.Marshal(o.Payload)
			if err != nil {
				t.Fatal(err)
			}
			distinct[string(enc)] = len(o.Payload)
			payloads++
		}
	}
	if len(distinct) > payloadSlots {
		t.Fatalf("the batch carries %d distinct payloads, more than the decoder's table holds", len(distinct))
	}
	perPayloads := 0
	for _, values := range distinct {
		perPayloads += values + 2
	}
	raw, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	if payloads <= len(distinct) || subjects == 0 {
		t.Fatalf("the batch carries %d payloads, %d distinct, and %d subject strings; the bound tests nothing", payloads, len(distinct), subjects)
	}
	const extra = 4
	for _, c := range []struct {
		name  string
		users *profile.Directory
		limit int
	}{
		{"no directory", nil, subjects + perPayloads + extra},
		{"directory", users, perPayloads + extra},
	} {
		// One decoder, not the pool's: under the race detector
		// sync.Pool drops what it is handed at random.
		d := &decoder{table: map[string]string{}, users: c.users}
		pooled := make([]ObservationDTO, 0, len(batch))
		decode := func() {
			clear(pooled[:cap(pooled)])
			pooled = pooled[:0]
			d.dropPayloads() // as release would
			if d.data, d.pos = raw, 0; !d.batch(&pooled) {
				t.Fatal("the scanner declined the batch")
			}
		}
		decode()
		if !reflect.DeepEqual(pooled, batch) {
			t.Fatalf("%s: the scanned batch differs from the one marshalled", c.name)
		}
		n := testing.AllocsPerRun(20, decode)
		t.Logf("%s: a 100-row batch: %v allocs (%d subject strings, %d payloads, %d distinct)", c.name, n, subjects, payloads, len(distinct))
		if n > float64(c.limit) {
			t.Fatalf("%s: a 100-row batch: %v allocs, want <= %d", c.name, n, c.limit)
		}
	}
}

// TestBodyPayloadsShareOneMap: within one body, equal payload bytes
// decode to one map and different bytes to different maps; a
// whitespace variant and a repeated key decode to json.Unmarshal's
// values; a payload past the decoder's table still decodes, to a map of
// its own; a body the scanner declines gets json.Unmarshal's maps, one
// per payload; and release leaves the decoder's table holding no map.
func TestBodyPayloadsShareOneMap(t *testing.T) {
	const at = `"sensor_id":"ap-1","kind":"wifi_access_point","time":"2017-06-07T14:00:00Z"`
	body := func(payloads ...string) []byte {
		var b strings.Builder
		b.WriteByte('[')
		for i, p := range payloads {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{%s,"payload":%s}`, at, p)
		}
		b.WriteByte(']')
		return []byte(b.String())
	}
	same := func(a, b map[string]string) bool {
		return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
	}
	decode := func(raw []byte) []ObservationDTO {
		t.Helper()
		var got, want []ObservationDTO
		if code, errBody := decodeOutcome(raw, &got, nil); code != http.StatusOK {
			t.Fatalf("body %s: %d %s", raw, code, errBody)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %s:\n got  %+v\n want %+v", raw, got, want)
		}
		return got
	}

	assoc, disassoc := `{"event":"assoc"}`, `{"event":"disassoc"}`
	spaced, repeated := `{ "event" : "assoc" }`, `{"event":"disassoc","event":"assoc"}`
	got := decode(body(assoc, disassoc, assoc, spaced, repeated, assoc, spaced, repeated))
	for _, pair := range [][2]int{{0, 2}, {0, 5}, {3, 6}, {4, 7}} {
		if !same(got[pair[0]].Payload, got[pair[1]].Payload) {
			t.Errorf("payloads %d and %d have equal bytes but two maps", pair[0], pair[1])
		}
	}
	for _, pair := range [][2]int{{0, 1}, {0, 3}, {0, 4}, {1, 4}, {3, 4}} {
		if same(got[pair[0]].Payload, got[pair[1]].Payload) {
			t.Errorf("payloads %d and %d have different bytes but one map", pair[0], pair[1])
		}
	}

	var distinct []string
	for i := range payloadSlots + 1 {
		distinct = append(distinct, fmt.Sprintf(`{"beacon":"%d"}`, i))
	}
	ninth := distinct[payloadSlots]
	got = decode(body(append(distinct, ninth)...))
	if last := got[payloadSlots:]; same(last[0].Payload, last[1].Payload) {
		t.Error("the payloads past the table share a map")
	}
	for i := range payloadSlots {
		if same(got[i].Payload, got[payloadSlots].Payload) {
			t.Errorf("the payload past the table shares payload %d's map", i)
		}
	}

	declined := bytes.Replace(body(assoc, assoc), []byte(`"kind"`), []byte(`"Kind"`), 1)
	if probe := []ObservationDTO(nil); decodeFast(declined, &probe, nil) {
		t.Fatalf("the scanner decoded %s", declined)
	}
	if got = decode(declined); same(got[0].Payload, got[1].Payload) {
		t.Error("json.Unmarshal's payloads share a map")
	}

	d := getDecoder(body(assoc, assoc, disassoc), nil)
	var batch []ObservationDTO
	if !d.batch(&batch) || d.npayloads != 2 {
		t.Fatalf("the scanner declined the batch or tabled %d payloads, want 2", d.npayloads)
	}
	d.release()
	if d.npayloads != 0 {
		t.Fatalf("a released decoder counts %d payloads", d.npayloads)
	}
	for i, p := range d.payloads {
		if p.raw != nil || p.m != nil {
			t.Fatalf("a released decoder's table still holds payload %d: %s %v", i, p.raw, p.m)
		}
	}
}

// TestDecodeResolvesSubjectsToDirectory: a registered device MAC, user
// ID and subject ID decode to the directory's own strings; an
// unregistered one is a copy that overwriting the body leaves alone;
// with a populated directory the scanner still decodes exactly as
// encoding/json does, over a simulated day's batch too; a node's
// handler stores its directory's MAC; and no pooled decoder keeps the
// directory after its decode.
func TestDecodeResolvesSubjectsToDirectory(t *testing.T) {
	users := profile.NewDirectory()
	users.MustAdd(profile.User{ID: "mary", DeviceMACs: []string{"aa:00:00:00:00:01", "aa:00:00:00:00:02"}})
	mary, _ := users.Lookup("mary")
	const (
		batchBody   = `[{"sensor_id":"ap-1","kind":"wifi_access_point","time":"2017-06-07T14:00:00Z","device_mac":"aa:00:00:00:00:02","user_id":"mary"},{"sensor_id":"ap-1","kind":"wifi_access_point","time":"2017-06-07T14:00:01Z","device_mac":"ff:00:00:00:00:09","user_id":"ghost"}]`
		requestBody = `{"service_id":"concierge","purpose":"providing_service","kind":"ble_beacon","subject_id":"%s"}`
	)
	same := func(what, got, want string) {
		t.Helper()
		if unsafe.StringData(got) != unsafe.StringData(want) {
			t.Errorf("%s %q is not the directory's string", what, got)
		}
	}
	body := []byte(batchBody)
	var batch []ObservationDTO
	if !decodeFast(body, &batch, users) || len(batch) != 2 {
		t.Fatalf("the scanner declined %s", body)
	}
	same("device MAC", batch[0].DeviceMAC, mary.DeviceMACs[1])
	same("user ID", batch[0].UserID, mary.ID)
	var registered, unregistered RequestDTO
	if !decodeFast([]byte(fmt.Sprintf(requestBody, "mary")), &registered, users) {
		t.Fatal("the scanner declined the request")
	}
	same("subject ID", registered.SubjectID, mary.ID)
	request := []byte(fmt.Sprintf(requestBody, "ghost"))
	if !decodeFast(request, &unregistered, users) {
		t.Fatal("the scanner declined the request")
	}
	for _, b := range [][]byte{body, request} {
		for i := range b {
			b[i] = 'x'
		}
	}
	if batch[1].DeviceMAC != "ff:00:00:00:00:09" || batch[1].UserID != "ghost" || unregistered.SubjectID != "ghost" {
		t.Fatalf("unregistered subjects changed with the body: %q %q %q", batch[1].DeviceMAC, batch[1].UserID, unregistered.SubjectID)
	}

	for _, b := range []string{batchBody, fmt.Sprintf(requestBody, "mary"), fmt.Sprintf(requestBody, "ghost")} {
		checkDecode(t, []byte(b), users)
	}
	dtos, population := simulatedBatch(t)
	raw, err := json.Marshal(dtos)
	if err != nil {
		t.Fatal(err)
	}
	if batch, _, _ := checkDecode(t, raw, population); !batch {
		t.Fatal("the scanner declined the simulated batch")
	}

	// A node's handler resolves through the node's own directory.
	bms, client := newServer(t)
	if _, err := client.Ingest(context.Background(), []ObservationDTO{wifiObs("aa:00:00:00:00:01", 0)}); err != nil {
		t.Fatal(err)
	}
	owner, _ := bms.Users().Lookup("mary")
	rows := bms.Store().Query(obstore.Filter{})
	if len(rows) != 1 {
		t.Fatalf("stored %d rows, want 1", len(rows))
	}
	same("stored device MAC", rows[0].DeviceMAC, owner.DeviceMACs[0])

	// Take every pooled decoder; one fresh from New ends the drain.
	for {
		d := decoderPool.Get().(*decoder)
		if d.users != nil {
			t.Fatal("a pooled decoder still holds a directory")
		}
		if len(d.table) == 0 {
			break
		}
	}
}

// TestDecoderTableHoldsNoSubjectIdentifier: decoding batches, data
// requests and preferences interns their sensors, kinds, spaces,
// payload keys, services, purposes and granularities, and none of their
// device MACs, user and subject IDs, payload values or a preference's
// ID, name and source; and the raw MACs a node whose
// sensor pseudonymises them at capture ingested are in no pooled
// decoder's table.
func TestDecoderTableHoldsNoSubjectIdentifier(t *testing.T) {
	d := &decoder{table: map[string]string{}}
	var batch []ObservationDTO
	for i := range 5 {
		batch = append(batch, ObservationDTO{
			SensorID: "ap-1", Kind: "wifi_access_point", SpaceID: "dbh", Time: testNow,
			DeviceMAC: fmt.Sprintf("subject-mac-%d", i), UserID: fmt.Sprintf("subject-user-%d", i),
			Payload: map[string]string{"event": fmt.Sprintf("subject-value-%d", i)},
		})
	}
	raw, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	var out []ObservationDTO
	if d.data, d.pos = raw, 0; !d.batch(&out) {
		t.Fatalf("the scanner declined %s", raw)
	}
	var req RequestDTO
	raw = []byte(`{"service_id":"concierge","purpose":"providing_service","kind":"ble_beacon","subject_id":"subject-id","space_id":"dbh/1","granularity":"room"}`)
	if d.data, d.pos = raw, 0; !d.request(&req) {
		t.Fatalf("the scanner declined %s", raw)
	}
	var pref policy.Preference
	raw = []byte(`{"id":"subject-pref-\u0026","user_id":"subject-owner","name":"subject-name","source":"subject-source",` +
		`"scope":{"space_id":"dbh/2","obs_kind":"bluetooth_beacon","purposes":["comfort"]},"rule":{"action":"deny"}}`)
	if d.data, d.pos = raw, 0; !d.preference(&pref) {
		t.Fatalf("the decoder refused %s: %v", raw, d.perr)
	}
	for _, s := range []string{"ap-1", "wifi_access_point", "dbh", "event", "concierge", "providing_service", "ble_beacon", "dbh/1", "room",
		"dbh/2", "bluetooth_beacon", "comfort"} {
		if _, ok := d.table[s]; !ok {
			t.Errorf("%q is not interned", s)
		}
	}
	for k := range d.table {
		if strings.HasPrefix(k, "subject-") {
			t.Errorf("the table holds the subject identifier %q", k)
		}
	}

	bms := newIngestBMS(t)
	if err := bms.Sensors().Actuate("ap-1", map[string]string{"hash_mac": "true"}); err != nil {
		t.Fatal(err)
	}
	h := NewServer(bms).Handler()
	macs := map[string]bool{}
	interned := false
	for round := 0; round < 10 && !interned; round++ {
		batch = batch[:0]
		for i := range 20 {
			mac := fmt.Sprintf("aa:bb:cc:00:%02x:%02x", round, i)
			macs[mac] = true
			batch = append(batch, ObservationDTO{SensorID: "ap-1", Kind: "wifi_access_point", Time: testNow.Add(time.Duration(round*20+i) * time.Second), DeviceMAC: mac})
		}
		if raw, err = json.Marshal(batch); err != nil {
			t.Fatal(err)
		}
		if rec := post(h, http.MethodPost, "/v1/observations", raw); rec.Code != http.StatusOK {
			t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
		}
		// Take every pooled decoder; one fresh from New ends the drain.
		for {
			d := decoderPool.Get().(*decoder)
			if len(d.table) == 0 {
				break
			}
			_, ok := d.table["ap-1"]
			interned = interned || ok
			for k := range d.table {
				if macs[k] {
					t.Fatalf("a pooled decoder's table holds the raw MAC %q", k)
				}
			}
		}
	}
	if !interned {
		t.Fatal("no pooled decoder interned the sensor; the check saw no table the ingest used")
	}
	for _, o := range bms.Store().Query(obstore.Filter{}) {
		if macs[o.DeviceMAC] {
			t.Fatalf("the hash_mac sensor stored the raw MAC %q", o.DeviceMAC)
		}
	}
}
