package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

// putPreference sends body as PUT /v1/preferences and returns the
// status and the response body.
func putPreference(t *testing.T, c *Client, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, c.base+"/v1/preferences", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestPreferenceWritesRefusedAsWritten: mary opts out of Wi-Fi location
// under ID "x"; then each write below tries to replace it with a rule
// that does not say what its author wrote. Each is refused naming the
// key or field at fault — 400 for a body outside the schema, 422 for a
// name the node cannot resolve, 409 for bob's write over mary's ID —
// and mary's rows stay withheld. (A node that decoded with
// json.Unmarshal and resolved nothing answered 200 to every one and
// released her rows.)
func TestPreferenceWritesRefusedAsWritten(t *testing.T) {
	const optOut = `{"id":"x","user_id":"mary","scope":{"obs_kind":"wifi_access_point"},"rule":{"action":"deny"}}`
	cases := []struct {
		name, body string
		status     int
		names      string
	}{
		{"unknown kind", `{"id":"x","user_id":"mary","scope":{"obs_kind":"wifi"},"rule":{"action":"deny"}}`, 422, "scope.obs_kind"},
		{"unknown purpose", `{"id":"x","user_id":"mary","scope":{"purposes":["providing-servic"]},"rule":{"action":"deny"}}`, 422, "scope.purposes"},
		{"unregistered service", `{"id":"x","user_id":"mary","scope":{"service_id":"concierg"},"rule":{"action":"deny"}}`, 422, "scope.service_id"},
		{"space the model lacks", `{"id":"x","user_id":"mary","scope":{"space_id":"dbh/9/nowhere"},"rule":{"action":"deny"}}`, 422, "scope.space_id"},
		{"window past midnight", `{"id":"x","user_id":"mary","scope":{"window":{"start_minute":1500,"end_minute":2000}},"rule":{"action":"deny"}}`, 422, "scope.window.start_minute"},
		{"misspelt cap", `{"id":"x","user_id":"mary","rule":{"action":"limit","noise_epsilon":0.5,"max_granularty":"building"}}`, 400, "rule.max_granularty"},
		{"unknown scope key", `{"id":"x","user_id":"mary","scope":{"kind":"bluetooth_beacon"},"rule":{"action":"allow"}}`, 400, "scope.kind"},
		{"repeated action", `{"id":"x","user_id":"mary","rule":{"action":"deny","action":"allow"}}`, 400, "rule.action"},
		{"key in another case", `{"id":"x","user_id":"mary","Rule":{"action":"allow"}}`, 400, "Rule"},
		{"null scope", `{"id":"x","user_id":"mary","scope":null,"rule":{"action":"allow"}}`, 400, "scope"},
		{"another user's ID", `{"id":"x","user_id":"bob","scope":{"obs_kind":"wifi_access_point"},"rule":{"action":"allow"}}`, 409, `ID belongs to another user: \"x\"`},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, client := newServer(t)
			if code, body := putPreference(t, client, optOut); code != http.StatusOK {
				t.Fatalf("opt-out: %d %s", code, body)
			}
			if _, err := client.Ingest(ctx, []ObservationDTO{
				wifiObs("aa:00:00:00:00:01", 0), wifiObs("aa:00:00:00:00:01", 1), wifiObs("aa:00:00:00:00:01", 2),
			}); err != nil {
				t.Fatal(err)
			}
			code, body := putPreference(t, client, c.body)
			if code != c.status || !strings.Contains(body, c.names) {
				t.Errorf("PUT %s = %d %s, want %d naming %s", c.body, code, body, c.status, c.names)
			}
			prefs, err := client.Preferences(ctx, "mary")
			if err != nil {
				t.Fatal(err)
			}
			if len(prefs) != 1 || prefs[0].Rule.Action != "deny" || prefs[0].Scope.ObsKind != string(sensor.ObsWiFiConnect) {
				t.Errorf("mary's preferences after the refused write: %+v", prefs)
			}
			for _, space := range []string{"", "dbh"} {
				resp, err := client.RequestUser(ctx, enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
					Kind: sensor.ObsWiFiConnect, SubjectID: "mary", SpaceID: space, Time: testNow})
				if err != nil {
					t.Fatal(err)
				}
				if resp.Decision.Allowed || len(resp.Observations) != 0 {
					t.Errorf("space %q: mary's rows released: %+v, %d rows", space, resp.Decision, len(resp.Observations))
				}
			}
		})
	}
}

// TestPreferenceEchoIsInstalled: a 200 echoes the preference the node
// installed, which GET /v1/preferences lists and which decodes to what
// the body said, however it was spelt — aliases, case in values,
// escapes, empty containers, any key order and whitespace — so an
// accepted body read back decides like the body that was sent.
func TestPreferenceEchoIsInstalled(t *testing.T) {
	_, client := newServer(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	for i := range 300 {
		sent := spellPreference(rng, validPreference(rng, fmt.Sprintf("p%d", i%7), "mary",
			[]string{"dbh", "dbh/1", "dbh/1/r0"}, []string{"concierge"}))
		var want policy.Preference
		if err := decodePreference([]byte(sent), &want, nil); err != nil {
			t.Fatalf("decoder refused %s: %v", sent, err)
		}
		code, echo := putPreference(t, client, sent)
		if code != http.StatusOK {
			t.Fatalf("PUT %s = %d %s", sent, code, echo)
		}
		var echoed PreferenceDTO
		if err := json.Unmarshal([]byte(echo), &echoed); err != nil {
			t.Fatal(err)
		}
		prefs, err := client.Preferences(ctx, "mary")
		if err != nil {
			t.Fatal(err)
		}
		var listed *PreferenceDTO
		for i := range prefs {
			if prefs[i].ID == want.ID {
				listed = &prefs[i]
			}
		}
		if listed == nil || !reflect.DeepEqual(*listed, echoed) {
			t.Fatalf("PUT %s echoed %+v, GET lists %+v", sent, echoed, listed)
		}
		got, err := PreferenceFromDTO(*listed)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("PUT %s reads back as %+v (%v), want %+v", sent, got, err, want)
		}
	}
}

// TestPreferenceRoundTrip: any valid preference passes PreferenceToDTO,
// json.Marshal and the decoder unchanged, whatever its strings hold.
func TestPreferenceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	spaces, services := []string{"dbh", "dbh/1", "a<&>b", "x\u2028y"}, []string{"concierge", "s\"q", "\\x"}
	for i := range 2000 {
		want := validPreference(rng, fmt.Sprintf("id-%d-\"&<%c>", i, rune(0x80+rng.Intn(0x2000))), "mary", spaces, services)
		if rng.Intn(3) == 0 {
			want.Name = string([]rune{rune(0x20 + rng.Intn(0xd000)), '\u00e9', 0x1F642, '\t', '\\', '\u2028', 0})
		}
		body, err := json.Marshal(PreferenceToDTO(want))
		if err != nil {
			t.Fatal(err)
		}
		var got policy.Preference
		if err := decodePreference(body, &got, nil); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v:\n body %s\n decoded %+v (%v)", want, body, got, err)
		}
	}
}

// validPreference is a random preference Preference.Check accepts,
// naming spaces and services from the lists given.
func validPreference(rng *rand.Rand, id, user string, spaces, services []string) policy.Preference {
	pick := func(n int) bool { return rng.Intn(n) == 0 }
	p := policy.Preference{ID: id, UserID: user}
	if pick(2) {
		p.Name, p.Source = "opt & out", []string{"explicit", "learned", "default"}[rng.Intn(3)]
	}
	if pick(2) {
		p.Scope.SpaceID = spaces[rng.Intn(len(spaces))]
	}
	if pick(3) {
		p.Scope.SensorType = sensor.AllTypes()[rng.Intn(len(sensor.AllTypes()))]
	}
	if pick(2) {
		kinds := []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting, sensor.ObsOccupancy, sensor.ObsPowerReading}
		p.Scope.ObsKind = kinds[rng.Intn(len(kinds))]
	}
	for range rng.Intn(3) {
		p.Scope.Purposes = append(p.Scope.Purposes, policy.AllPurposes()[rng.Intn(len(policy.AllPurposes()))])
	}
	if pick(2) {
		p.Scope.ServiceID = services[rng.Intn(len(services))]
	}
	if pick(3) {
		p.Scope.Window = policy.DailyWindow{Start: rng.Intn(1440), End: rng.Intn(1440), Days: policy.Weekdays(rng.Intn(128))}
	}
	switch rng.Intn(3) {
	case 0:
		p.Rule.Action = policy.ActionAllow
	case 1:
		p.Rule.Action = policy.ActionDeny
	default:
		p.Rule = policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.Granularity(1 + rng.Intn(5)),
			NoiseEpsilon: []float64{0, 0.5, 1e-3, 2}[rng.Intn(4)], MinAggregationK: rng.Intn(4)}
	}
	return p
}

// spellPreference writes p as a body a client might send: keys in any
// order with any whitespace, some strings escaped, names in other
// spellings the parsers take, and empty containers that say nothing.
func spellPreference(rng *rand.Rand, p policy.Preference) string {
	str := func(s string) string {
		if rng.Intn(3) > 0 {
			return strconv.Quote(s) // every test string is ASCII
		}
		var b strings.Builder
		b.WriteByte('"')
		for _, r := range s {
			fmt.Fprintf(&b, `\u%04x`, r)
		}
		b.WriteByte('"')
		return b.String()
	}
	obj := func(members []string) string {
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		sep := []string{",", " , ", ",\n\t"}[rng.Intn(3)]
		return "{ " + strings.Join(members, sep) + "\n}"
	}
	var scope, window, rule []string
	sc := p.Scope
	if sc.SpaceID != "" {
		scope = append(scope, `"space_id":`+str(sc.SpaceID))
	}
	if sc.SensorType != 0 {
		scope = append(scope, `"sensor_type":`+str(sc.SensorType.String()))
	} else if rng.Intn(4) == 0 {
		scope = append(scope, `"sensor_type":""`)
	}
	if sc.ObsKind != "" {
		scope = append(scope, `"obs_kind":`+str(string(sc.ObsKind)))
	}
	if len(sc.Purposes) > 0 || rng.Intn(4) == 0 {
		var ps []string
		for _, pp := range sc.Purposes {
			ps = append(ps, str(string(pp)))
		}
		scope = append(scope, `"purposes":[`+strings.Join(ps, ", ")+`]`)
	}
	if sc.ServiceID != "" {
		scope = append(scope, `"service_id":`+str(sc.ServiceID))
	}
	if !sc.Window.IsZero() || rng.Intn(4) == 0 {
		window = append(window, fmt.Sprintf(`"start_minute":%d`, sc.Window.Start), fmt.Sprintf(`"end_minute": %d`, sc.Window.End))
		if sc.Window.Days != 0 || rng.Intn(2) == 0 {
			window = append(window, fmt.Sprintf(`"days":%d`, sc.Window.Days))
		}
		scope = append(scope, `"window":`+obj(window))
	}
	action := p.Rule.Action.String()
	if rng.Intn(3) == 0 {
		action = strings.ToUpper(action)
	}
	rule = append(rule, `"action":`+str(action))
	if g := p.Rule.MaxGranularity; g != 0 {
		name := g.String()
		if alias := map[policy.Granularity]string{policy.GranExact: "fine", policy.GranBuilding: "coarse-grained"}[g]; alias != "" && rng.Intn(2) == 0 {
			name = alias
		}
		rule = append(rule, `"max_granularity":`+str(name))
	} else if rng.Intn(4) == 0 {
		rule = append(rule, `"max_granularity":""`)
	}
	if e := p.Rule.NoiseEpsilon; e != 0 || rng.Intn(4) == 0 {
		rule = append(rule, `"noise_epsilon":`+strconv.FormatFloat(e, 'e', -1, 64))
	}
	if k := p.Rule.MinAggregationK; k != 0 || rng.Intn(4) == 0 {
		rule = append(rule, fmt.Sprintf(`"min_aggregation_k":%d`, k))
	}
	top := []string{`"id":` + str(p.ID), `"user_id":` + str(p.UserID), `"rule":` + obj(rule)}
	if len(scope) > 0 || rng.Intn(2) == 0 {
		top = append(top, `"scope":`+obj(scope))
	}
	if p.Name != "" || rng.Intn(4) == 0 {
		top = append(top, `"name":`+str(p.Name))
	}
	if p.Source != "" {
		top = append(top, `"source":`+str(p.Source))
	}
	return obj(top)
}

// The preference-churn workload's PUT bodies: a limit and an
// after-hours deny.
var churnBodies = []string{
	`{"id":"wl-u0001-0","user_id":"u0001","name":"churn","scope":{"obs_kind":"bluetooth_beacon","service_id":"concierge"},"rule":{"action":"limit","max_granularity":"floor"},"source":"explicit"}`,
	`{"id":"wl-u0001-0","user_id":"u0001","name":"churn","scope":{"obs_kind":"wifi_access_point","window":{"start_minute":1080,"end_minute":480}},"rule":{"action":"deny"},"source":"explicit"}`,
}

// TestDecodePreferenceAllocs: decoding a preference-churn PUT body
// costs at most what json.Unmarshal into PreferenceDTO costs (15
// allocations on these bodies): the decoder is pooled, infrastructure
// strings interned, and only the ID and the name are copied.
func TestDecodePreferenceAllocs(t *testing.T) {
	for _, body := range churnBodies {
		data := []byte(body)
		var p policy.Preference
		got := testing.AllocsPerRun(200, func() {
			if err := decodePreference(data, &p, nil); err != nil {
				t.Fatal(err)
			}
		})
		var dto PreferenceDTO
		ref := testing.AllocsPerRun(200, func() {
			dto = PreferenceDTO{}
			if err := json.Unmarshal(data, &dto); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d-byte body: decodePreference %.0f allocations, json.Unmarshal %.0f", len(data), got, ref)
		if got > 15 || got > ref {
			t.Errorf("%d-byte body: decodePreference allocates %.0f times, json.Unmarshal %.0f; want at most 15 and no more than it", len(data), got, ref)
		}
	}
}

// checkDecodePreference holds the decoder to encoding/json on body:
// what it accepts, encoding/json decodes into a PreferenceDTO that
// converts back to the same preference, and what encoding/json refuses
// it refuses with 400. It reports whether the decoder accepted body.
func checkDecodePreference(t testing.TB, body []byte) bool {
	t.Helper()
	var got policy.Preference
	perr := decodePreference(body, &got, nil)
	var dto PreferenceDTO
	jerr := json.Unmarshal(body, &dto)
	switch {
	case perr == nil && jerr != nil:
		t.Fatalf("body %q: decoded to %+v, encoding/json refuses it: %v", body, got, jerr)
	case perr == nil:
		want, err := PreferenceFromDTO(dto)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q:\n decoded     %+v\n encoding/json %+v (%v)", body, got, want, err)
		}
	case perr.status != http.StatusBadRequest && perr.status != http.StatusUnprocessableEntity:
		t.Fatalf("body %q: refused with %d", body, perr.status)
	case jerr != nil && perr.status != http.StatusBadRequest:
		t.Fatalf("body %q: encoding/json refuses it (%v), the decoder answers %d: %v", body, jerr, perr.status, perr)
	case !reflect.DeepEqual(got, policy.Preference{}):
		t.Fatalf("body %q: refused, but wrote %+v", body, got)
	}
	return perr == nil
}

// genPreference writes a random body near PreferenceDTO's schema.
func genPreference(rng *rand.Rand) []byte {
	g := &bodyGen{rng: rng}
	switch rng.Intn(16) {
	case 0:
		g.tok([]string{"null", "[]", `"x"`, "1"}[rng.Intn(4)])
	default:
		g.object(prefKeys)
	}
	return g.finish()
}

// TestDecodePreferenceMatchesEncodingJSON: over random bodies near the
// schema, checkDecodePreference holds, and the decoder accepts a good
// share of them.
func TestDecodePreferenceMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const rounds = 5000
	accepted := 0
	for range rounds {
		if checkDecodePreference(t, genPreference(rng)) {
			accepted++
		}
	}
	t.Logf("the decoder accepted %d of %d bodies", accepted, rounds)
	if accepted < rounds/10 {
		t.Fatalf("the decoder accepted %d of %d bodies; the property hardly reaches it", accepted, rounds)
	}
}

// FuzzDecodePreference holds the decoder to encoding/json on arbitrary
// bodies (checkDecodePreference).
func FuzzDecodePreference(f *testing.F) {
	for _, s := range append(churnBodies,
		`{}`, `null`, ``, `[]`, `{"id":"x","user_id":"mary","rule":{"action":"deny"}}`,
		`{"id":"a\u0026b","name":"\ud83d\ude42 \ud800 \udc00\ud800","user_id":"\u006dary","rule":{"action":"DENY"}}`,
		`{"scope":{"purposes":[],"window":{},"sensor_type":"","obs_kind":""},"rule":{"action":"limit","max_granularity":"fine","noise_epsilon":-0}}`,
		`{"scope":{"window":{"start_minute":1,"end_minute":2,"days":255}},"rule":{"min_aggregation_k":1e2}}`,
		`{"scope":{"window":{"days":256}}}`, `{"rule":{"noise_epsilon":1e400}}`, `{"rule":{"noise_epsilon":1e-400}}`,
		`{"Rule":{}}`, `{"ſcope":{}}`, `{"id":"a","id":"b"}`, `{"scope":null}`, `{"scope":{"purposes":[null]}}`,
		`{"scope":{"kind":"x"}}`, `{"rule":{"max_granularty":"building"}}`, "{\"id\":\"\xff\"}", `{"id":"\x"}`,
		`{"rule":{"action":"permit"}}`, `{"scope":{"sensor_type":"Quantum"}}`, `{"id":1}`, `{"scope":[]}`, `{"id":"x"} x`,
	) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecodePreference(t, body) })
}

// TestDecodePreferenceNamesTheKey: a body that names a key twice,
// respells one, holds a null or a value of the wrong type, or names no
// granularity or sensor type is refused naming that key, escaped or
// not.
func TestDecodePreferenceNamesTheKey(t *testing.T) {
	for body, key := range map[string]string{
		`{"id":"x","scope":{"window":{"days":1,"days":2}}}`:       "scope.window.days",
		`{"id":"x","rule":{"Noise_Epsilon":1}}`:                   "rule.Noise_Epsilon",
		`{"id":"x","\u0072ule":{"action":null}}`:                  "rule.action",
		`{"id":"x","scope":{"purposes":["comfort",null]}}`:        "scope.purposes",
		`{"id":"x","scope":{"window":{"start_minute":"1"}}}`:      "scope.window.start_minute",
		`{"id":"x","rule":{"max_granularity":"street"}}`:          "rule.max_granularity",
		`{"id":"x","scope":{"sensor_type":"WiFi"}}`:               "scope.sensor_type",
		`{"id":"x","scope":{"window":{"end_minute":1,"x":true}}}`: "scope.window.x",
	} {
		var p policy.Preference
		err := decodePreference([]byte(body), &p, nil)
		if err == nil || err.key != key {
			t.Errorf("%s: %v, want a refusal naming %s", body, err, key)
		}
	}
	if err := decodePreference(bytes.Repeat([]byte(" "), 3), new(policy.Preference), nil); err == nil || err.status != http.StatusBadRequest {
		t.Errorf("blank body: %v", err)
	}
}
