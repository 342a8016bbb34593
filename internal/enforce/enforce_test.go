package enforce

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/service"
	"github.com/tippers/tippers/internal/spatial"
)

func testModel(t testing.TB) *spatial.Model {
	t.Helper()
	m := spatial.NewModel()
	m.MustAdd("", spatial.Space{ID: "dbh", Kind: spatial.KindBuilding})
	for f := 1; f <= 2; f++ {
		fid := fmt.Sprintf("dbh/%d", f)
		m.MustAdd("dbh", spatial.Space{ID: fid, Kind: spatial.KindFloor, Floor: f})
		for r := 0; r < 4; r++ {
			m.MustAdd(fid, spatial.Space{ID: fmt.Sprintf("%s/r%d", fid, r), Kind: spatial.KindRoom, Floor: f})
		}
	}
	return m
}

func testServices(t testing.TB) *service.Registry {
	t.Helper()
	reg := service.NewRegistry()
	reg.MustRegister(service.Concierge())
	reg.MustRegister(service.SmartMeeting())
	reg.MustRegister(service.FoodDelivery())
	return reg
}

func bothEngines(t testing.TB, cfg Config) map[string]Engine {
	t.Helper()
	return map[string]Engine{
		"naive":   NewNaive(cfg),
		"indexed": NewCompiledMemo(cfg, -1),
	}
}

func baseRequest() Request {
	return Request{
		ServiceID:   "concierge",
		Purpose:     policy.PurposeProvidingService,
		Kind:        sensor.ObsWiFiConnect,
		SubjectID:   "mary",
		SpaceID:     "dbh/2/r1",
		Granularity: policy.GranExact,
		Time:        time.Date(2017, time.June, 7, 14, 0, 0, 0, time.UTC),
	}
}

func TestDefaultAllowAndDeny(t *testing.T) {
	for name, eng := range bothEngines(t, Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}) {
		d := eng.Decide(baseRequest(), nil)
		if !d.Allowed || d.Granularity != policy.GranExact {
			t.Errorf("%s: default-allow decision = %+v", name, d)
		}
	}
	for name, eng := range bothEngines(t, Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: false}) {
		d := eng.Decide(baseRequest(), nil)
		if d.Allowed || d.DenyReason == "" {
			t.Errorf("%s: default-deny decision = %+v", name, d)
		}
	}
}

func TestPurposeBinding(t *testing.T) {
	for name, eng := range bothEngines(t, Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}) {
		req := baseRequest()
		req.Purpose = policy.PurposeMarketing // concierge never declared marketing
		if d := eng.Decide(req, nil); d.Allowed {
			t.Errorf("%s: undeclared purpose allowed", name)
		}
		req = baseRequest()
		req.ServiceID = "ghost-service"
		if d := eng.Decide(req, nil); d.Allowed {
			t.Errorf("%s: unknown service allowed", name)
		}
		// Power readings were never declared by concierge.
		req = baseRequest()
		req.Kind = sensor.ObsPowerReading
		if d := eng.Decide(req, nil); d.Allowed {
			t.Errorf("%s: undeclared kind allowed", name)
		}
	}
}

func TestServiceDeclaredGranularityClamps(t *testing.T) {
	// Food delivery declared floor granularity; even an exact request
	// must be clamped to floor.
	for name, eng := range bothEngines(t, Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}) {
		req := baseRequest()
		req.ServiceID = "food-delivery"
		d := eng.Decide(req, nil)
		if !d.Allowed || d.Granularity != policy.GranFloor {
			t.Errorf("%s: decision = %+v, want floor clamp", name, d)
		}
	}
}

func TestDenyPreference(t *testing.T) {
	for name, eng := range bothEngines(t, Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}) {
		for _, p := range policy.Preference2NoLocation("mary") {
			if err := eng.AddPreference(p); err != nil {
				t.Fatal(err)
			}
		}
		d := eng.Decide(baseRequest(), nil)
		if d.Allowed {
			t.Errorf("%s: Preference 2 did not deny: %+v", name, d)
		}
		// Another user is unaffected.
		req := baseRequest()
		req.SubjectID = "bob"
		if d := eng.Decide(req, nil); !d.Allowed {
			t.Errorf("%s: other subject denied: %+v", name, d)
		}
	}
}

func TestLimitPreferenceClampsGranularity(t *testing.T) {
	for name, eng := range bothEngines(t, Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}) {
		if err := eng.AddPreference(policy.CoarseLocationPreference("mary", "concierge")); err != nil {
			t.Fatal(err)
		}
		d := eng.Decide(baseRequest(), nil)
		if !d.Allowed || d.Granularity != policy.GranBuilding {
			t.Errorf("%s: decision = %+v, want building granularity", name, d)
		}
		if len(d.MatchedPreferences) != 1 {
			t.Errorf("%s: matched = %v", name, d.MatchedPreferences)
		}
	}
}

// TestPolicy2OverridesPreference2 is the paper's central enforcement
// scenario at the engine level: emergency requests are released
// despite the opt-out, naming the overridden preference;
// non-emergency requests stay denied.
func TestPolicy2OverridesPreference2(t *testing.T) {
	svcReg := testServices(t)
	svcReg.MustRegister(service.Service{
		ID:        "bms-emergency",
		Name:      "BMS Emergency Response",
		Developer: service.DeveloperBuilding,
		Declares: []service.DataRequest{{
			ObsKind:     sensor.ObsWiFiConnect,
			Purpose:     policy.PurposeEmergencyResponse,
			Granularity: policy.GranExact,
		}},
	})
	for name, eng := range bothEngines(t, Config{Spaces: testModel(t), Services: svcReg, DefaultAllow: true}) {
		if err := eng.AddPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
			t.Fatal(err)
		}
		for _, p := range policy.Preference2NoLocation("mary") {
			if err := eng.AddPreference(p); err != nil {
				t.Fatal(err)
			}
		}
		// Emergency request: released, the override named.
		req := baseRequest()
		req.ServiceID = "bms-emergency"
		req.Purpose = policy.PurposeEmergencyResponse
		d := eng.Decide(req, nil)
		if !d.Allowed {
			t.Fatalf("%s: emergency request denied: %+v", name, d)
		}
		if len(d.Overridden) == 0 || d.OverridePolicyID != "policy-2-emergency-location" {
			t.Errorf("%s: override not named: %+v", name, d)
		}
		// Non-emergency request: still denied. Policy 2's scope names
		// emergency_response, so it cannot be stretched to concierge.
		d = eng.Decide(baseRequest(), nil)
		if d.Allowed {
			t.Errorf("%s: override leaked to non-emergency purpose: %+v", name, d)
		}
	}
}

// TestOnlyDataFlowPoliciesOverride: Policy 2 registered as an
// access-control or automation policy governs no data flow, so it
// overrides nothing: mary's opt-out holds for the emergency request.
func TestOnlyDataFlowPoliciesOverride(t *testing.T) {
	svcReg := testServices(t)
	svcReg.MustRegister(service.Service{
		ID: "bms-emergency", Name: "BMS Emergency Response", Developer: service.DeveloperBuilding,
		Declares: []service.DataRequest{{ObsKind: sensor.ObsWiFiConnect, Purpose: policy.PurposeEmergencyResponse, Granularity: policy.GranExact}},
	})
	for _, kind := range []policy.PolicyKind{policy.KindAccessControl, policy.KindAutomation} {
		for name, eng := range bothEngines(t, Config{Spaces: testModel(t), Services: svcReg, DefaultAllow: true}) {
			p2 := policy.Policy2EmergencyLocation("dbh")
			p2.Kind = kind
			if err := eng.AddPolicy(p2); err != nil {
				t.Fatal(err)
			}
			for _, p := range policy.Preference2NoLocation("mary") {
				if err := eng.AddPreference(p); err != nil {
					t.Fatal(err)
				}
			}
			req := baseRequest()
			req.ServiceID, req.Purpose = "bms-emergency", policy.PurposeEmergencyResponse
			if d := eng.Decide(req, nil); d.Allowed || len(d.Overridden) > 0 || d.OverridePolicyID != "" {
				t.Errorf("%s: %v override policy decided %+v, want mary's deny", name, kind, d)
			}
		}
	}
}

// TestWindowedPreference: Preference 1 governs the rows captured after
// hours. At capture instants either side of every window edge the
// memoized Compiled engine decides as Naive does, and the window class
// tells two instants apart exactly when one of mary's windows does.
func TestWindowedPreference(t *testing.T) {
	cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}
	naive, memoized := NewNaive(cfg), NewCompiled(cfg)
	night := policy.DailyWindow{Start: 22 * 60, End: 2 * 60, Days: policy.Wednesday}
	for _, p := range []policy.Preference{policy.Preference1OfficeOccupancy("mary", "dbh/2/r1"),
		{ID: "night-coarse", UserID: "mary", Scope: policy.Scope{ObsKind: sensor.ObsOccupancy, Window: night},
			Rule: policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranBuilding}}} {
		for _, e := range []Engine{naive, memoized} {
			if err := e.AddPreference(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	req := Request{ServiceID: "smart-meeting", Purpose: policy.PurposeProvidingService, Kind: sensor.ObsOccupancy,
		SubjectID: "mary", SpaceID: "dbh/2/r1"}
	domain := memoized.Domain("mary")
	wed := time.Date(2017, time.June, 7, 0, 0, 0, 0, time.UTC)
	for _, edge := range []time.Duration{2 * time.Hour, 8 * time.Hour, 18 * time.Hour, 22 * time.Hour, 26 * time.Hour, 32 * time.Hour} {
		for _, side := range []time.Duration{-time.Minute, -time.Second, 0, time.Minute} {
			req.Time = wed.Add(edge + side)
			want := normalizeDecision(naive.Decide(req, nil))
			for pass := 0; pass < 2; pass++ {
				if got := normalizeDecision(memoized.Decide(req, nil)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v, pass %d: compiled %+v, naive %+v", req.Time, pass, got, want)
				}
			}
			if want.Allowed == policy.AfterHours.Contains(req.Time) {
				t.Errorf("%v: allowed = %v, inside Preference 1's window %v", req.Time, want.Allowed, !want.Allowed)
			}
		}
		before, at := wed.Add(edge-time.Second), wed.Add(edge)
		same := policy.AfterHours.Contains(before) == policy.AfterHours.Contains(at) && night.Contains(before) == night.Contains(at)
		if got := domain.Class(before) == domain.Class(at); got != same {
			t.Errorf("edge %v: one class either side = %v, want %v", at, got, same)
		}
	}
}

func TestSpatialScopedPreference(t *testing.T) {
	for name, eng := range bothEngines(t, Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}) {
		// Deny everything on floor 2 only.
		if err := eng.AddPreference(policy.Preference{
			ID: "floor2-deny", UserID: "mary",
			Scope: policy.Scope{SpaceID: "dbh/2"},
			Rule:  policy.Rule{Action: policy.ActionDeny},
		}); err != nil {
			t.Fatal(err)
		}
		req := baseRequest() // dbh/2/r1 is on floor 2
		if d := eng.Decide(req, nil); d.Allowed {
			t.Errorf("%s: floor-2 deny missed a room on floor 2", name)
		}
		req.SpaceID = "dbh/1/r0"
		if d := eng.Decide(req, nil); !d.Allowed {
			t.Errorf("%s: floor-2 deny leaked to floor 1", name)
		}
	}
}

func TestRemoveAndReplacePreference(t *testing.T) {
	for name, eng := range bothEngines(t, Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}) {
		pref := policy.CoarseLocationPreference("mary", "concierge")
		if err := eng.AddPreference(pref); err != nil {
			t.Fatal(err)
		}
		if _, prefs := eng.Counts(); prefs != 1 {
			t.Errorf("%s: count = %d", name, prefs)
		}
		// Replace with a deny under the same ID.
		pref.Rule = policy.Rule{Action: policy.ActionDeny}
		if err := eng.AddPreference(pref); err != nil {
			t.Fatal(err)
		}
		if _, prefs := eng.Counts(); prefs != 1 {
			t.Errorf("%s: replace duplicated: %d", name, prefs)
		}
		if d := eng.Decide(baseRequest(), nil); d.Allowed {
			t.Errorf("%s: replaced rule not in effect", name)
		}
		if !eng.RemovePreference(pref.ID) {
			t.Errorf("%s: RemovePreference failed", name)
		}
		if eng.RemovePreference(pref.ID) {
			t.Errorf("%s: double remove succeeded", name)
		}
		if d := eng.Decide(baseRequest(), nil); !d.Allowed {
			t.Errorf("%s: removed rule still in effect", name)
		}
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	for name, eng := range bothEngines(t, Config{}) {
		if err := eng.AddPreference(policy.Preference{ID: "x"}); err == nil {
			t.Errorf("%s: invalid preference accepted", name)
		}
		if err := eng.AddPolicy(policy.BuildingPolicy{ID: "x"}); err == nil {
			t.Errorf("%s: invalid policy accepted", name)
		}
	}
}

func TestGroupScopedPreference(t *testing.T) {
	// Group scopes appear in building policies, not user preferences
	// (Preference.Check forbids them), but the engine must still match
	// subject groups for override policies scoped to groups.
	svcReg := testServices(t)
	cfg := Config{Spaces: testModel(t), Services: svcReg, DefaultAllow: true}
	for name, eng := range bothEngines(t, cfg) {
		bp := policy.Policy2EmergencyLocation("dbh")
		bp.Scope.SubjectGroups = []profile.Group{profile.GroupStudent}
		if err := eng.AddPolicy(bp); err != nil {
			t.Fatal(err)
		}
		for _, p := range policy.Preference2NoLocation("mary") {
			if err := eng.AddPreference(p); err != nil {
				t.Fatal(err)
			}
		}
		svcReg.Get("concierge") // keep registry warm; not essential
		req := baseRequest()
		req.ServiceID = ""
		req.Purpose = policy.PurposeEmergencyResponse
		// mary is a student: override applies.
		if d := eng.Decide(req, []profile.Group{profile.GroupStudent}); !d.Allowed {
			t.Errorf("%s: student not overridden: %+v", name, d)
		}
		// mary as faculty: policy's group scope does not match; deny holds.
		if d := eng.Decide(req, []profile.Group{profile.GroupFaculty}); d.Allowed {
			t.Errorf("%s: non-student overridden", name)
		}
	}
}

func normalizeDecision(d Decision) Decision {
	d.PoliciesConsulted = 0
	d.PreferencesConsulted = 0
	d.FromCache = false
	sort.Strings(d.MatchedPreferences)
	sort.Strings(d.Overridden)
	return d
}

// TestEngineEquivalenceProperty: Naive and Indexed must make
// identical decisions on randomized rule sets and requests. This is
// the correctness half of the E2 ablation.
func TestEngineEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2017))
	spaces := testModel(t)
	svcs := testServices(t)
	cfg := Config{Spaces: spaces, Services: svcs, DefaultAllow: true}
	naive := NewNaive(cfg)
	indexed := NewCompiledMemo(cfg, -1)

	users := []string{"u0", "u1", "u2", "u3", "u4"}
	kinds := []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting, sensor.ObsOccupancy, ""}
	spacesList := []string{"", "dbh", "dbh/1", "dbh/2", "dbh/2/r1"}
	serviceIDs := []string{"", "concierge", "smart-meeting", "food-delivery"}
	purposes := []policy.Purpose{policy.PurposeProvidingService, policy.PurposeEmergencyResponse}

	randRule := func() policy.Rule {
		switch r.Intn(3) {
		case 0:
			return policy.Rule{Action: policy.ActionAllow}
		case 1:
			return policy.Rule{Action: policy.ActionDeny}
		default:
			g := policy.Granularity(1 + r.Intn(5))
			return policy.Rule{Action: policy.ActionLimit, MaxGranularity: g}
		}
	}

	for i := 0; i < 300; i++ {
		p := policy.Preference{
			ID:     fmt.Sprintf("pref-%d", i),
			UserID: users[r.Intn(len(users))],
			Scope: policy.Scope{
				SpaceID:   spacesList[r.Intn(len(spacesList))],
				ObsKind:   kinds[r.Intn(len(kinds))],
				ServiceID: serviceIDs[r.Intn(len(serviceIDs))],
			},
			Rule: randRule(),
		}
		if r.Intn(4) == 0 {
			p.Scope.Window = policy.AfterHours
		}
		if err := naive.AddPreference(p); err != nil {
			t.Fatal(err)
		}
		if err := indexed.AddPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		bp := policy.Policy2EmergencyLocation("dbh")
		bp.ID = fmt.Sprintf("policy-override-%d", i)
		bp.Scope.ObsKind = kinds[r.Intn(3)]
		if err := naive.AddPolicy(bp); err != nil {
			t.Fatal(err)
		}
		if err := indexed.AddPolicy(bp); err != nil {
			t.Fatal(err)
		}
	}

	for trial := 0; trial < 2000; trial++ {
		req := Request{
			ServiceID:   serviceIDs[r.Intn(len(serviceIDs))],
			Purpose:     purposes[r.Intn(len(purposes))],
			Kind:        kinds[r.Intn(len(kinds))],
			SubjectID:   users[r.Intn(len(users))],
			SpaceID:     spacesList[1+r.Intn(len(spacesList)-1)],
			Granularity: policy.Granularity(1 + r.Intn(5)),
			Time:        time.Date(2017, time.June, 1+r.Intn(28), r.Intn(24), 0, 0, 0, time.UTC),
		}
		var groups []profile.Group
		if r.Intn(2) == 0 {
			groups = []profile.Group{profile.GroupStudent}
		}
		a := normalizeDecision(naive.Decide(req, groups))
		b := normalizeDecision(indexed.Decide(req, groups))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: engines disagree\nreq: %+v\nnaive:   %+v\nindexed: %+v", trial, req, a, b)
		}
	}

	// The whole point of the index: far fewer rules consulted.
	req := baseRequest()
	req.SubjectID = "u0"
	an := naive.Decide(req, nil)
	ax := indexed.Decide(req, nil)
	if ax.PreferencesConsulted >= an.PreferencesConsulted {
		t.Errorf("index consulted %d prefs, naive %d — no reduction", ax.PreferencesConsulted, an.PreferencesConsulted)
	}
}

func TestApplyDecision(t *testing.T) {
	spaces := testModel(t)
	tr := privacy.NewTransformer(spaces, 1, []byte("k"))
	obs := []sensor.Observation{
		{SensorID: "ap-1", Kind: sensor.ObsWiFiConnect, SpaceID: "dbh/2/r1", Value: 1, Time: time.Now()},
		{SensorID: "ap-2", Kind: sensor.ObsWiFiConnect, SpaceID: "dbh/1/r0", Value: 2, Time: time.Now()},
	}
	denied := Decision{Allowed: false}
	if got, err := ApplyDecision(denied, obs, tr); err != nil || got != nil {
		t.Errorf("denied: %v, %v", got, err)
	}
	allowed := Decision{Allowed: true, Effective: policy.Rule{Action: policy.ActionAllow}, Granularity: policy.GranExact}
	got, err := ApplyDecision(allowed, obs, tr)
	if err != nil || len(got) != 2 || got[0].SpaceID != "dbh/2/r1" {
		t.Errorf("allowed: %+v, %v", got, err)
	}
	coarse := Decision{Allowed: true, Effective: policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranFloor}, Granularity: policy.GranFloor}
	got, err = ApplyDecision(coarse, obs, tr)
	if err != nil || len(got) != 2 || got[0].SpaceID != "dbh/2" || got[1].SpaceID != "dbh/1" {
		t.Errorf("coarse: %+v, %v", got, err)
	}
	noisy := Decision{Allowed: true, Effective: policy.Rule{Action: policy.ActionLimit, NoiseEpsilon: 0.5}, Granularity: policy.GranExact}
	got, err = ApplyDecision(noisy, obs, tr)
	if err != nil || len(got) != 2 {
		t.Fatalf("noisy: %v", err)
	}
	if got[0].Value == 1 && got[1].Value == 2 {
		t.Error("noise not applied")
	}
	if obs[0].Value != 1 || obs[1].Value != 2 {
		t.Error("noise mutated the stored rows")
	}
	if _, err := ApplyDecision(allowed, obs, nil); err == nil {
		t.Error("nil transformer accepted")
	}
}

func TestZeroGranularityRequestDefaultsToExact(t *testing.T) {
	for name, eng := range bothEngines(t, Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}) {
		req := baseRequest()
		req.Granularity = 0
		d := eng.Decide(req, nil)
		if !d.Allowed || d.Granularity != policy.GranExact {
			t.Errorf("%s: zero granularity = %+v", name, d)
		}
	}
}
