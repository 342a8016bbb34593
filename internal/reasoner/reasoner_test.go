package reasoner

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/spatial"
)

func testModel(t testing.TB) *spatial.Model {
	t.Helper()
	m := spatial.NewModel()
	m.MustAdd("", spatial.Space{ID: "dbh", Kind: spatial.KindBuilding})
	m.MustAdd("dbh", spatial.Space{ID: "dbh/2", Kind: spatial.KindFloor, Floor: 2})
	m.MustAdd("dbh/2", spatial.Space{ID: "dbh/2/2065", Kind: spatial.KindRoom, Floor: 2})
	return m
}

// TestPaperConflictPolicy2VsPreference2 reproduces the paper's §III.B
// example: Policy 2 (emergency location collection, override) clashes
// with Preference 2 (no location sharing). The building must win with
// user notification.
func TestPaperConflictPolicy2VsPreference2(t *testing.T) {
	r := NewWithGroups(testModel(t), nil)
	p2 := policy.Policy2EmergencyLocation("dbh")
	prefs := policy.Preference2NoLocation("mary")

	conflicts := r.Detect([]policy.BuildingPolicy{p2}, prefs)
	// Preference 2 produces one deny per location-bearing kind; the
	// WiFi one conflicts with Policy 2 (the BLE one does not overlap
	// Policy 2's WiFi scope).
	var hit *Conflict
	for i := range conflicts {
		if conflicts[i].Kind == PolicyVsPreference && conflicts[i].PolicyID == p2.ID {
			hit = &conflicts[i]
		}
	}
	if hit == nil {
		t.Fatalf("no policy-vs-preference conflict detected: %+v", conflicts)
	}
	res := hit.Resolution
	if res.Winner != "building" || !res.OverrideApplied {
		t.Errorf("resolution = %+v, want building override", res)
	}
	if res.NotifyUserID != "mary" {
		t.Errorf("user not notified: %+v", res)
	}
	if res.EffectiveRule.Action != policy.ActionAllow {
		t.Errorf("effective rule = %+v, want allow (collection proceeds)", res.EffectiveRule)
	}
}

func TestNonOverridePolicyLosesToPreference(t *testing.T) {
	r := NewWithGroups(testModel(t), nil)
	bp := policy.Policy2EmergencyLocation("dbh")
	bp.Override = false
	bp.Scope.Purposes = []policy.Purpose{policy.PurposeAnalytics}
	bp.ID = "policy-analytics"
	pref := policy.Preference{
		ID:     "pref-deny",
		UserID: "mary",
		Scope:  policy.Scope{ObsKind: sensor.ObsWiFiConnect},
		Rule:   policy.Rule{Action: policy.ActionDeny},
	}
	conflicts := r.Detect([]policy.BuildingPolicy{bp}, []policy.Preference{pref})
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %+v", conflicts)
	}
	res := conflicts[0].Resolution
	if res.Winner != "user" || res.OverrideApplied {
		t.Errorf("resolution = %+v, want user wins", res)
	}
	if res.EffectiveRule.Action != policy.ActionDeny {
		t.Errorf("effective rule = %+v", res.EffectiveRule)
	}
}

func TestAllowPreferenceDoesNotConflict(t *testing.T) {
	r := NewWithGroups(testModel(t), nil)
	bp := policy.Policy2EmergencyLocation("dbh")
	pref := policy.Preference{
		ID:     "pref-allow",
		UserID: "mary",
		Scope:  policy.Scope{ObsKind: sensor.ObsWiFiConnect},
		Rule:   policy.Rule{Action: policy.ActionAllow},
	}
	if got := r.Detect([]policy.BuildingPolicy{bp}, []policy.Preference{pref}); len(got) != 0 {
		t.Errorf("allow preference flagged: %+v", got)
	}
}

func TestAutomationPoliciesSkipped(t *testing.T) {
	r := NewWithGroups(testModel(t), nil)
	p1 := policy.Policy1Comfort("dbh", 70)
	prefs := policy.Preference2NoLocation("mary")
	for _, c := range r.Detect([]policy.BuildingPolicy{p1}, prefs) {
		if c.PolicyID == p1.ID {
			t.Errorf("automation policy flagged: %+v", c)
		}
	}
}

func TestDisjointScopesNoConflict(t *testing.T) {
	r := NewWithGroups(testModel(t), nil)
	bp := policy.Policy2EmergencyLocation("dbh") // WiFi scope
	pref := policy.Preference{
		ID:     "pref-ble",
		UserID: "mary",
		Scope:  policy.Scope{ObsKind: sensor.ObsBLESighting},
		Rule:   policy.Rule{Action: policy.ActionDeny},
	}
	if got := r.Detect([]policy.BuildingPolicy{bp}, []policy.Preference{pref}); len(got) != 0 {
		t.Errorf("disjoint scopes flagged: %+v", got)
	}
}

// TestStrategies pins the one resolution, the engine's: an override
// policy wins and notifies the preference's owner, and otherwise the
// preference applies as it stands, a limit or a deny alike.
func TestStrategies(t *testing.T) {
	for _, rule := range []policy.Rule{
		{Action: policy.ActionLimit, MaxGranularity: policy.GranFloor},
		{Action: policy.ActionDeny},
	} {
		pref := policy.Preference{
			ID:     "pref-restrict",
			UserID: "mary",
			Scope:  policy.Scope{ObsKind: sensor.ObsWiFiConnect},
			Rule:   rule,
		}
		override := policy.Policy2EmergencyLocation("dbh")
		logging := override
		logging.ID, logging.Override = "policy-logging", false
		logging.Scope.Purposes = []policy.Purpose{policy.PurposeLogging}
		conflicts := NewWithGroups(testModel(t), nil).Detect([]policy.BuildingPolicy{override, logging}, []policy.Preference{pref})
		if len(conflicts) != 2 {
			t.Fatalf("%v: conflicts = %+v", rule.Action, conflicts)
		}
		want := map[string]Resolution{
			override.ID: {Winner: "building", EffectiveRule: policy.Rule{Action: policy.ActionAllow}, OverrideApplied: true, NotifyUserID: "mary"},
			logging.ID:  {Winner: "user", EffectiveRule: rule},
		}
		for _, c := range conflicts {
			got := c.Resolution
			got.Explanation = ""
			if got != want[c.PolicyID] {
				t.Errorf("%v vs %s: resolution = %+v, want %+v", rule.Action, c.PolicyID, got, want[c.PolicyID])
			}
		}
	}
}

// TestPolicySubjectScope: a policy conflicts only with the preferences
// of subjects its SubjectIDs and SubjectGroups take in, and only where
// the two windows share a minute.
func TestPolicySubjectScope(t *testing.T) {
	groups := map[string][]profile.Group{"mary": {profile.GroupGradStudent}, "bob": {profile.GroupFaculty}}
	r := NewWithGroups(testModel(t), func(u string) []profile.Group { return groups[u] })
	var prefs []policy.Preference
	for _, u := range []string{"mary", "bob", "carol"} {
		prefs = append(prefs, policy.Preference2NoLocation(u)...)
	}
	sort.Slice(prefs, func(i, j int) bool { return prefs[i].ID < prefs[j].ID })
	notified := func(bp policy.BuildingPolicy) []string {
		var out []string
		for _, c := range r.Detect([]policy.BuildingPolicy{bp}, prefs) {
			out = append(out, c.Resolution.NotifyUserID)
		}
		return out
	}
	tests := []struct {
		name   string
		adjust func(*policy.Scope)
		want   []string
	}{
		{"unscoped", func(*policy.Scope) {}, []string{"bob", "carol", "mary"}},
		{"subject bob", func(s *policy.Scope) { s.SubjectIDs = []string{"bob"} }, []string{"bob"}},
		{"grad students", func(s *policy.Scope) { s.SubjectGroups = []profile.Group{profile.GroupGradStudent} }, []string{"mary"}},
		{"bob among grad students", func(s *policy.Scope) {
			s.SubjectIDs, s.SubjectGroups = []string{"bob"}, []profile.Group{profile.GroupGradStudent}
		}, nil},
		{"staff, a group nobody is in", func(s *policy.Scope) { s.SubjectGroups = []profile.Group{profile.GroupStaff} }, nil},
	}
	for _, tt := range tests {
		bp := policy.Policy2EmergencyLocation("dbh")
		tt.adjust(&bp.Scope)
		if got := notified(bp); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("%s: notified %v, want %v", tt.name, got, tt.want)
		}
	}

	// A business-hours policy never meets an after-hours preference.
	bp := policy.Policy2EmergencyLocation("dbh")
	bp.Scope.Window = policy.BusinessHours
	pref := policy.Preference2NoLocation("mary")[0]
	pref.Scope.Window = policy.AfterHours
	if got := r.Detect([]policy.BuildingPolicy{bp}, []policy.Preference{pref}); len(got) != 0 {
		t.Errorf("disjoint windows conflict: %+v", got)
	}
	pref.Scope.Window = policy.DailyWindow{Start: 7 * 60, End: 9 * 60, Days: policy.Monday}
	if got := r.Detect([]policy.BuildingPolicy{bp}, []policy.Preference{pref}); len(got) != 1 {
		t.Errorf("intersecting windows: conflicts = %+v", got)
	}
}

// TestOnlyDataFlowPoliciesConflict: an override access-control or
// automation policy overrides nothing, so it records no conflict.
func TestOnlyDataFlowPoliciesConflict(t *testing.T) {
	r := NewWithGroups(testModel(t), nil)
	for _, kind := range []policy.PolicyKind{policy.KindAccessControl, policy.KindAutomation} {
		bp := policy.Policy2EmergencyLocation("dbh")
		bp.Kind = kind
		if got := r.Detect([]policy.BuildingPolicy{bp}, policy.Preference2NoLocation("mary")); len(got) != 0 {
			t.Errorf("%v override policy conflicts: %+v", kind, got)
		}
	}
}

func TestPreferencePairConflicts(t *testing.T) {
	r := NewWithGroups(testModel(t), nil)
	allow := policy.Preference{
		ID: "p-allow", UserID: "mary",
		Scope: policy.Scope{ServiceID: "concierge"},
		Rule:  policy.Rule{Action: policy.ActionAllow},
	}
	deny := policy.Preference{
		ID: "p-deny", UserID: "mary",
		Scope: policy.Scope{ServiceID: "concierge"},
		Rule:  policy.Rule{Action: policy.ActionDeny},
	}
	conflicts := r.Detect(nil, []policy.Preference{allow, deny})
	if len(conflicts) != 1 || conflicts[0].Kind != PreferenceVsPreference {
		t.Fatalf("conflicts = %+v", conflicts)
	}
	if conflicts[0].Resolution.EffectiveRule.Action != policy.ActionDeny {
		t.Errorf("merged rule = %+v, want deny", conflicts[0].Resolution.EffectiveRule)
	}

	// Different users never pair-conflict.
	deny.UserID = "bob"
	deny.ID = "p-deny-bob"
	if got := r.Detect(nil, []policy.Preference{allow, deny}); len(got) != 0 {
		t.Errorf("cross-user pair flagged: %+v", got)
	}

	// Identical rules on overlapping scopes are fine.
	dup := allow
	dup.ID = "p-allow-2"
	if got := r.Detect(nil, []policy.Preference{allow, dup}); len(got) != 0 {
		t.Errorf("identical rules flagged: %+v", got)
	}
}

func TestCombineRules(t *testing.T) {
	allow := policy.Rule{Action: policy.ActionAllow}
	deny := policy.Rule{Action: policy.ActionDeny}
	floor := policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranFloor}
	room := policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranRoom}
	noise1 := policy.Rule{Action: policy.ActionLimit, NoiseEpsilon: 1}
	noise01 := policy.Rule{Action: policy.ActionLimit, NoiseEpsilon: 0.1}
	agg := policy.Rule{Action: policy.ActionLimit, MinAggregationK: 5}

	tests := []struct {
		name string
		in   []policy.Rule
		want policy.Rule
	}{
		{"empty -> allow", nil, allow},
		{"allow only", []policy.Rule{allow, allow}, allow},
		{"deny dominates", []policy.Rule{allow, floor, deny}, deny},
		{"limit beats allow", []policy.Rule{allow, floor}, floor},
		{"coarsest granularity", []policy.Rule{room, floor}, floor},
		{"smallest epsilon", []policy.Rule{noise1, noise01}, policy.Rule{Action: policy.ActionLimit, NoiseEpsilon: 0.1}},
		{"largest K", []policy.Rule{agg, {Action: policy.ActionLimit, MinAggregationK: 2}}, agg},
		{
			"mixed mechanisms union",
			[]policy.Rule{floor, noise01, agg},
			policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranFloor, NoiseEpsilon: 0.1, MinAggregationK: 5},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CombineRules(tt.in...); got != tt.want {
				t.Errorf("CombineRules = %+v, want %+v", got, tt.want)
			}
		})
	}
}

// TestCombineRulesProperties: order-independence and idempotence.
func TestCombineRulesProperties(t *testing.T) {
	rules := []policy.Rule{
		{Action: policy.ActionAllow},
		{Action: policy.ActionLimit, MaxGranularity: policy.GranFloor},
		{Action: policy.ActionLimit, NoiseEpsilon: 0.5},
		{Action: policy.ActionLimit, MinAggregationK: 3},
	}
	forward := CombineRules(rules...)
	reversed := CombineRules(rules[3], rules[2], rules[1], rules[0])
	if forward != reversed {
		t.Errorf("CombineRules order-dependent: %+v vs %+v", forward, reversed)
	}
	again := CombineRules(forward, forward)
	if again != forward {
		t.Errorf("CombineRules not idempotent: %+v vs %+v", again, forward)
	}
}

func TestDetectDeterministicOrder(t *testing.T) {
	r := NewWithGroups(testModel(t), nil)
	p2 := policy.Policy2EmergencyLocation("dbh")
	prefs := append(policy.Preference2NoLocation("mary"), policy.Preference2NoLocation("alice")...)
	a := r.Detect([]policy.BuildingPolicy{p2}, prefs)
	b := r.Detect([]policy.BuildingPolicy{p2}, prefs)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].PreferenceID != b[i].PreferenceID || a[i].OtherPreferenceID != b[i].OtherPreferenceID {
			t.Fatalf("nondeterministic order at %d", i)
		}
	}
}

// TestDeltaEntryPointsCoverDetect: installing the paper's preferences
// one at a time through DetectPreference, or the policies one at a time
// through DetectPolicy over the installed preferences, derives exactly
// the conflicts a full Detect reports.
func TestDeltaEntryPointsCoverDetect(t *testing.T) {
	r := NewWithGroups(testModel(t), nil)
	pols := []policy.BuildingPolicy{
		policy.Policy1Comfort("dbh", 70), // automation: never conflicts
		policy.Policy2EmergencyLocation("dbh"),
		{ID: "occupancy-analytics", Kind: policy.KindCollection, Scope: policy.Scope{SpaceID: "dbh/2"}},
	}
	var prefs []policy.Preference
	for _, u := range []string{"mary", "alice"} {
		prefs = append(prefs, policy.Preference2NoLocation(u)...)
		prefs = append(prefs, policy.Preference1OfficeOccupancy(u, "dbh/2/2065"),
			policy.CoarseLocationPreference(u, "concierge"),
			policy.Preference3ConciergeFineLocation(u, "concierge")) // an allow rule: pairs only
	}
	// Over ID-sorted input Detect names the lower ID first in a pair, as
	// the delta always does.
	sort.Slice(prefs, func(i, j int) bool { return prefs[i].ID < prefs[j].ID })
	want := r.Detect(pols, prefs)
	if len(want) < 10 {
		t.Fatalf("fixture yields only %d conflicts", len(want))
	}

	byUser := make(map[string][]policy.Preference)
	var byPreference, byPolicy []Conflict
	// Installed in reverse, so each preference meets both lower and
	// higher IDs among its owner's rules.
	for i := len(prefs) - 1; i >= 0; i-- {
		p := prefs[i]
		byUser[p.UserID] = append(byUser[p.UserID], p)
		byPreference = append(byPreference, r.DetectPreference(p, pols, byUser[p.UserID])...)
	}
	SortConflicts(byPreference)
	if !reflect.DeepEqual(byPreference, want) {
		t.Errorf("DetectPreference per install: %d conflicts, Detect has %d; first difference %s",
			len(byPreference), len(want), firstDifference(byPreference, want))
	}
	for _, bp := range pols {
		byPolicy = append(byPolicy, r.DetectPolicy(bp, byUser)...)
	}
	var policySide []Conflict
	for _, c := range want {
		if c.Kind == PolicyVsPreference {
			policySide = append(policySide, c)
		}
	}
	SortConflicts(byPolicy)
	if !reflect.DeepEqual(byPolicy, policySide) {
		t.Errorf("DetectPolicy per policy: %d conflicts, Detect has %d; first difference %s",
			len(byPolicy), len(policySide), firstDifference(byPolicy, policySide))
	}
}

func firstDifference(got, want []Conflict) string {
	for i := range got {
		if i >= len(want) || !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("at %d: got %+v", i, got[i])
		}
	}
	return fmt.Sprintf("at %d: missing %+v", len(got), want[len(got)])
}

func TestKindAndStrategyStrings(t *testing.T) {
	if PolicyVsPreference.String() != "policy-vs-preference" ||
		PreferenceVsPreference.String() != "preference-vs-preference" {
		t.Error("kind names wrong")
	}
	if ConflictKind(9).String() == "" {
		t.Error("fallback name empty")
	}
}
