package core

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

// TestWritesResolveNames: a preference or a building policy whose scope
// names what the node does not have, or that no instant can fall in, is
// refused naming the field, and the rule state does not change. The
// same scopes pass the write path when every name resolves, the paper's
// Preference 1 (the inferred occupancy kind) among them.
func TestWritesResolveNames(t *testing.T) {
	f := newFixture(t)
	for _, p := range []policy.Preference{
		policy.Preference1OfficeOccupancy("mary", "dbh/2/r0"),
		policy.Preference3ConciergeFineLocation("mary", "concierge"),
		{ID: "every-name", UserID: "mary", Rule: policy.Rule{Action: policy.ActionLimit, NoiseEpsilon: 0.5},
			Scope: policy.Scope{SpaceID: "dbh/1", SensorType: sensor.TypeWiFiAP, ObsKind: sensor.ObsWiFiConnect,
				Purposes: policy.AllPurposes(), ServiceID: "smart-meeting",
				Window: policy.DailyWindow{Start: 0, End: 1439, Days: policy.AllDays}}},
	} {
		if err := f.bms.SetPreference(p); err != nil {
			t.Fatalf("SetPreference(%s): %v", p.ID, err)
		}
	}
	before, conflicts := f.bms.Preferences("mary"), f.bms.Conflicts()

	cases := []struct {
		field string
		scope policy.Scope
		rule  policy.Rule
	}{
		{"scope.space_id", policy.Scope{SpaceID: "dbh/9/nowhere"}, policy.Rule{}},
		{"scope.sensor_type", policy.Scope{SensorType: sensor.Type(99)}, policy.Rule{}},
		{"scope.obs_kind", policy.Scope{ObsKind: "wifi"}, policy.Rule{}},
		{"scope.purposes", policy.Scope{Purposes: []policy.Purpose{policy.PurposeSecurity, "providing-servic"}}, policy.Rule{}},
		{"scope.purposes", policy.Scope{Purposes: []policy.Purpose{policy.PurposeAny}}, policy.Rule{}},
		{"scope.service_id", policy.Scope{ServiceID: "concierg"}, policy.Rule{}},
		{"scope.window.start_minute", policy.Scope{Window: policy.DailyWindow{Start: 1500, End: 2000}}, policy.Rule{}},
		{"scope.window.start_minute", policy.Scope{Window: policy.DailyWindow{Start: -1, End: 60}}, policy.Rule{}},
		{"scope.window.end_minute", policy.Scope{Window: policy.DailyWindow{Start: 60, End: 1440}}, policy.Rule{}},
		{"scope.window.days", policy.Scope{Window: policy.DailyWindow{Start: 60, End: 120, Days: 1 << 7}}, policy.Rule{}},
		{"rule.noise_epsilon", policy.Scope{}, policy.Rule{Action: policy.ActionLimit, NoiseEpsilon: math.NaN()}},
		{"rule.noise_epsilon", policy.Scope{}, policy.Rule{Action: policy.ActionLimit, NoiseEpsilon: math.Inf(1)}},
	}
	for _, c := range cases {
		rule := c.rule
		if rule.Action == 0 {
			rule.Action = policy.ActionDeny
		}
		err := f.bms.SetPreference(policy.Preference{ID: "every-name", UserID: "mary", Scope: c.scope, Rule: rule})
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("preference %+v %+v: SetPreference = %v, want an error naming %s", c.scope, rule, err, c.field)
		}
		if c.field == "rule.noise_epsilon" {
			continue // a building policy carries no rule
		}
		sc := c.scope
		sc.Purposes = append(sc.Purposes, policy.PurposeSecurity)
		err = f.bms.RegisterPolicy(policy.BuildingPolicy{ID: "pol-unresolved", Kind: policy.KindCollection, Scope: sc})
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("policy %+v: RegisterPolicy = %v, want an error naming %s", sc, err, c.field)
		}
	}
	if got := f.bms.Preferences("mary"); !reflect.DeepEqual(got, before) {
		t.Errorf("refused writes changed mary's preferences:\n got %+v\nwant %+v", got, before)
	}
	if got := f.bms.Conflicts(); !reflect.DeepEqual(got, conflicts) {
		t.Errorf("refused writes changed the conflicts: %+v, was %+v", got, conflicts)
	}
	if ps := f.bms.Policies(); len(ps) != 0 {
		t.Errorf("refused policies installed: %+v", ps)
	}
	if err := f.bms.RegisterPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
		t.Errorf("Policy 2: %v", err)
	}
}

// TestPreferenceIDStaysWithItsOwner: a write naming another user's
// preference ID is refused with ErrPreferenceOwned and changes nothing,
// so mary's opt-out keeps withholding her rows; rewriting one's own ID
// replaces it.
func TestPreferenceIDStaysWithItsOwner(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 3; i++ {
		if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", i)); err != nil {
			t.Fatal(err)
		}
	}
	deny := policy.Preference{ID: "x", UserID: "mary", Scope: policy.Scope{ObsKind: sensor.ObsWiFiConnect},
		Rule: policy.Rule{Action: policy.ActionDeny}}
	if err := f.bms.SetPreference(deny); err != nil {
		t.Fatal(err)
	}
	allow := policy.Preference{ID: "x", UserID: "bob", Rule: policy.Rule{Action: policy.ActionAllow}}
	if err := f.bms.SetPreference(allow); !errors.Is(err, ErrPreferenceOwned) {
		t.Fatalf("bob's write over mary's ID = %v, want ErrPreferenceOwned", err)
	}
	if got := f.bms.Preferences("mary"); !reflect.DeepEqual(got, []policy.Preference{deny}) {
		t.Errorf("mary's preferences = %+v, want her opt-out", got)
	}
	if got := f.bms.Preferences("bob"); len(got) != 0 {
		t.Errorf("bob's preferences = %+v, want none", got)
	}
	req := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		Kind: sensor.ObsWiFiConnect, SubjectID: "mary", Time: f.now}
	resp, err := f.bms.RequestUser(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Decision.Allowed || len(resp.Observations) != 0 {
		t.Errorf("mary's rows released after bob's refused write: %+v, %d rows", resp.Decision, len(resp.Observations))
	}
	deny.Rule = policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranBuilding}
	if err := f.bms.SetPreference(deny); err != nil {
		t.Fatalf("mary replacing her own preference: %v", err)
	}
	if resp, err = f.bms.RequestUser(req); err != nil || len(resp.Observations) != 3 || resp.Observations[0].SpaceID != "dbh" {
		t.Errorf("after mary's replacement: %+v, %v", resp.Observations, err)
	}
}

// TestRuleLogReplayInstallsAsLogged: replay installs what the rule log
// holds without the write path's checks, so a node opens over every
// rule it once acknowledged: here a preference naming a service the
// configuration no longer registers, and an ID that passed to another
// owner as nodes allowed before such writes were refused. A new write
// of the same preference is refused.
func TestRuleLogReplayInstallsAsLogged(t *testing.T) {
	dir := t.TempDir()
	retired := policy.Preference{ID: "retired", UserID: "mary", Scope: policy.Scope{ServiceID: "food-delivery"},
		Rule: policy.Rule{Action: policy.ActionDeny}, Source: "explicit"}
	moved := policy.Preference{ID: "moved", UserID: "mary", Rule: policy.Rule{Action: policy.ActionDeny}}
	log, err := openRuleLog(dir, func(policy.Preference) error { return nil }, func(string) {})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []policy.Preference{retired, moved, {ID: "moved", UserID: "bob", Rule: policy.Rule{Action: policy.ActionAllow}}} {
		if err := log.set(&p); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.close(); err != nil {
		t.Fatal(err)
	}

	f := durableFixture(t, dir)
	if got := f.bms.Preferences("mary"); !reflect.DeepEqual(got, []policy.Preference{retired}) {
		t.Errorf("mary's replayed preferences = %+v, want the one naming the retired service", got)
	}
	if got := f.bms.Preferences("bob"); len(got) != 1 || got[0].ID != "moved" {
		t.Errorf("bob's replayed preferences = %+v, want the moved ID", got)
	}
	if err := f.bms.SetPreference(retired); err == nil || !strings.Contains(err.Error(), "scope.service_id") {
		t.Errorf("a new write naming the retired service = %v, want it refused naming scope.service_id", err)
	}
}
