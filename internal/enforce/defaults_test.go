package enforce

import (
	"testing"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/service"
)

func TestGroupDefaultCheck(t *testing.T) {
	good := GroupDefault{
		ID:     "visitors-coarse",
		Groups: []profile.Group{profile.GroupVisitor},
		Rule:   policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranBuilding},
	}
	if err := good.Check(); err != nil {
		t.Errorf("valid default rejected: %v", err)
	}
	bad := good
	bad.ID = ""
	if err := bad.Check(); err == nil {
		t.Error("ID-less default accepted")
	}
	bad = good
	bad.Scope.SubjectIDs = []string{"mary"}
	if err := bad.Check(); err == nil {
		t.Error("subject-scoped default accepted")
	}
	bad = good
	bad.Rule = policy.Rule{}
	if err := bad.Check(); err == nil {
		t.Error("invalid rule accepted")
	}
}

func groupDefaultEngines(t testing.TB) map[string]Engine {
	t.Helper()
	cfg := Config{
		Spaces:       testModel(t),
		Services:     testServices(t),
		DefaultAllow: true,
		GroupDefaults: []GroupDefault{
			{
				ID:     "visitors-coarse",
				Groups: []profile.Group{profile.GroupVisitor},
				Scope:  policy.Scope{ObsKind: sensor.ObsWiFiConnect},
				Rule:   policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranBuilding},
			},
			{
				ID:    "everyone-no-marketing",
				Scope: policy.Scope{Purposes: []policy.Purpose{policy.PurposeMarketing}},
				Rule:  policy.Rule{Action: policy.ActionDeny},
			},
		},
	}
	return map[string]Engine{
		"naive":           NewNaive(cfg),
		"compiled-nomemo": NewCompiledMemo(cfg, -1),
		"compiled":        NewCompiled(cfg),
	}
}

func TestGroupDefaultsApply(t *testing.T) {
	for name, eng := range groupDefaultEngines(t) {
		req := baseRequest()
		// A visitor with no personal preference: group default caps
		// location at building granularity.
		d := eng.Decide(req, []profile.Group{profile.GroupVisitor})
		if !d.Allowed || d.Granularity != policy.GranBuilding {
			t.Errorf("%s: visitor decision = %+v", name, d)
		}
		if len(d.MatchedDefaults) != 1 || d.MatchedDefaults[0] != "visitors-coarse" {
			t.Errorf("%s: matched defaults = %v", name, d.MatchedDefaults)
		}
		// A student is untouched by the visitor default.
		d = eng.Decide(req, []profile.Group{profile.GroupStudent})
		if !d.Allowed || d.Granularity != policy.GranExact {
			t.Errorf("%s: student decision = %+v", name, d)
		}
	}
}

func TestGroupDefaultPersonalPreferenceWins(t *testing.T) {
	for name, eng := range groupDefaultEngines(t) {
		// The visitor explicitly allows fine-grained concierge access:
		// their own choice beats the group default.
		if err := eng.AddPreference(policy.Preference3ConciergeFineLocation("mary", "concierge")); err != nil {
			t.Fatal(err)
		}
		d := eng.Decide(baseRequest(), []profile.Group{profile.GroupVisitor})
		if !d.Allowed || d.Granularity != policy.GranExact {
			t.Errorf("%s: personal preference lost to group default: %+v", name, d)
		}
		if len(d.MatchedDefaults) != 0 {
			t.Errorf("%s: defaults consulted despite a personal match: %v", name, d.MatchedDefaults)
		}
	}
}

func TestUngroupedDefaultAppliesToEveryone(t *testing.T) {
	svcReg := testServices(t)
	svcReg.MustRegister(service.Service{
		ID: "ad-service", Name: "Ads", Developer: service.DeveloperThirdParty,
		Declares: []service.DataRequest{{
			ObsKind: sensor.ObsWiFiConnect, Purpose: policy.PurposeMarketing,
			Granularity: policy.GranExact,
		}},
	})
	cfg := Config{
		Spaces:       testModel(t),
		Services:     svcReg,
		DefaultAllow: true,
		GroupDefaults: []GroupDefault{{
			ID:    "everyone-no-marketing",
			Scope: policy.Scope{Purposes: []policy.Purpose{policy.PurposeMarketing}},
			Rule:  policy.Rule{Action: policy.ActionDeny},
		}},
	}
	for name, eng := range map[string]Engine{"naive": NewNaive(cfg), "compiled": NewCompiled(cfg)} {
		req := baseRequest()
		req.ServiceID = "ad-service"
		req.Purpose = policy.PurposeMarketing
		d := eng.Decide(req, []profile.Group{profile.GroupFaculty})
		if d.Allowed {
			t.Errorf("%s: marketing default-deny missed: %+v", name, d)
		}
		// Other purposes untouched.
		if d := eng.Decide(baseRequest(), nil); !d.Allowed {
			t.Errorf("%s: service purpose wrongly denied: %+v", name, d)
		}
	}
}
