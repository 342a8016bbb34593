package policy

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/sensor"
)

func TestRuleCheck(t *testing.T) {
	tests := []struct {
		name    string
		rule    Rule
		wantErr bool
	}{
		{"allow", Rule{Action: ActionAllow}, false},
		{"deny", Rule{Action: ActionDeny}, false},
		{"limit granularity", Rule{Action: ActionLimit, MaxGranularity: GranBuilding}, false},
		{"limit noise", Rule{Action: ActionLimit, NoiseEpsilon: 0.5}, false},
		{"limit aggregation", Rule{Action: ActionLimit, MinAggregationK: 5}, false},
		{"limit without mechanism", Rule{Action: ActionLimit}, true},
		{"zero action", Rule{}, true},
		{"bad action", Rule{Action: Action(42)}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.rule.Check(); (err != nil) != tt.wantErr {
				t.Errorf("Check() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestMoreRestrictiveThan(t *testing.T) {
	deny := Rule{Action: ActionDeny}
	allow := Rule{Action: ActionAllow}
	coarse := Rule{Action: ActionLimit, MaxGranularity: GranBuilding}
	fine := Rule{Action: ActionLimit, MaxGranularity: GranRoom}
	noisy := Rule{Action: ActionLimit, MaxGranularity: GranRoom, NoiseEpsilon: 0.1}
	noisier := Rule{Action: ActionLimit, MaxGranularity: GranRoom, NoiseEpsilon: 0.01}
	agg5 := Rule{Action: ActionLimit, MaxGranularity: GranRoom, MinAggregationK: 5}
	agg10 := Rule{Action: ActionLimit, MaxGranularity: GranRoom, MinAggregationK: 10}

	pairs := []struct {
		more, less Rule
		desc       string
	}{
		{deny, allow, "deny > allow"},
		{deny, coarse, "deny > limit"},
		{coarse, allow, "limit > allow"},
		{coarse, fine, "coarser cap is more restrictive"},
		{noisier, noisy, "smaller epsilon is more restrictive"},
		{noisy, fine, "any noise beats no noise"},
		{agg10, agg5, "larger K is more restrictive"},
	}
	for _, p := range pairs {
		if !p.more.MoreRestrictiveThan(p.less) {
			t.Errorf("%s: want MoreRestrictiveThan true", p.desc)
		}
		if p.less.MoreRestrictiveThan(p.more) {
			t.Errorf("%s: inverse must be false", p.desc)
		}
	}
	if deny.MoreRestrictiveThan(deny) || coarse.MoreRestrictiveThan(coarse) {
		t.Error("MoreRestrictiveThan must be irreflexive")
	}
}

func TestPreferenceCheck(t *testing.T) {
	good := Preference1OfficeOccupancy("mary", "dbh/2/2065")
	if err := good.Check(); err != nil {
		t.Errorf("Preference1 Check: %v", err)
	}
	bad := good
	bad.ID = ""
	if err := bad.Check(); err == nil {
		t.Error("empty ID accepted")
	}
	bad = good
	bad.UserID = ""
	if err := bad.Check(); err == nil {
		t.Error("empty user accepted")
	}
	bad = good
	bad.Scope.SubjectIDs = []string{"bob"}
	if err := bad.Check(); err == nil {
		t.Error("preference scoping another subject accepted")
	}
	bad = good
	bad.Rule = Rule{Action: ActionLimit}
	if err := bad.Check(); err == nil {
		t.Error("invalid rule accepted")
	}
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, a := range []Action{ActionAllow, ActionDeny, ActionLimit} {
			bad = good
			bad.Rule = Rule{Action: a, NoiseEpsilon: eps, MaxGranularity: GranFloor}
			if err := bad.Check(); err == nil || !strings.Contains(err.Error(), "rule.noise_epsilon") {
				t.Errorf("%v rule with epsilon %v: Check = %v, want an error naming rule.noise_epsilon", a, eps, err)
			}
		}
	}
}

func TestPaperPreferences(t *testing.T) {
	p1 := Preference1OfficeOccupancy("mary", "dbh/2/2065")
	if p1.Rule.Action != ActionDeny || p1.Scope.ObsKind != sensor.ObsOccupancy {
		t.Errorf("Preference1 = %+v", p1)
	}
	// Preference 1 matches an after-hours occupancy query of the office...
	ctx := Context{
		SubjectID: "mary",
		SpaceID:   "dbh/2/2065",
		ObsKind:   sensor.ObsOccupancy,
		Time:      time.Date(2017, time.June, 7, 22, 0, 0, 0, time.UTC),
	}
	if !p1.Scope.Matches(ctx, nil) {
		t.Error("Preference1 should match after-hours office occupancy")
	}
	// ...but not a midday one.
	ctx.Time = time.Date(2017, time.June, 7, 11, 0, 0, 0, time.UTC)
	if p1.Scope.Matches(ctx, nil) {
		t.Error("Preference1 should not match business-hours queries")
	}

	p2 := Preference2NoLocation("mary")
	if len(p2) != 2 {
		t.Fatalf("Preference2 = %d rules", len(p2))
	}
	for _, p := range p2 {
		if p.Rule.Action != ActionDeny {
			t.Errorf("Preference2 rule = %+v", p.Rule)
		}
		if err := p.Check(); err != nil {
			t.Errorf("Preference2 Check: %v", err)
		}
	}

	p3 := Preference3ConciergeFineLocation("mary", "concierge")
	if p3.Rule.Action != ActionLimit || p3.Rule.MaxGranularity != GranExact {
		t.Errorf("Preference3 = %+v", p3.Rule)
	}
	if p3.Scope.ServiceID != "concierge" {
		t.Errorf("Preference3 scope = %+v", p3.Scope)
	}

	p4 := Preference4SmartMeeting("mary", "smart-meeting")
	if p4.Rule.Action != ActionAllow || p4.Scope.ServiceID != "smart-meeting" {
		t.Errorf("Preference4 = %+v", p4)
	}

	coarse := CoarseLocationPreference("mary", "concierge")
	if coarse.Rule.MaxGranularity != GranBuilding {
		t.Errorf("coarse preference = %+v", coarse.Rule)
	}
	if err := coarse.Check(); err != nil {
		t.Errorf("coarse Check: %v", err)
	}
}

func TestPreferenceIDsDistinctPerUser(t *testing.T) {
	a := Preference1OfficeOccupancy("mary", "r1")
	b := Preference1OfficeOccupancy("bob", "r2")
	if a.ID == b.ID {
		t.Error("preference IDs must embed the user")
	}
}
