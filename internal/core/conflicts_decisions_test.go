package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/reasoner"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/service"
)

// truthKinds and truthPurposes are every kind and purpose the random
// rules below name; the two probe services declare each pair, so every
// flow two rules can both match is a request some service may make.
var (
	truthKinds    = []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting}
	truthPurposes = []policy.Purpose{policy.PurposeEmergencyResponse, policy.PurposeSecurity, policy.PurposeProvidingService}
	truthSpaces   = []string{"", "dbh", "dbh/1", "dbh/2", "dbh/1/r0", "dbh/2/r0", "dbh/2/r1"}
	truthGroups   = []profile.Group{profile.GroupGradStudent, profile.GroupFaculty, profile.GroupUndergrad, profile.GroupStaff}
	truthWindows  = []policy.DailyWindow{
		policy.AfterHours,
		policy.BusinessHours,
		{Start: 0, End: 0, Days: policy.Saturday},
		{Start: 7 * 60, End: 9 * 60, Days: policy.Monday},
	}
	// truthTimes hold a minute inside every window above and inside
	// every intersection of two of them: Monday 07:30 (after-hours
	// spilling past Sunday midnight, and Monday 07:00–09:00), Monday
	// 08:30 (business hours and Monday 07:00–09:00), Saturday 20:00
	// (after-hours and Saturday) and Wednesday 14:00.
	truthTimes = []time.Time{
		time.Date(2024, 1, 8, 7, 30, 0, 0, time.UTC),
		time.Date(2024, 1, 8, 8, 30, 0, 0, time.UTC),
		time.Date(2024, 1, 13, 20, 0, 0, 0, time.UTC),
		time.Date(2024, 1, 10, 14, 0, 0, 0, time.UTC),
	}
	truthUsers = []string{"mary", "bob", "carol", "dave", "erin"}
)

// truthWorld adds the users and services the random rules need to the
// standard fixture: dave belongs to no group and erin to two.
func truthWorld(cfg *Config) {
	cfg.Users.MustAdd(profile.User{ID: "dave", Name: "Dave"})
	cfg.Users.MustAdd(profile.User{ID: "erin", Name: "Erin", Profiles: []profile.Profile{
		{Group: profile.GroupFaculty}, {Group: profile.GroupStaff},
	}})
	for _, id := range []string{"probe-1", "probe-2"} {
		svc := service.Service{ID: id, Name: id, Developer: service.DeveloperBuilding}
		for _, k := range truthKinds {
			for _, p := range truthPurposes {
				svc.Declares = append(svc.Declares, service.DataRequest{ObsKind: k, Purpose: p, Granularity: policy.GranExact})
			}
		}
		cfg.Services.MustRegister(svc)
	}
}

type truthGen struct{ rng *rand.Rand }

func (g truthGen) chance(n int) bool { return g.rng.Intn(n) == 0 }

func (g truthGen) scope() policy.Scope {
	sc := policy.Scope{SpaceID: truthSpaces[g.rng.Intn(len(truthSpaces))]}
	if !g.chance(3) {
		sc.ObsKind = truthKinds[g.rng.Intn(len(truthKinds))]
	} else if g.chance(2) {
		sc.SensorType = sensor.TypeForKind(truthKinds[g.rng.Intn(len(truthKinds))])
	}
	if g.chance(3) {
		sc.Purposes = []policy.Purpose{truthPurposes[g.rng.Intn(len(truthPurposes))]}
	}
	if g.chance(5) {
		sc.ServiceID = []string{"probe-1", "probe-2"}[g.rng.Intn(2)]
	}
	if g.chance(3) {
		sc.Window = truthWindows[g.rng.Intn(len(truthWindows))]
	}
	return sc
}

func (g truthGen) buildingPolicy(id string) policy.BuildingPolicy {
	kinds := []policy.PolicyKind{policy.KindCollection, policy.KindDisclosure, policy.KindAutomation, policy.KindAccessControl}
	bp := policy.BuildingPolicy{ID: id, Kind: kinds[g.rng.Intn(len(kinds))], Scope: g.scope()}
	if bp.Kind == policy.KindDisclosure {
		bp.AudienceGroups = []profile.Group{profile.GroupFaculty}
	}
	if !g.chance(3) {
		bp.Override = true
		bp.Scope.Purposes = []policy.Purpose{policy.PurposeEmergencyResponse}
		if g.chance(3) {
			bp.Scope.Purposes = []policy.Purpose{policy.PurposeSecurity, policy.PurposeEmergencyResponse}
		}
	}
	if g.chance(3) {
		bp.Scope.SubjectIDs = []string{truthUsers[g.rng.Intn(len(truthUsers))]}
		if g.chance(2) {
			bp.Scope.SubjectIDs = append(bp.Scope.SubjectIDs, truthUsers[g.rng.Intn(len(truthUsers))])
		}
	}
	if g.chance(3) {
		bp.Scope.SubjectGroups = []profile.Group{truthGroups[g.rng.Intn(len(truthGroups))]}
	}
	return bp
}

func (g truthGen) preference(id, user string) policy.Preference {
	return policy.Preference{ID: id, UserID: user, Scope: g.scope(), Rule: (&ruleGen{rng: g.rng}).rule(), Source: "explicit"}
}

// TestConflictsMatchDecisions holds what the node tells a subject to
// what it enforces, over seeded random worlds of building policies of
// every kind (override or not, scoped by space, kind or sensor type,
// purpose, service, window, subject and group) and preferences (deny,
// limit and allow, scoped by the same but subject and group). Every
// user is asked about by every declared (service, kind, purpose), over
// every space and at a minute inside every window and every
// intersection of two:
//   - each Overridden entry of a decision names a recorded
//     policy-vs-preference conflict whose resolution is the override
//     and notifies the subject, and so does every inbox entry;
//   - each recorded policy-vs-preference conflict has a request that
//     both rules match, and on every such request the decision is the
//     resolution: an override releases and lists the preference in
//     Overridden; otherwise the preference is matched and the release
//     is no more than it allows, unless another recorded override beat
//     it;
//   - AuditUser's Allowed and Granularity are the decision a real
//     request with the same service, kind, purpose and time gets.
func TestConflictsMatchDecisions(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runConflictsMatchDecisions(t, seed)
		})
	}
}

func runConflictsMatchDecisions(t *testing.T, seed int64) {
	f := newFixtureWith(t, truthWorld)
	g := truthGen{rng: rand.New(rand.NewSource(seed))}

	// Some policies go in before the preferences and some after, so
	// both delta entry points record conflicts.
	npol := 2 + g.rng.Intn(5)
	policies := make(map[string]policy.BuildingPolicy)
	register := func(i int) {
		bp := g.buildingPolicy(fmt.Sprintf("pol-%d", i))
		if err := f.bms.RegisterPolicy(bp); err != nil {
			t.Fatalf("RegisterPolicy(%+v): %v", bp, err)
		}
		policies[bp.ID] = bp
	}
	first := g.rng.Intn(npol + 1)
	for i := 0; i < first; i++ {
		register(i)
	}
	prefs := make(map[string]policy.Preference)
	for _, u := range truthUsers {
		for i := g.rng.Intn(5); i > 0; i-- {
			p := g.preference(fmt.Sprintf("%s-%d", u, i), u)
			if err := f.bms.SetPreference(p); err != nil {
				t.Fatalf("SetPreference(%+v): %v", p, err)
			}
			prefs[p.ID] = p
		}
	}
	for i := first; i < npol; i++ {
		register(i)
	}

	type key struct{ policy, pref string }
	conflicts := make(map[key]reasoner.Conflict)
	witnessed := make(map[key]bool)
	for _, c := range f.bms.Conflicts() {
		if c.Kind == reasoner.PolicyVsPreference {
			conflicts[key{c.PolicyID, c.PreferenceID}] = c
		}
	}
	// recordedOverride reports whether (policy, pref) is a recorded
	// override of user's preference.
	recordedOverride := func(policyID, prefID, user string) bool {
		c, ok := conflicts[key{policyID, prefID}]
		return ok && c.Resolution.OverrideApplied && c.Resolution.NotifyUserID == user
	}

	for _, user := range truthUsers {
		groups := f.bms.subjectGroups(user)
		for _, svc := range f.bms.Services().All() {
			for _, decl := range svc.Declares {
				for _, space := range truthSpaces {
					for _, at := range truthTimes {
						req := enforce.Request{
							ServiceID: svc.ID, Purpose: decl.Purpose, Kind: decl.ObsKind,
							SubjectID: user, SpaceID: space, Granularity: decl.Granularity, Time: at,
						}
						resp, err := f.bms.RequestUser(req)
						if err != nil {
							t.Fatal(err)
						}
						d := resp.Decision
						for _, id := range d.Overridden {
							if !recordedOverride(d.OverridePolicyID, id, user) {
								t.Errorf("%+v: %s overrode %s, but no recorded conflict says so (conflict %+v)",
									req, d.OverridePolicyID, id, conflicts[key{d.OverridePolicyID, id}])
							}
						}
						ctx := policy.Context{
							SubjectID: user, SubjectGroups: groups, SpaceID: space,
							SensorType: sensor.TypeForKind(decl.ObsKind), ObsKind: decl.ObsKind,
							Purpose: decl.Purpose, ServiceID: svc.ID, Time: at,
						}
						for k, c := range conflicts {
							pref := prefs[k.pref]
							if pref.UserID != user ||
								!policies[k.policy].Scope.MatchesRequest(ctx, f.bms.Spaces()) ||
								!pref.Scope.MatchesRequest(ctx, f.bms.Spaces()) {
								continue
							}
							witnessed[k] = true
							if why := resolutionBroken(c, pref, d, decl.Granularity, recordedOverride); why != "" {
								t.Errorf("%+v: conflict %s/%s (%+v): %s; decision %+v", req, k.policy, k.pref, c.Resolution, why, d)
							}
						}
					}
				}
			}
		}
		for _, n := range f.bms.FetchNotifications(user) {
			if !recordedOverride(n.PolicyID, n.PreferenceID, user) {
				t.Errorf("%s's inbox holds %s/%s, which no recorded override names", user, n.PolicyID, n.PreferenceID)
			}
		}
	}
	for k, c := range conflicts {
		if !witnessed[k] {
			t.Errorf("conflict %s/%s (%s, %+v) is recorded, but no request matches both rules\npolicy %+v\npreference %+v",
				k.policy, k.pref, c.UserID, c.Resolution, policies[k.policy], prefs[k.pref])
		}
	}

	for _, user := range truthUsers {
		for _, at := range truthTimes {
			audit, err := f.bms.AuditUser(user, at)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range audit.Entries {
				svc, _ := f.bms.Services().Get(e.ServiceID)
				i := slices.IndexFunc(svc.Declares, func(r service.DataRequest) bool {
					return r.ObsKind == e.Kind && r.Purpose == e.Purpose
				})
				resp, err := f.bms.RequestUser(enforce.Request{
					ServiceID: e.ServiceID, Purpose: e.Purpose, Kind: e.Kind,
					SubjectID: user, Granularity: svc.Declares[i].Granularity, Time: at,
				})
				if err != nil {
					t.Fatal(err)
				}
				d := resp.Decision
				if e.Allowed != d.Allowed || (d.Allowed && e.Granularity != d.Granularity) {
					t.Errorf("AuditUser(%s, %v) says %s/%s/%s is allowed=%v at %v; a request gets allowed=%v at %v",
						user, at, e.ServiceID, e.Kind, e.Purpose, e.Allowed, e.Granularity, d.Allowed, d.Granularity)
				}
			}
		}
	}
}

// resolutionBroken says how decision d, made on a request that both of
// conflict c's rules match, contradicts c's resolution, or returns "".
// requested is the request's (and the service's declared) granularity.
func resolutionBroken(c reasoner.Conflict, pref policy.Preference, d enforce.Decision, requested policy.Granularity,
	recordedOverride func(policyID, prefID, user string) bool) string {
	overridden := slices.Contains(d.Overridden, pref.ID)
	if c.Resolution.OverrideApplied {
		switch {
		case !d.Allowed || !overridden:
			return "the override is recorded, but the decision does not override the preference"
		case d.Granularity != requested:
			return "the override releases at a granularity other than the one requested"
		}
		return ""
	}
	switch {
	case c.Resolution.EffectiveRule != pref.Rule:
		return "the preference applies, but the resolution names another rule"
	case !slices.Contains(d.MatchedPreferences, pref.ID):
		return "the preference applies, but the decision did not match it"
	case overridden && (d.OverridePolicyID == c.PolicyID || !recordedOverride(d.OverridePolicyID, pref.ID, pref.UserID)):
		return "the preference applies, but an unrecorded override beat it"
	case !overridden && !releasesWithin(d, pref.Rule):
		return "the preference applies, but the decision releases more than it allows"
	}
	return ""
}

// releasesWithin reports whether d releases no more than rule allows.
func releasesWithin(d enforce.Decision, rule policy.Rule) bool {
	switch {
	case !d.Allowed:
		return true
	case rule.Action == policy.ActionDeny:
		return false
	case reasoner.CombineRules(d.Effective, rule) != d.Effective:
		return false
	}
	return !rule.MaxGranularity.Valid() || d.Granularity <= rule.MaxGranularity
}
