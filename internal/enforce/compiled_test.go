package enforce

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
)

// Shared generator vocabulary for the differential tests: every value
// pool deliberately mixes hits and misses (spaces off the model, undeclared
// purposes, empty dimensions) so candidate selection is exercised on
// both its include and exclude edges.
var (
	diffUsers    = []string{"u0", "u1", "u2", "u3", "u4", "u5"}
	diffKinds    = []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting, sensor.ObsOccupancy, sensor.ObsPowerReading, ""}
	diffSpaces   = []string{"", "dbh", "dbh/1", "dbh/2", "dbh/1/r0", "dbh/2/r1", "dbh/2/r3", "annex"}
	diffServices = []string{"", "concierge", "smart-meeting", "food-delivery", "ghost-service"}
	diffPurposes = []policy.Purpose{
		policy.PurposeProvidingService, policy.PurposeEmergencyResponse,
		policy.PurposeSecurity, policy.PurposeAnalytics, policy.PurposeMarketing,
	}
	diffWindows = []policy.DailyWindow{
		{}, // no window
		policy.AfterHours,
		policy.BusinessHours,
		{Start: 23 * 60, End: 1 * 60}, // wraps midnight
	}
)

func randDiffRule(r *rand.Rand) policy.Rule {
	switch r.Intn(4) {
	case 0:
		return policy.Rule{Action: policy.ActionAllow}
	case 1:
		return policy.Rule{Action: policy.ActionDeny}
	case 2:
		return policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.Granularity(1 + r.Intn(5))}
	default:
		return policy.Rule{
			Action:          policy.ActionLimit,
			MaxGranularity:  policy.Granularity(1 + r.Intn(5)),
			NoiseEpsilon:    float64(1+r.Intn(10)) / 2,
			MinAggregationK: r.Intn(5),
		}
	}
}

func randDiffPreference(r *rand.Rand, id int) policy.Preference {
	p := policy.Preference{
		ID:     fmt.Sprintf("pref-%d", id),
		UserID: diffUsers[r.Intn(len(diffUsers))],
		Scope: policy.Scope{
			SpaceID:   diffSpaces[r.Intn(len(diffSpaces))],
			ObsKind:   diffKinds[r.Intn(len(diffKinds))],
			ServiceID: diffServices[r.Intn(len(diffServices))],
			Window:    diffWindows[r.Intn(len(diffWindows))],
		},
		Rule: randDiffRule(r),
	}
	// A random purpose subset, sometimes empty (purpose-wildcard).
	for _, purp := range diffPurposes {
		if r.Intn(5) == 0 {
			p.Scope.Purposes = append(p.Scope.Purposes, purp)
		}
	}
	return p
}

func randDiffOverride(r *rand.Rand, id int) policy.BuildingPolicy {
	bp := policy.Policy2EmergencyLocation("dbh")
	bp.ID = fmt.Sprintf("ovr-%02d", id)
	bp.Scope.ObsKind = diffKinds[r.Intn(len(diffKinds))]
	bp.Scope.SpaceID = diffSpaces[1+r.Intn(len(diffSpaces)-1)]
	if r.Intn(4) == 0 {
		// An override that governs no data flow overrides nothing.
		bp.Kind = []policy.PolicyKind{policy.KindAutomation, policy.KindAccessControl}[r.Intn(2)]
	}
	if r.Intn(3) == 0 {
		bp.Scope.SubjectGroups = []profile.Group{profile.GroupStudent}
	}
	if r.Intn(3) == 0 {
		// Security is the other safety-critical purpose; a two-purpose
		// override exercises the per-purpose posting buckets.
		bp.Scope.Purposes = append(bp.Scope.Purposes, policy.PurposeSecurity)
	}
	return bp
}

func randDiffRequest(r *rand.Rand) Request {
	req := Request{
		ServiceID:   diffServices[r.Intn(len(diffServices))],
		Purpose:     diffPurposes[r.Intn(len(diffPurposes))],
		Kind:        diffKinds[r.Intn(len(diffKinds))],
		SubjectID:   diffUsers[r.Intn(len(diffUsers))],
		SpaceID:     diffSpaces[r.Intn(len(diffSpaces))],
		Granularity: policy.Granularity(r.Intn(6)),
		Time:        time.Date(2017, time.June, 1+r.Intn(28), r.Intn(24), r.Intn(60), 0, 0, time.UTC),
	}
	if r.Intn(16) == 0 {
		req.Time = time.Time{} // "now"
	}
	return req
}

// TestCompiledMatchesNaive is the differential property test behind
// the compiled engine: on randomized rule populations, randomized
// requests, and randomized mid-stream mutations, the compiled engine
// (with and without its decision memo) must make decisions identical
// to the naive scan-everything engine — including the matched-rule
// sets, not just the verdicts. CI runs it repeatedly under -race.
func TestCompiledMatchesNaive(t *testing.T) {
	seeds := []int64{1, 2, 3, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: seed%2 == 0}
			engines := map[string]Engine{
				"naive":           NewNaive(cfg),
				"compiled-nomemo": NewCompiledMemo(cfg, -1),
				"compiled":        NewCompiledMemo(cfg, 512), // small cap: exercise resets
			}
			addPref := func(p policy.Preference) {
				for name, e := range engines {
					if err := e.AddPreference(p); err != nil {
						t.Fatalf("%s: AddPreference(%s): %v", name, p.ID, err)
					}
				}
			}
			removePref := func(id string) {
				got := map[string]bool{}
				for name, e := range engines {
					got[name] = e.RemovePreference(id)
				}
				if got["naive"] != got["compiled-nomemo"] || got["naive"] != got["compiled"] {
					t.Fatalf("RemovePreference(%s) disagrees: %v", id, got)
				}
			}

			nextPref := 0
			for ; nextPref < 200; nextPref++ {
				addPref(randDiffPreference(r, nextPref))
			}
			for i := 0; i < 6; i++ {
				bp := randDiffOverride(r, i)
				for name, e := range engines {
					if err := e.AddPolicy(bp); err != nil {
						t.Fatalf("%s: AddPolicy(%s): %v", name, bp.ID, err)
					}
				}
			}

			naive := engines["naive"]
			for trial := 0; trial < 3000; trial++ {
				// Mid-stream churn: the compiled engine recompiles
				// incrementally, the naive engine just appends — they
				// must stay in lockstep through adds, replaces, and
				// removals.
				if trial%100 == 50 {
					switch r.Intn(3) {
					case 0:
						addPref(randDiffPreference(r, nextPref))
						nextPref++
					case 1:
						removePref(fmt.Sprintf("pref-%d", r.Intn(nextPref)))
					default:
						// Replace under an existing ID.
						addPref(randDiffPreference(r, r.Intn(nextPref)))
					}
				}
				req := randDiffRequest(r)
				var groups []profile.Group
				switch r.Intn(3) {
				case 0:
					groups = []profile.Group{profile.GroupStudent}
				case 1:
					groups = []profile.Group{profile.GroupFaculty, profile.GroupVisitor}
				}
				want := normalizeDecision(naive.Decide(req, groups))
				for name, e := range engines {
					if e == naive {
						continue
					}
					if got := normalizeDecision(e.Decide(req, groups)); !reflect.DeepEqual(want, got) {
						t.Fatalf("trial %d: %s disagrees with naive\nreq: %+v\ngroups: %v\nnaive: %+v\n%s: %+v",
							trial, name, req, groups, want, name, got)
					}
				}
			}

			// Counts must agree exactly after all the churn.
			wantPol, wantPref := naive.Counts()
			for name, e := range engines {
				if pol, pref := e.Counts(); pol != wantPol || pref != wantPref {
					t.Errorf("%s: Counts() = (%d, %d), naive (%d, %d)", name, pol, pref, wantPol, wantPref)
				}
			}
		})
	}
}

// TestCompiledCandidateReduction pins the point of compilation: on a
// many-subject population the compiled engine consults a candidate
// set orders of magnitude smaller than the full rule count, while the
// naive engine scans everything.
func TestCompiledCandidateReduction(t *testing.T) {
	cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}
	naive := NewNaive(cfg)
	compiled := NewCompiledMemo(cfg, -1)
	const subjects = 2000
	for i := 0; i < subjects; i++ {
		user := fmt.Sprintf("subj-%04d", i)
		p := policy.Preference{
			ID: "p-" + user, UserID: user,
			Scope: policy.Scope{ServiceID: "concierge"},
			Rule:  policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranBuilding},
		}
		if err := naive.AddPreference(p); err != nil {
			t.Fatal(err)
		}
		if err := compiled.AddPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	req := baseRequest()
	req.SubjectID = "subj-1234"
	dn := naive.Decide(req, nil)
	dc := compiled.Decide(req, nil)
	if !reflect.DeepEqual(normalizeDecision(dn), normalizeDecision(dc)) {
		t.Fatalf("engines disagree: naive %+v, compiled %+v", dn, dc)
	}
	if dn.PreferencesConsulted != subjects {
		t.Errorf("naive consulted %d, want %d", dn.PreferencesConsulted, subjects)
	}
	if dc.PreferencesConsulted > 4 {
		t.Errorf("compiled consulted %d candidates for a single-pref subject", dc.PreferencesConsulted)
	}
}

// TestNewEngineFlavors covers engine selection by flavor name.
func TestNewEngineFlavors(t *testing.T) {
	cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}
	for flavor, want := range map[string]string{
		"":         "compiled",
		"compiled": "compiled",
		"naive":    "naive",
	} {
		e, err := New(flavor, cfg)
		if err != nil {
			t.Fatalf("New(%q): %v", flavor, err)
		}
		if got := EngineName(e); got != want {
			t.Errorf("New(%q) = %s, want %s", flavor, got, want)
		}
	}
	for _, gone := range []string{"quantum", "indexed", "cached", "compiled-nomemo"} {
		if _, err := New(gone, cfg); err == nil {
			t.Errorf("flavor %q accepted", gone)
		}
	}
}

func TestEngineName(t *testing.T) {
	cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}
	cases := map[Engine]string{
		NewNaive(cfg):            "naive",
		NewCompiledMemo(cfg, -1): "compiled-nomemo",
		NewCompiled(cfg):         "compiled",
	}
	for e, want := range cases {
		if got := EngineName(e); got != want {
			t.Errorf("EngineName(%T) = %q, want %q", e, got, want)
		}
	}
}
