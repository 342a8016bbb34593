package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/reasoner"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/stream"
)

// fullPassOracle is what the BMS did before conflicts were maintained
// by delta: after every mutation, a full reasoner.Detect over every
// rule, with "fresh" meaning "this string key was not in the previous
// pass". The incremental path must be indistinguishable from it.
type fullPassOracle struct {
	reason    *reasoner.Reasoner
	policies  []policy.BuildingPolicy
	prefs     map[string]policy.Preference
	conflicts []reasoner.Conflict
	previous  map[string]bool
	inbox     map[string][]enforce.Notification
	published []reasoner.Conflict
}

func (o *fullPassOracle) sortedPrefs() []policy.Preference {
	out := make([]policy.Preference, 0, len(o.prefs))
	for _, p := range o.prefs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (o *fullPassOracle) pass() {
	o.conflicts = o.reason.Detect(o.policies, o.sortedPrefs())
	now := make(map[string]bool, len(o.conflicts))
	for _, c := range o.conflicts {
		k := fmt.Sprintf("%d|%s|%s|%s", c.Kind, c.PolicyID, c.PreferenceID, c.OtherPreferenceID)
		now[k] = true
		if o.previous[k] {
			continue
		}
		o.published = append(o.published, c)
		if u := c.Resolution.NotifyUserID; u != "" {
			o.inbox[u] = append(o.inbox[u], enforce.Notification{
				UserID: u, PolicyID: c.PolicyID, PreferenceID: c.PreferenceID, Message: c.Resolution.Explanation,
			})
		}
	}
	o.previous = now
}

func (o *fullPassOracle) preferencesOf(user string) []policy.Preference {
	var out []policy.Preference
	for _, p := range o.sortedPrefs() {
		if p.UserID == user {
			out = append(out, p)
		}
	}
	return out
}

// sameElements is reflect.DeepEqual that takes nil and empty for equal.
func sameElements[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// ruleGen draws rules from pools small enough that scopes overlap, IDs
// get reused, and owners change under an ID.
type ruleGen struct {
	rng      *rand.Rand
	users    []string
	policies int
}

func (g *ruleGen) pick(options ...string) string { return options[g.rng.Intn(len(options))] }

func (g *ruleGen) scope() policy.Scope {
	sc := policy.Scope{
		SpaceID:   g.pick("", "", "dbh", "dbh/1", "dbh/2", "dbh/2/r0", "dbh/2/r1"),
		ObsKind:   sensor.ObservationKind(g.pick("", "", string(sensor.ObsWiFiConnect), string(sensor.ObsBLESighting))),
		ServiceID: g.pick("", "", "concierge", "smart-meeting"),
	}
	if g.rng.Intn(3) == 0 {
		sc.Purposes = []policy.Purpose{policy.Purpose(g.pick(
			string(policy.PurposeEmergencyResponse), string(policy.PurposeProvidingService), string(policy.PurposeSecurity)))}
	}
	return sc
}

func (g *ruleGen) rule() policy.Rule {
	switch g.rng.Intn(5) {
	case 0:
		return policy.Rule{Action: policy.ActionAllow}
	case 1, 2:
		return policy.Rule{Action: policy.ActionDeny}
	case 3:
		return policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.Granularity(int(policy.GranBuilding) + g.rng.Intn(2))}
	default:
		return policy.Rule{Action: policy.ActionLimit, MinAggregationK: 2 + g.rng.Intn(4)}
	}
}

func (g *ruleGen) preference(id, user string) policy.Preference {
	return policy.Preference{ID: id, UserID: user, Scope: g.scope(), Rule: g.rule(), Source: "explicit"}
}

func (g *ruleGen) buildingPolicy() policy.BuildingPolicy {
	g.policies++
	bp := policy.BuildingPolicy{
		ID:    fmt.Sprintf("pol-%d", g.policies),
		Kind:  policy.KindCollection,
		Scope: g.scope(),
	}
	switch g.rng.Intn(5) {
	case 0:
		bp.Kind = policy.KindAutomation // releases no flows: never conflicts
	case 1:
		bp.Kind, bp.AudienceGroups = policy.KindDisclosure, []profile.Group{profile.GroupFaculty}
	case 2, 3:
		bp.Scope.Purposes, bp.Override = []policy.Purpose{policy.PurposeEmergencyResponse}, true
	}
	return bp
}

// TestIncrementalDetectMatchesFull drives seeded random mutation
// sequences — install, replace under the same ID with another rule or
// another owner, allow-rule no-ops, remove, RegisterPolicy mid-sequence,
// ForgetUser — through the BMS and the full-pass oracle side by side,
// for every strategy, with and without a spatial model. After every
// step the conflict set, each user's drained inbox and the
// TopicConflicts publications must be identical.
func TestIncrementalDetectMatchesFull(t *testing.T) {
	strategies := []reasoner.Strategy{
		reasoner.MostRestrictive, reasoner.BuildingWins, reasoner.UserWins, reasoner.NegotiateGranularity,
	}
	for _, strategy := range strategies {
		for _, spatial := range []bool{true, false} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/spatial=%v/seed=%d", strategy, spatial, seed)
				t.Run(name, func(t *testing.T) {
					runIncrementalVsFull(t, strategy, spatial, seed)
				})
			}
		}
	}
}

func runIncrementalVsFull(t *testing.T, strategy reasoner.Strategy, spatial bool, seed int64) {
	const steps = 150
	f := newFixtureWith(t, func(cfg *Config) { cfg.Strategy = strategy })
	spaces := f.bms.Spaces()
	if !spatial {
		// core.New insists on a model for everything else it does; the
		// reasoner alone runs without one (exact-ID spatial overlap).
		spaces = nil
		f.bms.reason = reasoner.New(nil, strategy)
	}
	oracle := &fullPassOracle{
		reason: reasoner.New(spaces, strategy),
		prefs:  make(map[string]policy.Preference),
		inbox:  make(map[string][]enforce.Notification),
	}
	// Buffered for every publication of the run: nothing may drop.
	sub, err := f.bms.Streams().Subscribe(stream.Options{Topic: stream.TopicConflicts, Buffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	// Conflicts are pushed before the mutation returns, so a step's
	// publications are what the stream holds ahead of a marker pushed
	// after it.
	const marker = "end-of-step"
	drain := func() []reasoner.Conflict {
		t.Helper()
		f.bms.Streams().PublishConflict(reasoner.Conflict{PolicyID: marker})
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var out []reasoner.Conflict
		for {
			ev, err := sub.Next(ctx)
			if err != nil {
				t.Fatalf("conflict stream: %v", err)
			}
			if ev.Type != stream.EventConflict {
				t.Fatalf("conflict stream delivered %+v", ev)
			}
			if ev.Conflict.PolicyID == marker {
				return out
			}
			out = append(out, *ev.Conflict)
		}
	}

	g := &ruleGen{rng: rand.New(rand.NewSource(seed)), users: []string{"mary", "bob", "carol"}}
	prefIDs := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}
	set := func(p policy.Preference) {
		t.Helper()
		if err := f.bms.SetPreference(p); err != nil {
			t.Fatalf("SetPreference(%+v): %v", p, err)
		}
		oracle.prefs[p.ID] = p
		oracle.pass()
	}
	installed := func() (policy.Preference, bool) {
		if len(oracle.prefs) == 0 {
			return policy.Preference{}, false
		}
		all := oracle.sortedPrefs()
		return all[g.rng.Intn(len(all))], true
	}

	for step := 0; step < steps; step++ {
		var what string
		switch op := g.rng.Intn(20); {
		case op < 9:
			p := g.preference(g.pick(prefIDs...), g.pick(g.users...))
			what = fmt.Sprintf("set %s for %s (%v)", p.ID, p.UserID, p.Rule.Action)
			set(p)
		case op < 11: // same ID, same owner, different rule
			old, ok := installed()
			if !ok {
				continue
			}
			p := g.preference(old.ID, old.UserID)
			what = fmt.Sprintf("re-rule %s (%v → %v)", p.ID, old.Rule.Action, p.Rule.Action)
			set(p)
		case op < 13: // same ID, different owner
			old, ok := installed()
			if !ok {
				continue
			}
			p := old
			for p.UserID == old.UserID {
				p.UserID = g.pick(g.users...)
			}
			what = fmt.Sprintf("move %s from %s to %s", p.ID, old.UserID, p.UserID)
			set(p)
		case op < 14: // allow rule over whatever was there: retires its conflicts, adds none
			p := g.preference(g.pick(prefIDs...), g.pick(g.users...))
			p.Rule = policy.Rule{Action: policy.ActionAllow}
			what = fmt.Sprintf("allow %s for %s", p.ID, p.UserID)
			set(p)
		case op < 17:
			id := g.pick(prefIDs...)
			what = "remove " + id
			_, was := oracle.prefs[id]
			if got, err := f.bms.RemovePreference(id); err != nil || got != was {
				t.Fatalf("step %d: RemovePreference(%s) = %v, %v, installed = %v", step, id, got, err, was)
			}
			if was {
				delete(oracle.prefs, id)
				oracle.pass()
			}
		case op < 19:
			if g.policies == 6 {
				continue
			}
			bp := g.buildingPolicy()
			what = fmt.Sprintf("register %s (%s, override=%v)", bp.ID, bp.Kind, bp.Override)
			if err := f.bms.RegisterPolicy(bp); err != nil {
				t.Fatalf("RegisterPolicy(%+v): %v", bp, err)
			}
			oracle.policies = append(oracle.policies, bp)
			oracle.pass()
		default:
			user := g.pick(g.users...)
			what = "forget " + user
			if _, _, err := f.bms.ForgetUser(user); err != nil {
				t.Fatal(err)
			}
			for _, p := range oracle.preferencesOf(user) {
				delete(oracle.prefs, p.ID)
				oracle.pass()
			}
		}

		got := f.bms.Conflicts()
		if !sameElements(got, oracle.conflicts) {
			t.Fatalf("step %d (%s): Conflicts()\n got  %+v\n want %+v", step, what, got, oracle.conflicts)
		}
		for _, u := range g.users {
			inbox, want := f.bms.FetchNotifications(u), oracle.inbox[u]
			delete(oracle.inbox, u)
			if !sameElements(inbox, want) {
				t.Fatalf("step %d (%s): %s's inbox\n got  %+v\n want %+v", step, what, u, inbox, want)
			}
			if prefs, want := f.bms.Preferences(u), oracle.preferencesOf(u); !sameElements(prefs, want) {
				t.Fatalf("step %d (%s): Preferences(%s)\n got  %+v\n want %+v", step, what, u, prefs, want)
			}
		}
		published := drain()
		if !sameElements(published, oracle.published) {
			t.Fatalf("step %d (%s): TopicConflicts\n got  %+v\n want %+v", step, what, published, oracle.published)
		}
		oracle.published = nil
	}
	if n := sub.Stats().Dropped; n != 0 {
		t.Fatalf("%d conflict publications dropped", n)
	}
}

// churnUsers adds n users (churn-0 …) to a fixture's directory.
func churnUsers(n int) func(*Config) {
	return func(cfg *Config) {
		for i := 0; i < n; i++ {
			cfg.Users.MustAdd(profile.User{
				ID:       fmt.Sprintf("churn-%d", i),
				Profiles: []profile.Profile{{Group: profile.GroupGradStudent}},
			})
		}
	}
}

// TestConcurrentRuleMutationsConverge: mutators that each own a user
// set and remove that user's preferences while another goroutine
// registers policies and a reader polls Conflicts(). Whatever the
// interleaving, the conflict set at the end is the full pass over the
// rules at the end — the mutation that happened last decides, not the
// detection pass that finished last. Then writers race on one ID, and
// after every round the engine must enforce what Preferences lists.
func TestConcurrentRuleMutationsConverge(t *testing.T) {
	const (
		mutators   = 8
		iterations = 200
	)
	f := newFixtureWith(t, churnUsers(mutators))
	if err := f.bms.RegisterPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < mutators; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := fmt.Sprintf("churn-%d", i)
			g := &ruleGen{rng: rand.New(rand.NewSource(int64(i)))}
			for n := 0; n < iterations; n++ {
				id := fmt.Sprintf("%s-p%d", user, g.rng.Intn(3))
				if g.rng.Intn(3) == 0 {
					if _, err := f.bms.RemovePreference(id); err != nil {
						t.Errorf("RemovePreference: %v", err)
					}
				} else if err := f.bms.SetPreference(g.preference(id, user)); err != nil {
					t.Errorf("SetPreference: %v", err)
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := &ruleGen{rng: rand.New(rand.NewSource(99))}
		for n := 0; n < 5; n++ {
			if err := f.bms.RegisterPolicy(g.buildingPolicy()); err != nil {
				t.Errorf("RegisterPolicy: %v", err)
			}
		}
	}()
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				f.bms.Conflicts()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone

	var prefs []policy.Preference
	for i := 0; i < mutators; i++ {
		prefs = append(prefs, f.bms.Preferences(fmt.Sprintf("churn-%d", i))...)
	}
	sort.Slice(prefs, func(i, j int) bool { return prefs[i].ID < prefs[j].ID })
	want := reasoner.New(f.bms.Spaces(), 0).Detect(f.bms.Policies(), prefs)
	got := f.bms.Conflicts()
	if !sameElements(got, want) {
		t.Fatalf("after concurrent churn, Conflicts() is not the full pass over the final rules\n got  %d: %+v\n want %d: %+v",
			len(got), got, len(want), want)
	}
	if len(want) == 0 {
		t.Fatal("the run ended with no conflicts: nothing was compared")
	}

	// Same-ID writers: PUT deny, PUT allow and DELETE race on one
	// preference ID. Whichever lands last, the engine enforces exactly
	// what Preferences lists.
	g := newFixture(t)
	const id = "same-id"
	pref := func(a policy.Action) policy.Preference {
		return policy.Preference{ID: id, UserID: "mary", Scope: policy.Scope{ServiceID: "concierge"}, Rule: policy.Rule{Action: a}}
	}
	req := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService, Kind: sensor.ObsWiFiConnect,
		SubjectID: "mary", SpaceID: "dbh/2/r0", Granularity: policy.GranExact, Time: testNow}
	for round := 0; round < 20000; round++ {
		var wg sync.WaitGroup
		wg.Add(3)
		for _, a := range []policy.Action{policy.ActionDeny, policy.ActionAllow} {
			go func() {
				defer wg.Done()
				if err := g.bms.SetPreference(pref(a)); err != nil {
					t.Error(err)
				}
			}()
		}
		go func() {
			defer wg.Done()
			if _, err := g.bms.RemovePreference(id); err != nil {
				t.Errorf("RemovePreference: %v", err)
			}
		}()
		wg.Wait()
		listed := g.bms.Preferences("mary")
		d := g.bms.Engine().Decide(req, nil)
		matched := slices.Contains(d.MatchedPreferences, id)
		var agree bool
		switch {
		case len(listed) == 0:
			agree = !matched
		case listed[0].Rule.Action == policy.ActionDeny:
			agree = matched && !d.Allowed
		default:
			agree = matched && d.Allowed
		}
		if !agree {
			t.Fatalf("round %d: Preferences lists %+v, the engine decided allowed=%v matching %v",
				round, listed, d.Allowed, d.MatchedPreferences)
		}
	}
}

// TestSetPreferenceAllocsFlat: what one SetPreference allocates does
// not depend on how many preferences other users have installed. It is
// a count, so it holds on any host.
func TestSetPreferenceAllocsFlat(t *testing.T) {
	allocs := func(installed int) float64 {
		f := newFixtureWith(t, churnUsers(installed))
		if err := f.bms.RegisterPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < installed; i++ {
			for _, p := range policy.Preference2NoLocation(fmt.Sprintf("churn-%d", i))[:1] {
				if err := f.bms.SetPreference(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := len(f.bms.Conflicts()); got != installed {
			t.Fatalf("%d installed opt-outs gave %d conflicts", installed, got)
		}
		// The measured write replaces one user's opt-out: one conflict
		// retired, one derived, nobody else's rules consulted.
		p := policy.Preference2NoLocation("mary")[0]
		return testing.AllocsPerRun(20, func() {
			if err := f.bms.SetPreference(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(16000)
	if small < 1 {
		t.Fatalf("a preference write allocated %.0f objects: it did not run", small)
	}
	if diff := large - small; diff > 2 || diff < -2 {
		t.Fatalf("a preference write's allocations follow the installed rules: %.0f objects at 1 000 installed, %.0f at 16 000", small, large)
	}
}

// TestConflictsOrder pins the read-side order of Conflicts(): by
// policy, then preference, then other preference, as a full
// reasoner.Detect returns it — whatever order the rules arrived in.
func TestConflictsOrder(t *testing.T) {
	f := newFixture(t)
	deny := func(id, user string) policy.Preference {
		return policy.Preference{ID: id, UserID: user, Rule: policy.Rule{Action: policy.ActionDeny}}
	}
	limit := func(id, user string) policy.Preference {
		return policy.Preference{ID: id, UserID: user, Rule: policy.Rule{Action: policy.ActionLimit, MinAggregationK: 3}}
	}
	for _, p := range []policy.Preference{deny("z", "mary"), limit("a", "mary"), deny("m", "bob"), limit("b", "mary")} {
		if err := f.bms.SetPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"pol-b", "pol-a"} {
		if err := f.bms.RegisterPolicy(policy.BuildingPolicy{ID: id, Kind: policy.KindCollection}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, c := range f.bms.Conflicts() {
		got = append(got, fmt.Sprintf("%s|%s|%s", c.PolicyID, c.PreferenceID, c.OtherPreferenceID))
	}
	want := []string{
		"|a|z", "|b|z", // mary's pairs; a and b carry the same rule
		"pol-a|a|", "pol-a|b|", "pol-a|m|", "pol-a|z|",
		"pol-b|a|", "pol-b|b|", "pol-b|m|", "pol-b|z|",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Conflicts() order\n got  %v\n want %v", got, want)
	}
}
