package enforce

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/service"
	"github.com/tippers/tippers/internal/telemetry"
)

// The decision memo built into Compiled carries the correctness
// obligations the old Cached wrapper had: a key that tells apart every
// instant a time-windowed rule can tell apart (the window class),
// invalidation by every mutation of whatever the mutation can reach
// (the owner for a preference, everyone for a policy), and replaying
// override decisions, which carry no notification of their own, like
// any other. These tests hold it to them.

func newMemoEngine(t testing.TB) *Compiled {
	t.Helper()
	cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}
	return stopped(NewCompiled(cfg))
}

// stopped gives c a node clock that never moves, so the wall clock
// entering a new minute mid-test drops none of the entries a test
// counts on.
func stopped(c *Compiled) *Compiled {
	c.SetClock(func() time.Time { return baseRequest().Time })
	return c
}

func TestMemoHitsOnRepeats(t *testing.T) {
	c := newMemoEngine(t)
	req := baseRequest()
	first := c.Decide(req, nil)
	second := c.Decide(req, nil)
	if !reflect.DeepEqual(normalizeDecision(first), normalizeDecision(second)) {
		t.Error("memoized decision differs")
	}
	if !second.FromCache {
		t.Error("second identical decision not served from memo")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits, %d misses; want 1/1", hits, misses)
	}
}

func TestMemoMinuteQuantization(t *testing.T) {
	c := newMemoEngine(t)
	// A business-hours-scoped preference makes decisions time-dependent.
	if err := c.AddPreference(policy.Preference{
		ID: "biz-only", UserID: "mary",
		Scope: policy.Scope{ObsKind: sensor.ObsWiFiConnect, Window: policy.BusinessHours},
		Rule:  policy.Rule{Action: policy.ActionDeny},
	}); err != nil {
		t.Fatal(err)
	}
	req := baseRequest() // Wednesday 2pm: inside business hours
	if d := c.Decide(req, nil); d.Allowed {
		t.Fatal("business-hours deny missed")
	}
	// Same instant: memo hit, same outcome.
	if d := c.Decide(req, nil); d.Allowed {
		t.Fatal("memoized decision flipped")
	}
	// Evening: another window class, decided afresh, now allowed.
	req.Time = time.Date(2017, time.June, 7, 20, 0, 0, 0, time.UTC)
	if d := c.Decide(req, nil); !d.Allowed {
		t.Fatal("evening request used stale business-hours decision")
	}
}

// TestMemoInvalidationOnRuleChange: a preference write is seen by the
// owner's very next decision and costs nobody else their memo entries;
// a policy write costs everyone theirs.
func TestMemoInvalidationOnRuleChange(t *testing.T) {
	c := newMemoEngine(t)
	req := baseRequest() // about mary
	other := baseRequest()
	other.SubjectID = "bob"
	if d := c.Decide(req, nil); !d.Allowed {
		t.Fatal("baseline should allow")
	}
	c.Decide(other, nil)
	// hitsOn reports which of the two repeats the memo served.
	hitsOn := func() (mary, bob bool) {
		t.Helper()
		return c.Decide(req, nil).FromCache, c.Decide(other, nil).FromCache
	}
	if mary, bob := hitsOn(); !mary || !bob {
		t.Fatalf("warm repeats: mary hit %v, bob hit %v", mary, bob)
	}

	pref := policy.CoarseLocationPreference("mary", "concierge")
	if err := c.AddPreference(pref); err != nil {
		t.Fatal(err)
	}
	d := c.Decide(req, nil)
	if d.FromCache || d.Granularity != policy.GranBuilding {
		t.Fatalf("stale memo after AddPreference: %+v", d)
	}
	if !c.Decide(other, nil).FromCache {
		t.Error("mary's preference write cost bob his memo entry")
	}
	if !c.RemovePreference(pref.ID) {
		t.Fatal("remove failed")
	}
	d = c.Decide(req, nil)
	if d.FromCache || d.Granularity != policy.GranExact {
		t.Fatalf("stale memo after RemovePreference: %+v", d)
	}
	if !c.Decide(other, nil).FromCache {
		t.Error("removing mary's preference cost bob his memo entry")
	}
	if c.RemovePreference("ghost") {
		t.Error("ghost removal succeeded")
	}
	if mary, bob := hitsOn(); !mary || !bob {
		t.Fatalf("a removal that found nothing aged the memo: mary hit %v, bob hit %v", mary, bob)
	}

	// Non-override policies never reach Decide, but the engine does not
	// reason about that: a policy write ages everyone.
	for _, bp := range []policy.BuildingPolicy{policy.Policy1Comfort("dbh", 70), policy.Policy2EmergencyLocation("dbh")} {
		if err := c.AddPolicy(bp); err != nil {
			t.Fatal(err)
		}
		if mary, bob := hitsOn(); mary || bob {
			t.Fatalf("after AddPolicy(%s): mary hit %v, bob hit %v", bp.ID, mary, bob)
		}
	}
	if got := [3]uint64{c.agedSubject.Value(), c.agedAll.Value(), c.agedMinute.Value()}; got != [3]uint64{2, 2, 0} {
		t.Errorf("invalidations (subject, all, minute) = %v, want [2 2 0]", got)
	}
}

// TestMemoOwnerMove: a preference ID re-registered under another user
// changes both users' decisions — the old owner loses the rule, the new
// one gains it — so both are aged, and a bystander is not.
func TestMemoOwnerMove(t *testing.T) {
	c := newMemoEngine(t)
	reqFor := func(subject string) Request {
		req := baseRequest()
		req.SubjectID = subject
		return req
	}
	deny := policy.Preference{ID: "roaming", UserID: "mary", Rule: policy.Rule{Action: policy.ActionDeny}}
	if err := c.AddPreference(deny); err != nil {
		t.Fatal(err)
	}
	for _, who := range []string{"mary", "bob", "carol"} {
		if d := c.Decide(reqFor(who), nil); d.Allowed != (who != "mary") {
			t.Fatalf("%s before the move: %+v", who, d)
		}
	}
	deny.UserID = "bob"
	if err := c.AddPreference(deny); err != nil {
		t.Fatal(err)
	}
	if d := c.Decide(reqFor("mary"), nil); d.FromCache || !d.Allowed {
		t.Errorf("mary still denied by the rule that moved to bob: %+v", d)
	}
	if d := c.Decide(reqFor("bob"), nil); d.FromCache || d.Allowed {
		t.Errorf("bob not denied by the rule that moved to him: %+v", d)
	}
	if d := c.Decide(reqFor("carol"), nil); !d.FromCache {
		t.Error("the move cost a bystander her memo entry")
	}
	if _, prefs := c.Counts(); prefs != 1 {
		t.Errorf("Counts = %d preferences, want the one that moved", prefs)
	}
}

// memoEntries reads the entries gauge the way an operator would.
func memoEntries(t *testing.T, c *Compiled) int {
	t.Helper()
	reg := telemetry.NewRegistry()
	c.RegisterMetrics(reg)
	v, ok := reg.LookupValue("tippers_enforce_cache_entries", nil)
	if !ok {
		t.Fatal("tippers_enforce_cache_entries not registered")
	}
	return int(v)
}

// TestMemoHoldsLiveMinuteOnly: an entry is valid for every instant of
// its window class, and lives for one minute of the node's clock. Each
// minute of that clock reads subjects nobody read before: the repeats
// hit, and the minute's first store drops what the minute before
// stored, so the memo holds one minute's entries after ten. A replay of
// one subject's evening decides once per class and serves every other
// row from the memo. While the clock reads behind the stored minute a
// miss is decided but not stored. The invalidation counters are on the
// registry under their scopes.
func TestMemoHoldsLiveMinuteOnly(t *testing.T) {
	c := newMemoEngine(t)
	var minute atomic.Int64
	start := time.Date(2017, time.June, 7, 17, 55, 0, 0, time.UTC)
	c.SetClock(func() time.Time { return start.Add(time.Duration(minute.Load()) * time.Minute) })
	if err := c.AddPreference(policy.Preference{
		ID: "evenings", UserID: "mary",
		Scope: policy.Scope{Window: policy.AfterHours},
		Rule:  policy.Rule{Action: policy.ActionDeny},
	}); err != nil {
		t.Fatal(err)
	}
	decide := func(who string, at time.Time) Decision {
		t.Helper()
		req := baseRequest()
		req.SubjectID, req.Time = who, at
		d := c.Decide(req, nil)
		if want := who != "mary" || !policy.AfterHours.Contains(at); d.Allowed != want {
			t.Fatalf("%s at %v: allowed = %v, want %v", who, at, d.Allowed, want)
		}
		return d
	}
	for m := 0; m < 10; m++ {
		minute.Store(int64(m))
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 4; i++ {
				if d := decide(fmt.Sprintf("s%d-%d", m, i), start); d.FromCache != (pass == 1) {
					t.Fatalf("minute %d, subject %d, pass %d: FromCache = %v", m, i, pass, d.FromCache)
				}
			}
		}
		if got := memoEntries(t, c); got != 4 {
			t.Fatalf("minute %d: %d entries, want the minute's 4", m, got)
		}
	}

	// Mary's rows from 16:55 to 21:55: two classes, either side of 18:00.
	for i, at := range []time.Time{start.Add(30 * time.Minute), start.Add(2 * time.Hour), start.Add(-time.Hour),
		start.Add(-50 * time.Minute), start.Add(4 * time.Hour)} {
		if d := decide("mary", at); d.FromCache != (i%2 == 1 || i == 4) {
			t.Fatalf("replayed row %d at %v: FromCache = %v", i, at, d.FromCache)
		}
	}

	minute.Add(-1)
	for i := 0; i < 2; i++ {
		if d := decide("bob", start); d.FromCache {
			t.Fatalf("call %d behind the stored minute was served from the memo", i)
		}
	}
	minute.Add(1)
	for i := 0; i < 2; i++ {
		if d := decide("bob", start); d.FromCache != (i == 1) {
			t.Fatalf("call %d back at the stored minute: FromCache = %v", i, d.FromCache)
		}
	}

	reg := telemetry.NewRegistry()
	c.RegisterMetrics(reg)
	for scope, want := range map[string]float64{"subject": 0, "all": 0, "minute": 9} {
		got, ok := reg.LookupValue("tippers_enforce_memo_invalidations_total", telemetry.Labels{"scope": scope})
		if !ok || got != want {
			t.Errorf("invalidations{scope=%q} = %v (registered %v), want %v", scope, got, ok, want)
		}
	}
}

// TestMemoHitAfterForeignWriteAllocsNothing: the memo hit stays
// allocation-free when the subject map has been written to — the aged
// lookup is a probe, not a key built per decide.
func TestMemoHitAfterForeignWriteAllocsNothing(t *testing.T) {
	c := newMemoEngine(t)
	req := baseRequest()
	req.SubjectID = "bob"
	groups := []profile.Group{profile.GroupFaculty}
	c.Decide(req, groups)
	pref := policy.CoarseLocationPreference("mary", "concierge")
	for i := 0; i < 3; i++ {
		if err := c.AddPreference(pref); err != nil {
			t.Fatal(err)
		}
		var d Decision
		if allocs := testing.AllocsPerRun(50, func() { d = c.Decide(req, groups) }); allocs != 0 || !d.FromCache {
			t.Fatalf("after write %d for mary, bob's repeat: %.0f allocs, FromCache %v", i, allocs, d.FromCache)
		}
	}
}

// TestMemoChurnAcrossMinutes races preference writes, decides and
// advances of the node's clock on one engine. Each mutator owns a
// subject and replaces that subject's preference with a growing version
// (carried in NoiseEpsilon), publishing the version only after
// AddPreference returns; deciders read the published version before
// deciding, about the clock's minute or one behind it, so a decision
// carrying an older version is a memo entry that outlived the write —
// through another owner's write, a minute advance clearing the write
// epochs, or the insert of a decision computed before the write. Under
// -race it also covers the memo's own bookkeeping.
func TestMemoChurnAcrossMinutes(t *testing.T) {
	const owners, deciders, versions = 4, 4, 400
	c := newMemoEngine(t)
	owner := func(i int) string { return fmt.Sprintf("owner-%d", i) }
	write := func(i int, v int64) {
		if err := c.AddPreference(policy.Preference{ID: "pref-" + owner(i), UserID: owner(i),
			Scope: policy.Scope{ServiceID: "concierge"},
			Rule:  policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranBuilding, NoiseEpsilon: float64(v)}}); err != nil {
			t.Error(err)
		}
	}
	var committed [owners]atomic.Int64
	for i := range committed {
		write(i, 1)
		committed[i].Store(1)
	}
	var minute atomic.Int64
	start := baseRequest().Time
	c.SetClock(func() time.Time { return start.Add(time.Duration(minute.Load()) * time.Minute) })
	done := make(chan struct{})
	var mutators, readers sync.WaitGroup
	for i := 0; i < owners; i++ {
		mutators.Add(1)
		go func() {
			defer mutators.Done()
			for v := int64(2); v <= versions; v++ {
				write(i, v)
				committed[i].Store(v)
				if i == 0 && v%40 == 0 {
					minute.Add(1)
				}
			}
		}()
	}
	for g := 0; g < deciders; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				i := (g + n) % owners
				req := baseRequest()
				req.SubjectID = owner(i)
				req.Time = start.Add(time.Duration(minute.Load()-int64(n%5/4)) * time.Minute)
				floor := committed[i].Load()
				if d := c.Decide(req, nil); int64(d.Effective.NoiseEpsilon) < floor {
					t.Errorf("%s served version %v after version %d was committed (from the memo: %v)",
						owner(i), d.Effective.NoiseEpsilon, floor, d.FromCache)
					return
				}
			}
		}()
	}
	mutators.Wait()
	close(done)
	readers.Wait()
	if hits, _ := c.Stats(); hits == 0 {
		t.Error("no decide was served from the memo")
	}
}

// TestScopedMemoMatchesReferences is the differential property behind
// scoped invalidation: under a random interleaving of preference adds
// (including an ID re-registered under another owner), removals,
// policy writes (override and not) and decides — over two dozen
// subjects, some in several groups, about instants either side of the
// minute the after-hours window opens, while the node's clock mostly
// advances and sometimes steps back — the memoized engine decides
// exactly like the memo-free one and like Naive fed the same mutations.
// The request vocabulary is small so most decides could be memo hits:
// a stale one would show.
func TestScopedMemoMatchesReferences(t *testing.T) {
	subjects := make([]string, 24)
	groupsOf := map[string][]profile.Group{}
	for i := range subjects {
		subjects[i] = fmt.Sprintf("s%02d", i)
		switch i % 3 {
		case 1:
			groupsOf[subjects[i]] = []profile.Group{profile.GroupStudent}
		case 2:
			groupsOf[subjects[i]] = []profile.Group{profile.GroupFaculty, profile.GroupVisitor}
		}
	}
	kinds := []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting}
	spaces := []string{"dbh/2", "dbh/2/r1"}
	services := []string{"concierge", "concierge", "concierge", ""}
	purposes := []policy.Purpose{policy.PurposeProvidingService, policy.PurposeProvidingService,
		policy.PurposeProvidingService, policy.PurposeEmergencyResponse}
	windows := []policy.DailyWindow{{}, {}, policy.AfterHours, policy.BusinessHours}

	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: seed%2 == 1,
				GroupDefaults: []GroupDefault{{ID: "visitors-coarse", Groups: []profile.Group{profile.GroupVisitor},
					Rule: policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranBuilding}}}}
			naive := NewNaive(cfg)
			memoized := NewCompiledMemo(cfg, 256) // below the live working set: the cap resets too
			engines := map[string]Engine{"compiled-nomemo": NewCompiledMemo(cfg, -1), "compiled": memoized}

			policies := 0
			mutate := func() {
				switch n := r.Intn(40); {
				case n < 22:
					// 40 IDs over 24 owners: most adds replace, many under
					// another owner.
					p := policy.Preference{
						ID:     fmt.Sprintf("pref-%d", r.Intn(40)),
						UserID: subjects[r.Intn(len(subjects))],
						Scope: policy.Scope{
							ObsKind:   append(kinds, "")[r.Intn(3)],
							SpaceID:   append(spaces, "")[r.Intn(3)],
							ServiceID: services[2+r.Intn(2)],
							Window:    windows[r.Intn(len(windows))],
						},
						Rule: randDiffRule(r),
					}
					for name, e := range engines {
						if err := e.AddPreference(p); err != nil {
							t.Fatalf("%s: AddPreference: %v", name, err)
						}
					}
					if err := naive.AddPreference(p); err != nil {
						t.Fatal(err)
					}
				case n < 39:
					id := fmt.Sprintf("pref-%d", r.Intn(40))
					want := naive.RemovePreference(id)
					for name, e := range engines {
						if got := e.RemovePreference(id); got != want {
							t.Fatalf("%s: RemovePreference(%s) = %v, naive %v", name, id, got, want)
						}
					}
				default:
					bp := randDiffOverride(r, policies)
					bp.Override = r.Intn(2) == 0
					policies++
					for name, e := range engines {
						if err := e.AddPolicy(bp); err != nil {
							t.Fatalf("%s: AddPolicy: %v", name, err)
						}
					}
					if err := naive.AddPolicy(bp); err != nil {
						t.Fatal(err)
					}
				}
			}

			minute, back, backFor := 0, 0, 0
			start := time.Date(2017, time.June, 7, 17, 57, 0, 0, time.UTC)
			clock := 0 // the node's, in minutes after start
			memoized.SetClock(func() time.Time { return start.Add(time.Duration(clock) * time.Minute) })
			for trial := 0; trial < 10000; trial++ {
				if r.Intn(12) == 0 {
					mutate()
				}
				switch r.Intn(1500) {
				case 0, 1, 2:
					minute++
				case 3, 4:
					back, backFor = 1+r.Intn(2), 30 // a replay behind the live edge
				}
				at := minute
				if backFor > 0 {
					at, backFor = max(0, minute-back), backFor-1
				} else if r.Intn(20) == 0 {
					at = max(0, minute-1) // a lone straggler
				}
				clock = minute
				if r.Intn(40) == 0 {
					clock-- // the node's clock read behind its last minute
				}
				req := Request{
					ServiceID:   services[r.Intn(4)],
					Purpose:     purposes[r.Intn(4)],
					Kind:        kinds[r.Intn(2)],
					SubjectID:   subjects[r.Intn(len(subjects))],
					SpaceID:     spaces[r.Intn(2)],
					Granularity: policy.GranExact,
					Time:        start.Add(time.Duration(at)*time.Minute + time.Duration(r.Intn(60))*time.Second),
				}
				groups := groupsOf[req.SubjectID]
				want := normalizeDecision(naive.Decide(req, groups))
				for name, e := range engines {
					if got := normalizeDecision(e.Decide(req, groups)); !reflect.DeepEqual(want, got) {
						t.Fatalf("trial %d: %s disagrees with naive\nreq: %+v\ngroups: %v\nnaive: %+v\n%s: %+v",
							trial, name, req, groups, want, name, got)
					}
				}
			}
			if minute < 3 {
				t.Fatalf("the clock only reached minute %d", minute)
			}
			hits, misses := memoized.Stats()
			if hits < misses/4 {
				t.Errorf("memo barely hit (%d hits, %d misses): the property did not exercise it", hits, misses)
			}
			for scope, n := range map[string]uint64{"subject": memoized.agedSubject.Value(),
				"all": memoized.agedAll.Value(), "minute": memoized.agedMinute.Value()} {
				if n == 0 {
					t.Errorf("no %q invalidation in the run", scope)
				}
			}
		})
	}
}

// TestMemoReplaysOverrideDecisions: an override decision is a pure
// function of the rules, so the memo serves its repeats, and every
// replay still names the overridden preference the node notifies on.
func TestMemoReplaysOverrideDecisions(t *testing.T) {
	cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}
	svcReg := cfg.Services
	svcReg.MustRegister(service.Service{
		ID: "bms-emergency", Name: "Emergency", Developer: service.DeveloperBuilding,
		Declares: []service.DataRequest{{
			ObsKind: sensor.ObsWiFiConnect, Purpose: policy.PurposeEmergencyResponse,
			Granularity: policy.GranExact,
		}},
	})
	c := stopped(NewCompiled(cfg))
	if err := c.AddPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
		t.Fatal(err)
	}
	for _, p := range policy.Preference2NoLocation("mary") {
		if err := c.AddPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	req := baseRequest()
	req.ServiceID = "bms-emergency"
	req.Purpose = policy.PurposeEmergencyResponse
	for i := 0; i < 3; i++ {
		d := c.Decide(req, nil)
		if !d.Allowed || len(d.Overridden) == 0 {
			t.Fatalf("call %d: override lost: %+v", i, d)
		}
	}
	if hits, _ := c.Stats(); hits != 2 {
		t.Errorf("override decisions: %d memo hits in 3 calls, want 2", hits)
	}
}

// TestMemoEquivalenceProperty: the memoized engine must agree with the
// memo-free engine on randomized workloads. A small cap exercises
// whole-memo resets mid-run.
func TestMemoEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}
	reference := NewCompiledMemo(cfg, -1)
	memoized := stopped(NewCompiledMemo(cfg, 128))

	users := []string{"u0", "u1", "u2"}
	kinds := []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting, ""}
	for i := 0; i < 100; i++ {
		p := policy.Preference{
			ID:     fmt.Sprintf("p-%d", i),
			UserID: users[r.Intn(len(users))],
			Scope:  policy.Scope{ObsKind: kinds[r.Intn(len(kinds))]},
			Rule:   policy.Rule{Action: policy.Action(1 + r.Intn(2))},
		}
		if r.Intn(3) == 0 {
			p.Scope.Window = policy.AfterHours
		}
		if err := reference.AddPreference(p); err != nil {
			t.Fatal(err)
		}
		if err := memoized.AddPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 3000; trial++ {
		req := Request{
			ServiceID:   "concierge",
			Purpose:     policy.PurposeProvidingService,
			Kind:        kinds[r.Intn(2)],
			SubjectID:   users[r.Intn(len(users))],
			SpaceID:     "dbh",
			Granularity: policy.GranExact,
			// Coarse time grid so repeats occur and the memo is hot.
			Time: time.Date(2017, time.June, 7, r.Intn(24), 0, 0, 0, time.UTC),
		}
		a := normalizeDecision(reference.Decide(req, nil))
		b := normalizeDecision(memoized.Decide(req, nil))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: memoized disagrees\nreq: %+v\nref:  %+v\nmemo: %+v", trial, req, a, b)
		}
	}
	hits, misses := memoized.Stats()
	if hits == 0 {
		t.Errorf("memo never hit (%d misses)", misses)
	}
}

func TestMemoGroupsInKey(t *testing.T) {
	cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}
	c := NewCompiled(cfg)
	bp := policy.Policy2EmergencyLocation("dbh")
	bp.Scope.SubjectGroups = []profile.Group{profile.GroupStudent}
	if err := c.AddPolicy(bp); err != nil {
		t.Fatal(err)
	}
	for _, p := range policy.Preference2NoLocation("mary") {
		if err := c.AddPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	req := baseRequest()
	req.ServiceID = ""
	req.Purpose = policy.PurposeEmergencyResponse
	// Student: override applies. Faculty: deny stands. The memo must
	// not conflate them.
	if d := c.Decide(req, []profile.Group{profile.GroupStudent}); !d.Allowed {
		t.Fatalf("student decision = %+v", d)
	}
	if d := c.Decide(req, []profile.Group{profile.GroupFaculty}); d.Allowed {
		t.Fatalf("faculty decision served from student memo entry: %+v", d)
	}
}

// TestMemoInsertAllocs: a minute's 1 000 distinct inserts into a memo
// whose index has grown allocate at most one chunk per 64 decisions — a
// map of Decisions allocated every entry on its own — and each decision
// reads back from its own slot; a drop keeps only the first chunk,
// emptied; a hit through Decide allocates nothing.
func TestMemoInsertAllocs(t *testing.T) {
	m := decisionMemo{index: make(map[cacheKey]int32)}
	keys := make([]cacheKey, 1000)
	for i := range keys {
		keys[i] = cacheKey{subject: fmt.Sprintf("s%04d", i), service: "concierge"}
	}
	minute := func() {
		m.drop() // what a later minute does
		for i, k := range keys {
			m.put(k, Decision{Allowed: true, PreferencesConsulted: i})
		}
	}
	chunks := float64((len(keys) + memoChunk - 1) / memoChunk)
	if n := testing.AllocsPerRun(10, minute); n > chunks {
		t.Fatalf("1000 inserts: %.0f allocations, want at most %.0f", n, chunks)
	}
	for i, k := range keys {
		if d, ok := m.get(k); !ok || d.PreferencesConsulted != i {
			t.Fatalf("key %d reads back %+v, %v", i, d, ok)
		}
	}
	m.drop()
	kept := slices.IndexFunc(m.chunks[:cap(m.chunks)], func(c *[memoChunk]Decision) bool { return c == nil })
	if len(m.chunks) != 1 || kept != 1 || !reflect.ValueOf(*m.chunks[0]).IsZero() {
		t.Fatalf("a drop left %d chunks in the list, %d reachable from its backing array, the first emptied %v",
			len(m.chunks), kept, reflect.ValueOf(*m.chunks[0]).IsZero())
	}

	c := newMemoEngine(t)
	req := baseRequest()
	c.Decide(req, nil)
	var d Decision
	if n := testing.AllocsPerRun(100, func() { d = c.Decide(req, nil) }); n != 0 || !d.FromCache {
		t.Fatalf("memo hit: %.0f allocations, FromCache %v", n, d.FromCache)
	}
}

// TestMemoMatchesMemoFreeUnderRace races decides against rule writes,
// advances of the node's clock and cap overflows on a memo far below
// the working set. Requests are about instants at the clock's minute,
// ahead of it and behind it. Between rounds a random preference add or removal, or an
// emergency override policy, goes to the memoized and the memo-free
// engine alike; within a round, deciders compare the two on requests no
// concurrent write reaches, while writers race them on the two domains
// they check by floor: each owner's preference carries a version, and
// each security override policy sorts before every earlier one, so it
// wins. A lookup that served an aged subject's entry or a dropped
// generation's would show below its floor.
func TestMemoMatchesMemoFreeUnderRace(t *testing.T) {
	const rounds, deciders, perRound = 25, 4, 300
	cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true,
		GroupDefaults: []GroupDefault{{ID: "visitors-coarse", Groups: []profile.Group{profile.GroupVisitor},
			Rule: policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranBuilding}}}}
	memoized := NewCompiledMemo(cfg, 160) // below the working set: the cap drops too
	engines := []*Compiled{memoized, NewCompiledMemo(cfg, -1)}
	apply := func(f func(*Compiled) error) {
		for _, e := range engines {
			if err := f(e); err != nil {
				t.Error(err)
			}
		}
	}

	// The static domain: subjects only the round boundaries mutate.
	subjects := make([]string, 12)
	groupsOf := map[string][]profile.Group{}
	for i := range subjects {
		subjects[i] = fmt.Sprintf("s%02d", i)
		groupsOf[subjects[i]] = [][]profile.Group{nil, {profile.GroupStudent}, {profile.GroupVisitor}}[i%3]
	}
	kinds := []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting}
	spaces := []string{"dbh/1/r0", "dbh/2", "dbh/2/r1"}
	windows := []policy.DailyWindow{{}, {}, policy.AfterHours, policy.BusinessHours}
	r := rand.New(rand.NewSource(1))
	mutate := func(round int) {
		switch n := r.Intn(10); {
		case n < 6:
			p := policy.Preference{ID: fmt.Sprintf("pref-%d", r.Intn(20)), UserID: subjects[r.Intn(len(subjects))],
				Scope: policy.Scope{ObsKind: kinds[r.Intn(2)], SpaceID: append(spaces, "")[r.Intn(4)],
					Window: windows[r.Intn(len(windows))]},
				Rule: randDiffRule(r)}
			apply(func(e *Compiled) error { return e.AddPreference(p) })
		case n < 9:
			id := fmt.Sprintf("pref-%d", r.Intn(20))
			apply(func(e *Compiled) error { e.RemovePreference(id); return nil })
		default:
			bp := policy.Policy2EmergencyLocation(spaces[r.Intn(len(spaces))])
			bp.ID = fmt.Sprintf("emergency-%02d", round)
			bp.Scope.ObsKind = kinds[r.Intn(2)]
			apply(func(e *Compiled) error { return e.AddPolicy(bp) })
		}
	}

	// The floor-checked domains.
	owners := []string{"o0", "o1", "o2"}
	var versions [3]atomic.Int64
	ownerPref := func(i int, v int64) policy.Preference {
		return policy.Preference{ID: "pref-" + owners[i], UserID: owners[i], Scope: policy.Scope{ServiceID: "concierge"},
			Rule: policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranBuilding, NoiseEpsilon: float64(v)}}
	}
	for i := range owners {
		apply(func(e *Compiled) error { return e.AddPreference(ownerPref(i, 1)) })
		versions[i].Store(1)
	}
	var generation atomic.Int64
	securityPolicy := func(g int64) policy.BuildingPolicy {
		bp := policy.Policy2EmergencyLocation("dbh")
		bp.ID = fmt.Sprintf("security-%04d", 9999-g)
		bp.Scope.Purposes = []policy.Purpose{policy.PurposeSecurity}
		bp.Scope.SubjectGroups = []profile.Group{profile.GroupVisitor}
		return bp
	}

	var minute atomic.Int64
	start := time.Date(2017, time.June, 7, 17, 57, 0, 0, time.UTC)
	memoized.SetClock(func() time.Time { return start.Add(time.Duration(minute.Load()) * time.Minute) })
	for round := 0; round < rounds; round++ {
		mutate(round)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for n := 0; n < 6; n++ {
				i := n % len(owners)
				v := versions[i].Load() + 1
				apply(func(e *Compiled) error { return e.AddPreference(ownerPref(i, v)) })
				versions[i].Store(v)
			}
		}()
		go func() {
			defer wg.Done()
			for n := 0; n < 1; n++ {
				g := generation.Load() + 1
				apply(func(e *Compiled) error { return e.AddPolicy(securityPolicy(g)) })
				generation.Store(g)
			}
		}()
		for g := 0; g < deciders; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(round*deciders + g)))
				for n := 0; n < perRound; n++ {
					at := minute.Load()
					switch r.Intn(2000) {
					case 0, 1, 2:
						minute.Add(1)
					case 3:
						at++ // a request stamped ahead of the clock
					case 4, 5, 6, 7, 8, 9, 10, 11, 12, 13:
						at-- // a replay behind the live edge
					}
					req := Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService, Kind: kinds[r.Intn(2)],
						SpaceID: spaces[r.Intn(len(spaces))], Granularity: policy.GranExact,
						Time: start.Add(time.Duration(at)*time.Minute + time.Duration(r.Intn(60))*time.Second)}
					switch r.Intn(4) {
					case 0:
						i := r.Intn(len(owners))
						req.SubjectID = owners[i]
						floor := versions[i].Load()
						if d := memoized.Decide(req, nil); int64(d.Effective.NoiseEpsilon) < floor {
							t.Errorf("%s served version %v after version %d was committed (from the memo: %v)",
								owners[i], d.Effective.NoiseEpsilon, floor, d.FromCache)
							return
						}
					case 1:
						req.ServiceID, req.Purpose, req.Kind = "", policy.PurposeSecurity, sensor.ObsWiFiConnect
						req.SubjectID = fmt.Sprintf("v%d", r.Intn(4))
						g := generation.Load()
						d := memoized.Decide(req, []profile.Group{profile.GroupVisitor})
						if want := securityPolicy(g).ID; g > 0 && (d.OverridePolicyID == "" || d.OverridePolicyID > want) {
							t.Errorf("%s decided by override %q after %q was committed (from the memo: %v)",
								req.SubjectID, d.OverridePolicyID, want, d.FromCache)
							return
						}
					default:
						req.SubjectID = subjects[r.Intn(len(subjects))]
						if r.Intn(4) == 0 {
							req.ServiceID, req.Purpose = "", policy.PurposeEmergencyResponse
						}
						groups := groupsOf[req.SubjectID]
						want := normalizeDecision(engines[1].Decide(req, groups))
						if got := normalizeDecision(memoized.Decide(req, groups)); !reflect.DeepEqual(want, got) {
							t.Errorf("round %d: memoized engine disagrees with the memo-free one\nreq: %+v\nwant: %+v\ngot:  %+v",
								round, req, want, got)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
	hits, misses := memoized.Stats()
	t.Logf("%d hits, %d misses; invalidations subject %d, all %d, minute %d", hits, misses,
		memoized.agedSubject.Value(), memoized.agedAll.Value(), memoized.agedMinute.Value())
	if hits < misses/4 {
		t.Errorf("memo barely hit (%d hits, %d misses)", hits, misses)
	}
	for scope, n := range map[string]uint64{"subject": memoized.agedSubject.Value(),
		"all": memoized.agedAll.Value(), "minute": memoized.agedMinute.Value()} {
		if n == 0 {
			t.Errorf("no %q invalidation in the run", scope)
		}
	}
}
