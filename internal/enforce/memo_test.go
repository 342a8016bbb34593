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
	"github.com/tippers/tippers/internal/service"
)

// The decision memo built into Compiled carries the correctness
// obligations the old Cached wrapper had: minute quantization,
// epoch invalidation on every mutation, and the never-memoize rule
// for notification-bearing decisions. These tests hold it to them.

func newMemoEngine(t testing.TB) *Compiled {
	t.Helper()
	cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}
	return NewCompiled(cfg)
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
	// Same minute: memo hit, same outcome.
	if d := c.Decide(req, nil); d.Allowed {
		t.Fatal("memoized decision flipped")
	}
	// Evening: different minute bucket, re-evaluated, now allowed.
	req.Time = time.Date(2017, time.June, 7, 20, 0, 0, 0, time.UTC)
	if d := c.Decide(req, nil); !d.Allowed {
		t.Fatal("evening request used stale business-hours decision")
	}
}

func TestMemoInvalidationOnRuleChange(t *testing.T) {
	c := newMemoEngine(t)
	req := baseRequest()
	if d := c.Decide(req, nil); !d.Allowed {
		t.Fatal("baseline should allow")
	}
	pref := policy.CoarseLocationPreference("mary", "concierge")
	if err := c.AddPreference(pref); err != nil {
		t.Fatal(err)
	}
	if d := c.Decide(req, nil); d.Granularity != policy.GranBuilding {
		t.Fatalf("stale memo after AddPreference: %+v", d)
	}
	if !c.RemovePreference(pref.ID) {
		t.Fatal("remove failed")
	}
	if d := c.Decide(req, nil); d.Granularity != policy.GranExact {
		t.Fatalf("stale memo after RemovePreference: %+v", d)
	}
	if c.RemovePreference("ghost") {
		t.Error("ghost removal succeeded")
	}
}

func TestMemoNeverCachesNotifications(t *testing.T) {
	cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}
	svcReg := cfg.Services
	svcReg.MustRegister(service.Service{
		ID: "bms-emergency", Name: "Emergency", Developer: service.DeveloperBuilding,
		Declares: []service.DataRequest{{
			ObsKind: sensor.ObsWiFiConnect, Purpose: policy.PurposeEmergencyResponse,
			Granularity: policy.GranExact,
		}},
	})
	c := NewCompiled(cfg)
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
		if !d.Allowed || len(d.Notifications) == 0 {
			t.Fatalf("call %d: override notification lost: %+v", i, d)
		}
	}
	if hits, _ := c.Stats(); hits != 0 {
		t.Errorf("override decisions served from memo: %d hits", hits)
	}
}

// TestMemoEquivalenceProperty: the memoized engine must agree with the
// memo-free engine on randomized workloads (notification decisions are
// exempt from memoization by design, so they agree trivially too). A
// small cap exercises whole-memo resets mid-run.
func TestMemoEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}
	reference := NewCompiledMemo(cfg, -1)
	memoized := NewCompiledMemo(cfg, 128)

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
