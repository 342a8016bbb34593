package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/service"
	"github.com/tippers/tippers/internal/spatial"
)

var testNow = time.Date(2017, time.June, 7, 14, 0, 0, 0, time.UTC) // Wednesday 2pm

type fixture struct {
	bms *BMS
	now time.Time
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	return newFixtureWith(t, func(*Config) {})
}

// newFixtureWith builds the standard test BMS after letting the caller
// adjust its Config (e.g. swap in a durable store).
func newFixtureWith(t testing.TB, adjust func(*Config)) *fixture {
	t.Helper()
	bms, err := New(fixtureConfig(adjust))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bms.Close)
	return &fixture{bms: bms, now: testNow}
}

// fixtureConfig is the standard test BMS's Config, adjusted.
func fixtureConfig(adjust func(*Config)) Config {
	spaces := spatial.NewModel()
	spaces.MustAdd("", spatial.Space{ID: "dbh", Name: "Donald Bren Hall", Kind: spatial.KindBuilding})
	for f := 1; f <= 2; f++ {
		fid := fmt.Sprintf("dbh/%d", f)
		spaces.MustAdd("dbh", spatial.Space{ID: fid, Kind: spatial.KindFloor, Floor: f})
		for r := 0; r < 3; r++ {
			spaces.MustAdd(fid, spatial.Space{ID: fmt.Sprintf("%s/r%d", fid, r), Kind: spatial.KindRoom, Floor: f})
		}
	}

	users := profile.NewDirectory()
	users.MustAdd(profile.User{
		ID: "mary", Name: "Mary",
		Profiles:   []profile.Profile{{Group: profile.GroupGradStudent, OfficeID: "dbh/2/r0"}},
		DeviceMACs: []string{"aa:00:00:00:00:01"},
	})
	users.MustAdd(profile.User{
		ID: "bob", Name: "Bob",
		Profiles:   []profile.Profile{{Group: profile.GroupFaculty, OfficeID: "dbh/2/r1"}},
		DeviceMACs: []string{"aa:00:00:00:00:02"},
	})
	users.MustAdd(profile.User{
		ID: "carol", Name: "Carol",
		Profiles:   []profile.Profile{{Group: profile.GroupUndergrad}},
		DeviceMACs: []string{"aa:00:00:00:00:03"},
	})

	sensors := sensor.NewRegistry()
	sensors.MustAdd(sensor.MustNew("ap-1", sensor.TypeWiFiAP, "dbh/1/r0"))
	sensors.MustAdd(sensor.MustNew("ap-2", sensor.TypeWiFiAP, "dbh/2/r0"))
	sensors.MustAdd(sensor.MustNew("ble-1", sensor.TypeBLEBeacon, "dbh/2/r0"))
	sensors.MustAdd(sensor.MustNew("door-1", sensor.TypeAccessControl, "dbh/1/r1"))
	sensors.MustAdd(sensor.MustNew("hvac-1", sensor.TypeHVAC, "dbh/2/r0"))

	services := service.NewRegistry()
	services.MustRegister(service.Concierge())
	services.MustRegister(service.SmartMeeting())
	services.MustRegister(service.Service{
		ID: "bms-emergency", Name: "BMS Emergency Response",
		Developer: service.DeveloperBuilding,
		Declares: []service.DataRequest{{
			ObsKind: sensor.ObsWiFiConnect, Purpose: policy.PurposeEmergencyResponse,
			Granularity: policy.GranExact,
		}},
	})

	cfg := Config{
		Spaces:       spaces,
		Users:        users,
		Sensors:      sensors,
		Services:     services,
		DefaultAllow: true,
		Clock:        func() time.Time { return testNow },
	}
	adjust(&cfg)
	return cfg
}

func (f *fixture) wifiObs(mac, apID string, minute int) sensor.Observation {
	return sensor.Observation{
		SensorID:  apID,
		Kind:      sensor.ObsWiFiConnect,
		DeviceMAC: mac,
		Time:      f.now.Add(time.Duration(minute) * time.Minute),
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted empty config")
	}
}

func TestIngestAttributionAndStamping(t *testing.T) {
	f := newFixture(t)
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", 0)); err != nil {
		t.Fatal(err)
	}
	got := f.bms.Store().Query(obstore.Filter{UserID: "mary"})
	if len(got) != 1 {
		t.Fatalf("observations = %d", len(got))
	}
	if got[0].SpaceID != "dbh/2/r0" {
		t.Errorf("SpaceID = %q, want sensor location", got[0].SpaceID)
	}
	if err := f.bms.Ingest(sensor.Observation{SensorID: "ghost"}); err == nil {
		t.Error("unregistered sensor accepted")
	}
	// Unknown MAC: stored but unattributed.
	if err := f.bms.Ingest(f.wifiObs("ff:ff:ff:ff:ff:ff", "ap-1", 1)); err != nil {
		t.Fatal(err)
	}
	if n := f.bms.Store().Count(obstore.Filter{DeviceMAC: "ff:ff:ff:ff:ff:ff"}); n != 1 {
		t.Errorf("unattributed obs = %d", n)
	}
	if f.bms.Stats().Ingested != 2 {
		t.Errorf("Stats.Ingested = %d", f.bms.Stats().Ingested)
	}
}

func TestIngestCaptureTimeEnforcement(t *testing.T) {
	f := newFixture(t)
	// Disable ap-1 entirely.
	if err := f.bms.Sensors().Actuate("ap-1", map[string]string{"enabled": "false"}); err != nil {
		t.Fatal(err)
	}
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-1", 0)); err != nil {
		t.Fatal(err)
	}
	// Turn off connection logging on ap-2 (Figure 4 opt-out).
	if err := f.bms.Sensors().Actuate("ap-2", map[string]string{"log_connections": "false"}); err != nil {
		t.Fatal(err)
	}
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", 1)); err != nil {
		t.Fatal(err)
	}
	if n := f.bms.Store().Len(); n != 0 {
		t.Errorf("store has %d observations, want 0", n)
	}
	st := f.bms.Stats()
	if st.DroppedDisabled != 1 || st.DroppedUnlogged != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestIngestPseudonymization(t *testing.T) {
	f := newFixture(t)
	if err := f.bms.Sensors().Actuate("ap-2", map[string]string{"hash_mac": "true"}); err != nil {
		t.Fatal(err)
	}
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", 0)); err != nil {
		t.Fatal(err)
	}
	all := f.bms.Store().Query(obstore.Filter{})
	if len(all) != 1 {
		t.Fatal("observation lost")
	}
	if all[0].UserID != "" || all[0].DeviceMAC == "aa:00:00:00:00:01" {
		t.Errorf("pseudonymization failed: %+v", all[0])
	}
	if f.bms.Stats().Pseudonymized != 1 {
		t.Errorf("Stats.Pseudonymized = %d", f.bms.Stats().Pseudonymized)
	}
}

func TestRegisterPolicyActuatesAndRetains(t *testing.T) {
	f := newFixture(t)
	// Policy 3: access control readers switch to card-or-fingerprint.
	p3 := policy.Policy3MeetingRoomAccess("dbh/1/r1")[0]
	if err := f.bms.RegisterPolicy(p3); err != nil {
		t.Fatal(err)
	}
	door, _ := f.bms.Sensors().Get("door-1")
	if v, _ := door.Setting("mode"); v != "card-or-fingerprint" {
		t.Errorf("door mode = %q", v)
	}
	// Policy 2 installs a six-month retention rule for wifi logs.
	if err := f.bms.RegisterPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
		t.Fatal(err)
	}
	rules := f.bms.Store().RetentionRules()
	found := false
	for _, r := range rules {
		if r.Kind == sensor.ObsWiFiConnect && r.TTL == isodur.SixMonths {
			found = true
		}
	}
	if !found {
		t.Errorf("retention rules = %+v", rules)
	}
	// Duplicate and invalid policies rejected.
	if err := f.bms.RegisterPolicy(p3); err == nil {
		t.Error("duplicate policy accepted")
	}
	if err := f.bms.RegisterPolicy(policy.BuildingPolicy{ID: "x"}); err == nil {
		t.Error("invalid policy accepted")
	}
}

func TestRegisterPolicyScopedActuation(t *testing.T) {
	f := newFixture(t)
	// A policy scoped to floor 1 must not touch floor 2 APs.
	bp := policy.BuildingPolicy{
		ID: "floor1-hash", Name: "Hash MACs on floor 1", Kind: policy.KindCollection,
		Scope:    policy.Scope{SpaceID: "dbh/1", SensorType: sensor.TypeWiFiAP},
		Settings: map[string]string{"hash_mac": "true"},
	}
	if err := f.bms.RegisterPolicy(bp); err != nil {
		t.Fatal(err)
	}
	ap1, _ := f.bms.Sensors().Get("ap-1")
	ap2, _ := f.bms.Sensors().Get("ap-2")
	if !ap1.BoolSetting("hash_mac") {
		t.Error("floor-1 AP not actuated")
	}
	if ap2.BoolSetting("hash_mac") {
		t.Error("floor-2 AP wrongly actuated")
	}
}

func TestSetPreferenceAndConflictNotification(t *testing.T) {
	f := newFixture(t)
	if err := f.bms.RegisterPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
		t.Fatal(err)
	}
	if err := f.bms.SetPreference(policy.Preference{ID: "x", UserID: "ghost", Rule: policy.Rule{Action: policy.ActionDeny}}); err == nil {
		t.Error("preference for unknown user accepted")
	}
	for _, p := range policy.Preference2NoLocation("mary") {
		if err := f.bms.SetPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	conflicts := f.bms.Conflicts()
	if len(conflicts) == 0 {
		t.Fatal("no conflicts detected")
	}
	notifs := f.bms.FetchNotifications("mary")
	if len(notifs) == 0 {
		t.Fatal("mary was not notified of the override")
	}
	if notifs[0].PolicyID != "policy-2-emergency-location" {
		t.Errorf("notification = %+v", notifs[0])
	}
	// Inbox drained.
	if got := f.bms.FetchNotifications("mary"); len(got) != 0 {
		t.Errorf("inbox not drained: %+v", got)
	}
	// Re-running detection must not duplicate notifications.
	if err := f.bms.SetPreference(policy.Preference1OfficeOccupancy("bob", "dbh/2/r1")); err != nil {
		t.Fatal(err)
	}
	if got := f.bms.FetchNotifications("mary"); len(got) != 0 {
		t.Errorf("stale conflict re-notified: %+v", got)
	}
	if got := f.bms.Preferences("mary"); len(got) != 2 {
		t.Errorf("Preferences(mary) = %d", len(got))
	}
	if removed, err := f.bms.RemovePreference("pref-1-office-occupancy-bob"); !removed || err != nil {
		t.Errorf("RemovePreference = %v, %v", removed, err)
	}
	if removed, err := f.bms.RemovePreference("pref-1-office-occupancy-bob"); removed || err != nil {
		t.Errorf("double remove = %v, %v", removed, err)
	}
}

func TestRequestUserFlow(t *testing.T) {
	f := newFixture(t)
	// Ingest some observations for mary and bob.
	for i := 0; i < 3; i++ {
		if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:02", "ap-1", 0)); err != nil {
		t.Fatal(err)
	}

	req := enforce.Request{
		ServiceID: "concierge",
		Purpose:   policy.PurposeProvidingService,
		Kind:      sensor.ObsWiFiConnect,
		SubjectID: "mary",
		Time:      f.now,
	}
	resp, err := f.bms.RequestUser(req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Decision.Allowed || len(resp.Observations) != 3 {
		t.Fatalf("default-allow response = %+v", resp.Decision)
	}
	if resp.Observations[0].SpaceID != "dbh/2/r0" {
		t.Errorf("exact location = %q", resp.Observations[0].SpaceID)
	}

	// Coarse preference: locations degrade to the building.
	if err := f.bms.SetPreference(policy.CoarseLocationPreference("mary", "concierge")); err != nil {
		t.Fatal(err)
	}
	resp, err = f.bms.RequestUser(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Observations) != 3 || resp.Observations[0].SpaceID != "dbh" {
		t.Errorf("coarse response = %+v", resp.Observations)
	}

	// Full opt-out: nothing released.
	for _, p := range policy.Preference2NoLocation("mary") {
		if err := f.bms.SetPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	resp, err = f.bms.RequestUser(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Decision.Allowed || len(resp.Observations) != 0 {
		t.Errorf("opt-out leaked: %+v", resp.Decision)
	}

	// Emergency override: released with notification.
	if err := f.bms.RegisterPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
		t.Fatal(err)
	}
	f.bms.FetchNotifications("mary") // drain conflict notification
	ereq := req
	ereq.ServiceID = "bms-emergency"
	ereq.Purpose = policy.PurposeEmergencyResponse
	resp, err = f.bms.RequestUser(ereq)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Decision.Allowed || len(resp.Observations) != 3 {
		t.Fatalf("emergency response = %+v", resp.Decision)
	}
	if notifs := f.bms.FetchNotifications("mary"); len(notifs) == 0 {
		t.Error("override without notification")
	}

	if _, err := f.bms.RequestUser(enforce.Request{}); err == nil {
		t.Error("subject-less request accepted")
	}
}

func TestRequestUserAggregationFloorBlocksIndividual(t *testing.T) {
	f := newFixture(t)
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.bms.SetPreference(policy.Preference{
		ID: "agg-only", UserID: "mary",
		Scope: policy.Scope{ObsKind: sensor.ObsWiFiConnect},
		Rule:  policy.Rule{Action: policy.ActionLimit, MinAggregationK: 3},
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := f.bms.RequestUser(enforce.Request{
		ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		Kind: sensor.ObsWiFiConnect, SubjectID: "mary", Time: f.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Observations) != 0 {
		t.Errorf("individual release under aggregation floor: %+v", resp.Observations)
	}
}

func TestRequestOccupancy(t *testing.T) {
	f := newFixture(t)
	// mary and bob on floor 2 (ap-2 room), carol on floor 1.
	macs := map[string]string{
		"aa:00:00:00:00:01": "ap-2",
		"aa:00:00:00:00:02": "ap-2",
		"aa:00:00:00:00:03": "ap-1",
	}
	for mac, ap := range macs {
		if err := f.bms.Ingest(f.wifiObs(mac, ap, 0)); err != nil {
			t.Fatal(err)
		}
	}
	req := enforce.Request{
		ServiceID: "concierge",
		Purpose:   policy.PurposeProvidingService,
		Kind:      sensor.ObsWiFiConnect,
		SpaceID:   "dbh",
		Time:      f.now,
	}
	resp, err := f.bms.RequestOccupancy(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	if resp.SubjectsConsidered != 3 || resp.SubjectsReleased != 3 {
		t.Errorf("coverage = %d/%d", resp.SubjectsReleased, resp.SubjectsConsidered)
	}
	// Only dbh/2/r0 has >= 2 subjects.
	if len(resp.Aggregates) != 1 || resp.Aggregates[0].Key != "dbh/2/r0" || resp.Aggregates[0].Count != 2 {
		t.Errorf("aggregates = %+v", resp.Aggregates)
	}

	// bob opts out: the floor-2 room drops below k and disappears.
	for _, p := range policy.Preference2NoLocation("bob") {
		if err := f.bms.SetPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	resp, err = f.bms.RequestOccupancy(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	if resp.SubjectsReleased != 2 {
		t.Errorf("released = %d, want 2", resp.SubjectsReleased)
	}
	if len(resp.Aggregates) != 0 || resp.Decision.Allowed {
		t.Errorf("suppression failed: %+v", resp.Aggregates)
	}
}

// TestExpiredRowLeavesAtCompaction: with no retention daemon, an
// expired row is unreadable at once, on the node's clock, and leaves
// the store at the compaction that seals its bucket, which seals
// nothing of it; an unexpired row of the same bucket is sealed.
func TestExpiredRowLeavesAtCompaction(t *testing.T) {
	f := newFixture(t)
	f.bms.Store().SetDefaultRetention(isodur.MustParse("PT5M"))
	for _, minute := range []int{-10, -2} {
		if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", minute)); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.bms.Store().Query(obstore.Filter{}); len(got) != 1 || !got[0].Time.Equal(testNow.Add(-2*time.Minute)) {
		t.Fatalf("reads return %+v, want only the row two minutes old", got)
	}
	if n := f.bms.Store().Len(); n != 2 {
		t.Fatalf("Len = %d before compaction, want both stored rows", n)
	}
	sealed, err := f.bms.Columnar().CompactOnce()
	if err != nil {
		t.Fatal(err)
	}
	if sealed != 1 || f.bms.Store().Len() != 1 || f.bms.Store().Resident() != 0 {
		t.Fatalf("compaction sealed %d rows, leaving %d stored and %d resident; want 1, 1, 0",
			sealed, f.bms.Store().Len(), f.bms.Store().Resident())
	}
}

func TestStatsCounters(t *testing.T) {
	f := newFixture(t)
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", 0)); err != nil {
		t.Fatal(err)
	}
	for _, p := range policy.Preference2NoLocation("mary") {
		if err := f.bms.SetPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	req := enforce.Request{
		ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		Kind: sensor.ObsWiFiConnect, SubjectID: "mary", Time: f.now,
	}
	if _, err := f.bms.RequestUser(req); err != nil {
		t.Fatal(err)
	}
	st := f.bms.Stats()
	if st.RequestsDecided != 1 || st.RequestsDenied != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestConfigDurableStore(t *testing.T) {
	dir := t.TempDir()
	open := func() *obstore.Store {
		s, err := obstore.OpenDurable(obstore.DurableConfig{Dir: dir, SyncInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	f := newFixtureWith(t, func(cfg *Config) { cfg.Store = open() })
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.bms.Store().WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	f.bms.Close() // flushes and closes the WAL; the t.Cleanup close is a no-op

	// A "restarted" BMS over the same directory sees the attributed,
	// stamped observation without re-ingesting anything.
	f2 := newFixtureWith(t, func(cfg *Config) { cfg.Store = open() })
	got := f2.bms.Store().Query(obstore.Filter{UserID: "mary"})
	if len(got) != 1 {
		t.Fatalf("recovered %d observations for mary, want 1", len(got))
	}
	if got[0].SpaceID != "dbh/2/r0" {
		t.Errorf("recovered SpaceID = %q, want the sensor's space", got[0].SpaceID)
	}
	// And the pipeline keeps working on top of the recovered state.
	if err := f2.bms.Ingest(f2.wifiObs("aa:00:00:00:00:02", "ap-1", 1)); err != nil {
		t.Fatal(err)
	}
	if n := f2.bms.Store().Len(); n != 2 {
		t.Errorf("store has %d observations after recovery + ingest, want 2", n)
	}
}
