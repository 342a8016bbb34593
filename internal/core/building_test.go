package core

import (
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
)

func TestRunAutomationPolicy1(t *testing.T) {
	f := newFixture(t)
	// Occupy the HVAC unit's room (hvac-1 lives in dbh/2/r0) and give
	// it a warm temperature reading.
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", -5)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.bms.Store().Append(sensor.Observation{
		SensorID: "temp-src", Kind: sensor.ObsTempReading,
		SpaceID: "dbh/2/r0", Time: f.now.Add(-5 * time.Minute), Value: 75,
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.bms.RegisterPolicy(policy.Policy1Comfort("dbh", 70)); err != nil {
		t.Fatal(err)
	}
	acts, err := f.bms.RunAutomation(f.now)
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 1 || acts[0].SensorID != "hvac-1" {
		t.Fatalf("actuations = %+v", acts)
	}
	if acts[0].Changes["target_temp_f"] != "70" || acts[0].Changes["fan_speed"] != "medium" {
		t.Errorf("actuation = %+v", acts[0])
	}
	unit, _ := f.bms.Sensors().Get("hvac-1")
	if unit.FloatSetting("target_temp_f") != 70 {
		t.Error("setpoint not applied")
	}
}

func TestRunAutomationNoPolicies(t *testing.T) {
	f := newFixture(t)
	acts, err := f.bms.RunAutomation(f.now)
	if err != nil || len(acts) != 0 {
		t.Errorf("RunAutomation = %+v, %v", acts, err)
	}
}

func TestCheckAccessPolicy3(t *testing.T) {
	f := newFixture(t)
	// door-1 guards dbh/1/r1.
	for _, p := range policy.Policy3MeetingRoomAccess("dbh/1/r1") {
		if err := f.bms.RegisterPolicy(p); err != nil {
			t.Fatal(err)
		}
	}
	// Card and fingerprint both satisfy card-or-fingerprint.
	for _, method := range []string{"card", "fingerprint"} {
		d, err := f.bms.CheckAccess("mary", "dbh/1/r1", method, f.now)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Allowed || d.PolicyID != "policy-3-access-1" {
			t.Errorf("%s: decision = %+v", method, d)
		}
	}
	// An unsupported method is rejected.
	d, err := f.bms.CheckAccess("mary", "dbh/1/r1", "pin", f.now)
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed {
		t.Errorf("pin accepted: %+v", d)
	}
	// Attempts are logged as card swipes attributed to the user.
	swipes := f.bms.Store().Query(obstore.Filter{Kind: sensor.ObsCardSwipe, UserID: "mary"})
	if len(swipes) != 3 {
		t.Errorf("swipe log = %d entries, want 3", len(swipes))
	}
	if swipes[2].Payload["result"] != "denied" {
		t.Errorf("last swipe = %+v", swipes[2])
	}
	// Ungoverned spaces are open.
	open, err := f.bms.CheckAccess("mary", "dbh/2/r2", "card", f.now)
	if err != nil || !open.Allowed || open.PolicyID != "" {
		t.Errorf("open space decision = %+v, %v", open, err)
	}
	if _, err := f.bms.CheckAccess("ghost", "dbh/1/r1", "card", f.now); err == nil {
		t.Error("unknown user accepted")
	}
}

func TestCheckAccessModeSpecific(t *testing.T) {
	f := newFixture(t)
	p := policy.Policy3MeetingRoomAccess("dbh/1/r1")[0]
	p.Settings = map[string]string{"mode": "fingerprint"}
	if err := f.bms.RegisterPolicy(p); err != nil {
		t.Fatal(err)
	}
	if d, _ := f.bms.CheckAccess("mary", "dbh/1/r1", "card", f.now); d.Allowed {
		t.Error("card accepted under fingerprint-only mode")
	}
	if d, _ := f.bms.CheckAccess("mary", "dbh/1/r1", "fingerprint", f.now); !d.Allowed {
		t.Error("fingerprint rejected under fingerprint-only mode")
	}
}

func TestRequestDisclosurePolicy4(t *testing.T) {
	f := newFixture(t)
	// Event in dbh/2/r0; audience: grad students (mary).
	p := policy.Policy4EventDisclosure("dbh/2/r0", profile.GroupGradStudent)
	if err := f.bms.RegisterPolicy(p); err != nil {
		t.Fatal(err)
	}

	// No location yet: proximity unknown, denied.
	d, err := f.bms.RequestDisclosure(p.ID, "mary", f.now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed {
		t.Errorf("disclosed without location: %+v", d)
	}

	// Mary appears at the event room (ap-2 is in dbh/2/r0).
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", -5)); err != nil {
		t.Fatal(err)
	}
	d, err = f.bms.RequestDisclosure(p.ID, "mary", f.now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed || d.Location != "dbh/2/r0" {
		t.Errorf("nearby participant denied: %+v", d)
	}

	// Bob is faculty, not in the audience, even when nearby.
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:02", "ap-2", -3)); err != nil {
		t.Fatal(err)
	}
	d, err = f.bms.RequestDisclosure(p.ID, "bob", f.now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed {
		t.Errorf("non-participant disclosed: %+v", d)
	}

	// Mary far away (ap-1 is on floor 1): outside the proximity space.
	f2 := newFixture(t)
	if err := f2.bms.RegisterPolicy(p); err != nil {
		t.Fatal(err)
	}
	if err := f2.bms.Ingest(f2.wifiObs("aa:00:00:00:00:01", "ap-1", -5)); err != nil {
		t.Fatal(err)
	}
	d, err = f2.bms.RequestDisclosure(p.ID, "mary", f2.now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed {
		t.Errorf("far participant disclosed: %+v", d)
	}

	// Stale location does not count.
	f3 := newFixture(t)
	if err := f3.bms.RegisterPolicy(p); err != nil {
		t.Fatal(err)
	}
	if err := f3.bms.Ingest(f3.wifiObs("aa:00:00:00:00:01", "ap-2", -120)); err != nil {
		t.Fatal(err)
	}
	d, err = f3.bms.RequestDisclosure(p.ID, "mary", f3.now, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed {
		t.Errorf("stale location disclosed: %+v", d)
	}
}

// TestDeriveOccupancyPreference1EndToEnd closes the Preference 1 data
// path: presence signals in mary's office become attributed occupancy
// observations, and the after-hours preference suppresses them while
// business-hours queries succeed.
func TestDeriveOccupancyPreference1EndToEnd(t *testing.T) {
	f := newFixture(t)
	// mary's office is dbh/2/r0 (fixture profile); ap-2 and ble-1 are
	// installed there. She is present at 10am and again at 9pm.
	morning := f.now.Add(-4 * time.Hour) // 10:00
	evening := f.now.Add(7 * time.Hour)  // 21:00
	for _, ts := range []time.Time{morning, evening} {
		if err := f.bms.Ingest(sensor.Observation{
			SensorID:  "ap-2",
			Kind:      sensor.ObsWiFiConnect,
			DeviceMAC: "aa:00:00:00:00:01",
			Time:      ts,
		}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := f.bms.DeriveOccupancy(f.now.Add(-6*time.Hour), f.now.Add(9*time.Hour), 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("derived %d occupancy observations, want 2", n)
	}
	// Derived office occupancy is attributed to mary.
	occ := f.bms.Store().Query(obstore.Filter{Kind: sensor.ObsOccupancy})
	for _, o := range occ {
		if o.SpaceID == "dbh/2/r0" && o.UserID != "mary" {
			t.Errorf("office occupancy unattributed: %+v", o)
		}
	}

	if err := f.bms.SetPreference(policy.Preference1OfficeOccupancy("mary", "dbh/2/r0")); err != nil {
		t.Fatal(err)
	}
	req := enforce.Request{
		ServiceID: "smart-meeting",
		Purpose:   policy.PurposeProvidingService,
		Kind:      sensor.ObsOccupancy,
		SubjectID: "mary",
		SpaceID:   "dbh/2/r0",
	}
	// Preference 1 governs the rows captured after hours: asked in
	// business hours or after them, the node releases the morning's
	// occupancy and never the evening's. The response's decision is the
	// one at the request's instant.
	for _, at := range []time.Time{f.now, f.now.Add(8 * time.Hour)} { // 14:00, 22:00
		req.Time = at
		resp, err := f.bms.RequestUser(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Decision.Allowed == policy.AfterHours.Contains(at) {
			t.Errorf("asked at %v: decision %+v", at, resp.Decision)
		}
		if len(resp.Observations) != 1 || policy.AfterHours.Contains(resp.Observations[0].Time) {
			t.Errorf("asked at %v: released %+v, want the morning's row alone", at, resp.Observations)
		}
	}
}

func TestDeriveOccupancyValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := f.bms.DeriveOccupancy(f.now, f.now, time.Minute); err == nil {
		t.Error("empty window accepted")
	}
}

func TestRequestDisclosureErrors(t *testing.T) {
	f := newFixture(t)
	if _, err := f.bms.RequestDisclosure("nope", "mary", f.now, 0); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := f.bms.RegisterPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.bms.RequestDisclosure("policy-2-emergency-location", "mary", f.now, 0); err == nil {
		t.Error("non-disclosure policy accepted")
	}
	p := policy.Policy4EventDisclosure("dbh/2/r0", profile.GroupGradStudent)
	if err := f.bms.RegisterPolicy(p); err != nil {
		t.Fatal(err)
	}
	if _, err := f.bms.RequestDisclosure(p.ID, "ghost", f.now, 0); err == nil {
		t.Error("unknown user accepted")
	}
}
