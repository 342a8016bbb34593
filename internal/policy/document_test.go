package policy

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/tippers/tippers/internal/isodur"
)

func TestFigure2DocumentValidatesAndMatchesPaper(t *testing.T) {
	doc := Figure2Document()
	if err := doc.Validate(); err != nil {
		t.Fatalf("Figure 2 document fails validation: %v", err)
	}
	raw, err := doc.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check the paper's literal strings.
	for _, want := range []string{
		`"Location tracking in DBH"`,
		`"Donald Bren Hall"`,
		`"Building"`,
		`"UCI"`,
		`"more_info"`,
		`"WiFi Access Point"`,
		`"Installed inside the building and covers rooms and corridors"`,
		`"emergency response"`,
		`"Location is stored continuously"`,
		`"MAC address of the device"`,
		`"P6M"`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("Figure 2 JSON missing %s", want)
		}
	}
	// Round trip.
	parsed, err := ParseResourceDocument(raw)
	if err != nil {
		t.Fatalf("ParseResourceDocument: %v", err)
	}
	if len(parsed.Resources) != 1 {
		t.Fatalf("parsed %d resources", len(parsed.Resources))
	}
	res := parsed.Resources[0]
	if res.Retention == nil || res.Retention.Duration != isodur.SixMonths {
		t.Errorf("retention = %+v, want P6M", res.Retention)
	}
	if res.Context == nil || res.Context.Sensor == nil || res.Context.Sensor.Type != "WiFi Access Point" {
		t.Errorf("sensor context = %+v", res.Context)
	}
	if _, ok := res.Purpose.Entries["emergency response"]; !ok {
		t.Errorf("purpose entries = %+v", res.Purpose.Entries)
	}
}

func TestFigure3DocumentValidatesAndMatchesPaper(t *testing.T) {
	doc := Figure3Document()
	if err := doc.Validate(); err != nil {
		t.Fatalf("Figure 3 document fails validation: %v", err)
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"wifi_access_point"`,
		`"bluetooth_beacon"`,
		`"providing_service"`,
		`"service_id"`,
		`"Concierge"`,
		`"Your location data is used to give you directions around the Bren Hall."`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("Figure 3 JSON missing %s", want)
		}
	}
	parsed, err := ParseServicePolicyDoc(raw)
	if err != nil {
		t.Fatalf("ParseServicePolicyDoc: %v", err)
	}
	if parsed.Purpose.ServiceID != "Concierge" {
		t.Errorf("service_id = %q", parsed.Purpose.ServiceID)
	}
	if len(parsed.Observations) != 2 {
		t.Errorf("observations = %d", len(parsed.Observations))
	}
}

func TestFigure4SettingsMatchesPaper(t *testing.T) {
	groups := Figure4Settings()
	if len(groups) != 1 || len(groups[0].Select) != 3 {
		t.Fatalf("Figure 4 = %+v", groups)
	}
	opts := groups[0].Select
	if opts[0].Description != "fine grained location sensing" ||
		opts[1].Description != "coarse grained location sensing" ||
		opts[2].Description != "No location sensing" {
		t.Errorf("option descriptions = %+v", opts)
	}
	if !strings.Contains(opts[0].On, "wifi=opt-in") || !strings.Contains(opts[2].On, "wifi=opt-out") {
		t.Errorf("option endpoints = %q, %q", opts[0].On, opts[2].On)
	}
	// Each option maps to a parseable granularity for automated choice.
	wantGran := []Granularity{GranExact, GranBuilding, GranNone}
	for i, opt := range opts {
		g, err := ParseGranularity(opt.Granularity)
		if err != nil || g != wantGran[i] {
			t.Errorf("option %d granularity = %q (%v), want %v", i, opt.Granularity, err, wantGran[i])
		}
	}
}

func TestPurposeBlockRoundTrip(t *testing.T) {
	in := PurposeBlock{
		Entries: map[Purpose]PurposeDetail{
			PurposeProvidingService: {Description: "directions"},
			PurposeAnalytics:        {Description: "usage stats"},
		},
		ServiceID: "Concierge",
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out PurposeBlock
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.ServiceID != "Concierge" || len(out.Entries) != 2 {
		t.Errorf("round trip = %+v", out)
	}
	if out.Entries[PurposeAnalytics].Description != "usage stats" {
		t.Errorf("analytics entry = %+v", out.Entries[PurposeAnalytics])
	}
	// Keys are sorted deterministically with service_id last.
	s := string(raw)
	if !strings.HasSuffix(s, `"service_id":"Concierge"}`) {
		t.Errorf("service_id not last: %s", s)
	}
	if strings.Index(s, "analytics") > strings.Index(s, "providing_service") {
		t.Errorf("entries not sorted: %s", s)
	}
}

func TestPurposeBlockEmptyAndErrors(t *testing.T) {
	var b PurposeBlock
	if !b.IsZero() {
		t.Error("zero block not IsZero")
	}
	raw, err := json.Marshal(b)
	if err != nil || string(raw) != "{}" {
		t.Errorf("empty marshal = %s, %v", raw, err)
	}
	if err := json.Unmarshal([]byte(`{"service_id":42}`), &b); err == nil {
		t.Error("numeric service_id accepted")
	}
	if err := json.Unmarshal([]byte(`{"x":"not an object"}`), &b); err == nil {
		t.Error("non-object purpose detail accepted")
	}
	if err := json.Unmarshal([]byte(`[1,2]`), &b); err == nil {
		t.Error("array accepted")
	}
}

func TestParseResourceDocumentRejectsInvalid(t *testing.T) {
	bad := []string{
		`{}`,                                   // missing resources
		`{"resources":[]}`,                     // empty resources
		`{"resources":[{}]}`,                   // resource without info
		`{"resources":[{"info":{}}]}`,          // info without name
		`{"resources":[{"info":{"name":""}}]}`, // empty name
		`{"resources":[{"info":{"name":"x"},"retention":{"duration":"six months"}}]}`,
		`{"resources":[{"info":{"name":"x"},"context":{"location":{"spatial":{"name":"DBH","type":"Spaceship"}}}}]}`,
		`{"resources":[{"info":{"name":"x"},"settings":[{"select":[]}]}]}`,
		`not json`,
		// A key spelled in another case decodes over the exact one, so
		// each of these decodes to an invalid value.
		`{"resources":[{"info":{"name":"x"}}],"Resources":[]}`,
		`{"resources":[{"info":{"name":"x"},"Info":{"name":""}}]}`,
		`{"resources":[{"info":{"name":"x"},"context":{"location":{"spatial":{"name":"D","type":"Building"},"Spatial":{"name":"D","type":"Spaceship"}}}}]}`,
		`{"resources":[{"info":{"name":"x"},"settings":[{"select":[{"description":"d","on":"o"}]}],"Settings":[{"select":[]}]}]}`,
	}
	for _, doc := range bad {
		if _, err := ParseResourceDocument([]byte(doc)); err == nil {
			t.Errorf("ParseResourceDocument(%s) succeeded", doc)
		}
	}
}

func TestParseServicePolicyDocRejectsInvalid(t *testing.T) {
	bad := []string{
		`{}`,
		`{"observations":[],"purpose":{}}`,
		`{"observations":[{"description":"no name"}],"purpose":{}}`,
		`{"observations":[{"name":"x"}],"purpose":{"p":{"no_description":true}}}`,
		`{"observations":[{"name":"x"}],"purpose":{},"Observations":[]}`,
	}
	for _, doc := range bad {
		if _, err := ParseServicePolicyDoc([]byte(doc)); err == nil {
			t.Errorf("ParseServicePolicyDoc(%s) succeeded", doc)
		}
	}
}

func TestAdvertisementForPolicy2(t *testing.T) {
	p2 := Policy2EmergencyLocation("dbh")
	res := AdvertisementFor(p2, "Donald Bren Hall", "Building", "UCI", "https://www.uci.edu", "https://tippers.example/settings")
	doc := ResourceDocument{Resources: []Resource{res}}
	if err := doc.Validate(); err != nil {
		t.Fatalf("generated advertisement invalid: %v", err)
	}
	if res.PolicyID != p2.ID {
		t.Errorf("PolicyID = %q", res.PolicyID)
	}
	if res.Retention == nil || res.Retention.Duration != isodur.SixMonths {
		t.Errorf("retention = %+v", res.Retention)
	}
	if res.Context.Sensor.Type != "WiFi Access Point" {
		t.Errorf("sensor type = %q", res.Context.Sensor.Type)
	}
	if _, ok := res.Purpose.Entries[PurposeEmergencyResponse]; !ok {
		t.Errorf("purpose = %+v", res.Purpose)
	}
	// Policy 2 overrides, so it must NOT advertise opt-out settings.
	if len(res.Settings) != 0 {
		t.Errorf("override policy advertised settings: %+v", res.Settings)
	}
}

func TestAdvertisementForNonOverridingPolicyHasSettings(t *testing.T) {
	p := Policy2EmergencyLocation("dbh")
	p.Override = false
	p.Scope.Purposes = []Purpose{PurposeLogging}
	res := AdvertisementFor(p, "DBH", "Building", "UCI", "", "https://tippers.example/settings")
	if len(res.Settings) != 1 || len(res.Settings[0].Select) != 3 {
		t.Fatalf("settings = %+v", res.Settings)
	}
	doc := ResourceDocument{Resources: []Resource{res}}
	if err := doc.Validate(); err != nil {
		t.Fatalf("advertisement invalid: %v", err)
	}
}

func TestAdvertisementMinimal(t *testing.T) {
	p := BuildingPolicy{ID: "p", Name: "bare", Kind: KindAutomation}
	res := AdvertisementFor(p, "", "", "", "", "")
	if res.Context != nil {
		t.Errorf("minimal advertisement has context: %+v", res.Context)
	}
	doc := ResourceDocument{Resources: []Resource{res}}
	if err := doc.Validate(); err != nil {
		t.Fatalf("minimal advertisement invalid: %v", err)
	}
}
