package mud

import (
	"fmt"
	"net/url"
	"strings"
	"testing"

	"github.com/tippers/tippers/internal/irr"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/spatial"
)

func TestForTypeCoverage(t *testing.T) {
	granularities := map[string]bool{"none": true, "building": true, "floor": true, "room": true, "exact": true}
	for _, typ := range sensor.AllTypes() {
		d, ok := ForType(typ)
		if typ == sensor.TypeHVAC {
			if ok {
				t.Error("HVAC actuators need no collection MUD")
			}
			continue
		}
		if !ok {
			t.Errorf("no MUD for %v", typ)
			continue
		}
		if u, err := url.Parse(d.MUDURL); d.MUDVersion < 1 || err != nil || u.Scheme == "" {
			t.Errorf("%v envelope: version %d, mud-url %q", typ, d.MUDVersion, d.MUDURL)
		}
		if d.SystemInfo == "" || d.Manufacturer == "" || d.ModelName == "" {
			t.Errorf("%v description unnamed: %+v", typ, d)
		}
		if len(d.Privacy.Collects) == 0 || len(d.Privacy.Purposes) == 0 || !granularities[d.Privacy.Granularity] {
			t.Errorf("%v privacy extension incomplete: %+v", typ, d.Privacy)
		}
	}
}

func TestResourceGeneration(t *testing.T) {
	d, _ := ForType(sensor.TypeWiFiAP)
	res := d.Resource("Donald Bren Hall", "dbh", "UCI", 60, "https://tippers.example/settings")
	doc := policy.ResourceDocument{Resources: []policy.Resource{res}}
	if err := doc.Validate(); err != nil {
		t.Fatalf("generated resource invalid: %v", err)
	}
	if !strings.Contains(res.Info.Name, "60 deployed") {
		t.Errorf("name = %q", res.Info.Name)
	}
	if res.Retention == nil || res.Retention.Duration.String() != "P6M" {
		t.Errorf("retention = %+v", res.Retention)
	}
	if len(res.Observations) != 1 || res.Observations[0].Name != "wifi_access_point" {
		t.Errorf("observations = %+v", res.Observations)
	}
	// Identifying devices advertise inferable identity.
	joined := strings.Join(res.Observations[0].Inferred, ",")
	if !strings.Contains(joined, "identity") {
		t.Errorf("inferred = %v", res.Observations[0].Inferred)
	}
	if len(res.Settings) == 0 {
		t.Error("configurable device advertised no settings")
	}
	// Non-identifying, non-configurable device: no identity inference,
	// no settings block.
	pm, _ := ForType(sensor.TypePowerMeter)
	pres := pm.Resource("DBH", "dbh", "UCI", 100, "https://x/settings")
	if strings.Contains(strings.Join(pres.Observations[0].Inferred, ","), "identity") {
		t.Error("power meter advertised identity inference")
	}
	if len(pres.Settings) != 0 {
		t.Error("non-configurable device advertised settings")
	}
}

func TestPopulateRegistry(t *testing.T) {
	m := spatial.NewModel()
	m.MustAdd("", spatial.Space{ID: "dbh", Kind: spatial.KindBuilding})
	sensors := sensor.NewRegistry()
	sensors.MustAdd(sensor.MustNew("ap-1", sensor.TypeWiFiAP, "dbh"))
	sensors.MustAdd(sensor.MustNew("hvac-1", sensor.TypeHVAC, "dbh")) // no MUD: skipped
	reg := irr.NewRegistry("dbh-irr", m)
	if err := PopulateRegistry(reg, sensors, "DBH", "dbh", "UCI", "https://x/settings"); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 1 {
		t.Fatalf("registry has %d entries, want 1 (HVAC skipped)", reg.Len())
	}
	if err := reg.Document("dbh").Validate(); err != nil {
		t.Errorf("populated document invalid: %v", err)
	}
	// A rejecting registry propagates the error.
	bad := rejectingRegistry{}
	if err := PopulateRegistry(bad, sensors, "DBH", "dbh", "UCI", ""); err == nil {
		t.Error("publish failure swallowed")
	}
}

type rejectingRegistry struct{}

func (rejectingRegistry) Publish(string, policy.Resource) error {
	return errTest
}

var errTest = fmt.Errorf("synthetic publish failure")

// TestMUDDrivenRegistry: the §V.B automation end to end — MUD
// descriptions for a building's deployed sensor types populate an
// IRR whose documents validate and carry the manufacturer metadata.
func TestMUDDrivenRegistry(t *testing.T) {
	m := spatial.NewModel()
	m.MustAdd("", spatial.Space{ID: "dbh", Kind: spatial.KindBuilding})
	sensors := sensor.NewRegistry()
	sensors.MustAdd(sensor.MustNew("ap-1", sensor.TypeWiFiAP, "dbh"))
	sensors.MustAdd(sensor.MustNew("ap-2", sensor.TypeWiFiAP, "dbh"))
	sensors.MustAdd(sensor.MustNew("pm-1", sensor.TypePowerMeter, "dbh"))

	reg := irr.NewRegistry("dbh-irr", m)
	counts := sensors.CountByType()
	for typ, count := range counts {
		d, ok := ForType(typ)
		if !ok {
			continue
		}
		res := d.Resource("Donald Bren Hall", "dbh", "UCI", count, "")
		if err := reg.Publish("dbh", res); err != nil {
			t.Fatalf("publishing %v: %v", typ, err)
		}
	}
	doc := reg.Document("dbh")
	if len(doc.Resources) != 2 {
		t.Fatalf("registry has %d resources, want 2", len(doc.Resources))
	}
	if err := doc.Validate(); err != nil {
		t.Errorf("registry document invalid: %v", err)
	}
	found := false
	for _, res := range doc.Resources {
		if strings.Contains(res.Info.Name, "WiFi access point") && strings.Contains(res.Info.Name, "2 deployed") {
			found = true
		}
	}
	if !found {
		t.Errorf("AP resource missing or miscounted: %+v", doc.Resources)
	}
}
