// Package mud derives policy advertisements from Manufacturer Usage
// Descriptions for building sensors. The paper envisions automating IRR
// setup "e.g. by leveraging Manufacturer Usage Descriptions" (§V.B,
// citing the IETF MUD draft that became RFC 8520): a device's
// manufacturer describes what the device does, and the building turns
// the descriptions of its deployed devices into policy advertisements
// without an admin writing them by hand.
//
// A Description keeps RFC 8520's envelope fields (mud-version,
// mud-url, last-update, systeminfo) and adds the privacy extension the
// paper's language needs: what the device collects, for which purposes,
// at what granularity, the default retention, and which settings users
// can influence. The descriptions are built in (ForType); fetching and
// reading a vendor's MUD JSON from its mud-url is not implemented.
package mud

import (
	"fmt"
	"sort"

	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

// Description is one device model's usage description.
type Description struct {
	MUDVersion   int
	MUDURL       string
	LastUpdate   string
	SystemInfo   string
	Manufacturer string
	ModelName    string

	// Privacy extension.
	Privacy PrivacyExtension
}

// PrivacyExtension carries the paper's policy-language elements.
type PrivacyExtension struct {
	// Collects lists the observation kinds the device produces.
	Collects []string
	// Purposes lists the purposes the manufacturer declares.
	Purposes []policy.Purpose
	// Granularity is the finest location precision the data carries.
	Granularity string
	// DefaultRetention is the manufacturer-recommended retention.
	DefaultRetention isodur.Duration
	// ConfigurableSettings names the parameters deployments may let
	// users influence (e.g. "hash_mac", "resolution").
	ConfigurableSettings []string
	// Identifying reports whether the raw data contains stable
	// personal identifiers (MAC addresses, faces).
	Identifying bool
}

// ForType returns the built-in manufacturer description for a sensor
// type: the descriptions a real deployment would fetch from each
// vendor's mud-url.
func ForType(t sensor.Type) (Description, bool) {
	base := Description{
		MUDVersion:   1,
		MUDURL:       fmt.Sprintf("https://mud.example/%s.json", slug(t)),
		LastUpdate:   "2017-02-01T00:00:00Z",
		Manufacturer: "Example Devices Inc.",
	}
	switch t {
	case sensor.TypeWiFiAP:
		base.SystemInfo = "Enterprise WiFi access point with association logging"
		base.ModelName = "AP-60"
		base.Privacy = PrivacyExtension{
			Collects:             []string{string(sensor.ObsWiFiConnect)},
			Purposes:             []policy.Purpose{policy.PurposeLogging, policy.PurposeSecurity},
			Granularity:          policy.GranRoom.String(),
			DefaultRetention:     isodur.SixMonths,
			ConfigurableSettings: []string{"log_connections", "hash_mac"},
			Identifying:          true,
		}
	case sensor.TypeBLEBeacon:
		base.SystemInfo = "Bluetooth Low Energy proximity beacon"
		base.ModelName = "Beacon-200"
		base.Privacy = PrivacyExtension{
			Collects:             []string{string(sensor.ObsBLESighting)},
			Purposes:             []policy.Purpose{policy.PurposeProvidingService},
			Granularity:          policy.GranRoom.String(),
			DefaultRetention:     isodur.Month,
			ConfigurableSettings: []string{"interval_ms", "tx_power_dbm"},
			Identifying:          true,
		}
	case sensor.TypeCamera:
		base.SystemInfo = "Corridor surveillance camera"
		base.ModelName = "Cam-40"
		base.Privacy = PrivacyExtension{
			Collects:             []string{string(sensor.ObsCameraFrame)},
			Purposes:             []policy.Purpose{policy.PurposeSecurity},
			Granularity:          policy.GranExact.String(),
			DefaultRetention:     isodur.Month,
			ConfigurableSettings: []string{"resolution", "fps", "record_audio"},
			Identifying:          true,
		}
	case sensor.TypePowerMeter:
		base.SystemInfo = "Power outlet meter"
		base.ModelName = "PM-100"
		base.Privacy = PrivacyExtension{
			Collects:         []string{string(sensor.ObsPowerReading)},
			Purposes:         []policy.Purpose{policy.PurposeEnergyManagement},
			Granularity:      policy.GranRoom.String(),
			DefaultRetention: isodur.Year,
		}
	case sensor.TypeTemperature:
		base.SystemInfo = "Room temperature sensor"
		base.ModelName = "Temp-1"
		base.Privacy = PrivacyExtension{
			Collects:         []string{string(sensor.ObsTempReading)},
			Purposes:         []policy.Purpose{policy.PurposeComfort},
			Granularity:      policy.GranRoom.String(),
			DefaultRetention: isodur.Month,
		}
	case sensor.TypeMotion:
		base.SystemInfo = "Passive infrared motion sensor"
		base.ModelName = "PIR-5"
		base.Privacy = PrivacyExtension{
			Collects:         []string{string(sensor.ObsMotionEvent)},
			Purposes:         []policy.Purpose{policy.PurposeComfort, policy.PurposeEnergyManagement},
			Granularity:      policy.GranRoom.String(),
			DefaultRetention: isodur.Week,
		}
	case sensor.TypeAccessControl:
		base.SystemInfo = "Door access reader (card and fingerprint)"
		base.ModelName = "Door-3"
		base.Privacy = PrivacyExtension{
			Collects:             []string{string(sensor.ObsCardSwipe)},
			Purposes:             []policy.Purpose{policy.PurposeSecurity},
			Granularity:          policy.GranRoom.String(),
			DefaultRetention:     isodur.Year,
			ConfigurableSettings: []string{"mode"},
			Identifying:          true,
		}
	default:
		return Description{}, false
	}
	return base, true
}

func slug(t sensor.Type) string {
	switch t {
	case sensor.TypeWiFiAP:
		return "wifi-ap"
	case sensor.TypeBLEBeacon:
		return "ble-beacon"
	case sensor.TypeCamera:
		return "camera"
	case sensor.TypePowerMeter:
		return "power-meter"
	case sensor.TypeTemperature:
		return "temperature"
	case sensor.TypeMotion:
		return "motion"
	case sensor.TypeAccessControl:
		return "access-reader"
	default:
		return "unknown"
	}
}

// PopulateRegistry publishes one MUD-derived advertisement per
// deployed sensor type into the registry — the full §V.B automation:
// the building enumerates its devices, fetches (here: looks up) each
// model's manufacturer description, and the registry's advertisements
// fall out. Types without a description (pure actuators) are skipped.
func PopulateRegistry(reg interface {
	Publish(spaceID string, res policy.Resource) error
}, sensors *sensor.Registry, buildingName, buildingID, ownerName, settingsBase string) error {
	counts := sensors.CountByType()
	types := make([]sensor.Type, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, t := range types {
		d, ok := ForType(t)
		if !ok {
			continue
		}
		res := d.Resource(buildingName, buildingID, ownerName, counts[t], settingsBase)
		if err := reg.Publish(buildingID, res); err != nil {
			return fmt.Errorf("mud: publishing %v: %w", t, err)
		}
	}
	return nil
}

// Resource renders the description as a Figure-2-shape advertisement
// for count deployed units in the named building — the §V.B
// automation: manufacturer description in, user-facing policy
// advertisement out.
func (d Description) Resource(buildingName, buildingID, ownerName string, count int, settingsBase string) policy.Resource {
	res := policy.Resource{
		Info: policy.Info{
			Name:        fmt.Sprintf("%s (%d deployed in %s)", d.SystemInfo, count, buildingName),
			Description: fmt.Sprintf("%s %s, per its manufacturer usage description (%s)", d.Manufacturer, d.ModelName, d.MUDURL),
		},
		Context: &policy.ResourceContext{
			Location: &policy.LocationBlock{
				Spatial: policy.SpatialRef{Name: buildingName, Type: "Building", ID: buildingID},
			},
			Sensor: &policy.SensorBlock{Type: d.SystemInfo},
		},
	}
	if ownerName != "" {
		res.Context.Location.Owner = &policy.OwnerBlock{Name: ownerName}
	}
	if len(d.Privacy.Purposes) > 0 {
		res.Purpose = policy.PurposeBlock{Entries: map[policy.Purpose]policy.PurposeDetail{}}
		for _, p := range d.Privacy.Purposes {
			res.Purpose.Entries[p] = policy.PurposeDetail{Description: d.SystemInfo}
		}
	}
	collects := append([]string(nil), d.Privacy.Collects...)
	sort.Strings(collects)
	for _, c := range collects {
		desc := policy.ObservationDesc{Name: c, Granularity: d.Privacy.Granularity}
		if d.Privacy.Identifying {
			desc.Inferred = []string{"identity", "presence", "working-pattern"}
		} else {
			desc.Inferred = []string{"presence"}
		}
		res.Observations = append(res.Observations, desc)
	}
	if !d.Privacy.DefaultRetention.IsZero() {
		res.Retention = &policy.RetentionBlock{Duration: d.Privacy.DefaultRetention}
	}
	if settingsBase != "" && len(d.Privacy.ConfigurableSettings) > 0 {
		res.Settings = []policy.SettingGroup{policy.LocationSettingLadder(settingsBase)}
	}
	return res
}
