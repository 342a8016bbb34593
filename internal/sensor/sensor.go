// Package sensor implements the paper's sensor model (§IV.A.3–5):
// sensors with types and subsystems, validated settings ("a set of
// valid parameters associated with the sensor which determines its
// behavior"), and the observations they produce.
//
// Capture-time enforcement works through this package: when a policy
// or a user preference requires a sensor to behave differently (e.g.
// a camera dropping to low resolution, a WiFi AP hashing MAC
// addresses), the enforcement engine applies new settings here, and
// the simulated drivers honor them when generating observations.
package sensor

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Type classifies a sensor. The paper's DBH deployment includes
// cameras, WiFi APs, BLE beacons, and power-outlet meters; the policy
// examples additionally involve motion, temperature, HVAC, and access
// control (Policy 3's card/fingerprint verification).
type Type int

// Sensor types. Values start at 1 so the zero value is invalid.
const (
	TypeCamera Type = iota + 1
	TypeWiFiAP
	TypeBLEBeacon
	TypePowerMeter
	TypeTemperature
	TypeMotion
	TypeHVAC
	TypeAccessControl
)

var typeNames = map[Type]string{
	TypeCamera:        "Camera",
	TypeWiFiAP:        "WiFi Access Point",
	TypeBLEBeacon:     "Bluetooth Beacon",
	TypePowerMeter:    "Power Meter",
	TypeTemperature:   "Temperature Sensor",
	TypeMotion:        "Motion Sensor",
	TypeHVAC:          "HVAC Unit",
	TypeAccessControl: "Access Control Reader",
}

// String returns the human-readable type name used in policy
// documents (the paper's Figure 2 uses "WiFi Access Point").
func (t Type) String() string {
	if n, ok := typeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// ParseType maps a policy-document sensor type string to a Type.
func ParseType(s string) (Type, error) {
	for t, n := range typeNames {
		if n == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("sensor: unknown sensor type %q", s)
}

// Valid reports whether t is a defined sensor type.
func (t Type) Valid() bool {
	_, ok := typeNames[t]
	return ok
}

// AllTypes returns every defined sensor type in declaration order.
func AllTypes() []Type {
	return []Type{
		TypeCamera, TypeWiFiAP, TypeBLEBeacon, TypePowerMeter,
		TypeTemperature, TypeMotion, TypeHVAC, TypeAccessControl,
	}
}

// Subsystem groups sensors of the same type for management, per the
// paper: "Sensors of the same type can be organized into sensor
// subsystems" (camera subsystem, beacon subsystem, HVAC subsystem).
type Subsystem string

// DefaultSubsystem returns the conventional subsystem for a type.
func DefaultSubsystem(t Type) Subsystem {
	switch t {
	case TypeCamera:
		return "camera-subsystem"
	case TypeWiFiAP:
		return "network-subsystem"
	case TypeBLEBeacon:
		return "beacon-subsystem"
	case TypePowerMeter:
		return "energy-subsystem"
	case TypeTemperature, TypeHVAC, TypeMotion:
		return "hvac-subsystem"
	case TypeAccessControl:
		return "access-subsystem"
	default:
		return "misc-subsystem"
	}
}

// ParamKind is the value type of one settings parameter.
type ParamKind int

// Parameter kinds.
const (
	ParamBool ParamKind = iota + 1
	ParamInt
	ParamFloat
	ParamEnum
	ParamString
)

// ParamSpec declares one valid settings parameter: its kind, its
// legal range or enumeration, and its default. Settings values are
// carried as strings (as they appear in policy documents, e.g.
// "wifi=opt-in" in the paper's Figure 4) and validated against the
// spec on every apply.
type ParamSpec struct {
	Name    string
	Kind    ParamKind
	Min     float64  // ParamInt / ParamFloat
	Max     float64  // ParamInt / ParamFloat
	Enum    []string // ParamEnum
	Default string
}

// Validate checks one value against the spec.
func (p ParamSpec) Validate(value string) error {
	switch p.Kind {
	case ParamBool:
		if value != "true" && value != "false" {
			return fmt.Errorf("sensor: parameter %q: %q is not a bool", p.Name, value)
		}
	case ParamInt:
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return fmt.Errorf("sensor: parameter %q: %q is not an integer", p.Name, value)
		}
		if float64(n) < p.Min || float64(n) > p.Max {
			return fmt.Errorf("sensor: parameter %q: %d outside [%g, %g]", p.Name, n, p.Min, p.Max)
		}
	case ParamFloat:
		f, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("sensor: parameter %q: %q is not a number", p.Name, value)
		}
		if f < p.Min || f > p.Max {
			return fmt.Errorf("sensor: parameter %q: %g outside [%g, %g]", p.Name, f, p.Min, p.Max)
		}
	case ParamEnum:
		for _, e := range p.Enum {
			if e == value {
				return nil
			}
		}
		return fmt.Errorf("sensor: parameter %q: %q not in %v", p.Name, value, p.Enum)
	case ParamString:
		// any string
	default:
		return fmt.Errorf("sensor: parameter %q has invalid kind %d", p.Name, p.Kind)
	}
	return nil
}

// DefaultSpecs returns the settings schema for a sensor type. Every
// type has an "enabled" parameter; type-specific parameters implement
// the capture-time privacy controls the paper describes (capture
// frequency and resolution for cameras, §IV.A.4; MAC logging for
// APs).
func DefaultSpecs(t Type) []ParamSpec {
	base := []ParamSpec{{Name: "enabled", Kind: ParamBool, Default: "true"}}
	switch t {
	case TypeCamera:
		return append(base,
			ParamSpec{Name: "resolution", Kind: ParamEnum, Enum: []string{"1080p", "720p", "480p"}, Default: "1080p"},
			ParamSpec{Name: "fps", Kind: ParamInt, Min: 1, Max: 60, Default: "15"},
			ParamSpec{Name: "record_audio", Kind: ParamBool, Default: "false"},
		)
	case TypeWiFiAP:
		return append(base,
			ParamSpec{Name: "log_connections", Kind: ParamBool, Default: "true"},
			ParamSpec{Name: "hash_mac", Kind: ParamBool, Default: "false"},
		)
	case TypeBLEBeacon:
		return append(base,
			ParamSpec{Name: "interval_ms", Kind: ParamInt, Min: 100, Max: 10000, Default: "1000"},
			ParamSpec{Name: "tx_power_dbm", Kind: ParamInt, Min: -40, Max: 4, Default: "-12"},
		)
	case TypePowerMeter:
		return append(base,
			ParamSpec{Name: "sample_period_s", Kind: ParamInt, Min: 1, Max: 3600, Default: "60"},
		)
	case TypeTemperature:
		return append(base,
			ParamSpec{Name: "sample_period_s", Kind: ParamInt, Min: 1, Max: 3600, Default: "300"},
		)
	case TypeMotion:
		return append(base,
			ParamSpec{Name: "sensitivity", Kind: ParamFloat, Min: 0, Max: 1, Default: "0.5"},
		)
	case TypeHVAC:
		return append(base,
			ParamSpec{Name: "target_temp_f", Kind: ParamFloat, Min: 55, Max: 90, Default: "70"},
			ParamSpec{Name: "fan_speed", Kind: ParamEnum, Enum: []string{"off", "low", "medium", "high"}, Default: "low"},
		)
	case TypeAccessControl:
		return append(base,
			ParamSpec{Name: "mode", Kind: ParamEnum, Enum: []string{"card", "fingerprint", "card-or-fingerprint"}, Default: "card"},
		)
	default:
		return base
	}
}

// Sensor is one deployed device. A Sensor is safe for concurrent use.
type Sensor struct {
	ID          string
	Name        string
	Type        Type
	Subsystem   Subsystem
	SpaceID     string // where the sensor is installed
	Mobile      bool   // mobile sensors stamp observations with their current location
	Description string

	mu       sync.RWMutex
	specs    map[string]ParamSpec
	settings map[string]string
}

// New constructs a sensor of the given type at the given space with
// the type's default settings schema and defaults applied.
func New(id string, t Type, spaceID string) (*Sensor, error) {
	if id == "" {
		return nil, errors.New("sensor: ID must be non-empty")
	}
	if _, ok := typeNames[t]; !ok {
		return nil, fmt.Errorf("sensor: invalid type %d", int(t))
	}
	s := &Sensor{
		ID:        id,
		Name:      id,
		Type:      t,
		Subsystem: DefaultSubsystem(t),
		SpaceID:   spaceID,
		specs:     make(map[string]ParamSpec),
		settings:  make(map[string]string),
	}
	for _, spec := range DefaultSpecs(t) {
		s.specs[spec.Name] = spec
		s.settings[spec.Name] = spec.Default
	}
	return s, nil
}

// MustNew is New for construction code with known-good arguments.
func MustNew(id string, t Type, spaceID string) *Sensor {
	s, err := New(id, t, spaceID)
	if err != nil {
		panic(err)
	}
	return s
}

// Specs returns the sensor's parameter specifications sorted by name.
func (s *Sensor) Specs() []ParamSpec {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ParamSpec, 0, len(s.specs))
	for _, spec := range s.specs {
		out = append(out, spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Settings returns a copy of the current settings.
func (s *Sensor) Settings() map[string]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]string, len(s.settings))
	for k, v := range s.settings {
		out[k] = v
	}
	return out
}

// Setting returns the current value of one parameter.
func (s *Sensor) Setting(name string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.settings[name]
	return v, ok
}

// BoolSetting returns a boolean parameter's value, defaulting to
// false for unknown parameters.
func (s *Sensor) BoolSetting(name string) bool {
	v, ok := s.Setting(name)
	return ok && v == "true"
}

// FloatSetting returns a numeric parameter's value, defaulting to 0
// for unknown or non-numeric parameters.
func (s *Sensor) FloatSetting(name string) float64 {
	v, ok := s.Setting(name)
	if !ok {
		return 0
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0
	}
	return f
}

// Enabled reports whether the sensor is capturing.
func (s *Sensor) Enabled() bool { return s.BoolSetting("enabled") }

// Apply validates and applies a settings change. It is atomic: if any
// parameter is unknown or invalid, nothing changes. This is the
// actuation point for the paper's step (8): the IoTA's configured
// privacy settings reach the sensor through TIPPERS calling Apply.
func (s *Sensor) Apply(changes map[string]string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, value := range changes {
		spec, ok := s.specs[name]
		if !ok {
			return fmt.Errorf("sensor %s: unknown parameter %q", s.ID, name)
		}
		if err := spec.Validate(value); err != nil {
			return fmt.Errorf("sensor %s: %w", s.ID, err)
		}
	}
	for name, value := range changes {
		s.settings[name] = value
	}
	return nil
}

// ObservationKind names the kind of data a sensor reading carries.
type ObservationKind string

// Observation kinds produced by the simulated drivers. The names
// match the paper's Figure 3 ("wifi_access_point",
// "bluetooth_beacon").
const (
	ObsWiFiConnect  ObservationKind = "wifi_access_point"
	ObsBLESighting  ObservationKind = "bluetooth_beacon"
	ObsPowerReading ObservationKind = "power_reading"
	ObsTempReading  ObservationKind = "temperature_reading"
	ObsMotionEvent  ObservationKind = "motion_event"
	ObsCameraFrame  ObservationKind = "camera_frame"
	ObsCardSwipe    ObservationKind = "card_swipe"
	ObsOccupancy    ObservationKind = "occupancy" // inferred higher-level observation
)

// Declared reports whether k is one of the kinds above, the inferred
// occupancy included.
func (k ObservationKind) Declared() bool {
	return k == ObsOccupancy || TypeForKind(k) != 0
}

// KindForType returns the primary observation kind a sensor type
// produces.
func KindForType(t Type) ObservationKind {
	switch t {
	case TypeCamera:
		return ObsCameraFrame
	case TypeWiFiAP:
		return ObsWiFiConnect
	case TypeBLEBeacon:
		return ObsBLESighting
	case TypePowerMeter:
		return ObsPowerReading
	case TypeTemperature:
		return ObsTempReading
	case TypeMotion:
		return ObsMotionEvent
	case TypeAccessControl:
		return ObsCardSwipe
	default:
		return ""
	}
}

// TypeForKind returns the sensor type that produces an observation
// kind (the inverse of KindForType). Inferred kinds such as occupancy
// have no single producing type and return 0.
func TypeForKind(k ObservationKind) Type {
	switch k {
	case ObsCameraFrame:
		return TypeCamera
	case ObsWiFiConnect:
		return TypeWiFiAP
	case ObsBLESighting:
		return TypeBLEBeacon
	case ObsPowerReading:
		return TypePowerMeter
	case ObsTempReading:
		return TypeTemperature
	case ObsMotionEvent:
		return TypeMotion
	case ObsCardSwipe:
		return TypeAccessControl
	default:
		return 0
	}
}

// Observation is one captured reading (§IV.A.5): "Each observation
// has a timestamp and a location associated with it."
type Observation struct {
	// Seq is assigned by the observation store on ingest; zero before.
	Seq uint64 `json:"seq,omitempty"`

	SensorID string          `json:"sensor_id"`
	Kind     ObservationKind `json:"kind"`
	Time     time.Time       `json:"time"`
	SpaceID  string          `json:"space_id"`

	// DeviceMAC is set for network observations (WiFi connect, BLE
	// sighting); it may be a pseudonym if the sensor hashes MACs.
	DeviceMAC string `json:"device_mac,omitempty"`
	// UserID is the attributed building inhabitant, or "" if the
	// reading could not be (or must not be) attributed.
	UserID string `json:"user_id,omitempty"`

	// Value is the numeric payload (watts, °F, occupancy count, ...).
	Value float64 `json:"value,omitempty"`
	// Payload carries kind-specific extra fields.
	Payload map[string]string `json:"payload,omitempty"`
}

// Clone returns a deep copy of the observation; privacy mechanisms
// transform copies so the stored ground truth stays intact.
func (o Observation) Clone() Observation {
	out := o
	if o.Payload != nil {
		out.Payload = make(map[string]string, len(o.Payload))
		for k, v := range o.Payload {
			out.Payload[k] = v
		}
	}
	return out
}
