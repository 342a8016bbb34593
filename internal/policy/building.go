package policy

import (
	"errors"
	"fmt"

	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
)

// PolicyKind classifies what a building policy does. The paper's four
// examples span all four kinds: Policy 1 is automation, Policy 2 is
// collection, Policy 3 is access control, Policy 4 is conditional
// disclosure.
type PolicyKind int

// Building policy kinds.
const (
	// KindCollection mandates capture and storage of some data for a
	// purpose, with a retention period (Policy 2).
	KindCollection PolicyKind = iota + 1
	// KindAutomation drives actuators from sensor data (Policy 1's
	// thermostat rule).
	KindAutomation
	// KindAccessControl gates physical access on verification
	// (Policy 3's card-or-fingerprint rule).
	KindAccessControl
	// KindDisclosure releases information to a user class under a
	// condition (Policy 4's nearby-participants rule).
	KindDisclosure
)

var policyKindNames = map[PolicyKind]string{
	KindCollection:    "collection",
	KindAutomation:    "automation",
	KindAccessControl: "access-control",
	KindDisclosure:    "disclosure",
}

// String returns the lowercase kind name.
func (k PolicyKind) String() string {
	if n, ok := policyKindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("PolicyKind(%d)", int(k))
}

// BuildingPolicy is an enforceable rule set by the building's
// temporary or permanent owner (§III.A): "requirements for data
// collection and management ... (in most cases) have to be met
// completely by the other actors in the pervasive space."
type BuildingPolicy struct {
	ID          string
	Name        string
	Description string
	// Owner is who set the policy (facility manager, building admin,
	// event coordinator, ...).
	Owner string
	Kind  PolicyKind
	// Scope selects the data flows (or spaces/sensors) the policy
	// governs.
	Scope Scope

	// Retention bounds storage for collection policies; zero means
	// unspecified (the store's default applies).
	Retention isodur.Duration

	// Settings are sensor settings the policy requires, applied to
	// every sensor the scope covers (capture-time enforcement).
	Settings map[string]string

	// Override marks the policy as enforceable over conflicting user
	// preferences. Only safety-critical purposes may carry it; Check
	// rejects other overrides so a building cannot mark a marketing
	// collection as non-negotiable. A policy that does not govern data
	// flows (GovernsDataFlows) overrides nothing, whatever it says.
	Override bool

	// Disclosure parameters (KindDisclosure): release to members of
	// AudienceGroups only when within ProximitySpaceID.
	AudienceGroups   []profile.Group
	ProximitySpaceID string
}

// GovernsDataFlows reports whether the policy releases the data flows
// user preferences govern: collection and disclosure policies do,
// automation and access-control policies drive actuators and doors.
// Only a policy that governs data flows conflicts with a preference,
// and only such a policy overrides one.
func (p BuildingPolicy) GovernsDataFlows() bool {
	return p.Kind == KindCollection || p.Kind == KindDisclosure
}

// Check validates internal consistency. It is called on registration
// by the policy manager.
func (p BuildingPolicy) Check() error {
	if p.ID == "" {
		return errors.New("policy: building policy needs an ID")
	}
	if _, ok := policyKindNames[p.Kind]; !ok {
		return fmt.Errorf("policy %s: invalid kind %d", p.ID, int(p.Kind))
	}
	if p.Override {
		ok := false
		for _, purpose := range p.Scope.Purposes {
			if purpose.SafetyCritical() {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("policy %s: override requires a safety-critical purpose", p.ID)
		}
	}
	if p.Kind == KindDisclosure && len(p.AudienceGroups) == 0 {
		return fmt.Errorf("policy %s: disclosure policy needs an audience", p.ID)
	}
	return nil
}

// The paper's four example building policies, parameterized by the
// spaces they apply to. Each function documents the paper text it
// implements.

// Policy1Comfort is the paper's Policy 1: "A facility manager sets
// the thermostat temperature of occupied rooms to 70°F to match the
// average comfort level of users." It is an automation policy scoped
// to HVAC units in the given space, requiring occupancy-driven
// actuation; executing it reads motion sensors and actuates HVAC
// settings (target_temp_f).
func Policy1Comfort(spaceID string, targetF float64) BuildingPolicy {
	return BuildingPolicy{
		ID:          "policy-1-comfort",
		Name:        "Thermostat comfort automation",
		Description: "Set the thermostat temperature of occupied rooms to match the average comfort level of users.",
		Owner:       "facility-manager",
		Kind:        KindAutomation,
		Scope: Scope{
			SpaceID:    spaceID,
			SensorType: sensor.TypeHVAC,
			Purposes:   []Purpose{PurposeComfort},
		},
		Settings: map[string]string{"target_temp_f": fmt.Sprintf("%g", targetF)},
	}
}

// Policy2EmergencyLocation is the paper's Policy 2: "The building
// management system stores your location to locate you in case of
// emergency situations." It collects WiFi-AP connection events
// building-wide for emergency response, retains them six months
// (Figure 2), and carries Override: user opt-outs do not suspend it,
// they only trigger notification (§III.B's conflict with
// Preference 2).
func Policy2EmergencyLocation(buildingID string) BuildingPolicy {
	return BuildingPolicy{
		ID:          "policy-2-emergency-location",
		Name:        "Location tracking in DBH",
		Description: "If your device is connected to a WiFi Access Point in the building, its MAC address is stored for emergency response.",
		Owner:       "building-admin",
		Kind:        KindCollection,
		Scope: Scope{
			SpaceID:    buildingID,
			SensorType: sensor.TypeWiFiAP,
			ObsKind:    sensor.ObsWiFiConnect,
			Purposes:   []Purpose{PurposeEmergencyResponse},
		},
		Retention: isodur.SixMonths,
		Settings:  map[string]string{"log_connections": "true"},
		Override:  true,
	}
}

// Policy3MeetingRoomAccess is the paper's Policy 3: "A building
// administrator defines that either an ID card or fingerprint
// verification is needed to access meeting rooms."
func Policy3MeetingRoomAccess(meetingRoomIDs ...string) []BuildingPolicy {
	out := make([]BuildingPolicy, 0, len(meetingRoomIDs))
	for i, room := range meetingRoomIDs {
		out = append(out, BuildingPolicy{
			ID:          fmt.Sprintf("policy-3-access-%d", i+1),
			Name:        "Meeting room access verification",
			Description: "Either an ID card or fingerprint verification is needed to access meeting rooms.",
			Owner:       "building-admin",
			Kind:        KindAccessControl,
			Scope: Scope{
				SpaceID:    room,
				SensorType: sensor.TypeAccessControl,
				ObsKind:    sensor.ObsCardSwipe,
				Purposes:   []Purpose{PurposeSecurity},
			},
			Retention: isodur.Year,
			Settings:  map[string]string{"mode": "card-or-fingerprint"},
		})
	}
	return out
}

// Policy4EventDisclosure is the paper's Policy 4: "An event
// coordinator requires that details regarding an event are disclosed
// to registered participants only when they are nearby."
func Policy4EventDisclosure(eventSpaceID string, participants profile.Group) BuildingPolicy {
	return BuildingPolicy{
		ID:          "policy-4-event-disclosure",
		Name:        "Proximity-gated event disclosure",
		Description: "Details regarding an event are disclosed to registered participants only when they are nearby.",
		Owner:       "event-coordinator",
		Kind:        KindDisclosure,
		Scope: Scope{
			SpaceID:  eventSpaceID,
			Purposes: []Purpose{PurposeProvidingService},
		},
		AudienceGroups:   []profile.Group{participants},
		ProximitySpaceID: eventSpaceID,
	}
}
