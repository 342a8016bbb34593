package policy

import (
	"errors"
	"fmt"
	"math"

	"github.com/tippers/tippers/internal/sensor"
)

// Rule is what a preference decides about matching flows. For
// ActionLimit, at least one limiting mechanism must be set: a maximum
// granularity, a noise epsilon, or a minimum aggregation size.
type Rule struct {
	Action Action `json:"action"`

	// MaxGranularity caps location precision for ActionLimit
	// (GranBuilding implements the paper's "coarse grained location
	// sensing" option in Figure 4).
	MaxGranularity Granularity `json:"max_granularity,omitempty"`

	// NoiseEpsilon, when > 0, requests Laplace noise with the given
	// privacy budget on numeric values ("add noise" is one of the
	// paper's §V.C enforcement hows).
	NoiseEpsilon float64 `json:"noise_epsilon,omitempty"`

	// MinAggregationK, when > 0, requires that matching data only be
	// released in aggregates covering at least K subjects.
	MinAggregationK int `json:"min_aggregation_k,omitempty"`
}

// Check validates the rule.
func (r Rule) Check() error {
	// A NaN or infinite budget releases NaN or exact values. JSON
	// cannot carry one, so no rule log a node wrote over HTTP holds one.
	if math.IsNaN(r.NoiseEpsilon) || math.IsInf(r.NoiseEpsilon, 0) {
		return fmt.Errorf("policy: rule.noise_epsilon %v is not finite", r.NoiseEpsilon)
	}
	switch r.Action {
	case ActionAllow, ActionDeny:
		return nil
	case ActionLimit:
		if !r.MaxGranularity.Valid() && r.NoiseEpsilon <= 0 && r.MinAggregationK <= 0 {
			return errors.New("policy: limit rule needs a granularity cap, noise epsilon, or aggregation floor")
		}
		if r.NoiseEpsilon < 0 {
			return errors.New("policy: rule.noise_epsilon must be positive")
		}
		return nil
	case 0:
		return errors.New("policy: rule.action is missing")
	default:
		return fmt.Errorf("policy: rule.action: invalid action %d", int(r.Action))
	}
}

// MoreRestrictiveThan reports whether r releases strictly less
// information than o. The ordering: deny > limit > allow; among
// limits, a coarser granularity cap, a smaller epsilon, and a larger
// K are each more restrictive.
func (r Rule) MoreRestrictiveThan(o Rule) bool {
	rank := func(a Action) int {
		switch a {
		case ActionDeny:
			return 2
		case ActionLimit:
			return 1
		default:
			return 0
		}
	}
	if rank(r.Action) != rank(o.Action) {
		return rank(r.Action) > rank(o.Action)
	}
	if r.Action != ActionLimit {
		return false
	}
	rg, og := r.MaxGranularity, o.MaxGranularity
	if !rg.Valid() {
		rg = GranExact
	}
	if !og.Valid() {
		og = GranExact
	}
	if rg != og {
		return rg < og
	}
	if r.NoiseEpsilon != o.NoiseEpsilon && r.NoiseEpsilon > 0 {
		return o.NoiseEpsilon == 0 || r.NoiseEpsilon < o.NoiseEpsilon
	}
	return r.MinAggregationK > o.MinAggregationK
}

// Preference is a user privacy preference (§III.B): "a representation
// of the user's expectation of how data pertaining to her should be
// managed by the pervasive space. These preferences might be
// partially or completely met depending on other policies and user
// preferences existing in the same space."
type Preference struct {
	ID     string
	UserID string
	Name   string
	// Scope selects the flows about this user the preference governs.
	// Scope.SubjectIDs is implicitly {UserID}; the field is left empty.
	Scope Scope
	Rule  Rule
	// Source records how the preference was captured: "explicit"
	// (user set it), "learned" (IoTA's model), or "default".
	Source string
}

// Check validates internal consistency. The preference manager calls
// it on registration.
func (p Preference) Check() error {
	if p.ID == "" {
		return errors.New("policy: preference needs an ID")
	}
	if p.UserID == "" {
		return fmt.Errorf("policy: preference %s needs a user", p.ID)
	}
	if len(p.Scope.SubjectIDs) > 0 || len(p.Scope.SubjectGroups) > 0 {
		return fmt.Errorf("policy: preference %s must not scope other subjects", p.ID)
	}
	return p.Rule.Check()
}

// The paper's four example user preferences.

// Preference1OfficeOccupancy is the paper's Preference 1: "Do not
// share the occupancy status of my office in after-hours."
func Preference1OfficeOccupancy(userID, officeID string) Preference {
	return Preference{
		ID:     "pref-1-office-occupancy-" + userID,
		UserID: userID,
		Name:   "No after-hours office occupancy sharing",
		Scope: Scope{
			SpaceID: officeID,
			ObsKind: sensor.ObsOccupancy,
			Window:  AfterHours,
		},
		Rule:   Rule{Action: ActionDeny},
		Source: "explicit",
	}
}

// Preference2NoLocation is the paper's Preference 2: "Do not share my
// location with anyone." It denies every location-bearing kind; the
// conflict with Policy 2's emergency collection is resolved by the
// reasoner (building override + user notification).
func Preference2NoLocation(userID string) []Preference {
	kinds := []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting}
	out := make([]Preference, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, Preference{
			ID:     fmt.Sprintf("pref-2-no-location-%s-%s", userID, k),
			UserID: userID,
			Name:   "Do not share my location with anyone",
			Scope:  Scope{ObsKind: k},
			Rule:   Rule{Action: ActionDeny},
			Source: "explicit",
		})
	}
	return out
}

// Preference3ConciergeFineLocation is the paper's Preference 3:
// "Allow Concierge access to my fine grained location for
// directions."
func Preference3ConciergeFineLocation(userID, conciergeServiceID string) Preference {
	return Preference{
		ID:     "pref-3-concierge-" + userID,
		UserID: userID,
		Name:   "Concierge may use fine-grained location for directions",
		Scope: Scope{
			ServiceID: conciergeServiceID,
			Purposes:  []Purpose{PurposeProvidingService},
		},
		Rule:   Rule{Action: ActionLimit, MaxGranularity: GranExact},
		Source: "explicit",
	}
}

// Preference4SmartMeeting is the paper's Preference 4: "Allow Smart
// Meeting access to the details of the meeting and its participants."
func Preference4SmartMeeting(userID, smartMeetingServiceID string) Preference {
	return Preference{
		ID:     "pref-4-smart-meeting-" + userID,
		UserID: userID,
		Name:   "Smart Meeting may access meeting details and participants",
		Scope: Scope{
			ServiceID: smartMeetingServiceID,
			Purposes:  []Purpose{PurposeProvidingService},
		},
		Rule:   Rule{Action: ActionAllow},
		Source: "explicit",
	}
}

// CoarseLocationPreference captures Figure 4's middle option: release
// location to a service at building granularity only.
func CoarseLocationPreference(userID, serviceID string) Preference {
	return Preference{
		ID:     fmt.Sprintf("pref-coarse-location-%s-%s", userID, serviceID),
		UserID: userID,
		Name:   "Coarse-grained location sensing",
		Scope:  Scope{ServiceID: serviceID},
		Rule:   Rule{Action: ActionLimit, MaxGranularity: GranBuilding},
		Source: "explicit",
	}
}
