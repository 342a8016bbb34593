package core

import (
	"fmt"
	"time"

	"github.com/tippers/tippers/internal/automation"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/semantics"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/spatial"
)

// This file implements the building-operations side of the BMS: the
// automation loop behind Policy 1, the access-control checks behind
// Policy 3, and the proximity-gated disclosure behind Policy 4.

// DeriveOccupancy runs the semantic layer over [from, to): presence
// signals in every room become per-interval occupancy observations
// (§II.B's "processes higher-level semantic information"), stored like
// any other observation so query-time enforcement — notably
// Preference 1's after-hours office rule — applies to them. Occupancy
// of a single-owner office is attributed to the owner. Returns the
// number of derived observations stored.
func (b *BMS) DeriveOccupancy(from, to time.Time, interval time.Duration) (int, error) {
	deriver := &semantics.OccupancyDeriver{
		Store:    b.store,
		Interval: interval,
		OwnerOf:  b.cfg.Users.OfficeOwner,
	}
	var rooms []string
	for _, sp := range b.cfg.Spaces.All() {
		if sp.Kind == spatial.KindRoom {
			rooms = append(rooms, sp.ID)
		}
	}
	derived, err := deriver.Derive(rooms, from, to)
	if err != nil {
		return 0, err
	}
	for i, o := range derived {
		if err := b.appendAndPublish(o); err != nil {
			return i, err
		}
	}
	return len(derived), nil
}

// RunAutomation executes every registered automation policy once
// (the paper's Policy 1 loop: read occupancy, read temperature,
// actuate HVAC). It returns the applied actuations for audit.
func (b *BMS) RunAutomation(now time.Time) ([]automation.Actuation, error) {
	ctrl := &automation.Controller{
		Spaces:  b.cfg.Spaces,
		Sensors: b.cfg.Sensors,
		Store:   b.store,
	}
	var out []automation.Actuation
	for _, p := range b.Policies() {
		if p.Kind != policy.KindAutomation {
			continue
		}
		acts, err := ctrl.Execute(p, now)
		if err != nil {
			return out, err
		}
		out = append(out, acts...)
	}
	return out, nil
}

// AccessDecision is the outcome of a physical access check.
type AccessDecision struct {
	Allowed bool
	// PolicyID is the access-control policy that governed the space,
	// if any.
	PolicyID string
	Reason   string
}

// CheckAccess evaluates the paper's Policy 3: a user presents a
// verification method ("card" or "fingerprint") at a space. Spaces
// without an access-control policy are open. A granted or denied
// attempt is logged as a card_swipe observation (the security purpose
// Policy 3 declares), attributed to the user.
func (b *BMS) CheckAccess(userID, spaceID, method string, now time.Time) (AccessDecision, error) {
	if _, ok := b.cfg.Users.Lookup(userID); !ok {
		return AccessDecision{}, fmt.Errorf("core: unknown user %q", userID)
	}
	var governing *policy.BuildingPolicy
	for _, p := range b.Policies() {
		if p.Kind != policy.KindAccessControl {
			continue
		}
		if p.Scope.SpaceID != "" {
			in, err := b.cfg.Spaces.Contained(spaceID, p.Scope.SpaceID)
			if err != nil || !in {
				continue
			}
		}
		p := p
		governing = &p
		break
	}
	if governing == nil {
		return AccessDecision{Allowed: true, Reason: "no access policy governs this space"}, nil
	}

	mode := governing.Settings["mode"]
	allowed := false
	switch mode {
	case "card":
		allowed = method == "card"
	case "fingerprint":
		allowed = method == "fingerprint"
	case "card-or-fingerprint", "":
		allowed = method == "card" || method == "fingerprint"
	}
	d := AccessDecision{Allowed: allowed, PolicyID: governing.ID}
	if allowed {
		d.Reason = fmt.Sprintf("verified by %s (mode %s)", method, mode)
	} else {
		d.Reason = fmt.Sprintf("method %q does not satisfy mode %q", method, mode)
	}

	// Log the attempt through the capture pipeline when a reader is
	// deployed at the space; otherwise store it directly, still through
	// the one append step.
	result := "denied"
	if allowed {
		result = "granted"
	}
	obs := sensor.Observation{
		Kind:    sensor.ObsCardSwipe,
		Time:    now,
		SpaceID: spaceID,
		UserID:  userID,
		Payload: map[string]string{"method": method, "result": result},
	}
	readers := b.cfg.Sensors.InSpace(spaceID)
	for _, r := range readers {
		if r.Type == sensor.TypeAccessControl {
			obs.SensorID = r.ID
			break
		}
	}
	var err error
	if obs.SensorID != "" {
		err = b.Ingest(obs)
	} else {
		obs.SensorID = "bms-access-log"
		err = b.appendAndPublish(obs)
	}
	return d, err
}

// DisclosureDecision is the outcome of a proximity-gated disclosure
// check.
type DisclosureDecision struct {
	Allowed  bool
	PolicyID string
	Reason   string
	// Location is the requester's location used for the proximity
	// check, when one was found.
	Location string
}

// RequestDisclosure evaluates the paper's Policy 4: event details are
// "disclosed to registered participants only when they are nearby."
// The requester must belong to the policy's audience groups and their
// last known location (within staleness) must be contained in the
// policy's proximity space.
func (b *BMS) RequestDisclosure(policyID, userID string, now time.Time, staleness time.Duration) (DisclosureDecision, error) {
	var p policy.BuildingPolicy
	b.mu.RLock()
	at, ok := b.policyIndex(policyID)
	if ok {
		p = b.policies[at]
	}
	b.mu.RUnlock()
	if !ok {
		return DisclosureDecision{}, fmt.Errorf("core: unknown policy %q", policyID)
	}
	if p.Kind != policy.KindDisclosure {
		return DisclosureDecision{}, fmt.Errorf("core: policy %q is %s, not disclosure", policyID, p.Kind)
	}
	u, ok := b.cfg.Users.Lookup(userID)
	if !ok {
		return DisclosureDecision{}, fmt.Errorf("core: unknown user %q", userID)
	}
	d := DisclosureDecision{PolicyID: policyID}

	member := false
	for _, g := range p.AudienceGroups {
		if u.HasGroup(g) {
			member = true
			break
		}
	}
	if !member {
		d.Reason = fmt.Sprintf("user is not in the audience %v", p.AudienceGroups)
		return d, nil
	}

	if staleness <= 0 {
		staleness = 15 * time.Minute
	}
	loc, found := b.lastLocation(userID, now, staleness)
	if !found {
		d.Reason = "no recent location for the user; proximity unknown"
		return d, nil
	}
	d.Location = loc
	if p.ProximitySpaceID != "" {
		in, err := b.cfg.Spaces.Contained(loc, p.ProximitySpaceID)
		if err != nil || !in {
			d.Reason = fmt.Sprintf("user is at %s, outside %s", loc, p.ProximitySpaceID)
			return d, nil
		}
	}
	d.Allowed = true
	d.Reason = fmt.Sprintf("audience member within %s", p.ProximitySpaceID)
	return d, nil
}

// lastLocation returns the space of the user's most recent
// location-bearing observation within the staleness window.
func (b *BMS) lastLocation(userID string, now time.Time, staleness time.Duration) (loc string, found bool) {
	b.store.Scan(obstore.Filter{
		UserID: userID,
		From:   now.Add(-staleness),
		To:     now.Add(time.Nanosecond),
	}, func(o *sensor.Observation, _ obstore.Codes) bool {
		if o.SpaceID != "" && (o.Kind == sensor.ObsWiFiConnect || o.Kind == sensor.ObsBLESighting) {
			loc, found = o.SpaceID, true
		}
		return true
	})
	return loc, found
}
