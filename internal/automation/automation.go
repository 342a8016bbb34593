// Package automation executes the paper's automation policies — the
// Policy 1 loop spelled out in §III.A: "to execute Policy 1 it is
// necessary to i) make a request to motion sensors in each room to
// determine whether the room is occupied or not, ii) pull information
// from temperature sensors to determine whether the HVAC system has
// to be activated, and iii) change the settings of the HVAC system to
// increase or decrease the fan speed to adjust the temperature."
//
// The controller is deliberately data-driven: occupancy comes from
// the observation store (motion events, or presence signals — WiFi
// associations and BLE sightings — when no motion sensors are
// deployed), temperature from the latest reading in the room, and
// actuation goes through the sensor registry so capture-time privacy
// settings see every change.
package automation

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/spatial"
)

// Actuation records one settings change the controller applied.
type Actuation struct {
	SensorID string
	Changes  map[string]string
	Reason   string
}

// Controller executes automation policies over a building.
type Controller struct {
	Spaces  *spatial.Model
	Sensors *sensor.Registry
	Store   *obstore.Store

	// OccupancyWindow is how recent a presence signal must be for a
	// room to count as occupied; zero selects 15 minutes.
	OccupancyWindow time.Duration
	// SetbackTempF is the unoccupied-room setpoint; zero selects 62°F.
	SetbackTempF float64
	// DeadbandF is the temperature tolerance before the fan spins up;
	// zero selects 1°F.
	DeadbandF float64
}

// Errors returned by the controller.
var (
	ErrNotAutomation = errors.New("automation: policy is not an automation policy")
)

func (c *Controller) occupancyWindow() time.Duration {
	if c.OccupancyWindow > 0 {
		return c.OccupancyWindow
	}
	return 15 * time.Minute
}

func (c *Controller) setback() float64 {
	if c.SetbackTempF > 0 {
		return c.SetbackTempF
	}
	return 62
}

func (c *Controller) deadband() float64 {
	if c.DeadbandF > 0 {
		return c.DeadbandF
	}
	return 1
}

// Occupied reports whether the room has a fresh presence signal:
// motion first (step i), falling back to network presence when no
// motion sensor covers the room.
func (c *Controller) Occupied(roomID string, now time.Time) bool {
	from := now.Add(-c.occupancyWindow())
	for _, kind := range []sensor.ObservationKind{
		sensor.ObsMotionEvent, sensor.ObsWiFiConnect, sensor.ObsBLESighting,
	} {
		found := false
		c.Store.Scan(obstore.Filter{
			Kind:     kind,
			SpaceIDs: []string{roomID},
			From:     from,
			To:       now.Add(time.Nanosecond),
		}, func(*sensor.Observation, obstore.Codes) bool {
			found = true
			return false
		})
		if found {
			return true
		}
	}
	return false
}

// RoomTemperature returns the latest temperature reading in the room
// within the last hour (step ii). ok is false when no reading exists.
func (c *Controller) RoomTemperature(roomID string, now time.Time) (temp float64, ok bool) {
	c.Store.Scan(obstore.Filter{
		Kind:     sensor.ObsTempReading,
		SpaceIDs: []string{roomID},
		From:     now.Add(-time.Hour),
		To:       now.Add(time.Nanosecond),
	}, func(o *sensor.Observation, _ obstore.Codes) bool {
		temp, ok = o.Value, true
		return true
	})
	return temp, ok
}

// Execute runs one automation policy (step iii): every HVAC unit in
// the policy's scope is driven to the occupied setpoint or the
// setback, with fan speed chosen from the temperature error. The
// applied actuations are returned for audit.
func (c *Controller) Execute(p policy.BuildingPolicy, now time.Time) ([]Actuation, error) {
	if p.Kind != policy.KindAutomation {
		return nil, fmt.Errorf("%w: %s is %s", ErrNotAutomation, p.ID, p.Kind)
	}
	targetStr, ok := p.Settings["target_temp_f"]
	if !ok {
		return nil, fmt.Errorf("automation: policy %s has no target_temp_f", p.ID)
	}

	var units []*sensor.Sensor
	for _, s := range c.Sensors.ByType(sensor.TypeHVAC) {
		if p.Scope.SpaceID != "" {
			in, err := c.Spaces.Contained(s.SpaceID, p.Scope.SpaceID)
			if err != nil || !in {
				continue
			}
		}
		units = append(units, s)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].ID < units[j].ID })

	var out []Actuation
	for _, unit := range units {
		changes := map[string]string{}
		var reason string
		if c.Occupied(unit.SpaceID, now) {
			changes["target_temp_f"] = targetStr
			target := unit.FloatSetting("target_temp_f")
			if v, err := parseFloat(targetStr); err == nil {
				target = v
			}
			cur, known := c.RoomTemperature(unit.SpaceID, now)
			switch {
			case !known:
				changes["fan_speed"] = "low"
				reason = fmt.Sprintf("occupied, no temperature reading: hold at %s°F", targetStr)
			case abs(cur-target) <= c.deadband():
				changes["fan_speed"] = "low"
				reason = fmt.Sprintf("occupied, %.1f°F within deadband of %s°F", cur, targetStr)
			case abs(cur-target) <= 5:
				changes["fan_speed"] = "medium"
				reason = fmt.Sprintf("occupied, %.1f°F vs %s°F: medium fan", cur, targetStr)
			default:
				changes["fan_speed"] = "high"
				reason = fmt.Sprintf("occupied, %.1f°F vs %s°F: high fan", cur, targetStr)
			}
		} else {
			changes["target_temp_f"] = fmt.Sprintf("%g", c.setback())
			changes["fan_speed"] = "off"
			reason = fmt.Sprintf("unoccupied: setback to %g°F", c.setback())
		}
		if err := c.Sensors.Actuate(unit.ID, changes); err != nil {
			return out, fmt.Errorf("automation: actuating %s: %w", unit.ID, err)
		}
		out = append(out, Actuation{SensorID: unit.ID, Changes: changes, Reason: reason})
	}
	return out, nil
}

func parseFloat(s string) (float64, error) {
	var f float64
	_, err := fmt.Sscanf(s, "%g", &f)
	return f, err
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
