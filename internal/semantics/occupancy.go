// Package semantics derives higher-level observations from raw sensor
// streams — the paper's TIPPERS "captures raw data from the different
// sensors in the building [and] processes higher-level semantic
// information from such data" (§II.B). The paper's own example of the
// needed abstraction is occupancy: "to model the occupancy of a room,
// it would be better to describe it as if a room is occupied by
// anyone compared to an observation model which might only have
// information such as images from camera, logs from WiFi APs"
// (§IV.B.2).
//
// The occupancy deriver turns presence signals (WiFi associations,
// BLE sightings, motion events) into per-room, per-interval occupancy
// observations. Derived occupancy of a single-owner office is
// attributed to the owner: knowing the office is occupied is exactly
// the §III.B Preference 1 disclosure about that person, so it must be
// subject to their preferences.
package semantics

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// DerivedSensorID marks observations produced by derivation rather
// than capture.
const DerivedSensorID = "derived-occupancy"

// OccupancyDeriver computes room occupancy from presence signals.
type OccupancyDeriver struct {
	Store *obstore.Store
	// Interval is the bucketing period; zero selects 15 minutes.
	Interval time.Duration
	// OwnerOf maps a room to the user IDs it is assigned to; derived
	// occupancy of single-owner rooms is attributed to the owner.
	// nil leaves everything unattributed.
	OwnerOf func(spaceID string) []string
}

func (d *OccupancyDeriver) interval() time.Duration {
	if d.Interval > 0 {
		return d.Interval
	}
	return 15 * time.Minute
}

// presenceKinds are the raw signals occupancy is derived from.
var presenceKinds = []sensor.ObservationKind{
	sensor.ObsWiFiConnect, sensor.ObsBLESighting, sensor.ObsMotionEvent,
}

// Derive computes occupancy observations for the given rooms over
// [from, to): one observation per room per interval in which at least
// one presence signal occurred, with Value = distinct subjects seen
// (devices count when unattributed). Results are time-sorted.
func (d *OccupancyDeriver) Derive(rooms []string, from, to time.Time) ([]sensor.Observation, error) {
	if d.Store == nil {
		return nil, errors.New("semantics: deriver needs a store")
	}
	if !to.After(from) {
		return nil, fmt.Errorf("semantics: empty window [%v, %v)", from, to)
	}
	iv := d.interval()
	var out []sensor.Observation
	for _, room := range rooms {
		// Bucket presence signals for this room by interval.
		type bucket struct {
			subjects map[string]bool
		}
		buckets := map[int64]*bucket{}
		for _, kind := range presenceKinds {
			d.Store.Scan(obstore.Filter{
				Kind:     kind,
				SpaceIDs: []string{room},
				From:     from,
				To:       to,
			}, func(o *sensor.Observation, _ obstore.Codes) bool {
				idx := o.Time.Sub(from) / iv
				b := buckets[int64(idx)]
				if b == nil {
					b = &bucket{subjects: map[string]bool{}}
					buckets[int64(idx)] = b
				}
				switch {
				case o.UserID != "":
					b.subjects[o.UserID] = true
				case o.DeviceMAC != "":
					b.subjects["dev:"+o.DeviceMAC] = true
				default:
					b.subjects["anon"] = true
				}
				return true
			})
		}
		var owner string
		if d.OwnerOf != nil {
			if owners := d.OwnerOf(room); len(owners) == 1 {
				owner = owners[0]
			}
		}
		idxs := make([]int64, 0, len(buckets))
		for idx := range buckets {
			idxs = append(idxs, idx)
		}
		sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
		for _, idx := range idxs {
			b := buckets[idx]
			out = append(out, sensor.Observation{
				SensorID: DerivedSensorID,
				Kind:     sensor.ObsOccupancy,
				Time:     from.Add(time.Duration(idx)*iv + iv - time.Second),
				SpaceID:  room,
				UserID:   owner,
				Value:    float64(len(b.subjects)),
				Payload:  map[string]string{"interval": iv.String()},
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out, nil
}
