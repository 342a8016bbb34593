package colstore

// Shims for bench/replay.go, whose shadow replay still asks the tier
// for the rollup cubes it no longer keeps. Every call answers "not
// served", so the replay scans, as the node does. They go together with
// replay.go in ROADMAP item 6's benchmark PR.

import (
	"time"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// OccEntry is the shape of an occupancy cube cell the replay reads.
type OccEntry struct {
	Minute  time.Time
	SpaceID string
	Kind    sensor.ObservationKind
	UserID  string
	MinSeq  uint64
}

// RollupCell is the shape of a pre-aggregated cell the replay reads.
type RollupCell struct {
	Bucket   time.Time
	SensorID string
	Kind     sensor.ObservationKind
	SpaceID  string
	UserID   string
	Count    int
	Sum      float64
	Min, Max float64
	MinSeq   uint64
}

// OccupancyRollup never serves: ok is always false.
func (s *Store) OccupancyRollup(from, to time.Time) (entries []OccEntry, version uint64, ok bool) {
	return nil, 0, false
}

// RollupFor never serves: ok is always false.
func (s *Store) RollupFor(f obstore.Filter, needSensor, needValue bool) (cells []RollupCell, ok bool) {
	return nil, false
}
