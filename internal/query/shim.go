package query

// Shims for bench/replay.go, whose shadow replay still wires a rollup
// backend into Env and counts Stats.UsedRollup. The executor answers
// every plan from the enforced scan: it never calls Env.Rollup and
// never sets Stats.UsedRollup. These types, and those two fields, go
// together with replay.go in ROADMAP item 6's benchmark PR.

import (
	"time"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// RollupRequest is the argument of Env.Rollup.
type RollupRequest struct {
	Filter     obstore.Filter
	NeedSensor bool
	NeedValue  bool
}

// RollupEntry is what Env.Rollup returns.
type RollupEntry struct {
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
