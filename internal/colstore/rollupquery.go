package colstore

// RollupFor bridges the rollup cubes to the analytical query layer:
// given a pushed-down store filter, it decides which cube (if any) can
// answer that filter *exactly* and returns the matching cells. The
// cells are ground truth — raw counts and value stats keyed by the
// true subject — and the query layer re-applies the requester's
// enforcement to every cell before anything is released.

import (
	"time"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// RollupCell is one pre-aggregated ground-truth cell: a time bucket's
// stats for one (sensor, kind, space, subject) combination. Cells from
// the minute occupancy cube carry counts only (SensorID empty,
// Sum/Min/Max zero); cells from the hour readings cube carry full
// value statistics.
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

// VisitRollup answers a pushed-down filter from the rollup cubes when
// a cube covers it exactly, calling visit once per matching cell: the
// filter must not carry bounds the cubes cannot evaluate (seq cursors,
// MAC or space predicates, limits), and its time window must align to
// the chosen cube's bucket so no bucket is partially inside the
// window. needSensor forces the hour cube (the minute cube has no
// sensor dimension); needValue does too (only the hour cube keeps
// value statistics). ok=false means the caller must fall back to a
// row scan. visit runs under the cube's lock (see VisitOccupancy): it
// must do nothing but filter and append.
func (s *Store) VisitRollup(f obstore.Filter, needSensor, needValue bool, visit func(RollupCell)) (ok bool) {
	if f.AfterSeq != 0 || f.DeviceMAC != "" || len(f.SpaceIDs) > 0 || f.Limit != 0 {
		return false
	}
	hourly := needSensor || needValue || f.SensorID != ""
	dur := time.Minute
	if hourly {
		dur = time.Hour
	}
	if !bucketAligned(f.From, dur) || !bucketAligned(f.To, dur) {
		return false
	}
	if hourly {
		_, ok = s.VisitReadings(f, func(e ReadingEntry) {
			visit(RollupCell{
				Bucket: e.Hour, SensorID: e.SensorID, Kind: e.Kind,
				SpaceID: e.SpaceID, UserID: e.UserID,
				Count: e.Count, Sum: e.Sum, Min: e.Min, Max: e.Max, MinSeq: e.MinSeq,
			})
		})
		return ok
	}
	_, ok = s.VisitOccupancy(f, func(e OccEntry) {
		visit(RollupCell{
			Bucket: e.Minute, Kind: e.Kind, SpaceID: e.SpaceID, UserID: e.UserID,
			Count: e.Count, MinSeq: e.MinSeq,
		})
	})
	return ok
}

// RollupFor collects VisitRollup's cells. It is kept for
// bench/replay.go; the node reads cells through VisitRollup.
func (s *Store) RollupFor(f obstore.Filter, needSensor, needValue bool) ([]RollupCell, bool) {
	var cells []RollupCell
	if !s.VisitRollup(f, needSensor, needValue, func(c RollupCell) { cells = append(cells, c) }) {
		return nil, false
	}
	return cells, true
}

func bucketAligned(t time.Time, dur time.Duration) bool {
	return t.IsZero() || t.Truncate(dur).Equal(t)
}
