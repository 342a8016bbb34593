package query

// Rollup execution: answering eligible aggregate plans from
// pre-aggregated ground-truth cells instead of a row scan. The
// discipline is identical to the row path — every cell passes the
// requester's decision, the granularity clamp re-applies per cell
// (which can regroup a cell under its released, coarsened space), and
// k-floor suppression keys off ground-truth subjects — so the released
// result is the same rows in the same order, just computed from
// per-bucket statistics instead of per-row scans. Noise is the one
// transform that cannot be replayed over an aggregate: when a value
// aggregate meets a noisy decision the executor abandons the rollup
// and falls back to the row scan before any randomness is drawn.

import (
	"sort"

	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/sensor"
)

// releaseRollup fetches the cells matching the pushed filter and gates
// each through the requester's decision, mirroring scan in aggregate
// mode: denied cells drop (weighted into stats), allowed cells pass the
// data path so sink only sees released dimensions (the clamped space,
// the subject, kind, sensor — statistics stay on the ground-truth
// cell), and contributing subjects raise the k floor exactly as
// surviving rows do. ok=false means the caller runs the ordinary row
// path (the shared decision memo makes the retry cheap) and discards
// what sink accumulated: the backend cannot serve the filter exactly,
// or a value aggregate met noise — then stats are rolled back so the
// row scan double-counts nothing.
func (p *Plan) releaseRollup(sink func(rel *sensor.Observation, subject uint32, cell *RollupEntry)) (ok bool, err error) {
	e := p.enf
	entries, ok := e.env.Rollup(RollupRequest{Filter: p.filter, NeedSensor: p.rollup.needSensor, NeedValue: p.rollup.needValue})
	if !ok {
		return false, nil
	}
	saved := e.stats
	// Group order must match the row executor's first-seen-by-seq
	// order: a group's first released row is the one with the minimum
	// seq, and within a cell that is exactly MinSeq.
	sort.Slice(entries, func(i, j int) bool { return entries[i].MinSeq < entries[j].MinSeq })
	var rel sensor.Observation // one slot for every cell, as in scan
	for i := range entries {
		en := &entries[i]
		synth := sensor.Observation{
			Seq: en.MinSeq, SensorID: en.SensorID, Kind: en.Kind,
			Time: en.Bucket, SpaceID: en.SpaceID, UserID: en.UserID,
		}
		e.stats.ScannedRows += en.Count
		v, subject := e.decide(&synth)
		if !v.allowed {
			e.stats.DeniedRows += en.Count
			continue
		}
		if p.rollup.needValue && v.effective.NoiseEpsilon > 0 {
			// Noise is drawn per released row; a pre-summed cell cannot
			// reproduce it. Bail before Apply so no randomness is
			// consumed and the row scan starts from pristine state.
			// Decisions made so far stay counted: the engine ran, and
			// the memo will serve the row scan's retry.
			decided := e.stats.Decisions
			e.stats = saved
			e.stats.Decisions = decided
			return false, nil
		}
		if rel, ok, err = e.env.Apply(v.decision(), synth); err != nil {
			return false, err
		}
		if !ok {
			e.stats.ExcludedRows += en.Count
			continue
		}
		if subject != 0 && v.effective.MinAggregationK > e.maxFloor {
			e.maxFloor = v.effective.MinAggregationK
		}
		e.stats.ReleasedRows += en.Count
		sink(&rel, subject, en)
	}
	e.stats.UsedRollup = true
	e.stats.RollupCells = len(entries)
	return true, nil
}

// tryRollup answers a grouped observations plan from rollup cells.
func (p *Plan) tryRollup() (*Result, bool, error) {
	g := newGrouper(p)
	ok, err := p.releaseRollup(func(rel *sensor.Observation, subject uint32, cell *RollupEntry) {
		g.add((*obsRow)(rel), subject, cell)
	})
	if err != nil || !ok {
		return nil, false, err
	}
	return g.result(), true, nil
}

// tryOccupancyRollup answers the occupancy table from rollup cells:
// one released observation per cell feeds the same k-anonymous
// distinct-subject count the row path computes — the count depends
// only on (released space, subject) pairs, which every row of a cell
// shares, so the per-cell view loses nothing.
func (p *Plan) tryOccupancyRollup() (*Result, bool, error) {
	spaces := privacy.KCounter{}
	ok, err := p.releaseRollup(func(rel *sensor.Observation, _ uint32, _ *RollupEntry) {
		spaces.Add(rel.SpaceID, rel.UserID)
	})
	if err != nil || !ok {
		return nil, false, err
	}
	return p.occupancyResult(spaces), true, nil
}
