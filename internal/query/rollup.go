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

// relEntry pairs one ground-truth rollup cell with its released view.
// The released observation carries post-enforcement dimensions (the
// clamped space, the subject, kind, sensor); statistics stay on the
// embedded ground-truth cell.
type relEntry struct {
	RollupEntry
	rel sensor.Observation
}

// releaseEntries gates every rollup cell through the requester's
// decision, mirroring scan in aggregate mode: denied cells
// drop (weighted into stats), allowed cells pass the data path so
// downstream grouping only sees released dimensions, and contributing
// subjects raise the k floor exactly as surviving rows do. ok=false
// aborts the rollup path (noise on a value aggregate) with stats
// rolled back so the row-scan fallback double-counts nothing.
func (e *enforcement) releaseEntries(entries []RollupEntry, needValue bool) ([]relEntry, bool, error) {
	saved := e.stats
	out := make([]relEntry, 0, len(entries))
	for i := range entries {
		en := entries[i]
		synth := sensor.Observation{
			Seq: en.MinSeq, SensorID: en.SensorID, Kind: en.Kind,
			Time: en.Bucket, SpaceID: en.SpaceID, UserID: en.UserID,
		}
		e.stats.ScannedRows += en.Count
		d := e.decide(&synth)
		if !d.Allowed {
			e.stats.DeniedRows += en.Count
			continue
		}
		if needValue && d.Effective.NoiseEpsilon > 0 {
			// Noise is drawn per released row; a pre-summed cell cannot
			// reproduce it. Bail before Apply so no randomness is
			// consumed and the row scan starts from pristine state.
			// Decisions made so far stay counted: the engine ran, and
			// the memo will serve the row scan's retry.
			decided := e.stats.Decisions
			e.stats = saved
			e.stats.Decisions = decided
			return nil, false, nil
		}
		ro, ok, err := e.env.Apply(d, synth)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			e.stats.ExcludedRows += en.Count
			continue
		}
		if en.UserID != "" && d.Effective.MinAggregationK > e.maxFloor {
			e.maxFloor = d.Effective.MinAggregationK
		}
		e.stats.ReleasedRows += en.Count
		out = append(out, relEntry{RollupEntry: en, rel: ro})
	}
	e.stats.Subjects = len(e.subjects)
	e.stats.UsedRollup = true
	e.stats.RollupCells = len(entries)
	// Group order must match the row executor's first-seen-by-seq
	// order: a group's first released row is the one with the minimum
	// seq, and within a cell that is exactly MinSeq.
	sort.Slice(out, func(i, j int) bool { return out[i].MinSeq < out[j].MinSeq })
	return out, true, nil
}

// fetchRollup asks the backend for cells matching the pushed filter.
func (p *Plan) fetchRollup() ([]RollupEntry, bool) {
	return p.enf.env.Rollup(RollupRequest{
		Filter:     p.filter,
		NeedSensor: p.rollup.needSensor,
		NeedValue:  p.rollup.needValue,
	})
}

// tryRollup answers a grouped observations plan from rollup cells.
// ok=false means the backend cannot serve the filter exactly or a
// noisy value aggregate forced a fallback; the caller then runs the
// ordinary row path (the shared decision memo makes the retry cheap).
func (p *Plan) tryRollup() (*Result, bool, error) {
	entries, ok := p.fetchRollup()
	if !ok {
		return nil, false, nil
	}
	rel, ok, err := p.enf.releaseEntries(entries, p.rollup.needValue)
	if err != nil || !ok {
		return nil, false, err
	}

	g := newGrouper(p)
	for i := range rel {
		g.add((*obsRow)(&rel[i].rel), rel[i].UserID, &rel[i].RollupEntry)
	}
	return g.result(), true, nil
}

// tryOccupancyRollup answers the occupancy table from rollup cells:
// one released observation per cell feeds the same k-anonymous
// distinct-subject count the row path computes — the count depends
// only on (released space, subject) pairs, which every row of a cell
// shares, so the per-cell view loses nothing.
func (p *Plan) tryOccupancyRollup() (*Result, bool, error) {
	entries, ok := p.fetchRollup()
	if !ok {
		return nil, false, nil
	}
	rel, ok, err := p.enf.releaseEntries(entries, false)
	if err != nil || !ok {
		return nil, false, err
	}
	spaces := privacy.KCounter{}
	for i := range rel {
		spaces.Add(rel[i].rel.SpaceID, rel[i].rel.UserID)
	}
	return p.occupancyResult(spaces), true, nil
}
