package core

// Columnar-tier glue: routing the request manager's occupancy path
// and the query layer onto the colstore rollup cubes, plus the
// occupancy answer cache those paths share.
//
// The cubes store ground truth keyed by the real subject — never an
// enforced view — so every consumer here re-runs the requester's
// decisions before release, exactly as the row paths do. Cached
// *answers* (post-enforcement) are therefore only valid for one
// engine epoch and one rollup version: a policy or preference
// mutation bumps enforce.Engine.Epoch inside the mutation itself, and
// any ingest or deletion bumps the rollup version, so a stale answer
// can never be served and nobody has to remember to flush.

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/tippers/tippers/internal/colstore"
	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/query"
	"github.com/tippers/tippers/internal/sensor"
)

// occupancyRows fetches the candidate observations for an occupancy
// request. When the filter is cube-alignable it returns one synthetic
// observation per rollup cell — the aggregate consumes only
// (space, subject) pairs, which every row of a cell shares, so the
// per-cell view releases exactly what the row scan would — otherwise
// it falls back to the unified segment+tail scan (or the plain row
// store when the tier is disabled). fromRollup reports which path
// served.
func (b *BMS) occupancyRows(f obstore.Filter) (obs []sensor.Observation, fromRollup bool) {
	if b.colstore == nil {
		return b.store.Query(f), false
	}
	if cells, ok := b.occupancyCells(f); ok {
		return cells, true
	}
	return b.colstore.Query(f), false
}

// occupancyCells answers a filter from the minute occupancy cube.
// ok=false means the filter cannot be served exactly (unaligned
// window, seq cursor, pagination, sensor/MAC dimensions the cube does
// not carry) or the cube is disabled; the caller then scans rows.
func (b *BMS) occupancyCells(f obstore.Filter) ([]sensor.Observation, bool) {
	if f.AfterSeq != 0 || f.Limit != 0 || f.DeviceMAC != "" || f.SensorID != "" {
		return nil, false
	}
	if !minuteAligned(f.From) || !minuteAligned(f.To) {
		return nil, false
	}
	var out []sensor.Observation
	_, ok := b.colstore.VisitOccupancy(f, func(c colstore.OccEntry) {
		if c.UserID == "" {
			// Unattributed readings never contribute to occupancy.
			return
		}
		out = append(out, sensor.Observation{
			Seq:     c.MinSeq,
			Kind:    c.Kind,
			Time:    c.Minute,
			SpaceID: c.SpaceID,
			UserID:  c.UserID,
		})
	})
	return out, ok
}

func minuteAligned(t time.Time) bool {
	return t.IsZero() || t.Truncate(time.Minute).Equal(t)
}

// queryRollup is the query layer's Env.Rollup hook: pre-aggregated
// ground-truth cells for eligible aggregate plans, served from the
// colstore cubes. nil when the tier is disabled.
func (b *BMS) queryRollup() func(query.RollupRequest) ([]query.RollupEntry, bool) {
	if b.colstore == nil {
		return nil
	}
	return func(req query.RollupRequest) ([]query.RollupEntry, bool) {
		var out []query.RollupEntry
		ok := b.colstore.VisitRollup(req.Filter, req.NeedSensor, req.NeedValue, func(c colstore.RollupCell) {
			out = append(out, query.RollupEntry(c))
		})
		return out, ok
	}
}

// occAnswer is one cached post-enforcement occupancy answer, pinned
// to the engine epoch and rollup version it was computed under.
type occAnswer struct {
	epoch      uint64
	rollVer    uint64
	aggregates []privacy.AggregateCount
	k          int
	considered int
	released   int
	relObs     int
}

// occupancyCache memoizes rollup-served occupancy answers. Keys fold
// in the evaluation minute (decisions have minute resolution — window
// rules), and entries validate against (engine epoch, rollup version)
// on every hit — rule mutations bump the epoch, any ingest or
// deletion bumps the rollup version — so a hit is provably the answer
// a fresh evaluation would produce. Answers whose decisions carried
// override notifications are never cached (replaying them would
// swallow user notifications, the same constraint the engine's memo
// honors).
type occupancyCache struct {
	mu      sync.Mutex
	entries map[string]occAnswer
	hits    uint64
}

const occCacheMax = 256

func (c *occupancyCache) get(key string, epoch, rollVer uint64) (occAnswer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.entries[key]
	if !ok || a.epoch != epoch || a.rollVer != rollVer {
		return occAnswer{}, false
	}
	c.hits++
	return a, true
}

func (c *occupancyCache) put(key string, a occAnswer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[string]occAnswer)
	}
	if len(c.entries) >= occCacheMax {
		c.entries = make(map[string]occAnswer)
	}
	c.entries[key] = a
}

// ClearOccupancyCache drops the cached occupancy answers and nothing
// else. Correctness never needs it (hits are validated, not flushed);
// benchmarks call it to time the rollup read plus a warm decide batch,
// where mutating a rule would also empty the engine's memo.
func (b *BMS) ClearOccupancyCache() {
	c := &b.occCache
	c.mu.Lock()
	c.entries = nil
	c.mu.Unlock()
}

// occCacheKey canonicalizes the decision-relevant dimensions of an
// occupancy request, evaluated at now. Every field the engine or the
// filter reads is in the key — including the evaluation minute, the
// resolution at which window rules change — except SubjectID (the
// aggregate path decides per candidate subject, not per
// requester-named subject).
func occCacheKey(req enforce.Request, minK int, now time.Time) string {
	at := req.Time
	if at.IsZero() {
		at = now
	}
	var sb strings.Builder
	sb.WriteString(req.ServiceID)
	sb.WriteByte(0)
	sb.WriteString(string(req.Purpose))
	sb.WriteByte(0)
	sb.WriteString(req.SpaceID)
	sb.WriteByte(0)
	sb.WriteString(string(req.Kind))
	sb.WriteByte(0)
	fmt.Fprintf(&sb, "%d\x00%d\x00", req.Granularity, at.Truncate(time.Minute).Unix())
	sb.WriteString(strconv.FormatInt(req.From.UnixNano(), 10))
	sb.WriteByte(0)
	sb.WriteString(strconv.FormatInt(req.To.UnixNano(), 10))
	sb.WriteByte(0)
	sb.WriteString(strconv.Itoa(minK))
	return sb.String()
}
