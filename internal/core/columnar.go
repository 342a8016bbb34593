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
	"strconv"
	"sync"
	"time"

	"github.com/tippers/tippers/internal/colstore"
	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/query"
	"github.com/tippers/tippers/internal/sensor"
)

// occPair is one candidate of an occupancy request, a cube cell or a
// row, reduced to the two strings the aggregate reads.
type occPair struct{ user, space string }

// occScratch is the working memory of one occupancy miss, pooled so a
// miss allocates for the decisions the engine had to compute, not per
// cell read or per subject decided.
type occScratch struct {
	pairs     []occPair
	cells     map[occPair]int // distinct pair → cells (or rows) carrying it
	items     []enforce.BatchItem
	decisions []enforce.Decision // one per item; nothing in a Response aliases it
	seen      []string           // one subject's distinct released spaces
	counts    map[string]int     // released space → distinct subjects
}

var occScratchPool = sync.Pool{New: func() any {
	return &occScratch{cells: make(map[occPair]int), counts: make(map[string]int)}
}}

func (s *occScratch) release() {
	clear(s.pairs)
	clear(s.cells)
	clear(s.items)
	clear(s.decisions)
	clear(s.counts)
	s.pairs, s.items, s.decisions = s.pairs[:0], s.items[:0], s.decisions[:0]
	occScratchPool.Put(s)
}

// occupancyPairs appends the candidates of an occupancy request to
// sc.pairs. When the filter is cube-alignable (no seq cursor,
// pagination or sensor/MAC dimension, which the cube does not carry,
// and a minute-aligned window) that is one pair per rollup cell — the
// aggregate consumes only (space, subject) pairs, which every row of a
// cell shares, so the per-cell view releases exactly what the row scan
// would — otherwise one per row of the store's unified segment+tail
// scan. fromRollup reports which path served.
func (b *BMS) occupancyPairs(f obstore.Filter, sc *occScratch) (fromRollup bool) {
	add := func(user, space string) {
		if user != "" { // unattributed readings never contribute to occupancy
			sc.pairs = append(sc.pairs, occPair{user, space})
		}
	}
	if f.AfterSeq == 0 && f.Limit == 0 && f.DeviceMAC == "" && f.SensorID == "" && minuteAligned(f.From) && minuteAligned(f.To) {
		// The visitor runs under the cube lock: filter and append only.
		if _, ok := b.colstore.VisitOccupancy(f, func(c colstore.OccEntry) { add(c.UserID, c.SpaceID) }); ok {
			return true
		}
	}
	b.store.Scan(f, func(o *sensor.Observation) bool { add(o.UserID, o.SpaceID); return true })
	return false
}

func minuteAligned(t time.Time) bool {
	return t.IsZero() || t.Truncate(time.Minute).Equal(t)
}

// queryRollup is the query layer's Env.Rollup hook: pre-aggregated
// ground-truth cells for eligible aggregate plans, served from the
// colstore cubes.
func (b *BMS) queryRollup(req query.RollupRequest) ([]query.RollupEntry, bool) {
	var out []query.RollupEntry
	ok := b.colstore.VisitRollup(req.Filter, req.NeedSensor, req.NeedValue, func(c colstore.RollupCell) {
		out = append(out, query.RollupEntry(c))
	})
	return out, ok
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
//
// What keeps it: removing it on bench/'s service-reads workload (10
// alternating pairs, seeds 701–710, 2-vCPU Xeon, go1.24) moves the
// medians node.cpu_ms_per_op 0.074 → 0.106 ms (+43 %, worse in 10 of
// 10 pairs), node.read_p50_ms 0.0347 → 0.0389 ms, allocs_per_op
// 92.2 → 93.8 and alloc_kb_per_op 14.43 → 14.65 kB.
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
// occupancy request whose Time the request boundary has resolved.
// Every field the engine or the filter reads is in the key — including
// the evaluation minute, the resolution at which window rules change —
// except SubjectID, AfterSeq and Limit, which narrow the fetch: a
// request carrying one bypasses the cache.
func occCacheKey(req enforce.Request, minK int) string {
	buf := make([]byte, 0, 192) // stays on the stack for any usual key
	for _, part := range [...]string{req.ServiceID, string(req.Purpose), req.SpaceID, string(req.Kind)} {
		buf = append(append(buf, part...), 0)
	}
	for _, n := range [...]int64{int64(req.Granularity), req.Time.Truncate(time.Minute).Unix(), req.From.UnixNano(), req.To.UnixNano()} {
		buf = append(strconv.AppendInt(buf, n, 10), 0)
	}
	return string(strconv.AppendInt(buf, int64(minK), 10))
}
