package core

// The occupancy answer cache. Its answers are post-enforcement, so each
// is valid for one engine epoch and one state of the store: a policy or
// preference mutation bumps enforce.Engine.Epoch inside the mutation
// itself, an append moves the store's head (obstore.Store.LastSeq), a
// deletion its deletion count (obstore.Store.Deletions), and a rule or
// the node clock's minute its retention cutoffs (obstore.Store.Cutoffs).
// A hit is checked against all four, so a stale answer is never served.

import (
	"strconv"
	"sync"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/privacy"
)

// occVersion is what an occupancy answer depends on besides its
// request: the rules, the store's contents and the retention cutoffs
// of the node clock's minute.
type occVersion struct {
	epoch, lastSeq, deletions uint64
	cut                       *obstore.Cutoffs
}

// occVersion is read before the scan and the decisions it
// validates, so a concurrent ingest, deletion, rule mutation or turn of
// the clock's minute can only cause a spurious miss, never a stale hit.
func (b *BMS) occVersion() occVersion {
	return occVersion{b.engine.Epoch(), b.store.LastSeq(), b.store.Deletions(), b.store.Cutoffs()}
}

// occAnswer is one cached post-enforcement occupancy answer, pinned to
// the version it was computed under.
type occAnswer struct {
	version    occVersion
	aggregates []privacy.AggregateCount
	k          int
	considered int
	released   int
	relObs     int
}

// occupancyCache memoizes occupancy answers. Rows are judged at their
// capture times, so an answer does not depend on when it was asked;
// entries validate against their occVersion on every hit, so a hit is
// provably the answer a fresh evaluation would produce. Answers
// with an override decision are never cached: a hit runs no decision,
// so it would not count the subject's notification.
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

func (c *occupancyCache) get(key string, v occVersion) (occAnswer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.entries[key]
	if !ok || a.version != v {
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
// benchmarks call it to time the scan and its warm decisions, where
// mutating a rule would also empty the engine's memo.
func (b *BMS) ClearOccupancyCache() {
	c := &b.occCache
	c.mu.Lock()
	c.entries = nil
	c.mu.Unlock()
}

// occCacheKey canonicalizes the decision-relevant dimensions of an
// occupancy request. Every field the engine or the filter reads is in
// the key except Time, which no row's decision reads, and SubjectID,
// AfterSeq and Limit, which narrow the fetch: a request carrying one
// bypasses the cache.
func occCacheKey(req enforce.Request, minK int) string {
	buf := make([]byte, 0, 192) // stays on the stack for any usual key
	for _, part := range [...]string{req.ServiceID, string(req.Purpose), req.SpaceID, string(req.Kind)} {
		buf = append(append(buf, part...), 0)
	}
	for _, n := range [...]int64{int64(req.Granularity), req.From.UnixNano(), req.To.UnixNano()} {
		buf = append(strconv.AppendInt(buf, n, 10), 0)
	}
	return string(strconv.AppendInt(buf, int64(minK), 10))
}
