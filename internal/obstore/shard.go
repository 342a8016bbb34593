package obstore

// This file is the store's shard layer. The observation log is split
// into N lock-striped partitions (default GOMAXPROCS) keyed by a hash
// of the sensor ID, so the capture pipeline's appends and the request
// manager's queries stop funneling through one mutex. Three
// invariants make the shards look exactly like the old single-lock
// store from the outside:
//
//   - Sequence numbers stay global: one atomic counter allocates
//     them, so Filter.AfterSeq cursors, stream resume, and WAL replay
//     keep their meaning unchanged.
//   - Per-shard index slices stay ascending in seq (racing appenders
//     that land in the same shard take a rare sorted-insert path), so
//     every shard emits its matches in seq order and a k-way merge
//     reassembles the global order.
//   - Appends publish through a sequence gate: Append returns only
//     once every lower seq is indexed too, so a Query issued after an
//     Append returns always sees it, and AfterSeq paging under
//     concurrent ingest is gap-free — a page never skips over a seq
//     that is still in flight.

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tippers/tippers/internal/sensor"
)

// shard is one lock-striped partition of the store: the same indexed
// structure the old single-lock store kept globally.
type shard struct {
	mu       sync.RWMutex
	bySeq    map[uint64]sensor.Observation
	order    []uint64 // ascending seq; may contain tombstoned seqs
	bySensor map[string][]uint64
	byUser   map[string][]uint64
	byKind   map[sensor.ObservationKind][]uint64
	dead     int // tombstones awaiting compaction

	// minTimeNano/maxTimeNano are the shard's time zone map: the
	// widest observation-time range ever inserted, read lock-free by
	// timeDisjoint so time-bounded queries skip cold stripes without
	// touching the shard lock. Deletions leave the bounds wide — a
	// zone map may only over-approximate, never under.
	minTimeNano atomic.Int64
	maxTimeNano atomic.Int64
}

func newShard() *shard {
	sh := &shard{
		bySeq:    make(map[uint64]sensor.Observation),
		bySensor: make(map[string][]uint64),
		byUser:   make(map[string][]uint64),
		byKind:   make(map[sensor.ObservationKind][]uint64),
	}
	sh.minTimeNano.Store(int64(^uint64(0) >> 1)) // MaxInt64
	sh.maxTimeNano.Store(-int64(^uint64(0)>>1) - 1)
	return sh
}

// timeDisjoint reports whether the filter's time window cannot
// intersect any observation ever stored in this shard. Lock-free and
// conservative: false negatives are impossible, false positives only
// cost a normal scan.
func (sh *shard) timeDisjoint(f Filter) bool {
	lo, hi := sh.minTimeNano.Load(), sh.maxTimeNano.Load()
	if lo > hi {
		return true // holds no row: never did, or eviction took them all
	}
	if f.From.IsZero() && f.To.IsZero() {
		return false
	}
	if !f.From.IsZero() && f.From.UnixNano() > hi {
		return true
	}
	if !f.To.IsZero() && f.To.UnixNano() <= lo {
		return true
	}
	return false
}

// insert installs a fully formed observation. Caller holds sh.mu.
func (sh *shard) insert(o sensor.Observation) {
	if ns := o.Time.UnixNano(); !o.Time.IsZero() {
		if ns < sh.minTimeNano.Load() {
			sh.minTimeNano.Store(ns)
		}
		if ns > sh.maxTimeNano.Load() {
			sh.maxTimeNano.Store(ns)
		}
	}
	sh.bySeq[o.Seq] = o
	sh.order = insertSeq(sh.order, o.Seq)
	if o.SensorID != "" {
		sh.bySensor[o.SensorID] = insertSeq(sh.bySensor[o.SensorID], o.Seq)
	}
	if o.UserID != "" {
		sh.byUser[o.UserID] = insertSeq(sh.byUser[o.UserID], o.Seq)
	}
	if o.Kind != "" {
		sh.byKind[o.Kind] = insertSeq(sh.byKind[o.Kind], o.Seq)
	}
}

// insertSeq appends seq keeping list ascending. Appends race into a
// shard in near-seq order, so the common case is a plain append; the
// binary-search path only runs when two appenders to the same shard
// finished out of order.
func insertSeq(list []uint64, seq uint64) []uint64 {
	if n := len(list); n == 0 || list[n-1] < seq {
		return append(list, seq)
	}
	i := sort.Search(len(list), func(i int) bool { return list[i] >= seq })
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = seq
	return list
}

// candidateSeqs picks the narrowest available index for the filter.
// Caller holds sh.mu.
func (sh *shard) candidateSeqs(f Filter) []uint64 {
	best := sh.order
	if f.SensorID != "" {
		if list := sh.bySensor[f.SensorID]; len(list) < len(best) {
			best = list
		}
	}
	if f.UserID != "" {
		if list := sh.byUser[f.UserID]; len(list) < len(best) {
			best = list
		}
	}
	if f.Kind != "" {
		if list := sh.byKind[f.Kind]; len(list) < len(best) {
			best = list
		}
	}
	return best
}

// window cuts candidates to (f.AfterSeq, vis]: the cursor prefix is
// skipped wholesale and seqs past the publication watermark (appends
// still in flight on other shards) are excluded so pages stay
// gap-free. Candidate slices are ascending, so both cuts are binary
// searches.
func window(candidates []uint64, afterSeq, vis uint64) []uint64 {
	if afterSeq > 0 {
		candidates = candidates[sort.Search(len(candidates), func(i int) bool {
			return candidates[i] > afterSeq
		}):]
	}
	if n := len(candidates); n > 0 && candidates[n-1] > vis {
		candidates = candidates[:sort.Search(n, func(i int) bool {
			return candidates[i] > vis
		})]
	}
	return candidates
}

// collect returns this shard's matches for f in ascending seq order,
// at most limit of them (0 = no cap), considering only seqs <= vis.
func (sh *shard) collect(f Filter, vis uint64, spaceSet map[string]bool, limit int) []sensor.Observation {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var out []sensor.Observation
	for _, seq := range window(sh.candidateSeqs(f), f.AfterSeq, vis) {
		o, ok := sh.bySeq[seq]
		if !ok {
			continue // tombstone
		}
		if !matches(o, f, spaceSet) {
			continue
		}
		out = append(out, o)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// countMatches is collect without the allocation.
func (sh *shard) countMatches(f Filter, vis uint64, spaceSet map[string]bool) int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	n := 0
	for _, seq := range window(sh.candidateSeqs(f), f.AfterSeq, vis) {
		o, ok := sh.bySeq[seq]
		if !ok {
			continue
		}
		if matches(o, f, spaceSet) {
			n++
		}
	}
	return n
}

// compactLocked rebuilds order and index slices without tombstones.
// Caller holds sh.mu.
func (sh *shard) compactLocked() {
	live := sh.order[:0]
	for _, seq := range sh.order {
		if _, ok := sh.bySeq[seq]; ok {
			live = append(live, seq)
		}
	}
	sh.order = live
	compactIndex := func(idx map[string][]uint64) {
		for key, list := range idx {
			out := list[:0]
			for _, seq := range list {
				if _, ok := sh.bySeq[seq]; ok {
					out = append(out, seq)
				}
			}
			if len(out) == 0 {
				delete(idx, key)
			} else {
				idx[key] = out
			}
		}
	}
	compactIndex(sh.bySensor)
	compactIndex(sh.byUser)
	for k, list := range sh.byKind {
		out := list[:0]
		for _, seq := range list {
			if _, ok := sh.bySeq[seq]; ok {
				out = append(out, seq)
			}
		}
		if len(out) == 0 {
			delete(sh.byKind, k)
		} else {
			sh.byKind[k] = out
		}
	}
	sh.dead = 0
}

// mergeBySeq k-way-merges per-shard pages (each ascending in seq)
// into one globally seq-ordered result, cut at limit (0 = no cap).
// Shard counts are small, so a linear min-scan beats a heap.
func mergeBySeq(pages [][]sensor.Observation, limit int) []sensor.Observation {
	total := 0
	for _, p := range pages {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	capHint := total
	if limit > 0 && limit < capHint {
		capHint = limit
	}
	out := make([]sensor.Observation, 0, capHint)
	heads := make([]int, len(pages))
	for {
		best := -1
		var bestSeq uint64
		for i, p := range pages {
			if heads[i] >= len(p) {
				continue
			}
			if s := p[heads[i]].Seq; best < 0 || s < bestSeq {
				best, bestSeq = i, s
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, pages[best][heads[best]])
		heads[best]++
		if limit > 0 && len(out) >= limit {
			return out
		}
	}
}

// seqGate tracks the publication watermark: visible is the highest
// seq V such that every seq <= V is fully indexed. Queries clamp to
// it; publish blocks an appender until its own seq is covered, which
// is what makes "Append returned, therefore Query sees it" true even
// though seq allocation and shard insertion are no longer one
// critical section.
type seqGate struct {
	visible atomic.Uint64
	mu      sync.Mutex
	cond    *sync.Cond
	pending map[uint64]struct{} // indexed but above a missing lower seq
}

func newSeqGate() *seqGate {
	g := &seqGate{pending: make(map[uint64]struct{})}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// publish marks seq as indexed and blocks until visible >= seq. Every
// allocated seq is eventually published (allocation rolls back before
// any later seq exists on the one fallible path, the WAL append), so
// the wait always terminates.
func (g *seqGate) publish(seq uint64) {
	g.mu.Lock()
	if g.visible.Load()+1 == seq {
		v := seq
		for {
			if _, ok := g.pending[v+1]; !ok {
				break
			}
			delete(g.pending, v+1)
			v++
		}
		g.visible.Store(v)
		g.cond.Broadcast()
	} else {
		g.pending[seq] = struct{}{}
		for g.visible.Load() < seq {
			g.cond.Wait()
		}
	}
	g.mu.Unlock()
}

// reset installs a new watermark. Only for the single-threaded
// recovery phase (checkpoint restore, WAL replay), where seqs may
// legitimately have holes left by retention.
func (g *seqGate) reset(seq uint64) {
	g.mu.Lock()
	g.visible.Store(seq)
	clear(g.pending)
	g.cond.Broadcast()
	g.mu.Unlock()
}

// forEachShard runs fn over every shard on a bounded worker pool
// (GOMAXPROCS workers at most) and waits for completion. With one
// shard — or one core — it degenerates to a plain loop, so small
// deployments pay no goroutine overhead.
func (s *Store) forEachShard(fn func(i int, sh *shard)) {
	n := len(s.shards)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i, sh := range s.shards {
			fn(i, sh)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i, s.shards[i])
			}
		}()
	}
	wg.Wait()
}
