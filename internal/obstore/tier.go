package obstore

// This file is the store's cold-tier seam. With a ColdTier attached
// the shards are the hot window only: the tier owns every observation
// at or below its watermark, the shards answer for what is above it,
// and every reader of the Store — Query, Count, Len, Users, Sweep,
// DeleteUser — gets the union. Without one (tests, the columnar tier
// disabled, a memory-only tier over a durable store) the shards keep
// everything, exactly as before.
//
// Visibility is decided by the watermark, never by whether a row has
// been physically evicted yet: a read takes its split point from the
// tier's scan, reads the shards only above it, and afterwards checks
// that no eviction overtook that split while it was reading (see
// union). Eviction is therefore free to run at any time after the tier
// has made the rows durable; it only releases memory.

import (
	"sort"

	"github.com/tippers/tippers/internal/sensor"
)

// ColdTier is the storage tier that owns every observation with
// seq <= its watermark (internal/colstore's sealed segments). It is the
// store's Listener too: deletions of cold rows reach it as the same
// Deletion records retention and erasure always sent.
type ColdTier interface {
	Listener
	// ScanCold calls visit, in ascending seq, for every live
	// observation at or below the watermark that matches f, stopping
	// when visit returns false or f.Limit rows were visited. The pointer
	// is valid only during the call. It returns the filter for the rows
	// above the watermark — f with AfterSeq raised to the watermark and
	// Limit reduced by the rows visited — and more=false when the
	// visitor stopped or the limit is spent. Watermark, segment set and
	// tombstones come from one snapshot.
	ScanCold(f Filter, visit func(*sensor.Observation) bool) (tail Filter, more bool)
	// ColdRows returns the number of live observations at or below the
	// watermark, and that watermark, from one snapshot.
	ColdRows() (rows int, watermark uint64)
}

// AttachTier installs t as the owner of everything at or below its
// watermark and as the store's listener, and evicts what the shards
// hold below that watermark: after a crash, recovery re-installs rows
// the tier had already sealed. Attach before concurrent traffic, and
// only a tier at least as durable as the store — Checkpoint writes
// what the shards hold, so rows evicted on behalf of a memory-only
// tier would be lost at the next restart.
func (s *Store) AttachTier(t ColdTier) {
	s.SetListener(t)
	s.tier.Store(&t)
	_, wm := t.ColdRows()
	if s.nextSeq.Load() < wm {
		// The tier holds history this store has no record of (its own
		// directory was lost or is new). Number what comes next after the
		// tier's rows rather than on top of them.
		s.nextSeq.Store(wm)
		s.gate.reset(wm)
		if s.logger != nil {
			s.logger.Warn("obstore: cold tier is ahead of the store; sequence numbers resume after its watermark",
				"watermark", wm)
		}
	}
	if n := s.EvictThrough(wm); n > 0 && s.logger != nil {
		s.logger.Info("obstore: dropped recovered rows already sealed in segments",
			"rows", n, "watermark", wm, "resident", s.Resident())
	}
}

func (s *Store) coldTier() ColdTier {
	if tp := s.tier.Load(); tp != nil {
		return *tp
	}
	return nil
}

// EvictThrough drops every row with seq <= wm from the shards and
// returns how many live rows that released. The tier calls it once the
// rows are durable on its side (after the manifest commit); without an
// attached tier it does nothing. Deleting from a Go map never shrinks
// it, so each shard is rebuilt from its survivors — the hot tail.
func (s *Store) EvictThrough(wm uint64) int {
	if s.coldTier() == nil {
		return 0
	}
	// Publish the new floor before the first row goes: a reader that
	// does not see it has finished reading the shards (union).
	for {
		old := s.evictedThrough.Load()
		if wm <= old || s.evictedThrough.CompareAndSwap(old, wm) {
			break
		}
	}
	dropped := make([]int, len(s.shards))
	s.forEachShard(func(i int, sh *shard) { dropped[i] = sh.evictThrough(wm) })
	total := 0
	for _, n := range dropped {
		total += n
	}
	s.evicted.Add(uint64(total))
	return total
}

// Resident returns the number of observations held in the shards: the
// hot window when a tier is attached, every live observation otherwise.
func (s *Store) Resident() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		total += len(sh.bySeq)
		sh.mu.RUnlock()
	}
	return total
}

// Evicted returns how many rows eviction has released from the shards
// since the store was opened.
func (s *Store) Evicted() uint64 { return s.evicted.Load() }

// union is the one read over both tiers: visit sees the tier's matches
// at or below the watermark, then hot reads the shards above it with
// the tail filter the tier returned. ok=false means the visitor
// stopped or the limit was spent before the shards' turn.
//
// The two halves are not atomic: a compaction may commit and evict
// between them, taking rows above the split out of the shards before
// hot reads them. EvictThrough publishes its floor before it removes
// anything, so a floor still at or below the split after hot returned
// proves hot saw every row above it; otherwise the rows in between are
// in the tier now, hot's result is dropped and the pair runs again from
// the old split.
func union[T any](s *Store, t ColdTier, f Filter, visit func(*sensor.Observation) bool, hot func(Filter) T) (res T, ok bool) {
	tail, more := t.ScanCold(f, visit)
	for more {
		res = hot(tail)
		if s.evictedThrough.Load() <= tail.AfterSeq {
			return res, true
		}
		tail, more = t.ScanCold(tail, visit)
	}
	var zero T
	return zero, false
}

// Scan calls visit once per observation matching f, in ascending seq,
// across both tiers, and stops when visit returns false or f.Limit
// rows were visited. The pointer is valid only during the call. No
// store lock is held while visit runs.
func (s *Store) Scan(f Filter, visit func(*sensor.Observation) bool) {
	var hot []sensor.Observation
	if t := s.coldTier(); t != nil {
		hot, _ = union(s, t, f, visit, s.queryShards)
	} else {
		hot = s.queryShards(f)
	}
	for i := range hot {
		if !visit(&hot[i]) {
			return
		}
	}
}

// deleteUnion is the one delete over both tiers, shared by Sweep and
// DeleteUser. Cold rows matching the filter that doomed condemns become
// Deletions (the tier tombstones them and rewrites their segments at
// its next compaction); pass then deletes from the shards and reports
// the rows it removed above the split. Both sets reach the listener
// before the split is validated, so a repeat — an eviction overtook the
// split, see union — finds the first round's rows already tombstoned
// and rescans only the gap.
func (s *Store) deleteUnion(cold Filter, erased bool, doomed func(*sensor.Observation) bool, pass func(split uint64) (int, []Deletion)) int {
	t := s.coldTier()
	if t == nil {
		n, dels := pass(0)
		s.notifyDeleted(dels)
		return n
	}
	total := 0
	for {
		var dels []Deletion
		tail, _ := t.ScanCold(cold, func(o *sensor.Observation) bool {
			if doomed(o) {
				d := deletionOf(*o)
				d.Erased = erased
				dels = append(dels, d)
			}
			return true
		})
		total += len(dels)
		n, hot := pass(tail.AfterSeq)
		total += n
		s.notifyDeleted(append(dels, hot...))
		if s.evictedThrough.Load() <= tail.AfterSeq {
			return total
		}
		cold.AfterSeq = tail.AfterSeq
	}
}

// evictThrough rebuilds the shard from its rows above wm and returns
// the number of live rows dropped.
func (sh *shard) evictThrough(wm uint64) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cut := sort.Search(len(sh.order), func(i int) bool { return sh.order[i] > wm })
	if cut == 0 {
		return 0
	}
	fresh := newShard()
	for _, seq := range sh.order[cut:] {
		if o, ok := sh.bySeq[seq]; ok {
			fresh.insert(o)
		}
	}
	dropped := len(sh.bySeq) - len(fresh.bySeq)
	sh.bySeq, sh.order = fresh.bySeq, fresh.order
	sh.bySensor, sh.byUser, sh.byKind = fresh.bySensor, fresh.byUser, fresh.byKind
	sh.dead = 0
	// The zone map narrows to the survivors. A concurrent reader may see
	// one old and one new bound; the survivors' range lies inside the
	// old one, so any mix still covers every row left.
	sh.minTimeNano.Store(fresh.minTimeNano.Load())
	sh.maxTimeNano.Store(fresh.maxTimeNano.Load())
	return dropped
}

// liveAbove counts the shard's live rows with seq > split.
func (sh *shard) liveAbove(split uint64) int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	cut := sort.Search(len(sh.order), func(i int) bool { return sh.order[i] > split })
	if cut == 0 {
		return len(sh.bySeq)
	}
	// Rows at or below the split are still resident (eviction has not
	// reached this shard yet): count the tail one by one.
	n := 0
	for _, seq := range sh.order[cut:] {
		if _, ok := sh.bySeq[seq]; ok {
			n++
		}
	}
	return n
}
