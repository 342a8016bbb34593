package obstore

// This file is the store's cold-tier seam. With a ColdTier attached
// the log is the hot window only: the tier owns every observation at
// or below its watermark, the log answers for what is above it, and
// every reader of the Store — Scan, Query, Count, Len, Users,
// DeleteUser — gets the union. Without one (a bare store, as in tests)
// the log keeps everything.
//
// Visibility is decided by the watermark, never by whether a row has
// been physically evicted yet: a read takes its split point from the
// tier's scan and reads the log only above it, from a snapshot that
// records the eviction floor it was cut at (see read). Eviction is
// therefore free to run at any time after the tier has made the rows
// durable; it only releases memory.

import (
	"sync"

	"github.com/tippers/tippers/internal/sensor"
)

// ColdTier is the storage tier that owns every observation with
// seq <= its watermark (internal/colstore's sealed segments).
type ColdTier interface {
	// ObservationsDeleted tells the tier which rows erasure removed:
	// those it holds, and the hot ones a compaction in flight may have
	// snapshotted. It runs synchronously on the deleting goroutine,
	// before the deletion returns.
	ObservationsDeleted(dels []Deletion)
	// ScanCold calls visit, in ascending seq, for every live observation
	// at or below the watermark that matches f and cut leaves, with the
	// row's Codes, stopping when visit returns false or f.Limit rows were
	// visited. The pointer is valid only during the call. It returns the
	// filter for the rows above the watermark — f with AfterSeq raised to
	// the watermark and Limit reduced by the rows visited — and
	// more=false when the visitor stopped or the limit is spent.
	// Watermark, segment set and tombstones come from one snapshot.
	ScanCold(f Filter, cut *Cutoffs, visit func(*sensor.Observation, Codes) bool) (tail Filter, more bool)
	// ColdRows returns the number of stored observations at or below the
	// watermark, and that watermark, from one snapshot.
	ColdRows() (rows int, watermark uint64)
}

// Dicts are one sealed segment's user, kind and space dictionaries.
// They never change, and holding the pointer keeps them alive, so a
// reader may key per-segment state by it.
type Dicts struct {
	Users, Kinds, Spaces []string
}

// Codes locate a visited row's user, kind and space in its segment's
// dictionaries: Dicts.Users[User] is its UserID, Dicts.Kinds[Kind] its
// Kind and Dicts.Spaces[Space] its SpaceID. A row of the log has the
// zero Codes (Dicts nil).
type Codes struct {
	Dicts             *Dicts
	User, Kind, Space uint32
}

// AttachTier installs t as the owner of everything at or below its
// watermark, and evicts what the log holds below that watermark: after a crash, recovery re-installs rows
// the tier had already sealed. Attach before concurrent traffic, and
// only a tier at least as durable as the store — Checkpoint writes
// what the log holds, so rows evicted on behalf of a memory-only tier
// would be lost at the next restart (colstore.AttachStore refuses that
// pairing).
func (s *Store) AttachTier(t ColdTier) {
	s.tier.Store(&t)
	_, wm := t.ColdRows()
	if s.nextSeq.Load() < wm {
		// The tier holds history this store has no record of (its own
		// directory was lost or is new). Number what comes next after the
		// tier's rows rather than on top of them.
		s.nextSeq.Store(wm)
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

// EvictThrough drops every row with seq <= wm from the log and returns
// how many that released. The tier calls it once the rows are durable
// on its side (after the manifest commit); without an attached tier it
// does nothing. The survivors — the hot tail — become a new log whose
// floor is wm, sized from the old one (newHotLog) and taking its list
// lengths as hints (lengths). A durable store then
// checkpoints, so the WAL and the checkpoint shrink to the hot tail. A
// checkpoint that fails is logged and tried again at the next commit:
// the WAL keeps every row until one succeeds.
func (s *Store) EvictThrough(wm uint64) int {
	if s.coldTier() == nil {
		return 0
	}
	s.mu.Lock()
	v := s.view(Filter{}, nil)
	cut := v.search(wm)
	if cut > 0 {
		fresh := newHotLog(wm, s.hot)
		fresh.hint = s.hot.lengths()
		for i := cut; i < v.n; i++ {
			fresh.recode(&v, v.at(i))
		}
		s.publish(fresh)
		s.evicted.Add(uint64(cut))
	}
	s.mu.Unlock()
	if cut > 0 && s.walDir != "" {
		if err := s.Checkpoint(); err != nil {
			s.logger.Warn("obstore: checkpoint after eviction failed; the WAL keeps its rows", "error", err)
		}
	}
	return cut
}

// Resident returns the number of observations held in the log: the
// hot window when a tier is attached, every live observation otherwise.
func (s *Store) Resident() int {
	s.hotMu.RLock()
	defer s.hotMu.RUnlock()
	return s.hot.n
}

// Evicted returns how many rows eviction has released from the log
// since the store was opened.
func (s *Store) Evicted() uint64 { return s.evicted.Load() }

// testHookAfterCold, when non-nil, runs in read between the tier's scan
// and the log snapshot: the window an eviction may overtake the split.
var testHookAfterCold func()

// read is the one read over both tiers, under one evaluation of
// retention. It visits the tier's matches at or below its watermark
// through cold, then returns a snapshot of the log and the filter to
// walk it with: f itself without a tier, the tail above the watermark
// with one. ok=false means the visitor stopped or the limit was spent.
//
// The two halves are not atomic: a compaction may commit and evict
// between them, taking rows above the split out of the log. Every
// snapshot records the eviction floor it was cut at, and one cut above
// the split lacks rows the tier's scan did not cover, so the tier is
// scanned again from the split before any row of the log is visited —
// none is visited twice or dropped.
func (s *Store) read(f Filter, cold func(*sensor.Observation, Codes) bool) (v view, tail Filter, ok bool) {
	cut := s.Cutoffs()
	t := s.coldTier()
	if t == nil {
		return s.view(f, cut), f, true
	}
	tail, more := t.ScanCold(f, cut, cold)
	for more {
		if testHookAfterCold != nil {
			testHookAfterCold()
		}
		if v = s.view(tail, cut); v.floor <= tail.AfterSeq {
			return v, tail, true
		}
		tail, more = t.ScanCold(tail, cut, cold)
	}
	return view{}, tail, false
}

// Scan calls visit once per observation matching f, in ascending seq,
// across both tiers, with the row's Codes (the zero Codes for a row of
// the log), and stops when visit returns false or f.Limit rows were
// visited. The pointer is valid only during the call: rows of the log
// are built, one at a time, into one scratch row taken from ScanRows for
// the scan. No store lock is held while visit runs.
func (s *Store) Scan(f Filter, visit func(*sensor.Observation, Codes) bool) {
	if v, tail, ok := s.read(f, visit); ok {
		v.each(tail, visit)
	}
}

// ScanRows holds the scratch rows Scan and a tier's ScanCold visit
// through: handed to a visitor the store cannot see into, a row of the
// scan's own would escape to the heap on every call. Scan takes its row
// once the tier's walk has handed its own back, so a scan holds one. A
// pooled row is not cleared when handed back — the next scan
// overwrites it — so it holds the last row it carried, never more.
var ScanRows = sync.Pool{New: func() any { return new(sensor.Observation) }}

// DeleteUser removes every stored observation attributed to userID that
// keep does not hold back — expired or not, from the log and from behind
// the cold tier's watermark — supporting right-to-erasure requests; a
// nil keep holds back nothing. Kept rows stay where they are, under
// their seqs. It returns the number deleted. The deleted rows leave the
// disk at the next Checkpoint and the tier's next compaction (see
// durable.go).
//
// Sealed rows become Deletions (the tier tombstones them and rewrites
// their segments at its next compaction); the log is rewritten without
// its doomed rows, those above the split reported. Both sets reach the
// tier before the split is validated against the floor of the log the
// rewrite read, so a repeat — an eviction had overtaken the split, see
// read — finds the first round's rows already tombstoned and rescans
// only the gap. The deletion counter advances last, once every removed
// row is gone from Scan, and only when a row was removed: advanced any
// earlier, a reader that scans mid-deletion could pair the new count
// with rows still present and cache that answer as current.
func (s *Store) DeleteUser(userID string, keep func(*sensor.Observation) bool) int {
	doomed := func(o *sensor.Observation) bool { return o.UserID == userID && (keep == nil || !keep(o)) }
	hot := &doom{erase: true, user: userID, keep: keep}
	if keep != nil {
		hot.row = ScanRows.Get().(*sensor.Observation) // keep sees a hot row through it
		defer ScanRows.Put(hot.row)
	}
	total := 0
	if t := s.coldTier(); t == nil {
		total, _, _ = s.rewrite(0, hot)
	} else {
		for cold := (Filter{UserID: userID}); ; {
			var dels []Deletion
			tail, _ := t.ScanCold(cold, nil, func(o *sensor.Observation, _ Codes) bool {
				if doomed(o) {
					dels = append(dels, Deletion{Seq: o.Seq, Time: o.Time})
				}
				return true
			})
			n, hotDels, floor := s.rewrite(tail.AfterSeq, hot)
			total += len(dels) + n
			if dels = append(dels, hotDels...); len(dels) > 0 {
				t.ObservationsDeleted(dels)
			}
			if floor <= tail.AfterSeq {
				break
			}
			cold.AfterSeq = tail.AfterSeq
		}
	}
	// A log the erasure left as it was may still size a list by the
	// subject's ID; a rewritten one has no hints.
	s.mu.Lock()
	delete(s.hot.hint, userID)
	s.mu.Unlock()
	if total > 0 {
		s.deletions.Add(1)
	}
	s.totalSwept.Add(uint64(total))
	return total
}
