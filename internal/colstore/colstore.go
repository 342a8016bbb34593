// Package colstore is the columnar time-partitioned storage tier: the
// home of every observation behind the compaction watermark, built for
// the aggregate-heavy transparency workloads the paper's occupant
// interfaces generate. Closed time buckets are compacted out of the
// row store's hot log into immutable column-per-field segments
// (segment.go) guarded by zone maps. Segments store ground truth keyed
// by the true subject — enforcement (release granularity, k-floors,
// noise) is re-applied per requester at read time, exactly as on the
// row path, never baked into what is stored.
//
// The handoff between the write-ahead log and the segment files is a
// sequence watermark: CompactOnce takes the store's rows with seq >
// watermark (they arrive seq-ascending), cuts the prefix whose time
// buckets have closed, writes one segment per bucket, and commits the
// new watermark in a crash-safe manifest (manifest.go). Readers then
// split exactly: segments serve seq <= watermark, the row store
// serves seq > watermark — no overlap, no gap, at every instant
// including across a SIGKILL anywhere inside compaction.
//
// Once the manifest names a row it is the segments' alone: the tier
// attaches to the row store as its obstore.ColdTier, the row store
// evicts everything at or below the watermark, and erasure reaches
// sealed rows through the tier's scan and its tombstones; retention
// through the row store's cutoffs (ScanCold, CompactOnce). The segment
// directory and the row store's WAL directory are together the
// database.
package colstore

import (
	"cmp"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/telemetry"
)

// Config sizes and places the columnar tier.
type Config struct {
	// Dir holds segment files and the manifest; empty runs the tier
	// fully in memory (segments still immutable, nothing durable), which
	// only an in-memory row store may attach (AttachStore).
	Dir string
	// BucketDur is the time-partition width; one closed bucket becomes
	// one segment per compaction. Default one hour — what tippersd
	// runs, since core leaves it unset: about 24 segment files per
	// simulated day. Segments a tier sealed at another width keep it:
	// reads go by watermark and zone maps, so widths can coexist.
	BucketDur time.Duration
	// Clock decides when a bucket has closed; nil means time.Now.
	Clock func() time.Time
}

// Store is the columnar tier: immutable segments layered over (and fed
// by) the row-oriented obstore.
type Store struct {
	cfg Config

	mu   sync.RWMutex
	segs []*segment // ascending minSeq; replaced wholesale, never edited
	// byTime is segs in ascending minTime and span the widest
	// maxTime-minTime among them: a time-bounded scan binary-searches
	// its candidates instead of testing every zone map. The span is
	// unsigned: rows in 1677 and 2262 lie more than 2⁶³ ns apart.
	byTime []*segment
	span   uint64
	// live counts the segments' rows no tombstone condemns, expired or
	// not; it is kept current at commit and tombstone time so the row
	// store's Len never walks the segments.
	live int
	// wm is the compaction watermark: every observation with seq <= wm
	// lives in segments; everything above is the row store's tail.
	wm     uint64
	nextID uint64
	// seqTomb holds the tombstones: rows already sealed into segments
	// that erasure has since deleted, one seq each. Reads filter them
	// immediately; the next compaction rewrites the affected segments so
	// the bytes leave disk too.
	seqTomb map[uint64]struct{}
	// compactingUpTo widens the tombstone-recording window while a
	// compaction is in flight: it is set to ^uint64(0) before the
	// compactor snapshots the row store and cleared on every exit, so
	// a deletion racing the snapshot always lands as a tombstone
	// instead of leaking into a fresh segment with the row-store copy
	// already gone.
	compactingUpTo uint64

	// ioMu serializes durable state transitions (segment files +
	// manifest): compactions and tombstone persists never interleave.
	ioMu sync.Mutex
	// tombDirty marks tombstones that exist only in memory because
	// their manifest write failed; the next manifest write (idle
	// compaction pass or commit) retries so a crash cannot resurrect
	// erased rows from segments.
	tombDirty atomic.Bool

	// src is the attached row store (AttachStore): it evicts what the
	// segments hold and answers every read for the union.
	src *obstore.Store

	segScanned    atomic.Uint64
	segPruned     atomic.Uint64
	compactions   atomic.Uint64
	rowsCompacted atomic.Uint64
	bytesWritten  atomic.Uint64 // segment file bytes, fresh and rewritten
	lastBucketEnd atomic.Int64  // unix nanos; end of newest compacted bucket
}

// testHookMidCompact, when non-nil, runs after a compaction's segment
// files are durably written but before the manifest commit — the
// widest crash window. The SIGKILL crash test parks the process here.
var testHookMidCompact func()

// testHookAfterCommit, when non-nil, runs after the commit (in memory
// and, with a directory, in the manifest) and before the row store
// evicts what it covers: sealed rows are still resident, logged and
// checkpointed. The crash test kills the process here.
var testHookAfterCommit func()

// testHookAfterSnapshot, when non-nil, runs right after CompactOnce
// snapshots the row store's tail — the window where a racing deletion
// must land as a tombstone rather than leak into a fresh segment.
var testHookAfterSnapshot func()

// testHookBetweenPasses, when non-nil, runs between CompactOnce's
// counting walk of the row store's tail and the walk that fills the
// builders, where a racing deletion or a late row leaves a count stale.
var testHookBetweenPasses func()

// Open loads (or initializes) a columnar store. With a directory it
// replays the manifest, drops orphan segment files a crash left
// behind, and decodes every live segment.
func Open(cfg Config) (*Store, error) {
	if cfg.BucketDur <= 0 {
		cfg.BucketDur = time.Hour
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &Store{cfg: cfg, seqTomb: make(map[uint64]struct{})}
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	st, err := readManifest(cfg.Dir)
	if err != nil {
		return nil, err
	}
	live := map[string]bool{manifestName: true}
	for _, ms := range st.Segments {
		live[ms.File] = true
	}
	if err := sweepOrphans(cfg.Dir, live); err != nil {
		return nil, err
	}
	segs := make([]*segment, 0, len(st.Segments))
	// A value several segments hold is one string, as in the compaction
	// pass that sealed them.
	p := newPass()
	for _, ms := range st.Segments {
		data, err := os.ReadFile(filepath.Join(cfg.Dir, ms.File))
		if err != nil {
			return nil, fmt.Errorf("colstore: segment %s: %w", ms.File, err)
		}
		sg, err := decodeSegment(ms.ID, data, p)
		if err != nil {
			return nil, fmt.Errorf("colstore: segment %s: %w", ms.File, err)
		}
		segs = append(segs, sg)
		// Segments are ordered by seq and bucket assignment follows
		// observation time, so the newest bucket is the maximum, not the
		// last. A segment does not record its width, and a tier may hold
		// segments sealed at a finer one (earlier builds sealed minutes):
		// one whose bucket is off the width's grid, or whose rows all lie
		// in its first minute, ends a minute after it starts, so a minute
		// segment never claims the rest of its hour as closed.
		end := sg.bucket.Add(cfg.BucketDur)
		if minute := sg.bucket.Add(time.Minute); minute.Before(end) &&
			(!sg.bucket.Truncate(cfg.BucketDur).Equal(sg.bucket) || sg.maxTime < minute.UnixNano()) {
			end = minute
		}
		if end.UnixNano() > s.lastBucketEnd.Load() {
			s.lastBucketEnd.Store(end.UnixNano())
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].minSeq < segs[j].minSeq })
	s.wm = st.Watermark
	s.nextID = st.NextID
	// A manifest may still list user tombstones, from a build that kept
	// them beside the seq tombstones; every row they condemned has a seq
	// tombstone too, so they are ignored.
	for _, seq := range st.SeqTombstones {
		s.seqTomb[seq] = struct{}{}
	}
	s.installSegsLocked(segs)
	return s, nil
}

// installSegsLocked swaps in a new segment set (ascending minSeq) and
// derives the time-ordered view and the live-row count from it and the
// current tombstones. Caller holds s.mu, or owns s exclusively.
func (s *Store) installSegsLocked(segs []*segment) {
	s.segs = segs
	s.byTime = slices.Clone(segs)
	slices.SortFunc(s.byTime, func(a, b *segment) int { return cmp.Compare(a.minTime, b.minTime) })
	s.span, s.live = 0, 0
	for _, sg := range segs {
		s.span = max(s.span, uint64(sg.maxTime)-uint64(sg.minTime))
		s.live += sg.rows()
	}
	// Tombstones outlive a commit only when a deletion raced it.
	for seq := range s.seqTomb {
		if sealedIn(segs, seq) {
			s.live--
		}
	}
}

// sealedLocked reports whether a segment holds the deleted row, looking
// only at the segments that can hold its observation time. Caller
// holds s.mu.
func (s *Store) sealedLocked(d obstore.Deletion) bool {
	if d.Seq > s.wm {
		return false
	}
	if d.Time.IsZero() {
		return sealedIn(s.segs, d.Seq)
	}
	return sealedIn(timeRange(s.byTime, s.span, d.Time, d.Time.Add(1)), d.Seq)
}

func sealedIn(segs []*segment, seq uint64) bool {
	for _, sg := range segs {
		if sg.holds(seq) {
			return true
		}
	}
	return false
}

// timeRange returns the slice of byTime that can hold a row observed in
// [from, to): zero bounds are open. A segment's rows all lie within
// span of its minTime, so both ends are binary searches.
func timeRange(byTime []*segment, span uint64, from, to time.Time) []*segment {
	lo, hi := 0, len(byTime)
	if !to.IsZero() {
		end := to.UnixNano()
		hi = sort.Search(len(byTime), func(i int) bool { return byTime[i].minTime >= end })
	}
	if !from.IsZero() {
		// from - span, saturated at the earliest instant (from+2⁶³ is
		// from's distance past it).
		start := int64(math.MinInt64)
		if from := uint64(from.UnixNano()); from+1<<63 > span {
			start = int64(from - span)
		}
		lo = sort.Search(hi, func(i int) bool { return byTime[i].minTime >= start })
	}
	return byTime[lo:hi]
}

// AttachStore installs the columnar tier as the cold tier of the row
// store that feeds it: the store drops what the segments already hold,
// tells the tier of every deletion, and answers every read for the
// union. A memory-only tier cannot hold a durable store's sealed rows —
// the store's checkpoint stops writing them, so a restart would lose
// them — and is refused.
func (s *Store) AttachStore(src *obstore.Store) error {
	if s.cfg.Dir == "" && src.Dir() != "" {
		return fmt.Errorf("colstore: a memory-only tier cannot hold the sealed rows of the durable store in %s", src.Dir())
	}
	s.mu.Lock()
	s.src = src
	s.mu.Unlock()
	src.AttachTier(s)
	return nil
}

// source returns the attached row store, nil before AttachStore.
func (s *Store) source() *obstore.Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.src
}

// ColdRows implements obstore.ColdTier: the stored rows at or below the
// watermark, expired ones a rewrite has not dropped included.
func (s *Store) ColdRows() (rows int, watermark uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live, s.wm
}

// Watermark returns the compaction watermark: the highest seq served
// from segments.
func (s *Store) Watermark() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.wm
}

// ObservationsDeleted implements obstore.ColdTier. Rows the store
// deleted that are already sealed into segments, or that a compaction
// in flight may seal, become tombstones — persisted to the manifest
// immediately so erasure survives a crash.
func (s *Store) ObservationsDeleted(dels []obstore.Deletion) {
	s.mu.Lock()
	limit := s.wm
	if s.compactingUpTo > limit {
		limit = s.compactingUpTo
	}
	changed := false
	for _, d := range dels {
		if d.Seq <= limit {
			if _, ok := s.seqTomb[d.Seq]; !ok {
				s.seqTomb[d.Seq] = struct{}{}
				changed = true
				if s.sealedLocked(d) {
					s.live--
				}
			}
		}
	}
	durable := changed && s.cfg.Dir != ""
	s.mu.Unlock()
	if durable {
		s.ioMu.Lock()
		s.syncTombstonesLocked()
		s.ioMu.Unlock()
	}
}

// syncTombstonesLocked persists in-memory state — notably fresh
// erasure tombstones — to the manifest. A failure cannot be returned
// to the deleting caller (ObservationsDeleted is fire-and-forget),
// so it is logged and flagged for retry at the next manifest write;
// until that succeeds, a crash would resurrect the tombstoned rows
// from segments on reopen. Caller holds ioMu.
func (s *Store) syncTombstonesLocked() {
	if err := s.persistManifestLocked(); err != nil {
		s.tombDirty.Store(true)
		slog.Error("colstore: manifest write failed; erasure tombstones not yet durable, will retry",
			"dir", s.cfg.Dir, "err", err)
		return
	}
	s.tombDirty.Store(false)
}

// persistManifestLocked snapshots in-memory state into the manifest.
// Caller holds ioMu.
func (s *Store) persistManifestLocked() error {
	s.mu.RLock()
	st := s.manifestSnapshotLocked()
	s.mu.RUnlock()
	return writeManifest(s.cfg.Dir, st)
}

// manifestSnapshotLocked builds the manifest view of current state.
// Caller holds s.mu (read or write).
func (s *Store) manifestSnapshotLocked() manifestState {
	st := manifestState{Watermark: s.wm, NextID: s.nextID}
	for _, sg := range s.segs {
		st.Segments = append(st.Segments, manifestSegment{
			ID: sg.id, File: segFileName(sg.id), Bucket: sg.bucket.UnixNano(),
			Rows: sg.rows(), MinSeq: sg.minSeq, MaxSeq: sg.maxSeq,
			MinTime: sg.minTime, MaxTime: sg.maxTime, Bytes: sg.bytes,
		})
	}
	for seq := range s.seqTomb {
		st.SeqTombstones = append(st.SeqTombstones, seq)
	}
	sort.Slice(st.SeqTombstones, func(i, j int) bool { return st.SeqTombstones[i] < st.SeqTombstones[j] })
	return st
}

// CompactOnce runs one compaction pass: seal every closed time bucket
// above the watermark into segments, expired rows left out; rewrite,
// without its erased and expired rows, any segment an erasure tombstone
// touches or a kind's cutoff has passed (one left with none goes
// unwritten); and commit the whole transition through the manifest.
// Returns the number of newly sealed rows.
func (s *Store) CompactOnce() (int, error) {
	src := s.source()
	if src == nil {
		return 0, nil
	}
	s.ioMu.Lock()
	defer s.ioMu.Unlock()

	now := s.cfg.Clock()
	cut := src.Cutoffs() // what the walks below skip

	head := src.LastSeq()
	s.mu.Lock()
	wm := s.wm
	nextID := s.nextID
	oldSegs := append([]*segment(nil), s.segs...)
	seqTombSnap := copySet(s.seqTomb)
	// Widen the tombstone-recording window BEFORE snapshotting the
	// store below: a deletion that fires between the snapshot and the
	// commit would otherwise compare against the old watermark, record
	// nothing, and the deleted row — already captured in the snapshot,
	// already gone from the row store — would be sealed into a segment
	// with nothing left to ever remove it. Tombstones for seqs that
	// turn out never to be sealed are harmless: reads filter a seq
	// that no longer exists anywhere, and they retire once the
	// watermark passes them.
	s.compactingUpTo = ^uint64(0)
	s.mu.Unlock()

	// Walk the seq-ascending tail twice, stopping at the first row whose
	// bucket is still open: the watermark must advance as a contiguous
	// seq prefix, so a row in an open bucket fences everything behind it
	// until the bucket closes. The first walk counts each bucket's rows,
	// so its builder makes its columns once, at their final length; the
	// second streams each row into its bucket's builder (seq order kept
	// within each) and is the snapshot compaction seals. The builders,
	// and those of the rewrites below, share one pass: its value tables
	// and sort scratch. A row deleted
	// or appended between the walks only leaves a count stale, and seal
	// copies a column whose count was. The watermark passes the expired
	// rows the walks skip: it rises to just below the fence, or to the
	// head read before the walks, so the commit evicts them unsealed.
	closed := func(o *sensor.Observation) (time.Time, bool) {
		b := o.Time.Truncate(s.cfg.BucketDur)
		return b, !b.Add(s.cfg.BucketDur).After(now)
	}
	counts := make(map[int64]int)
	src.Scan(obstore.Filter{AfterSeq: wm}, func(o *sensor.Observation, _ obstore.Codes) bool {
		b, ok := closed(o)
		if ok {
			counts[b.UnixNano()]++
		}
		return ok
	})
	if testHookBetweenPasses != nil {
		testHookBetweenPasses()
	}
	var newest *segment
	if len(oldSegs) > 0 {
		newest = oldSegs[len(oldSegs)-1]
	}
	// What the walk sets is one variable: its visitor escapes to the row
	// store, and each variable the visitor sets moves to the heap.
	walk := struct {
		sealed int
		newWM  uint64
		starts []int64
		p      *pass    // made with the first builder: an idle pass makes none
		like   *segment // the bucket built last
	}{newWM: max(wm, head), like: newest}
	builders := make(map[int64]*segBuilder, len(counts))
	src.Scan(obstore.Filter{AfterSeq: wm}, func(o *sensor.Observation, _ obstore.Codes) bool {
		b, ok := closed(o)
		if !ok {
			walk.newWM = o.Seq - 1
			return false
		}
		sb, ok := builders[b.UnixNano()]
		if !ok {
			if walk.p == nil {
				walk.p = newPass()
			}
			sb = walk.p.builder(b, counts[b.UnixNano()], walk.like)
			walk.like = &sb.sg
			builders[b.UnixNano()] = sb
			walk.starts = append(walk.starts, b.UnixNano())
		}
		sb.add(o)
		walk.sealed, walk.newWM = walk.sealed+1, max(walk.newWM, o.Seq)
		return true
	})
	sealed, newWM, starts, p := walk.sealed, walk.newWM, walk.starts, walk.p
	if testHookAfterSnapshot != nil {
		testHookAfterSnapshot()
	}

	// Everything about to be sealed must be durable in the WAL before
	// a segment can hold it: the sync runs after the snapshot above,
	// so it covers every snapshotted row, and a crash after this point
	// can never leave a segment knowing rows WAL recovery does not.
	if sealed > 0 {
		if err := src.SyncWAL(); err != nil {
			s.clearCompacting()
			return 0, err
		}
	}

	rewrite := func(sg *segment) bool { _, _, r := sg.expiry(cut); return r || segmentTouched(sg, seqTombSnap) }
	if sealed == 0 && newWM == wm && !slices.ContainsFunc(oldSegs, rewrite) {
		s.clearCompacting()
		// Idle passes double as the retry point for tombstones whose
		// manifest write failed in ObservationsDeleted.
		if s.cfg.Dir != "" && s.tombDirty.Load() {
			s.syncTombstonesLocked()
		}
		return 0, nil
	}

	// Seal fresh segments from the sealed prefix, one per bucket, each
	// sharing dictionary strings with the segment sealed before it and
	// with every segment of the pass.
	var fresh []*segment
	prev := newest
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, b := range starts {
		sg, err := builders[b].seal(nextID, prev)
		if err != nil {
			s.clearCompacting()
			return 0, err
		}
		nextID++
		fresh, prev = append(fresh, sg), sg
	}

	// Rewrite segments the tombstones touch or retention has reached, so
	// the dropped rows' bytes (rows and dictionary entries) leave disk.
	var keep, rewritten []*segment
	var dropped []*segment
	for _, sg := range oldSegs {
		if !rewrite(sg) {
			keep = append(keep, sg)
			continue
		}
		// Count the survivors first, so the new segment's columns are laid
		// out for exactly them.
		live := func(i int) (sensor.Observation, bool) {
			o := sg.row(i)
			_, dead := seqTombSnap[o.Seq]
			return o, !dead && !cut.Expired(&o)
		}
		n := 0
		for i := range sg.rows() {
			if _, ok := live(i); ok {
				n++
			}
		}
		dropped = append(dropped, sg)
		if n == 0 {
			continue
		}
		if p == nil {
			p = newPass()
		}
		surviving := p.builder(sg.bucket, n, sg)
		for i := range sg.rows() {
			if o, ok := live(i); ok {
				surviving.add(&o)
			}
		}
		nsg, err := surviving.seal(nextID, sg) // its values are sg's
		if err != nil {
			s.clearCompacting()
			return 0, err
		}
		nextID++
		rewritten = append(rewritten, nsg)
	}

	newSegs := make([]*segment, 0, len(keep)+len(rewritten)+len(fresh))
	newSegs = append(newSegs, keep...)
	newSegs = append(newSegs, rewritten...)
	newSegs = append(newSegs, fresh...)
	sort.Slice(newSegs, func(i, j int) bool { return newSegs[i].minSeq < newSegs[j].minSeq })

	// Durable phase: segment files first, manifest second. The
	// manifest rename is the commit point. Every segment is encoded into
	// one buffer, made at the longest encoding; without a directory only
	// its size is kept.
	written := [...][]*segment{rewritten, fresh}
	size := 0
	for _, sgs := range written {
		for _, sg := range sgs {
			size = max(size, sg.encodedLen())
		}
	}
	buf := make([]byte, 0, size)
	for _, sgs := range written {
		for _, sg := range sgs {
			buf = sg.appendEncoding(buf[:0])
			sg.bytes = int64(len(buf))
			if s.cfg.Dir == "" {
				continue
			}
			if err := writeSegmentFile(s.cfg.Dir, segFileName(sg.id), buf); err != nil {
				s.clearCompacting()
				return 0, err
			}
			s.bytesWritten.Add(uint64(len(buf)))
		}
	}
	if s.cfg.Dir != "" && testHookMidCompact != nil {
		testHookMidCompact()
	}

	// Commit in memory: swap the segment set, advance the watermark,
	// and retire the tombstones this pass applied (a tombstone <= the
	// new watermark either got rewritten out or named a row that was
	// deleted before it was ever sealed).
	s.mu.Lock()
	s.wm = newWM
	s.nextID = nextID
	for seq := range seqTombSnap {
		if seq <= newWM {
			delete(s.seqTomb, seq)
		}
	}
	s.installSegsLocked(newSegs)
	s.compactingUpTo = 0
	st := s.manifestSnapshotLocked()
	s.mu.Unlock()

	if s.cfg.Dir != "" {
		if err := writeManifest(s.cfg.Dir, st); err != nil {
			s.tombDirty.Store(true)
			return 0, err
		}
		s.tombDirty.Store(false)
		for _, sg := range dropped {
			os.Remove(filepath.Join(s.cfg.Dir, segFileName(sg.id)))
		}
	}
	if testHookAfterCommit != nil {
		testHookAfterCommit()
	}
	// The sealed rows are the segments' now (fsynced files named by a
	// committed manifest, when there is a directory): the row store may
	// let go of its copies.
	src.EvictThrough(newWM)

	s.compactions.Add(1)
	s.rowsCompacted.Add(uint64(sealed))
	if len(starts) > 0 {
		end := time.Unix(0, starts[len(starts)-1]).Add(s.cfg.BucketDur).UnixNano()
		if end > s.lastBucketEnd.Load() {
			s.lastBucketEnd.Store(end)
		}
	}
	return sealed, nil
}

func (s *Store) clearCompacting() {
	s.mu.Lock()
	s.compactingUpTo = 0
	s.mu.Unlock()
}

func segmentTouched(sg *segment, seqTomb map[uint64]struct{}) bool {
	for seq := range seqTomb {
		if seq >= sg.minSeq && seq <= sg.maxSeq {
			return true
		}
	}
	return false
}

// Query is the attached row store's Query, which reads the segments
// through ScanCold. It is kept for bench/replay.go and tests only; the
// node reads through the row store's Scan.
func (s *Store) Query(f obstore.Filter) []sensor.Observation { return s.source().Query(f) }

// ScanCold implements obstore.ColdTier and is the one segment walk:
// the sealed half of the row store's Scan. It visits the live rows at
// or below the watermark that match f and cut leaves, in ascending
// seq, and returns the filter for the tail above the watermark (AfterSeq raised to it,
// Limit reduced by what was visited); more=false means the visitor
// stopped or the limit is spent and the tail must not be read.
//
// Visitor contract: the *Observation is one scratch value reused for
// every segment row, taken from obstore.ScanRows for the walk — it is valid only
// during the call, so a visitor that keeps a row must copy it. Its
// Codes are the row's positions in its segment's user, kind and space
// dictionaries, which one *Dicts names per segment. No colstore lock is held while visit runs: the
// segment set, watermark and tombstones are snapshotted under s.mu and
// walked outside it (segments are immutable and compaction replaces
// s.segs wholesale), so a visitor may call back into the store and a
// slow one never blocks ingest, erasure or compaction.
func (s *Store) ScanCold(f obstore.Filter, cut *obstore.Cutoffs, visit func(*sensor.Observation, obstore.Codes) bool) (tail obstore.Filter, more bool) {
	s.mu.RLock()
	segs, byTime, span, wm := s.segs, s.byTime, s.span, s.wm
	var seqTomb map[uint64]struct{}
	if f.AfterSeq < wm {
		// The tombstone map is mutated in place; the walk runs outside
		// the lock, so it reads a private copy (empty but for the window
		// between a deletion and the next compaction).
		seqTomb = copySet(s.seqTomb)
	}
	s.mu.RUnlock()

	tail = f
	if wm > tail.AfterSeq {
		tail.AfterSeq = wm
	}
	if f.AfterSeq >= wm {
		return tail, true
	}

	// A time-bounded filter finds its candidates by binary search over
	// the time-ordered view; what that skips is pruned by zone map like
	// any other segment, and counted so, as is one wholly expired.
	in := segs
	bounded := !f.From.IsZero() || !f.To.IsZero()
	if bounded {
		in = timeRange(byTime, span, f.From, f.To)
	}
	// A point read keeps a handful of candidates and one open cursor:
	// both lists start on the stack.
	var candBuf [8]*segment
	cands := candBuf[:0] // unpruned, ascending minSeq
	for _, sg := range in {
		if !sg.disjoint(&f) {
			if gone, _, _ := sg.expiry(cut); !gone {
				cands = append(cands, sg)
			}
		}
	}
	s.segScanned.Add(uint64(len(cands)))
	s.segPruned.Add(uint64(len(segs) - len(cands)))
	if bounded {
		slices.SortFunc(cands, func(a, b *segment) int { return cmp.Compare(a.minSeq, b.minSeq) })
	}

	// Segments from one compaction pass can interleave in seq — bucket
	// assignment follows observation time, not arrival — so ascending
	// order needs a merge; but only over the segments whose seq ranges
	// overlap the merge front. A cursor is opened when the front reaches
	// its segment's minSeq and dropped when it runs dry, so the active
	// set is usually one cursor, not one per segment.
	var (
		activeBuf [2]segCursor
		active    = activeBuf[:0]
		scratch   = obstore.ScanRows.Get().(*sensor.Observation)
		visited   int
	)
	defer obstore.ScanRows.Put(scratch)
	for next := 0; ; {
		best := -1
		for i := range active {
			if best < 0 || active[i].seq() < active[best].seq() {
				best = i
			}
		}
		for next < len(cands) && (best < 0 || cands[next].minSeq < active[best].seq()) {
			c := openCursor(cands[next], &f, seqTomb, cut)
			next++
			if c.advance() {
				active = append(active, c)
				if best < 0 || c.seq() < active[best].seq() {
					best = len(active) - 1
				}
			}
		}
		if best < 0 {
			break
		}
		c := &active[best]
		sg := c.sg
		*scratch = sg.row(c.i)
		codes := obstore.Codes{Dicts: &sg.dicts, User: uint32(sg.users.idx.get(c.i)), Kind: uint32(sg.kinds.idx.get(c.i)), Space: uint32(sg.spaces.idx.get(c.i))}
		if !visit(scratch, codes) {
			return tail, false
		}
		if visited++; f.Limit > 0 && visited >= f.Limit {
			return tail, false
		}
		if !c.advance() {
			active = append(active[:best], active[best+1:]...)
		}
	}
	if f.Limit > 0 {
		tail.Limit = f.Limit - visited
	}
	return tail, true
}

// copySet snapshots a tombstone set (nil when empty) so it can be read
// outside s.mu.
func copySet[K comparable](m map[K]struct{}) map[K]struct{} {
	if len(m) == 0 {
		return nil
	}
	out := make(map[K]struct{}, len(m))
	for k := range m {
		out[k] = struct{}{}
	}
	return out
}

// SegmentInfo is one segment's inspection view (iotactl segments,
// GET /v1/segments).
type SegmentInfo struct {
	ID      uint64    `json:"id"`
	Bucket  time.Time `json:"bucket"`
	Rows    int       `json:"rows"`
	Bytes   int64     `json:"bytes"`
	MinSeq  uint64    `json:"min_seq"`
	MaxSeq  uint64    `json:"max_seq"`
	MinTime time.Time `json:"min_time"`
	MaxTime time.Time `json:"max_time"`
	Sensors int       `json:"sensors"`
	Spaces  int       `json:"spaces"`
	Users   int       `json:"users"`
}

// TierStats summarizes the columnar tier for inspection endpoints.
type TierStats struct {
	Segments int `json:"segments"`
	// Rows counts every row the segments hold; ColdRows those no
	// tombstone condemns; HotRows the live observations above the
	// watermark, which is what the row store keeps resident.
	Rows           int     `json:"rows"`
	ColdRows       int     `json:"cold_rows"`
	HotRows        int     `json:"hot_rows"`
	Bytes          int64   `json:"bytes"`
	Watermark      uint64  `json:"watermark"`
	Compactions    uint64  `json:"compactions"`
	SegmentsPruned uint64  `json:"segments_pruned"`
	SegmentsRead   uint64  `json:"segments_read"`
	PruneRatio     float64 `json:"prune_ratio"`
	SeqTombstones  int     `json:"seq_tombstones"`
	// SegmentLagSec is the age of the newest compacted bucket's end:
	// how far the segments trail the clock.
	SegmentLagSec float64 `json:"segment_lag_seconds"`
	// ResidentBytes is the heap the segments hold: packed columns at
	// their widths, dictionaries with their strings, and payload maps.
	ResidentBytes int64 `json:"resident_bytes"`
}

// Segments lists live segments, ascending by bucket then id.
func (s *Store) Segments() []SegmentInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]SegmentInfo, 0, len(s.segs))
	for _, sg := range s.segs {
		out = append(out, SegmentInfo{
			ID: sg.id, Bucket: sg.bucket, Rows: sg.rows(), Bytes: sg.bytes,
			MinSeq: sg.minSeq, MaxSeq: sg.maxSeq,
			MinTime: time.Unix(0, sg.minTime).UTC(), MaxTime: time.Unix(0, sg.maxTime).UTC(),
			Sensors: len(sg.sensors.dict), Spaces: len(sg.spaces.dict), Users: len(sg.users.dict),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Bucket.Equal(out[j].Bucket) {
			return out[i].Bucket.Before(out[j].Bucket)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Stats snapshots the tier's counters.
func (s *Store) Stats() TierStats {
	s.mu.RLock()
	ts := TierStats{
		Segments:      len(s.segs),
		ColdRows:      s.live,
		Watermark:     s.wm,
		SeqTombstones: len(s.seqTomb),
	}
	for _, sg := range s.segs {
		ts.Rows += sg.rows()
		ts.Bytes += sg.bytes
		ts.ResidentBytes += sg.resident()
	}
	src := s.src
	s.mu.RUnlock()
	if src != nil {
		// Len counts every live observation whether or not the store
		// still holds the sealed ones itself.
		ts.HotRows = max(src.Len()-ts.ColdRows, 0)
	}
	ts.Compactions = s.compactions.Load()
	ts.SegmentsPruned = s.segPruned.Load()
	ts.SegmentsRead = s.segScanned.Load()
	if total := ts.SegmentsPruned + ts.SegmentsRead; total > 0 {
		ts.PruneRatio = float64(ts.SegmentsPruned) / float64(total)
	}
	ts.SegmentLagSec = s.segmentLag()
	return ts
}

// segmentLag is the age of the newest compacted bucket's end in
// seconds, 0 before the first compaction.
func (s *Store) segmentLag() float64 {
	end := s.lastBucketEnd.Load()
	if end == 0 {
		return 0
	}
	return max(s.cfg.Clock().Sub(time.Unix(0, end)).Seconds(), 0)
}

// RegisterMetrics exposes the tier on the telemetry registry.
func (s *Store) RegisterMetrics(r *telemetry.Registry) {
	r.GaugeFunc("tippers_colstore_segments",
		"Live columnar segments.", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(len(s.segs))
		})
	r.GaugeFunc("tippers_colstore_bytes",
		"Encoded bytes across live segments.", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			var b int64
			for _, sg := range s.segs {
				b += sg.bytes
			}
			return float64(b)
		})
	r.GaugeFunc("tippers_colstore_resident_bytes",
		"Heap held by live segments: packed columns, dictionaries and payload maps.", func() float64 {
			return float64(s.Stats().ResidentBytes)
		})
	r.GaugeFunc("tippers_colstore_watermark",
		"Compaction watermark: highest seq served from segments.", func() float64 {
			return float64(s.Watermark())
		})
	r.CounterFunc("tippers_colstore_compactions_total",
		"Completed compaction passes.", func() float64 {
			return float64(s.compactions.Load())
		})
	r.CounterFunc("tippers_colstore_rows_compacted_total",
		"Rows sealed into segments.", func() float64 {
			return float64(s.rowsCompacted.Load())
		})
	r.CounterFunc("tippers_colstore_segment_bytes_written_total",
		"Bytes of segment files written: freshly sealed buckets and segments rewritten for erasure or retention.", func() float64 {
			return float64(s.bytesWritten.Load())
		})
	r.CounterFunc("tippers_colstore_segments_pruned_total",
		"Segments skipped wholesale by zone maps.", func() float64 {
			return float64(s.segPruned.Load())
		})
	r.CounterFunc("tippers_colstore_segments_read_total",
		"Segments actually scanned.", func() float64 {
			return float64(s.segScanned.Load())
		})
	r.GaugeFunc("tippers_colstore_segment_lag_seconds",
		"Age of the newest compacted bucket (segment lag behind now).", s.segmentLag)
}
