package colstore

// Incremental rollup cubes: occupancy per (space, kind, subject) per
// minute and readings per (sensor, kind, space, subject) per hour.
// Entries are keyed by the ground-truth subject and carry raw counts,
// sums, and extrema — never an enforced or anonymized view — so a
// reader re-applies the requester's decisions entry by entry at read
// time, and a mid-session preference change simply changes how the
// same stored entries are released. Each entry also tracks the
// minimum contributing seq, which lets the query layer reproduce the
// row executor's first-seen group order exactly.
//
// A cell is a fixed-width struct without pointers (24 B occupancy, 56 B
// readings) over uint32 ids from the cubes' intern tables, and a time
// bucket is one flat slice of cells: the collector never scans a cell
// and a read compares integers. The key → position index a write needs
// exists only while a bucket is open: every compaction pass, and
// attach, seal the buckets ending at or before the newest compacted one
// (drop the index, copy the cells to exact length), and a late row
// re-opens its bucket by rebuilding the index from the cells.
//
// The cubes are fed synchronously from the row store's listener (so
// they can never lag ingest) and repair themselves after deletions by
// marking the touched time buckets dirty and rebuilding them from the
// unified tombstone-filtered scan on next read. An erasure that leaves
// the subject no row also scrubs them from the intern table; every
// bucket holding a cell of theirs is dirty, so no cell with the blanked
// id is ever visited. A partial erasure keeps the id: the rows it
// retained stay attributed.

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// interner gives every distinct string a dense id. Ids are never
// reused: an erased string's slot is blanked for good.
type interner struct {
	ids   map[string]uint32
	strs  []string
	bytes int // estimate: each string, its slot in strs, its entry in ids
}

func (t *interner) id(s string) uint32 {
	id, ok := t.ids[s]
	if !ok {
		id = uint32(len(t.strs))
		t.ids[s], t.strs = id, append(t.strs, s)
		t.bytes += len(s) + 56
	}
	return id
}

// A filter field resolves to anyID when unset and to noID, which no
// cell carries, when its value was never interned.
const anyID, noID = ^uint32(0), ^uint32(0) - 1

func (t *interner) want(s string) uint32 {
	if s == "" {
		return anyID
	}
	if id, ok := t.ids[s]; ok {
		return id
	}
	return noID
}

type occKey struct{ space, user, kind uint32 }

type occCell struct {
	occKey
	count  uint32
	minSeq uint64
}

type rdKey struct{ sensor, space, user, kind uint32 }

type rdCell struct {
	rdKey
	count         uint32
	sum, min, max float64
	minSeq        uint64
}

func (c occCell) key() occKey { return c.occKey }
func (c rdCell) key() rdKey   { return c.rdKey }

// bucket is one time bucket's cells; index (a cell's position by key)
// is nil while the bucket is sealed.
type bucket[K comparable, C any] struct {
	cells []C
	index map[K]int32
}

type cube[K comparable, C interface{ key() K }] struct {
	width   time.Duration
	n       int                     // cells across all buckets
	buckets map[int64]*bucket[K, C] // by bucket start, unix nanos
	open    map[int64]struct{}      // the buckets that hold an index
	dirty   map[int64]struct{}
}

func newCube[K comparable, C interface{ key() K }](width time.Duration) cube[K, C] {
	return cube[K, C]{width: width, buckets: make(map[int64]*bucket[K, C]),
		open: make(map[int64]struct{}), dirty: make(map[int64]struct{})}
}

func (c *cube[K, C]) start(t time.Time) int64 { return t.Truncate(c.width).UnixNano() }

// cell finds the cell with fresh's key in the bucket holding t, opening
// a sealed bucket and appending fresh when the key is new there. The
// pointer is good until the next call.
func (c *cube[K, C]) cell(t time.Time, fresh C) *C {
	start, k := c.start(t), fresh.key()
	b := c.buckets[start]
	if b == nil {
		b = &bucket[K, C]{}
		c.buckets[start] = b
	}
	if b.index == nil {
		b.index = make(map[K]int32, len(b.cells))
		for i := range b.cells {
			b.index[b.cells[i].key()] = int32(i)
		}
		c.open[start] = struct{}{}
	}
	i, ok := b.index[k]
	if !ok {
		i = int32(len(b.cells))
		b.index[k] = i
		b.cells = append(b.cells, fresh)
		c.n++
	}
	return &b.cells[i]
}

// seal closes every open bucket that ends at or before end.
func (c *cube[K, C]) seal(end int64) {
	for start := range c.open {
		if b := c.buckets[start]; start+int64(c.width) <= end {
			b.cells, b.index = append(make([]C, 0, len(b.cells)), b.cells...), nil
			delete(c.open, start)
		}
	}
}

// bytes estimates what the cube keeps resident: cells at their width,
// and per open index entry a key and a position at the map's load.
func (c *cube[K, C]) bytes() int {
	n := c.n * int(unsafe.Sizeof(*new(C)))
	for start := range c.open {
		n += len(c.buckets[start].index) * 2 * (int(unsafe.Sizeof(*new(K))) + 4)
	}
	return n
}

// OccEntry is one released-to-the-reader occupancy cube cell: a
// minute bucket's raw observation count for one ground-truth
// (space, kind, subject) combination.
type OccEntry struct {
	Minute  time.Time
	SpaceID string
	Kind    sensor.ObservationKind
	UserID  string
	Count   int
	MinSeq  uint64
}

// ReadingEntry is one readings cube cell: an hour bucket's aggregate
// for one ground-truth (sensor, kind, space, subject) combination.
type ReadingEntry struct {
	Hour     time.Time
	SensorID string
	Kind     sensor.ObservationKind
	SpaceID  string
	UserID   string
	Count    int
	Sum      float64
	Min, Max float64
	MinSeq   uint64
}

type rollups struct {
	store *Store

	mu         sync.Mutex
	disabled   bool
	maxEntries int
	// users is its own table so that forgetting a subject cannot blank
	// a sensor, space or kind of the same name.
	users, names interner
	occ          cube[occKey, occCell]
	rd           cube[rdKey, rdCell]

	version atomic.Uint64
}

func newRollups(store *Store, maxEntries int) *rollups {
	r := &rollups{store: store, maxEntries: maxEntries}
	r.resetLocked()
	return r
}

func (r *rollups) resetLocked() {
	r.users, r.names = interner{ids: map[string]uint32{}}, interner{ids: map[string]uint32{}}
	r.occ, r.rd = newCube[occKey, occCell](time.Minute), newCube[rdKey, rdCell](time.Hour)
}

// stats: whether the cubes are off, their cells, their estimated bytes.
func (r *rollups) stats() (disabled bool, entries int, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.disabled, r.occ.n + r.rd.n, int64(r.occ.bytes() + r.rd.bytes() + r.users.bytes + r.names.bytes)
}

// observe folds one appended observation into both cubes.
func (r *rollups) observe(o sensor.Observation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.disabled {
		return
	}
	r.observeLocked(&o, true, true)
	r.version.Add(1)
	r.checkCapLocked()
}

func (r *rollups) observeLocked(o *sensor.Observation, occ, rd bool) {
	space, user, kind := r.names.id(o.SpaceID), r.users.id(o.UserID), r.names.id(string(o.Kind))
	if occ {
		c := r.occ.cell(o.Time, occCell{occKey: occKey{space, user, kind}, minSeq: o.Seq})
		c.count++
		c.minSeq = min(c.minSeq, o.Seq)
	}
	if rd {
		k := rdKey{r.names.id(o.SensorID), space, user, kind}
		c := r.rd.cell(o.Time, rdCell{rdKey: k, min: o.Value, max: o.Value, minSeq: o.Seq})
		if o.Value < c.min {
			c.min = o.Value
		}
		if o.Value > c.max {
			c.max = o.Value
		}
		c.count++
		c.sum += o.Value
		c.minSeq = min(c.minSeq, o.Seq)
	}
}

func (r *rollups) checkCapLocked() {
	if entries := r.occ.n + r.rd.n; entries > r.maxEntries {
		// The cube outgrew its budget: shut it down and let readers
		// fall back to scans rather than serve partial aggregates.
		slog.Warn("colstore: rollup cubes passed their entry cap and are off until the tier re-attaches; aggregates fall back to scans",
			"entries", entries, "cap", r.maxEntries)
		r.disabled = true
		r.resetLocked()
		r.version.Add(1)
	}
}

// deleted marks every time bucket a deletion touched as dirty; the
// next read rebuilds those buckets from the unified scan, which no
// longer contains the rows. A subject erased with no row left
// (Deletion.Erased) leaves the intern table now: all their cells are in
// the buckets just marked, and if they return they are a new id.
func (r *rollups) deleted(dels []obstore.Deletion) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.disabled {
		return
	}
	for _, d := range dels {
		r.occ.dirty[r.occ.start(d.Time)] = struct{}{}
		r.rd.dirty[r.rd.start(d.Time)] = struct{}{}
		if id, ok := r.users.ids[d.UserID]; ok && d.Erased && d.UserID != "" {
			delete(r.users.ids, d.UserID)
			r.users.strs[id] = ""
		}
	}
	r.version.Add(1)
}

// seal closes the buckets compaction has passed: the ones ending at or
// before the newest compacted bucket's end.
func (r *rollups) seal() {
	r.mu.Lock()
	defer r.mu.Unlock()
	end := r.store.lastBucketEnd.Load()
	r.occ.seal(end)
	r.rd.seal(end)
}

// rebuildAll recomputes both cubes from the row store's unified scan,
// folding each row as it is visited. Used when the tier first attaches
// to a store that already holds data.
func (r *rollups) rebuildAll(src *obstore.Store) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resetLocked()
	r.disabled = false
	src.Scan(obstore.Filter{}, func(o *sensor.Observation) bool {
		r.observeLocked(o, true, true)
		return true
	})
	r.version.Add(1)
	r.checkCapLocked()
}

// repairLocked rebuilds every dirty bucket from the row store's unified
// scan. Caller holds r.mu; the scan takes only store locks, so the
// ordering rollups.mu -> store.mu is safe (the reverse never occurs).
func (r *rollups) repairLocked(src *obstore.Store) {
	if len(r.occ.dirty) == 0 && len(r.rd.dirty) == 0 {
		// No repair, no version bump: reads must leave the version
		// untouched or downstream answer caches could never validate.
		return
	}
	repairCube(r, src, &r.occ, true)
	repairCube(r, src, &r.rd, false)
	r.version.Add(1)
	r.checkCapLocked()
}

func repairCube[K comparable, C interface{ key() K }](r *rollups, src *obstore.Store, c *cube[K, C], occ bool) {
	for start := range c.dirty {
		if b := c.buckets[start]; b != nil {
			c.n -= len(b.cells)
			delete(c.buckets, start)
			delete(c.open, start)
		}
		from := time.Unix(0, start)
		src.Scan(obstore.Filter{From: from, To: from.Add(c.width)}, func(o *sensor.Observation) bool {
			r.observeLocked(o, occ, !occ)
			return true
		})
		delete(c.dirty, start)
	}
}

// lockCubes takes r.mu for a read and brings the cubes up to date.
// false (lock released) means the cubes are unavailable and the caller
// must fall back to a scan.
func (s *Store) lockCubes() bool {
	r := s.roll
	r.mu.Lock()
	if src := s.source(); !r.disabled && src != nil {
		r.repairLocked(src)
		if !r.disabled {
			return true
		}
	}
	r.mu.Unlock()
	return false
}

// eachBucket calls fn for every bucket of cube whose start lies in
// [from, to); zero times mean unbounded. A bounded, width-aligned
// window narrower than the cube is stepped bucket by bucket instead
// of ranging over every key the cube holds.
func eachBucket[C any](cube map[int64]C, from, to time.Time, width time.Duration, fn func(start int64, cells C)) {
	if !from.IsZero() && !to.IsZero() && from.Truncate(width).Equal(from) &&
		to.Sub(from) < time.Duration(len(cube))*width {
		for t := from; t.Before(to); t = t.Add(width) {
			if cells, ok := cube[t.UnixNano()]; ok {
				fn(t.UnixNano(), cells)
			}
		}
		return
	}
	for start, cells := range cube {
		if t := time.Unix(0, start); !from.IsZero() && t.Before(from) || !to.IsZero() && !t.Before(to) {
			continue
		}
		fn(start, cells)
	}
}

// spaceOK marks, by id, the spaces f asks for; nil asks for all.
func (r *rollups) spaceOK(f obstore.Filter) []bool {
	if len(f.SpaceIDs) == 0 {
		return nil
	}
	set := make([]bool, len(r.names.strs))
	for _, s := range f.SpaceIDs {
		if id, ok := r.names.ids[s]; ok {
			set[id] = true
		}
	}
	return set
}

// VisitOccupancy calls visit for every minute-cube cell whose bucket
// start lies in [f.From, f.To) and that matches f's Kind, UserID and
// SpaceIDs (unset fields match everything). The cube has no other
// dimension: a filter carrying SensorID, DeviceMAC, AfterSeq or Limit
// cannot be answered from it and the caller must not ask. ok=false
// means the cubes are unavailable and the caller falls back to a scan;
// version pairs with the enforcement engine's epoch for answer-cache
// validation.
//
// visit runs under the cube's lock, which ingest also takes for every
// appended observation: it must do nothing but filter and append.
func (s *Store) VisitOccupancy(f obstore.Filter, visit func(OccEntry)) (version uint64, ok bool) {
	if !s.lockCubes() {
		return 0, false
	}
	r := s.roll
	defer r.mu.Unlock()
	names, users := r.names.strs, r.users.strs
	kind, user, spaces := r.names.want(string(f.Kind)), r.users.want(f.UserID), r.spaceOK(f)
	eachBucket(r.occ.buckets, f.From, f.To, time.Minute, func(start int64, b *bucket[occKey, occCell]) {
		minute := time.Unix(0, start).UTC()
		for _, c := range b.cells {
			if kind != anyID && c.kind != kind || user != anyID && c.user != user || spaces != nil && !spaces[c.space] {
				continue
			}
			visit(OccEntry{Minute: minute, SpaceID: names[c.space], Kind: sensor.ObservationKind(names[c.kind]),
				UserID: users[c.user], Count: int(c.count), MinSeq: c.minSeq})
		}
	})
	return r.version.Load(), true
}

// VisitReadings is VisitOccupancy over the hour cube, which also keys
// on the sensor: f.SensorID applies too.
func (s *Store) VisitReadings(f obstore.Filter, visit func(ReadingEntry)) (version uint64, ok bool) {
	if !s.lockCubes() {
		return 0, false
	}
	r := s.roll
	defer r.mu.Unlock()
	names, users := r.names.strs, r.users.strs
	sensorID, kind, user, spaces := r.names.want(f.SensorID), r.names.want(string(f.Kind)), r.users.want(f.UserID), r.spaceOK(f)
	eachBucket(r.rd.buckets, f.From, f.To, time.Hour, func(start int64, b *bucket[rdKey, rdCell]) {
		hour := time.Unix(0, start).UTC()
		for _, c := range b.cells {
			if sensorID != anyID && c.sensor != sensorID || kind != anyID && c.kind != kind ||
				user != anyID && c.user != user || spaces != nil && !spaces[c.space] {
				continue
			}
			visit(ReadingEntry{Hour: hour, SensorID: names[c.sensor], Kind: sensor.ObservationKind(names[c.kind]),
				SpaceID: names[c.space], UserID: users[c.user],
				Count: int(c.count), Sum: c.sum, Min: c.min, Max: c.max, MinSeq: c.minSeq})
		}
	})
	return r.version.Load(), true
}

// OccupancyRollup collects VisitOccupancy over the whole building for
// [from, to). It is kept for bench/replay.go; the node reads cells
// through VisitOccupancy.
func (s *Store) OccupancyRollup(from, to time.Time) (entries []OccEntry, version uint64, ok bool) {
	version, ok = s.VisitOccupancy(obstore.Filter{From: from, To: to}, func(e OccEntry) { entries = append(entries, e) })
	return entries, version, ok
}
