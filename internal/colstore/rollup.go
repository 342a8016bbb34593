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
// The cubes are fed synchronously from the row store's listener (so
// they can never lag ingest) and repair themselves after deletions by
// marking the touched time buckets dirty and rebuilding them from the
// unified tombstone-filtered scan on next read.

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

type occKey struct {
	space string
	kind  sensor.ObservationKind
	user  string
}

type occEntry struct {
	count  int
	minSeq uint64
}

type rdKey struct {
	sensor string
	kind   sensor.ObservationKind
	space  string
	user   string
}

type rdEntry struct {
	count    int
	sum      float64
	min, max float64
	minSeq   uint64
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
	entries    int
	occ        map[int64]map[occKey]*occEntry // minute start, unix nanos
	rd         map[int64]map[rdKey]*rdEntry   // hour start, unix nanos
	dirtyOcc   map[int64]struct{}
	dirtyRd    map[int64]struct{}

	version atomic.Uint64
}

func newRollups(store *Store, maxEntries int) *rollups {
	return &rollups{
		store:      store,
		maxEntries: maxEntries,
		occ:        make(map[int64]map[occKey]*occEntry),
		rd:         make(map[int64]map[rdKey]*rdEntry),
		dirtyOcc:   make(map[int64]struct{}),
		dirtyRd:    make(map[int64]struct{}),
	}
}

func (r *rollups) isDisabled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.disabled
}

func (r *rollups) entryCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries
}

// observe folds one appended observation into both cubes.
func (r *rollups) observe(o sensor.Observation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.disabled {
		return
	}
	r.observeLocked(o)
	r.version.Add(1)
	r.checkCapLocked()
}

func (r *rollups) observeLocked(o sensor.Observation) {
	minute := o.Time.Truncate(time.Minute).UnixNano()
	om := r.occ[minute]
	if om == nil {
		om = make(map[occKey]*occEntry)
		r.occ[minute] = om
	}
	ok := occKey{space: o.SpaceID, kind: o.Kind, user: o.UserID}
	oe := om[ok]
	if oe == nil {
		oe = &occEntry{minSeq: o.Seq}
		om[ok] = oe
		r.entries++
	}
	oe.count++
	if o.Seq < oe.minSeq {
		oe.minSeq = o.Seq
	}

	hour := o.Time.Truncate(time.Hour).UnixNano()
	hm := r.rd[hour]
	if hm == nil {
		hm = make(map[rdKey]*rdEntry)
		r.rd[hour] = hm
	}
	rk := rdKey{sensor: o.SensorID, kind: o.Kind, space: o.SpaceID, user: o.UserID}
	re := hm[rk]
	if re == nil {
		re = &rdEntry{min: o.Value, max: o.Value, minSeq: o.Seq}
		hm[rk] = re
		r.entries++
	} else {
		if o.Value < re.min {
			re.min = o.Value
		}
		if o.Value > re.max {
			re.max = o.Value
		}
		if o.Seq < re.minSeq {
			re.minSeq = o.Seq
		}
	}
	re.count++
	re.sum += o.Value
}

func (r *rollups) checkCapLocked() {
	if r.entries > r.maxEntries {
		// The cube outgrew its budget: shut it down and let readers
		// fall back to scans rather than serve partial aggregates.
		r.disabled = true
		r.occ = map[int64]map[occKey]*occEntry{}
		r.rd = map[int64]map[rdKey]*rdEntry{}
		r.dirtyOcc = map[int64]struct{}{}
		r.dirtyRd = map[int64]struct{}{}
		r.entries = 0
		r.version.Add(1)
	}
}

// deleted marks every time bucket a deletion touched as dirty; the
// next read rebuilds those buckets from the unified scan, which no
// longer contains the rows.
func (r *rollups) deleted(dels []obstore.Deletion) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.disabled {
		return
	}
	for _, d := range dels {
		r.dirtyOcc[d.Time.Truncate(time.Minute).UnixNano()] = struct{}{}
		r.dirtyRd[d.Time.Truncate(time.Hour).UnixNano()] = struct{}{}
	}
	r.version.Add(1)
}

// rebuildAll recomputes both cubes from the unified scan, folding each
// row as it is visited. Used when the tier first attaches to a store
// that already holds data.
func (r *rollups) rebuildAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.occ = make(map[int64]map[occKey]*occEntry)
	r.rd = make(map[int64]map[rdKey]*rdEntry)
	r.dirtyOcc = make(map[int64]struct{})
	r.dirtyRd = make(map[int64]struct{})
	r.entries = 0
	r.disabled = false
	r.store.Scan(obstore.Filter{}, func(o *sensor.Observation) bool {
		r.observeLocked(*o)
		return true
	})
	r.version.Add(1)
	r.checkCapLocked()
}

// repairLocked rebuilds every dirty bucket from the unified scan.
// Caller holds r.mu; the scan takes only store locks, so the ordering
// rollups.mu -> store.mu is safe (the reverse never occurs).
func (r *rollups) repairLocked() {
	if len(r.dirtyOcc) == 0 && len(r.dirtyRd) == 0 {
		// No repair, no version bump: reads must leave the version
		// untouched or downstream answer caches could never validate.
		return
	}
	for minute := range r.dirtyOcc {
		start := time.Unix(0, minute)
		r.entries -= len(r.occ[minute])
		delete(r.occ, minute)
		r.store.Scan(obstore.Filter{From: start, To: start.Add(time.Minute)}, func(o *sensor.Observation) bool {
			r.observeOccLocked(*o, minute)
			return true
		})
		delete(r.dirtyOcc, minute)
	}
	for hour := range r.dirtyRd {
		start := time.Unix(0, hour)
		r.entries -= len(r.rd[hour])
		delete(r.rd, hour)
		r.store.Scan(obstore.Filter{From: start, To: start.Add(time.Hour)}, func(o *sensor.Observation) bool {
			r.observeRdLocked(*o, hour)
			return true
		})
		delete(r.dirtyRd, hour)
	}
	r.version.Add(1)
	r.checkCapLocked()
}

func (r *rollups) observeOccLocked(o sensor.Observation, minute int64) {
	om := r.occ[minute]
	if om == nil {
		om = make(map[occKey]*occEntry)
		r.occ[minute] = om
	}
	k := occKey{space: o.SpaceID, kind: o.Kind, user: o.UserID}
	e := om[k]
	if e == nil {
		e = &occEntry{minSeq: o.Seq}
		om[k] = e
		r.entries++
	}
	e.count++
	if o.Seq < e.minSeq {
		e.minSeq = o.Seq
	}
}

func (r *rollups) observeRdLocked(o sensor.Observation, hour int64) {
	hm := r.rd[hour]
	if hm == nil {
		hm = make(map[rdKey]*rdEntry)
		r.rd[hour] = hm
	}
	k := rdKey{sensor: o.SensorID, kind: o.Kind, space: o.SpaceID, user: o.UserID}
	e := hm[k]
	if e == nil {
		e = &rdEntry{min: o.Value, max: o.Value, minSeq: o.Seq}
		hm[k] = e
		r.entries++
	} else {
		if o.Value < e.min {
			e.min = o.Value
		}
		if o.Value > e.max {
			e.max = o.Value
		}
		if o.Seq < e.minSeq {
			e.minSeq = o.Seq
		}
	}
	e.count++
	e.sum += o.Value
}

// lockCubes takes r.mu for a read and brings the cubes up to date.
// false (lock released) means the cubes are unavailable and the caller
// must fall back to a scan.
func (s *Store) lockCubes() bool {
	r := s.roll
	r.mu.Lock()
	if src, _ := s.source(); !r.disabled && src != nil {
		r.repairLocked()
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
	spaces := spaceSetFor(f)
	eachBucket(r.occ, f.From, f.To, time.Minute, func(start int64, cells map[occKey]*occEntry) {
		minute := time.Unix(0, start).UTC()
		for k, e := range cells {
			if f.Kind != "" && k.kind != f.Kind || f.UserID != "" && k.user != f.UserID || spaces != nil && !spaces[k.space] {
				continue
			}
			visit(OccEntry{Minute: minute, SpaceID: k.space, Kind: k.kind, UserID: k.user, Count: e.count, MinSeq: e.minSeq})
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
	spaces := spaceSetFor(f)
	eachBucket(r.rd, f.From, f.To, time.Hour, func(start int64, cells map[rdKey]*rdEntry) {
		hour := time.Unix(0, start).UTC()
		for k, e := range cells {
			if f.SensorID != "" && k.sensor != f.SensorID || f.Kind != "" && k.kind != f.Kind ||
				f.UserID != "" && k.user != f.UserID || spaces != nil && !spaces[k.space] {
				continue
			}
			visit(ReadingEntry{Hour: hour, SensorID: k.sensor, Kind: k.kind, SpaceID: k.space, UserID: k.user,
				Count: e.count, Sum: e.sum, Min: e.min, Max: e.max, MinSeq: e.minSeq})
		}
	})
	return r.version.Load(), true
}

// OccupancyRollup collects VisitOccupancy over the whole building for
// [from, to).
func (s *Store) OccupancyRollup(from, to time.Time) (entries []OccEntry, version uint64, ok bool) {
	version, ok = s.VisitOccupancy(obstore.Filter{From: from, To: to}, func(e OccEntry) { entries = append(entries, e) })
	return entries, version, ok
}

// ReadingsRollup collects VisitReadings over the whole building for
// [from, to).
func (s *Store) ReadingsRollup(from, to time.Time) (entries []ReadingEntry, version uint64, ok bool) {
	version, ok = s.VisitReadings(obstore.Filter{From: from, To: to}, func(e ReadingEntry) { entries = append(entries, e) })
	return entries, version, ok
}
