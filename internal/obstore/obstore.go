// Package obstore implements the building's observation store: the
// "DB" box in the paper's Figure 1 (step 3: captured sensor data is
// stored; step 9/10: services query it through the request manager).
//
// The store is one append-only, seq-ordered log: rows in fixed-size
// chunks, a position list per sensor, user and kind, and one time zone
// map. Append allocates the seq, writes the WAL record (durable mode)
// and appends the row in one critical section, so a row is visible
// once Append returns and AfterSeq paging has no gaps, by construction.
// Readers take a snapshot of the log under a brief lock and walk it
// outside any lock; an appended row is never mutated, and Sweep,
// DeleteUser and eviction publish a new log built from the survivors.
//
// Retention (Figure 2's "P6M") is one predicate (retention.go): every
// read skips expired rows, and compaction and Sweep drop them. The rest
// of query-time enforcement happens above the store in internal/enforce;
// the store holds ground truth.
//
// An observation is resident once. With a cold tier attached (tier.go;
// internal/colstore's sealed segments) the log holds only the hot
// window above the tier's compaction watermark and everything behind
// it lives in the tier alone; Scan, Query, Count, Len, Users, Sweep and
// DeleteUser answer for the union, so callers never see the split.
package obstore

import (
	"errors"
	"log/slog"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/telemetry"
	"github.com/tippers/tippers/internal/wal"
)

// Filter selects observations. Zero fields match everything, so the
// zero Filter returns the full log.
type Filter struct {
	// From (inclusive) and To (exclusive) bound observation time.
	From, To time.Time
	SensorID string
	UserID   string
	// DeviceMAC matches the observation's device MAC (useful before
	// attribution, or when MACs are pseudonymized).
	DeviceMAC string
	Kind      sensor.ObservationKind
	// SpaceIDs matches observations located in any of the given
	// spaces. Callers expand spatial subtrees (e.g. a floor to its
	// rooms) before querying.
	SpaceIDs []string
	// AfterSeq matches only observations with Seq > AfterSeq, making
	// results pageable: pass the last seq of one page as the next
	// page's cursor. Streaming catch-up reads resume on it too.
	AfterSeq uint64
	// Limit caps the number of returned observations; 0 means no cap.
	Limit int
}

// Deletion names one observation removed from the store by erasure:
// the cold tier tombstones it when it lies behind the watermark.
type Deletion struct {
	Seq  uint64
	Time time.Time
}

// Store is an indexed, concurrency-safe observation log. The log holds
// every live observation, or — with a cold tier attached (tier.go) —
// the hot window above the tier's watermark; the methods answer for
// all of it either way.
type Store struct {
	// mu is the append lock: seq allocation, the WAL append and the log
	// append share it, and a rebuild (Sweep, DeleteUser, EvictThrough)
	// holds it from reading the old log to publishing the new one. It
	// also guards wal and encBuf. wal.Append may fsync inline,
	// so readers never take it.
	mu sync.Mutex
	// hotMu guards hot and the log's growth; readers hold it only to cut
	// a snapshot.
	hotMu sync.RWMutex
	hot   *hotLog

	// nextSeq is the last seq allocated. Append advances it under hotMu
	// together with the log, so every seq at or below a snapshot's
	// high-water mark is in the snapshot or was deleted.
	nextSeq      atomic.Uint64
	totalIngests atomic.Uint64
	totalSwept   atomic.Uint64
	rebuilds     atomic.Uint64
	deletions    atomic.Uint64 // see Deletions

	// ret is the retention table, replaced under retMu; cuts caches its
	// evaluation for reads of the current minute of clock.
	retMu sync.Mutex
	ret   atomic.Pointer[retention]
	cuts  atomic.Pointer[Cutoffs]
	clock func() time.Time

	// tier owns every observation at or below its watermark (tier.go);
	// nil means the log holds everything. evicted counts the rows
	// eviction has released.
	tier    atomic.Pointer[ColdTier]
	evicted atomic.Uint64

	// Durable mode (see durable.go): when wal is non-nil every append
	// is framed into the log before the row is appended.
	wal    *wal.Log
	walDir string
	logger *slog.Logger
	encBuf []byte
	// ckptMu serialises checkpoints of the rows (checkpointRows): the
	// tier's commits, shutdown and tests all call Checkpoint.
	// onCheckpoint is the directory's other durable state, checkpointed
	// with the rows (see SetCheckpointHook).
	ckptMu       sync.Mutex
	onCheckpoint func() error
	// replayed shares equal payloads among recovered rows; it is set
	// only while OpenDurable restores the store (see durable.go).
	replayed payloadTable
}

// New returns an empty store with no retention rules (observations
// are kept forever until rules are installed) on the wall clock.
func New() *Store {
	return &Store{hot: newHotLog(0, nil), clock: time.Now}
}

// chunkRows is the log's chunk size: 256 rows of 128 bytes, 32 KiB.
const chunkRows = 256

// hotLog holds rows in ascending seq, in fixed-size chunks so growth
// never copies a row, with a position list per sensor, user and kind
// (int32 positions: memory runs out long before 2^31 rows). Append
// extends it beyond any length a reader has snapshotted; nothing else
// ever writes to it.
type hotLog struct {
	chunks   []*[chunkRows]sensor.Observation
	n        int
	bySensor map[string][]int32
	byUser   map[string][]int32
	byKind   map[sensor.ObservationKind][]int32
	// lo and hi are the time zone map: the range of observation times
	// in the log (lo > hi while it is empty).
	lo, hi int64
	// floor is the eviction floor the log was cut at: every seq at or
	// below it has left for the cold tier.
	floor uint64
	// hint is, for a log an eviction cut, each key's position-list length
	// in the log it replaced (see lengths); nil otherwise. A list the log
	// starts for a key is made that long. Only the writer, under s.mu,
	// reads or edits it.
	hint map[string]int32
}

// newHotLog returns an empty log cut at floor. prev, when not nil, is
// the log an eviction replaces: the new one starts with room for as many
// chunks and keys as prev held and with prev's list lengths as hints, so
// an epoch shaped like the last allocates one list per key and one
// chunk per chunkRows rows, and regrows nothing.
func newHotLog(floor uint64, prev *hotLog) *hotLog {
	l := &hotLog{lo: math.MaxInt64, hi: math.MinInt64, floor: floor}
	if prev == nil {
		prev = &hotLog{}
	} else {
		l.hint = prev.lengths()
	}
	l.chunks = make([]*[chunkRows]sensor.Observation, 0, len(prev.chunks))
	l.bySensor = make(map[string][]int32, len(prev.bySensor))
	l.byUser = make(map[string][]int32, len(prev.byUser))
	l.byKind = make(map[sensor.ObservationKind][]int32, len(prev.byKind))
	return l
}

func (l *hotLog) row(i int) *sensor.Observation { return &l.chunks[i/chunkRows][i%chunkRows] }

// append adds o, whose seq is above every seq in the log. The caller
// holds hotMu exclusively or owns a log no reader has seen.
func (l *hotLog) append(o sensor.Observation) {
	if l.n == len(l.chunks)*chunkRows {
		l.chunks = append(l.chunks, new([chunkRows]sensor.Observation))
	}
	*l.row(l.n) = o
	p := int32(l.n)
	l.n++
	if o.SensorID != "" {
		l.bySensor[o.SensorID] = l.post(l.bySensor[o.SensorID], o.SensorID, p)
	}
	if o.UserID != "" {
		l.byUser[o.UserID] = l.post(l.byUser[o.UserID], o.UserID, p)
	}
	if o.Kind != "" {
		l.byKind[o.Kind] = l.post(l.byKind[o.Kind], string(o.Kind), p)
	}
	ns := o.Time.UnixNano()
	l.lo, l.hi = min(l.lo, ns), max(l.hi, ns)
}

// postingBlock is a position list's least first capacity. Grown from
// empty, a list would take five allocations (1, 2, 4, 8, 16) before its
// sixteenth position; one block of 64 bytes takes their place.
const postingBlock = 16

// post appends p to key's position list, starting a new one at one
// block or at the key's hint, whichever is longer.
func (l *hotLog) post(list []int32, key string, p int32) []int32 {
	if list == nil {
		list = make([]int32, 0, max(postingBlock, int(l.hint[key])))
	}
	return append(list, p)
}

// lengths maps every key of l's position lists to the list's length:
// the hints of the log an eviction cuts from l. They come from the lists
// alone, never from l's own hints, so a key absent for a whole epoch
// has none, and no list starts longer than its key's in l. Sensor,
// user and kind keys share the map: a sensor and a user with one ID only
// mis-size a list.
func (l *hotLog) lengths() map[string]int32 {
	m := make(map[string]int32, len(l.bySensor)+len(l.byUser)+len(l.byKind))
	for k, list := range l.bySensor {
		m[k] = int32(len(list))
	}
	for k, list := range l.byUser {
		m[k] = int32(len(list))
	}
	for k, list := range l.byKind {
		m[string(k)] = int32(len(list))
	}
	return m
}

// view is a reader's snapshot of the log: rows [0, n), or only the
// positions in pos when an index narrowed the read. It shares the
// log's chunks and position lists, which only grow past what it covers.
type view struct {
	chunks  []*[chunkRows]sensor.Observation
	n       int
	pos     []int32
	indexed bool
	floor   uint64
	// hwm is the last seq allocated when the snapshot was cut: every
	// seq at or below it is in the view or was deleted.
	hwm uint64
	lo  int64 // bounds the rows' times from below
	cut *Cutoffs
}

// view snapshots the log for f, to be read under cut: the narrowest of
// f's indexed keys, or nothing at all when f's time window misses the
// zone map.
func (s *Store) view(f Filter, cut *Cutoffs) view {
	s.hotMu.RLock()
	defer s.hotMu.RUnlock()
	l := s.hot
	v := view{chunks: l.chunks, n: l.n, floor: l.floor, hwm: s.nextSeq.Load(), lo: l.lo, cut: cut}
	if (!f.From.IsZero() && f.From.UnixNano() > l.hi) || (!f.To.IsZero() && f.To.UnixNano() <= l.lo) {
		v.n = 0
		return v
	}
	narrow := func(list []int32) {
		if len(list) < v.n && (!v.indexed || len(list) < len(v.pos)) {
			v.pos, v.indexed = list, true
		}
	}
	if f.SensorID != "" {
		narrow(l.bySensor[f.SensorID])
	}
	if f.UserID != "" {
		narrow(l.byUser[f.UserID])
	}
	if f.Kind != "" {
		narrow(l.byKind[f.Kind])
	}
	return v
}

// len is the number of candidate rows; at(k) is the k-th.
func (v *view) len() int {
	if v.indexed {
		return len(v.pos)
	}
	return v.n
}

func (v *view) at(k int) *sensor.Observation {
	if v.indexed {
		k = int(v.pos[k])
	}
	return &v.chunks[k/chunkRows][k%chunkRows]
}

// search returns the first candidate with seq > after.
func (v *view) search(after uint64) int {
	return sort.Search(v.len(), func(k int) bool { return v.at(k).Seq > after })
}

// each calls fn, in ascending seq, for every candidate matching f with
// seq > f.AfterSeq that v.cut does not expire, until fn returns false
// or f.Limit rows were visited. The pointer is into the log: fn must
// not write through it (Scan hands callers outside the package a copy).
func (v *view) each(f Filter, fn func(*sensor.Observation) bool) {
	cut := v.cut
	if cut != nil && v.lo > cut.latest {
		cut = nil // no row of the log is old enough
	}
	visited := 0
	for k, end := v.search(f.AfterSeq), v.len(); k < end; k++ {
		o := v.at(k)
		if !matches(o, &f) || cut.Expired(o) {
			continue
		}
		visited++
		if !fn(o) || visited == f.Limit {
			return
		}
	}
}

// RegisterMetrics exposes the store's counters on a telemetry
// registry: cumulative ingests and deletions, stored and resident
// observation counts, and log rebuilds.
func (s *Store) RegisterMetrics(r *telemetry.Registry) {
	r.CounterFunc("tippers_obstore_ingested_total",
		"Observations appended to the store.", func() float64 {
			return float64(s.totalIngests.Load())
		})
	r.CounterFunc("tippers_obstore_swept_total",
		"Observations removed by erasure (DeleteUser) and by Sweep's hot-log rewrite; rows compaction drops as expired are not counted.", func() float64 {
			return float64(s.totalSwept.Load())
		})
	r.CounterFunc("tippers_obstore_log_rebuilds_total",
		"Hot log rebuilds: sweeps, erasures and evictions that published a log without the rows they removed.", func() float64 {
			return float64(s.rebuilds.Load())
		})
	r.GaugeFunc("tippers_obstore_live_observations",
		"Observations currently stored, in the hot log or behind the compaction watermark, expired or not.", func() float64 {
			return float64(s.Len())
		})
	r.GaugeFunc("tippers_obstore_resident_observations",
		"Observations held in the hot log: the hot window when a cold tier is attached.", func() float64 {
			return float64(s.Resident())
		})
	r.CounterFunc("tippers_obstore_evicted_total",
		"Rows released from the hot log once the cold tier had sealed them.", func() float64 {
			return float64(s.evicted.Load())
		})
	if l := s.WAL(); l != nil {
		l.RegisterMetrics(r)
	}
}

// SetTracer forwards the tracer to the WAL (durable mode) so
// group-commit fsync batches are recorded as spans. No-op for the
// in-memory store; nil-safe.
func (s *Store) SetTracer(t *telemetry.Tracer) {
	if l := s.WAL(); l != nil {
		l.SetTracer(t)
	}
}

// Ready reports whether the store accepts appends: always in memory
// mode; in durable mode the WAL must still be open. This feeds the
// /v1/readyz probe.
func (s *Store) Ready() error {
	if l := s.WAL(); l != nil {
		return l.Ready()
	}
	return nil
}

// ErrZeroTime reports an ingest with an unset timestamp; retention
// cannot be evaluated for such observations.
var ErrZeroTime = errors.New("obstore: observation has zero time")

// Append ingests one observation, assigns it a sequence number, and
// returns the stored copy. When Append returns, the observation — and
// every observation with a lower seq — is visible to Query.
func (s *Store) Append(o sensor.Observation) (sensor.Observation, error) {
	if o.Time.IsZero() {
		return sensor.Observation{}, ErrZeroTime
	}
	s.mu.Lock()
	o.Seq = s.nextSeq.Load() + 1
	if s.wal != nil {
		// Write-ahead: the record is in the WAL before any reader can see
		// the row. On failure the seq is not taken and nothing is stored.
		s.encBuf = appendObservation(s.encBuf[:0], o)
		if err := s.wal.Append(o.Seq, s.encBuf); err != nil {
			s.mu.Unlock()
			return sensor.Observation{}, err
		}
	}
	s.hotMu.Lock()
	s.hot.append(o)
	s.nextSeq.Store(o.Seq)
	s.hotMu.Unlock()
	s.mu.Unlock()
	s.totalIngests.Add(1)
	return o, nil
}

// LastSeq returns the last seq allocated: every row appended so far
// has a seq at or below it.
func (s *Store) LastSeq() uint64 { return s.nextSeq.Load() }

// Deletions counts the Sweep and DeleteUser calls that removed a row.
// Each advances it once its rows are gone from every Scan (DeleteUser),
// so with LastSeq and Cutoffs it versions what a scan can see.
func (s *Store) Deletions() uint64 { return s.deletions.Load() }

// Query returns the observations matching f in seq (insertion) order:
// the cold tier's matches behind its watermark, when one is attached,
// then the log's. It collects Scan into a slice and is kept for tests
// and bench/replay.go; node code reads through Scan.
func (s *Store) Query(f Filter) []sensor.Observation {
	var out []sensor.Observation
	s.walk(f, func(o *sensor.Observation) bool {
		out = append(out, *o)
		return true
	})
	return out
}

// Count returns the number of unexpired observations matching f,
// ignoring f.Limit.
func (s *Store) Count(f Filter) int {
	f.Limit = 0
	n := 0
	s.walk(f, func(*sensor.Observation) bool {
		n++
		return true
	})
	return n
}

func matches(o *sensor.Observation, f *Filter) bool {
	if !f.From.IsZero() && o.Time.Before(f.From) {
		return false
	}
	if !f.To.IsZero() && !o.Time.Before(f.To) {
		return false
	}
	if f.SensorID != "" && o.SensorID != f.SensorID {
		return false
	}
	if f.UserID != "" && o.UserID != f.UserID {
		return false
	}
	if f.DeviceMAC != "" && o.DeviceMAC != f.DeviceMAC {
		return false
	}
	if f.Kind != "" && o.Kind != f.Kind {
		return false
	}
	return len(f.SpaceIDs) == 0 || slices.Contains(f.SpaceIDs, o.SpaceID)
}

// Len returns the number of stored observations, expired ones not yet
// dropped included, in the log or behind the cold tier's watermark. The
// tier keeps its count current, so this is a snapshot and a search.
func (s *Store) Len() int {
	t := s.coldTier()
	if t == nil {
		return s.Resident()
	}
	for {
		cold, split := t.ColdRows()
		// Same validation as read: a log cut above the split lacks rows
		// the cold count does not include.
		if v := s.view(Filter{}, nil); v.floor <= split {
			return cold + v.n - v.search(split)
		}
	}
}

// rewrite publishes a log without the rows doomed condemns and returns
// how many of them lay above split, their Deletions when a cold tier
// wants them, and the floor of the log it rewrote. A row at or below
// the split is the tier's to report; its resident copy just goes. A
// log with no doomed row is left as it is; a rewritten one has no
// hints.
func (s *Store) rewrite(split uint64, doomed func(*sensor.Observation) bool) (int, []Deletion, uint64) {
	collect := s.coldTier() != nil
	s.mu.Lock() // no append lands between the walk and the publish
	defer s.mu.Unlock()
	old := s.hot
	var fresh *hotLog
	n := 0
	var dels []Deletion
	for i := 0; i < old.n; i++ {
		o := old.row(i)
		if !doomed(o) {
			if fresh != nil {
				fresh.append(*o)
			}
			continue
		}
		if fresh == nil {
			fresh = newHotLog(old.floor, nil)
			for j := 0; j < i; j++ {
				fresh.append(*old.row(j))
			}
		}
		if o.Seq > split {
			n++
			if collect {
				dels = append(dels, Deletion{Seq: o.Seq, Time: o.Time})
			}
		}
	}
	if fresh != nil {
		s.publish(fresh)
	}
	return n, dels, old.floor
}

// publish installs l as the log. The caller holds s.mu.
func (s *Store) publish(l *hotLog) {
	s.hotMu.Lock()
	s.hot = l
	s.hotMu.Unlock()
	s.rebuilds.Add(1)
}

// SyncWAL forces the write-ahead log to disk (durable mode; no-op in
// memory mode). The columnar compactor calls it before cutting a
// segment so every row a segment ever holds is already durable —
// after a crash, recovery can never know fewer rows than the segment
// manifest does, which is what keeps the WAL → segment handoff free
// of lost or double-counted buckets.
func (s *Store) SyncWAL() error {
	if l := s.WAL(); l != nil {
		return l.Sync()
	}
	return nil
}

// Users returns the distinct attributed user IDs present in the
// store, sorted. Inference experiments use it to enumerate subjects.
func (s *Store) Users() []string {
	seen := make(map[string]bool)
	s.walk(Filter{}, func(o *sensor.Observation) bool {
		if o.UserID != "" {
			seen[o.UserID] = true
		}
		return true
	})
	var out []string
	for u := range seen {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}
