// Package obstore implements the building's observation store: the
// "DB" box in the paper's Figure 1 (step 3: captured sensor data is
// stored; step 9/10: services query it through the request manager).
//
// The store is one append-only, seq-ordered log: rows in fixed-size
// chunks, each row its seq, time, value and payload plus codes into the
// log's own string dictionaries (56 bytes, not a 128-byte
// sensor.Observation), a position list per sensor, user and kind code,
// and one time zone map. Append allocates the seq, writes the WAL
// record (durable mode) and appends the row in one critical section, so
// a row is visible once Append returns and AfterSeq paging has no gaps,
// by construction. Readers take a snapshot of the log under a brief
// lock and walk it outside any lock, matching a filter on codes and
// building only the rows that pass; an appended row is never mutated,
// and Sweep, DeleteUser and eviction publish a new log, and new
// dictionaries, built from the survivors.
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
	"unsafe"

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

// chunkRows is the log's chunk size: as many rows as fill a 16 KiB
// allocation less the 8-byte header the runtime puts before an object of
// this size that holds pointers — 292 rows of 56 bytes. 256 rows (14 KiB
// and the header) would take the same 16 KiB size class.
const chunkRows = (16<<10 - 8) / int(unsafe.Sizeof(hotRow{}))

// hotRow is one row of the log. Its five strings are codes into the
// log's dictionaries — sensor, kind and user into keys, space and mac
// into strs — so a row is 56 bytes where a sensor.Observation is 128;
// readers build the observation back (view.build).
type hotRow struct {
	seq     uint64
	ns      int64 // capture time, Unix nanoseconds
	value   float64
	payload map[string]string

	sensor, kind, space, mac, user uint32
}

// hotLog holds rows in ascending seq, in fixed-size chunks so growth
// never copies a row, with a position list per sensor, user and kind
// code (int32 positions: memory runs out long before 2^31 rows). Append
// extends it beyond any length a reader has snapshotted; nothing else
// ever writes to it.
type hotLog struct {
	chunks []*[chunkRows]hotRow
	n      int
	// keys holds each sensor ID, kind and user ID the rows name once,
	// in order of first use, with its position lists; strs holds each
	// space ID and device MAC once, which need no lists. A row's strings
	// join them before the row joins the log, so every code a snapshot
	// reaches is inside its copies. A new log starts them from its own
	// rows: an erased subject's ID and MACs leave with the last row that
	// named them.
	keys dict[postings]
	strs dict[struct{}]
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

// postings are the positions of the rows whose sensor, user or kind
// one string of a log's keys is (nil where none is).
type postings struct {
	sensor, user, kind []int32
}

// newHotLog returns an empty log cut at floor. prev, when not nil, is
// the log it replaces: the new one has room for as many chunks and
// strings as prev held, so an epoch shaped like the last regrows none of
// them, and a log left empty holds no string.
func newHotLog(floor uint64, prev *hotLog) *hotLog {
	if prev == nil {
		prev = &hotLog{}
	}
	return &hotLog{lo: math.MaxInt64, hi: math.MinInt64, floor: floor, chunks: make([]*[chunkRows]hotRow, 0, len(prev.chunks)),
		keys: newDict[postings](prev.keys.n), strs: newDict[struct{}](prev.strs.n)}
}

func (l *hotLog) row(i int) *hotRow { return &l.chunks[i/chunkRows][i%chunkRows] }

// append adds o, whose seq is above every seq in the log. The caller
// holds hotMu exclusively or owns a log no reader has seen.
func (l *hotLog) append(o *sensor.Observation) {
	l.add(hotRow{seq: o.Seq, ns: o.Time.UnixNano(), value: o.Value, payload: o.Payload,
		sensor: l.keys.intern(o.SensorID), kind: l.keys.intern(string(o.Kind)), space: l.strs.intern(o.SpaceID),
		mac: l.strs.intern(o.DeviceMAC), user: l.keys.intern(o.UserID)})
}

// recode adds r, a row of v (another log's snapshot), under l's codes:
// the rewrites and evictions that carry survivors into a new log.
func (l *hotLog) recode(v *view, r *hotRow) {
	c := *r
	c.sensor, c.kind, c.user = l.keys.intern(v.keys.at(r.sensor)), l.keys.intern(v.keys.at(r.kind)), l.keys.intern(v.keys.at(r.user))
	c.space, c.mac = l.strs.intern(v.strs.at(r.space)), l.strs.intern(v.strs.at(r.mac))
	l.add(c)
}

// add appends r, whose strings are already l's codes.
func (l *hotLog) add(r hotRow) {
	if l.n == len(l.chunks)*chunkRows {
		l.chunks = append(l.chunks, new([chunkRows]hotRow))
	}
	*l.row(l.n) = r
	p := int32(l.n)
	l.n++
	if r.sensor != 0 {
		l.post(&l.keys.of(r.sensor).sensor, r.sensor, p)
	}
	if r.user != 0 {
		l.post(&l.keys.of(r.user).user, r.user, p)
	}
	if r.kind != 0 {
		l.post(&l.keys.of(r.kind).kind, r.kind, p)
	}
	l.lo, l.hi = min(l.lo, r.ns), max(l.hi, r.ns)
}

// postingBlock is a position list's least first capacity. Grown from
// empty, a list would take five allocations (1, 2, 4, 8, 16) before its
// sixteenth position; one block of 64 bytes takes their place.
const postingBlock = 16

// post appends p to a position list of key, a code in keys, starting a
// new one at one block or at the key's hint, whichever is longer.
func (l *hotLog) post(list *[]int32, key uint32, p int32) {
	if *list == nil {
		*list = make([]int32, 0, max(postingBlock, int(l.hint[l.keys.at(key)])))
	}
	*list = append(*list, p)
}

// lengths maps every key of l's position lists to the list's length:
// the hints of the log an eviction cuts from l. They come from the lists
// alone, never from l's own hints, so a key absent for a whole epoch
// has none, and no list starts longer than its key's in l. Sensor,
// user and kind keys share the map: a sensor and a user with one ID only
// mis-size a list.
func (l *hotLog) lengths() map[string]int32 {
	keyed := 0
	for c := uint32(1); c < uint32(l.keys.n); c++ {
		if k := l.keys.of(c); k.sensor != nil || k.user != nil || k.kind != nil {
			keyed++
		}
	}
	m := make(map[string]int32, keyed)
	for c := uint32(1); c < uint32(l.keys.n); c++ {
		k := l.keys.of(c)
		for _, list := range [...][]int32{k.sensor, k.user, k.kind} {
			if list != nil {
				m[l.keys.at(c)] = int32(len(list))
			}
		}
	}
	return m
}

// anyCode stands for a filter field left open; no string has it.
const anyCode = math.MaxUint32

// view is a reader's snapshot of the log: rows [0, n), or only the
// positions in pos when an index narrowed the read. It shares the
// log's chunks, dictionaries and position lists, which only grow past
// what it covers. It holds the codes of the filter it was cut for, so
// a row that fails it is never built.
type view struct {
	chunks  []*[chunkRows]hotRow
	keys    dict[postings]
	strs    dict[struct{}]
	n       int
	pos     []int32
	indexed bool
	floor   uint64
	// hwm is the last seq allocated when the snapshot was cut: every
	// seq at or below it is in the view or was deleted.
	hwm uint64
	lo  int64 // bounds the rows' times from below
	cut *Cutoffs
	// sensor, kind, mac and user are the codes the filter's strings
	// have (anyCode where it names none); spaces are those of its
	// SpaceIDs that some row names, nil when it names none.
	sensor, kind, mac, user uint32
	spaces                  []uint32
}

// view snapshots the log for f, to be read under cut: the narrowest of
// f's indexed keys, or nothing at all when f's time window misses the
// zone map or f names a string no row holds.
func (s *Store) view(f Filter, cut *Cutoffs) view {
	s.hotMu.RLock()
	defer s.hotMu.RUnlock()
	l := s.hot
	v := view{chunks: l.chunks, keys: l.keys, strs: l.strs, n: l.n, floor: l.floor, hwm: s.nextSeq.Load(), lo: l.lo, cut: cut,
		sensor: anyCode, kind: anyCode, mac: anyCode, user: anyCode}
	if (!f.From.IsZero() && f.From.UnixNano() > l.hi) || (!f.To.IsZero() && f.To.UnixNano() <= l.lo) {
		v.n = 0
		return v
	}
	ok := want(&l.keys, f.SensorID, &v.sensor) && want(&l.keys, string(f.Kind), &v.kind) &&
		want(&l.strs, f.DeviceMAC, &v.mac) && want(&l.keys, f.UserID, &v.user)
	if ok && len(f.SpaceIDs) > 0 && v.n > 0 {
		v.spaces = make([]uint32, 0, len(f.SpaceIDs))
		for _, id := range f.SpaceIDs {
			if c, in := l.strs.code(id); in {
				v.spaces = append(v.spaces, c)
			}
		}
		ok = len(v.spaces) > 0
	}
	if !ok {
		v.n = 0
		return v
	}
	narrow := func(list []int32) {
		if len(list) < v.n && (!v.indexed || len(list) < len(v.pos)) {
			v.pos, v.indexed = list, true
		}
	}
	if v.sensor != anyCode {
		narrow(l.keys.of(v.sensor).sensor)
	}
	if v.user != anyCode {
		narrow(l.keys.of(v.user).user)
	}
	if v.kind != anyCode {
		narrow(l.keys.of(v.kind).kind)
	}
	return v
}

// want sets *c to s's code in d, leaving it for "", and reports whether
// a row may hold s.
func want[X any](d *dict[X], s string, c *uint32) bool {
	if s == "" {
		return true
	}
	code, ok := d.code(s)
	*c = code
	return ok
}

// len is the number of candidate rows; at(k) is the k-th.
func (v *view) len() int {
	if v.indexed {
		return len(v.pos)
	}
	return v.n
}

func (v *view) at(k int) *hotRow {
	if v.indexed {
		k = int(v.pos[k])
	}
	return &v.chunks[k/chunkRows][k%chunkRows]
}

// build writes row r out as an observation into o, its time in UTC,
// field by field, all nine: a composite literal is built aside and
// copied in.
func (v *view) build(r *hotRow, o *sensor.Observation) {
	o.Seq, o.Time, o.Value, o.Payload = r.seq, time.Unix(0, r.ns).UTC(), r.value, r.payload
	o.SensorID, o.Kind, o.UserID = v.keys.at(r.sensor), sensor.ObservationKind(v.keys.at(r.kind)), v.keys.at(r.user)
	o.SpaceID, o.DeviceMAC = v.strs.at(r.space), v.strs.at(r.mac)
}

// search returns the first candidate with seq > after.
func (v *view) search(after uint64) int {
	return sort.Search(v.len(), func(k int) bool { return v.at(k).seq > after })
}

// each calls fn, in ascending seq, for every candidate with seq >
// f.AfterSeq inside f's time window that matches the codes v was cut
// for and that v.cut does not expire, until fn returns false or f.Limit
// rows were visited. Each row is built into one scratch row taken from
// ScanRows, valid only during the call.
func (v *view) each(f Filter, fn func(*sensor.Observation, Codes) bool) {
	k, end := v.search(f.AfterSeq), v.len()
	if k == end {
		return
	}
	from, last := int64(math.MinInt64), int64(math.MaxInt64)
	if !f.From.IsZero() {
		from = f.From.UnixNano()
	}
	if !f.To.IsZero() {
		last = f.To.UnixNano() - 1
	}
	cut := v.cut
	if cut != nil && v.lo > cut.latest {
		cut = nil // no row of the log is old enough
	}
	// A kind's cutoff is looked up again only when the kind changes.
	cutKind, kindCut := uint32(anyCode), int64(0)
	row := ScanRows.Get().(*sensor.Observation)
	defer ScanRows.Put(row)
	visited := 0
	for ; k < end; k++ {
		r := v.at(k)
		if r.ns < from || r.ns > last ||
			v.sensor != anyCode && r.sensor != v.sensor || v.kind != anyCode && r.kind != v.kind ||
			v.mac != anyCode && r.mac != v.mac || v.user != anyCode && r.user != v.user ||
			v.spaces != nil && !slices.Contains(v.spaces, r.space) {
			continue
		}
		if cut != nil {
			if r.kind != cutKind {
				cutKind, kindCut = r.kind, cut.Of(sensor.ObservationKind(v.keys.at(r.kind)))
			}
			if r.ns <= kindCut {
				continue
			}
		}
		v.build(r, row)
		visited++
		if !fn(row, Codes{}) || visited == f.Limit {
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
	s.hot.append(&o)
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
	s.Scan(f, func(o *sensor.Observation, _ Codes) bool {
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
	s.Scan(f, func(*sensor.Observation, Codes) bool {
		n++
		return true
	})
	return n
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
// hints, and dictionaries of the survivors' strings alone.
func (s *Store) rewrite(split uint64, d *doom) (int, []Deletion, uint64) {
	collect := s.coldTier() != nil
	s.mu.Lock() // no append lands between the walk and the publish
	defer s.mu.Unlock()
	old := s.hot
	v := s.view(Filter{}, nil)
	var fresh *hotLog
	n := 0
	var dels []Deletion
	for i := 0; i < v.n; i++ {
		r := v.at(i)
		if !d.doomed(&v, r) {
			if fresh != nil {
				fresh.recode(&v, r)
			}
			continue
		}
		if fresh == nil {
			fresh = newHotLog(old.floor, old)
			for j := 0; j < i; j++ {
				fresh.recode(&v, v.at(j))
			}
		}
		if r.seq > split {
			n++
			if collect {
				dels = append(dels, Deletion{Seq: r.seq, Time: time.Unix(0, r.ns).UTC()})
			}
		}
	}
	if fresh != nil {
		s.publish(fresh)
	}
	return n, dels, old.floor
}

// doom condemns the rows a rewrite drops: those cut expires, or, for an
// erasure, user's rows that keep does not hold back. It reads a row
// through its codes and builds one only for keep, into row; a method,
// not a closure, so the rewrite's view stays on its stack.
type doom struct {
	cut *Cutoffs
	// kind is the code kindCut is the cutoff of: a kind's cutoff is
	// looked up again only when the kind changes.
	kind    uint32
	kindCut int64

	erase bool
	user  string
	keep  func(*sensor.Observation) bool
	row   *sensor.Observation
}

func (d *doom) doomed(v *view, r *hotRow) bool {
	if !d.erase {
		if r.kind != d.kind {
			d.kind, d.kindCut = r.kind, d.cut.Of(sensor.ObservationKind(v.keys.at(r.kind)))
		}
		return r.ns <= d.kindCut
	}
	if v.keys.at(r.user) != d.user {
		return false
	}
	if d.keep == nil {
		return true
	}
	v.build(r, d.row)
	return !d.keep(d.row)
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
	s.Scan(Filter{}, func(o *sensor.Observation, _ Codes) bool {
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
