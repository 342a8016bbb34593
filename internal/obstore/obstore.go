// Package obstore implements the building's observation store: the
// "DB" box in the paper's Figure 1 (step 3: captured sensor data is
// stored; step 9/10: services query it through the request manager).
//
// The store is an indexed in-memory time-series log, lock-striped
// into N shards keyed by sensor ID (see shard.go) so dense
// deployments — the paper's building runs >40 cameras, 60 WiFi APs,
// 200 BLE beacons, and 100 power meters — ingest and serve queries in
// parallel. Sequence numbers stay global (one atomic allocator plus a
// publication gate), so cursors, stream resume, and WAL replay are
// oblivious to the sharding. It implements the paper's storage-time
// enforcement point: retention rules — the "retention" element of the
// policy language (Figure 2's "P6M") — are applied by Sweep, which
// deletes observations past their expiry.
//
// Query-time enforcement (purpose checks, granularity degradation,
// noise) happens above the store in internal/enforce; the store holds
// ground truth.
//
// An observation is resident once. With a cold tier attached (tier.go;
// internal/colstore's sealed segments) the shards hold only the hot
// window above the tier's compaction watermark and everything behind
// it lives in the tier alone; Query, Count, Len, Users, Sweep and
// DeleteUser answer for the union, so callers never see the split.
package obstore

import (
	"errors"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tippers/tippers/internal/isodur"
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

// Deletion summarizes one observation removed from the store by
// retention or erasure. Listeners use it to keep derived
// representations (columnar segments, rollup cubes) in step with the
// ground truth without re-scanning the log.
type Deletion struct {
	Seq      uint64
	Time     time.Time
	SensorID string
	SpaceID  string
	UserID   string
	Kind     sensor.ObservationKind
	// Erased marks a GDPR-style subject erasure (DeleteUser) rather
	// than a retention expiry; derived stores use it to tombstone the
	// subject's dictionary entries, not just the individual rows.
	Erased bool
}

// Listener observes the store's mutations. The columnar tier
// (internal/colstore) attaches one so its rollup cubes track every
// append path — including erasure re-inserts that bypass the capture
// pipeline — and so erasure reaches the segment files. At most one
// listener is supported (AttachTier installs the tier as it);
// callbacks run synchronously on the mutating goroutine and must be
// cheap and concurrency-safe.
type Listener interface {
	ObservationAppended(o sensor.Observation)
	ObservationsDeleted(dels []Deletion)
}

// SetListener attaches (or, with nil, detaches) the store's mutation
// listener. Attach before concurrent traffic, or rebuild the derived
// state from a scan afterwards — appends racing the attach are not
// replayed.
func (s *Store) SetListener(l Listener) {
	if l == nil {
		s.listener.Store(nil)
		return
	}
	s.listener.Store(&l)
}

func (s *Store) notifyAppend(o sensor.Observation) {
	if lp := s.listener.Load(); lp != nil {
		(*lp).ObservationAppended(o)
	}
}

func (s *Store) notifyDeleted(dels []Deletion) {
	if len(dels) == 0 {
		return
	}
	if lp := s.listener.Load(); lp != nil {
		(*lp).ObservationsDeleted(dels)
	}
}

// hasListener reports whether deletion collection is needed; Sweep and
// DeleteUser skip building Deletion slices when nobody is watching.
func (s *Store) hasListener() bool { return s.listener.Load() != nil }

// RetentionRule binds a time-to-live to a scope. Scope precedence at
// sweep time: SensorID match beats Kind match beats the default.
type RetentionRule struct {
	// SensorID scopes the rule to one sensor; empty means any.
	SensorID string
	// Kind scopes the rule to one observation kind; empty means any.
	Kind sensor.ObservationKind
	// TTL is how long matching observations live.
	TTL isodur.Duration
}

// Store is an indexed, concurrency-safe observation log, lock-striped
// across shards (see shard.go for the invariants that keep the
// sharding externally invisible). The shards hold every live
// observation, or — with a cold tier attached (tier.go) — the hot
// window above the tier's watermark; the methods answer for all of it
// either way.
type Store struct {
	shards []*shard
	gate   *seqGate
	// compactMin is the per-shard tombstone floor below which
	// compaction is skipped; scaled by shard count so the aggregate
	// trigger matches the old single-lock store.
	compactMin int

	nextSeq      atomic.Uint64
	totalIngests atomic.Uint64
	totalSwept   atomic.Uint64
	compactions  atomic.Uint64

	retMu      sync.RWMutex
	rules      []RetentionRule
	defaultTTL isodur.Duration
	hasDefault bool

	// sweepSeconds times retention sweeps (storage-time enforcement
	// cost); it works standalone and is exposed via RegisterMetrics.
	sweepSeconds *telemetry.Histogram

	// listener observes appends and deletions (see SetListener).
	listener atomic.Pointer[Listener]
	// tier owns every observation at or below its watermark (tier.go);
	// nil means the shards hold everything. evictedThrough is the
	// highest watermark eviction has started on, evicted the rows it has
	// released.
	tier           atomic.Pointer[ColdTier]
	evictedThrough atomic.Uint64
	evicted        atomic.Uint64
	// stripesPruned counts shards skipped wholesale by the per-shard
	// time zone map before any index was consulted.
	stripesPruned atomic.Uint64

	// Durable mode (see durable.go): when wal is non-nil every append
	// is framed into the log before it is indexed, and sweeps prune
	// fully dead sealed segments from disk. walMu serializes seq
	// allocation with the WAL append so the log stays monotonic; it
	// also guards wal, walDir, and encBuf.
	durable atomic.Bool
	walMu   sync.Mutex
	wal     *wal.Log
	walDir  string
	logger  *slog.Logger
	encBuf  []byte
}

// New returns an empty store with no retention rules (observations
// are kept forever until rules are installed), sharded GOMAXPROCS
// ways.
func New() *Store {
	return NewSharded(0)
}

// NewSharded returns an empty store striped across n shards; n <= 0
// selects GOMAXPROCS. One shard reproduces the old single-lock store
// exactly — benchmarks and equivalence tests use it as the baseline.
func NewSharded(n int) *Store {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &Store{
		shards:       make([]*shard, n),
		gate:         newSeqGate(),
		sweepSeconds: telemetry.NewHistogram(nil),
	}
	for i := range s.shards {
		s.shards[i] = newShard()
	}
	s.compactMin = 1024 / n
	if s.compactMin < 64 {
		s.compactMin = 64
	}
	return s
}

// Shards reports the store's stripe count.
func (s *Store) Shards() int { return len(s.shards) }

// shardFor maps a sensor ID to its shard (FNV-1a).
func (s *Store) shardFor(sensorID string) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(sensorID); i++ {
		h = (h ^ uint32(sensorID[i])) * 16777619
	}
	return s.shards[h%uint32(len(s.shards))]
}

// RegisterMetrics exposes the store's counters on a telemetry
// registry: cumulative ingests and sweep deletions, live and
// tombstoned observation counts, compactions, and sweep latency.
func (s *Store) RegisterMetrics(r *telemetry.Registry) {
	r.CounterFunc("tippers_obstore_ingested_total",
		"Observations appended to the store.", func() float64 {
			return float64(s.totalIngests.Load())
		})
	r.CounterFunc("tippers_obstore_swept_total",
		"Observations deleted by retention sweeps and erasure.", func() float64 {
			return float64(s.totalSwept.Load())
		})
	r.CounterFunc("tippers_obstore_compactions_total",
		"Index compaction passes (the store's GC).", func() float64 {
			return float64(s.compactions.Load())
		})
	r.GaugeFunc("tippers_obstore_live_observations",
		"Observations currently stored, in the shards or behind the compaction watermark.", func() float64 {
			return float64(s.Len())
		})
	r.GaugeFunc("tippers_obstore_resident_observations",
		"Observations held in the row shards: the hot window when a cold tier is attached.", func() float64 {
			return float64(s.Resident())
		})
	r.CounterFunc("tippers_obstore_evicted_total",
		"Rows released from the row shards once the cold tier had sealed them.", func() float64 {
			return float64(s.evicted.Load())
		})
	r.GaugeFunc("tippers_obstore_tombstones",
		"Deleted sequence numbers awaiting compaction.", func() float64 {
			total := 0
			for _, sh := range s.shards {
				sh.mu.RLock()
				total += sh.dead
				sh.mu.RUnlock()
			}
			return float64(total)
		})
	r.GaugeFunc("tippers_obstore_shards",
		"Lock-striped store partitions.", func() float64 {
			return float64(len(s.shards))
		})
	r.CounterFunc("tippers_obstore_stripes_pruned_total",
		"Shards skipped wholesale by the per-shard time zone map.", func() float64 {
			return float64(s.stripesPruned.Load())
		})
	r.RegisterHistogram("tippers_obstore_sweep_seconds",
		"Retention sweep duration.", nil, s.sweepSeconds)
	s.walMu.Lock()
	l := s.wal
	s.walMu.Unlock()
	if l != nil {
		l.RegisterMetrics(r)
	}
}

// SetTracer forwards the tracer to the WAL (durable mode) so
// group-commit fsync batches are recorded as spans. No-op for the
// in-memory store; nil-safe.
func (s *Store) SetTracer(t *telemetry.Tracer) {
	s.walMu.Lock()
	l := s.wal
	s.walMu.Unlock()
	if l != nil {
		l.SetTracer(t)
	}
}

// Ready reports whether the store accepts appends: always in memory
// mode; in durable mode the WAL must still be open. This feeds the
// /v1/readyz probe.
func (s *Store) Ready() error {
	if !s.durable.Load() {
		return nil
	}
	s.walMu.Lock()
	l := s.wal
	s.walMu.Unlock()
	if l == nil {
		return errors.New("obstore: durable store has no WAL attached")
	}
	return l.Ready()
}

// ErrZeroTime reports an ingest with an unset timestamp; retention
// cannot be computed for such observations.
var ErrZeroTime = errors.New("obstore: observation has zero time")

// Append ingests one observation, assigns it a sequence number, and
// returns the stored copy. When Append returns, the observation — and
// every observation with a lower seq — is visible to Query.
func (s *Store) Append(o sensor.Observation) (sensor.Observation, error) {
	if o.Time.IsZero() {
		return sensor.Observation{}, ErrZeroTime
	}
	var seq uint64
	if s.durable.Load() {
		// Write-ahead: the record must be in the log before the
		// indexes ever see it, and the WAL wants monotonic seqs, so
		// allocation and the log append share one critical section.
		// On failure the seq is returned to the pool (no later seq
		// exists yet — allocation is serialized here) and the
		// observation is not stored.
		s.walMu.Lock()
		if s.wal == nil { // closed under us; fall back to in-memory
			s.walMu.Unlock()
			seq = s.nextSeq.Add(1)
		} else {
			seq = s.nextSeq.Add(1)
			o.Seq = seq
			s.encBuf = appendObservation(s.encBuf[:0], o)
			if err := s.wal.Append(seq, s.encBuf); err != nil {
				s.nextSeq.Add(^uint64(0))
				s.walMu.Unlock()
				return sensor.Observation{}, err
			}
			s.walMu.Unlock()
		}
	} else {
		seq = s.nextSeq.Add(1)
	}
	o.Seq = seq
	sh := s.shardFor(o.SensorID)
	sh.mu.Lock()
	sh.insert(o)
	sh.mu.Unlock()
	s.gate.publish(seq)
	s.totalIngests.Add(1)
	s.notifyAppend(o)
	return o, nil
}

// AppendAll ingests a batch, stopping at the first error.
func (s *Store) AppendAll(obs []sensor.Observation) error {
	for _, o := range obs {
		if _, err := s.Append(o); err != nil {
			return err
		}
	}
	return nil
}

// Query returns the observations matching f in seq (insertion) order:
// the cold tier's matches behind its watermark, when one is attached,
// then the shards'.
func (s *Store) Query(f Filter) []sensor.Observation {
	t := s.coldTier()
	if t == nil {
		return s.queryShards(f)
	}
	var out []sensor.Observation
	hot, _ := union(s, t, f, func(o *sensor.Observation) bool {
		out = append(out, *o)
		return true
	}, s.queryShards)
	if out == nil {
		return hot
	}
	return append(out, hot...)
}

// queryShards is Query over the shards alone. Shards are scanned on a
// bounded worker pool and merged by seq; a sensor-scoped filter touches
// exactly the one shard that sensor hashes to.
func (s *Store) queryShards(f Filter) []sensor.Observation {
	vis := s.gate.visible.Load()
	if vis == 0 || (f.AfterSeq > 0 && f.AfterSeq >= vis) {
		return nil
	}
	spaceSet := spaceSetFor(f)
	if f.SensorID != "" {
		sh := s.shardFor(f.SensorID)
		if sh.timeDisjoint(f) {
			s.stripesPruned.Add(1)
			return nil
		}
		return sh.collect(f, vis, spaceSet, f.Limit)
	}
	if len(s.shards) == 1 {
		return s.shards[0].collect(f, vis, spaceSet, f.Limit)
	}
	if s.allDisjoint(f) {
		return nil
	}
	pages := make([][]sensor.Observation, len(s.shards))
	s.forEachShard(func(i int, sh *shard) {
		// Zone-map prune: a shard whose observed time range is disjoint
		// from the filter's window has no match; skip its lock and
		// indexes entirely.
		if sh.timeDisjoint(f) {
			s.stripesPruned.Add(1)
			return
		}
		pages[i] = sh.collect(f, vis, spaceSet, f.Limit)
	})
	return mergeBySeq(pages, f.Limit)
}

// Count returns the number of observations matching f, ignoring
// f.Limit.
func (s *Store) Count(f Filter) int {
	t := s.coldTier()
	if t == nil {
		return s.countShards(f)
	}
	f.Limit = 0
	cold := 0
	hot, _ := union(s, t, f, func(*sensor.Observation) bool {
		cold++
		return true
	}, s.countShards)
	return cold + hot
}

// countShards is Count over the shards alone.
func (s *Store) countShards(f Filter) int {
	vis := s.gate.visible.Load()
	if vis == 0 || (f.AfterSeq > 0 && f.AfterSeq >= vis) {
		return 0
	}
	spaceSet := spaceSetFor(f)
	if f.SensorID != "" {
		sh := s.shardFor(f.SensorID)
		if sh.timeDisjoint(f) {
			s.stripesPruned.Add(1)
			return 0
		}
		return sh.countMatches(f, vis, spaceSet)
	}
	if s.allDisjoint(f) {
		return 0
	}
	counts := make([]int, len(s.shards))
	s.forEachShard(func(i int, sh *shard) {
		if sh.timeDisjoint(f) {
			s.stripesPruned.Add(1)
			return
		}
		counts[i] = sh.countMatches(f, vis, spaceSet)
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

// allDisjoint reports whether every shard's zone map rules f out — the
// usual case for a read of sealed history once the shards hold only the
// hot window — so the read skips the worker pool altogether.
func (s *Store) allDisjoint(f Filter) bool {
	for _, sh := range s.shards {
		if !sh.timeDisjoint(f) {
			return false
		}
	}
	s.stripesPruned.Add(uint64(len(s.shards)))
	return true
}

func spaceSetFor(f Filter) map[string]bool {
	if len(f.SpaceIDs) == 0 {
		return nil
	}
	set := make(map[string]bool, len(f.SpaceIDs))
	for _, id := range f.SpaceIDs {
		set[id] = true
	}
	return set
}

func matches(o sensor.Observation, f Filter, spaceSet map[string]bool) bool {
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
	if spaceSet != nil && !spaceSet[o.SpaceID] {
		return false
	}
	return true
}

// Len returns the number of live observations, in the shards or
// behind the cold tier's watermark. The tier keeps its count current,
// so this stays a handful of lock acquisitions however long the
// history is.
func (s *Store) Len() int {
	t := s.coldTier()
	if t == nil {
		return s.Resident()
	}
	for {
		cold, split := t.ColdRows()
		hot := 0
		for _, sh := range s.shards {
			hot += sh.liveAbove(split)
		}
		// Same validation as union: an eviction past the split may have
		// emptied a shard of rows the cold count does not include.
		if s.evictedThrough.Load() <= split {
			return cold + hot
		}
	}
}

// Stats reports cumulative ingest and sweep counters plus the live
// count, for the retention experiment (E6).
type Stats struct {
	Live     int
	Ingested uint64
	Swept    uint64
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{Live: s.Len(), Ingested: s.totalIngests.Load(), Swept: s.totalSwept.Load()}
}

// SetDefaultRetention installs a default TTL applied to observations
// no rule matches. A zero duration with ok=false (via
// ClearDefaultRetention) restores keep-forever.
func (s *Store) SetDefaultRetention(ttl isodur.Duration) {
	s.retMu.Lock()
	defer s.retMu.Unlock()
	s.defaultTTL = ttl
	s.hasDefault = true
}

// ClearDefaultRetention removes the default TTL.
func (s *Store) ClearDefaultRetention() {
	s.retMu.Lock()
	defer s.retMu.Unlock()
	s.hasDefault = false
}

// AddRetentionRule installs a scoped retention rule. Rules are
// consulted in precedence order: sensor-specific, then kind-specific,
// then catch-all rules, then the default TTL.
func (s *Store) AddRetentionRule(r RetentionRule) {
	s.retMu.Lock()
	defer s.retMu.Unlock()
	s.rules = append(s.rules, r)
}

// RetentionRules returns a copy of the installed rules.
func (s *Store) RetentionRules() []RetentionRule {
	s.retMu.RLock()
	defer s.retMu.RUnlock()
	out := make([]RetentionRule, len(s.rules))
	copy(out, s.rules)
	return out
}

// expiry returns the expiry time for o, and whether any rule applies.
func (s *Store) expiry(o sensor.Observation) (time.Time, bool) {
	s.retMu.RLock()
	defer s.retMu.RUnlock()
	var best *RetentionRule
	bestRank := -1
	for i := range s.rules {
		r := &s.rules[i]
		if r.SensorID != "" && r.SensorID != o.SensorID {
			continue
		}
		if r.Kind != "" && r.Kind != o.Kind {
			continue
		}
		rank := 0
		if r.Kind != "" {
			rank = 1
		}
		if r.SensorID != "" {
			rank = 2
		}
		if rank > bestRank {
			bestRank = rank
			best = r
		}
	}
	if best != nil {
		return best.TTL.AddTo(o.Time), true
	}
	if s.hasDefault {
		return s.defaultTTL.AddTo(o.Time), true
	}
	return time.Time{}, false
}

// shortestTTL returns the shortest installed time-to-live (by Approx),
// and whether any rule or default applies at all.
func (s *Store) shortestTTL() (isodur.Duration, bool) {
	s.retMu.RLock()
	defer s.retMu.RUnlock()
	best, ok := s.defaultTTL, s.hasDefault
	for _, r := range s.rules {
		if !ok || r.TTL.Cmp(best) < 0 {
			best, ok = r.TTL, true
		}
	}
	return best, ok
}

// calendarSlack bounds how much longer isodur's Approx can be than the
// same duration applied to a real date (a 28-day February against the
// 30-day month, a 23-hour day): under three days in every case.
const calendarSlack = 4 * 24 * time.Hour

// Sweep deletes every observation whose retention expired at or
// before now, returning the number deleted. It is the storage-time
// enforcement pass; the BMS core runs it periodically. Shards sweep
// in parallel on the worker pool; rows behind the cold tier's
// watermark are condemned through a scan of the tier.
func (s *Store) Sweep(now time.Time) int {
	t0 := time.Now()
	defer s.sweepSeconds.ObserveSince(t0)
	ttl, ok := s.shortestTTL()
	if !ok {
		return 0
	}
	expired := func(o sensor.Observation) bool {
		exp, ok := s.expiry(o)
		return ok && !exp.After(now)
	}
	expiredCold := func(o *sensor.Observation) bool { return expired(*o) }
	// No rule is shorter than ttl, so nothing observed after now-ttl can
	// have expired: the tier skips those segments by their zone maps.
	cold := Filter{To: now.Add(calendarSlack - ttl.Approx())}
	collect := s.hasListener()
	total := s.deleteUnion(cold, false, expiredCold, func(split uint64) (int, []Deletion) {
		removed := make([]int, len(s.shards))
		dels := make([][]Deletion, len(s.shards))
		s.forEachShard(func(i int, sh *shard) {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			n := 0
			for seq, o := range sh.bySeq {
				if !expired(o) {
					continue
				}
				delete(sh.bySeq, seq)
				n++
				// A row at or below the split is the tier's to report; its
				// resident copy (not evicted yet) just goes.
				if seq > split {
					removed[i]++
					if collect {
						dels[i] = append(dels[i], deletionOf(o))
					}
				}
			}
			sh.dead += n
			// Compact index slices once tombstones dominate, keeping
			// query scans proportional to live data.
			if sh.dead > len(sh.bySeq) && sh.dead > s.compactMin {
				sh.compactLocked()
				s.compactions.Add(1)
			}
		})
		return flatten(removed, dels)
	})
	s.totalSwept.Add(uint64(total))
	// Durable mode: retention must reach the disk too. Sealed WAL
	// segments holding only dead records are deleted outright.
	if total > 0 && s.durable.Load() {
		s.pruneWAL()
	}
	return total
}

// flatten sums per-shard counts and concatenates per-shard deletions.
func flatten(removed []int, dels [][]Deletion) (int, []Deletion) {
	total := 0
	for _, n := range removed {
		total += n
	}
	var flat []Deletion
	for _, d := range dels {
		flat = append(flat, d...)
	}
	return total, flat
}

func deletionOf(o sensor.Observation) Deletion {
	return Deletion{
		Seq:      o.Seq,
		Time:     o.Time,
		SensorID: o.SensorID,
		SpaceID:  o.SpaceID,
		UserID:   o.UserID,
		Kind:     o.Kind,
	}
}

// DeleteUser removes every observation attributed to userID — from
// every shard and from behind the cold tier's watermark — supporting
// right-to-erasure style requests. It returns the number deleted.
func (s *Store) DeleteUser(userID string) int {
	collect := s.hasListener()
	all := func(*sensor.Observation) bool { return true }
	total := s.deleteUnion(Filter{UserID: userID}, true, all, func(split uint64) (int, []Deletion) {
		removed := make([]int, len(s.shards))
		dels := make([][]Deletion, len(s.shards))
		s.forEachShard(func(i int, sh *shard) {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			n := 0
			for _, seq := range sh.byUser[userID] {
				o, ok := sh.bySeq[seq]
				if !ok {
					continue
				}
				delete(sh.bySeq, seq)
				n++
				if seq > split { // at or below it the tier reports the row
					removed[i]++
					if collect {
						d := deletionOf(o)
						d.Erased = true
						dels[i] = append(dels[i], d)
					}
				}
			}
			delete(sh.byUser, userID)
			sh.dead += n
		})
		return flatten(removed, dels)
	})
	s.totalSwept.Add(uint64(total))
	// Erasure reaches disk like retention does; copies in the active
	// segment or the checkpoint leave at the next Checkpoint, copies in
	// the tier's segment files at its next compaction.
	if total > 0 && s.durable.Load() {
		s.pruneWAL()
	}
	return total
}

// SyncWAL forces the write-ahead log to disk (durable mode; no-op in
// memory mode). The columnar compactor calls it before cutting a
// segment so every row a segment ever holds is already durable —
// after a crash, recovery can never know fewer rows than the segment
// manifest does, which is what keeps the WAL → segment handoff free
// of lost or double-counted buckets.
func (s *Store) SyncWAL() error {
	if !s.durable.Load() {
		return nil
	}
	s.walMu.Lock()
	l := s.wal
	s.walMu.Unlock()
	if l == nil {
		return nil
	}
	return l.Sync()
}

// Users returns the distinct attributed user IDs present in the
// store, sorted. Inference experiments use it to enumerate subjects.
func (s *Store) Users() []string {
	seen := make(map[string]bool)
	note := func(o *sensor.Observation) bool {
		if o.UserID != "" {
			seen[o.UserID] = true
		}
		return true
	}
	if t := s.coldTier(); t != nil {
		// The tier's users come from a scan of its live rows, the shards'
		// from their index; a repeated round only re-adds names.
		union(s, t, Filter{}, note, func(tail Filter) struct{} {
			s.shardUsers(tail.AfterSeq, seen)
			return struct{}{}
		})
	} else {
		s.shardUsers(0, seen)
	}
	var out []string
	for u := range seen {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// shardUsers adds every user with a live row above split in any shard.
func (s *Store) shardUsers(split uint64, seen map[string]bool) {
	perShard := make([][]string, len(s.shards))
	s.forEachShard(func(i int, sh *shard) {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		for u, seqs := range sh.byUser {
			for j := len(seqs) - 1; j >= 0 && seqs[j] > split; j-- {
				if _, ok := sh.bySeq[seqs[j]]; ok {
					perShard[i] = append(perShard[i], u)
					break
				}
			}
		}
	})
	for _, users := range perShard {
		for _, u := range users {
			seen[u] = true
		}
	}
}
