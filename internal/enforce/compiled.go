package enforce

import (
	"fmt"
	"sync"
	"time"

	"github.com/tippers/tippers/internal/enforce/compiled"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/telemetry"
)

// Compiled is the production engine (§V.C): policy and preference
// documents are compiled at registration time into an indexed
// decision structure (internal/enforce/compiled) — candidate rules
// pre-bucketed by subject, observation kind, service, and purpose,
// candidate sets intersected as bitsets over a dense rule-ID space,
// scope conditions flattened into instruction programs with spatial
// containment precomputed. Decide touches only the handful of rules
// that can match, so decision cost stays flat from 10 to 1,000,000
// registered preferences; BenchmarkCompiledDecide gates that flatness
// in CI.
//
// The engine carries a decision memo. Real request streams are
// heavily repetitive (the same service polls the same subjects), so
// even compiled matching re-evaluates identical tuples; the memo
// collapses those to a map hit. Override decisions are replayed like
// any other: a decision has no side effect, and the node derives the
// subject's notification from Overridden whether or not it was a hit.
// Its correctness constraints are load-bearing:
//
//   - Time-windowed rules make decisions time-dependent, so the key
//     carries the instant's window class in the subject's domain
//     (Domain): an entry is valid for every instant of its class, so a
//     stream replay or a scan of old rows hits as often as a read of
//     the present. How long an entry lives is another matter: the memo
//     holds what was stored during one minute of the node's clock
//     (SetClock). The first store after that clock enters a new minute
//     drops every entry, so memory follows the working set of a
//     minute, and while the clock reads behind the minute the entries
//     belong to, nothing is stored.
//   - A decision computed under the read lock is stored only if the
//     epoch read before deciding still stands.
//
// Every mutation recompiles incrementally (only the touched rule) and
// bumps the epoch, ageing the memo in the same critical section as
// narrowly as the rule change reaches: a preference write ages its
// owner's entries (both owners, when a preference ID is re-registered
// under another user), a policy write ages everyone's. Ownership is
// the whole dependency — Decide selects preference candidates from
// the subject's own bucket, the group defaults and the service
// registry are fixed at construction, and a subject's domain moves
// only with their own preferences and the policies — so no window
// exists where a decision compiled against old rules can be served
// after the mutation returns. This memo is the node's only
// cross-request decision cache; anything else that holds
// decision-derived state (core's occupancy answer cache) validates it
// against Epoch, which moves on every mutation whatever its reach.
type Compiled struct {
	eval evaluator

	mu    sync.RWMutex
	ix    *compiled.Index
	epoch uint64
	// shared is every subject's part of the class domain: the windows
	// of the group defaults and the override policies. AddPolicy
	// replaces it rather than writing to it.
	shared []policy.DailyWindow
	memo   decisionMemo // empty when the memo is disabled
	// clock is the node's clock, and minute the minute of it during
	// which every memo entry was stored.
	clock  func() time.Time
	minute int64
	// aged maps a subject to the epoch of the last preference write
	// that owned it. The value is folded into the memo key, so entries
	// stored before that write stop matching without the map being
	// searched for them; they leave with the minute. It only has to
	// tell apart entries that coexist, so it is cleared with the memo.
	aged map[string]uint64

	// maxEntries bounds memo memory; at the cap the memo is reset
	// (simple and effective for cyclic workloads). 0 means disabled.
	maxEntries int
	hits       *telemetry.Counter
	miss       *telemetry.Counter
	// Memo invalidations by reach: one owner, everyone (a policy write
	// or the entry cap), the node clock's new minute.
	agedSubject, agedAll, agedMinute *telemetry.Counter
}

// decisionMemo maps a memo key to its decision. The decisions live in
// chunks of memoChunk rather than in the map: a Decision is larger than
// a map slot holds inline, so a map of them allocated every entry on
// its own.
type decisionMemo struct {
	index  map[cacheKey]int32
	chunks []*[memoChunk]Decision
	// used counts the slots handed out, including any a racing re-insert
	// of the same key orphaned.
	used int32
}

const memoChunk = 64

func (m *decisionMemo) get(key cacheKey) (Decision, bool) {
	i, ok := m.index[key]
	if !ok {
		return Decision{}, false
	}
	return m.chunks[i/memoChunk][i%memoChunk], true
}

func (m *decisionMemo) put(key cacheKey, d Decision) {
	i := m.used
	if int(i/memoChunk) == len(m.chunks) {
		m.chunks = append(m.chunks, new([memoChunk]Decision))
	}
	m.chunks[i/memoChunk][i%memoChunk] = d
	m.index[key] = i
	m.used++
}

// drop empties the memo. The index keeps its buckets for the next
// minute's entries. Every chunk but the first is let go, so a memo that
// emptied holds at most one chunk, and a minute of a few decisions —
// common on a node that mostly ingests — allocates none.
func (m *decisionMemo) drop() {
	clear(m.index)
	if len(m.chunks) > 0 {
		clear(m.chunks[0][:min(m.used, memoChunk)])
		clear(m.chunks[1:])
		m.chunks = m.chunks[:1]
	}
	m.used = 0
}

type cacheKey struct {
	aged uint64
	// class indexes the subject's domain, which aged and the memo's drop
	// on every policy write keep fixed for as long as an entry can be
	// found.
	class       Class
	subject     string
	service     string
	purpose     policy.Purpose
	kind        string
	space       string
	granularity policy.Granularity
	groupsKey   string
}

var _ Engine = (*Compiled)(nil)

// NewCompiled returns a compiled engine with the default decision
// memo (65536 entries).
func NewCompiled(cfg Config) *Compiled { return NewCompiledMemo(cfg, 0) }

// NewCompiledMemo returns a compiled engine with a decision memo of
// at most maxEntries: 0 selects the 65536 default, negative disables
// the memo entirely so every Decide re-runs candidate selection and
// program evaluation (the flatness benchmark and the naive-
// equivalence properties measure this raw path).
func NewCompiledMemo(cfg Config, maxEntries int) *Compiled {
	c := &Compiled{
		eval:  evaluator{cfg: cfg},
		ix:    compiled.NewIndex(cfg.Spaces),
		clock: time.Now,
		hits:  telemetry.NewCounter(),
		miss:  telemetry.NewCounter(),

		agedSubject: telemetry.NewCounter(),
		agedAll:     telemetry.NewCounter(),
		agedMinute:  telemetry.NewCounter(),
	}
	c.shared = c.eval.sharedWindows(nil)
	if maxEntries == 0 {
		maxEntries = 65536
	}
	if maxEntries > 0 {
		c.maxEntries = maxEntries
		c.memo.index = make(map[cacheKey]int32)
		c.aged = make(map[string]uint64)
	}
	return c
}

// New constructs an engine by flavor name: "compiled" (or "") is the
// default memoized compiled engine and "naive" is the scan-everything
// reference engine tests and bench/ compare it against.
func New(flavor string, cfg Config) (Engine, error) {
	switch flavor {
	case "", "compiled":
		return NewCompiled(cfg), nil
	case "naive":
		return NewNaive(cfg), nil
	default:
		return nil, fmt.Errorf("enforce: unknown engine flavor %q (want compiled or naive)", flavor)
	}
}

// AddPolicy implements Engine, compiling the policy and ageing every
// subject's memo entries atomically.
func (c *Compiled) AddPolicy(p policy.BuildingPolicy) error {
	if err := p.Check(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ix.AddPolicy(p)
	if p.Override && p.GovernsDataFlows() {
		c.shared = addWindow(c.shared, p.Scope.Window)
	}
	c.epoch++
	c.dropMemoLocked(c.agedAll)
	return nil
}

// AddPreference implements Engine, compiling the preference and
// ageing its owner's memo entries atomically — and the previous
// owner's, when the ID was registered to someone else.
func (c *Compiled) AddPreference(p policy.Preference) error {
	if err := p.Check(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	replaced := c.ix.AddPreference(p)
	c.epoch++
	c.ageSubjectLocked(p.UserID)
	if replaced != "" && replaced != p.UserID {
		c.ageSubjectLocked(replaced)
	}
	return nil
}

// RemovePreference implements Engine.
func (c *Compiled) RemovePreference(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	owner, ok := c.ix.RemovePreference(id)
	if !ok {
		return false
	}
	c.epoch++
	c.ageSubjectLocked(owner)
	return true
}

// Counts implements Engine.
func (c *Compiled) Counts() (int, int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ix.Counts()
}

// Epoch implements Engine.
func (c *Compiled) Epoch() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// ageSubjectLocked makes owner's memo entries unreachable after the
// epoch moved for a write to one of their preferences. With nothing
// memoized there is nothing to tell apart.
func (c *Compiled) ageSubjectLocked(owner string) {
	if len(c.memo.index) == 0 {
		return
	}
	c.aged[owner] = c.epoch
	c.agedSubject.Inc()
}

// dropMemoLocked empties the memo and counts the invalidation under
// reason.
func (c *Compiled) dropMemoLocked(reason *telemetry.Counter) {
	if len(c.memo.index) == 0 {
		return
	}
	c.memo.drop()
	clear(c.aged)
	reason.Inc()
}

// Stats returns memo (hits, misses) since construction.
func (c *Compiled) Stats() (hits, misses uint64) {
	return c.hits.Value(), c.miss.Value()
}

// RegisterMetrics exposes the memo's hit/miss and invalidation
// counters and the compiled state's sizes on a telemetry registry. The
// cache metric names predate the compiled engine and are kept stable
// for dashboards.
func (c *Compiled) RegisterMetrics(r *telemetry.Registry) {
	r.CounterFunc("tippers_enforce_cache_hits_total",
		"Decision-memo hits.", func() float64 { return float64(c.hits.Value()) })
	r.CounterFunc("tippers_enforce_cache_misses_total",
		"Decision-memo misses (compiled matcher consulted).", func() float64 { return float64(c.miss.Value()) })
	for scope, n := range map[string]*telemetry.Counter{"subject": c.agedSubject, "all": c.agedAll, "minute": c.agedMinute} {
		r.CounterFuncWith("tippers_enforce_memo_invalidations_total",
			"Decision-memo invalidations by reach: subject (a preference write aged its owner), all (a policy write or the entry cap dropped every entry), minute (the node's clock entered a new minute).",
			telemetry.Labels{"scope": scope}, func() float64 { return float64(n.Value()) })
	}
	r.GaugeFunc("tippers_enforce_cache_entries",
		"Memoized decisions currently held.", func() float64 {
			c.mu.RLock()
			defer c.mu.RUnlock()
			return float64(len(c.memo.index))
		})
	r.GaugeFunc("tippers_enforce_cache_hit_ratio",
		"Fraction of decisions served from the memo.", func() float64 {
			h, m := c.hits.Value(), c.miss.Value()
			if h+m == 0 {
				return 0
			}
			return float64(h) / float64(h+m)
		})
	r.GaugeFunc("tippers_enforce_compiled_preference_programs",
		"Preference rules currently compiled into the decision index.", func() float64 {
			c.mu.RLock()
			defer c.mu.RUnlock()
			return float64(c.ix.Stats().PreferencePrograms)
		})
	r.GaugeFunc("tippers_enforce_compiled_override_programs",
		"Override policies currently compiled into the decision index.", func() float64 {
			c.mu.RLock()
			defer c.mu.RUnlock()
			return float64(c.ix.Stats().OverridePrograms)
		})
}

// SetClock sets the node clock the memo's lifetime runs on (default
// time.Now). Call it before the engine decides.
func (c *Compiled) SetClock(clock func() time.Time) { c.clock = clock }

// Domain implements Engine.
func (c *Compiled) Domain(subjectID string) Domain {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.domainLocked(subjectID)
}

func (c *Compiled) domainLocked(subjectID string) Domain {
	return Domain{own: c.ix.Windows(subjectID), shared: c.shared}
}

// Decide implements Engine: memo lookup, then candidate selection by
// bitset intersection and program evaluation, sharing the decision
// pipeline (prepare/finish) with Naive.
func (c *Compiled) Decide(req Request, subjectGroups []profile.Group) Decision {
	// maxEntries is immutable after construction, so it is the
	// memo-enabled discriminator that needs no lock.
	if c.maxEntries == 0 {
		c.mu.RLock()
		d := c.decideLocked(req, subjectGroups)
		c.mu.RUnlock()
		return d
	}

	req.Time = instant(req.Time)
	key := cacheKey{
		subject:     req.SubjectID,
		service:     req.ServiceID,
		purpose:     req.Purpose,
		kind:        string(req.Kind),
		space:       req.SpaceID,
		granularity: req.Granularity,
		groupsKey:   memoGroupsKey(subjectGroups),
	}
	c.mu.RLock()
	epoch := c.epoch
	key.class = c.domainLocked(req.SubjectID).Class(req.Time)
	key.aged = c.aged[req.SubjectID]
	if d, ok := c.memo.get(key); ok {
		c.mu.RUnlock()
		c.hits.Inc()
		d.FromCache = true
		return d
	}
	d := c.decideLocked(req, subjectGroups)
	c.mu.RUnlock()

	c.miss.Inc()
	minute := c.clock().Unix() / 60
	c.mu.Lock()
	if epoch == c.epoch && minute >= c.minute {
		if minute > c.minute {
			c.dropMemoLocked(c.agedMinute)
			c.minute = minute
		} else if int(c.memo.used) >= c.maxEntries {
			c.dropMemoLocked(c.agedAll)
		}
		// Read again: a drop since the lookup cleared it.
		key.aged = c.aged[req.SubjectID]
		c.memo.put(key, d)
	}
	c.mu.Unlock()
	return d
}

// memoGroupsKey folds the subject's groups into the memo key. The
// common one-group subject reuses the group's own string, so a memo
// hit allocates nothing.
func memoGroupsKey(groups []profile.Group) string {
	if len(groups) == 1 {
		return string(groups[0])
	}
	var key string
	for _, g := range groups {
		key += string(g) + "|"
	}
	return key
}

// matchScratch recycles the matched-preference buffer across decides.
// Decides run concurrently under the read lock, so the scratch is
// pooled rather than hung off the engine. The finish pipeline copies
// what it needs out of the matched slice and never retains it.
var matchScratch = sync.Pool{
	New: func() any { return &matchBuf{prefs: make([]compiled.Matched, 0, 8)} },
}

type matchBuf struct{ prefs []compiled.Matched }

// decideLocked runs the compiled decision under the read lock.
func (c *Compiled) decideLocked(req Request, subjectGroups []profile.Group) Decision {
	cands := c.ix.PrefCandidates(req.SubjectID, req.Kind, req.ServiceID, make([]uint32, 0, 16))
	ovCands := c.ix.OverrideCandidates(req.Kind, req.Purpose, nil)
	d := Decision{
		PoliciesConsulted:    len(ovCands),
		PreferencesConsulted: len(cands),
	}
	p, ok := c.eval.prepare(req, subjectGroups, &d)
	if !ok {
		return d
	}
	buf := matchScratch.Get().(*matchBuf)
	matched := c.ix.MatchPrefs(cands, &p.ctx, buf.prefs[:0])
	d = c.eval.finish(p, d, matched, func() *policy.BuildingPolicy {
		return c.ix.MatchOverride(ovCands, &p.ctx)
	})
	buf.prefs = matched[:0]
	matchScratch.Put(buf)
	return d
}

// EngineName returns a short flavor name for an engine ("naive",
// "compiled", "compiled-nomemo"), used as a metric label and in
// decision traces.
func EngineName(e Engine) string {
	if s, ok := e.(fmt.Stringer); ok {
		return s.String()
	}
	return fmt.Sprintf("%T", e)
}

// String identifies the engine in experiment output.
func (c *Compiled) String() string {
	if c.maxEntries == 0 {
		return "compiled-nomemo"
	}
	return "compiled"
}
