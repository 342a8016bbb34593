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
// collapses those to a map hit. Its correctness constraints are
// load-bearing:
//
//   - Time-windowed rules make decisions time-dependent, so the memo
//     key quantizes the request time to the minute (windows have
//     minute resolution). Two requests in the same minute are
//     guaranteed identical decisions; across minutes they
//     re-evaluate.
//   - Decisions that generated notifications are never memoized:
//     replaying them would either duplicate user notifications or
//     silently swallow them. Override paths always re-decide.
//
// Every mutation recompiles incrementally (only the touched rule) and
// bumps the epoch, dropping the memo in the same critical section —
// no window exists where a decision compiled against old rules can be
// served after the mutation returns. This memo is the node's only
// cross-request decision cache; anything else that holds
// decision-derived state (core's occupancy answer cache) validates it
// against Epoch.
type Compiled struct {
	eval evaluator

	mu    sync.RWMutex
	ix    *compiled.Index
	epoch uint64
	memo  map[cacheKey]Decision // nil when the memo is disabled

	// maxEntries bounds memo memory; at the cap the memo is reset
	// (simple and effective for cyclic workloads). 0 means disabled.
	maxEntries int
	hits       *telemetry.Counter
	miss       *telemetry.Counter
}

type cacheKey struct {
	epoch       uint64
	subject     string
	service     string
	purpose     policy.Purpose
	kind        string
	space       string
	granularity policy.Granularity
	minute      int64
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
		eval: evaluator{cfg: cfg},
		ix:   compiled.NewIndex(cfg.Spaces),
		hits: telemetry.NewCounter(),
		miss: telemetry.NewCounter(),
	}
	if maxEntries == 0 {
		maxEntries = 65536
	}
	if maxEntries > 0 {
		c.maxEntries = maxEntries
		c.memo = make(map[cacheKey]Decision)
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

// AddPolicy implements Engine, compiling the policy and invalidating
// the memo atomically.
func (c *Compiled) AddPolicy(p policy.BuildingPolicy) error {
	if err := p.Check(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ix.AddPolicy(p)
	c.invalidateLocked()
	return nil
}

// AddPreference implements Engine, compiling the preference and
// invalidating the memo atomically.
func (c *Compiled) AddPreference(p policy.Preference) error {
	if err := p.Check(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ix.AddPreference(p)
	c.invalidateLocked()
	return nil
}

// RemovePreference implements Engine.
func (c *Compiled) RemovePreference(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.ix.RemovePreference(id) {
		return false
	}
	c.invalidateLocked()
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

func (c *Compiled) invalidateLocked() {
	c.epoch++
	if len(c.memo) > 0 {
		c.memo = make(map[cacheKey]Decision)
	}
}

// Stats returns memo (hits, misses) since construction.
func (c *Compiled) Stats() (hits, misses uint64) {
	return c.hits.Value(), c.miss.Value()
}

// RegisterMetrics exposes the memo's hit/miss counters and the
// compiled state's sizes on a telemetry registry. The cache metric
// names predate the compiled engine and are kept stable for
// dashboards.
func (c *Compiled) RegisterMetrics(r *telemetry.Registry) {
	r.CounterFunc("tippers_enforce_cache_hits_total",
		"Decision-memo hits.", func() float64 { return float64(c.hits.Value()) })
	r.CounterFunc("tippers_enforce_cache_misses_total",
		"Decision-memo misses (compiled matcher consulted).", func() float64 { return float64(c.miss.Value()) })
	r.GaugeFunc("tippers_enforce_cache_entries",
		"Memoized decisions currently held.", func() float64 {
			c.mu.RLock()
			defer c.mu.RUnlock()
			return float64(len(c.memo))
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

// Decide implements Engine: memo lookup, then candidate selection by
// bitset intersection and program evaluation, sharing the decision
// pipeline (prepare/finish) with Naive.
func (c *Compiled) Decide(req Request, subjectGroups []profile.Group) Decision {
	// maxEntries is immutable after construction, so it is the
	// race-free memo-enabled discriminator (the memo map itself is
	// replaced under the write lock).
	if c.maxEntries == 0 {
		c.mu.RLock()
		d := c.decideLocked(req, subjectGroups)
		c.mu.RUnlock()
		return d
	}

	t := req.Time
	if t.IsZero() {
		// An unset time means "now"; quantize the actual wall clock so
		// entries age out of validity with it.
		t = time.Now()
	}
	groupsKey := memoGroupsKey(subjectGroups)
	c.mu.RLock()
	key := cacheKey{
		epoch:       c.epoch,
		subject:     req.SubjectID,
		service:     req.ServiceID,
		purpose:     req.Purpose,
		kind:        string(req.Kind),
		space:       req.SpaceID,
		granularity: req.Granularity,
		minute:      t.Unix() / 60,
		groupsKey:   groupsKey,
	}
	if d, ok := c.memo[key]; ok {
		c.mu.RUnlock()
		c.hits.Inc()
		d.FromCache = true
		return d
	}
	d := c.decideLocked(req, subjectGroups)
	c.mu.RUnlock()

	c.miss.Inc()
	// Only notification-free decisions are safe to replay.
	if len(d.Notifications) == 0 {
		c.mu.Lock()
		if key.epoch == c.epoch {
			if len(c.memo) >= c.maxEntries {
				c.memo = make(map[cacheKey]Decision)
			}
			c.memo[key] = d
		}
		c.mu.Unlock()
	}
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
