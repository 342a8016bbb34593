package core

import (
	"context"
	"sync"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/telemetry"
)

// This file implements decision traces: span-like records of each
// query-time enforcement decision the Request Manager makes. Where
// the audit (audit.go) answers "what *would* the building release
// about me right now?", a trace answers "what *did* it release, to
// whom, under which rules, and how long did each stage take?" —
// the enforcement-side evidence trail the paper's transparency goal
// implies. Traces are kept in a bounded ring buffer and surfaced
// through Response, the audit report, and the HTTP API.

// Stage is one timed phase of handling a request. The constants run in
// the order a request runs its stages, so walking a StageClock lists
// them in request order.
type Stage uint8

const (
	StageParse Stage = iota
	StagePlan
	StageExecute
	StageCache
	StageDecide
	StageFetch
	StageDecideSubjects
	StageApply
	StageAggregate
	NumStages
)

var stageNames = [NumStages]string{"parse", "plan", "execute", "cache", "decide", "fetch", "decide-subjects", "apply", "aggregate"}

// String is the stage's name on the wire and in metric labels.
func (s Stage) String() string { return stageNames[s] }

// StageTime is one stage's share of a request: the time it took, summed
// over the times it ran.
type StageTime struct {
	Nanos int64
	Calls int32
}

// Duration is the stage's accumulated time.
func (s StageTime) Duration() time.Duration { return time.Duration(s.Nanos) }

// StageClock is a request's per-stage time, indexed by Stage. It is an
// array rather than a list so timing a request allocates nothing; a
// stage with no calls did not run.
type StageClock [NumStages]StageTime

func (c *StageClock) add(s Stage, d time.Duration) {
	c[s].Nanos += int64(d)
	c[s].Calls++
}

// pathStages lists the stages each request path can run. Each pair has
// its tippers_request_stage_seconds histogram, resolved at construction.
var pathStages = map[string][]Stage{
	"user":      {StageDecide, StageFetch, StageApply},
	"occupancy": {StageCache, StageFetch, StageDecideSubjects, StageAggregate},
	"query":     {StageParse, StagePlan, StageExecute},
}

// DecisionTrace is the span-like record of one enforcement decision.
type DecisionTrace struct {
	// ID is a monotonically increasing sequence number per BMS.
	ID   uint64    `json:"id"`
	Time time.Time `json:"time"`
	// TraceID joins this decision to its pipeline trace (GET
	// /v1/traces/{id}) when the request carried a span context; empty
	// otherwise.
	TraceID string `json:"trace_id,omitempty"`
	// Path is the request path: "user" or "occupancy".
	Path      string `json:"path"`
	ServiceID string `json:"service_id,omitempty"`
	SubjectID string `json:"subject_id,omitempty"`
	ObsKind   string `json:"obs_kind,omitempty"`
	Purpose   string `json:"purpose,omitempty"`
	// Engine is the enforcement engine flavor that decided
	// ("compiled", "compiled-nomemo", "naive", ...).
	Engine  string `json:"engine"`
	Allowed bool   `json:"allowed"`
	// DenyReason explains a denial (including post-decision denials
	// such as an unmet aggregation floor).
	DenyReason string `json:"deny_reason,omitempty"`
	// Granularity is the release precision the decision chose.
	Granularity string `json:"granularity,omitempty"`
	// CacheHit reports the decision was replayed from the memoizing
	// engine's cache.
	CacheHit bool `json:"cache_hit"`
	// MatchedPolicies names building policies that decided the flow
	// (today: the safety-critical override policy, when one fired).
	MatchedPolicies []string `json:"matched_policies,omitempty"`
	// MatchedPreferences / MatchedDefaults name the subject rules the
	// engine matched.
	MatchedPreferences []string `json:"matched_preferences,omitempty"`
	MatchedDefaults    []string `json:"matched_defaults,omitempty"`
	// Overridden names preferences a safety-critical policy beat.
	Overridden []string `json:"overridden,omitempty"`
	// SubjectsConsidered / SubjectsReleased report occupancy-path
	// coverage.
	SubjectsConsidered int `json:"subjects_considered,omitempty"`
	SubjectsReleased   int `json:"subjects_released,omitempty"`
	// ObservationsReleased counts records that left the store after
	// degradation.
	ObservationsReleased int `json:"observations_released,omitempty"`
	// ObservationsScanned counts the rows the request's store scan
	// visited. K is the aggregation floor an occupancy answer applied,
	// Spaces the spaces it released and SpacesSuppressed those it
	// withheld below K (zero on a cache hit, which withheld none anew).
	// Table is the relation a SQL query read.
	ObservationsScanned int    `json:"observations_scanned,omitempty"`
	K                   int    `json:"k,omitempty"`
	Spaces              int    `json:"spaces,omitempty"`
	SpacesSuppressed    int    `json:"spaces_suppressed,omitempty"`
	Table               string `json:"table,omitempty"`
	// PlanCached reports that a SQL query's plan was bound to the
	// template its statement's shape had compiled to, not parsed and
	// compiled afresh.
	PlanCached bool `json:"plan_cached,omitempty"`
	// Stages are the per-phase timings.
	Stages StageClock `json:"stages"`
	// TotalMicros is the end-to-end request latency in microseconds.
	TotalMicros int64 `json:"total_us"`
}

// joinSpanContext stamps the pipeline trace ID onto the decision
// trace when ctx carries a sampled one. Unsampled requests skip the
// join: their ID resolves to no retained spans, and rendering it
// would put a hex conversion on every request's hot path.
func (t *DecisionTrace) joinSpanContext(ctx context.Context) {
	if sc, ok := telemetry.SpanContextFrom(ctx); ok && sc.Sampled && sc.Valid() {
		t.TraceID = sc.TraceID.String()
	}
}

// fromDecision copies the decision's rule-matching evidence into the
// trace.
func (t *DecisionTrace) fromDecision(d enforce.Decision) {
	t.Allowed = d.Allowed
	t.DenyReason = d.DenyReason
	t.CacheHit = d.FromCache
	if d.Allowed {
		t.Granularity = d.Granularity.String()
	}
	if d.OverridePolicyID != "" {
		t.MatchedPolicies = append(t.MatchedPolicies, d.OverridePolicyID)
	}
	t.MatchedPreferences = append(t.MatchedPreferences, d.MatchedPreferences...)
	t.MatchedDefaults = append(t.MatchedDefaults, d.MatchedDefaults...)
	t.Overridden = append(t.Overridden, d.Overridden...)
}

// traceRing is a fixed-capacity ring buffer of recent traces.
type traceRing struct {
	mu   sync.Mutex
	buf  []DecisionTrace
	next int // index of the slot the next record lands in
	full bool
	seq  uint64
}

func newTraceRing(capacity int) *traceRing {
	if capacity <= 0 {
		capacity = 256
	}
	return &traceRing{buf: make([]DecisionTrace, capacity)}
}

// record assigns the trace its sequence number and stores it.
func (r *traceRing) record(t *DecisionTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	t.ID = r.seq
	r.buf[r.next] = *t
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// forget drops every retained trace naming subjectID, keeping the rest
// in order.
func (r *traceRing) forget(subjectID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := r.next
	if r.full {
		size = len(r.buf)
	}
	kept := make([]DecisionTrace, len(r.buf))
	n := 0
	for i := size; i >= 1; i-- {
		if t := &r.buf[(r.next-i+len(r.buf))%len(r.buf)]; t.SubjectID != subjectID {
			kept[n] = *t
			n++
		}
	}
	r.buf, r.next, r.full = kept, n%len(kept), n == len(kept)
}

// recent returns up to n traces, newest first. n <= 0 means all
// retained traces.
func (r *traceRing) recent(n int, match func(DecisionTrace) bool) []DecisionTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := r.next
	if r.full {
		size = len(r.buf)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]DecisionTrace, 0, n)
	for i := 1; i <= size && len(out) < n; i++ {
		idx := (r.next - i + len(r.buf)) % len(r.buf)
		t := r.buf[idx]
		if match == nil || match(t) {
			out = append(out, t)
		}
	}
	return out
}

// newTrace starts a trace for a request on path, a key of pathStages.
func (b *BMS) newTrace(path string, req enforce.Request) DecisionTrace {
	return DecisionTrace{
		Time:      b.clock(),
		Path:      path,
		ServiceID: req.ServiceID,
		SubjectID: req.SubjectID,
		ObsKind:   string(req.Kind),
		Purpose:   string(req.Purpose),
		Engine:    enforce.EngineName(b.engine),
	}
}

// finishTrace stamps the total latency, observes each stage that ran
// on its histogram, records the trace in the ring, and returns it.
func (b *BMS) finishTrace(t *DecisionTrace, started time.Time) DecisionTrace {
	t.TotalMicros = time.Since(started).Microseconds()
	hists := b.met.stages[t.Path]
	for s := range t.Stages {
		if st := &t.Stages[s]; st.Calls > 0 {
			hists[s].Observe(st.Duration().Seconds())
		}
	}
	b.traces.record(t)
	return *t
}

// RecentTraces returns up to n decision traces, newest first (n <= 0
// returns all retained traces).
func (b *BMS) RecentTraces(n int) []DecisionTrace {
	return b.traces.recent(n, nil)
}

// TracesForSubject returns up to n retained traces whose subject is
// userID, newest first.
func (b *BMS) TracesForSubject(userID string, n int) []DecisionTrace {
	return b.traces.recent(n, func(t DecisionTrace) bool { return t.SubjectID == userID })
}
