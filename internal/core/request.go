package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/query"
	"github.com/tippers/tippers/internal/sensor"
)

// Response is the request manager's answer to a service (Figure 1
// step 10): the decision that was applied plus whatever data it
// permitted.
type Response struct {
	Decision enforce.Decision
	// Observations are the released (possibly degraded) observations
	// for per-subject requests.
	Observations []sensor.Observation
	// Aggregates are k-anonymous per-space counts for occupancy
	// requests.
	Aggregates []privacy.AggregateCount
	// SubjectsConsidered and SubjectsReleased report coverage of
	// aggregate requests.
	SubjectsConsidered int
	SubjectsReleased   int
	// Trace is the span-like record of this request's enforcement
	// decision (matched rules, stage timings); also retained in the
	// BMS trace ring. Its ID is 0 when the request recorded none.
	Trace DecisionTrace
}

// RequestUser is the request manager's single-subject path (Figure 1
// steps 9–10): a service asks for one user's observations. The
// decision is made against the subject's preferences and the
// building's policies; released data is degraded per the effective
// rule; override notifications are delivered to the subject's inbox.
func (b *BMS) RequestUser(req enforce.Request) (Response, error) {
	return b.RequestUserCtx(context.Background(), req)
}

// RequestUserCtx is RequestUser continuing the trace carried by ctx:
// RequestUserEach with the released rows collected into
// Response.Observations.
func (b *BMS) RequestUserCtx(ctx context.Context, req enforce.Request) (Response, error) {
	var obs []sensor.Observation
	resp, err := b.RequestUserEach(ctx, req, func(o *sensor.Observation) { obs = append(obs, *o) })
	if err != nil {
		return Response{}, err
	}
	resp.Observations = obs
	return resp, nil
}

// RequestUserEach is the single-subject path streamed: the query
// executor's scan (query.ReadRows) judges each row at its capture time
// and the request's kind and space, degrades it and hands it to emit,
// which copies what it keeps, so no row is collected on the way. Rows
// are decided once per window class of their capture times
// (enforce.Domain); the decision at the request's own instant serves
// its class and is Response.Decision. Response.Observations stays nil.
// On an error, rows already emitted must be discarded.
//
// The decision trace is stamped with the trace ID ctx carries, so
// `iotactl trace` can join it to the request's server span. Its stages
// are decide, fetch, apply: apply is summed over the rows, and fetch is
// the scan's time less apply (emit's time included).
func (b *BMS) RequestUserEach(ctx context.Context, req enforce.Request, emit func(*sensor.Observation)) (Response, error) {
	if req.SubjectID == "" {
		return Response{}, fmt.Errorf("core: RequestUser needs a subject")
	}
	if req.Time.IsZero() {
		// Unset means now on the deployment's clock, resolved once here
		// so every stage reads the same instant; the engine's own
		// fallback is the wall clock.
		req.Time = b.clock()
	}
	started := time.Now()
	defer b.met.requestUser.ObserveSince(started)
	tr := b.newTrace("user", req)
	tr.joinSpanContext(ctx)

	t0 := time.Now()
	// The domain is read first: a decision made after it is under the
	// rules it describes or newer ones.
	domain := b.engine.Domain(req.SubjectID)
	d := b.decide(req)
	tr.Stages.add(StageDecide, time.Since(t0))
	tr.fromDecision(d)
	floor := d.Allowed && d.Effective.MinAggregationK > 1
	if floor {
		// A single-subject release can never satisfy a k>1 aggregation
		// floor; the data path returns nothing rather than leaking an
		// individual record.
		d.DenyReason = fmt.Sprintf("subject requires aggregation over >= %d users", d.Effective.MinAggregationK)
		tr.Allowed, tr.DenyReason = false, d.DenyReason
	}
	if domain.Empty() && (!d.Allowed || floor) {
		// Every row would be judged by this decision.
		return Response{Decision: d, Trace: b.finishTrace(&tr, started)}, nil
	}
	t0 = time.Now()
	st, err := query.ReadRows(b.qenv, req, b.filterFor(req), domain, d, emit)
	fetch := time.Since(t0)
	if err != nil {
		return Response{}, err
	}
	tr.Stages.add(StageFetch, fetch-st.Apply)
	tr.Stages.add(StageApply, st.Apply)
	tr.ObservationsScanned, tr.ObservationsReleased = st.ScannedRows, st.ReleasedRows
	return Response{Decision: d, Trace: b.finishTrace(&tr, started)}, nil
}

// RequestOccupancy is the aggregate path: a service asks how many
// people are in each space under the request's scope. The query
// executor's scan and occupancy sink (query.ReadOccupancy) decide each
// subject once per window class, at the request's kind and space; the
// counts are k-anonymized with k at least minK and every permitted
// subject's floor.
func (b *BMS) RequestOccupancy(req enforce.Request, minK int) (Response, error) {
	return b.RequestOccupancyCtx(context.Background(), req, minK)
}

// RequestOccupancyCtx is RequestOccupancy joined to the trace carried by
// ctx. A miss's stages are fetch, decide-subjects and aggregate: the
// scan's time in the engine and in the data path is decide-subjects,
// the cut at k aggregate, and the rest of the scan fetch.
func (b *BMS) RequestOccupancyCtx(ctx context.Context, req enforce.Request, minK int) (Response, error) {
	if minK < 1 {
		minK = 1
	}
	if req.Time.IsZero() {
		req.Time = b.clock() // as in RequestUserEach
	}
	started := time.Now()
	defer b.met.requestOccup.ObserveSince(started)
	if b.transf == nil {
		// Rejected here, before any stage runs, not per released subject.
		return Response{}, errors.New("core: nil transformer")
	}
	tr := b.newTrace("occupancy", req)
	tr.joinSpanContext(ctx)

	// Answers are memoized post-enforcement, pinned to the occVersion
	// they were computed under: a rule change, a new observation or a
	// deletion invalidates the hit, so a repeated dashboard poll costs a
	// map lookup instead of a scan and its decisions. A subject, seq
	// cursor or page limit narrows the fetch without being in the key:
	// no lookup, no store.
	var (
		cacheKey string
		version  occVersion
	)
	if req.SubjectID == "" && req.AfterSeq == 0 && req.Limit == 0 {
		cacheKey = occCacheKey(req, minK)
		version = b.occVersion()
		if a, ok := b.occCache.get(cacheKey, version); ok {
			tr.Stages.add(StageCache, time.Since(started))
			resp := a.answer(&tr)
			resp.Trace = b.finishTrace(&tr, started)
			return resp, nil
		}
	}

	t0 := time.Now()
	aggs, st, err := query.ReadOccupancy(b.qenv, req, minK, b.filterFor(req))
	elapsed := time.Since(t0)
	if err != nil {
		return Response{}, err
	}
	tr.Stages.add(StageFetch, elapsed-st.Decide-st.Apply-st.Suppress)
	tr.Stages.add(StageDecideSubjects, st.Decide+st.Apply)
	tr.Stages.add(StageAggregate, st.Suppress)
	a := occAnswer{version: version, aggregates: aggs, k: st.EffectiveK,
		considered: st.Subjects, released: st.AllowedSubjects, relObs: st.ReleasedRows}
	resp := a.answer(&tr)
	tr.ObservationsScanned, tr.SpacesSuppressed = st.ScannedRows, st.SuppressedGroups
	b.met.occSpacesSuppressed.Add(uint64(st.SuppressedGroups))
	if cacheKey != "" && !st.Overridden {
		// An answer with an override decision is not cached: a hit runs
		// no decision, so it would not count the subject's notification.
		b.occCache.put(cacheKey, a)
	}
	resp.Trace = b.finishTrace(&tr, started)
	return resp, nil
}

// answer is a's response, with what tr reports of it.
func (a *occAnswer) answer(tr *DecisionTrace) Response {
	resp := Response{Aggregates: a.aggregates, SubjectsConsidered: a.considered, SubjectsReleased: a.released,
		Decision: occDecision(a.aggregates, a.k)}
	tr.Allowed, tr.DenyReason = resp.Decision.Allowed, resp.Decision.DenyReason
	tr.SubjectsConsidered, tr.SubjectsReleased, tr.ObservationsReleased = a.considered, a.released, a.relObs
	tr.K, tr.Spaces = a.k, len(a.aggregates)
	return resp
}

// occDecision synthesizes the aggregate path's response decision: the
// release is allowed iff some space cleared the k floor.
func occDecision(aggs []privacy.AggregateCount, k int) enforce.Decision {
	d := enforce.Decision{Allowed: len(aggs) > 0,
		Effective: policy.Rule{Action: policy.ActionLimit, MinAggregationK: k}}
	if !d.Allowed {
		d.DenyReason = fmt.Sprintf("no space reached the k=%d aggregation floor", k)
	}
	return d
}

// filterFor translates a request into a store filter, expanding the
// spatial scope to its subtree.
func (b *BMS) filterFor(req enforce.Request) obstore.Filter {
	f := obstore.Filter{
		UserID:   req.SubjectID,
		Kind:     req.Kind,
		From:     req.From,
		To:       req.To,
		AfterSeq: req.AfterSeq,
		Limit:    req.Limit,
	}
	if req.SpaceID != "" {
		f.SpaceIDs = b.subtree(req.SpaceID)
	}
	return f
}

// subtree expands a space to its spatial subtree; an unknown space
// covers itself alone.
func (b *BMS) subtree(spaceID string) []string {
	if ids, err := b.cfg.Spaces.Subtree(spaceID); err == nil {
		return ids
	}
	return []string{spaceID}
}

// apply is every read's data path for one allowed row.
func (b *BMS) apply(d enforce.Decision, o sensor.Observation) (sensor.Observation, bool, error) {
	return enforce.ApplyDecisionOne(d, o, b.transf)
}

func (b *BMS) subjectGroups(userID string) []profile.Group {
	u, ok := b.cfg.Users.Lookup(userID)
	if !ok {
		return nil
	}
	return u.Groups()
}

// decide is the one decision path — the user and occupancy reads, each
// scanned query row and each live-stream event all come through here —
// so a decision is timed, counted, and its override folded into the
// subject's inbox in one place.
func (b *BMS) decide(req enforce.Request) enforce.Decision {
	t0 := time.Now()
	d := b.engine.Decide(req, b.subjectGroups(req.SubjectID))
	b.met.decideSeconds.Observe(time.Since(t0).Seconds())
	b.recordDecision(req.SubjectID, d)
	return d
}

// recordDecision updates counters and folds an override's
// notification into the subject's inbox.
func (b *BMS) recordDecision(subject string, d enforce.Decision) {
	b.met.requestsDecided.Inc()
	switch {
	case !d.Allowed:
		b.met.requestsDenied.Inc()
	case len(d.MatchedPreferences) == 0 && len(d.MatchedDefaults) == 0 && d.OverridePolicyID == "":
		// Nothing the subject or the building configured spoke to this
		// flow: it was released on Config.DefaultAllow alone.
		b.met.defaultAllowed.Inc()
	}
	if len(d.Overridden) == 0 {
		// The common case takes no lock: rule writes hold b.mu across
		// the engine update, and a decision must not queue behind them.
		return
	}
	var entered []enforce.Notification
	b.mu.Lock()
	for _, id := range d.Overridden {
		entered = b.notifyLocked(entered, subject, d.OverridePolicyID, id, "")
	}
	b.mu.Unlock()
	for _, n := range entered {
		b.streams.PublishNotification(n)
	}
}
