package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/profile"
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

// RequestUserEach is the single-subject path streamed: it decides once,
// then runs one store scan whose visitor degrades each row per the
// decision and hands it to emit as the scan reaches it, so no row is
// collected on the way. Response.Observations stays nil. The row emit
// receives is reused for the next one: emit copies what it keeps. On an
// error, rows already emitted must be discarded.
//
// The request's enforcement stages become spans under the trace carried
// by ctx (enforce.decide, then obstore.query over the streamed scan),
// and the decision trace is stamped with the trace ID so `iotactl
// trace` can join the two views of the same request. The trace's stages
// stay decide, fetch, apply: apply is summed over the rows, and fetch is
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
	ctx, span := b.tracer.StartSpan(ctx, "bms.request_user")
	defer span.End()
	span.SetAttr("service", req.ServiceID)
	tr := b.newTrace("user", req)
	tr.joinSpanContext(ctx)

	_, dSpan := b.tracer.StartSpan(ctx, "enforce.decide")
	t0 := time.Now()
	d := b.decide(req)
	dSpan.SetAttr("allowed", strconv.FormatBool(d.Allowed))
	dSpan.End()
	tr.Stages.add(StageDecide, time.Since(t0))
	tr.fromDecision(d)
	if !d.Allowed {
		return Response{Decision: d, Trace: b.finishTrace(&tr, started)}, nil
	}
	if d.Effective.MinAggregationK > 1 {
		// A single-subject release can never satisfy a k>1 aggregation
		// floor; the data path returns nothing rather than leaking an
		// individual record.
		d.DenyReason = fmt.Sprintf("subject requires aggregation over >= %d users", d.Effective.MinAggregationK)
		tr.Allowed = false
		tr.DenyReason = d.DenyReason
		return Response{Decision: d, Trace: b.finishTrace(&tr, started)}, nil
	}
	_, qSpan := b.tracer.StartSpan(ctx, "obstore.query")
	s := userScanPool.Get().(*userScan)
	defer s.release()
	s.d, s.transf, s.emit = d, b.transf, emit
	t0 = time.Now()
	b.store.Scan(b.filterFor(req), s.visitFn)
	fetch := time.Since(t0)
	qSpan.SetAttrInt("observations", int64(s.scanned))
	qSpan.SetAttrInt("released", int64(s.released))
	qSpan.End()
	if s.err != nil {
		return Response{}, s.err
	}
	tr.Stages.add(StageFetch, fetch-s.apply)
	tr.Stages.add(StageApply, s.apply)
	tr.ObservationsReleased = s.released
	return Response{Decision: d, Trace: b.finishTrace(&tr, started)}, nil
}

// userScan is RequestUserEach's scan visitor. Its state is one pooled
// struct, its visit method bound once, rather than locals a closure
// captures, each of which would escape to the heap on its own.
type userScan struct {
	d                 enforce.Decision
	transf            *privacy.Transformer
	emit              func(*sensor.Observation)
	row               sensor.Observation // the degraded row emit sees, reused
	apply             time.Duration
	scanned, released int
	err               error
	visitFn           func(*sensor.Observation) bool // visit, bound to this scan
}

var userScanPool = sync.Pool{New: func() any {
	s := new(userScan)
	s.visitFn = s.visit
	return s
}}

// release returns the scan to the pool holding nothing of the request.
func (s *userScan) release() {
	*s = userScan{visitFn: s.visitFn}
	userScanPool.Put(s)
}

func (s *userScan) visit(o *sensor.Observation) bool {
	s.scanned++
	t0 := time.Now()
	row, ok, err := enforce.ApplyDecisionOne(s.d, *o, s.transf)
	s.apply += time.Since(t0)
	if err != nil {
		s.err = err
		return false
	}
	if ok {
		s.row = row
		s.released++
		s.emit(&s.row)
	}
	return true
}

// RequestOccupancy is the aggregate path: a service asks how many
// people are in each space under the request's scope. Each candidate
// subject is decided independently; only permitted subjects
// contribute; the counts are k-anonymized with k at least minK and at
// least every contributing subject's aggregation floor.
func (b *BMS) RequestOccupancy(req enforce.Request, minK int) (Response, error) {
	return b.RequestOccupancyCtx(context.Background(), req, minK)
}

// RequestOccupancyCtx is RequestOccupancy continuing the trace carried
// by ctx: the fetch, the batched per-subject decisions, and the
// k-anonymous aggregation each become spans.
func (b *BMS) RequestOccupancyCtx(ctx context.Context, req enforce.Request, minK int) (Response, error) {
	if minK < 1 {
		minK = 1
	}
	if req.Time.IsZero() {
		req.Time = b.clock() // as in RequestUserCtx; the cache key below reads it too
	}
	started := time.Now()
	defer b.met.requestOccup.ObserveSince(started)
	ctx, span := b.tracer.StartSpan(ctx, "bms.request_occupancy")
	defer span.End()
	span.SetAttr("service", req.ServiceID)
	if b.transf == nil {
		// Rejected here, not per released subject: no stage span below
		// has an error exit between its start and its End.
		return Response{}, errors.New("core: nil transformer")
	}
	tr := b.newTrace("occupancy", req)
	tr.joinSpanContext(ctx)

	// Answers are memoized post-enforcement, pinned to the occVersion
	// they were computed under: a rule change, a new observation or a
	// deletion invalidates the hit, so a repeated dashboard poll costs a
	// map lookup instead of a scan and a decide batch. A subject, seq
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
			span.SetAttr("cache", "hit")
			tr.Stages.add(StageCache, time.Since(started))
			resp := Response{
				SubjectsConsidered: a.considered,
				SubjectsReleased:   a.released,
				Aggregates:         a.aggregates,
				Decision:           occDecision(a.aggregates, a.k),
			}
			tr.Allowed = resp.Decision.Allowed
			tr.DenyReason = resp.Decision.DenyReason
			tr.SubjectsConsidered = a.considered
			tr.SubjectsReleased = a.released
			tr.ObservationsReleased = a.relObs
			resp.Trace = b.finishTrace(&tr, started)
			return resp, nil
		}
	}

	sc := occScratchPool.Get().(*occScratch)
	defer sc.release()
	_, qSpan := b.tracer.StartSpan(ctx, "obstore.query")
	t0 := time.Now()
	b.store.Scan(b.filterFor(req), sc.visitFn)
	qSpan.SetAttrInt("observations", int64(len(sc.pairs)))
	qSpan.End()
	tr.Stages.add(StageFetch, time.Since(t0))

	_, bSpan := b.tracer.StartSpan(ctx, "enforce.decide_batch")
	t0 = time.Now()
	// The rows collapse to distinct pairs, each with its row count;
	// sorted, a subject's pairs are one run, and the subjects come in
	// an order that makes the decisions (and with them the trace and
	// the inboxes) deterministic rather than map-ordered.
	for _, p := range sc.pairs {
		sc.cells[p]++
	}
	pairs := sc.pairs[:0]
	for p := range sc.cells {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(x, y occPair) int { return cmp.Compare(x.user, y.user) })
	for i, p := range pairs {
		if i == 0 || p.user != pairs[i-1].user {
			subReq := req
			subReq.SubjectID = p.user
			sc.items = append(sc.items, enforce.BatchItem{Req: subReq, Groups: b.subjectGroups(p.user)})
		}
	}
	// Post-filter decisions run as a concurrent batch: every candidate
	// subject of the query result is decided on a bounded worker pool
	// sharing the engine's decision cache, instead of one at a time.
	decisions := enforce.AppendDecideBatch(sc.decisions, b.engine, sc.items, enforce.BatchOptions{
		Observe: func(_ enforce.Decision, elapsed time.Duration) {
			b.met.decideSeconds.Observe(elapsed.Seconds())
		},
	})
	sc.decisions = decisions
	resp := Response{SubjectsConsidered: len(decisions)}
	k, relObs, hasNotes := minK, 0, false
	for _, d := range decisions {
		n := 1
		for n < len(pairs) && pairs[n].user == pairs[0].user {
			n++
		}
		run := pairs[:n]
		pairs = pairs[n:]
		b.recordDecision(d)
		hasNotes = hasNotes || len(d.Notifications) > 0
		if !d.Allowed {
			continue
		}
		k = max(k, d.Effective.MinAggregationK)
		resp.SubjectsReleased++
		// Each distinct space the subject's pairs coarsen to gains one
		// subject. No value leaves the node here, so no noise is drawn.
		sc.seen = sc.seen[:0]
		for _, p := range run {
			space, ok := privacy.CoarsenSpace(p.space, d.Granularity, b.transf.Spaces)
			if !ok {
				break // granularity none: counted as released, releases nothing
			}
			relObs += sc.cells[p]
			if !slices.Contains(sc.seen, space) {
				sc.seen = append(sc.seen, space)
				sc.counts[space]++
			}
		}
	}
	bSpan.SetAttrInt("subjects", int64(len(decisions)))
	bSpan.SetAttrInt("released", int64(resp.SubjectsReleased))
	bSpan.End()
	tr.Stages.add(StageDecideSubjects, time.Since(t0))
	_, gSpan := b.tracer.StartSpan(ctx, "privacy.aggregate")
	t0 = time.Now()
	resp.Aggregates = privacy.SuppressBelowK(sc.counts, k)
	suppressed := len(sc.counts) - len(resp.Aggregates)
	b.met.occSpacesSuppressed.Add(uint64(suppressed))
	gSpan.SetAttrInt("k", int64(k))
	gSpan.SetAttrInt("spaces", int64(len(resp.Aggregates)))
	gSpan.SetAttrInt("spaces_suppressed", int64(suppressed))
	gSpan.End()
	tr.Stages.add(StageAggregate, time.Since(t0))
	resp.Decision = occDecision(resp.Aggregates, k)
	tr.Allowed = resp.Decision.Allowed
	tr.DenyReason = resp.Decision.DenyReason
	tr.SubjectsConsidered = resp.SubjectsConsidered
	tr.SubjectsReleased = resp.SubjectsReleased
	tr.ObservationsReleased = relObs
	if cacheKey != "" && !hasNotes {
		// Decisions that delivered override notifications are not
		// memoized: replaying the answer would swallow the repeat
		// notification the fresh decide batch produces.
		b.occCache.put(cacheKey, occAnswer{
			version:    version,
			aggregates: resp.Aggregates,
			k:          k,
			considered: resp.SubjectsConsidered,
			released:   resp.SubjectsReleased,
			relObs:     relObs,
		})
	}
	resp.Trace = b.finishTrace(&tr, started)
	return resp, nil
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
		if ids, err := b.cfg.Spaces.Subtree(req.SpaceID); err == nil {
			f.SpaceIDs = ids
		} else {
			f.SpaceIDs = []string{req.SpaceID}
		}
	}
	return f
}

func (b *BMS) subjectGroups(userID string) []profile.Group {
	u, ok := b.cfg.Users.Lookup(userID)
	if !ok {
		return nil
	}
	return u.Groups()
}

// decide is the one single-decision path — RequestUser, each scanned
// query row and each live-stream event all come through here — so a
// decision is timed, counted, and its override notifications delivered
// in one place. (RequestOccupancy batches, and records each likewise.)
func (b *BMS) decide(req enforce.Request) enforce.Decision {
	t0 := time.Now()
	d := b.engine.Decide(req, b.subjectGroups(req.SubjectID))
	b.met.decideSeconds.Observe(time.Since(t0).Seconds())
	b.recordDecision(d)
	return d
}

// recordDecision updates counters and delivers override
// notifications.
func (b *BMS) recordDecision(d enforce.Decision) {
	b.met.requestsDecided.Inc()
	switch {
	case !d.Allowed:
		b.met.requestsDenied.Inc()
	case len(d.MatchedPreferences) == 0 && len(d.MatchedDefaults) == 0 && d.OverridePolicyID == "":
		// Nothing the subject or the building configured spoke to this
		// flow: it was released on Config.DefaultAllow alone.
		b.met.defaultAllowed.Inc()
	}
	if len(d.Notifications) == 0 {
		// The common case takes no lock: rule writes hold b.mu across
		// the engine update, and a decision must not queue behind them.
		return
	}
	b.mu.Lock()
	for _, n := range d.Notifications {
		b.inbox[n.UserID] = append(b.inbox[n.UserID], n)
		b.met.notificationsSent.Inc()
	}
	b.mu.Unlock()
	for _, n := range d.Notifications {
		b.streams.PublishNotification(n)
	}
}
