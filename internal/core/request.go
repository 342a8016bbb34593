package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
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

// RequestUserEach is the single-subject path streamed: one store scan
// whose visitor judges each row at its capture time, degrades it per
// that decision and hands it to emit as the scan reaches it, so no row
// is collected on the way. Rows are decided once per window class of
// their capture times (enforce.Domain), so a subject with no windowed
// rule is decided once. Response.Decision is the decision at the
// request's own instant, and Response.Observations stays nil. The row
// emit receives is reused for the next one: emit copies what it keeps.
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
		tr.Allowed = false
		tr.DenyReason = d.DenyReason
	}
	if domain.Empty() && (!d.Allowed || floor) {
		// Every row would be judged by this decision.
		return Response{Decision: d, Trace: b.finishTrace(&tr, started)}, nil
	}
	s := userScanPool.Get().(*userScan)
	defer s.release()
	s.b, s.req, s.domain, s.transf, s.emit = b, req, domain, b.transf, emit
	s.class, s.d = domain.Class(req.Time), d
	s.classes[s.class] = len(s.decisions)
	s.decisions = append(s.decisions, d)
	t0 = time.Now()
	b.store.Scan(b.filterFor(req), s.visitFn)
	fetch := time.Since(t0)
	if s.err != nil {
		return Response{}, s.err
	}
	tr.Stages.add(StageFetch, fetch-s.apply)
	tr.Stages.add(StageApply, s.apply)
	tr.ObservationsScanned = s.scanned
	tr.ObservationsReleased = s.released
	return Response{Decision: d, Trace: b.finishTrace(&tr, started)}, nil
}

// userScan is RequestUserEach's scan visitor. Its state is one pooled
// struct, its visit method bound once, rather than locals a closure
// captures, each of which would escape to the heap on its own.
type userScan struct {
	b      *BMS
	req    enforce.Request
	domain enforce.Domain
	// class is the window class of the row last judged and d its
	// decision; classes indexes every decision the scan has made.
	class             enforce.Class
	d                 enforce.Decision
	classes           map[enforce.Class]int
	decisions         []enforce.Decision
	transf            *privacy.Transformer
	emit              func(*sensor.Observation)
	row               sensor.Observation // the degraded row emit sees, reused
	apply             time.Duration
	scanned, released int
	err               error
	visitFn           func(*sensor.Observation) bool // visit, bound to this scan
}

var userScanPool = sync.Pool{New: func() any {
	s := &userScan{classes: make(map[enforce.Class]int)}
	s.visitFn = s.visit
	return s
}}

// release returns the scan to the pool holding nothing of the request.
func (s *userScan) release() {
	clear(s.classes)
	clear(s.decisions)
	*s = userScan{classes: s.classes, decisions: s.decisions[:0], visitFn: s.visitFn}
	userScanPool.Put(s)
}

// decisionAt returns the decision for a row captured at t.
func (s *userScan) decisionAt(t time.Time) enforce.Decision {
	c := s.domain.Class(t)
	if c == s.class {
		return s.d
	}
	i, ok := s.classes[c]
	if !ok {
		req := s.req
		req.Time = t
		i = len(s.decisions)
		s.classes[c] = i
		s.decisions = append(s.decisions, s.b.decide(req))
	}
	s.class, s.d = c, s.decisions[i]
	return s.d
}

func (s *userScan) visit(o *sensor.Observation) bool {
	s.scanned++
	d := s.decisionAt(o.Time)
	if !d.Allowed || d.Effective.MinAggregationK > 1 {
		return true
	}
	t0 := time.Now()
	row, ok, err := enforce.ApplyDecisionOne(d, *o, s.transf)
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

// RequestOccupancyCtx is RequestOccupancy joined to the trace carried by
// ctx.
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
			tr.K, tr.Spaces = a.k, len(a.aggregates)
			resp.Trace = b.finishTrace(&tr, started)
			return resp, nil
		}
	}

	sc := occScratchPool.Get().(*occScratch)
	defer sc.release()
	sc.engine = b.engine
	t0 := time.Now()
	b.store.Scan(b.filterFor(req), sc.visitFn)
	tr.Stages.add(StageFetch, time.Since(t0))
	tr.ObservationsScanned = sc.rows

	t0 = time.Now()
	// Each subject's rows are decided once per window class of their
	// capture times, at the capture time of the class's first row.
	// Sorted, a subject's cells are one run and a class's one run within
	// it, in an order that makes the decisions (and with them the trace
	// and the inboxes) deterministic rather than map-ordered.
	for c := range sc.cells {
		sc.list = append(sc.list, c)
	}
	cells := sc.list
	slices.SortFunc(cells, func(x, y occCell) int {
		return cmp.Or(cmp.Compare(x.user, y.user), cmp.Compare(x.class, y.class))
	})
	for i, c := range cells {
		if i == 0 || c.class != cells[i-1].class {
			subReq := req
			subReq.SubjectID, subReq.Time = c.user, sc.at[c.class]
			sc.items = append(sc.items, enforce.BatchItem{Req: subReq, Groups: b.subjectGroups(c.user)})
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
	var (
		resp       Response
		d          enforce.Decision
		released   bool
		overridden bool
	)
	k, relObs := minK, 0
	for i, c := range cells {
		if i == 0 || c.user != cells[i-1].user {
			// A subject counts as released when any of their classes is.
			resp.SubjectsConsidered++
			released = false
			sc.seen = sc.seen[:0]
		}
		if i == 0 || c.class != cells[i-1].class {
			d, decisions = decisions[0], decisions[1:]
			b.recordDecision(c.user, d)
			overridden = overridden || len(d.Overridden) > 0
			if d.Allowed {
				k = max(k, d.Effective.MinAggregationK)
				if !released {
					resp.SubjectsReleased++
					released = true
				}
			}
		}
		if !d.Allowed {
			continue
		}
		// Each distinct space the subject's cells coarsen to gains one
		// subject. No value leaves the node here, so no noise is drawn.
		space, ok := privacy.CoarsenSpace(c.space, d.Granularity, b.transf.Spaces)
		if !ok {
			continue // granularity none: counted as released, releases nothing
		}
		relObs += sc.cells[c]
		if !slices.Contains(sc.seen, space) {
			sc.seen = append(sc.seen, space)
			sc.counts[space]++
		}
	}
	tr.Stages.add(StageDecideSubjects, time.Since(t0))
	t0 = time.Now()
	resp.Aggregates = privacy.SuppressBelowK(sc.counts, k)
	tr.K, tr.Spaces, tr.SpacesSuppressed = k, len(resp.Aggregates), len(sc.counts)-len(resp.Aggregates)
	b.met.occSpacesSuppressed.Add(uint64(tr.SpacesSuppressed))
	tr.Stages.add(StageAggregate, time.Since(t0))
	resp.Decision = occDecision(resp.Aggregates, k)
	tr.Allowed = resp.Decision.Allowed
	tr.DenyReason = resp.Decision.DenyReason
	tr.SubjectsConsidered = resp.SubjectsConsidered
	tr.SubjectsReleased = resp.SubjectsReleased
	tr.ObservationsReleased = relObs
	if cacheKey != "" && !overridden {
		// An answer with an override decision is not cached: a hit runs
		// no decision, so it would not count the subject's notification.
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
// decision is timed, counted, and its override folded into the
// subject's inbox in one place. (RequestOccupancy batches, and records
// each likewise.)
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
