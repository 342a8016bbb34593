package query

import (
	"sort"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/sensor"
)

// enforcement binds a plan's scan to the requester's identity. It is
// unexported and only Compile constructs it, so every row source in
// this package runs behind a per-row decision: scanObservations is
// the sole way plans read ground truth, and it consults the
// enforcement engine (through a per-query memo) before a row may
// continue into residual filtering, projection, or aggregation.
type enforcement struct {
	env   Env
	req   Requester
	table string
	now   time.Time

	// memo is the statement's decision snapshot per (subject, kind,
	// space); a scan over a million rows usually needs a few dozen
	// engine calls. It is not redundant with the engine's own memo,
	// which never holds notification-bearing decisions: without this
	// one an override would notify its subject once per scanned row.
	memo     map[memoKey]enforce.Decision
	subjects map[string]bool
	// maxFloor is the largest MinAggregationK among subjects whose
	// rows survive residual filtering and so contribute to the result
	// (raised via noteContributions, not during the scan); it raises
	// the k floor for grouped output. A row a predicate discards
	// cannot raise the floor on unrelated output.
	maxFloor int
	stats    Stats
}

type memoKey struct {
	user  string
	kind  sensor.ObservationKind
	space string
}

// rowMeta carries the enforcement-relevant ground truth for one
// released row: who contributed it and their aggregation floor.
// Suppression decisions key off this — not the released view — so a
// transform that redacts user_id cannot exempt a group from its
// subjects' k floors.
type rowMeta struct {
	subject string
	floor   int
}

func newEnforcement(env Env, req Requester, table string) (*enforcement, error) {
	if req.MinK < 1 {
		req.MinK = 1
	}
	now := time.Now()
	if env.Now != nil {
		now = env.Now()
	}
	return &enforcement{
		env:      env,
		req:      req,
		table:    table,
		now:      now,
		memo:     make(map[memoKey]enforce.Decision),
		subjects: make(map[string]bool),
	}, nil
}

// decide returns the requester's decision for one row's (subject,
// kind, space) combination, memoized for the query's lifetime.
func (e *enforcement) decide(o sensor.Observation) enforce.Decision {
	key := memoKey{user: o.UserID, kind: o.Kind, space: o.SpaceID}
	if d, ok := e.memo[key]; ok {
		return d
	}
	d := e.env.Decide(enforce.Request{
		ServiceID:   e.req.ServiceID,
		Purpose:     e.req.Purpose,
		Kind:        o.Kind,
		SubjectID:   o.UserID,
		SpaceID:     o.SpaceID,
		Granularity: e.req.Granularity,
		Time:        e.now,
	})
	e.memo[key] = d
	e.stats.Decisions++
	if o.UserID != "" {
		e.subjects[o.UserID] = true
	}
	return d
}

// scanObservations is the only ground-truth row source: it scans the
// store with the pushed-down filter and gates every row through the
// requester's decision. Denied rows are dropped; in row mode
// (aggregate=false) allowed subjects whose effective rule carries an
// aggregation floor > 1 are excluded too, because a row-level release
// can never satisfy a k-of-many floor. Surviving rows pass through
// the decision's data path (granularity clamp, noise) so downstream
// stages only ever see the released view; the parallel rowMeta slice
// keeps each row's ground-truth subject and floor for suppression.
func (e *enforcement) scanObservations(f obstore.Filter, aggregate bool) ([]sensor.Observation, []rowMeta, error) {
	rows := e.env.Scan(f)
	e.stats.ScannedRows += len(rows)
	out := make([]sensor.Observation, 0, len(rows))
	meta := make([]rowMeta, 0, len(rows))
	for _, o := range rows {
		d := e.decide(o)
		if !d.Allowed {
			e.stats.DeniedRows++
			continue
		}
		if !aggregate && d.Effective.MinAggregationK > 1 && o.UserID != "" {
			e.stats.ExcludedRows++
			continue
		}
		rel, ok, err := e.env.Apply(d, o)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			e.stats.ExcludedRows++
			continue
		}
		out = append(out, rel)
		m := rowMeta{subject: o.UserID}
		if o.UserID != "" {
			m.floor = d.Effective.MinAggregationK
		}
		meta = append(meta, m)
		e.stats.ReleasedRows++
	}
	e.stats.Subjects = len(e.subjects)
	return out, meta, nil
}

// noteContributions raises the grouped-output k floor from the rows
// that actually contribute to the result — called after residual
// filtering, so a subject whose every row a predicate discards does
// not suppress output they take no part in.
func (e *enforcement) noteContributions(meta []rowMeta) {
	for _, m := range meta {
		if m.floor > e.maxFloor {
			e.maxFloor = m.floor
		}
	}
}

// effectiveK is the k-anonymity floor for grouped output: the
// requester's own floor raised by every contributing subject's.
func (e *enforcement) effectiveK() int {
	k := e.req.MinK
	if e.maxFloor > k {
		k = e.maxFloor
	}
	return k
}

// Execute runs the plan. It refuses to run a plan without an
// enforcement binding — the zero Plan, or one assembled by hand, has
// no path to data.
func (p *Plan) Execute() (*Result, error) {
	if p == nil || p.enf == nil {
		return nil, &EnforceError{Msg: "plan has no enforcement binding; use Compile"}
	}
	switch p.table {
	case TableAudit:
		return p.execAudit()
	case TableOccupancy:
		if p.rollup != nil {
			if res, ok, err := p.tryOccupancyRollup(); err != nil || ok {
				return res, err
			}
		}
		return p.execOccupancy()
	default:
		if p.rollup != nil {
			if res, ok, err := p.tryRollup(); err != nil || ok {
				return res, err
			}
		}
		return p.execObservations()
	}
}

// rowSource is an indexed, column-addressable released row set. meta,
// when set, exposes each row's ground-truth contribution record for
// k-floor suppression (nil for tables without one, e.g. audit).
type rowSource struct {
	n    int
	get  func(i int, col string) Value
	meta func(i int) rowMeta
}

func obsValue(o *sensor.Observation, col string) Value {
	switch col {
	case "seq":
		return numberValue(float64(o.Seq))
	case "sensor_id":
		return stringValue(o.SensorID)
	case "kind":
		return stringValue(string(o.Kind))
	case "time":
		return timeValue(o.Time)
	case "space_id":
		if o.SpaceID == "" {
			return Value{}
		}
		return stringValue(o.SpaceID)
	case "device_mac":
		if o.DeviceMAC == "" {
			return Value{}
		}
		return stringValue(o.DeviceMAC)
	case "user_id":
		if o.UserID == "" {
			return Value{}
		}
		return stringValue(o.UserID)
	case "value":
		return numberValue(o.Value)
	default:
		return Value{}
	}
}

func auditValue(r *AuditRecord, col string) Value {
	switch col {
	case "id":
		return numberValue(float64(r.ID))
	case "time":
		return timeValue(r.Time)
	case "path":
		return stringValue(r.Path)
	case "service_id":
		if r.ServiceID == "" {
			return Value{}
		}
		return stringValue(r.ServiceID)
	case "subject_id":
		if r.SubjectID == "" {
			return Value{}
		}
		return stringValue(r.SubjectID)
	case "kind":
		if r.Kind == "" {
			return Value{}
		}
		return stringValue(r.Kind)
	case "purpose":
		if r.Purpose == "" {
			return Value{}
		}
		return stringValue(r.Purpose)
	case "allowed":
		return boolValue(r.Allowed)
	case "deny_reason":
		if r.DenyReason == "" {
			return Value{}
		}
		return stringValue(r.DenyReason)
	case "granularity":
		if r.Granularity == "" {
			return Value{}
		}
		return stringValue(r.Granularity)
	case "cache_hit":
		return boolValue(r.CacheHit)
	default:
		return Value{}
	}
}

func (p *Plan) execObservations() (*Result, error) {
	obs, meta, err := p.enf.scanObservations(p.filter, p.grouped)
	if err != nil {
		return nil, err
	}
	obs, meta = filterResidual(p.residual, obs, meta)
	p.enf.noteContributions(meta)
	src := rowSource{
		n:    len(obs),
		get:  func(i int, col string) Value { return obsValue(&obs[i], col) },
		meta: func(i int) rowMeta { return meta[i] },
	}
	if p.grouped {
		return p.execGrouped(src, true)
	}
	return p.execProject(src)
}

// filterResidual keeps the released rows (and their ground-truth
// meta, in lockstep) that satisfy the residual predicate.
func filterResidual(residual boolExpr, obs []sensor.Observation, meta []rowMeta) ([]sensor.Observation, []rowMeta) {
	if residual == nil {
		return obs, meta
	}
	keptObs, keptMeta := obs[:0], meta[:0]
	for i := range obs {
		o := &obs[i]
		if residual.eval(func(col string) Value { return obsValue(o, col) }) {
			keptObs = append(keptObs, obs[i])
			keptMeta = append(keptMeta, meta[i])
		}
	}
	return keptObs, keptMeta
}

func (p *Plan) execAudit() (*Result, error) {
	recs := p.enf.env.AuditRecords(p.enf.req.UserID)
	p.enf.stats.ScannedRows = len(recs)
	if p.residual != nil {
		kept := recs[:0]
		for i := range recs {
			r := &recs[i]
			if p.residual.eval(func(col string) Value { return auditValue(r, col) }) {
				kept = append(kept, recs[i])
			}
		}
		recs = kept
	}
	p.enf.stats.ReleasedRows = len(recs)
	p.enf.stats.EffectiveK = 1
	src := rowSource{n: len(recs), get: func(i int, col string) Value { return auditValue(&recs[i], col) }}
	if p.grouped {
		return p.execGrouped(src, false)
	}
	return p.execProject(src)
}

func (p *Plan) execOccupancy() (*Result, error) {
	obs, meta, err := p.enf.scanObservations(p.filter, true)
	if err != nil {
		return nil, err
	}
	obs, meta = filterResidual(p.residual, obs, meta)
	p.enf.noteContributions(meta)
	k := p.enf.effectiveK()
	p.enf.stats.EffectiveK = k
	counts := privacy.KAnonymousCounts(obs, k,
		func(o sensor.Observation) string { return o.SpaceID },
		func(o sensor.Observation) string { return o.UserID },
	)
	populated := make(map[string]bool)
	for i := range obs {
		if obs[i].UserID != "" {
			populated[obs[i].SpaceID] = true
		}
	}
	p.enf.stats.SuppressedGroups = len(populated) - len(counts)

	rows := make([][]Value, 0, len(counts))
	for _, c := range counts {
		get := func(col string) Value {
			if col == "count" {
				return numberValue(float64(c.Count))
			}
			return stringValue(c.Key)
		}
		if p.countPred != nil && !p.countPred.eval(get) {
			continue
		}
		row := make([]Value, len(p.cols))
		for i, oc := range p.cols {
			row[i] = get(oc.expr.Col)
		}
		rows = append(rows, row)
	}
	return p.finish(rows), nil
}

// execProject emits one output row per source row.
func (p *Plan) execProject(src rowSource) (*Result, error) {
	rows := make([][]Value, 0, src.n)
	for i := 0; i < src.n; i++ {
		row := make([]Value, len(p.cols))
		for ci, oc := range p.cols {
			row[ci] = src.get(i, oc.expr.Col)
		}
		rows = append(rows, row)
	}
	if p.table != TableAudit {
		p.enf.stats.EffectiveK = p.enf.effectiveK()
	}
	return p.finish(rows), nil
}

// aggState accumulates one aggregate select item within one group.
type aggState struct {
	count    int
	sum      float64
	sumN     int
	min, max Value
	distinct map[string]bool
}

type group struct {
	byVals   map[string]Value // GROUP BY column -> value
	states   []aggState
	subjects map[string]bool
}

// execGrouped evaluates GROUP BY / aggregate queries. When suppress
// is set (observation scans), groups containing attributed rows whose
// distinct subjects fall short of the effective k floor are withheld,
// matching the occupancy path's k-anonymity discipline. A group with
// no attributed contribution — purely environmental data — has no
// subject to protect and is never suppressed.
func (p *Plan) execGrouped(src rowSource, suppress bool) (*Result, error) {
	groups := make(map[string]*group)
	var order []string
	keyBuf := make([]byte, 0, 64)

	for i := 0; i < src.n; i++ {
		keyBuf = keyBuf[:0]
		for _, gcol := range p.stmt.GroupBy {
			keyBuf = src.get(i, gcol).groupKey(keyBuf)
		}
		key := string(keyBuf)
		g := groups[key]
		if g == nil {
			g = &group{
				byVals:   make(map[string]Value, len(p.stmt.GroupBy)),
				states:   make([]aggState, len(p.cols)),
				subjects: make(map[string]bool),
			}
			for _, gcol := range p.stmt.GroupBy {
				g.byVals[gcol] = src.get(i, gcol)
			}
			groups[key] = g
			order = append(order, key)
		}
		for ci, oc := range p.cols {
			if oc.expr.Agg == AggNone {
				continue
			}
			st := &g.states[ci]
			if oc.expr.Star {
				st.count++
				continue
			}
			v := src.get(i, oc.expr.Col)
			if v.Kind == KindNull {
				continue
			}
			switch oc.expr.Agg {
			case AggCount:
				if oc.expr.Distinct {
					if st.distinct == nil {
						st.distinct = make(map[string]bool)
					}
					st.distinct[string(v.groupKey(nil))] = true
				} else {
					st.count++
				}
			case AggSum, AggAvg:
				st.sum += v.Num
				st.sumN++
			case AggMin:
				if st.min.Kind == KindNull || v.compare(st.min) < 0 {
					st.min = v
				}
			case AggMax:
				if st.max.Kind == KindNull || v.compare(st.max) > 0 {
					st.max = v
				}
			}
		}
		if suppress && src.meta != nil {
			if m := src.meta(i); m.subject != "" {
				g.subjects[m.subject] = true
			}
		}
	}

	// A global aggregate (no GROUP BY) yields one row even over an
	// empty scan: COUNT(*) of nothing is 0.
	if len(p.stmt.GroupBy) == 0 && len(order) == 0 {
		groups[""] = &group{
			byVals:   map[string]Value{},
			states:   make([]aggState, len(p.cols)),
			subjects: map[string]bool{},
		}
		order = append(order, "")
	}

	k := 1
	if suppress {
		k = p.enf.effectiveK()
		p.enf.stats.EffectiveK = k
	} else if p.table != TableAudit {
		p.enf.stats.EffectiveK = p.enf.effectiveK()
	}

	rows := make([][]Value, 0, len(order))
	for _, key := range order {
		g := groups[key]
		if suppress && k > 1 && len(g.subjects) > 0 && len(g.subjects) < k {
			p.enf.stats.SuppressedGroups++
			continue
		}
		row := make([]Value, len(p.cols))
		for ci, oc := range p.cols {
			if oc.expr.Agg == AggNone {
				row[ci] = g.byVals[oc.expr.Col]
				continue
			}
			row[ci] = finalizeAgg(oc.expr, &g.states[ci])
		}
		if p.having != nil {
			get := func(col string) Value {
				for ci, oc := range p.cols {
					if oc.name == col || oc.expr.canonical() == col {
						return row[ci]
					}
				}
				return Value{}
			}
			if !p.having.eval(get) {
				continue
			}
		}
		rows = append(rows, row)
	}
	return p.finish(rows), nil
}

func finalizeAgg(it SelectExpr, st *aggState) Value {
	switch it.Agg {
	case AggCount:
		if it.Distinct {
			return numberValue(float64(len(st.distinct)))
		}
		return numberValue(float64(st.count))
	case AggSum:
		if st.sumN == 0 {
			return Value{}
		}
		return numberValue(st.sum)
	case AggAvg:
		if st.sumN == 0 {
			return Value{}
		}
		return numberValue(st.sum / float64(st.sumN))
	case AggMin:
		return st.min
	case AggMax:
		return st.max
	default:
		return Value{}
	}
}

// finish applies ORDER BY and LIMIT and assembles the Result.
func (p *Plan) finish(rows [][]Value) *Result {
	if len(p.orderBy) > 0 {
		sort.SliceStable(rows, func(a, b int) bool {
			for _, spec := range p.orderBy {
				c := rows[a][spec.idx].compare(rows[b][spec.idx])
				if c == 0 {
					continue
				}
				if spec.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if p.limit >= 0 && len(rows) > p.limit {
		rows = rows[:p.limit]
	}
	cols := make([]string, len(p.cols))
	for i, oc := range p.cols {
		cols[i] = oc.name
	}
	return &Result{Columns: cols, Rows: rows, Stats: p.enf.stats}
}
