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
// this package runs behind a per-row decision: scan is the sole way
// plans read ground truth, and it consults the enforcement engine
// (through a per-query memo) before a row may continue into residual
// filtering, projection, or aggregation.
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
	// rows survive residual filtering and so contribute to the result;
	// it raises the k floor for grouped output. A row a predicate
	// discards cannot raise the floor on unrelated output.
	maxFloor int
	stats    Stats
}

type memoKey struct {
	user  string
	kind  sensor.ObservationKind
	space string
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
func (e *enforcement) decide(o *sensor.Observation) enforce.Decision {
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

// scan is the only ground-truth row source, and the whole executor in
// one pass: every row the store's pushed-down scan visits is decided,
// released and handed on before the next one is read, so no row set is
// ever materialized between the store and the sink.
//
//	ScanEach ─▶ decide (statement memo) ─▶ min-k exclusion ─▶ Apply
//	         ─▶ residual on the released row ─▶ sink (project | group | occupancy)
//
// Denied rows are dropped; in row mode (aggregate=false) allowed
// subjects whose effective rule carries an aggregation floor > 1 are
// excluded too, because a row-level release can never satisfy a
// k-of-many floor. Surviving rows pass through the decision's data
// path (granularity clamp, noise), so the residual predicate and the
// sink only ever see the released view; the sink is also told the
// ground-truth subject — suppression keys off that, not the released
// view, so a transform that redacts user_id cannot exempt a group from
// its subjects' k floors. The released row is one slot reused for
// every row: a sink copies what it keeps. A sink returning false ends
// the scan.
func (e *enforcement) scan(f obstore.Filter, aggregate bool, residual boolExpr, sink func(rel *sensor.Observation, subject string) bool) error {
	var (
		rel sensor.Observation
		err error
	)
	get := func(col string) Value { return (*obsRow)(&rel).col(colIndex(obsColumns, col)) }
	e.env.ScanEach(f, func(o *sensor.Observation) bool {
		e.stats.ScannedRows++
		d := e.decide(o)
		if !d.Allowed {
			e.stats.DeniedRows++
			return true
		}
		if !aggregate && d.Effective.MinAggregationK > 1 && o.UserID != "" {
			e.stats.ExcludedRows++
			return true
		}
		var ok bool
		if rel, ok, err = e.env.Apply(d, *o); err != nil {
			return false
		}
		if !ok {
			e.stats.ExcludedRows++
			return true
		}
		e.stats.ReleasedRows++
		if residual != nil && !residual.eval(get) {
			return true
		}
		if o.UserID != "" && d.Effective.MinAggregationK > e.maxFloor {
			e.maxFloor = d.Effective.MinAggregationK
		}
		return sink(&rel, o.UserID)
	})
	e.stats.Subjects = len(e.subjects)
	return err
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

// row is the released row in flight: a positional accessor over the
// scanned table's schema (obsColumns, auditColumns). Output and
// GROUP BY columns are resolved to positions at compile time.
type row interface {
	col(i int) Value
}

// nullable maps the empty string to NULL.
func nullable(s string) Value {
	if s == "" {
		return Value{}
	}
	return stringValue(s)
}

type obsRow sensor.Observation

func (o *obsRow) col(i int) Value {
	switch i {
	case obsSeq:
		return numberValue(float64(o.Seq))
	case obsSensorID:
		return stringValue(o.SensorID)
	case obsKind:
		return stringValue(string(o.Kind))
	case obsTime:
		return timeValue(o.Time)
	case obsSpaceID:
		return nullable(o.SpaceID)
	case obsDeviceMAC:
		return nullable(o.DeviceMAC)
	case obsUserID:
		return nullable(o.UserID)
	case obsValue:
		return numberValue(o.Value)
	default:
		return Value{}
	}
}

type auditRow AuditRecord

// col indexes auditColumns.
func (r *auditRow) col(i int) Value {
	switch i {
	case 0: // id
		return numberValue(float64(r.ID))
	case 1: // time
		return timeValue(r.Time)
	case 2: // path
		return stringValue(r.Path)
	case 3: // service_id
		return nullable(r.ServiceID)
	case 4: // subject_id
		return nullable(r.SubjectID)
	case 5: // kind
		return nullable(r.Kind)
	case 6: // purpose
		return nullable(r.Purpose)
	case 7: // allowed
		return boolValue(r.Allowed)
	case 8: // deny_reason
		return nullable(r.DenyReason)
	case 9: // granularity
		return nullable(r.Granularity)
	case 10: // cache_hit
		return boolValue(r.CacheHit)
	default:
		return Value{}
	}
}

func (p *Plan) execObservations() (*Result, error) {
	if p.grouped {
		g := newGrouper(p)
		err := p.enf.scan(p.filter, true, p.residual, func(rel *sensor.Observation, subject string) bool {
			g.add((*obsRow)(rel), subject, nil)
			return true
		})
		if err != nil {
			return nil, err
		}
		return g.result(), nil
	}
	pr := projector{p: p}
	err := p.enf.scan(p.filter, false, p.residual, func(rel *sensor.Observation, _ string) bool {
		return pr.add((*obsRow)(rel))
	})
	if err != nil {
		return nil, err
	}
	p.enf.stats.EffectiveK = p.enf.effectiveK()
	return p.finish(pr.rows), nil
}

func (p *Plan) execAudit() (*Result, error) {
	recs := p.enf.env.AuditRecords(p.enf.req.UserID)
	p.enf.stats.ScannedRows = len(recs)
	p.enf.stats.EffectiveK = 1
	var (
		cur *auditRow
		g   *grouper
		pr  = projector{p: p}
	)
	if p.grouped {
		g = newGrouper(p)
	}
	get := func(col string) Value { return cur.col(colIndex(auditColumns, col)) }
	for i := range recs {
		cur = (*auditRow)(&recs[i])
		if p.residual != nil && !p.residual.eval(get) {
			continue
		}
		p.enf.stats.ReleasedRows++
		if g != nil {
			g.add(cur, "", nil)
		} else if !pr.add(cur) {
			break
		}
	}
	if g != nil {
		return g.result(), nil
	}
	return p.finish(pr.rows), nil
}

func (p *Plan) execOccupancy() (*Result, error) {
	spaces := privacy.KCounter{}
	err := p.enf.scan(p.filter, true, p.residual, func(rel *sensor.Observation, _ string) bool {
		spaces.Add(rel.SpaceID, rel.UserID)
		return true
	})
	if err != nil {
		return nil, err
	}
	return p.occupancyResult(spaces), nil
}

// occupancyResult turns the released (space, subject) pairs into the
// occupancy table: distinct subjects per space, spaces short of the
// effective k floor withheld.
func (p *Plan) occupancyResult(spaces privacy.KCounter) *Result {
	k := p.enf.effectiveK()
	p.enf.stats.EffectiveK = k
	counts := spaces.Counts(k)
	p.enf.stats.SuppressedGroups = len(spaces) - len(counts)

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
	return p.finish(rows)
}

// projector is the row-mode sink: one output row per released row.
type projector struct {
	p    *Plan
	rows [][]Value
}

// add reports whether the scan should go on: with LIMIT n and no
// ORDER BY the first n released rows are the answer.
func (pr *projector) add(r row) bool {
	p := pr.p
	out := make([]Value, len(p.cols))
	for ci := range p.cols {
		out[ci] = r.col(p.cols[ci].src)
	}
	pr.rows = append(pr.rows, out)
	return p.limit < 0 || len(p.orderBy) > 0 || len(pr.rows) < p.limit
}

// aggState accumulates one aggregate select item within one group.
type aggState struct {
	count    int
	sum      float64
	sumN     int
	min, max Value
	distinct map[string]struct{}
}

type group struct {
	vals   []Value // GROUP BY values, in Plan.groupCols order
	states []aggState
	// subjects are the ground-truth contributors the k floor counts.
	subjects map[string]struct{}
}

// grouper is the GROUP BY / aggregate sink. Keys are built in one
// reused buffer and probed with m[string(buf)], so a string is
// allocated only for a new group or a new distinct value: allocations
// scale with the groups, not the rows.
type grouper struct {
	p      *Plan
	groups map[string]*group
	order  []*group // first-seen
	key    []byte
}

func newGrouper(p *Plan) *grouper {
	return &grouper{p: p, groups: make(map[string]*group)}
}

func (g *grouper) newGroup() *group {
	gr := &group{vals: make([]Value, len(g.p.groupCols)), states: make([]aggState, len(g.p.cols))}
	g.order = append(g.order, gr)
	return gr
}

// add folds one released row into its group. cell, when non-nil, makes
// the row stand for a whole pre-aggregated rollup cell: counts weigh
// cell.Count and value aggregates come from the cell's statistics (the
// released value equals ground truth there, because a noisy value
// aggregate never reaches the rollup path).
func (g *grouper) add(r row, subject string, cell *RollupEntry) {
	p := g.p
	g.key = g.key[:0]
	for _, c := range p.groupCols {
		g.key = r.col(c).groupKey(g.key)
	}
	gr := g.groups[string(g.key)]
	if gr == nil {
		gr = g.newGroup()
		for i, c := range p.groupCols {
			gr.vals[i] = r.col(c)
		}
		g.groups[string(g.key)] = gr
	}
	weight := 1
	if cell != nil {
		weight = cell.Count
	}
	for ci := range p.cols {
		oc := &p.cols[ci]
		if oc.expr.Agg == AggNone {
			continue
		}
		st := &gr.states[ci]
		if oc.expr.Star {
			st.count += weight
			continue
		}
		if cell != nil && oc.src == obsValue {
			switch oc.expr.Agg {
			case AggCount:
				st.count += cell.Count // value is never NULL
			case AggSum, AggAvg:
				st.sum += cell.Sum
				st.sumN += cell.Count
			case AggMin:
				st.observeMin(numberValue(cell.Min))
			case AggMax:
				st.observeMax(numberValue(cell.Max))
			}
			continue
		}
		v := r.col(oc.src)
		if v.Kind == KindNull {
			continue
		}
		switch oc.expr.Agg {
		case AggCount:
			if !oc.expr.Distinct {
				st.count += weight
				continue
			}
			g.key = v.groupKey(g.key[:0])
			if _, seen := st.distinct[string(g.key)]; !seen {
				if st.distinct == nil {
					st.distinct = make(map[string]struct{})
				}
				st.distinct[string(g.key)] = struct{}{}
			}
		case AggSum, AggAvg:
			st.sum += v.Num
			st.sumN++
		case AggMin:
			st.observeMin(v)
		case AggMax:
			st.observeMax(v)
		}
	}
	if subject != "" {
		if gr.subjects == nil {
			gr.subjects = make(map[string]struct{})
		}
		gr.subjects[subject] = struct{}{}
	}
}

func (st *aggState) observeMin(v Value) {
	if st.min.Kind == KindNull || v.compare(st.min) < 0 {
		st.min = v
	}
}

func (st *aggState) observeMax(v Value) {
	if st.max.Kind == KindNull || v.compare(st.max) > 0 {
		st.max = v
	}
}

// result finalizes the groups in first-seen order. Over observations,
// groups containing attributed rows whose distinct subjects fall short
// of the effective k floor are withheld, matching the occupancy path's
// k-anonymity discipline; a group with no attributed contribution —
// purely environmental data — has no subject to protect and is never
// suppressed. Audit rows are the requester's own and carry no floor.
func (g *grouper) result() *Result {
	p := g.p
	// A global aggregate (no GROUP BY) yields one row even over an
	// empty scan: COUNT(*) of nothing is 0.
	if len(p.groupCols) == 0 && len(g.order) == 0 {
		g.newGroup()
	}
	k := 1
	if p.table != TableAudit {
		k = p.enf.effectiveK()
		p.enf.stats.EffectiveK = k
	}
	rows := make([][]Value, 0, len(g.order))
	for _, gr := range g.order {
		if k > 1 && len(gr.subjects) > 0 && len(gr.subjects) < k {
			p.enf.stats.SuppressedGroups++
			continue
		}
		row := make([]Value, len(p.cols))
		for ci, oc := range p.cols {
			if oc.expr.Agg == AggNone {
				row[ci] = gr.vals[oc.by]
				continue
			}
			row[ci] = finalizeAgg(oc.expr, &gr.states[ci])
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
	return p.finish(rows)
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
