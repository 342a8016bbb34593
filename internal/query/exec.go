package query

import (
	"math/bits"
	"sort"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/sensor"
)

// enforcement binds a plan's scan to the requester's identity. It is
// unexported and only Compile constructs it, so every row source in
// this package runs behind a per-row decision: scan is the sole way
// plans read ground truth, and it consults the enforcement engine
// (through a per-statement memo) before a row may continue into
// residual filtering, projection, or aggregation.
type enforcement struct {
	env   Env
	req   Requester
	table string
	now   time.Time

	// The statement's intern tables: each subject, space and kind a
	// row names gets a dense id, and the memo's keys and the grouper's
	// subject sets hang off those instead of off strings. users holds
	// "" as id 0, so a subject id of 0 means unattributed.
	users, spaces, kinds interner

	// memo is the statement's decision snapshot per (subject, kind,
	// space); a scan over a million rows usually needs a few dozen
	// engine calls. It is not redundant with the engine's own memo,
	// which never holds notification-bearing decisions: without this
	// one an override would notify its subject once per scanned row.
	// Env.Decide has delivered the notifications by the time it
	// returns and the scan reads back only a verdict, so the memo holds
	// an index into the statement's few distinct verdicts and the
	// enforce.Decision is dropped.
	memo      map[memoKey]uint32
	verdicts  []verdict
	verdictOf map[verdict]uint32

	// maxFloor is the largest MinAggregationK among subjects whose
	// rows survive residual filtering and so contribute to the result;
	// it raises the k floor for grouped output. A row a predicate
	// discards cannot raise the floor on unrelated output.
	maxFloor int
	stats    Stats
}

// interner gives a statement's strings dense ids in first-seen order;
// memory runs out long before 2^32 distinct strings do.
type interner map[string]uint32

func (in interner) id(s string) uint32 {
	id, ok := in[s]
	if !ok {
		id = uint32(len(in))
		in[s] = id
	}
	return id
}

// memoKey is exactly (subject, kind, space), unpacked: a space-scoped
// rule decides per space, and no field can spill into its neighbour.
type memoKey struct{ user, kind, space uint32 }

// verdict is what the scan reads back from a decision. Denials are
// normalized to the zero verdict.
type verdict struct {
	allowed     bool
	granularity policy.Granularity
	effective   policy.Rule
}

// decision rebuilds the part of the engine's decision Env.Apply reads.
func (v verdict) decision() enforce.Decision {
	return enforce.Decision{Allowed: v.allowed, Granularity: v.granularity, Effective: v.effective}
}

func newEnforcement(env Env, req Requester, table string) *enforcement {
	if req.MinK < 1 {
		req.MinK = 1
	}
	now := time.Now()
	if env.Now != nil {
		now = env.Now()
	}
	return &enforcement{
		env:       env,
		req:       req,
		table:     table,
		now:       now,
		users:     interner{"": 0},
		spaces:    interner{},
		kinds:     interner{},
		memo:      make(map[memoKey]uint32),
		verdictOf: make(map[verdict]uint32),
	}
}

// decide returns the requester's verdict for one row's (subject, kind,
// space), memoized for the statement's lifetime, and the subject's id.
func (e *enforcement) decide(o *sensor.Observation) (verdict, uint32) {
	key := memoKey{user: e.users.id(o.UserID), kind: e.kinds.id(string(o.Kind)), space: e.spaces.id(o.SpaceID)}
	if h, ok := e.memo[key]; ok {
		return e.verdicts[h], key.user
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
	e.stats.Decisions++
	var v verdict
	if d.Allowed {
		v = verdict{allowed: true, granularity: d.Granularity, effective: d.Effective}
	}
	h, ok := e.verdictOf[v]
	if !ok {
		h = uint32(len(e.verdicts))
		e.verdicts = append(e.verdicts, v)
		e.verdictOf[v] = h
	}
	e.memo[key] = h
	return v, key.user
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
// ground-truth subject, as its statement id (0: unattributed) —
// suppression keys off that, not the released view, so a transform
// that redacts user_id cannot exempt a group from its subjects' k
// floors. The released row is one slot reused for every row: a sink
// copies what it keeps. A sink returning false ends the scan.
func (e *enforcement) scan(f obstore.Filter, aggregate bool, residual boolExpr, sink func(rel *sensor.Observation, subject uint32) bool) error {
	var (
		rel sensor.Observation
		err error
	)
	get := func(col string) Value { return (*obsRow)(&rel).col(colIndex(obsColumns, col)) }
	e.env.ScanEach(f, func(o *sensor.Observation) bool {
		e.stats.ScannedRows++
		v, subject := e.decide(o)
		if !v.allowed {
			e.stats.DeniedRows++
			return true
		}
		if !aggregate && v.effective.MinAggregationK > 1 && subject != 0 {
			e.stats.ExcludedRows++
			return true
		}
		var ok bool
		if rel, ok, err = e.env.Apply(v.decision(), *o); err != nil {
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
		if subject != 0 && v.effective.MinAggregationK > e.maxFloor {
			e.maxFloor = v.effective.MinAggregationK
		}
		return sink(&rel, subject)
	})
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
		return p.execOccupancy()
	default:
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
		err := p.enf.scan(p.filter, true, p.residual, func(rel *sensor.Observation, subject uint32) bool {
			g.add((*obsRow)(rel), subject)
			return true
		})
		if err != nil {
			return nil, err
		}
		return g.result(), nil
	}
	pr := projector{p: p}
	err := p.enf.scan(p.filter, false, p.residual, func(rel *sensor.Observation, _ uint32) bool {
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
			g.add(cur, 0)
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
	err := p.enf.scan(p.filter, true, p.residual, func(rel *sensor.Observation, _ uint32) bool {
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
	distinct idSet // of grouper.values ids
}

type group struct {
	vals   []Value // GROUP BY values, in Plan.groupCols order
	states []aggState
	// subjects are the ground-truth contributors the k floor counts.
	subjects idSet
}

// idSet is a set of a statement's dense ids: open addressing over
// id+1 (0 marks a free slot) in one power-of-two array, so a member
// costs four bytes and no object of its own.
type idSet struct {
	slots []uint32
	n     int
}

func (s *idSet) add(id uint32) {
	if 4*(s.n+1) > 3*len(s.slots) { // load stays under 3/4: a probe always ends
		old := s.slots
		s.slots, s.n = make([]uint32, max(8, 2*len(old))), 0
		for _, v := range old {
			if v != 0 {
				s.add(v - 1)
			}
		}
	}
	mask := uint32(len(s.slots) - 1)
	// Fibonacci hashing: the product's top bits spread dense ids and
	// strided ones alike.
	for i := (id + 1) * 0x9E3779B1 >> bits.LeadingZeros32(mask); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case id + 1:
			return
		case 0:
			s.slots[i] = id + 1
			s.n++
			return
		}
	}
}

// grouper is the GROUP BY / aggregate sink. Keys are built in one
// reused buffer and probed with m[string(buf)], so a string is
// allocated only for a new group or, once per statement, a new
// COUNT(DISTINCT) operand: allocations scale with the groups plus the
// distinct values, not with the rows or with groups × values.
type grouper struct {
	p      *Plan
	groups map[string]*group
	order  []*group // first-seen
	key    []byte
	values interner // COUNT(DISTINCT) operands by their groupKey encoding
}

func newGrouper(p *Plan) *grouper {
	return &grouper{p: p, groups: make(map[string]*group), values: interner{}}
}

func (g *grouper) newGroup() *group {
	gr := &group{vals: make([]Value, len(g.p.groupCols)), states: make([]aggState, len(g.p.cols))}
	g.order = append(g.order, gr)
	return gr
}

// add folds one released row into its group.
func (g *grouper) add(r row, subject uint32) {
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
	for ci := range p.cols {
		oc := &p.cols[ci]
		if oc.expr.Agg == AggNone {
			continue
		}
		st := &gr.states[ci]
		if oc.expr.Star {
			st.count++
			continue
		}
		v := r.col(oc.src)
		if v.Kind == KindNull {
			continue
		}
		switch oc.expr.Agg {
		case AggCount:
			if !oc.expr.Distinct {
				st.count++
				continue
			}
			g.key = v.groupKey(g.key[:0])
			id, ok := g.values[string(g.key)]
			if !ok {
				id = uint32(len(g.values))
				g.values[string(g.key)] = id
			}
			st.distinct.add(id)
		case AggSum, AggAvg:
			st.sum += v.Num
			st.sumN++
		case AggMin:
			st.observeMin(v)
		case AggMax:
			st.observeMax(v)
		}
	}
	if subject != 0 {
		gr.subjects.add(subject)
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
		if k > 1 && gr.subjects.n > 0 && gr.subjects.n < k {
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
			return numberValue(float64(st.distinct.n))
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
	p.enf.stats.Subjects = len(p.enf.users) - 1 // "" is interned from the start
	return &Result{Columns: cols, Rows: rows, Stats: p.enf.stats}
}
