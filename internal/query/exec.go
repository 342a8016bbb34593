package query

import (
	"math/bits"
	"sort"
	"sync"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/sensor"
)

// binding ties a plan to its requester and the Env it reads through.
// Only Compile constructs one, so every row source in this package
// runs behind a per-row decision: scan is the sole way plans read
// ground truth, and it consults the enforcement engine (through a
// per-execution memo) before a row may continue into residual
// filtering, projection, or aggregation.
type binding struct {
	env Env
	req Requester
}

// enforcement is one execution of a plan, with its own tables and
// counts: Execute builds a fresh one every time.
type enforcement struct {
	*binding
	*tables

	// maxFloor is the largest MinAggregationK among subjects whose
	// rows survive residual filtering and so contribute to the result;
	// it raises the k floor for grouped output. A row a predicate
	// discards cannot raise the floor on unrelated output.
	maxFloor int
	stats    Stats
}

// tables are an execution's intern and memo tables, taken from
// tablesPool and emptied both when taken and when released: they keep
// their buckets, but nothing one execution decided is visible to the
// next (the engine memo stays the one cross-request decision cache),
// and a pooled struct pins none of its last statement's strings.
type tables struct {
	// Each subject, space and kind a row names gets a dense id, and the
	// memo's keys and the grouper's subject sets hang off those
	// instead of off strings. users holds "" as id 0, so a subject id
	// of 0 means unattributed. domains holds each subject's class
	// domain, by subject id.
	users, spaces, kinds interner
	domains              []enforce.Domain

	// memo is the execution's decision snapshot per (subject, kind,
	// space, window class of the capture time); a scan over a million
	// rows usually needs a few dozen engine calls, and a repeat costs a
	// map hit on dense ids instead of one. Env.Decide also folds an
	// override into its subject's inbox, so the entry counts once per
	// execution, not per row. The
	// scan reads back only a verdict, so the memo holds an index into
	// the execution's few distinct verdicts and the enforce.Decision
	// is dropped.
	memo      map[memoKey]uint32
	verdicts  []verdict
	verdictOf map[verdict]uint32

	// groups is the grouper's key index. strs and values intern its
	// COUNT(DISTINCT) operands into one id space, or execOccupancy's
	// released spaces and subjects.
	groups       map[string]*group
	strs, values interner
}

var tablesPool = sync.Pool{New: func() any {
	return &tables{users: interner{}, spaces: interner{}, kinds: interner{}, memo: map[memoKey]uint32{},
		verdictOf: map[verdict]uint32{}, groups: map[string]*group{}, strs: interner{}, values: interner{}}
}}

func (t *tables) release() {
	t.reset()
	tablesPool.Put(t)
}

// reset empties every table; clearing an empty map costs nothing.
func (t *tables) reset() {
	for _, in := range []interner{t.users, t.spaces, t.kinds, t.strs, t.values} {
		clear(in)
	}
	clear(t.memo)
	clear(t.verdictOf)
	clear(t.groups)
	clear(t.verdicts)
	clear(t.domains)
	t.verdicts, t.domains = t.verdicts[:0], t.domains[:0]
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

// memoKey is exactly (subject, kind, space, class), unpacked: a
// space-scoped rule decides per space, a windowed one per class, and no
// field can spill into its neighbour.
type memoKey struct {
	user, kind, space uint32
	class             enforce.Class
}

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

// decide returns the requester's verdict for one row, judged at its
// capture time, memoized by (subject, kind, space, class) for the
// execution's lifetime, and the subject's id.
func (e *enforcement) decide(o *sensor.Observation) (verdict, uint32) {
	key := memoKey{user: e.users.id(o.UserID), kind: e.kinds.id(string(o.Kind)), space: e.spaces.id(o.SpaceID)}
	if int(key.user) == len(e.domains) {
		e.domains = append(e.domains, e.env.Domain(o.UserID))
	}
	key.class = e.domains[key.user].Class(o.Time)
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
		Time:        o.Time,
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
	e.domains = append(e.domains, e.env.Domain("")) // for subject id 0
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
// no path to data. Each run decides afresh, with tables of its own.
func (p *Plan) Execute() (*Result, error) {
	if p == nil || p.bind == nil {
		return nil, &EnforceError{Msg: "plan has no enforcement binding; use Compile"}
	}
	t := tablesPool.Get().(*tables)
	t.reset()
	defer t.release()
	return p.execute(t)
}

// execute runs the plan over empty tables t, which it leaves holding
// what the run interned and decided.
func (p *Plan) execute(t *tables) (*Result, error) {
	e := &enforcement{binding: p.bind, tables: t}
	t.users[""] = 0
	switch p.table {
	case TableAudit:
		return p.execAudit(e)
	case TableOccupancy:
		return p.execOccupancy(e)
	default:
		return p.execObservations(e)
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

func (p *Plan) execObservations(e *enforcement) (*Result, error) {
	if p.grouped {
		g := newGrouper(p, e)
		err := e.scan(p.filter, true, p.residual, func(rel *sensor.Observation, subject uint32) bool {
			g.add((*obsRow)(rel), subject)
			return true
		})
		if err != nil {
			return nil, err
		}
		return g.result(), nil
	}
	pr := projector{p: p}
	err := e.scan(p.filter, false, p.residual, func(rel *sensor.Observation, _ uint32) bool {
		return pr.add((*obsRow)(rel))
	})
	if err != nil {
		return nil, err
	}
	e.stats.EffectiveK = e.effectiveK()
	return p.finish(e, pr.rows), nil
}

func (p *Plan) execAudit(e *enforcement) (*Result, error) {
	recs := e.env.AuditRecords(e.req.UserID)
	e.stats.ScannedRows = len(recs)
	e.stats.EffectiveK = 1
	var (
		cur *auditRow
		g   *grouper
		pr  = projector{p: p}
	)
	if p.grouped {
		g = newGrouper(p, e)
	}
	get := func(col string) Value { return cur.col(colIndex(auditColumns, col)) }
	for i := range recs {
		cur = (*auditRow)(&recs[i])
		if p.residual != nil && !p.residual.eval(get) {
			continue
		}
		e.stats.ReleasedRows++
		if g != nil {
			g.add(cur, 0)
		} else if !pr.add(cur) {
			break
		}
	}
	if g != nil {
		return g.result(), nil
	}
	return p.finish(e, pr.rows), nil
}

// execOccupancy counts the distinct released subjects per released
// space, exactly as privacy.KAnonymousCounts would over the released
// rows: a row without a released user_id counts nowhere.
func (p *Plan) execOccupancy(e *enforcement) (*Result, error) {
	var (
		spaces, users = e.strs, e.values
		sets          []idSet // by space id
		slab          idSlab
	)
	err := e.scan(p.filter, true, p.residual, func(rel *sensor.Observation, _ uint32) bool {
		if rel.UserID == "" {
			return true
		}
		i := spaces.id(rel.SpaceID)
		if int(i) == len(sets) {
			sets = append(sets, idSet{})
		}
		sets[i].add(users.id(rel.UserID), &slab)
		return true
	})
	if err != nil {
		return nil, err
	}
	n := make(map[string]int, len(spaces))
	for space, i := range spaces {
		n[space] = sets[i].n
	}
	// Spaces short of the effective k floor are withheld.
	k := e.effectiveK()
	e.stats.EffectiveK = k
	counts := privacy.SuppressBelowK(n, k)
	e.stats.SuppressedGroups = len(n) - len(counts)

	w := len(p.cols)
	cells := make([]Value, len(counts)*w)
	rows := make([][]Value, 0, len(counts))
	var c privacy.AggregateCount
	get := func(col string) Value {
		if col == "count" {
			return numberValue(float64(c.Count))
		}
		return stringValue(c.Key)
	}
	for _, c = range counts {
		if p.countPred != nil && !p.countPred.eval(get) {
			continue
		}
		row := cells[:w:w]
		for i, oc := range p.cols {
			row[i] = get(oc.expr.Col)
		}
		rows = append(rows, row)
		cells = cells[w:]
	}
	return p.finish(e, rows), nil
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
// An item is exactly one aggregate, so n counts COUNT's rows or SUM's
// and AVG's operands, and ext is MIN's or MAX's running extreme.
type aggState struct {
	n        int
	sum      float64
	ext      Value
	distinct idSet // of grouper.distinctID ids
}

type group struct {
	vals   []Value    // GROUP BY values, in Plan.groupCols order
	states []aggState // one per aggregate item, at its outCol.by
	// subjects are the ground-truth contributors the k floor counts.
	subjects idSet
}

// idSet is a set of a statement's dense ids: open addressing over
// id+1 (0 marks a free slot) in one power-of-two array, so a member
// costs four bytes and no object of its own. The arrays come from the
// statement's idSlab.
type idSet struct {
	slots []uint32
	n     int
}

func (s *idSet) add(id uint32, slab *idSlab) {
	if 4*(s.n+1) > 3*len(s.slots) { // load stays under 3/4: a probe always ends
		old := s.slots
		s.slots, s.n = slab.take(max(8, 2*len(old))), 0
		for _, v := range old {
			if v != 0 {
				s.add(v-1, slab)
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

// idSlab carves a statement's id-set arrays out of shared chunks, so a
// set's growth costs no object of its own: chunks double from
// slabDirect to slabMax slots, and a set of slabDirect slots or more —
// which no chunk tail could hold without waste — gets its own array.
// An outgrown array stays in its chunk until the statement ends.
type idSlab struct {
	free  []uint32 // the current chunk's untaken tail
	chunk int      // the current chunk's size
}

const slabDirect, slabMax = 1 << 10, 1 << 14

// take returns n zeroed slots.
func (sl *idSlab) take(n int) []uint32 {
	if n >= slabDirect {
		return make([]uint32, n)
	}
	if len(sl.free) < n {
		sl.chunk = min(max(2*sl.chunk, slabDirect), slabMax)
		sl.free = make([]uint32, sl.chunk)
	}
	s := sl.free[:n:n]
	sl.free = sl.free[n:]
	return s
}

// Groups, with their values and states, come in chunks: the first
// holds groupFirst groups and each next one as many as all before it,
// up to groupMax. A statement of n groups pays for the next power of
// two (at least groupFirst) and, past groupMax, for whole groupMax
// chunks: never more than groupMax-sized chunks alone would hold.
const groupFirst, groupMax = 4, 64

// grouper is the GROUP BY / aggregate sink. Keys are built in one
// reused buffer and probed with m[string(buf)], so a row allocates
// nothing: a new group costs its key string, and groups, their values
// and states and every id set come from per-statement chunks.
// COUNT(DISTINCT) operands get statement ids — a string by the
// released row's own Str, any other kind by its groupKey encoding, so
// equality is groupKey's: -0 and 0 differ, every NaN is one value,
// times compare by UnixNano.
type grouper struct {
	p *Plan
	e *enforcement // its groups index the groups by key
	// chunks hold the groups in first-seen order; a chunk is filled to
	// its capacity, never past it, so a group never moves.
	chunks [][]group
	n      int
	// vals and states are the current chunk's untaken tails.
	vals   []Value
	states []aggState
	aggs   int // aggregate items: a group's states
	key    []byte
	slab   idSlab
}

func newGrouper(p *Plan, e *enforcement) *grouper {
	g := &grouper{p: p, e: e}
	for _, oc := range p.cols {
		if oc.expr.Agg != AggNone {
			g.aggs++
		}
	}
	return g
}

func (g *grouper) newGroup() *group {
	w, s := len(g.p.groupCols), g.aggs
	last := len(g.chunks) - 1
	if last < 0 || len(g.chunks[last]) == cap(g.chunks[last]) {
		// Every chunk is full, so n is what they hold.
		size := min(max(g.n, groupFirst), groupMax)
		g.chunks = append(g.chunks, make([]group, 0, size))
		g.vals = make([]Value, size*w)
		g.states = make([]aggState, size*s)
		last++
	}
	c := &g.chunks[last]
	*c = append(*c, group{})
	gr := &(*c)[len(*c)-1]
	g.n++
	gr.vals, g.vals = g.vals[:w:w], g.vals[w:]
	gr.states, g.states = g.states[:s:s], g.states[s:]
	return gr
}

// distinctID is v's statement id as a COUNT(DISTINCT) operand.
func (g *grouper) distinctID(v Value) uint32 {
	in, s := g.e.strs, v.Str
	if v.Kind != KindString {
		g.key = v.groupKey(g.key[:0])
		if id, ok := g.e.values[string(g.key)]; ok {
			return id
		}
		in, s = g.e.values, string(g.key)
	}
	id, ok := in[s]
	if !ok {
		id = uint32(len(g.e.strs) + len(g.e.values))
		in[s] = id
	}
	return id
}

// add folds one released row into its group.
func (g *grouper) add(r row, subject uint32) {
	p := g.p
	g.key = g.key[:0]
	for _, c := range p.groupCols {
		g.key = r.col(c).groupKey(g.key)
	}
	gr, ok := g.e.groups[string(g.key)]
	if !ok {
		gr = g.newGroup()
		g.e.groups[string(g.key)] = gr
		for i, c := range p.groupCols {
			gr.vals[i] = r.col(c)
		}
	}
	for ci := range p.cols {
		oc := &p.cols[ci]
		if oc.expr.Agg == AggNone {
			continue
		}
		st := &gr.states[oc.by]
		if oc.expr.Star {
			st.n++
			continue
		}
		v := r.col(oc.src)
		if v.Kind == KindNull {
			continue
		}
		switch oc.expr.Agg {
		case AggCount:
			if oc.expr.Distinct {
				st.distinct.add(g.distinctID(v), &g.slab)
			} else {
				st.n++
			}
		case AggSum, AggAvg:
			st.sum += v.Num
			st.n++
		case AggMin:
			if st.ext.Kind == KindNull || v.compare(st.ext) < 0 {
				st.ext = v
			}
		case AggMax:
			if st.ext.Kind == KindNull || v.compare(st.ext) > 0 {
				st.ext = v
			}
		}
	}
	if subject != 0 {
		gr.subjects.add(subject, &g.slab)
	}
}

// result finalizes the groups in first-seen order. Over observations,
// groups containing attributed rows whose distinct subjects fall short
// of the effective k floor are withheld, matching the occupancy path's
// k-anonymity discipline; a group with no attributed contribution —
// purely environmental data — has no subject to protect and is never
// suppressed. Audit rows are the requester's own and carry no floor.
// The output cells are one array, and a row HAVING rejects leaves its
// cells to the next.
func (g *grouper) result() *Result {
	p := g.p
	// A global aggregate (no GROUP BY) yields one row even over an
	// empty scan: COUNT(*) of nothing is 0.
	if len(p.groupCols) == 0 && g.n == 0 {
		g.newGroup()
	}
	k := 1
	if p.table != TableAudit {
		k = g.e.effectiveK()
		g.e.stats.EffectiveK = k
	}
	released := func(gr *group) bool { return k <= 1 || gr.subjects.n == 0 || gr.subjects.n >= k }
	kept := 0
	for _, c := range g.chunks {
		for i := range c {
			if released(&c[i]) {
				kept++
			}
		}
	}
	g.e.stats.SuppressedGroups += g.n - kept
	w := len(p.cols)
	cells := make([]Value, kept*w)
	rows := make([][]Value, 0, kept)
	var row []Value
	get := func(col string) Value {
		for ci, oc := range p.cols {
			if oc.name == col || oc.expr.canonical() == col {
				return row[ci]
			}
		}
		return Value{}
	}
	for _, c := range g.chunks {
		for i := range c {
			gr := &c[i]
			if !released(gr) {
				continue
			}
			row = cells[:w:w]
			for ci, oc := range p.cols {
				if oc.expr.Agg == AggNone {
					row[ci] = gr.vals[oc.by]
					continue
				}
				row[ci] = finalizeAgg(oc.expr, &gr.states[oc.by])
			}
			if p.having != nil && !p.having.eval(get) {
				continue
			}
			rows = append(rows, row)
			cells = cells[w:]
		}
	}
	return p.finish(g.e, rows)
}

func finalizeAgg(it SelectExpr, st *aggState) Value {
	switch it.Agg {
	case AggCount:
		if it.Distinct {
			return numberValue(float64(st.distinct.n))
		}
		return numberValue(float64(st.n))
	case AggSum:
		if st.n == 0 {
			return Value{}
		}
		return numberValue(st.sum)
	case AggAvg:
		if st.n == 0 {
			return Value{}
		}
		return numberValue(st.sum / float64(st.n))
	case AggMin, AggMax:
		return st.ext
	default:
		return Value{}
	}
}

// finish applies ORDER BY and LIMIT and assembles the Result.
func (p *Plan) finish(e *enforcement, rows [][]Value) *Result {
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
	e.stats.Subjects = len(e.users) - 1 // "" is interned from the start
	return &Result{Columns: cols, Rows: rows, Stats: e.stats}
}
