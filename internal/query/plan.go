package query

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// colType is the static type of a table column.
type colType int

const (
	colString colType = iota + 1
	colNumber
	colBool
	colTime
)

func (t colType) String() string {
	switch t {
	case colString:
		return "string"
	case colNumber:
		return "number"
	case colBool:
		return "bool"
	case colTime:
		return "time"
	default:
		return "?"
	}
}

// Table names.
const (
	TableObservations = "observations"
	TableOccupancy    = "occupancy"
	TableAudit        = "audit"
)

var obsColumns = []string{"seq", "sensor_id", "kind", "time", "space_id", "device_mac", "user_id", "value"}

// Positions in obsColumns, which obsRow.col switches on.
const (
	obsSeq = iota
	obsSensorID
	obsKind
	obsTime
	obsSpaceID
	obsDeviceMAC
	obsUserID
	obsValue
)

// colIndex is the position of name in a table's column list, -1 when
// absent.
func colIndex(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	return -1
}

var obsColType = map[string]colType{
	"seq":        colNumber,
	"sensor_id":  colString,
	"kind":       colString,
	"time":       colTime,
	"space_id":   colString,
	"device_mac": colString,
	"user_id":    colString,
	"value":      colNumber,
}

var auditColumns = []string{"id", "time", "path", "service_id", "subject_id", "kind", "purpose", "allowed", "deny_reason", "granularity", "cache_hit"}

var auditColType = map[string]colType{
	"id":          colNumber,
	"time":        colTime,
	"path":        colString,
	"service_id":  colString,
	"subject_id":  colString,
	"kind":        colString,
	"purpose":     colString,
	"allowed":     colBool,
	"deny_reason": colString,
	"granularity": colString,
	"cache_hit":   colBool,
}

var occColumns = []string{"space_id", "count"}

var occColType = map[string]colType{
	"space_id": colString,
	"count":    colNumber,
}

// boolExpr is a type-checked predicate evaluated against a row via a
// column accessor.
type boolExpr interface {
	eval(get func(col string) Value) bool
}

type andPred struct{ l, r boolExpr }
type orPred struct{ l, r boolExpr }
type notPred struct{ e boolExpr }

type cmpPred struct {
	col string
	op  string
	val Value
}

type inPred struct {
	col  string
	vals []Value
	neg  bool
}

type betweenPred struct {
	col    string
	lo, hi Value
	neg    bool
}

func (p *andPred) eval(get func(string) Value) bool { return p.l.eval(get) && p.r.eval(get) }
func (p *orPred) eval(get func(string) Value) bool  { return p.l.eval(get) || p.r.eval(get) }
func (p *notPred) eval(get func(string) Value) bool { return !p.e.eval(get) }

func (p *cmpPred) eval(get func(string) Value) bool {
	v := get(p.col)
	if v.Kind == KindNull {
		return false
	}
	c := v.compare(p.val)
	switch p.op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	default:
		return false
	}
}

func (p *inPred) eval(get func(string) Value) bool {
	v := get(p.col)
	if v.Kind == KindNull {
		return false
	}
	found := false
	for _, w := range p.vals {
		if v.compare(w) == 0 {
			found = true
			break
		}
	}
	return found != p.neg
}

func (p *betweenPred) eval(get func(string) Value) bool {
	v := get(p.col)
	if v.Kind == KindNull {
		return false
	}
	in := v.compare(p.lo) >= 0 && v.compare(p.hi) <= 0
	return in != p.neg
}

// outCol is one resolved output column: either a group-by passthrough
// or an aggregate.
type outCol struct {
	name string // header, and the handle HAVING / ORDER BY use
	expr SelectExpr
	typ  colType
	// src is expr.Col's position in the scanned table's column list
	// (-1 for COUNT(*)); by is a grouped passthrough column's position
	// in GROUP BY, or an aggregate's among the statement's aggregates
	// (its state's index in a group). Both are resolved at compile time
	// so the executor never matches a column name per cell.
	src, by int
}

// Plan is a compiled, executable statement: its shape's template bound
// to the statement's literals and to a requester. Every Plan carries
// an enforcement binding (constructed only by bind, see exec.go);
// Execute refuses to run without one, so there is no code path in this
// package that releases a row undecided.
type Plan struct {
	*template

	// filter is the pushed-down store filter: sargable sensor / space
	// / time conjuncts from WHERE, pre-expanded over spatial subtrees.
	// Spatial bounds in it are pruning hints only — the matching
	// conjunct also stays in residual, because the store prunes on
	// ground-truth locations while enforcement may release coarser
	// ones.
	filter obstore.Filter
	// residual is what remains of WHERE; it evaluates against the
	// released (post-enforcement) view of each row. nil matches all.
	residual boolExpr
	// countPred is the occupancy table's post-aggregation predicate
	// (WHERE terms over "count").
	countPred boolExpr
	having    boolExpr
	limit     int

	bind  *binding
	bound binding // what bind points at: a plan and its binding are one object
}

// template is a statement compiled without its literals: all a plan
// takes from the statement's shape. It holds no literal, no requester
// and no verdict, so one template serves every requester and every
// value its shape is sent with, and bind supplies them. Nothing writes
// to a template once newTemplate has returned it.
type template struct {
	table   string
	grouped bool
	cols    []outCol
	// groupCols are the GROUP BY columns' positions in the scanned
	// table's column list.
	groupCols []int
	orderBy   []orderSpec
	// where are WHERE's top-level conjuncts, typed, in order, and count
	// the occupancy table's terms over "count"; havingPred is HAVING.
	where, count []*pred
	havingPred   *pred
	// hasLimit: the statement's last literal is its LIMIT, which no
	// slot takes.
	hasLimit bool
}

type orderSpec struct {
	idx  int
	desc bool
}

// predKind tags a pred.
type predKind uint8

const (
	predCmp predKind = iota
	predIn
	predBetween
	predAnd
	predOr
	predNot
)

// pred is a type-checked predicate of a template: a column of known
// type compared with literal slots — from slot on, one for a
// comparison, lo and hi for BETWEEN, the list for IN — or AND, OR or
// NOT over preds. bind coerces the slots' literals into a boolExpr.
type pred struct {
	kind    predKind
	l, r    *pred // AND's and OR's operands; NOT's is l
	col     string
	typ     colType
	op      string // a comparison's operator
	slot, n int
	neg     bool // NOT IN, NOT BETWEEN
}

// PushedFilter exposes the store filter the executor will scan with;
// tests assert pushdown pruning against it.
func (p *Plan) PushedFilter() obstore.Filter { return p.filter }

// Table is the relation the plan reads.
func (p *Plan) Table() string { return p.table }

// Compile type-checks stmt against env and binds it to requester,
// producing an executable plan with enforcement structurally
// attached: it compiles stmt's template and binds it to stmt's
// literals, as PlanCache binds a cached one.
func Compile(stmt *SelectStmt, env Env, requester Requester) (*Plan, error) {
	p, _, _, err := compile(stmt, env, requester)
	return p, err
}

// compile is Compile, also returning the plan's template and the
// literals it was bound to.
func compile(stmt *SelectStmt, env Env, req Requester) (*Plan, *template, []Literal, error) {
	// bind admits the requester again; admitting first reports a
	// refusal ahead of any fault of the statement's.
	if err := admit(stmt.Table, &env, req); err != nil {
		return nil, nil, nil, err
	}
	t, lits, err := newTemplate(stmt)
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := t.bind(lits, stmt.Limit, env, req)
	return p, t, lits, err
}

// admit checks that req may query table and that env is wired for it,
// and fills in env's adapter and default.
func admit(table string, env *Env, req Requester) error {
	switch table {
	case TableObservations, TableOccupancy:
		if req.ServiceID == "" {
			return &EnforceError{Msg: "a query against " + table + " requires a service identity"}
		}
		if (env.ScanEach == nil && env.Scan == nil) || env.Decide == nil || env.Apply == nil {
			return planErrf("environment is not wired for %s (need ScanEach or Scan, Decide, Apply)", table)
		}
		if env.ScanEach == nil {
			// The one executor is push-based; a slice-returning Scan is
			// adapted here and nothing below Compile knows which was
			// supplied.
			scan := env.Scan
			env.ScanEach = func(f obstore.Filter, visit func(*sensor.Observation, obstore.Codes) bool) {
				rows := scan(f)
				for i := range rows {
					if !visit(&rows[i], obstore.Codes{}) {
						return
					}
				}
			}
		}
		if env.Domain == nil {
			env.Domain = func(string) enforce.Domain { return enforce.Domain{} }
		}
	case TableAudit:
		if req.UserID == "" {
			return &EnforceError{Msg: "the audit table requires a user identity; it is scoped to the requester's own decisions"}
		}
		if env.AuditRecords == nil {
			return planErrf("environment is not wired for audit (need AuditRecords)")
		}
	default:
		return planErrf("unknown table %q (tables: observations, occupancy, audit)", table)
	}
	return nil
}

// compiler builds one statement's template.
type compiler struct {
	stmt *SelectStmt
	t    *template
	// lits are the statement's literals in slot order: the order the
	// compiler meets them, which is the order they are written in.
	lits []Literal
}

// newTemplate compiles stmt's template and returns stmt's literals in
// slot order. It checks each literal's coercion where the walk over
// the statement meets it, so the fault reported is the statement's
// first, among column and literal faults alike. Every name the
// template keeps is copied out of the statement: an identifier the
// lexer did not have to lowercase is a substring of the SQL text, and
// a cached template would keep that text, literals and all, reachable.
func newTemplate(stmt *SelectStmt) (*template, []Literal, error) {
	c := &compiler{stmt: stmt, t: &template{table: strings.Clone(stmt.Table), hasLimit: stmt.Limit >= 0},
		lits: make([]Literal, 0, countLits(stmt.Where)+countLits(stmt.Having))}
	for _, resolve := range [...]func() error{c.resolveColumns, c.resolveWhere, c.resolveHaving, c.resolveOrderBy} {
		if err := resolve(); err != nil {
			return nil, nil, err
		}
	}
	return c.t, c.lits, nil
}

// rowSchema is the table's scan-time column set.
func (c *compiler) rowSchema() (cols []string, types map[string]colType) {
	switch c.stmt.Table {
	case TableAudit:
		return auditColumns, auditColType
	case TableOccupancy:
		return occColumns, occColType
	default:
		return obsColumns, obsColType
	}
}

// predSchema is the column set WHERE may reference. For occupancy
// that is the underlying observation columns (scan scope) plus
// "count" (post-aggregation).
func (c *compiler) predSchema() map[string]colType {
	if c.stmt.Table == TableOccupancy {
		m := make(map[string]colType, len(obsColType)+1)
		for k, v := range obsColType {
			m[k] = v
		}
		m["count"] = colNumber
		return m
	}
	_, types := c.rowSchema()
	return types
}

func (c *compiler) resolveColumns() error {
	cols, types := c.rowSchema()
	stmt, p := c.stmt, c.t

	if stmt.Table == TableOccupancy {
		if len(stmt.GroupBy) > 0 {
			return planErrf("occupancy is already grouped by space_id; GROUP BY is not valid")
		}
		if stmt.Having != nil {
			return planErrf("occupancy does not support HAVING; put count predicates in WHERE")
		}
		items := stmt.Columns
		if stmt.Star {
			items = []SelectExpr{{Col: "space_id"}, {Col: "count"}}
		}
		for _, it := range items {
			it = detach(it)
			if it.Agg != AggNone {
				return planErrf("occupancy is already aggregated; select space_id and count")
			}
			if _, ok := types[it.Col]; !ok {
				return planErrf("unknown occupancy column %q (columns: space_id, count)", it.Col)
			}
			p.cols = append(p.cols, outCol{name: it.Name(), expr: it, typ: types[it.Col]})
		}
		return c.checkDuplicateNames()
	}

	grouped := len(stmt.GroupBy) > 0
	for _, it := range stmt.Columns {
		if it.Agg != AggNone {
			grouped = true
		}
	}
	p.grouped = grouped

	if stmt.Star {
		if grouped {
			return planErrf("SELECT * cannot be combined with GROUP BY or aggregates")
		}
		for i, col := range cols {
			p.cols = append(p.cols, outCol{name: col, expr: SelectExpr{Col: col}, typ: types[col], src: i})
		}
		return nil
	}

	groupPos := make(map[string]int, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		if _, ok := types[g]; !ok {
			return planErrf("unknown GROUP BY column %q in %s", g, stmt.Table)
		}
		groupPos[g] = i
		p.groupCols = append(p.groupCols, colIndex(cols, g))
	}

	aggs := 0
	for _, it := range stmt.Columns {
		it = detach(it)
		switch it.Agg {
		case AggNone:
			t, ok := types[it.Col]
			if !ok {
				return planErrf("unknown column %q in %s", it.Col, stmt.Table)
			}
			by, inGroup := groupPos[it.Col]
			if grouped && !inGroup {
				return planErrf("column %q must appear in GROUP BY or inside an aggregate", it.Col)
			}
			p.cols = append(p.cols, outCol{name: it.Name(), expr: it, typ: t, src: colIndex(cols, it.Col), by: by})
		default:
			var t colType
			if it.Star {
				t = colNumber
			} else {
				ct, ok := types[it.Col]
				if !ok {
					return planErrf("unknown column %q in %s", it.Col, stmt.Table)
				}
				switch it.Agg {
				case AggSum, AggAvg:
					if ct != colNumber {
						return planErrf("%s requires a numeric column; %q is %s", strings.ToUpper(it.Agg.String()), it.Col, ct)
					}
					t = colNumber
				case AggCount:
					t = colNumber
				default: // MIN / MAX keep the column's type
					t = ct
				}
			}
			p.cols = append(p.cols, outCol{name: it.Name(), expr: it, typ: t, src: colIndex(cols, it.Col), by: aggs})
			aggs++
		}
	}
	if len(p.cols) == 0 {
		return planErrf("empty select list")
	}
	return c.checkDuplicateNames()
}

// countLits is the number of literals in e.
func countLits(e Expr) int {
	switch q := e.(type) {
	case *AndExpr:
		return countLits(q.L) + countLits(q.R)
	case *OrExpr:
		return countLits(q.L) + countLits(q.R)
	case *NotExpr:
		return countLits(q.E)
	case *CmpExpr:
		return 1
	case *InExpr:
		return len(q.Lits)
	case *BetweenExpr:
		return 2
	}
	return 0
}

// detach returns it with Col and Alias copied out of the statement's
// text (see newTemplate).
func detach(it SelectExpr) SelectExpr {
	it.Col, it.Alias = strings.Clone(it.Col), strings.Clone(it.Alias)
	return it
}

func (c *compiler) checkDuplicateNames() error {
	seen := make(map[string]bool, len(c.t.cols))
	for _, oc := range c.t.cols {
		if seen[oc.name] {
			return planErrf("duplicate output column %q; use AS to alias", oc.name)
		}
		seen[oc.name] = true
	}
	return nil
}

// resolveWhere type-checks WHERE's top-level conjuncts and splits
// occupancy count terms out; bind decides what is pushed down.
func (c *compiler) resolveWhere() error {
	if c.stmt.Where == nil {
		return nil
	}
	schema := c.predSchema()
	for _, raw := range splitConjuncts(c.stmt.Where) {
		cols := map[string]bool{}
		collectCols(raw, cols)
		count := c.stmt.Table == TableOccupancy && cols["count"]
		if count && len(cols) > 1 {
			return planErrf("occupancy count predicates cannot mix with scan columns inside OR/NOT; combine them with AND")
		}
		typed, err := c.typePred(raw, schema)
		if err != nil {
			return err
		}
		if count {
			c.t.count = append(c.t.count, typed)
		} else {
			c.t.where = append(c.t.where, typed)
		}
	}
	return nil
}

// splitConjuncts flattens top-level ANDs; OR/NOT subtrees stay whole.
func splitConjuncts(e Expr) []Expr {
	if a, ok := e.(*AndExpr); ok {
		return append(splitConjuncts(a.L), splitConjuncts(a.R)...)
	}
	return []Expr{e}
}

func collectCols(e Expr, into map[string]bool) {
	switch q := e.(type) {
	case *AndExpr:
		collectCols(q.L, into)
		collectCols(q.R, into)
	case *OrExpr:
		collectCols(q.L, into)
		collectCols(q.R, into)
	case *NotExpr:
		collectCols(q.E, into)
	case *CmpExpr:
		into[q.Col] = true
	case *InExpr:
		into[q.Col] = true
	case *BetweenExpr:
		into[q.Col] = true
	}
}

func andAll(terms []boolExpr) boolExpr {
	if len(terms) == 0 {
		return nil
	}
	out := terms[0]
	for _, t := range terms[1:] {
		out = &andPred{l: out, r: t}
	}
	return out
}

// typePred type-checks a predicate subtree against a schema, giving
// each literal the next slot once it coerces to its column's type.
func (c *compiler) typePred(e Expr, schema map[string]colType) (*pred, error) {
	switch q := e.(type) {
	case *AndExpr:
		return c.junction(predAnd, q.L, q.R, schema)
	case *OrExpr:
		return c.junction(predOr, q.L, q.R, schema)
	case *NotExpr:
		inner, err := c.typePred(q.E, schema)
		if err != nil {
			return nil, err
		}
		return &pred{kind: predNot, l: inner}, nil
	case *CmpExpr:
		return c.leaf(&pred{kind: predCmp, col: q.Col, op: q.Op}, schema, q.Lit)
	case *InExpr:
		return c.leaf(&pred{kind: predIn, col: q.Col, neg: q.Neg}, schema, q.Lits...)
	case *BetweenExpr:
		return c.leaf(&pred{kind: predBetween, col: q.Col, neg: q.Neg}, schema, q.Lo, q.Hi)
	default:
		return nil, planErrf("unsupported predicate")
	}
}

// junction types l AND r or l OR r.
func (c *compiler) junction(kind predKind, l, r Expr, schema map[string]colType) (*pred, error) {
	lp, err := c.typePred(l, schema)
	if err != nil {
		return nil, err
	}
	rp, err := c.typePred(r, schema)
	if err != nil {
		return nil, err
	}
	return &pred{kind: kind, l: lp, r: rp}, nil
}

// leaf types a comparison of p.col with lits: the column must be in
// schema and each literal coerce to its type, and the literals take
// the next slots.
func (c *compiler) leaf(p *pred, schema map[string]colType, lits ...Literal) (*pred, error) {
	t, ok := schema[p.col]
	if !ok {
		return nil, planErrf("unknown column %q in WHERE", p.col)
	}
	p.col = strings.Clone(p.col)
	p.typ, p.slot, p.n = t, len(c.lits), len(lits)
	for _, lit := range lits {
		if _, err := coerceLiteral(lit, t, p.col); err != nil {
			return nil, err
		}
		c.lits = append(c.lits, lit)
	}
	return p, nil
}

func coerceLiteral(lit Literal, t colType, col string) (Value, error) {
	switch t {
	case colString:
		if lit.Kind != LitString {
			return Value{}, planErrf("column %q is a string; compare it to a quoted literal", col)
		}
		return StringValue(lit.Text), nil
	case colNumber:
		if lit.Kind != LitNumber {
			return Value{}, planErrf("column %q is numeric; compare it to a number", col)
		}
		f, err := strconv.ParseFloat(lit.Text, 64)
		if err != nil {
			return Value{}, planErrf("malformed number %q", lit.Text)
		}
		return NumberValue(f), nil
	case colBool:
		if lit.Kind != LitBool {
			return Value{}, planErrf("column %q is boolean; compare it to TRUE or FALSE", col)
		}
		return BoolValue(lit.Bool), nil
	case colTime:
		if lit.Kind != LitString {
			return Value{}, planErrf("column %q is a timestamp; compare it to a quoted time literal", col)
		}
		ts, ok := parseTimeLiteral(lit.Text)
		if !ok {
			return Value{}, planErrf("cannot parse %q as a time (use RFC 3339, '2006-01-02 15:04:05', or '2006-01-02')", lit.Text)
		}
		return TimeValue(ts), nil
	default:
		return Value{}, planErrf("internal: unknown column type for %q", col)
	}
}

func (c *compiler) resolveHaving() error {
	if c.stmt.Having == nil {
		return nil
	}
	if !c.t.grouped {
		return planErrf("HAVING requires GROUP BY or aggregates")
	}
	schema := make(map[string]colType, len(c.t.cols)*2)
	for _, oc := range c.t.cols {
		schema[oc.name] = oc.typ
		schema[oc.expr.canonical()] = oc.typ
	}
	typed, err := c.typePred(c.stmt.Having, schema)
	if err != nil {
		pe, ok := err.(*PlanError)
		if ok && strings.Contains(pe.Msg, "in WHERE") {
			pe.Msg = strings.Replace(pe.Msg, "in WHERE", "in HAVING (it must be a selected column or aggregate)", 1)
		}
		return err
	}
	c.t.havingPred = typed
	return nil
}

func (c *compiler) resolveOrderBy() error {
	for _, key := range c.stmt.OrderBy {
		idx := -1
		for i, oc := range c.t.cols {
			if oc.name == key.Col || oc.expr.canonical() == key.Col {
				idx = i
				break
			}
		}
		if idx < 0 {
			return planErrf("ORDER BY column %q is not in the select list", key.Col)
		}
		c.t.orderBy = append(c.t.orderBy, orderSpec{idx: idx, desc: key.Desc})
	}
	return nil
}

// bind binds t to a statement's literals — lits, in slot order, LIMIT's
// not among them —, its LIMIT (-1 for none) and a requester. It redoes
// all that depends on a value: the requester's admission, each
// literal's coercion, pushdown (whether seq > n is pushed depends on
// n) and space expansion through env.Subtree. Compile and PlanCache
// both bind through it.
func (t *template) bind(lits []Literal, limit int, env Env, req Requester) (*Plan, error) {
	if err := admit(t.table, &env, req); err != nil {
		return nil, err
	}
	b := binder{lits: lits, subtree: env.Subtree, pushdown: t.table != TableAudit}
	p := &Plan{template: t, limit: limit}
	var scratch [8]boolExpr
	terms := scratch[:0]
	for _, w := range t.where {
		e, err := b.conjunct(w, &p.filter)
		if err != nil {
			return nil, err
		}
		if e != nil {
			terms = append(terms, e)
		}
	}
	p.residual = andAll(terms)
	terms = scratch[:0]
	for _, w := range t.count {
		e, err := b.expr(w)
		if err != nil {
			return nil, err
		}
		terms = append(terms, e)
	}
	p.countPred = andAll(terms)
	if t.havingPred != nil {
		var err error
		if p.having, err = b.expr(t.havingPred); err != nil {
			return nil, err
		}
	}
	if req.MinK < 1 {
		req.MinK = 1
	}
	p.bound = binding{env: env, req: req}
	p.bind = &p.bound
	return p, nil
}

// binder coerces one statement's literals into a plan's predicates
// and filter.
type binder struct {
	lits     []Literal
	subtree  func(spaceID string) []string
	pushdown bool // the audit table has no store filter
}

// value is the i-th literal of w coerced to w's column type.
func (b *binder) value(w *pred, i int) (Value, error) {
	return coerceLiteral(b.lits[w.slot+i], w.typ, w.col)
}

func (b *binder) cmp(w *pred) (q cmpPred, err error) {
	q = cmpPred{col: w.col, op: w.op}
	q.val, err = b.value(w, 0)
	return q, err
}

func (b *binder) between(w *pred) (q betweenPred, err error) {
	q = betweenPred{col: w.col, neg: w.neg}
	if q.lo, err = b.value(w, 0); err != nil {
		return q, err
	}
	q.hi, err = b.value(w, 1)
	return q, err
}

// expr is w with its literals.
func (b *binder) expr(w *pred) (boolExpr, error) {
	switch w.kind {
	case predAnd, predOr:
		l, err := b.expr(w.l)
		if err != nil {
			return nil, err
		}
		r, err := b.expr(w.r)
		if err != nil {
			return nil, err
		}
		if w.kind == predAnd {
			return &andPred{l: l, r: r}, nil
		}
		return &orPred{l: l, r: r}, nil
	case predNot:
		inner, err := b.expr(w.l)
		if err != nil {
			return nil, err
		}
		return &notPred{e: inner}, nil
	case predIn:
		q := &inPred{col: w.col, vals: make([]Value, w.n), neg: w.neg}
		for i := range q.vals {
			var err error
			if q.vals[i], err = b.value(w, i); err != nil {
				return nil, err
			}
		}
		return q, nil
	case predBetween:
		q, err := b.between(w)
		return &q, err
	default:
		q, err := b.cmp(w)
		return &q, err
	}
}

// conjunct binds one of WHERE's top-level conjuncts: it folds what it
// can into f and returns what stays residual, nil for nothing. A
// comparison is tried on the stack and costs an object only when it
// stays residual.
func (b *binder) conjunct(w *pred, f *obstore.Filter) (boolExpr, error) {
	switch w.kind {
	case predCmp:
		q, err := b.cmp(w)
		if err != nil {
			return nil, err
		}
		if rep, pushed := b.push(&q, f); pushed {
			return rep, nil
		}
		kept := q
		return &kept, nil
	case predBetween:
		q, err := b.between(w)
		if err != nil {
			return nil, err
		}
		if rep, pushed := b.push(&q, f); pushed {
			return rep, nil
		}
		kept := q
		return &kept, nil
	}
	e, err := b.expr(w)
	if err != nil {
		return nil, err
	}
	if rep, pushed := b.push(e, f); pushed {
		return rep, nil
	}
	return e, nil
}

// push tries to fold one typed conjunct into the store filter. Most
// pushed conjuncts are fully absorbed — the store's filter semantics
// are exact, so re-evaluating them would be redundant. space_id is the
// exception: its pushdown prunes rows on *ground-truth* locations
// while enforcement may release a coarsened one, so the conjunct comes
// back as a rewritten residual (the subtree-expanded IN set) and is
// re-evaluated against the released SpaceID like every other residual
// predicate. A second bound on an already-set field stays residual.
// Limit is never pushed — enforcement drops rows after the scan, so a
// store-side cap would under-fill the result.
func (b *binder) push(p boolExpr, f *obstore.Filter) (residual boolExpr, pushed bool) {
	if !b.pushdown {
		return nil, false
	}
	switch q := p.(type) {
	case *cmpPred:
		switch q.col {
		case "sensor_id":
			if q.op == "=" && f.SensorID == "" {
				f.SensorID = q.val.Str
				return nil, true
			}
		case "user_id":
			if q.op == "=" && f.UserID == "" {
				f.UserID = q.val.Str
				return nil, true
			}
		case "device_mac":
			if q.op == "=" && f.DeviceMAC == "" {
				f.DeviceMAC = q.val.Str
				return nil, true
			}
		case "kind":
			if q.op == "=" && f.Kind == "" {
				f.Kind = sensor.ObservationKind(q.val.Str)
				return nil, true
			}
		case "space_id":
			if q.op == "=" && f.SpaceIDs == nil {
				ids := b.expandSpace(q.val.Str)
				f.SpaceIDs = ids
				return spaceInPred(ids), true
			}
		case "time":
			t := q.val.Time()
			switch q.op {
			case ">=":
				if f.From.IsZero() {
					f.From = t
					return nil, true
				}
			case ">":
				if f.From.IsZero() {
					f.From = t.Add(time.Nanosecond)
					return nil, true
				}
			case "<":
				if f.To.IsZero() {
					f.To = t
					return nil, true
				}
			case "<=":
				if f.To.IsZero() {
					f.To = t.Add(time.Nanosecond)
					return nil, true
				}
			case "=":
				if f.From.IsZero() && f.To.IsZero() {
					f.From = t
					f.To = t.Add(time.Nanosecond)
					return nil, true
				}
			}
		case "seq":
			n := q.val.Num()
			if n != math.Trunc(n) || n < 0 || n > float64(1<<53) {
				return nil, false
			}
			// AfterSeq == 0 means "no cursor" to the store, so a bound
			// that would compute to 0 (seq > 0, seq >= 1) stays
			// residual rather than silently matching a seq-0 row.
			switch q.op {
			case ">":
				if f.AfterSeq == 0 && n >= 1 {
					f.AfterSeq = uint64(n)
					return nil, true
				}
			case ">=":
				if f.AfterSeq == 0 && n >= 2 {
					f.AfterSeq = uint64(n) - 1
					return nil, true
				}
			}
		}
	case *betweenPred:
		if q.col == "time" && !q.neg && f.From.IsZero() && f.To.IsZero() {
			f.From = q.lo.Time()
			f.To = q.hi.Time().Add(time.Nanosecond)
			return nil, true
		}
	case *inPred:
		if q.col == "space_id" && !q.neg && f.SpaceIDs == nil && len(q.vals) > 0 {
			seen := map[string]bool{}
			var ids []string
			for _, v := range q.vals {
				for _, id := range b.expandSpace(v.Str) {
					if !seen[id] {
						seen[id] = true
						ids = append(ids, id)
					}
				}
			}
			sort.Strings(ids)
			f.SpaceIDs = ids
			return spaceInPred(ids), true
		}
	}
	return nil, false
}

// spaceInPred is the residual form of a pushed spatial conjunct: the
// released SpaceID must still land inside the queried subtree, which
// granularity coarsening can move it out of.
func spaceInPred(ids []string) boolExpr {
	vals := make([]Value, len(ids))
	for i, id := range ids {
		vals[i] = StringValue(id)
	}
	return &inPred{col: "space_id", vals: vals}
}

// expandSpace widens a space predicate to the space's subtree, the
// same expansion every other request path applies.
func (b *binder) expandSpace(id string) []string {
	if b.subtree == nil {
		return []string{id}
	}
	ids := b.subtree(id)
	if len(ids) == 0 {
		return []string{id}
	}
	return ids
}
