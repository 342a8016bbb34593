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

// Plan is a compiled, executable statement. Every Plan carries an
// enforcement binding (constructed only by Compile, see exec.go);
// Execute refuses to run without one, so there is no code path in
// this package that releases a row undecided.
type Plan struct {
	stmt  *SelectStmt
	table string

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

	grouped bool
	cols    []outCol
	// groupCols are the GROUP BY columns' positions in the scanned
	// table's column list.
	groupCols []int
	having    boolExpr
	orderBy   []orderSpec
	limit     int

	bind *binding
}

type orderSpec struct {
	idx  int
	desc bool
}

// PushedFilter exposes the store filter the executor will scan with;
// tests assert pushdown pruning against it.
func (p *Plan) PushedFilter() obstore.Filter { return p.filter }

// Compile type-checks stmt against env and binds it to requester,
// producing an executable plan with enforcement structurally
// attached.
func Compile(stmt *SelectStmt, env Env, requester Requester) (*Plan, error) {
	c := &compiler{stmt: stmt, env: env, req: requester}
	return c.compile()
}

type compiler struct {
	stmt *SelectStmt
	env  Env
	req  Requester
}

func (c *compiler) compile() (*Plan, error) {
	p := &Plan{stmt: c.stmt, table: c.stmt.Table, limit: c.stmt.Limit}
	switch c.stmt.Table {
	case TableObservations, TableOccupancy:
		if c.req.ServiceID == "" {
			return nil, &EnforceError{Msg: "a query against " + c.stmt.Table + " requires a service identity"}
		}
		if (c.env.ScanEach == nil && c.env.Scan == nil) || c.env.Decide == nil || c.env.Apply == nil {
			return nil, planErrf("environment is not wired for %s (need ScanEach or Scan, Decide, Apply)", c.stmt.Table)
		}
		if c.env.ScanEach == nil {
			// The one executor is push-based; a slice-returning Scan is
			// adapted here and nothing below Compile knows which was
			// supplied.
			scan := c.env.Scan
			c.env.ScanEach = func(f obstore.Filter, visit func(*sensor.Observation) bool) {
				rows := scan(f)
				for i := range rows {
					if !visit(&rows[i]) {
						return
					}
				}
			}
		}
		if c.env.Domain == nil {
			c.env.Domain = func(string) enforce.Domain { return enforce.Domain{} }
		}
	case TableAudit:
		if c.req.UserID == "" {
			return nil, &EnforceError{Msg: "the audit table requires a user identity; it is scoped to the requester's own decisions"}
		}
		if c.env.AuditRecords == nil {
			return nil, planErrf("environment is not wired for audit (need AuditRecords)")
		}
	default:
		return nil, planErrf("unknown table %q (tables: observations, occupancy, audit)", c.stmt.Table)
	}

	if err := c.resolveColumns(p); err != nil {
		return nil, err
	}
	if err := c.resolveWhere(p); err != nil {
		return nil, err
	}
	if err := c.resolveHaving(p); err != nil {
		return nil, err
	}
	if err := c.resolveOrderBy(p); err != nil {
		return nil, err
	}

	if c.req.MinK < 1 {
		c.req.MinK = 1
	}
	p.bind = &binding{env: c.env, req: c.req}
	return p, nil
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

func (c *compiler) resolveColumns(p *Plan) error {
	cols, types := c.rowSchema()
	stmt := c.stmt

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
			if it.Agg != AggNone {
				return planErrf("occupancy is already aggregated; select space_id and count")
			}
			if _, ok := types[it.Col]; !ok {
				return planErrf("unknown occupancy column %q (columns: space_id, count)", it.Col)
			}
			p.cols = append(p.cols, outCol{name: it.Name(), expr: it, typ: types[it.Col]})
		}
		return c.checkDuplicateNames(p)
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
	return c.checkDuplicateNames(p)
}

func (c *compiler) checkDuplicateNames(p *Plan) error {
	seen := make(map[string]bool, len(p.cols))
	for _, oc := range p.cols {
		if seen[oc.name] {
			return planErrf("duplicate output column %q; use AS to alias", oc.name)
		}
		seen[oc.name] = true
	}
	return nil
}

// resolveWhere type-checks WHERE, splits occupancy count terms out,
// and extracts the pushdown filter from top-level AND conjuncts.
func (c *compiler) resolveWhere(p *Plan) error {
	if c.stmt.Where == nil {
		return nil
	}
	schema := c.predSchema()
	conjuncts := splitConjuncts(c.stmt.Where)
	var residual, countTerms []boolExpr
	for _, raw := range conjuncts {
		cols := map[string]bool{}
		collectCols(raw, cols)
		if c.stmt.Table == TableOccupancy && cols["count"] {
			if len(cols) > 1 {
				return planErrf("occupancy count predicates cannot mix with scan columns inside OR/NOT; combine them with AND")
			}
			typed, err := c.typeExpr(raw, schema)
			if err != nil {
				return err
			}
			countTerms = append(countTerms, typed)
			continue
		}
		typed, err := c.typeExpr(raw, schema)
		if err != nil {
			return err
		}
		if c.stmt.Table != TableAudit {
			if rep, pushed := c.pushConjunct(typed, &p.filter); pushed {
				if rep != nil {
					residual = append(residual, rep)
				}
				continue
			}
		}
		residual = append(residual, typed)
	}
	p.residual = andAll(residual)
	p.countPred = andAll(countTerms)
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

// typeExpr type-checks a predicate subtree against a schema, coercing
// literals to their column's type.
func (c *compiler) typeExpr(e Expr, schema map[string]colType) (boolExpr, error) {
	switch q := e.(type) {
	case *AndExpr:
		l, err := c.typeExpr(q.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := c.typeExpr(q.R, schema)
		if err != nil {
			return nil, err
		}
		return &andPred{l: l, r: r}, nil
	case *OrExpr:
		l, err := c.typeExpr(q.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := c.typeExpr(q.R, schema)
		if err != nil {
			return nil, err
		}
		return &orPred{l: l, r: r}, nil
	case *NotExpr:
		inner, err := c.typeExpr(q.E, schema)
		if err != nil {
			return nil, err
		}
		return &notPred{e: inner}, nil
	case *CmpExpr:
		t, ok := schema[q.Col]
		if !ok {
			return nil, planErrf("unknown column %q in WHERE", q.Col)
		}
		v, err := coerceLiteral(q.Lit, t, q.Col)
		if err != nil {
			return nil, err
		}
		return &cmpPred{col: q.Col, op: q.Op, val: v}, nil
	case *InExpr:
		t, ok := schema[q.Col]
		if !ok {
			return nil, planErrf("unknown column %q in WHERE", q.Col)
		}
		vals := make([]Value, 0, len(q.Lits))
		for _, lit := range q.Lits {
			v, err := coerceLiteral(lit, t, q.Col)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		return &inPred{col: q.Col, vals: vals, neg: q.Neg}, nil
	case *BetweenExpr:
		t, ok := schema[q.Col]
		if !ok {
			return nil, planErrf("unknown column %q in WHERE", q.Col)
		}
		lo, err := coerceLiteral(q.Lo, t, q.Col)
		if err != nil {
			return nil, err
		}
		hi, err := coerceLiteral(q.Hi, t, q.Col)
		if err != nil {
			return nil, err
		}
		return &betweenPred{col: q.Col, lo: lo, hi: hi, neg: q.Neg}, nil
	default:
		return nil, planErrf("unsupported predicate")
	}
}

func coerceLiteral(lit Literal, t colType, col string) (Value, error) {
	switch t {
	case colString:
		if lit.Kind != LitString {
			return Value{}, planErrf("column %q is a string; compare it to a quoted literal", col)
		}
		return stringValue(lit.Text), nil
	case colNumber:
		if lit.Kind != LitNumber {
			return Value{}, planErrf("column %q is numeric; compare it to a number", col)
		}
		f, err := strconv.ParseFloat(lit.Text, 64)
		if err != nil {
			return Value{}, planErrf("malformed number %q", lit.Text)
		}
		return numberValue(f), nil
	case colBool:
		if lit.Kind != LitBool {
			return Value{}, planErrf("column %q is boolean; compare it to TRUE or FALSE", col)
		}
		return boolValue(lit.Bool), nil
	case colTime:
		if lit.Kind != LitString {
			return Value{}, planErrf("column %q is a timestamp; compare it to a quoted time literal", col)
		}
		ts, ok := parseTimeLiteral(lit.Text)
		if !ok {
			return Value{}, planErrf("cannot parse %q as a time (use RFC 3339, '2006-01-02 15:04:05', or '2006-01-02')", lit.Text)
		}
		return timeValue(ts), nil
	default:
		return Value{}, planErrf("internal: unknown column type for %q", col)
	}
}

// pushConjunct tries to fold one typed conjunct into the store
// filter. Most pushed conjuncts are fully absorbed — the store's
// filter semantics are exact, so re-evaluating them would be
// redundant. space_id is the exception: its pushdown prunes rows
// on *ground-truth* locations while enforcement may release a
// coarsened one, so the conjunct comes back as a rewritten residual
// (the subtree-expanded IN set) and is re-evaluated against the
// released SpaceID like every other residual predicate. A second
// bound on an already-set field stays residual. Limit is never
// pushed — enforcement drops rows after the scan, so a store-side
// cap would under-fill the result.
func (c *compiler) pushConjunct(p boolExpr, f *obstore.Filter) (residual boolExpr, pushed bool) {
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
				ids := c.expandSpace(q.val.Str)
				f.SpaceIDs = ids
				return spaceInPred(ids), true
			}
		case "time":
			t := q.val.Time
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
			n := q.val.Num
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
			f.From = q.lo.Time
			f.To = q.hi.Time.Add(time.Nanosecond)
			return nil, true
		}
	case *inPred:
		if q.col == "space_id" && !q.neg && f.SpaceIDs == nil && len(q.vals) > 0 {
			seen := map[string]bool{}
			var ids []string
			for _, v := range q.vals {
				for _, id := range c.expandSpace(v.Str) {
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
		vals[i] = stringValue(id)
	}
	return &inPred{col: "space_id", vals: vals}
}

// expandSpace widens a space predicate to the space's subtree, the
// same expansion every other request path applies.
func (c *compiler) expandSpace(id string) []string {
	if c.env.Subtree == nil {
		return []string{id}
	}
	ids := c.env.Subtree(id)
	if len(ids) == 0 {
		return []string{id}
	}
	return ids
}

func (c *compiler) resolveHaving(p *Plan) error {
	if c.stmt.Having == nil {
		return nil
	}
	if !p.grouped {
		return planErrf("HAVING requires GROUP BY or aggregates")
	}
	schema := make(map[string]colType, len(p.cols)*2)
	for _, oc := range p.cols {
		schema[oc.name] = oc.typ
		schema[oc.expr.canonical()] = oc.typ
	}
	typed, err := c.typeExpr(c.stmt.Having, schema)
	if err != nil {
		pe, ok := err.(*PlanError)
		if ok && strings.Contains(pe.Msg, "in WHERE") {
			pe.Msg = strings.Replace(pe.Msg, "in WHERE", "in HAVING (it must be a selected column or aggregate)", 1)
		}
		return err
	}
	p.having = typed
	return nil
}

func (c *compiler) resolveOrderBy(p *Plan) error {
	for _, key := range c.stmt.OrderBy {
		idx := -1
		for i, oc := range p.cols {
			if oc.name == key.Col || oc.expr.canonical() == key.Col {
				idx = i
				break
			}
		}
		if idx < 0 {
			return planErrf("ORDER BY column %q is not in the select list", key.Col)
		}
		p.orderBy = append(p.orderBy, orderSpec{idx: idx, desc: key.Desc})
	}
	return nil
}
