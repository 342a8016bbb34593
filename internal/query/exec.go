package query

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
	"time"
	"weak"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/sensor"
)

// binding ties an execution to its requester and the Env it reads
// through. Only bind and the fixed reads (ReadRows, ReadOccupancy)
// construct one, so every row source in this package runs behind a
// per-row decision: scan is the sole way ground truth is read, and it
// consults the enforcement engine (through a per-execution memo)
// before a row may continue into residual filtering, projection, or
// aggregation. scope is the request a fixed read decides each row at,
// with the row's subject and capture time; a statement (nil) decides
// each row at the row's own kind and space.
type binding struct {
	env   Env
	req   Requester
	scope *enforce.Request
}

// enforcement is one execution, kept in its tables and emptied with
// them, so an execution allocates none of its own state.
type enforcement struct {
	binding
	*tables

	// maxFloor is the largest MinAggregationK raising the k floor: of
	// the subjects whose rows survive residual filtering into a
	// statement's result, or of every subject a fixed read allows.
	maxFloor int
	stats    ReadStats
	fixed    enforce.Request // what a fixed read's scope points at

	// The scan in flight; fn holds the methods it passes on, bound once.
	mode     scanMode
	residual boolExpr
	sink     func(rel *sensor.Observation, subject uint32) bool
	emit     func(*sensor.Observation) // a fixed row read's caller
	rel      sensor.Observation
	err      error
	fn       struct {
		visit       func(*sensor.Observation, obstore.Codes) bool
		emit, count func(*sensor.Observation, uint32) bool
		col         func(string) Value
	}
}

// scanMode is what a scan feeds: released rows one by one (a floor
// above 1, which no single row satisfies, withholds its subject's
// rows), the grouper, or the occupancy sink, which reads a released
// row's space alone.
type scanMode uint8

const (
	scanRows scanMode = iota
	scanGroups
	scanOccupancy
)

// tables are an execution's id and memo tables, taken from spareTables
// and emptied when released: they keep their buckets and arrays, but
// nothing one execution decided is visible to the next (the engine memo
// stays the one cross-request decision cache), and a spare struct pins
// none of its last execution's strings or segments.
type tables struct {
	// Each subject, space and kind a row names gets a dense statement id,
	// and the memo's keys and the grouper's subject sets hang off those
	// instead of off strings. users holds "" as id 0, so a subject id
	// of 0 means unattributed. subjects holds what the execution keeps
	// of each subject, by id. A row of the hot log is interned by its
	// strings; a segment's row by its dictionary codes, through segs.
	users, spaces, kinds interner
	subjects             []subjectInfo
	segs                 [2]segIDs // the segments read last: one per cursor ScanCold keeps open
	lastSeg              int

	// memo is the execution's decision snapshot: a scan over a million
	// rows usually needs a few dozen engine calls. pairs folds a row's
	// (kind, space) ids into one id and memo is keyed by (subject, pair):
	// its value is a verdict handle or, for a subject whose class domain
	// holds a window, the triple's id, which classes keys by the window
	// class of the capture time. Env.Decide also folds an override into
	// its subject's inbox, so the entry counts once per execution, not
	// per row. A handle indexes the execution's few distinct verdicts:
	// the scan reads back only a verdict, and the enforce.Decision is
	// dropped. Under a scope every row's pair is 0.
	pairs, memo, classes map[uint64]uint32
	verdicts             []verdict
	verdictOf            map[verdict]uint32

	// groups is the grouper's key index: it folds a group's column ids,
	// left to right, as (prefix id, column id) → prefix id, from the
	// empty prefix 0, and groupAt holds the group a whole key reaches.
	// strs and values intern the released values those column ids and
	// the COUNT(DISTINCT) operands name. The occupancy sink keeps in
	// groups the (space id, subject id) pairs it counted, its spaces in
	// strs and their distinct subjects in occupants.
	groups       map[uint64]uint32
	groupAt      []*group
	strs, values interner
	occupants    map[string]int

	e enforcement // the execution these tables serve
}

// subjectInfo is what an execution keeps of one subject.
type subjectInfo struct {
	domain  enforce.Domain
	allowed bool // some decision allowed the subject
}

func newTables() *tables {
	t := &tables{users: interner{}, spaces: interner{}, kinds: interner{}, pairs: map[uint64]uint32{}, memo: map[uint64]uint32{},
		classes: map[uint64]uint32{}, verdictOf: map[verdict]uint32{}, groups: map[uint64]uint32{}, strs: interner{}, values: interner{},
		occupants: map[string]int{}}
	e := &t.e
	e.tables = t
	e.fn.visit, e.fn.emit, e.fn.count, e.fn.col = e.visit, e.emitRow, e.count, e.col
	return t
}

// spareTables holds weakly the tables executions released, one per
// execution that ran at once: an execution takes back the last with its
// grown maps, and a collection that finds them idle frees them (a freed
// entry is dropped when reached). A scan over thousands of subjects
// grows them to a few hundred kB. In a sync.Pool they would also sit
// once per P and outlive one collection in its victim cache, so whether
// an idle node still held them depended on how many collections had run
// since its last statement.
var spareTables struct {
	sync.Mutex
	t []weak.Pointer[tables]
}

func takeTables() *tables {
	spareTables.Lock()
	defer spareTables.Unlock()
	for n := len(spareTables.t); n > 0; n-- {
		t := spareTables.t[n-1].Value()
		spareTables.t = spareTables.t[:n-1]
		if t != nil {
			return t
		}
	}
	return newTables()
}

func (t *tables) release() {
	t.reset()
	spareTables.Lock()
	spareTables.t = append(spareTables.t, weak.Make(t))
	spareTables.Unlock()
}

// reset empties every table and the execution; clearing an empty map
// costs nothing.
func (t *tables) reset() {
	for _, in := range []interner{t.users, t.spaces, t.kinds, t.strs, t.values} {
		clear(in)
	}
	for _, m := range []map[uint64]uint32{t.pairs, t.memo, t.classes, t.groups} {
		clear(m)
	}
	clear(t.verdictOf)
	clear(t.occupants)
	clear(t.verdicts)
	clear(t.subjects)
	clear(t.groupAt)
	t.verdicts, t.subjects, t.groupAt = t.verdicts[:0], t.subjects[:0], t.groupAt[:0]
	for i := range t.segs {
		t.segs[i].dicts = nil
	}
	t.e = enforcement{tables: t, fn: t.e.fn}
}

// begin starts an execution bound to b on empty tables t. A fixed read
// passes its request, which the scope then points at.
func (t *tables) begin(b binding, fixed *enforce.Request) *enforcement {
	e := &t.e
	if e.binding = b; fixed != nil {
		e.fixed, e.scope = *fixed, &e.fixed
	}
	t.users[""] = 0
	t.subjects = append(t.subjects, subjectInfo{})
	return e
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

// segIDs maps one segment's dictionary positions to statement ids.
// Each entry is filled the first time a row names it and holds id+1
// (0: not seen yet), so the statement interns only what it reads, as a
// row scan would.
type segIDs struct {
	dicts                *obstore.Dicts
	users, kinds, spaces []uint32
}

// zeroed returns s resized to n zeroed entries.
func zeroed(s []uint32, n int) []uint32 {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// idMap returns d's id map, taking over the slot read less recently
// when d is new. A segment that comes back after its slot was taken
// is mapped afresh, to the same ids.
func (t *tables) idMap(d *obstore.Dicts) *segIDs {
	if m := &t.segs[t.lastSeg]; m.dicts == d {
		return m
	}
	t.lastSeg = 1 - t.lastSeg
	m := &t.segs[t.lastSeg]
	if m.dicts != d {
		m.dicts = d
		m.users, m.kinds, m.spaces = zeroed(m.users, len(d.Users)), zeroed(m.kinds, len(d.Kinds)), zeroed(m.spaces, len(d.Spaces))
	}
	return m
}

// userID interns a subject, reading its class domain the first time.
func (e *enforcement) userID(s string) uint32 {
	id := e.users.id(s)
	if int(id) == len(e.subjects) {
		e.subjects = append(e.subjects, subjectInfo{domain: e.env.Domain(s)})
	}
	return id
}

// ids returns a row's subject id and, for a statement, the id of its
// (kind, space) pair: a segment's row's through its segment's id map, a
// log row's by its strings.
func (e *enforcement) ids(o *sensor.Observation, c obstore.Codes) (user, pair uint32) {
	var kind, space uint32
	if c.Dicts == nil {
		user = e.userID(o.UserID)
		if e.scope != nil {
			return user, 0
		}
		kind, space = e.kinds.id(string(o.Kind)), e.spaces.id(o.SpaceID)
	} else {
		m := e.idMap(c.Dicts)
		if user = m.users[c.User]; user == 0 {
			user = e.userID(o.UserID) + 1
			m.users[c.User] = user
		}
		if e.scope != nil {
			return user - 1, 0
		}
		if kind = m.kinds[c.Kind]; kind == 0 {
			kind = e.kinds.id(string(o.Kind)) + 1
			m.kinds[c.Kind] = kind
		}
		if space = m.spaces[c.Space]; space == 0 {
			space = e.spaces.id(o.SpaceID) + 1
			m.spaces[c.Space] = space
		}
		user, kind, space = user-1, kind-1, space-1
	}
	pk := uint64(kind)<<32 | uint64(space)
	pair, ok := e.pairs[pk]
	if !ok {
		pair = uint32(len(e.pairs))
		e.pairs[pk] = pair
	}
	return user, pair
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

// memoKey returns where the decision for (user, pair) at t is kept:
// memo for a subject with an empty domain, else classes by t's class.
func (e *enforcement) memoKey(user, pair uint32, t time.Time) (map[uint64]uint32, uint64) {
	key := uint64(user)<<32 | uint64(pair)
	d := &e.subjects[user].domain
	if d.Empty() {
		return e.memo, key
	}
	h, ok := e.memo[key]
	if !ok {
		h = uint32(len(e.memo)) // the triple's id: memo only grows
		e.memo[key] = h
	}
	return e.classes, uint64(h)<<32 | uint64(d.Class(t))
}

// decide returns the requester's verdict for one row, judged at its
// capture time and memoized by (subject, kind, space, window class) for
// the execution's lifetime, and the subject's id.
func (e *enforcement) decide(o *sensor.Observation, c obstore.Codes) (verdict, uint32) {
	user, pair := e.ids(o, c)
	memo, key := e.memoKey(user, pair, o.Time)
	if h, ok := memo[key]; ok {
		return e.verdicts[h], user
	}
	e.stats.Decisions++
	req := enforce.Request{ServiceID: e.req.ServiceID, Purpose: e.req.Purpose, Kind: o.Kind, SpaceID: o.SpaceID,
		Granularity: e.req.Granularity}
	if e.scope != nil {
		req = *e.scope
	}
	req.SubjectID, req.Time = o.UserID, o.Time
	t0 := time.Now() // an engine call, not a row: a statement's memo keeps these few
	d := e.env.Decide(req)
	e.stats.Decide += time.Since(t0)
	return e.judged(memo, key, user, d), user
}

// judged memoizes user's decision d under key in memo and returns its
// verdict, noting what a fixed read reports of it.
func (e *enforcement) judged(memo map[uint64]uint32, key uint64, user uint32, d enforce.Decision) verdict {
	e.stats.Overridden = e.stats.Overridden || len(d.Overridden) > 0
	var v verdict
	if d.Allowed {
		v = verdict{allowed: true, granularity: d.Granularity, effective: d.Effective}
		if s := &e.subjects[user]; user != 0 && !s.allowed {
			s.allowed = true
			e.stats.AllowedSubjects++
		}
		if e.scope != nil {
			e.maxFloor = max(e.maxFloor, d.Effective.MinAggregationK)
		}
	}
	h, ok := e.verdictOf[v]
	if !ok {
		h = uint32(len(e.verdicts))
		e.verdicts = append(e.verdicts, v)
		e.verdictOf[v] = h
	}
	memo[key] = h
	return v
}

// scan is the only ground-truth row source, and the whole executor in
// one pass: every row the store's pushed-down scan visits is decided,
// released and handed on before the next one is read, so no row set is
// ever materialized between the store and the sink.
//
//	ScanEach ─▶ ids (segment id map | interners) ─▶ decide (statement memo)
//	         ─▶ min-k exclusion ─▶ Apply ─▶ residual on the released row
//	         ─▶ sink (project | group | occupancy | a fixed read's caller)
//
// Denied rows are dropped; in row mode allowed subjects whose effective
// rule carries an aggregation floor > 1 are excluded too, because a
// row-level release can never satisfy a k-of-many floor. Surviving rows
// pass through the decision's data path (granularity clamp, noise), so
// the residual predicate and the sink only ever see the released view;
// the sink is also told the ground-truth subject, as its statement id
// (0: unattributed) — suppression keys off that, not the released view,
// so a transform that redacts user_id cannot exempt a group from its
// subjects' k floors. The released row is one slot reused for every
// row: a sink copies what it keeps. A sink returning false ends the
// scan. Under a scope the scan passes over unattributed rows before it
// counts them, and times Env.Apply.
func (e *enforcement) scan(f obstore.Filter, mode scanMode, residual boolExpr, sink func(rel *sensor.Observation, subject uint32) bool) error {
	e.mode, e.residual, e.sink = mode, residual, sink
	if e.scope == nil {
		e.subjects[0].domain = e.env.Domain("") // for subject id 0
	}
	e.env.ScanEach(f, e.fn.visit)
	e.stats.Subjects = len(e.users) - 1 // "" is interned from the start
	return e.err
}

func (e *enforcement) visit(o *sensor.Observation, c obstore.Codes) bool {
	if e.scope != nil && o.UserID == "" {
		return true
	}
	e.stats.ScannedRows++
	v, subject := e.decide(o, c)
	if !v.allowed {
		e.stats.DeniedRows++
		return true
	}
	if e.mode == scanRows && v.effective.MinAggregationK > 1 && subject != 0 {
		e.stats.ExcludedRows++
		return true
	}
	var ok bool
	var t0 time.Time
	if e.scope != nil {
		t0 = time.Now()
	}
	if e.mode != scanOccupancy {
		e.rel, ok, e.err = e.env.Apply(v.decision(), *o)
	} else {
		ok = e.releaseSpace(v, *o)
	}
	if e.scope != nil {
		e.stats.Apply += time.Since(t0)
	}
	if e.err != nil {
		return false
	}
	if !ok {
		e.stats.ExcludedRows++
		return true
	}
	e.stats.ReleasedRows++
	if e.residual != nil && !e.residual.eval(e.fn.col) {
		return true
	}
	if subject != 0 && e.scope == nil && v.effective.MinAggregationK > e.maxFloor {
		e.maxFloor = v.effective.MinAggregationK
	}
	return e.sink(&e.rel, subject)
}

// releaseSpace is Apply for the occupancy sink, which reads a released
// row's space alone: o goes without its payload, and without noise
// unless WHERE may read its value. Its copies stay out of visit's frame.
func (e *enforcement) releaseSpace(v verdict, o sensor.Observation) (ok bool) {
	d := v.decision()
	o.Payload = nil
	if e.residual == nil {
		d.Effective.NoiseEpsilon = 0
	}
	e.rel, ok, e.err = e.env.Apply(d, o)
	return ok
}

// col is the residual's view of the released row.
func (e *enforcement) col(name string) Value {
	return (*obsRow)(&e.rel).col(colIndex(obsColumns, name))
}

// emitRow is a fixed row read's sink.
func (e *enforcement) emitRow(rel *sensor.Observation, _ uint32) bool {
	e.emit(rel)
	return true
}

// count is the occupancy sink: each released row counts its
// ground-truth subject once in its released space, and a row released
// without a user_id (unattributed, or its subject redacted) nowhere.
func (e *enforcement) count(rel *sensor.Observation, subject uint32) bool {
	if subject == 0 || rel.UserID == "" {
		return true
	}
	if k := uint64(e.strs.id(rel.SpaceID))<<32 | uint64(subject); e.groups[k] == 0 {
		e.groups[k] = 1
		e.occupants[rel.SpaceID]++
	}
	return true
}

// occupied returns the occupancy sink's spaces that reach the effective
// k floor, with their distinct subjects, in key order.
func (e *enforcement) occupied() []privacy.AggregateCount {
	e.stats.EffectiveK = e.effectiveK()
	counts := privacy.SuppressBelowK(e.occupants, e.stats.EffectiveK)
	e.stats.SuppressedGroups = len(e.occupants) - len(counts)
	return counts
}

// effectiveK is the k-anonymity floor for grouped output: the
// requester's own floor raised by every contributing subject's.
func (e *enforcement) effectiveK() int { return max(e.req.MinK, e.maxFloor) }

// Execute runs the plan. It refuses to run a plan without an
// enforcement binding — the zero Plan, or one assembled by hand, has
// no path to data. Each run decides afresh, with tables of its own.
func (p *Plan) Execute() (*Result, error) {
	if p == nil || p.bind == nil {
		return nil, &EnforceError{Msg: "plan has no enforcement binding; use Compile"}
	}
	t := takeTables()
	defer t.release()
	return p.execute(t)
}

// execute runs the plan over empty tables t, which it leaves holding
// what the run interned and decided.
func (p *Plan) execute(t *tables) (*Result, error) {
	e := t.begin(*p.bind, nil)
	switch p.table {
	case TableAudit:
		return p.execAudit(e)
	case TableOccupancy:
		return p.execOccupancy(e)
	default:
		return p.execObservations(e)
	}
}

// ReadStats is what a fixed read's scan did: its Stats (over attributed
// rows only), the subjects some decision allowed, whether one overrode
// a preference (such an answer must not be replayed: its notification
// would go uncounted), and its time in Env.Decide, in Env.Apply and
// cutting occupancy at k (a statement times only Env.Decide).
type ReadStats struct {
	Stats
	AllowedSubjects         int
	Overridden              bool
	Decide, Apply, Suppress time.Duration
}

// ReadRows is the request manager's single-subject read: the scan over
// f in row mode, each row decided at req with its capture time, each
// released row handed to emit, which copies what it keeps. d is the
// caller's decision at req.Time under domain, read before it: the scan
// takes d for that instant's window class. On an error, rows already
// emitted must be discarded.
func ReadRows(env Env, req enforce.Request, f obstore.Filter, domain enforce.Domain, d enforce.Decision, emit func(*sensor.Observation)) (ReadStats, error) {
	t := takeTables()
	defer t.release()
	e := t.begin(binding{env: env, req: Requester{MinK: 1}}, &req)
	user := e.users.id(req.SubjectID)
	e.subjects = append(e.subjects, subjectInfo{domain: domain})
	memo, key := e.memoKey(user, 0, req.Time)
	e.judged(memo, key, user, d)
	e.emit = emit
	err := e.scan(f, scanRows, nil, e.fn.emit)
	return e.stats, err
}

// ReadOccupancy is the request manager's occupancy read: the scan over
// f into the occupancy table's sink, each row decided at req with its
// capture time. It returns the released spaces reaching k — minK raised
// by every allowed subject's floor — with their distinct subjects.
func ReadOccupancy(env Env, req enforce.Request, minK int, f obstore.Filter) ([]privacy.AggregateCount, ReadStats, error) {
	t := takeTables()
	defer t.release()
	e := t.begin(binding{env: env, req: Requester{MinK: max(minK, 1)}}, &req)
	if err := e.scan(f, scanOccupancy, nil, e.fn.count); err != nil {
		return nil, ReadStats{}, err
	}
	t0 := time.Now()
	counts := e.occupied()
	e.stats.Suppress = time.Since(t0)
	return counts, e.stats, nil
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
		err := e.scan(p.filter, scanGroups, p.residual, func(rel *sensor.Observation, subject uint32) bool {
			g.add((*obsRow)(rel), subject)
			return true
		})
		if err != nil {
			return nil, err
		}
		return g.result(), nil
	}
	pr := projector{p: p}
	err := e.scan(p.filter, scanRows, p.residual, func(rel *sensor.Observation, _ uint32) bool {
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

// execOccupancy counts the distinct subjects per released space, as
// privacy.KAnonymousCounts would over the released rows by their
// user_id, and withholds the spaces short of the effective k floor.
func (p *Plan) execOccupancy(e *enforcement) (*Result, error) {
	if err := e.scan(p.filter, scanOccupancy, p.residual, e.fn.count); err != nil {
		return nil, err
	}
	counts := e.occupied()

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
// The rows' cells come in chunks sized as the grouper's groups are,
// groupFirst rows and then as many as all before, up to groupMax, and
// never more than a LIMIT without ORDER BY still admits; rows has room
// made for each chunk's rows as it is cut.
type projector struct {
	p     *Plan
	rows  [][]Value
	cells []Value // the current chunk's untaken tail
}

// add reports whether the scan should go on: with LIMIT n and no
// ORDER BY the first n released rows are the answer.
func (pr *projector) add(r row) bool {
	p := pr.p
	w := len(p.cols)
	if len(pr.cells) < w {
		n := min(max(len(pr.rows), groupFirst), groupMax)
		if p.limit >= 0 && len(p.orderBy) == 0 {
			n = min(n, max(p.limit-len(pr.rows), 1)) // LIMIT 0 still takes its first row
		}
		pr.cells = make([]Value, n*w)
		pr.rows = slices.Grow(pr.rows, n)
	}
	out := pr.cells[:w:w]
	pr.cells = pr.cells[w:]
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
	distinct idSet // of grouper.valueID ids
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

// grouper is the GROUP BY / aggregate sink. A row finds its group by
// folding its GROUP BY values' ids through tables.groups, so a row
// allocates nothing and a group costs no key of its own; groups, their
// values and states and every id set come from per-statement chunks.
// A value's id is its statement id as a released value, never a
// segment's code, so a coarsened space or a pseudonymized subject
// lands in the group it is released under: a string by its own Str,
// any other kind by its groupKey encoding, so equality is groupKey's:
// -0 and 0 differ, every NaN is one value, times compare by UnixNano.
// COUNT(DISTINCT) operands share the ids.
type grouper struct {
	p *Plan
	e *enforcement // its groups and groupAt index the groups
	// chunks hold the groups in first-seen order; a chunk is filled to
	// its capacity, never past it, so a group never moves.
	chunks [][]group
	n      int
	// vals and states are the current chunk's untaken tails.
	vals   []Value
	states []aggState
	aggs   int    // aggregate items: a group's states
	key    []byte // a non-string value's groupKey encoding
	slab   idSlab
}

func newGrouper(p *Plan, e *enforcement) *grouper {
	g := &grouper{p: p, e: e}
	e.groupAt = append(e.groupAt[:0], nil) // the empty prefix
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

// valueID is v's statement id as a released value.
func (g *grouper) valueID(v Value) uint32 {
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
	p, t := g.p, g.e.tables
	var at uint32 // the empty prefix
	for _, c := range p.groupCols {
		k := uint64(at)<<32 | uint64(g.valueID(r.col(c)))
		next, ok := t.groups[k]
		if !ok {
			next = uint32(len(t.groupAt))
			t.groupAt = append(t.groupAt, nil)
			t.groups[k] = next
		}
		at = next
	}
	gr := t.groupAt[at]
	if gr == nil {
		gr = g.newGroup()
		t.groupAt[at] = gr
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
				st.distinct.add(g.valueID(v), &g.slab)
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
	return &Result{Columns: cols, Rows: rows, Stats: e.stats.Stats}
}
