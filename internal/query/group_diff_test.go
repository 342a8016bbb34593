package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

// diffWorld is a random observation log and audit log under a random
// policy world: denied subjects, aggregation floors, coarsened spaces,
// pseudonymized subjects (released without a user_id) and subjects
// whose BLE rows Apply withholds. Values repeat -0, 0 and NaN, and
// times repeat one instant in two zones, so COUNT(DISTINCT) and GROUP
// BY equality are on the hook.
type diffWorld struct {
	obs                         []sensor.Observation
	audit                       []AuditRecord
	deny, pseud, coarse, hidden map[string]bool
	floors                      map[string]int
}

func newDiffWorld(seed int64, users, spaces, sensors, rows int) *diffWorld {
	rng := rand.New(rand.NewSource(seed))
	w := &diffWorld{deny: map[string]bool{}, pseud: map[string]bool{}, coarse: map[string]bool{},
		hidden: map[string]bool{}, floors: map[string]int{}}
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("u%04d", i)
		w.deny[u] = rng.Intn(10) == 0
		w.pseud[u] = rng.Intn(12) == 0
		w.coarse[u] = rng.Intn(6) == 0
		w.hidden[u] = rng.Intn(8) == 0
		if rng.Intn(5) == 0 {
			w.floors[u] = 2 + rng.Intn(4)
		}
	}
	values := []float64{math.Copysign(0, -1), 0, math.NaN(), 1, 2.5, 7, -3, 1e9}
	east := time.FixedZone("east", 3600)
	kinds := []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting, sensor.ObsPowerReading}
	for i := 0; i < rows; i++ {
		at := qtNow.Add(time.Duration(rng.Intn(40)) * time.Second)
		if rng.Intn(2) == 0 {
			at = at.In(east)
		}
		// Low sensor numbers are common and high ones rare, so some
		// groups hold too few subjects for the k floor.
		o := sensor.Observation{
			Seq:      uint64(i + 1),
			SensorID: fmt.Sprintf("s%03d", min(rng.Intn(sensors), rng.Intn(sensors))),
			Kind:     kinds[rng.Intn(len(kinds))],
			Time:     at,
			SpaceID:  fmt.Sprintf("B%d/%d", rng.Intn(3), rng.Intn(spaces)),
			UserID:   fmt.Sprintf("u%04d", rng.Intn(users)),
			Value:    values[rng.Intn(len(values))],
		}
		if rng.Intn(10) == 0 {
			o.UserID = "" // environmental: no subject to protect
		}
		w.obs = append(w.obs, o)
	}
	for i := 0; i < rows/4; i++ {
		w.audit = append(w.audit, AuditRecord{
			ID:        uint64(i + 1),
			Time:      qtNow.Add(time.Duration(rng.Intn(30)) * time.Second),
			Path:      []string{"user", "occupancy", "query"}[rng.Intn(3)],
			ServiceID: fmt.Sprintf("svc-%d", rng.Intn(sensors)),
			SubjectID: "mary",
			Kind:      string(kinds[rng.Intn(len(kinds))]),
			Allowed:   rng.Intn(3) > 0,
			CacheHit:  rng.Intn(2) == 0,
		})
	}
	return w
}

func (w *diffWorld) env(obs []sensor.Observation) Env {
	return Env{
		ScanEach: func(_ obstore.Filter, visit func(*sensor.Observation, obstore.Codes) bool) {
			// No statement below pushes a predicate down, so every row is
			// visited; the scratch row is poisoned after each visit.
			var scratch sensor.Observation
			for i := range obs {
				scratch = obs[i]
				if !visit(&scratch, obstore.Codes{}) {
					return
				}
				scratch = sensor.Observation{SensorID: "POISON", SpaceID: "POISON", UserID: "POISON", Value: -1}
			}
		},
		Decide: func(req enforce.Request) enforce.Decision {
			if w.deny[req.SubjectID] {
				return enforce.Decision{DenyReason: "denied"}
			}
			return enforce.Decision{Allowed: true, Granularity: policy.GranExact,
				Effective: policy.Rule{MinAggregationK: w.floors[req.SubjectID]}}
		},
		Apply:        w.apply,
		AuditRecords: func(string) []AuditRecord { return w.audit },
	}
}

func (w *diffWorld) apply(_ enforce.Decision, o sensor.Observation) (sensor.Observation, bool, error) {
	if w.hidden[o.UserID] && o.Kind == sensor.ObsBLESighting {
		return sensor.Observation{}, false, nil
	}
	if w.coarse[o.UserID] {
		o.SpaceID = o.SpaceID[:strings.IndexByte(o.SpaceID, '/')]
	}
	if w.pseud[o.UserID] {
		o.UserID = ""
	}
	return o, true, nil
}

// refRow is one released row as the reference sees it: its cells by
// column name, and its ground-truth subject ("" unattributed).
type refRow struct {
	get     func(col string) Value
	subject string
}

// released is the reference's row source: every row decided without a
// memo, released by Apply and filtered by where, plus the effective k
// floor the released rows' subjects raise.
func (w *diffWorld) released(obs []sensor.Observation, minK int, where func(Value) bool) ([]refRow, int) {
	var rows []refRow
	k := max(minK, 1)
	for _, o := range obs {
		if w.deny[o.UserID] {
			continue
		}
		rel, ok, _ := w.apply(enforce.Decision{}, o)
		if !ok {
			continue
		}
		get := func(col string) Value { return refObsCol(&rel, col) }
		if where != nil && !where(get("value")) {
			continue
		}
		rows = append(rows, refRow{get: get, subject: o.UserID})
		if o.UserID != "" {
			k = max(k, w.floors[o.UserID])
		}
	}
	return rows, k
}

func refNullable(s string) Value {
	if s == "" {
		return Value{}
	}
	return StringValue(s)
}

func refObsCol(o *sensor.Observation, col string) Value {
	switch col {
	case "sensor_id":
		return StringValue(o.SensorID)
	case "kind":
		return StringValue(string(o.Kind))
	case "time":
		return TimeValue(o.Time)
	case "space_id":
		return refNullable(o.SpaceID)
	case "user_id":
		return refNullable(o.UserID)
	case "value":
		return NumberValue(o.Value)
	}
	panic("reference: no column " + col)
}

func refAuditCol(r *AuditRecord, col string) Value {
	switch col {
	case "time":
		return TimeValue(r.Time)
	case "path":
		return StringValue(r.Path)
	case "service_id":
		return refNullable(r.ServiceID)
	case "kind":
		return refNullable(r.Kind)
	case "allowed":
		return BoolValue(r.Allowed)
	case "cache_hit":
		return BoolValue(r.CacheHit)
	}
	panic("reference: no audit column " + col)
}

// cellKey is the reference's equality: -0 and 0 differ, every NaN is one
// value, and a time is its instant.
type cellKey struct {
	kind ValueKind
	s    string
	n    uint64
	b    bool
	t    int64
}

func keyOf(v Value) cellKey {
	k := cellKey{kind: v.Kind, s: v.Str, b: v.Bool()}
	switch v.Kind {
	case KindNumber:
		k.n = math.Float64bits(v.Num())
		if math.IsNaN(v.Num()) {
			k.n = 1
		}
	case KindTime:
		k.t = v.Time().UnixNano()
	}
	return k
}

// refOut is one output column: a GROUP BY passthrough (agg "") or an
// aggregate over col ("*" for COUNT(*)).
type refOut struct{ agg, col string }

func (o refOut) sql(i int) string {
	switch o.agg {
	case "":
		return o.col
	case "distinct":
		return fmt.Sprintf("COUNT(DISTINCT %s) AS c%d", o.col, i)
	default:
		return fmt.Sprintf("%s(%s) AS c%d", strings.ToUpper(o.agg), o.col, i)
	}
}

type refGroup struct {
	vals     []Value
	subjects map[string]bool
	distinct []map[cellKey]bool
	n        []int
	sum      []float64
	ext      []Value
}

// refGrouped is the plain reference for a grouped statement: a map of
// groups, each a map of subjects and a map per COUNT(DISTINCT), folded
// in scan order, then the k floor and HAVING.
func refGrouped(rows []refRow, k int, by []string, outs []refOut, having func([]Value) bool) ([][]Value, int) {
	groups := map[string]*refGroup{}
	var order []*refGroup
	newGroup := func() *refGroup {
		g := &refGroup{subjects: map[string]bool{}, distinct: make([]map[cellKey]bool, len(outs)),
			n: make([]int, len(outs)), sum: make([]float64, len(outs)), ext: make([]Value, len(outs))}
		for i := range outs {
			g.distinct[i] = map[cellKey]bool{}
		}
		order = append(order, g)
		return g
	}
	for _, r := range rows {
		var vals []Value
		var key []cellKey
		for _, c := range by {
			vals = append(vals, r.get(c))
			key = append(key, keyOf(r.get(c)))
		}
		g := groups[fmt.Sprint(key)]
		if g == nil {
			g = newGroup()
			g.vals = vals
			groups[fmt.Sprint(key)] = g
		}
		if r.subject != "" {
			g.subjects[r.subject] = true
		}
		for i, o := range outs {
			if o.agg == "" {
				continue
			}
			if o.col == "*" {
				g.n[i]++
				continue
			}
			v := r.get(o.col)
			if v.Kind == KindNull {
				continue
			}
			switch o.agg {
			case "count":
				g.n[i]++
			case "distinct":
				g.distinct[i][keyOf(v)] = true
			case "sum", "avg":
				g.sum[i] += v.Num()
				g.n[i]++
			case "min":
				if g.ext[i].Kind == KindNull || v.compare(g.ext[i]) < 0 {
					g.ext[i] = v
				}
			case "max":
				if g.ext[i].Kind == KindNull || v.compare(g.ext[i]) > 0 {
					g.ext[i] = v
				}
			}
		}
	}
	if len(by) == 0 && len(order) == 0 {
		newGroup()
	}
	var out [][]Value
	suppressed := 0
	for _, g := range order {
		if len(g.subjects) > 0 && len(g.subjects) < k {
			suppressed++
			continue
		}
		row := make([]Value, len(outs))
		for i, o := range outs {
			switch o.agg {
			case "":
				row[i] = g.vals[slices.Index(by, o.col)]
			case "count":
				row[i] = NumberValue(float64(g.n[i]))
			case "distinct":
				row[i] = NumberValue(float64(len(g.distinct[i])))
			case "sum":
				if g.n[i] > 0 {
					row[i] = NumberValue(g.sum[i])
				}
			case "avg":
				if g.n[i] > 0 {
					row[i] = NumberValue(g.sum[i] / float64(g.n[i]))
				}
			case "min", "max":
				row[i] = g.ext[i]
			}
		}
		if having == nil || having(row) {
			out = append(out, row)
		}
	}
	return out, suppressed
}

func sameCell(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindNumber:
		return math.IsNaN(a.Num()) && math.IsNaN(b.Num()) || math.Float64bits(a.Num()) == math.Float64bits(b.Num())
	case KindTime:
		return a.Time().Equal(b.Time())
	default:
		return a.Str == b.Str && a.Bool() == b.Bool()
	}
}

func sameRows(got, want [][]Value) bool {
	return slices.EqualFunc(got, want, func(a, b []Value) bool { return slices.EqualFunc(a, b, sameCell) })
}

// TestGroupedSinksMatchReference is the grouped and occupancy sinks'
// differential property: over random worlds, small ones and ones wide
// enough that the tables' group arrays and member set regrow in the
// middle of a statement, past groups and members already filled, every
// grouped statement — multi-column GROUP BY, COUNT(*), COUNT,
// COUNT(DISTINCT) over strings, numbers, bools and times, SUM, AVG,
// MIN, MAX, HAVING, the k floor, unattributed rows, the global
// aggregate — and every occupancy statement releases exactly what a
// plain map-of-maps reference over the released rows releases: the same
// rows in the same order, and the same suppressed-group count and
// effective k. Each statement runs over the world and over an empty
// scan.
func TestGroupedSinksMatchReference(t *testing.T) {
	type grouped struct {
		table  string
		where  string
		pred   func(Value) bool // where, over the released value as the dialect compares it
		by     []string
		outs   []refOut
		having string
		keep   func([]Value) bool // having, over the output row
	}
	atLeast := func(i int, n float64) func([]Value) bool {
		return func(row []Value) bool { return row[i].Num() >= n }
	}
	cases := []grouped{
		{by: []string{"space_id"}, outs: []refOut{{"", "space_id"}, {"distinct", "user_id"}}},
		{by: []string{"space_id", "kind"}, outs: []refOut{{"", "kind"}, {"", "space_id"}, {"count", "*"}, {"distinct", "user_id"}, {"count", "user_id"}}},
		{by: []string{"sensor_id"}, outs: []refOut{{"", "sensor_id"}, {"distinct", "value"}, {"distinct", "time"}, {"distinct", "space_id"}, {"sum", "value"}, {"avg", "value"}}},
		{by: []string{"kind", "value"}, outs: []refOut{{"", "kind"}, {"", "value"}, {"count", "*"}, {"min", "user_id"}, {"max", "time"}, {"min", "value"}, {"max", "value"}}},
		{by: []string{"user_id"}, outs: []refOut{{"", "user_id"}, {"count", "*"}, {"distinct", "sensor_id"}}, having: "c1 > 3", keep: atLeast(1, 4)},
		{by: []string{"space_id", "sensor_id"}, outs: []refOut{{"", "space_id"}, {"", "sensor_id"}, {"distinct", "user_id"}, {"max", "value"}},
			where: "value >= 1", pred: func(v Value) bool { return v.compare(NumberValue(1)) >= 0 }, having: "c2 >= 2", keep: atLeast(2, 2)},
		{outs: []refOut{{"count", "*"}, {"distinct", "user_id"}, {"distinct", "value"}, {"sum", "value"}, {"min", "time"}, {"max", "space_id"}}},
		{outs: []refOut{{"distinct", "user_id"}}, where: "value < 0", pred: func(v Value) bool { return v.compare(NumberValue(0)) < 0 }},
		{table: TableAudit, by: []string{"path"}, outs: []refOut{{"", "path"}, {"distinct", "allowed"}, {"distinct", "cache_hit"}, {"distinct", "time"}, {"count", "*"}}},
		{table: TableAudit, by: []string{"service_id", "kind"}, outs: []refOut{{"", "service_id"}, {"", "kind"}, {"count", "*"}, {"distinct", "allowed"}, {"min", "time"}}},
		{table: TableAudit, outs: []refOut{{"distinct", "service_id"}, {"distinct", "allowed"}, {"count", "*"}}},
	}
	sizes := []struct{ users, spaces, sensors, rows int }{{12, 6, 20, 800}, {1500, 90, 150, 12000}}
	for seed := int64(0); seed < 6; seed++ {
		sz := sizes[seed%2]
		w := newDiffWorld(seed, sz.users, sz.spaces, sz.sensors, sz.rows)
		req := reqr()
		req.MinK = 1 + int(seed%3)
		for _, obs := range [][]sensor.Observation{w.obs, nil} {
			env := w.env(obs)
			for _, c := range cases {
				table := c.table
				if table == "" {
					table = TableObservations
				}
				var cols []string
				for i, o := range c.outs {
					cols = append(cols, o.sql(i))
				}
				sql := "SELECT " + strings.Join(cols, ", ") + " FROM " + table
				if c.where != "" {
					sql += " WHERE " + c.where
				}
				if len(c.by) > 0 {
					sql += " GROUP BY " + strings.Join(c.by, ", ")
				}
				if c.having != "" {
					sql += " HAVING " + c.having
				}
				res, err := Run(env, req, sql)
				if err != nil {
					t.Fatalf("seed %d %q: %v", seed, sql, err)
				}
				var rows []refRow
				k := max(req.MinK, 1)
				if table == TableAudit {
					k = 1
					for i := range w.audit {
						r := &w.audit[i]
						rows = append(rows, refRow{get: func(col string) Value { return refAuditCol(r, col) }})
					}
				} else {
					rows, k = w.released(obs, req.MinK, c.pred)
				}
				want, suppressed := refGrouped(rows, k, c.by, c.outs, c.keep)
				if !sameRows(res.Rows, want) {
					t.Fatalf("seed %d, %d rows, %q:\n got  %d rows %v\n want %d rows %v", seed, len(obs), sql, len(res.Rows), res.Rows, len(want), want)
				}
				if table != TableAudit && (res.Stats.SuppressedGroups != suppressed || res.Stats.EffectiveK != k) {
					t.Fatalf("seed %d, %d rows, %q: suppressed %d at k %d, want %d at k %d",
						seed, len(obs), sql, res.Stats.SuppressedGroups, res.Stats.EffectiveK, suppressed, k)
				}
			}
			// The occupancy table: distinct released subjects per released
			// space, sorted by space, spaces short of k withheld.
			for _, occ := range []struct {
				where string
				min   int
			}{{"", 0}, {" WHERE count >= 3", 3}} {
				sql := "SELECT space_id, count FROM occupancy" + occ.where
				res, err := Run(env, req, sql)
				if err != nil {
					t.Fatalf("seed %d %q: %v", seed, sql, err)
				}
				rows, k := w.released(obs, req.MinK, nil)
				spaces := map[string]map[string]bool{}
				for _, r := range rows {
					user, space := r.get("user_id"), r.get("space_id")
					if user.Kind == KindNull {
						continue
					}
					if spaces[space.Str] == nil {
						spaces[space.Str] = map[string]bool{}
					}
					spaces[space.Str][user.Str] = true
				}
				var want [][]Value
				suppressed := 0
				var keys []string
				for space := range spaces {
					keys = append(keys, space)
				}
				slices.Sort(keys)
				for _, space := range keys {
					n := len(spaces[space])
					if n < k {
						suppressed++
						continue
					}
					if n >= occ.min {
						want = append(want, []Value{StringValue(space), NumberValue(float64(n))})
					}
				}
				if !sameRows(res.Rows, want) || res.Stats.SuppressedGroups != suppressed || res.Stats.EffectiveK != k {
					t.Fatalf("seed %d, %d rows, %q:\n got  %v (suppressed %d at k %d)\n want %v (suppressed %d at k %d)",
						seed, len(obs), sql, res.Rows, res.Stats.SuppressedGroups, res.Stats.EffectiveK, want, suppressed, k)
				}
			}
		}
	}
}
