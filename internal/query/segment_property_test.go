package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/colstore"
	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

// segWorld is one randomized policy world for the columnar-equivalence
// property: per-subject deny bits, k floors, granularity coarsening
// (released location collapses to the building), and noise (a
// deterministic value offset standing in for per-row randomness — the
// rollup path must refuse to serve value aggregates under it and fall
// back, which is exactly what keeps the two paths byte-identical).
type segWorld struct {
	deny   map[string]bool
	floors map[string]int
	coarse map[string]bool
	noisy  map[string]bool
}

func buildingOf(space string) string {
	if i := strings.IndexByte(space, '/'); i > 0 {
		return space[:i]
	}
	return space
}

// envOver wires a query Env for this world over the given row source
// and optional rollup backend. Decide and Apply are shared stubs, so
// any divergence between two envs is the row source's fault.
func (w *segWorld) envOver(scan func(obstore.Filter) []sensor.Observation, rollup func(RollupRequest) ([]RollupEntry, bool)) Env {
	return Env{
		Scan: scan,
		Subtree: func(spaceID string) []string {
			if spaceID == "A" || spaceID == "B" {
				return []string{spaceID, spaceID + "/1", spaceID + "/2"}
			}
			return []string{spaceID}
		},
		Decide: func(req enforce.Request) enforce.Decision {
			if w.deny[req.SubjectID] {
				return enforce.Decision{DenyReason: "denied"}
			}
			d := enforce.Decision{
				Allowed:     true,
				Granularity: policy.GranExact,
				Effective:   policy.Rule{MinAggregationK: w.floors[req.SubjectID]},
			}
			if w.noisy[req.SubjectID] {
				d.Effective.NoiseEpsilon = 1
			}
			return d
		},
		Apply: func(d enforce.Decision, o sensor.Observation) (sensor.Observation, bool, error) {
			out := o
			if w.coarse[o.UserID] {
				out.SpaceID = buildingOf(o.SpaceID)
			}
			if d.Effective.NoiseEpsilon > 0 {
				out.Value += 1000 // deterministic stand-in for per-row noise
			}
			return out, true, nil
		},
		Now:    func() time.Time { return qtNow },
		Rollup: rollup,
	}
}

// TestSegmentQueryMatchesRowScan is the columnar tier's equivalence
// property, checked over randomized worlds and policies: every query —
// rollup-served, segment-served, or fallen back — must release exactly
// what the plain row scan releases: same columns, same rows, same
// order, including k-floor suppression, coarsened-space regrouping,
// and noise-forced fallbacks. Worlds mix sealed segments, an
// uncompacted tail, and GDPR-erasure tombstones, so both halves of the
// watermark split and the rollup dirty-rebuild path are on the hook.
// The row scan runs over a twin store no tier is attached to — it keeps
// every row, where the tier's own store evicts what the segments hold.
func TestSegmentQueryMatchesRowScan(t *testing.T) {
	base := qtNow // 2017-06-07 14:00:00 UTC — minute- and hour-aligned
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))

			nUsers := 3 + rng.Intn(4)
			users := make([]string, nUsers)
			w := &segWorld{
				deny:   map[string]bool{},
				floors: map[string]int{},
				coarse: map[string]bool{},
				noisy:  map[string]bool{},
			}
			for i := range users {
				users[i] = fmt.Sprintf("u%d", i)
				w.deny[users[i]] = rng.Intn(4) == 0
				w.floors[users[i]] = rng.Intn(4)
				w.coarse[users[i]] = rng.Intn(4) == 0
				w.noisy[users[i]] = rng.Intn(4) == 0
			}

			src, twin := obstore.New(), obstore.New()
			cs, err := colstore.Open(colstore.Config{
				BucketDur: time.Minute,
				Clock:     func() time.Time { return base },
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.AttachStore(src); err != nil {
				t.Fatal(err)
			}

			spaces := []string{"A/1", "A/2", "B/1", "B/2"}
			appendRandom := func(n int) {
				for i := 0; i < n; i++ {
					user := users[rng.Intn(nUsers)]
					if rng.Intn(8) == 0 {
						user = ""
					}
					o := sensor.Observation{
						SensorID: fmt.Sprintf("ap-%d", rng.Intn(4)),
						Kind:     sensor.ObsWiFiConnect,
						Time: base.Add(-time.Duration(1+rng.Intn(175)) * time.Minute).
							Add(-time.Duration(rng.Intn(60)) * time.Second),
						SpaceID: spaces[rng.Intn(len(spaces))],
						UserID:  user,
						Value:   float64(rng.Intn(50)),
					}
					if rng.Intn(4) == 0 {
						o.Kind = sensor.ObsBLESighting
					}
					for _, st := range []*obstore.Store{src, twin} {
						if _, err := st.Append(o); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			nObs := 150 + rng.Intn(250)
			appendRandom(nObs * 3 / 5)
			if _, err := cs.CompactOnce(); err != nil {
				t.Fatal(err)
			}
			appendRandom(nObs - nObs*3/5) // stays in the row-store tail
			if rng.Intn(2) == 0 {
				// Erasure: tombstones + dirty rollup buckets.
				if got, want := src.DeleteUser(users[0], nil), twin.DeleteUser(users[0], nil); got != want {
					t.Fatalf("DeleteUser removed %d rows across both tiers, the twin %d", got, want)
				}
			}
			if rng.Intn(2) == 0 {
				if _, err := cs.CompactOnce(); err != nil {
					t.Fatal(err)
				}
			}

			rowEnv := w.envOver(twin.Query, nil)
			colEnv := w.envOver(cs.Query, func(req RollupRequest) ([]RollupEntry, bool) {
				cells, ok := cs.RollupFor(req.Filter, req.NeedSensor, req.NeedValue)
				if !ok {
					return nil, false
				}
				out := make([]RollupEntry, len(cells))
				for i, c := range cells {
					out[i] = RollupEntry{
						Bucket: c.Bucket, SensorID: c.SensorID, Kind: c.Kind,
						SpaceID: c.SpaceID, UserID: c.UserID,
						Count: c.Count, Sum: c.Sum, Min: c.Min, Max: c.Max, MinSeq: c.MinSeq,
					}
				}
				return out, true
			})

			r := reqr()
			r.MinK = 1 + rng.Intn(3)

			h1 := base.Add(-2 * time.Hour).Format(time.RFC3339)
			h2 := base.Format(time.RFC3339)
			m1 := base.Add(-90 * time.Minute).Format(time.RFC3339)
			unaligned := base.Add(-90*time.Minute - 30*time.Second).Format(time.RFC3339)
			userPick := users[rng.Intn(nUsers)]

			// rollup: 1 = the columnar env must serve it from rollups,
			// -1 = it must fall back, 0 = either (noise decides).
			queries := []struct {
				sql    string
				rollup int
			}{
				{"SELECT COUNT(*) FROM observations", 1},
				{"SELECT COUNT(*) AS n, COUNT(DISTINCT user_id) AS u FROM observations", 1},
				{"SELECT space_id, COUNT(DISTINCT user_id) AS n FROM observations GROUP BY space_id ORDER BY n DESC, space_id", 1},
				{"SELECT kind, user_id, COUNT(*) AS n FROM observations GROUP BY kind, user_id HAVING n > 2 ORDER BY n DESC LIMIT 4", 1},
				{fmt.Sprintf("SELECT user_id, COUNT(*) AS n FROM observations WHERE user_id = '%s' GROUP BY user_id", userPick), 1},
				{fmt.Sprintf("SELECT space_id, COUNT(*) AS n FROM observations WHERE kind = 'wifi_access_point' AND time >= '%s' GROUP BY space_id ORDER BY space_id", m1), 1},
				{fmt.Sprintf("SELECT sensor_id, COUNT(*) AS n, SUM(value) AS s, AVG(value) AS a, MIN(value) AS lo, MAX(value) AS hi FROM observations WHERE time >= '%s' AND time < '%s' GROUP BY sensor_id ORDER BY sensor_id", h1, h2), 0},
				{"SELECT sensor_id, MIN(user_id) AS first, MAX(space_id) AS last FROM observations GROUP BY sensor_id ORDER BY sensor_id", 1},
				// Fallback shapes: unaligned window, residual predicate,
				// spatial predicate (always leaves a residual).
				{fmt.Sprintf("SELECT space_id, COUNT(*) AS n FROM observations WHERE time >= '%s' GROUP BY space_id ORDER BY space_id", unaligned), -1},
				{"SELECT space_id, COUNT(*) AS n FROM observations WHERE value >= 10 GROUP BY space_id ORDER BY space_id", -1},
				{"SELECT space_id, COUNT(*) AS n FROM observations WHERE space_id = 'A' GROUP BY space_id", -1},
				// Occupancy, with and without predicates.
				{"SELECT space_id, count FROM occupancy", 1},
				{"SELECT * FROM occupancy WHERE count >= 2 AND kind = 'wifi_access_point'", 1},
				// Row mode exercises the unified segments+tail scan.
				{"SELECT seq, sensor_id, space_id, user_id, value FROM observations ORDER BY seq", -1},
			}

			for _, q := range queries {
				want, err := Run(rowEnv, r, q.sql)
				if err != nil {
					t.Fatalf("row scan %q: %v", q.sql, err)
				}
				got, err := Run(colEnv, r, q.sql)
				if err != nil {
					t.Fatalf("columnar %q: %v", q.sql, err)
				}
				if !reflect.DeepEqual(want.Columns, got.Columns) {
					t.Fatalf("%q: columns diverge: %v vs %v", q.sql, want.Columns, got.Columns)
				}
				if !reflect.DeepEqual(want.Rows, got.Rows) {
					t.Fatalf("%q: released rows diverge\nrow scan: %v\ncolumnar: %v\n(rollup=%v, cells=%d)",
						q.sql, want.Rows, got.Rows, got.Stats.UsedRollup, got.Stats.RollupCells)
				}
				switch q.rollup {
				case 1:
					if !got.Stats.UsedRollup {
						t.Errorf("%q: expected the rollup path, got a scan", q.sql)
					}
				case -1:
					if got.Stats.UsedRollup {
						t.Errorf("%q: served from rollups but must fall back", q.sql)
					}
				}
				if want.Stats.UsedRollup {
					t.Errorf("%q: row-scan env claims rollups", q.sql)
				}
			}
		})
	}
}
