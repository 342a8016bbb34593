package tippers

// BenchmarkAggregateSegments is the experiment behind the S34 columnar
// tier: the two aggregate shapes the transparency workloads lean on —
// the occupancy request path and an enforced GROUP BY — answered (a)
// by the row-scan executor over the sharded store and (b) by the
// colstore rollup cubes, at 1M and 10M observations. Before timing,
// both worlds answer the same requests and the released results —
// k-anonymized occupancy aggregates and query rows — are checksummed
// field by field; a single diverging count aborts the benchmark, so
// the speedup column is only ever reported for provably identical
// released output. The rollup world clears its answer cache
// every iteration, so op=occupancy times the rollup read + per
// subject decide batch (engine memo warm), not an answer-cache hit.
//
// BENCH_AGG_OBS (comma-separated observation counts) overrides the
// dataset sizes; scripts/bench.sh runs 1M+10M for baselines and CI
// shrinks to 1M. Worlds are cached across -count repetitions.

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/query"
	"github.com/tippers/tippers/internal/sensor"
)

// aggClockNow pins every benchmark world's clock one day past
// benchDay, so all ingested buckets are closed and compactable.
var aggClockNow = benchDay.Add(24 * time.Hour)

// aggObsPerUserMinute shapes the workload: each occupant's device
// reconnects this many times per minute while they sit in one room,
// so the minute occupancy cube holds nObs/aggObsPerUserMinute cells —
// the structural win the rollup path is being measured on.
const aggObsPerUserMinute = 20

func benchAggSizes() []int {
	spec := os.Getenv("BENCH_AGG_OBS")
	if spec == "" {
		spec = "1000000"
	}
	var out []int
	for _, part := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			continue
		}
		out = append(out, n)
	}
	return out
}

func aggSizeLabel(n int) string {
	switch {
	case n%1_000_000 == 0:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n%1_000 == 0:
		return fmt.Sprintf("%dk", n/1_000)
	default:
		return strconv.Itoa(n)
	}
}

// aggWorldCache keeps the ingested deployments alive across -count
// repetitions: the testing package re-invokes the whole Benchmark
// function per count, and re-ingesting 10M rows five times would
// dominate the run.
var aggWorldCache = map[string]*Deployment{}

// aggWorld builds (or returns the cached) deployment holding nObs
// observations, with the columnar tier enabled or disabled. The
// workload mirrors a campus morning: 1000 occupants, each parked in
// one of six floors per minute, their APs reporting
// aggObsPerUserMinute connect events per occupant-minute.
func aggWorld(b *testing.B, nObs int, columnar bool) *Deployment {
	b.Helper()
	key := fmt.Sprintf("%d/%t", nObs, columnar)
	if dep, ok := aggWorldCache[key]; ok {
		return dep
	}
	store := obstore.NewSharded(runtime.GOMAXPROCS(0))
	dep, err := NewDeployment(DeploymentConfig{
		Spec: SmallDBH(), Population: 1000, Seed: 1, Store: store,
		Clock:           func() time.Time { return aggClockNow },
		DisableColumnar: !columnar,
		// The cube cap exists to shed pathological cardinality; the
		// 10M dataset's ~600k cells are the workload being measured,
		// so give it room.
		ColumnarRollupMax: 4 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	users := dep.Users.All()
	userIDs := make([]string, len(users))
	for i, u := range users {
		userIDs[i] = u.ID
	}
	perMinute := len(userIDs) * aggObsPerUserMinute
	for i := 0; i < nObs; i++ {
		u := i % len(userIDs)
		minute := i / perMinute
		rep := (i / len(userIDs)) % aggObsPerUserMinute
		floor := (u + minute) % 6
		_, err := store.Append(sensor.Observation{
			SensorID: fmt.Sprintf("ap-%03d", floor),
			UserID:   userIDs[u],
			Kind:     sensor.ObsWiFiConnect,
			SpaceID:  fmt.Sprintf("dbh/%d", floor+1),
			Time:     benchDay.Add(time.Duration(minute)*time.Minute + time.Duration(rep*3)*time.Second),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if columnar {
		cs := dep.BMS.Columnar()
		if _, err := cs.CompactOnce(); err != nil {
			b.Fatal(err)
		}
		st := cs.Stats()
		if st.RollupDisabled || st.RollupEntries == 0 {
			b.Fatalf("rollup cubes not live (entries=%d disabled=%t): the rollup path would silently fall back to scans", st.RollupEntries, st.RollupDisabled)
		}
	}
	aggWorldCache[key] = dep
	return dep
}

func aggOccupancyRequest() enforce.Request {
	return enforce.Request{
		ServiceID: "concierge",
		Purpose:   policy.PurposeProvidingService,
		Kind:      sensor.ObsWiFiConnect,
		From:      benchDay,
		To:        benchDay.Add(12 * time.Hour),
	}
}

// Ties in the per-floor counts are guaranteed by the uniform
// workload, so the aggregate orders by the grouping key, not the
// count — both executors must then agree on row order exactly.
const aggGroupBySQL = "SELECT space_id, COUNT(DISTINCT user_id) AS n FROM observations WHERE kind = 'wifi_access_point' GROUP BY space_id ORDER BY space_id"

// aggChecksum folds one world's released aggregate answers — the
// occupancy path's k-anonymized counts and the GROUP BY's rows —
// through FNV-1a, in released order.
func aggChecksum(b *testing.B, dep *Deployment) uint64 {
	b.Helper()
	h := fnv.New64a()
	resp, err := dep.BMS.RequestOccupancy(aggOccupancyRequest(), 2)
	if err != nil {
		b.Fatal(err)
	}
	if len(resp.Aggregates) == 0 {
		b.Fatal("occupancy request released nothing; the equivalence check would be vacuous")
	}
	for _, a := range resp.Aggregates {
		fmt.Fprintf(h, "%s\x00%d\n", a.Key, a.Count)
	}
	qresp, err := dep.BMS.Query(context.Background(), query.Requester{
		ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
	}, aggGroupBySQL)
	if err != nil {
		b.Fatal(err)
	}
	if len(qresp.Result.Rows) == 0 {
		b.Fatal("group-by query released nothing; the equivalence check would be vacuous")
	}
	if dep.BMS.Columnar() != nil && !qresp.Result.Stats.UsedRollup {
		b.Fatalf("group-by plan fell back to a row scan (stats=%+v); the benchmark would mislabel the path", qresp.Result.Stats)
	}
	for _, row := range qresp.Result.Rows {
		for _, v := range row {
			fmt.Fprintf(h, "%v\x00", v)
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func BenchmarkAggregateSegments(b *testing.B) {
	requester := query.Requester{ServiceID: "concierge", Purpose: policy.PurposeProvidingService}
	ctx := context.Background()
	for _, nObs := range benchAggSizes() {
		rowWorld := aggWorld(b, nObs, false)
		colWorld := aggWorld(b, nObs, true)
		if rs, cs := aggChecksum(b, rowWorld), aggChecksum(b, colWorld); rs != cs {
			b.Fatalf("released-result checksum %#x (row scan) diverges from %#x (rollups): the paths are not equivalent", rs, cs)
		}
		for _, v := range []struct {
			name string
			dep  *Deployment
		}{
			{"path=rowscan", rowWorld},
			{"path=rollup", colWorld},
		} {
			dep := v.dep
			b.Run(fmt.Sprintf("obs=%s/%s/op=occupancy", aggSizeLabel(nObs), v.name), func(b *testing.B) {
				req := aggOccupancyRequest()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Bust the answer cache: measure the rollup read
					// and decide batch, not a memo hit.
					dep.BMS.ClearOccupancyCache()
					resp, err := dep.BMS.RequestOccupancy(req, 2)
					if err != nil {
						b.Fatal(err)
					}
					if len(resp.Aggregates) == 0 {
						b.Fatal("empty occupancy answer")
					}
				}
			})
			b.Run(fmt.Sprintf("obs=%s/%s/op=groupby", aggSizeLabel(nObs), v.name), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					resp, err := dep.BMS.Query(ctx, requester, aggGroupBySQL)
					if err != nil {
						b.Fatal(err)
					}
					if len(resp.Result.Rows) == 0 {
						b.Fatal("empty group-by result")
					}
				}
			})
		}
	}
}

// BenchmarkColdPointRead times the point lookup the request manager
// makes for every service request (BMS.RequestUser: one subject, one
// kind, a 15-minute window) when every row it can match has been
// sealed into minute segments and evicted from the row store: three
// simulated days, one compaction, then Store().Query cycling over the
// subjects. segs/op is the number of segments whose rows a read looked
// at; the rest were skipped by the binary search over the time-ordered
// view or by their zone maps.
func BenchmarkColdPointRead(b *testing.B) {
	clock := benchDay.AddDate(0, 0, 3)
	dep, err := NewDeployment(DeploymentConfig{
		Spec: SmallDBH(), Population: 1000, Seed: 1,
		Clock: func() time.Time { return clock },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	for d := 0; d < 3; d++ {
		if _, err := dep.SimulateDay(benchDay.AddDate(0, 0, d), int64(d+1)); err != nil {
			b.Fatal(err)
		}
	}
	cs, store := dep.BMS.Columnar(), dep.BMS.Store()
	if _, err := cs.CompactOnce(); err != nil {
		b.Fatal(err)
	}
	if st := cs.Stats(); st.HotRows != 0 || store.Resident() != 0 || st.ColdRows != store.Len() {
		b.Fatalf("rows left above the watermark: the read would not be cold (%+v, resident %d)", st, store.Resident())
	}
	// One filter per subject, anchored on the second day's noon.
	var filters []obstore.Filter
	from := benchDay.AddDate(0, 0, 1).Add(12 * time.Hour)
	for _, u := range store.Users() {
		f := obstore.Filter{UserID: u, Kind: sensor.ObsBLESighting, From: from, To: from.Add(15 * time.Minute)}
		if store.Count(f) > 0 {
			filters = append(filters, f)
		}
	}
	if len(filters) == 0 {
		b.Fatal("no subject has a sighting in the window")
	}
	b.Logf("%d subjects, %d segments, %d rows", len(filters), cs.Stats().Segments, store.Len())
	read0 := cs.Stats().SegmentsRead
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rows += len(store.Query(filters[i%len(filters)]))
	}
	b.StopTimer()
	if rows == 0 {
		b.Fatal("reads returned nothing")
	}
	b.ReportMetric(float64(cs.Stats().SegmentsRead-read0)/float64(b.N), "segs/op")
}
