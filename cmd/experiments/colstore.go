package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/tippers/tippers"
	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/query"
	"github.com/tippers/tippers/internal/sensor"
)

// runE12 measures the aggregate-path payoff of the rollup cubes: on one
// deployment, at growing observation counts, the same occupancy request
// and the same enforced GROUP BY answered from the cubes and, through a
// twin whose window opens 30 s before the first row (not minute-aligned,
// so the cubes cannot serve it), by scanning the columnar tier's
// segments. No row lies in those 30 s, so both select the same rows; the
// released answers are checked equal before any latency is reported,
// and a mid-session preference change at the end shows the epoch
// invalidation: the cube-served answer shrinks immediately, because the
// cubes store ground truth and enforcement re-runs per request.
func runE12() {
	sizes := []int{20_000, 100_000, 500_000}
	const perUserMinute = 20

	cubeReq := enforce.Request{
		ServiceID: "concierge",
		Purpose:   policy.PurposeProvidingService,
		Kind:      sensor.ObsWiFiConnect,
		From:      simDay,
		To:        simDay.Add(12 * time.Hour),
	}
	scanReq := cubeReq
	scanReq.From = simDay.Add(-30 * time.Second)
	requester := query.Requester{ServiceID: "concierge", Purpose: policy.PurposeProvidingService}
	sql := func(from time.Time) string {
		return fmt.Sprintf("SELECT space_id, COUNT(DISTINCT user_id) AS people FROM observations "+
			"WHERE kind = 'wifi_access_point' AND time >= '%s' AND time < '%s' GROUP BY space_id ORDER BY space_id",
			from.Format(time.RFC3339), cubeReq.To.Format(time.RFC3339))
	}
	cubeSQL, scanSQL := sql(cubeReq.From), sql(scanReq.From)
	ctx := context.Background()

	build := func(nObs int) *tippers.Deployment {
		dep, err := tippers.NewDeployment(tippers.DeploymentConfig{
			Spec:              tippers.SmallDBH(),
			Population:        200,
			Seed:              1,
			Clock:             func() time.Time { return simDay.Add(24 * time.Hour) },
			ColumnarRollupMax: 4 << 20,
		})
		if err != nil {
			log.Fatal(err)
		}
		users := dep.Users.All()
		store := dep.BMS.Store()
		perMinute := len(users) * perUserMinute
		for i := 0; i < nObs; i++ {
			u := i % len(users)
			minute := i / perMinute
			rep := (i / len(users)) % perUserMinute
			floor := (u + minute) % 6
			_, err := store.Append(sensor.Observation{
				SensorID: fmt.Sprintf("ap-%03d", floor),
				UserID:   users[u].ID,
				Kind:     sensor.ObsWiFiConnect,
				SpaceID:  fmt.Sprintf("dbh/%d", floor+1),
				Time:     simDay.Add(time.Duration(minute)*time.Minute + time.Duration(rep*3)*time.Second),
			})
			if err != nil {
				log.Fatal(err)
			}
		}
		if _, err := dep.BMS.Columnar().CompactOnce(); err != nil {
			log.Fatal(err)
		}
		return dep
	}

	// Each answer is timed on its second run, so both paths meet a warm
	// decision memo.
	occAnswer := func(dep *tippers.Deployment, req enforce.Request) (out string, elapsed time.Duration) {
		for run := 0; run < 2; run++ {
			// Bust the post-enforcement answer cache so the measurement is
			// the fetch + decide batch, not a memo hit.
			dep.BMS.ClearOccupancyCache()
			t0 := time.Now()
			resp, err := dep.BMS.RequestOccupancy(req, 2)
			if err != nil {
				log.Fatal(err)
			}
			elapsed, out = time.Since(t0), ""
			for _, a := range resp.Aggregates {
				out += fmt.Sprintf("%s=%d ", a.Key, a.Count)
			}
		}
		return out, elapsed
	}
	sqlAnswer := func(dep *tippers.Deployment, sql string, rollup bool) (out string, elapsed time.Duration) {
		for run := 0; run < 2; run++ {
			t0 := time.Now()
			resp, err := dep.BMS.Query(ctx, requester, sql)
			if err != nil {
				log.Fatal(err)
			}
			elapsed, out = time.Since(t0), ""
			if resp.Result.Stats.UsedRollup != rollup {
				log.Fatalf("%s: used_rollup = %v, want %v", sql, resp.Result.Stats.UsedRollup, rollup)
			}
			for _, row := range resp.Result.Rows {
				out += fmt.Sprintf("%s=%s ", row[0].Render(), row[1].Render())
			}
		}
		return out, elapsed
	}

	fmt.Printf("\n%-10s %-10s %12s %12s %9s\n", "obs", "shape", "tier scan", "rollups", "speedup")
	var dep *tippers.Deployment
	for _, n := range sizes {
		if dep != nil {
			dep.Close()
		}
		dep = build(n)
		st := dep.BMS.Columnar().Stats()
		scanOcc, scanOccD := occAnswer(dep, scanReq)
		cubeOcc, cubeOccD := occAnswer(dep, cubeReq)
		if scanOcc != cubeOcc {
			log.Fatalf("occupancy answers diverge at %d obs:\n  scan:   %s\n  rollup: %s", n, scanOcc, cubeOcc)
		}
		scanRows, scanSQLD := sqlAnswer(dep, scanSQL, false)
		cubeRows, cubeSQLD := sqlAnswer(dep, cubeSQL, true)
		if scanRows != cubeRows {
			log.Fatalf("group-by answers diverge at %d obs:\n  scan:   %s\n  rollup: %s", n, scanRows, cubeRows)
		}
		fmt.Printf("%-10d %-10s %12s %12s %8.1fx   (segments=%d, rollup cells=%d)\n",
			n, "occupancy", scanOccD.Round(time.Microsecond), cubeOccD.Round(time.Microsecond),
			float64(scanOccD)/float64(cubeOccD), st.Segments, st.RollupEntries)
		fmt.Printf("%-10s %-10s %12s %12s %8.1fx\n",
			"", "group-by", scanSQLD.Round(time.Microsecond), cubeSQLD.Round(time.Microsecond),
			float64(scanSQLD)/float64(cubeSQLD))
	}
	defer dep.Close()

	// Mid-session preference change: the epoch bump invalidates every
	// cached answer, and the next request re-decides per subject over
	// the same stored cells.
	mary := dep.Users.All()[0]
	before, _ := occAnswer(dep, cubeReq)
	for _, p := range tippers.Preference2NoLocation(mary.ID) {
		if err := dep.BMS.SetPreference(p); err != nil {
			log.Fatal(err)
		}
	}
	after, _ := occAnswer(dep, cubeReq)
	fmt.Printf("\nmid-session opt-out (%s registers Preference 2, no restart, no rebuild):\n", mary.ID)
	fmt.Printf("  before: %s\n  after:  %s\n", before, after)
	if before == after {
		log.Fatal("rollup-served answer did not change after the preference flip")
	}
	fmt.Println("\nshape: the cubes store ground truth keyed by the real subject;")
	fmt.Println("enforcement (per-subject decisions, k-floors) re-runs per request,")
	fmt.Printf("so aggregates stay compliant while costing ~1/%d of a scan.\n", perUserMinute)
}
