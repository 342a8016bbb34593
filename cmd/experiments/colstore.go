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

// runE12 measures the aggregate-path payoff of the columnar tier:
// the same occupancy request and the same enforced GROUP BY answered
// by a row-scan deployment and by a rollup-serving one, at growing
// observation counts. Both worlds hold identical data and identical
// rules, the released answers are checked equal before any latency is
// reported, and a mid-session preference change at the end shows the
// epoch invalidation: the rollup-served answer shrinks immediately,
// because the cubes store ground truth and enforcement re-runs per
// request.
func runE12() {
	sizes := []int{20_000, 100_000, 500_000}
	const perUserMinute = 20

	occReq := enforce.Request{
		ServiceID: "concierge",
		Purpose:   policy.PurposeProvidingService,
		Kind:      sensor.ObsWiFiConnect,
		From:      simDay,
		To:        simDay.Add(12 * time.Hour),
	}
	requester := query.Requester{ServiceID: "concierge", Purpose: policy.PurposeProvidingService}
	const sql = "SELECT space_id, COUNT(DISTINCT user_id) AS people " +
		"FROM observations WHERE kind = 'wifi_access_point' GROUP BY space_id ORDER BY space_id"
	ctx := context.Background()

	build := func(nObs int, columnar bool) *tippers.Deployment {
		dep, err := tippers.NewDeployment(tippers.DeploymentConfig{
			Spec:              tippers.SmallDBH(),
			Population:        200,
			Seed:              1,
			Clock:             func() time.Time { return simDay.Add(24 * time.Hour) },
			DisableColumnar:   !columnar,
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
		if columnar {
			if _, err := dep.BMS.Columnar().CompactOnce(); err != nil {
				log.Fatal(err)
			}
		}
		return dep
	}

	occAnswer := func(dep *tippers.Deployment) (string, time.Duration) {
		// Bust the post-enforcement answer cache so the measurement is
		// the rollup read + decide batch, not a memo hit.
		dep.BMS.ClearOccupancyCache()
		t0 := time.Now()
		resp, err := dep.BMS.RequestOccupancy(occReq, 2)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(t0)
		out := ""
		for _, a := range resp.Aggregates {
			out += fmt.Sprintf("%s=%d ", a.Key, a.Count)
		}
		return out, elapsed
	}
	sqlAnswer := func(dep *tippers.Deployment) (string, time.Duration) {
		t0 := time.Now()
		resp, err := dep.BMS.Query(ctx, requester, sql)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(t0)
		out := ""
		for _, row := range resp.Result.Rows {
			out += fmt.Sprintf("%s=%s ", row[0].Render(), row[1].Render())
		}
		return out, elapsed
	}

	fmt.Printf("\n%-10s %-10s %12s %12s %9s\n", "obs", "shape", "row scan", "rollups", "speedup")
	var colDep *tippers.Deployment
	for _, n := range sizes {
		rowDep := build(n, false)
		colDep = build(n, true)
		st := colDep.BMS.Columnar().Stats()
		rowOcc, rowOccD := occAnswer(rowDep)
		colOcc, colOccD := occAnswer(colDep)
		if rowOcc != colOcc {
			log.Fatalf("occupancy answers diverge at %d obs:\n  scan:   %s\n  rollup: %s", n, rowOcc, colOcc)
		}
		rowSQL, rowSQLD := sqlAnswer(rowDep)
		colSQL, colSQLD := sqlAnswer(colDep)
		if rowSQL != colSQL {
			log.Fatalf("group-by answers diverge at %d obs:\n  scan:   %s\n  rollup: %s", n, rowSQL, colSQL)
		}
		fmt.Printf("%-10d %-10s %12s %12s %8.1fx   (segments=%d, rollup cells=%d)\n",
			n, "occupancy", rowOccD.Round(time.Microsecond), colOccD.Round(time.Microsecond),
			float64(rowOccD)/float64(colOccD), st.Segments, st.RollupEntries)
		fmt.Printf("%-10s %-10s %12s %12s %8.1fx\n",
			"", "group-by", rowSQLD.Round(time.Microsecond), colSQLD.Round(time.Microsecond),
			float64(rowSQLD)/float64(colSQLD))
		rowDep.Close()
		if n != sizes[len(sizes)-1] {
			colDep.Close()
		}
	}

	// Mid-session preference change against the rollup-serving world:
	// the epoch bump invalidates every cached answer, and the next
	// request re-decides per subject over the same stored cells.
	mary := colDep.Users.All()[0]
	before, _ := occAnswer(colDep)
	for _, p := range tippers.Preference2NoLocation(mary.ID) {
		if err := colDep.BMS.SetPreference(p); err != nil {
			log.Fatal(err)
		}
	}
	after, _ := occAnswer(colDep)
	fmt.Printf("\nmid-session opt-out (%s registers Preference 2, no restart, no rebuild):\n", mary.ID)
	fmt.Printf("  before: %s\n  after:  %s\n", before, after)
	if before == after {
		log.Fatal("rollup-served answer did not change after the preference flip")
	}
	fmt.Println("\nshape: the cubes store ground truth keyed by the real subject;")
	fmt.Println("enforcement (per-subject decisions, k-floors) re-runs per request,")
	fmt.Printf("so aggregates stay compliant while costing ~1/%d of a scan.\n", perUserMinute)
	colDep.Close()
}
