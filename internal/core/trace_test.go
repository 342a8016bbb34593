package core

import (
	"context"
	"slices"
	"testing"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/telemetry"
)

// ran lists the stages that ran, in request order.
func ran(c *StageClock) []Stage {
	var out []Stage
	for s := range c {
		if c[s].Calls > 0 {
			out = append(out, Stage(s))
		}
	}
	return out
}

// TestStageClockObservesEachStageOnce: every data path — a user read,
// an occupancy read evaluated and then served from the answer cache,
// and a query — adds exactly one observation to the histogram of each
// stage it ran and none to any other, and its stages sum to no more
// than its total.
func TestStageClockObservesEachStageOnce(t *testing.T) {
	f := newFixture(t)
	occIngest(t, f)
	counts := func() map[string]uint64 {
		out := map[string]uint64{}
		for path, stages := range pathStages {
			for _, s := range stages {
				h, ok := f.bms.Metrics().LookupHistogram("tippers_request_stage_seconds",
					telemetry.Labels{"path": path, "stage": s.String()})
				if !ok {
					t.Fatalf("no histogram for %s/%s", path, s)
				}
				out[path+"/"+s.String()] = h.Snapshot().Count
			}
		}
		return out
	}
	check := func(name string, run func() DecisionTrace, want ...Stage) {
		t.Helper()
		before := counts()
		tr := run()
		if ran := ran(&tr.Stages); !slices.Equal(ran, want) {
			t.Fatalf("%s ran stages %v, want %v", name, ran, want)
		}
		after := counts()
		for key, n := range after {
			wantN := before[key]
			for _, s := range want {
				if key == tr.Path+"/"+s.String() {
					wantN++
				}
			}
			if n != wantN {
				t.Errorf("%s: %s observed %d times, want %d", name, key, n-before[key], wantN-before[key])
			}
		}
		var sum int64
		for _, st := range tr.Stages {
			sum += st.Duration().Microseconds()
		}
		if sum > tr.TotalMicros {
			t.Errorf("%s: stages sum to %dµs, over the total %dµs", name, sum, tr.TotalMicros)
		}
	}

	user := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		Kind: sensor.ObsWiFiConnect, SubjectID: "mary", Time: testNow}
	check("user read", func() DecisionTrace {
		resp, err := f.bms.RequestUser(user)
		if err != nil || len(resp.Observations) == 0 {
			t.Fatalf("user read: %d rows, %v", len(resp.Observations), err)
		}
		return resp.Trace
	}, StageDecide, StageFetch, StageApply)

	occ := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		Kind: sensor.ObsWiFiConnect, SpaceID: "dbh", Time: testNow}
	occupancy := func() DecisionTrace {
		resp, err := f.bms.RequestOccupancy(occ, 1)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Trace
	}
	check("cold occupancy read", occupancy, StageFetch, StageDecideSubjects, StageAggregate)
	check("cached occupancy read", occupancy, StageCache)

	check("query", func() DecisionTrace {
		resp, err := f.bms.Query(context.Background(), conciergeRequester(),
			"SELECT user_id, space_id FROM observations WHERE kind = 'wifi_access_point'")
		if err != nil {
			t.Fatal(err)
		}
		return resp.Trace
	}, StageParse, StagePlan, StageExecute)
}
