package tippers

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/core"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/query"
	"github.com/tippers/tippers/internal/sensor"
)

func TestDeploymentGroupDefaults(t *testing.T) {
	dep, err := NewDeployment(DeploymentConfig{
		Spec:       SmallDBH(),
		Population: 40,
		Seed:       1,
		GroupDefaults: []GroupDefault{{
			ID:     "visitors-coarse",
			Groups: []profile.Group{profile.GroupVisitor},
			Rule:   Rule{Action: ActionLimit, MaxGranularity: GranBuilding},
		}},
		Clock: func() time.Time { return simDay.Add(14 * time.Hour) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	var visitor, student *User
	for _, u := range dep.Users.All() {
		if u.HasGroup(profile.GroupVisitor) && visitor == nil {
			visitor = u
		}
		if u.HasGroup(profile.GroupUndergrad) && student == nil {
			student = u
		}
	}
	if visitor == nil || student == nil {
		t.Skip("population lacks a visitor or student at this seed")
	}
	req := Request{
		ServiceID: "concierge",
		Purpose:   PurposeProvidingService,
		Kind:      sensor.ObsWiFiConnect,
		Time:      simDay.Add(14 * time.Hour),
	}
	req.SubjectID = visitor.ID
	resp, err := dep.BMS.RequestUser(req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Decision.Allowed || resp.Decision.Granularity != GranBuilding {
		t.Errorf("visitor decision = %+v, want building-granularity default", resp.Decision)
	}
	req.SubjectID = student.ID
	resp, err = dep.BMS.RequestUser(req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Decision.Allowed || resp.Decision.Granularity != GranExact {
		t.Errorf("student decision = %+v, want exact", resp.Decision)
	}
}

func TestDeploymentRejectsBadGroupDefaults(t *testing.T) {
	_, err := NewDeployment(DeploymentConfig{
		Spec:          SmallDBH(),
		Population:    5,
		GroupDefaults: []GroupDefault{{ID: "bad"}}, // invalid rule
	})
	if err == nil {
		t.Fatal("invalid group default accepted")
	}
}

func TestDeploymentForgetUser(t *testing.T) {
	dep := newSmallDeployment(t)
	if _, err := dep.SimulateDay(simDay, 7); err != nil {
		t.Fatal(err)
	}
	var subject *User
	for _, u := range dep.Users.All() {
		if dep.BMS.Store().Count(storeFilterFor(u.ID)) > 0 {
			subject = u
			break
		}
	}
	if subject == nil {
		t.Fatal("nobody has data")
	}
	deleted, retained, err := dep.BMS.ForgetUser(subject.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Policy 2 (registered by the deployment) protects wifi logs.
	if retained == 0 {
		t.Errorf("override-protected data erased: deleted=%d retained=%d", deleted, retained)
	}
	if dep.BMS.Store().Count(storeFilterForKind(subject.ID, sensor.ObsBLESighting)) != 0 {
		t.Error("erasable BLE data survived")
	}
}

func TestDeploymentAudit(t *testing.T) {
	dep := newSmallDeployment(t)
	u := dep.Users.All()[0]
	report, err := dep.BMS.AuditUser(u.ID, simDay.Add(14*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Entries) == 0 {
		t.Error("audit empty")
	}
	if len(report.OverridePolicies) == 0 {
		t.Error("Policy 2 override not reported")
	}
}

func storeFilterFor(userID string) obstore.Filter {
	return obstore.Filter{UserID: userID}
}

func storeFilterForKind(userID string, kind sensor.ObservationKind) obstore.Filter {
	return obstore.Filter{UserID: userID, Kind: kind}
}

// TestDeploymentDurableRestartServesSameAnswers: what a cube-served
// RequestOccupancy and a SELECT … FROM occupancy released before a
// durable restart, they release after it. Recovery installs rows with
// insertRecovered, which notifies no listener, so this holds only
// because OpenDurableStore finishes before the columnar tier attaches
// and rebuilds its rollup cubes from the recovered store — a restore
// that ran after the attach (the deleted -snapshot mode) answered
// 0 subjects in 0 spaces and nothing noticed.
func TestDeploymentDurableRestartServesSameAnswers(t *testing.T) {
	dir := t.TempDir()
	open := func() *Deployment {
		t.Helper()
		store, err := OpenDurableStore(DurableStoreConfig{Dir: filepath.Join(dir, "store")})
		if err != nil {
			t.Fatal(err)
		}
		dep, err := NewDeployment(DeploymentConfig{
			Spec:                  SmallDBH(),
			Population:            100,
			Seed:                  1,
			RegisterPaperPolicies: true,
			Clock:                 func() time.Time { return simDay.Add(38 * time.Hour) },
			Store:                 store,
			ColumnarDir:           filepath.Join(dir, "colstore"),
		})
		if err != nil {
			store.Close()
			t.Fatal(err)
		}
		return dep
	}
	type answers struct {
		Occupancy            []privacy.AggregateCount
		Considered, Released int
		SQL                  [][]query.Value
	}
	from := simDay.Add(10 * time.Hour)
	ask := func(dep *Deployment) answers {
		t.Helper()
		req := Request{
			ServiceID: "concierge", Purpose: PurposeProvidingService, Kind: sensor.ObsWiFiConnect,
			SpaceID: dep.Building.Spec.ID, From: from, To: from.Add(time.Hour),
		}
		occ, err := dep.BMS.RequestOccupancy(req, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Only a cube-served answer is memoized, so a repeat that hits
		// the answer cache proves the first came from the cubes.
		again, err := dep.BMS.RequestOccupancy(req, 2)
		if err != nil {
			t.Fatal(err)
		}
		if st := again.Trace.Stages; st[core.StageCache].Calls != 1 || st[core.StageFetch].Calls != 0 {
			t.Fatalf("occupancy request was not cube-served: repeat ran stages %+v", st)
		}
		res, err := dep.BMS.Query(context.Background(),
			query.Requester{ServiceID: "concierge", Purpose: PurposeProvidingService, MinK: 2},
			fmt.Sprintf("SELECT space_id, count FROM occupancy WHERE kind = 'wifi_access_point' AND time >= '%s' AND time < '%s' ORDER BY space_id",
				from.Format(time.RFC3339), from.Add(time.Hour).Format(time.RFC3339)))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Result.Stats.UsedRollup {
			t.Fatal("occupancy SELECT was not cube-served")
		}
		return answers{occ.Aggregates, occ.SubjectsConsidered, occ.SubjectsReleased, res.Result.Rows}
	}

	dep := open()
	if _, err := dep.SimulateDay(simDay, 7); err != nil {
		t.Fatal(err)
	}
	// Half the history comes back through the checkpoint, half through
	// WAL replay.
	if err := dep.BMS.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.SimulateDay(simDay.AddDate(0, 0, 1), 8); err != nil {
		t.Fatal(err)
	}
	before := ask(dep)
	if before.Released == 0 || len(before.Occupancy) == 0 || len(before.SQL) == 0 {
		t.Fatalf("fixture releases nothing: %+v", before)
	}
	dep.Close()

	restarted := open()
	defer restarted.Close()
	if after := ask(restarted); !reflect.DeepEqual(after, before) {
		t.Fatalf("answers changed across a durable restart:\nbefore %+v\n after %+v", before, after)
	}
}
