package tippers

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/httpapi"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/query"
	"github.com/tippers/tippers/internal/reasoner"
	"github.com/tippers/tippers/internal/sensor"
)

// openDurableDeployment opens a small durable deployment on dir, the
// way tippersd does with -wal-dir: the store, its columnar tier, and
// the paper's policies registered at boot.
func openDurableDeployment(t testing.TB, dir string) *Deployment {
	t.Helper()
	store, err := OpenDurableStore(DurableStoreConfig{Dir: filepath.Join(dir, "store"),
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
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

// serveJSON sends one request through the deployment's API handler and
// returns the status.
func serveJSON(t testing.TB, dep *Deployment, method, path string, body any) int {
	t.Helper()
	var r io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		r = bytes.NewReader(b)
	}
	rec := httptest.NewRecorder()
	dep.APIHandler().ServeHTTP(rec, httptest.NewRequest(method, path, r))
	return rec.Code
}

func putPreference(t testing.TB, dep *Deployment, p policy.Preference) {
	t.Helper()
	if code := serveJSON(t, dep, http.MethodPut, "/v1/preferences", httpapi.PreferenceToDTO(p)); code != http.StatusOK {
		t.Fatalf("PUT %s: status %d", p.ID, code)
	}
}

// TestDeploymentDurableRestartKeepsPreferences: preferences written over
// HTTP — a PUT, a replacing PUT and a DELETE — are what a durable node
// enforces after it is closed and reopened on the same directories:
// Preferences, Conflicts, and the rows user, occupancy and SQL probes
// release are the same before and after.
func TestDeploymentDurableRestartKeepsPreferences(t *testing.T) {
	dir := t.TempDir()
	dep := openDurableDeployment(t, dir)
	if _, err := dep.SimulateDay(simDay, 7); err != nil {
		t.Fatal(err)
	}
	var subjects []string
	for _, u := range dep.Users.All() {
		if dep.BMS.Store().Count(storeFilterForKind(u.ID, sensor.ObsWiFiConnect)) > 0 {
			subjects = append(subjects, u.ID)
		}
	}
	if len(subjects) < 4 {
		t.Fatalf("fixture: %d subjects with Wi-Fi rows", len(subjects))
	}
	subjects = subjects[:4]
	deny := func(id, user, service string) policy.Preference {
		return policy.Preference{ID: id, UserID: user, Source: "explicit",
			Scope: policy.Scope{ObsKind: sensor.ObsWiFiConnect, ServiceID: service},
			Rule:  policy.Rule{Action: policy.ActionDeny}}
	}
	putPreference(t, dep, deny("p-a", subjects[0], "concierge"))
	putPreference(t, dep, deny("p-b", subjects[1], ""))
	replaced := deny("p-b", subjects[1], "")
	replaced.Rule = policy.Rule{Action: policy.ActionLimit, MaxGranularity: GranFloor}
	putPreference(t, dep, replaced)
	putPreference(t, dep, deny("p-c", subjects[2], "concierge"))
	if code := serveJSON(t, dep, http.MethodDelete, "/v1/preferences/p-c", nil); code != http.StatusNoContent {
		t.Fatalf("DELETE p-c: status %d", code)
	}
	putPreference(t, dep, policy.Preference2NoLocation(subjects[3])[0]) // Policy 2 overrides it: a conflict

	type answers struct {
		Prefs     [][]policy.Preference
		Conflicts []reasoner.Conflict
		Users     [][]sensor.Observation
		Occupancy any
		SQL       [][]query.Value
	}
	from := simDay.Add(9 * time.Hour)
	ask := func(dep *Deployment) answers {
		t.Helper()
		var a answers
		a.Conflicts = dep.BMS.Conflicts()
		for _, s := range subjects {
			a.Prefs = append(a.Prefs, dep.BMS.Preferences(s))
			resp, err := dep.BMS.RequestUser(Request{ServiceID: "concierge", Purpose: PurposeProvidingService,
				Kind: sensor.ObsWiFiConnect, SubjectID: s, From: from, To: from.Add(10 * time.Hour)})
			if err != nil {
				t.Fatal(err)
			}
			for i := range resp.Observations {
				resp.Observations[i].Time = resp.Observations[i].Time.UTC()
			}
			a.Users = append(a.Users, resp.Observations)
		}
		occ, err := dep.BMS.RequestOccupancy(Request{ServiceID: "concierge", Purpose: PurposeProvidingService,
			Kind: sensor.ObsWiFiConnect, SpaceID: dep.Building.Spec.ID, From: from, To: from.Add(time.Hour)}, 2)
		if err != nil {
			t.Fatal(err)
		}
		a.Occupancy = occ.Aggregates
		res, err := dep.BMS.Query(context.Background(),
			query.Requester{ServiceID: "concierge", Purpose: PurposeProvidingService},
			fmt.Sprintf("SELECT seq, user_id, space_id FROM observations WHERE kind = 'wifi_access_point' AND time >= '%s' AND time < '%s' ORDER BY seq",
				from.Format(time.RFC3339), from.Add(10*time.Hour).Format(time.RFC3339)))
		if err != nil {
			t.Fatal(err)
		}
		a.SQL = res.Result.Rows
		return a
	}
	before := ask(dep)
	if len(before.Users[0]) != 0 || len(before.Users[2]) == 0 || len(before.Conflicts) == 0 || len(before.SQL) == 0 {
		t.Fatalf("fixture: the opt-outs do not show in the answers: %+v", before)
	}
	dep.Close()

	restarted := openDurableDeployment(t, dir)
	defer restarted.Close()
	if after := ask(restarted); !reflect.DeepEqual(after, before) {
		t.Fatalf("answers changed across a durable restart:\nbefore %+v\n after %+v", before, after)
	}
}

// TestDeploymentPreferenceSurvivesSIGKILL kills a durable node right
// after it acknowledged a PUT /v1/preferences, with no shutdown and no
// checkpoint. The restarted node enforces the preference.
func TestDeploymentPreferenceSurvivesSIGKILL(t *testing.T) {
	const subject, service = "u0001", "concierge"
	optOut := policy.Preference{ID: "sigkill-opt-out", UserID: subject, Source: "explicit",
		Scope: policy.Scope{ServiceID: service}, Rule: policy.Rule{Action: policy.ActionDeny}}
	if dir := os.Getenv("TIPPERS_SIGKILL_DIR"); dir != "" {
		dep := openDurableDeployment(t, dir)
		putPreference(t, dep, optOut)
		fmt.Println("acknowledged")
		select {} // the parent kills this process
	}
	if runtime.GOOS == "windows" {
		t.Skip("needs SIGKILL semantics")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestDeploymentPreferenceSurvivesSIGKILL$", "-test.v")
	cmd.Env = append(os.Environ(), "TIPPERS_SIGKILL_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	acked := make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "acknowledged") {
				acked <- true
				break
			}
		}
		close(acked)
		io.Copy(io.Discard, stdout)
	}()
	select {
	case ok := <-acked:
		if !ok {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("child exited before the PUT was acknowledged")
		}
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("child never acknowledged the PUT")
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	dep := openDurableDeployment(t, dir)
	defer dep.Close()
	if got := dep.BMS.Preferences(subject); !reflect.DeepEqual(got, []policy.Preference{optOut}) {
		t.Fatalf("after SIGKILL the node lists %+v, want the acknowledged opt-out", got)
	}
	resp, err := dep.BMS.RequestUser(Request{ServiceID: service, Purpose: PurposeProvidingService,
		Kind: sensor.ObsBLESighting, SubjectID: subject, Time: simDay.Add(38 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Decision.Allowed {
		t.Fatalf("after SIGKILL the node released %s's data to %s: %+v", subject, service, resp.Decision)
	}
}
