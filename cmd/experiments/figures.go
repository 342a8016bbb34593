package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"github.com/tippers/tippers"
	"github.com/tippers/tippers/internal/sensor"
)

var simDay = time.Date(2017, time.June, 7, 0, 0, 0, 0, time.UTC) // Wednesday

func smallDeployment(registerPolicies bool) *tippers.Deployment {
	dep, err := tippers.NewDeployment(tippers.DeploymentConfig{
		Spec:                  tippers.SmallDBH(),
		Population:            40,
		Seed:                  1,
		RegisterPaperPolicies: registerPolicies,
		Clock:                 func() time.Time { return simDay.Add(14 * time.Hour) },
	})
	if err != nil {
		log.Fatal(err)
	}
	return dep
}

// runFig1 replays the paper's Figure 1 interaction.
func runFig1() {
	dep := smallDeployment(true)
	defer dep.Close()

	fmt.Printf("(1) building admin defined %d policies in TIPPERS\n", len(dep.BMS.Policies()))
	n, err := dep.SimulateDay(simDay, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(2) sensors captured data: %d observations\n", n)
	fmt.Printf("(3) observations stored in the DB: %d live\n", dep.BMS.Store().Len())
	doc := dep.IRR.Document(dep.Building.Spec.ID)
	fmt.Printf("(4) policies published through the IRR: %d resources\n", len(doc.Resources))

	var mary *tippers.User
	for _, u := range dep.Users.All() {
		if u.HasGroup("grad-student") {
			mary = u
			break
		}
	}
	assistant, err := dep.NewAssistant(mary.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(5) Mary's IoTA (%s) discovered the registry and fetched machine-readable policies\n", mary.ID)
	notices := assistant.ProcessDocument(doc)
	fmt.Printf("(6) IoTA displayed %d policy summaries (suppressed %d for fatigue):\n", len(notices), assistant.Suppressed())
	for _, nt := range notices {
		fmt.Printf("      %s\n", nt.Digest)
	}
	for _, nt := range notices {
		if nt.ResourceName == "Location tracking in DBH" {
			if err := assistant.Feedback(nt.Fingerprint, true); err != nil {
				log.Fatal(err)
			}
			fmt.Println("(7) Mary indicated she cares about location collection (objected)")
		}
	}
	fmt.Printf("(8) IoTA configured %d preference(s) in TIPPERS\n", len(dep.BMS.Preferences(mary.ID)))

	resp, err := dep.BMS.RequestUser(tippers.Request{
		ServiceID: "concierge", Purpose: tippers.PurposeProvidingService,
		Kind: "wifi_access_point", SubjectID: mary.ID, Time: simDay.Add(14 * time.Hour),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(9) Concierge requested Mary's location\n")
	fmt.Printf("(10) request processed per her settings: allowed=%v (%s)\n",
		resp.Decision.Allowed, resp.Decision.DenyReason)
}

func runFig2() {
	raw, err := tippers.Figure2Document().MarshalIndent()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(raw))
}

func runFig3() {
	raw, err := json.MarshalIndent(tippers.Figure3Document(), "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(raw))
}

func runFig4() {
	raw, err := json.MarshalIndent(tippers.Figure4Settings(), "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(raw))
}

// runPolicies shows each of the paper's four building policies taking
// effect in the building.
func runPolicies() {
	dep := smallDeployment(true)
	defer dep.Close()

	// Policy 1: HVAC setpoints actuated.
	if hvacs := dep.Building.Sensors.ByType(sensor.TypeHVAC); len(hvacs) > 0 {
		v, _ := hvacs[0].Setting("target_temp_f")
		fmt.Printf("Policy 1: HVAC %s target_temp_f=%s°F (comfort automation)\n", hvacs[0].ID, v)
	} else {
		fmt.Println("Policy 1: registered (no HVAC units in the small building; scope actuates none)")
	}

	// Policy 2: retention installed, collection mandated.
	for _, r := range dep.BMS.Store().RetentionRules() {
		fmt.Printf("Policy 2: retention rule kind=%s ttl=%s\n", r.Kind, r.TTL)
	}

	// Policy 3: access readers reconfigured (the small building may
	// deploy none, in which case only the rule is reported).
	if readers := dep.Building.Sensors.ByType(sensor.TypeAccessControl); len(readers) > 0 {
		v, _ := readers[0].Setting("mode")
		fmt.Printf("Policy 3: access reader %s mode=%s\n", readers[0].ID, v)
	}
	for _, p := range dep.BMS.Policies() {
		if p.ID == "policy-3-access-1" {
			fmt.Printf("Policy 3: registered for %s (%s)\n", p.Scope.SpaceID, p.Description)
		}
	}

	// Policy 4: proximity-gated disclosure.
	for _, p := range dep.BMS.Policies() {
		if p.ID == "policy-4-event-disclosure" {
			fmt.Printf("Policy 4: event details disclosed to %v only within %s\n",
				p.AudienceGroups, p.ProximitySpaceID)
		}
	}
}

// runPreferences shows each of the paper's four user preferences
// deciding a live request.
func runPreferences() {
	dep := smallDeployment(true)
	defer dep.Close()
	if _, err := dep.SimulateDay(simDay, 7); err != nil {
		log.Fatal(err)
	}
	users := dep.Users.All()
	u1, u2, u3, u4 := users[0], users[1], users[2], users[3]

	// Preference 1.
	office := "dbh/101"
	if offices := u1.Offices(); len(offices) > 0 {
		office = offices[0]
	}
	if err := dep.BMS.SetPreference(tippers.Preference1OfficeOccupancy(u1.ID, office)); err != nil {
		log.Fatal(err)
	}
	day, night := prefReq(dep, u1.ID, "smart-meeting", "occupancy", office, 11), prefReq(dep, u1.ID, "smart-meeting", "occupancy", office, 22)
	fmt.Printf("Preference 1 (%s): office occupancy at 11:00 allowed=%v; at 22:00 allowed=%v\n", u1.ID, day, night)

	// Preference 2.
	for _, p := range tippers.Preference2NoLocation(u2.ID) {
		if err := dep.BMS.SetPreference(p); err != nil {
			log.Fatal(err)
		}
	}
	svc := prefReq(dep, u2.ID, "concierge", "wifi_access_point", "", 14)
	fmt.Printf("Preference 2 (%s): concierge location request allowed=%v", u2.ID, svc)
	em, err := dep.BMS.RequestUser(tippers.Request{
		ServiceID: "bms-emergency", Purpose: tippers.PurposeEmergencyResponse,
		Kind: "wifi_access_point", SubjectID: u2.ID, Time: simDay.Add(14 * time.Hour),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("; emergency override allowed=%v with %d notification(s)\n", em.Decision.Allowed, len(em.Decision.Overridden))

	// Preference 3.
	if err := dep.BMS.SetPreference(tippers.Preference3ConciergeFineLocation(u3.ID, "concierge")); err != nil {
		log.Fatal(err)
	}
	resp, err := dep.BMS.RequestUser(tippers.Request{
		ServiceID: "concierge", Purpose: tippers.PurposeProvidingService,
		Kind: "wifi_access_point", SubjectID: u3.ID, Time: simDay.Add(14 * time.Hour),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Preference 3 (%s): concierge gets fine-grained location: granularity=%s\n", u3.ID, resp.Decision.Granularity)

	// Preference 4.
	if err := dep.BMS.SetPreference(tippers.Preference4SmartMeeting(u4.ID, "smart-meeting")); err != nil {
		log.Fatal(err)
	}
	sm := prefReq(dep, u4.ID, "smart-meeting", "bluetooth_beacon", "", 14)
	fmt.Printf("Preference 4 (%s): smart-meeting access allowed=%v\n", u4.ID, sm)
}

func prefReq(dep *tippers.Deployment, user, svc, kind, space string, hour int) bool {
	resp, err := dep.BMS.RequestUser(tippers.Request{
		ServiceID: svc, Purpose: tippers.PurposeProvidingService,
		Kind: sensor.ObservationKind(kind), SubjectID: user,
		SpaceID: space, Time: simDay.Add(time.Duration(hour) * time.Hour),
	})
	if err != nil {
		log.Fatal(err)
	}
	return resp.Decision.Allowed
}
