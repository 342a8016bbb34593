package policy

import (
	"math/rand"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/spatial"
)

func testModel(t testing.TB) *spatial.Model {
	t.Helper()
	m := spatial.NewModel()
	m.MustAdd("", spatial.Space{ID: "dbh", Kind: spatial.KindBuilding})
	m.MustAdd("dbh", spatial.Space{ID: "dbh/2", Kind: spatial.KindFloor, Floor: 2})
	m.MustAdd("dbh/2", spatial.Space{ID: "dbh/2/2065", Kind: spatial.KindRoom, Floor: 2})
	m.MustAdd("dbh/2", spatial.Space{ID: "dbh/2/2082", Kind: spatial.KindRoom, Floor: 2})
	m.MustAdd("", spatial.Space{ID: "other-bldg", Kind: spatial.KindBuilding})
	return m
}

func TestGranularityParse(t *testing.T) {
	tests := []struct {
		in   string
		want Granularity
	}{
		{"none", GranNone},
		{"building", GranBuilding},
		{"floor", GranFloor},
		{"room", GranRoom},
		{"exact", GranExact},
		{"fine", GranExact},
		{"fine-grained", GranExact},
		{"coarse", GranBuilding},
		{"EXACT", GranExact},
	}
	for _, tt := range tests {
		got, err := ParseGranularity(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("ParseGranularity(%q) = %v, %v; want %v", tt.in, got, err, tt.want)
		}
	}
	if _, err := ParseGranularity("street"); err == nil {
		t.Error("ParseGranularity(street) succeeded")
	}
	if GranRoom.Min(GranBuilding) != GranBuilding || GranBuilding.Min(GranExact) != GranBuilding {
		t.Error("Min picks the finer granularity")
	}
	if !GranNone.Valid() || Granularity(0).Valid() || Granularity(9).Valid() {
		t.Error("Valid() wrong")
	}
}

func TestGranularityOrdering(t *testing.T) {
	// The enforcement engine relies on finer == larger.
	order := []Granularity{GranNone, GranBuilding, GranFloor, GranRoom, GranExact}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("granularity ladder broken at %v", order[i])
		}
	}
}

func TestActionAndKindStrings(t *testing.T) {
	for _, a := range []Action{ActionAllow, ActionDeny, ActionLimit} {
		got, err := ParseAction(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAction(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAction("shrug"); err == nil {
		t.Error("ParseAction(shrug) succeeded")
	}
	if Action(9).String() != "Action(9)" || PolicyKind(9).String() != "PolicyKind(9)" {
		t.Error("fallback String() formatting wrong")
	}
	if Granularity(9).String() != "Granularity(9)" {
		t.Error("granularity fallback String() wrong")
	}
	if KindCollection.String() != "collection" {
		t.Errorf("KindCollection = %q", KindCollection.String())
	}
}

func TestPurposeTaxonomy(t *testing.T) {
	if !PurposeEmergencyResponse.SafetyCritical() || !PurposeSecurity.SafetyCritical() {
		t.Error("emergency/security must be safety-critical")
	}
	for _, p := range []Purpose{PurposeMarketing, PurposeComfort, PurposeProvidingService} {
		if p.SafetyCritical() {
			t.Errorf("%s must not be safety-critical", p)
		}
	}
	if PurposeMarketing.Sensitivity() <= PurposeComfort.Sensitivity() {
		t.Error("marketing must be more sensitive than comfort")
	}
	if len(AllPurposes()) != 10 {
		t.Errorf("AllPurposes() = %d entries", len(AllPurposes()))
	}
	for _, p := range AllPurposes() {
		s := p.Sensitivity()
		if s <= 0 || s > 1 {
			t.Errorf("Sensitivity(%s) = %v outside (0,1]", p, s)
		}
	}
}

func TestDailyWindowContains(t *testing.T) {
	// A Wednesday.
	wed := func(h, m int) time.Time {
		return time.Date(2017, time.June, 7, h, m, 0, 0, time.UTC)
	}
	if wed(12, 0).Weekday() != time.Wednesday {
		t.Fatal("fixture is not a Wednesday")
	}
	tests := []struct {
		name string
		w    DailyWindow
		t    time.Time
		want bool
	}{
		{"business hours midday", BusinessHours, wed(12, 0), true},
		{"business hours start inclusive", BusinessHours, wed(8, 0), true},
		{"business hours end exclusive", BusinessHours, wed(18, 0), false},
		{"business hours weekend", BusinessHours, time.Date(2017, time.June, 10, 12, 0, 0, 0, time.UTC), false},
		{"after hours evening", AfterHours, wed(20, 0), true},
		{"after hours early morning", AfterHours, wed(3, 0), true},
		{"after hours boundary 8am", AfterHours, wed(8, 0), false},
		{"after hours midday", AfterHours, wed(12, 0), false},
		{"after hours start inclusive", AfterHours, wed(18, 0), true},
	}
	for _, tt := range tests {
		if got := tt.w.Contains(tt.t); got != tt.want {
			t.Errorf("%s: Contains(%v) = %v, want %v", tt.name, tt.t, got, tt.want)
		}
	}
}

func TestDailyWindowWrapAttributesDays(t *testing.T) {
	// A Friday-only after-hours window covers Saturday 3am (it began
	// Friday evening) but not Friday 3am (that belongs to Thursday).
	w := DailyWindow{Start: 18 * 60, End: 8 * 60, Days: Friday}
	satMorning := time.Date(2017, time.June, 10, 3, 0, 0, 0, time.UTC) // Saturday
	friMorning := time.Date(2017, time.June, 9, 3, 0, 0, 0, time.UTC)  // Friday
	friEvening := time.Date(2017, time.June, 9, 20, 0, 0, 0, time.UTC)
	if !w.Contains(satMorning) {
		t.Error("Saturday 3am should be inside Friday's wrapped window")
	}
	if w.Contains(friMorning) {
		t.Error("Friday 3am belongs to Thursday's window")
	}
	if !w.Contains(friEvening) {
		t.Error("Friday 8pm should be inside")
	}
}

func TestDailyWindowIntersects(t *testing.T) {
	saturday := DailyWindow{Start: 0, End: 0, Days: Saturday}
	tests := []struct {
		name string
		a, b DailyWindow
		want bool
	}{
		{"after hours vs business hours", AfterHours, BusinessHours, false},
		// Sunday's after-hours window runs to Monday 08:00.
		{"after hours vs Monday 07:00-09:00", AfterHours, DailyWindow{Start: 7 * 60, End: 9 * 60, Days: Monday}, true},
		{"Saturday vs business hours", saturday, BusinessHours, false},
		{"Saturday vs after hours", saturday, AfterHours, true},
		{"Friday night vs Saturday", DailyWindow{Start: 22 * 60, End: 2 * 60, Days: Friday}, saturday, true},
		{"Saturday night spills into Sunday", DailyWindow{Start: 22 * 60, End: 2 * 60, Days: Saturday},
			DailyWindow{Start: 60, End: 3 * 60, Days: Sunday}, true},
		{"touching ends", DailyWindow{Start: 8 * 60, End: 9 * 60}, DailyWindow{Start: 9 * 60, End: 10 * 60}, false},
		{"unset covers the week", DailyWindow{}, DailyWindow{Start: 60, End: 61, Days: Wednesday}, true},
	}
	for _, tt := range tests {
		if got := tt.a.Intersects(tt.b); got != tt.want {
			t.Errorf("%s: Intersects = %v, want %v", tt.name, got, tt.want)
		}
		if got := tt.b.Intersects(tt.a); got != tt.want {
			t.Errorf("%s: Intersects not symmetric", tt.name)
		}
	}
	if n := testing.AllocsPerRun(100, func() { AfterHours.Intersects(BusinessHours) }); n != 0 {
		t.Errorf("Intersects allocates %v times", n)
	}
}

// TestDailyWindowIntersectsMatchesContains: over random windows whose
// edges fall on the half hour, two windows intersect exactly when some
// half hour of a week lies in both by Contains.
func TestDailyWindowIntersectsMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	window := func() DailyWindow {
		return DailyWindow{Start: 30 * rng.Intn(48), End: 30 * rng.Intn(48), Days: Weekdays(rng.Intn(128))}
	}
	sunday := time.Date(2017, time.June, 4, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 300; i++ {
		a, b := window(), window()
		want := false
		for m := 0; m < 7*24*60 && !want; m += 30 {
			at := sunday.Add(time.Duration(m) * time.Minute)
			want = a.Contains(at) && b.Contains(at)
		}
		if got := a.Intersects(b); got != want {
			t.Errorf("%+v.Intersects(%+v) = %v, Contains says %v", a, b, got, want)
		}
	}
}

func TestWeekdaysMask(t *testing.T) {
	if !Weekdays5.Has(time.Monday) || Weekdays5.Has(time.Sunday) {
		t.Error("Weekdays5 mask wrong")
	}
	if !Weekend.Has(time.Saturday) || Weekend.Has(time.Tuesday) {
		t.Error("Weekend mask wrong")
	}
	for d := time.Sunday; d <= time.Saturday; d++ {
		if !AllDays.Has(d) {
			t.Errorf("AllDays missing %v", d)
		}
	}
}

func TestScopeMatches(t *testing.T) {
	m := testModel(t)
	base := Context{
		SubjectID:     "mary",
		SubjectGroups: []profile.Group{profile.GroupGradStudent},
		SpaceID:       "dbh/2/2065",
		SensorType:    sensor.TypeWiFiAP,
		ObsKind:       sensor.ObsWiFiConnect,
		Purpose:       PurposeEmergencyResponse,
		ServiceID:     "concierge",
		Time:          time.Date(2017, time.June, 7, 20, 0, 0, 0, time.UTC), // 8pm
	}
	tests := []struct {
		name  string
		scope Scope
		want  bool
	}{
		{"zero scope matches all", Scope{}, true},
		{"building subtree", Scope{SpaceID: "dbh"}, true},
		{"exact room", Scope{SpaceID: "dbh/2/2065"}, true},
		{"sibling room", Scope{SpaceID: "dbh/2/2082"}, false},
		{"other building", Scope{SpaceID: "other-bldg"}, false},
		{"sensor type match", Scope{SensorType: sensor.TypeWiFiAP}, true},
		{"sensor type mismatch", Scope{SensorType: sensor.TypeCamera}, false},
		{"kind match", Scope{ObsKind: sensor.ObsWiFiConnect}, true},
		{"kind mismatch", Scope{ObsKind: sensor.ObsBLESighting}, false},
		{"purpose match", Scope{Purposes: []Purpose{PurposeEmergencyResponse, PurposeSecurity}}, true},
		{"purpose mismatch", Scope{Purposes: []Purpose{PurposeMarketing}}, false},
		{"service match", Scope{ServiceID: "concierge"}, true},
		{"service mismatch", Scope{ServiceID: "food-delivery"}, false},
		{"subject match", Scope{SubjectIDs: []string{"mary", "bob"}}, true},
		{"subject mismatch", Scope{SubjectIDs: []string{"bob"}}, false},
		{"group match", Scope{SubjectGroups: []profile.Group{profile.GroupGradStudent}}, true},
		{"group mismatch", Scope{SubjectGroups: []profile.Group{profile.GroupFaculty}}, false},
		{"window match (after hours at 8pm)", Scope{Window: AfterHours}, true},
		{"window mismatch (business hours at 8pm)", Scope{Window: BusinessHours}, false},
		{"combined", Scope{SpaceID: "dbh", SensorType: sensor.TypeWiFiAP, Purposes: []Purpose{PurposeEmergencyResponse}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.scope.Matches(base, m); got != tt.want {
				t.Errorf("Matches = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestScopeMatchesNilModel(t *testing.T) {
	ctx := Context{SpaceID: "dbh/2/2065"}
	if !(Scope{SpaceID: "dbh/2/2065"}).Matches(ctx, nil) {
		t.Error("exact space match should work without a model")
	}
	if (Scope{SpaceID: "dbh"}).Matches(ctx, nil) {
		t.Error("subtree match requires a model")
	}
	if (Scope{SpaceID: "dbh"}).Matches(Context{}, nil) {
		t.Error("empty context space cannot match a scoped space")
	}
}

func TestScopeMatchesZeroTimeWithWindow(t *testing.T) {
	s := Scope{Window: AfterHours}
	if s.Matches(Context{}, nil) {
		t.Error("windowed scope must not match a context without a time")
	}
}

func TestScopeOverlaps(t *testing.T) {
	m := testModel(t)
	tests := []struct {
		name string
		a, b Scope
		want bool
	}{
		{"both empty", Scope{}, Scope{}, true},
		{"nested spaces", Scope{SpaceID: "dbh"}, Scope{SpaceID: "dbh/2/2065"}, true},
		{"sibling rooms", Scope{SpaceID: "dbh/2/2065"}, Scope{SpaceID: "dbh/2/2082"}, false},
		{"different buildings", Scope{SpaceID: "dbh"}, Scope{SpaceID: "other-bldg"}, false},
		{"one empty space", Scope{}, Scope{SpaceID: "dbh"}, true},
		{"same sensor", Scope{SensorType: sensor.TypeWiFiAP}, Scope{SensorType: sensor.TypeWiFiAP}, true},
		{"different sensor", Scope{SensorType: sensor.TypeWiFiAP}, Scope{SensorType: sensor.TypeCamera}, false},
		{"purpose disjoint", Scope{Purposes: []Purpose{PurposeMarketing}}, Scope{Purposes: []Purpose{PurposeComfort}}, false},
		{"purpose shared", Scope{Purposes: []Purpose{PurposeMarketing, PurposeComfort}}, Scope{Purposes: []Purpose{PurposeComfort}}, true},
		{"subjects disjoint", Scope{SubjectIDs: []string{"a"}}, Scope{SubjectIDs: []string{"b"}}, false},
		{"subjects shared", Scope{SubjectIDs: []string{"a", "b"}}, Scope{SubjectIDs: []string{"b"}}, true},
		{"services differ", Scope{ServiceID: "x"}, Scope{ServiceID: "y"}, false},
		{"sensor type is the kind's", Scope{SensorType: sensor.TypeWiFiAP}, Scope{ObsKind: sensor.ObsWiFiConnect}, true},
		{"sensor type is not the kind's", Scope{SensorType: sensor.TypeWiFiAP}, Scope{ObsKind: sensor.ObsBLESighting}, false},
		{"windows disjoint", Scope{Window: AfterHours}, Scope{Window: BusinessHours}, false},
		{"windows share Monday 07:00", Scope{Window: AfterHours}, Scope{Window: DailyWindow{Start: 7 * 60, End: 9 * 60, Days: Monday}}, true},
		{"one window unset", Scope{}, Scope{Window: BusinessHours}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Overlaps(tt.b, m); got != tt.want {
				t.Errorf("Overlaps = %v, want %v", got, tt.want)
			}
			if got := tt.b.Overlaps(tt.a, m); got != tt.want {
				t.Errorf("Overlaps not symmetric")
			}
		})
	}
}

// TestOverlapsSoundness: if both scopes match a context, they must
// overlap (Overlaps never under-reports).
func TestOverlapsSoundness(t *testing.T) {
	m := testModel(t)
	scopes := []Scope{
		{},
		{SpaceID: "dbh"},
		{SpaceID: "dbh/2/2065"},
		{SensorType: sensor.TypeWiFiAP},
		{ObsKind: sensor.ObsWiFiConnect},
		{Purposes: []Purpose{PurposeEmergencyResponse}},
		{ServiceID: "concierge"},
		{SubjectIDs: []string{"mary"}},
		{SpaceID: "dbh", SensorType: sensor.TypeWiFiAP, Purposes: []Purpose{PurposeEmergencyResponse}},
		{Window: AfterHours},
		{Window: BusinessHours, ObsKind: sensor.ObsWiFiConnect},
	}
	ctxs := []Context{
		{SpaceID: "dbh/2/2065", SensorType: sensor.TypeWiFiAP, ObsKind: sensor.ObsWiFiConnect, Purpose: PurposeEmergencyResponse, ServiceID: "concierge", SubjectID: "mary",
			Time: time.Date(2017, time.June, 7, 20, 0, 0, 0, time.UTC)},
		{SpaceID: "dbh/2", SensorType: sensor.TypeCamera, Purpose: PurposeSecurity, SubjectID: "bob",
			Time: time.Date(2017, time.June, 5, 10, 0, 0, 0, time.UTC)},
	}
	for _, ctx := range ctxs {
		for i, a := range scopes {
			for j, b := range scopes {
				if a.Matches(ctx, m) && b.Matches(ctx, m) && !a.Overlaps(b, m) {
					t.Errorf("scopes %d and %d both match ctx but do not Overlap", i, j)
				}
			}
		}
	}
}

func TestBuildingPolicyCheck(t *testing.T) {
	good := Policy2EmergencyLocation("dbh")
	if err := good.Check(); err != nil {
		t.Errorf("Policy2 Check: %v", err)
	}
	bad := good
	bad.ID = ""
	if err := bad.Check(); err == nil {
		t.Error("empty ID accepted")
	}
	bad = good
	bad.Kind = 0
	if err := bad.Check(); err == nil {
		t.Error("zero kind accepted")
	}
	// Override without safety-critical purpose must be rejected.
	sneaky := BuildingPolicy{
		ID:       "sneaky",
		Kind:     KindCollection,
		Scope:    Scope{Purposes: []Purpose{PurposeMarketing}},
		Override: true,
	}
	if err := sneaky.Check(); err == nil {
		t.Error("marketing override accepted; the building could bypass user opt-outs")
	}
	noAudience := BuildingPolicy{ID: "d", Kind: KindDisclosure}
	if err := noAudience.Check(); err == nil {
		t.Error("disclosure without audience accepted")
	}
}

func TestPaperPolicies(t *testing.T) {
	p1 := Policy1Comfort("dbh", 70)
	if p1.Kind != KindAutomation || p1.Settings["target_temp_f"] != "70" {
		t.Errorf("Policy1 = %+v", p1)
	}
	if err := p1.Check(); err != nil {
		t.Errorf("Policy1 Check: %v", err)
	}

	p2 := Policy2EmergencyLocation("dbh")
	if !p2.Override {
		t.Error("Policy2 must override (emergency collection)")
	}
	if p2.Retention != isodur.SixMonths {
		t.Errorf("Policy2 retention = %v, want P6M", p2.Retention)
	}
	if p2.Scope.SensorType != sensor.TypeWiFiAP || p2.Scope.ObsKind != sensor.ObsWiFiConnect {
		t.Errorf("Policy2 scope = %+v", p2.Scope)
	}

	p3 := Policy3MeetingRoomAccess("dbh/1/conf-a", "dbh/2/conf-b")
	if len(p3) != 2 {
		t.Fatalf("Policy3 = %d policies", len(p3))
	}
	for _, p := range p3 {
		if p.Kind != KindAccessControl || p.Settings["mode"] != "card-or-fingerprint" {
			t.Errorf("Policy3 = %+v", p)
		}
		if err := p.Check(); err != nil {
			t.Errorf("Policy3 Check: %v", err)
		}
	}
	if p3[0].ID == p3[1].ID {
		t.Error("Policy3 IDs must be distinct")
	}

	p4 := Policy4EventDisclosure("dbh/6/auditorium", "event-participants")
	if p4.Kind != KindDisclosure || p4.ProximitySpaceID != "dbh/6/auditorium" {
		t.Errorf("Policy4 = %+v", p4)
	}
	if err := p4.Check(); err != nil {
		t.Errorf("Policy4 Check: %v", err)
	}
}
