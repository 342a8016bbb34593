// Package policy implements the paper's machine-readable policy
// language (§III–§IV): building policies set by the building's owner,
// user privacy preferences captured by IoT Assistants, and the
// privacy-specific elements — purpose, granularity, retention,
// data-collected/inferred — the language carries.
//
// The package has two layers:
//
//   - Enforceable rules (BuildingPolicy, Preference) with typed
//     scopes. The enforcement engine and the conflict reasoner
//     operate on these.
//   - Paper-shape JSON documents (document.go) matching the paper's
//     Figures 2–4, checked in Go on the values they decode to. IRRs
//     broadcast these; IoTAs parse them.
package policy

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/spatial"
)

// Purpose models the requirement behind a data collection (§IV.B.3).
// The paper notes a purpose taxonomy is needed — "including
// information about whether or not the data is shared ... and for how
// long it will be stored"; the constants below are that taxonomy for
// the smart-building domain.
type Purpose string

// The purpose taxonomy. PurposeAny is a wildcard used in scopes.
const (
	PurposeAny               Purpose = ""
	PurposeEmergencyResponse Purpose = "emergency_response"
	PurposeSecurity          Purpose = "security"
	PurposeProvidingService  Purpose = "providing_service"
	PurposeComfort           Purpose = "comfort"
	PurposeEnergyManagement  Purpose = "energy_management"
	PurposeLogging           Purpose = "logging"
	PurposeAnalytics         Purpose = "analytics"
	PurposeResearch          Purpose = "research"
	PurposeMarketing         Purpose = "marketing"
	PurposeLawEnforcement    Purpose = "law_enforcement"
)

// AllPurposes lists the taxonomy (excluding the wildcard), ordered
// roughly from most to least safety-critical; the IoTA's relevance
// scoring uses this ordering.
func AllPurposes() []Purpose { return slices.Clone(allPurposes[:]) }

var allPurposes = [...]Purpose{
	PurposeEmergencyResponse, PurposeSecurity, PurposeLawEnforcement,
	PurposeProvidingService, PurposeComfort, PurposeEnergyManagement,
	PurposeLogging, PurposeAnalytics, PurposeResearch, PurposeMarketing,
}

// Defined reports whether p is in the taxonomy (the wildcard is not).
func (p Purpose) Defined() bool { return slices.Contains(allPurposes[:], p) }

// SafetyCritical reports whether the purpose belongs to the class a
// building may enforce over user opt-outs (the Policy 2 vs
// Preference 2 resolution: emergency response wins, the user is
// notified).
func (p Purpose) SafetyCritical() bool {
	return p == PurposeEmergencyResponse || p == PurposeSecurity
}

// Sensitivity ranks how alarming a purpose is to users, 0 (benign)
// to 1 (most sensitive). Derived from the Peppet analysis the paper
// cites: sharing and secondary use alarm users more than operations.
func (p Purpose) Sensitivity() float64 {
	switch p {
	case PurposeMarketing:
		return 1.0
	case PurposeLawEnforcement:
		return 0.9
	case PurposeResearch:
		return 0.7
	case PurposeAnalytics:
		return 0.6
	case PurposeLogging:
		return 0.4
	case PurposeSecurity:
		return 0.35
	case PurposeEmergencyResponse:
		return 0.3
	case PurposeProvidingService:
		return 0.25
	case PurposeComfort, PurposeEnergyManagement:
		return 0.15
	default:
		return 0.5
	}
}

// Granularity is the precision at which location-bearing data is
// released: the ladder behind the paper's Figure 4 choices ("fine
// grained" / "coarse grained" / "no location sensing"). Finer
// granularities have larger values, so releasing at most g means
// clamping to min(requested, g).
type Granularity int

// Granularity levels, coarsest (nothing) to finest (exact).
const (
	GranNone Granularity = iota + 1
	GranBuilding
	GranFloor
	GranRoom
	GranExact
)

var granNames = map[Granularity]string{
	GranNone:     "none",
	GranBuilding: "building",
	GranFloor:    "floor",
	GranRoom:     "room",
	GranExact:    "exact",
}

// String returns the lowercase granularity name used in documents.
func (g Granularity) String() string {
	if n, ok := granNames[g]; ok {
		return n
	}
	return fmt.Sprintf("Granularity(%d)", int(g))
}

// ParseGranularity parses a granularity name. It accepts the paper's
// Figure 4 phrasing as aliases: "fine" (exact) and "coarse"
// (building).
func ParseGranularity(s string) (Granularity, error) {
	switch strings.ToLower(s) {
	case "fine", "fine-grained":
		return GranExact, nil
	case "coarse", "coarse-grained":
		return GranBuilding, nil
	}
	for g, n := range granNames {
		if n == strings.ToLower(s) {
			return g, nil
		}
	}
	return 0, fmt.Errorf("policy: unknown granularity %q", s)
}

// Min returns the coarser of two granularities.
func (g Granularity) Min(o Granularity) Granularity {
	if o < g {
		return o
	}
	return g
}

// Valid reports whether g is a defined level.
func (g Granularity) Valid() bool { return g >= GranNone && g <= GranExact }

// Action is what a rule decides about matching data flows.
type Action int

// Actions. ActionLimit releases data but degraded: coarsened to a
// maximum granularity, noised, or aggregated.
const (
	ActionAllow Action = iota + 1
	ActionDeny
	ActionLimit
)

var actionNames = map[Action]string{
	ActionAllow: "allow",
	ActionDeny:  "deny",
	ActionLimit: "limit",
}

// String returns the lowercase action name.
func (a Action) String() string {
	if n, ok := actionNames[a]; ok {
		return n
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// ParseAction parses an action name.
func ParseAction(s string) (Action, error) {
	for a, n := range actionNames {
		if n == strings.ToLower(s) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("policy: unknown action %q", s)
}

// Weekdays is a bitmask of days a daily window applies to.
type Weekdays uint8

// Weekday masks.
const (
	Sunday Weekdays = 1 << iota
	Monday
	Tuesday
	Wednesday
	Thursday
	Friday
	Saturday

	AllDays   = Sunday | Monday | Tuesday | Wednesday | Thursday | Friday | Saturday
	Weekdays5 = Monday | Tuesday | Wednesday | Thursday | Friday
	Weekend   = Saturday | Sunday
)

// Has reports whether the mask includes the given weekday.
func (w Weekdays) Has(d time.Weekday) bool {
	return w&(1<<uint(d)) != 0
}

// DailyWindow is a recurring time-of-day interval. Start and End are
// minutes since midnight UTC; a window with End <= Start wraps past
// midnight (after-hours: Start=18*60, End=8*60). Days of zero means
// all days.
type DailyWindow struct {
	Start int      `json:"start_minute"`
	End   int      `json:"end_minute"`
	Days  Weekdays `json:"days,omitempty"`
}

// AfterHours is the window used by the paper's Preference 1: 6pm–8am
// every day.
var AfterHours = DailyWindow{Start: 18 * 60, End: 8 * 60}

// BusinessHours is 8am–6pm on weekdays.
var BusinessHours = DailyWindow{Start: 8 * 60, End: 18 * 60, Days: Weekdays5}

// Contains reports whether t falls inside the window. t is read as its
// UTC instant, the zone every sealed row decodes in, so a row is
// judged alike whichever offset it was ingested with and whether or
// not it has been sealed.
func (w DailyWindow) Contains(t time.Time) bool {
	t = t.UTC()
	days := w.Days
	if days == 0 {
		days = AllDays
	}
	minute := t.Hour()*60 + t.Minute()
	if w.End > w.Start {
		return days.Has(t.Weekday()) && minute >= w.Start && minute < w.End
	}
	// Wrapping window: the portion before midnight belongs to t's day;
	// the portion after midnight belongs to the previous day's window.
	if minute >= w.Start {
		return days.Has(t.Weekday())
	}
	if minute < w.End {
		return days.Has((t.Weekday() + 6) % 7)
	}
	return false
}

// Check refuses a window no minute of a day can fall in as written:
// each bound a minute of the day, in [0, 1440), and the days a mask of
// the seven weekdays.
func (w DailyWindow) Check() error {
	const day = 24 * 60
	switch {
	case w.Start < 0 || w.Start >= day:
		return fmt.Errorf("scope.window.start_minute %d is not in [0, %d)", w.Start, day)
	case w.End < 0 || w.End >= day:
		return fmt.Errorf("scope.window.end_minute %d is not in [0, %d)", w.End, day)
	case w.Days&^AllDays != 0:
		return errors.New("scope.window.days sets a bit past Saturday's (1<<6)")
	}
	return nil
}

// IsZero reports whether the window is unset (always applies).
func (w DailyWindow) IsZero() bool { return w == DailyWindow{} }

// Intersects reports whether some minute of the week lies in both
// windows, exactly as Contains places it: a wrapping window's part
// after midnight belongs to the next day, and Saturday's runs into
// Sunday. An unset window covers the whole week. It allocates nothing.
func (w DailyWindow) Intersects(o DailyWindow) bool {
	var a, b [14]weekSpan
	wa, ob := a[:w.weekSpans(&a)], b[:o.weekSpans(&b)]
	for _, x := range wa {
		for _, y := range ob {
			if x.start < y.end && y.start < x.end {
				return true
			}
		}
	}
	return false
}

// weekSpan is a half-open interval of minutes since Sunday midnight.
type weekSpan struct{ start, end int }

// weekSpans writes the window's intervals of the week into dst, at
// most two per day, and returns how many it wrote.
func (w DailyWindow) weekSpans(dst *[14]weekSpan) int {
	const day, week = 24 * 60, 7 * 24 * 60
	days := w.Days
	if days == 0 {
		days = AllDays
	}
	n := 0
	for d := time.Sunday; d <= time.Saturday; d++ {
		if !days.Has(d) {
			continue
		}
		base := int(d) * day
		if w.End > w.Start {
			dst[n] = weekSpan{base + w.Start, base + w.End}
			n++
			continue
		}
		dst[n] = weekSpan{base + w.Start, base + day}
		next := (base + day) % week
		dst[n+1] = weekSpan{next, next + w.End}
		n += 2
	}
	return n
}

// Scope selects the data flows a rule governs. Zero fields are
// wildcards; a zero Scope matches everything.
type Scope struct {
	// SpaceID scopes to a spatial subtree (a room, a floor, the
	// building). Matching uses the spatial model's contained operator.
	SpaceID string `json:"space_id,omitempty"`
	// SensorType scopes to one sensor type.
	SensorType sensor.Type `json:"sensor_type,omitempty"`
	// ObsKind scopes to one observation kind (what data).
	ObsKind sensor.ObservationKind `json:"obs_kind,omitempty"`
	// Purposes scopes to any of the listed purposes (why).
	Purposes []Purpose `json:"purposes,omitempty"`
	// ServiceID scopes to one requesting service (who).
	ServiceID string `json:"service_id,omitempty"`
	// SubjectGroups scopes to data subjects in any of the groups.
	SubjectGroups []profile.Group `json:"subject_groups,omitempty"`
	// SubjectIDs scopes to specific data subjects.
	SubjectIDs []string `json:"subject_ids,omitempty"`
	// Window scopes to a recurring time-of-day interval.
	Window DailyWindow `json:"window,omitempty"`
}

// Context is one concrete data flow to be matched against scopes: a
// service's request for data about a subject, or a capture/storage
// event.
type Context struct {
	SubjectID     string
	SubjectGroups []profile.Group
	SpaceID       string
	SensorType    sensor.Type
	ObsKind       sensor.ObservationKind
	Purpose       Purpose
	ServiceID     string
	Time          time.Time
}

// Matches reports whether the scope covers the context. The spatial
// model resolves subtree containment; a nil model makes spatial
// matching exact-ID only.
func (s Scope) Matches(ctx Context, spaces *spatial.Model) bool {
	if s.SpaceID != "" {
		if ctx.SpaceID == "" {
			return false
		}
		if ctx.SpaceID != s.SpaceID {
			if spaces == nil {
				return false
			}
			in, err := spaces.Contained(ctx.SpaceID, s.SpaceID)
			if err != nil || !in {
				return false
			}
		}
	}
	return s.matchesRest(ctx)
}

// MatchesRequest is Matches with query-region spatial semantics, used
// when the context describes a *request* over a region rather than a
// single located observation. A scope matches when its space overlaps
// the query region (containment in either direction), and an empty
// region — a whole-building query — matches every spatial scope.
//
// This is deliberately conservative: a preference scoped to one room
// restricts a query sweeping the whole floor, degrading more data
// than strictly necessary. Over-restriction is the privacy-safe
// failure mode; the paper allows preferences to be "partially or
// completely met".
func (s Scope) MatchesRequest(ctx Context, spaces *spatial.Model) bool {
	if s.SpaceID != "" && ctx.SpaceID != "" && ctx.SpaceID != s.SpaceID {
		if spaces == nil {
			return false
		}
		in1, err1 := spaces.Contained(ctx.SpaceID, s.SpaceID)
		in2, err2 := spaces.Contained(s.SpaceID, ctx.SpaceID)
		if err1 != nil || err2 != nil || (!in1 && !in2) {
			return false
		}
	}
	return s.matchesRest(ctx)
}

// matchesRest checks every scope dimension except space.
func (s Scope) matchesRest(ctx Context) bool {
	if s.SensorType != 0 && ctx.SensorType != s.SensorType {
		return false
	}
	if s.ObsKind != "" && ctx.ObsKind != s.ObsKind {
		return false
	}
	if len(s.Purposes) > 0 && !containsPurpose(s.Purposes, ctx.Purpose) {
		return false
	}
	if s.ServiceID != "" && ctx.ServiceID != s.ServiceID {
		return false
	}
	if !s.CoversSubject(ctx.SubjectID, ctx.SubjectGroups) {
		return false
	}
	if !s.Window.IsZero() {
		if ctx.Time.IsZero() || !s.Window.Contains(ctx.Time) {
			return false
		}
	}
	return true
}

// CoversSubject reports whether the scope's subject dimension takes in
// a data subject with the given groups: its SubjectIDs, if any, name
// the subject, and its SubjectGroups, if any, share one of groups.
func (s Scope) CoversSubject(subjectID string, groups []profile.Group) bool {
	if len(s.SubjectIDs) > 0 && !containsString(s.SubjectIDs, subjectID) {
		return false
	}
	return len(s.SubjectGroups) == 0 || groupsIntersect(s.SubjectGroups, groups)
}

// Overlaps reports whether some context can match both scopes as
// Matches matches one located flow: the conflict reasoner's test. One
// space must contain the other (exact IDs without a model); sensor
// types, kinds and services must be equal where both scopes set them;
// purpose lists must share a purpose, subject lists a subject, and the
// windows a minute of the week. A context's sensor type is its kind's
// (sensor.TypeForKind), so a sensor type on one side must be the kind's
// on the other. Two group lists are not compared, since one subject can
// be in both groups; whether a scope takes in a given subject is
// CoversSubject's question.
func (s Scope) Overlaps(o Scope, spaces *spatial.Model) bool {
	if s.SpaceID != "" && o.SpaceID != "" && s.SpaceID != o.SpaceID {
		if spaces == nil {
			return false
		}
		in1, err1 := spaces.Contained(s.SpaceID, o.SpaceID)
		in2, err2 := spaces.Contained(o.SpaceID, s.SpaceID)
		if err1 != nil || err2 != nil || (!in1 && !in2) {
			return false
		}
	}
	if s.SensorType != 0 && o.SensorType != 0 && s.SensorType != o.SensorType {
		return false
	}
	if s.ObsKind != "" && o.ObsKind != "" && s.ObsKind != o.ObsKind {
		return false
	}
	if s.SensorType != 0 && o.ObsKind != "" && sensor.TypeForKind(o.ObsKind) != s.SensorType ||
		o.SensorType != 0 && s.ObsKind != "" && sensor.TypeForKind(s.ObsKind) != o.SensorType {
		return false
	}
	if len(s.Purposes) > 0 && len(o.Purposes) > 0 && !purposesIntersect(s.Purposes, o.Purposes) {
		return false
	}
	if s.ServiceID != "" && o.ServiceID != "" && s.ServiceID != o.ServiceID {
		return false
	}
	if len(s.SubjectIDs) > 0 && len(o.SubjectIDs) > 0 && !stringsIntersect(s.SubjectIDs, o.SubjectIDs) {
		return false
	}
	return s.Window.Intersects(o.Window)
}

func containsPurpose(list []Purpose, p Purpose) bool {
	for _, x := range list {
		if x == p {
			return true
		}
	}
	return false
}

func containsString(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func groupsIntersect(a []profile.Group, b []profile.Group) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

func purposesIntersect(a, b []Purpose) bool {
	for _, x := range a {
		if containsPurpose(b, x) {
			return true
		}
	}
	return false
}

func stringsIntersect(a, b []string) bool {
	for _, x := range a {
		if containsString(b, x) {
			return true
		}
	}
	return false
}
