// Package reasoner implements the paper's policy reasoner: "It is
// possible that user preferences conflict with the existing building
// policies (e.g., Policy 2 and Preference 2). These conflicts should
// be detected by the smart building management system (e.g., with the
// help of a policy reasoner) which is in charge of enforcing the
// policies by resolving these conflicts while informing users about
// it through the personal privacy assistant." (§III.B)
//
// The reasoner detects two conflict classes — building policy vs user
// preference, and preference vs preference — and resolves each the one
// way the enforcement engine does: a safety-critical override wins and
// the preference's owner is notified, and otherwise the preferences
// apply, combined most-restrictively. A policy-vs-preference conflict
// is recorded exactly when some request matches both rules as the
// engine matches them, so what the record and the inbox tell an
// occupant is what the engine enforces.
package reasoner

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/spatial"
	"github.com/tippers/tippers/internal/telemetry"
)

// ConflictKind classifies a detected conflict.
type ConflictKind int

// Conflict kinds.
const (
	// PolicyVsPreference: a building policy mandates a flow a user
	// preference restricts (Policy 2 vs Preference 2).
	PolicyVsPreference ConflictKind = iota + 1
	// PreferenceVsPreference: two rules from the same user overlap
	// with different outcomes (e.g. a learned rule contradicting an
	// explicit one).
	PreferenceVsPreference
)

// String returns a short kind name.
func (k ConflictKind) String() string {
	switch k {
	case PolicyVsPreference:
		return "policy-vs-preference"
	case PreferenceVsPreference:
		return "preference-vs-preference"
	default:
		return fmt.Sprintf("ConflictKind(%d)", int(k))
	}
}

// Resolution is the outcome of resolving one conflict.
type Resolution struct {
	// Winner is "building", "user", or "merged".
	Winner string
	// EffectiveRule is the rule enforcement applies to flows in the
	// conflicted scope intersection.
	EffectiveRule policy.Rule
	// OverrideApplied reports that a safety-critical building policy
	// was enforced over the user's preference; the user must be
	// notified (Figure 1 step 7 via the IoTA).
	OverrideApplied bool
	// NotifyUserID names the user whose IoTA should be informed, if
	// any.
	NotifyUserID string
	Explanation  string
}

// Conflict is one detected incompatibility, with its resolution.
type Conflict struct {
	Kind ConflictKind

	// PolicyVsPreference fields.
	PolicyID string

	// The user preference side (both kinds).
	PreferenceID string
	UserID       string

	// PreferenceVsPreference second rule.
	OtherPreferenceID string

	Resolution Resolution
}

// Reasoner detects and resolves conflicts. The zero value is not
// usable; construct with NewWithGroups.
type Reasoner struct {
	spaces *spatial.Model
	groups func(userID string) []profile.Group

	// Detection counters by conflict kind, exposed via RegisterMetrics.
	policyVsPref *telemetry.Counter
	prefVsPref   *telemetry.Counter
}

// NewWithGroups returns a reasoner over the given spatial model (nil is
// allowed: spatial scope comparison is then exact-ID) that looks up a
// preference owner's groups with groups, as the engine does for a
// request's subject. A nil groups puts nobody in any group.
func NewWithGroups(spaces *spatial.Model, groups func(userID string) []profile.Group) *Reasoner {
	if groups == nil {
		groups = func(string) []profile.Group { return nil }
	}
	return &Reasoner{
		spaces:       spaces,
		groups:       groups,
		policyVsPref: telemetry.NewCounter(),
		prefVsPref:   telemetry.NewCounter(),
	}
}

// RegisterMetrics exposes conflict-detection counters (by conflict
// kind) on a telemetry registry. Each counts conflicts as they are
// derived, by Detect and by the delta entry points alike.
func (r *Reasoner) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFuncWith("tippers_reasoner_conflicts_total",
		"Conflicts detected, by kind.",
		telemetry.Labels{"kind": PolicyVsPreference.String()},
		func() float64 { return float64(r.policyVsPref.Value()) })
	reg.CounterFuncWith("tippers_reasoner_conflicts_total",
		"Conflicts detected, by kind.",
		telemetry.Labels{"kind": PreferenceVsPreference.String()},
		func() float64 { return float64(r.prefVsPref.Value()) })
}

// Detect finds every conflict between the building's policies and the
// installed preferences, plus intra-user preference contradictions,
// resolving each. Results are sorted for deterministic output. It is
// the full pass over every rule — the reference the delta entry points
// (DetectPreference, DetectPolicy) are tested against; a running node
// maintains its conflicts through those.
func (r *Reasoner) Detect(policies []policy.BuildingPolicy, prefs []policy.Preference) []Conflict {
	var out []Conflict
	for _, bp := range policies {
		out = r.appendPolicyConflicts(out, bp, prefs)
	}
	byUser := make(map[string][]policy.Preference)
	for _, p := range prefs {
		byUser[p.UserID] = append(byUser[p.UserID], p)
	}
	users := make([]string, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		list := byUser[u]
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				out = r.appendPairConflict(out, list[i], list[j])
			}
		}
	}
	SortConflicts(out)
	return out
}

// DetectPreference is the delta entry point for one installed or
// replaced preference: its conflicts with the policies and with owned,
// the same user's installed preferences (an entry carrying pref's own
// ID is skipped, so the list may already hold it). A pair conflict
// names the lower preference ID first, as Detect does over ID-sorted
// input. Results are in Detect's order.
func (r *Reasoner) DetectPreference(pref policy.Preference, policies []policy.BuildingPolicy, owned []policy.Preference) []Conflict {
	var out []Conflict
	one := []policy.Preference{pref}
	for _, bp := range policies {
		out = r.appendPolicyConflicts(out, bp, one)
	}
	for _, o := range owned {
		switch {
		case o.ID < pref.ID:
			out = r.appendPairConflict(out, o, pref)
		case o.ID > pref.ID:
			out = r.appendPairConflict(out, pref, o)
		}
	}
	SortConflicts(out)
	return out
}

// DetectPolicy is the delta entry point for one newly registered
// policy: its conflicts with every installed preference, given grouped
// by owner. Results are in Detect's order.
func (r *Reasoner) DetectPolicy(bp policy.BuildingPolicy, byUser map[string][]policy.Preference) []Conflict {
	var out []Conflict
	for _, prefs := range byUser {
		out = r.appendPolicyConflicts(out, bp, prefs)
	}
	SortConflicts(out)
	return out
}

// SortConflicts orders conflicts as Detect returns them: by PolicyID,
// then PreferenceID, then OtherPreferenceID (so preference pairs, whose
// PolicyID is empty, come first).
func SortConflicts(cs []Conflict) {
	slices.SortFunc(cs, func(a, b Conflict) int {
		return cmp.Or(
			cmp.Compare(a.PolicyID, b.PolicyID),
			cmp.Compare(a.PreferenceID, b.PreferenceID),
			cmp.Compare(a.OtherPreferenceID, b.OtherPreferenceID),
		)
	})
}

// appendPolicyConflicts appends bp's conflicts with prefs, counting
// each.
func (r *Reasoner) appendPolicyConflicts(out []Conflict, bp policy.BuildingPolicy, prefs []policy.Preference) []Conflict {
	if !bp.GovernsDataFlows() {
		return out
	}
	for _, pref := range prefs {
		if c, ok := r.policyPreferenceConflict(bp, pref); ok {
			r.policyVsPref.Inc()
			out = append(out, c)
		}
	}
	return out
}

// appendPairConflict appends the conflict between two preferences of
// one user, if any, counting it.
func (r *Reasoner) appendPairConflict(out []Conflict, a, b policy.Preference) []Conflict {
	if c, ok := r.preferencePairConflict(a, b); ok {
		r.prefVsPref.Inc()
		out = append(out, c)
	}
	return out
}

// policyPreferenceConflict checks one policy/preference pair. They
// conflict when the preference restricts (denies or limits) flows that
// the engine can match both rules on: the policy's subject scope takes
// in the preference's owner and the two scopes overlap. The engine
// matches an override on a request's whole region, and a request about
// the whole building takes in every space, so space never keeps an
// override from a preference.
func (r *Reasoner) policyPreferenceConflict(bp policy.BuildingPolicy, pref policy.Preference) (Conflict, bool) {
	if pref.Rule.Action == policy.ActionAllow {
		return Conflict{}, false
	}
	sc := bp.Scope
	if bp.Override {
		sc.SpaceID = ""
	}
	if !sc.CoversSubject(pref.UserID, r.groups(pref.UserID)) || !sc.Overlaps(pref.Scope, r.spaces) {
		return Conflict{}, false
	}
	c := Conflict{
		Kind:         PolicyVsPreference,
		PolicyID:     bp.ID,
		PreferenceID: pref.ID,
		UserID:       pref.UserID,
	}
	if bp.Override {
		c.Resolution = Resolution{
			Winner:          "building",
			EffectiveRule:   policy.Rule{Action: policy.ActionAllow},
			OverrideApplied: true,
			NotifyUserID:    pref.UserID,
			Explanation: fmt.Sprintf("building policy %s is safety-critical and overrides preference %s; user %s is notified",
				bp.ID, pref.ID, pref.UserID),
		}
	} else {
		c.Resolution = Resolution{
			Winner:        "user",
			EffectiveRule: pref.Rule,
			Explanation: fmt.Sprintf("preference %s restricts policy %s and the policy is not safety-critical",
				pref.ID, bp.ID),
		}
	}
	return c, true
}

// preferencePairConflict checks two same-user preferences for
// contradiction: overlapping scopes with rules where one permits
// strictly more than the other.
func (r *Reasoner) preferencePairConflict(a, b policy.Preference) (Conflict, bool) {
	if !a.Scope.Overlaps(b.Scope, r.spaces) {
		return Conflict{}, false
	}
	if a.Rule == b.Rule {
		return Conflict{}, false
	}
	// Identical actions with identical parameters were handled above;
	// anything else on an overlapping scope is ambiguous for the
	// enforcement engine and gets merged.
	merged := CombineRules(a.Rule, b.Rule)
	c := Conflict{
		Kind:              PreferenceVsPreference,
		PreferenceID:      a.ID,
		OtherPreferenceID: b.ID,
		UserID:            a.UserID,
		Resolution: Resolution{
			Winner:        "merged",
			EffectiveRule: merged,
			Explanation: fmt.Sprintf("preferences %s and %s overlap; enforcing the most restrictive combination",
				a.ID, b.ID),
		},
	}
	return c, true
}

// CombineRules merges rules most-restrictively: any deny wins; any
// limit beats allow; limits combine by taking the coarsest
// granularity cap, the smallest positive epsilon, and the largest
// aggregation floor. The enforcement engine uses it to collapse every
// preference matching a request into one effective rule.
func CombineRules(rules ...policy.Rule) policy.Rule {
	if len(rules) == 0 {
		return policy.Rule{Action: policy.ActionAllow}
	}
	out := policy.Rule{Action: policy.ActionAllow}
	for _, r := range rules {
		switch r.Action {
		case policy.ActionDeny:
			return policy.Rule{Action: policy.ActionDeny}
		case policy.ActionLimit:
			if out.Action != policy.ActionLimit {
				out = policy.Rule{Action: policy.ActionLimit, MaxGranularity: r.MaxGranularity, NoiseEpsilon: r.NoiseEpsilon, MinAggregationK: r.MinAggregationK}
				continue
			}
			if r.MaxGranularity.Valid() {
				if !out.MaxGranularity.Valid() {
					out.MaxGranularity = r.MaxGranularity
				} else {
					out.MaxGranularity = out.MaxGranularity.Min(r.MaxGranularity)
				}
			}
			if r.NoiseEpsilon > 0 && (out.NoiseEpsilon == 0 || r.NoiseEpsilon < out.NoiseEpsilon) {
				out.NoiseEpsilon = r.NoiseEpsilon
			}
			if r.MinAggregationK > out.MinAggregationK {
				out.MinAggregationK = r.MinAggregationK
			}
		}
	}
	return out
}
