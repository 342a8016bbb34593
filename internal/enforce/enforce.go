// Package enforce implements query-time enforcement: deciding, for
// each data request a service submits, what the requester may see
// about each subject, given the building's policies and the subjects'
// preferences.
//
// The paper's §V.C observes that "with large number of users,
// services, policies, and preferences the cost of enforcement can be
// large enough to be prohibitive in any real setting" and that the
// authors are "working on techniques for optimizing enforcement so
// that the overhead of privacy compliance is minimized." This package
// provides both ends of that experiment:
//
//   - Naive: scans every installed preference and policy per request
//     (the "unoptimized enforcement" reference arm).
//   - Compiled: compiles every rule at registration time into an
//     indexed decision structure (internal/enforce/compiled) —
//     candidates pre-bucketed by subject, observation kind, service,
//     and purpose, candidate sets intersected as bitsets over a dense
//     rule-ID space, scope conditions flattened into small instruction
//     programs — plus a built-in epoch-invalidated decision memo.
//     Decision cost stays flat from 10 to 1,000,000 registered
//     preferences (BenchmarkCompiledDecide gates this in CI).
//
// Both engines implement Engine and must produce identical decisions;
// TestCompiledMatchesNaive and FuzzCompilePolicy property-check that
// equivalence. They share the decision pipeline below (prepare +
// finish) by construction and differ only in candidate selection.
package enforce

import (
	"fmt"
	"sort"
	"time"

	"github.com/tippers/tippers/internal/enforce/compiled"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/reasoner"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/service"
	"github.com/tippers/tippers/internal/spatial"
)

// Request is one data request arriving at the request manager
// (Figure 1 step 9): a service asks for observations of some kind
// about a subject, for a declared purpose, at a requested precision.
type Request struct {
	ServiceID string
	Purpose   policy.Purpose
	Kind      sensor.ObservationKind
	// SubjectID is whose data is requested; multi-subject queries are
	// decided subject by subject.
	SubjectID string
	// SpaceID optionally scopes the query spatially.
	SpaceID string
	// Granularity is the precision the service asks for; zero means
	// exact.
	Granularity policy.Granularity
	// Time is the instant the decision is about, at which time-windowed
	// rules are evaluated; zero means time.Now(). A read of stored rows
	// judges each row at its capture time, deciding once per window
	// class (Domain.Class) of those times; the decision at the
	// request's own instant is the one its response reports.
	Time time.Time
	// From and To bound the observation window fetched by the data
	// path. They do not affect the decision itself.
	From, To time.Time
	// AfterSeq and Limit page the data path: only observations with
	// store sequence > AfterSeq are fetched, at most Limit of them
	// (0 = no cap). Like From/To they do not affect the decision; a
	// pageable response repeats the same decision per page.
	AfterSeq uint64
	Limit    int
}

// Notification is one entry of a user's inbox, which their IoTA
// drains: a building policy overrode, or conflicts with, one of their
// preferences, per the paper's resolution of Policy 2 vs Preference 2.
// The inbox keeps one entry per (PolicyID, PreferenceID): Count is how
// often the key fired since the last drain, First and Last when (on
// the node's clock), and Message is composed when the key entered.
type Notification struct {
	UserID       string
	PolicyID     string
	PreferenceID string
	Message      string
	Count        int
	First, Last  time.Time
}

// Decision is the outcome of deciding one (request, subject) pair. It
// is read-only once returned: the compiled engine's memo hands every
// entry that decided alike — different subjects' included — the same
// slices, so a caller that wants to change one copies it first.
type Decision struct {
	// Allowed reports whether any data may flow.
	Allowed bool
	// Effective is the rule the data path must apply (granularity
	// clamp, noise, aggregation floor). Meaningful only when Allowed.
	Effective policy.Rule
	// Granularity is the final release precision: the minimum of the
	// requested precision, the service's declared need, and every
	// matching preference's cap.
	Granularity policy.Granularity
	// MatchedPreferences lists the preference IDs that matched.
	MatchedPreferences []string
	// MatchedDefaults lists the group defaults that decided the flow
	// (only set when no personal preference matched).
	MatchedDefaults []string
	// Overridden lists preference IDs a safety-critical policy
	// overrode.
	Overridden []string
	// OverridePolicyID names the safety-critical policy that forced
	// release, when one did. Decision traces surface it as the
	// matched policy.
	OverridePolicyID string
	// FromCache reports that this decision was replayed from the
	// engine's decision memo; the per-request trace exposes it.
	FromCache bool
	// DenyReason explains a denial.
	DenyReason string
	// PoliciesConsulted and PreferencesConsulted count rule
	// evaluations, the cost metric for experiments E1/E2.
	PoliciesConsulted    int
	PreferencesConsulted int
}

// Engine decides requests against installed policies and preferences.
// Implementations are safe for full concurrent use: Decide calls may
// race with installation and removal, and a mutation that has
// returned is visible to every subsequent Decide
// (TestEngineRecompileUnderChurn in internal/core races all of this
// under the race detector).
type Engine interface {
	// AddPolicy installs a building policy.
	AddPolicy(p policy.BuildingPolicy) error
	// AddPreference installs a user preference.
	AddPreference(p policy.Preference) error
	// RemovePreference uninstalls by ID, reporting whether it existed.
	RemovePreference(id string) bool
	// Decide evaluates one (request, subject) pair. subjectGroups are
	// the subject's profile groups (for group-scoped rules).
	Decide(req Request, subjectGroups []profile.Group) Decision
	// Counts returns installed (policies, preferences).
	Counts() (int, int)
	// Domain returns the subject's class domain under the current
	// rules: the windows Decide can read about them.
	Domain(subjectID string) Domain
	// Epoch counts the rule mutations applied so far. It moves in the
	// same critical section as the rule change, so an answer derived
	// from decisions is current iff the epoch read before deciding
	// still stands — the one invalidation signal every decision-derived
	// cache keys on.
	Epoch() uint64
}

// Config carries the collaborators both engines share.
type Config struct {
	// Spaces resolves spatial containment; nil restricts spatial
	// matching to exact IDs.
	Spaces *spatial.Model
	// Services enforces purpose binding; nil disables the check
	// (requests from unregistered services are then allowed through
	// to preference evaluation).
	Services *service.Registry
	// DefaultAllow is the decision when no preference matches. The
	// paper's buildings advertise policies and let users opt out, so
	// the default is allow; privacy-by-default deployments set false.
	DefaultAllow bool
	// GroupDefaults are building-configured per-group default rules,
	// consulted only when the subject has no matching personal
	// preference (see GroupDefault). Fixed at engine construction.
	GroupDefaults []GroupDefault
}

// evaluator holds the shared decision logic; engines differ only in
// candidate selection.
type evaluator struct {
	cfg Config
}

// prepared carries the per-request state the decision pipeline
// derives before candidate matching: the match context plus the
// granularity bounds purpose binding established. Engines share it so
// their decisions agree by construction.
type prepared struct {
	ctx          policy.Context
	reqGran      policy.Granularity
	declaredGran policy.Granularity
}

// prepare runs purpose binding and builds the match context. A false
// result means the request is denied outright; d carries the reason
// (its consulted counts, set by the caller, survive either way).
func (e *evaluator) prepare(req Request, subjectGroups []profile.Group, d *Decision) (prepared, bool) {
	p := prepared{reqGran: req.Granularity, declaredGran: policy.GranExact}
	if !p.reqGran.Valid() {
		p.reqGran = policy.GranExact
	}

	// Purpose binding: the service must have declared (kind, purpose).
	if e.cfg.Services != nil && req.ServiceID != "" {
		svc, ok := e.cfg.Services.Get(req.ServiceID)
		if !ok {
			d.DenyReason = fmt.Sprintf("unknown service %q", req.ServiceID)
			return p, false
		}
		g, ok := svc.Permits(req.Kind, req.Purpose)
		if !ok {
			d.DenyReason = fmt.Sprintf("service %q did not declare %s for %s", req.ServiceID, req.Kind, req.Purpose)
			return p, false
		}
		p.declaredGran = g
	}

	p.ctx = policy.Context{
		SubjectID:     req.SubjectID,
		SubjectGroups: subjectGroups,
		SpaceID:       req.SpaceID,
		SensorType:    sensor.TypeForKind(req.Kind),
		ObsKind:       req.Kind,
		Purpose:       req.Purpose,
		ServiceID:     req.ServiceID,
		Time:          instant(req.Time),
	}
	return p, true
}

// finish runs the combination pipeline every engine shares over the
// subject's matched preferences, which must be sorted by ID so
// decisions are deterministic regardless of candidate order. override
// is consulted lazily — only when the combined user rule restricts
// the flow — and must return the lowest-ID matching override policy,
// or nil.
func (e *evaluator) finish(p prepared, d Decision, matched []compiled.Matched, override func() *policy.BuildingPolicy) Decision {
	userRule := policy.Rule{Action: policy.ActionAllow}
	switch {
	case len(matched) > 0:
		// Stack-sized rule buffer: CombineRules does not retain its
		// argument, so the common few-preference case allocates only
		// the caller-visible MatchedPreferences slice.
		var rulesBuf [8]policy.Rule
		rules := rulesBuf[:0]
		d.MatchedPreferences = make([]string, 0, len(matched))
		for _, pref := range matched {
			rules = append(rules, pref.Rule)
			d.MatchedPreferences = append(d.MatchedPreferences, pref.ID)
		}
		userRule = reasoner.CombineRules(rules...)
	default:
		// No personal preference: consult the subject's group
		// defaults, then the building-wide default.
		defRules, defIDs := e.matchDefaults(p.ctx, p.ctx.SubjectGroups)
		if len(defRules) > 0 {
			userRule = reasoner.CombineRules(defRules...)
			d.MatchedDefaults = defIDs
		} else if !e.cfg.DefaultAllow {
			d.DenyReason = "no preference permits this flow (default-deny)"
			return d
		}
	}

	// If the user restricts the flow, a matching safety-critical
	// override policy forces release. The node notifies the subject of
	// each preference named in Overridden.
	if userRule.Action != policy.ActionAllow {
		if winner := override(); winner != nil {
			d.OverridePolicyID = winner.ID
			d.Allowed = true
			d.Effective = policy.Rule{Action: policy.ActionAllow}
			d.Granularity = p.reqGran.Min(p.declaredGran)
			for _, pref := range matched {
				if pref.Rule.Action != policy.ActionAllow {
					d.Overridden = append(d.Overridden, pref.ID)
				}
			}
			return d
		}
	}

	switch userRule.Action {
	case policy.ActionDeny:
		d.DenyReason = "denied by user preference"
		return d
	case policy.ActionLimit:
		if userRule.MaxGranularity == policy.GranNone {
			d.DenyReason = "user preference releases no location"
			return d
		}
		d.Allowed = true
		d.Effective = userRule
		g := p.reqGran.Min(p.declaredGran)
		if userRule.MaxGranularity.Valid() {
			g = g.Min(userRule.MaxGranularity)
		}
		d.Granularity = g
		return d
	default:
		d.Allowed = true
		d.Effective = policy.Rule{Action: policy.ActionAllow}
		d.Granularity = p.reqGran.Min(p.declaredGran)
		return d
	}
}

// decide runs the shared decision pipeline over the candidate rules
// the engine selected by scanning them. candPolicies/candPrefs are
// the rules the engine considers possibly-matching; consulted counts
// reflect their sizes.
func (e *evaluator) decide(req Request, subjectGroups []profile.Group, candPolicies []policy.BuildingPolicy, candPrefs []policy.Preference) Decision {
	d := Decision{
		PoliciesConsulted:    len(candPolicies),
		PreferencesConsulted: len(candPrefs),
	}
	p, ok := e.prepare(req, subjectGroups, &d)
	if !ok {
		return d
	}

	var matched []compiled.Matched
	for _, pref := range candPrefs {
		if pref.UserID != req.SubjectID {
			continue
		}
		if !pref.Scope.MatchesRequest(p.ctx, e.cfg.Spaces) {
			continue
		}
		matched = append(matched, compiled.Matched{ID: pref.ID, UserID: pref.UserID, Rule: pref.Rule})
	}
	sort.Slice(matched, func(i, j int) bool { return matched[i].ID < matched[j].ID })

	return e.finish(p, d, matched, func() *policy.BuildingPolicy {
		// The lowest policy ID wins ties so decisions are
		// engine-order independent.
		var winner *policy.BuildingPolicy
		for i := range candPolicies {
			bp := &candPolicies[i]
			if !bp.Override || !bp.GovernsDataFlows() {
				continue
			}
			if !bp.Scope.MatchesRequest(p.ctx, e.cfg.Spaces) {
				continue
			}
			if winner == nil || bp.ID < winner.ID {
				winner = bp
			}
		}
		return winner
	})
}
