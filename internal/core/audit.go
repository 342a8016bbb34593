package core

import (
	"fmt"
	"sort"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

// This file implements the privacy audit: a per-user transparency
// report answering "which services can currently learn what about
// me, and why?" The paper's assistants exist to make data practices
// legible (§I: users should "discover technologies in their
// surroundings and the privacy ramification of interacting with these
// technologies"); the audit is the enforcement-side complement — not
// what the building *says* it does, but what its decision engine
// would actually release right now.

// AuditEntry is one (service, kind, purpose) probe outcome.
type AuditEntry struct {
	ServiceID   string                 `json:"service_id"`
	Kind        sensor.ObservationKind `json:"kind"`
	Purpose     policy.Purpose         `json:"purpose"`
	Allowed     bool                   `json:"allowed"`
	Granularity policy.Granularity     `json:"granularity,omitempty"`
	// StoredObservations is how much matching data about the subject
	// currently sits in the store (what a grant is worth today).
	StoredObservations int `json:"stored_observations"`
	// Why summarizes the deciding factor: matched preferences, an
	// override, or the default.
	Why string `json:"why"`
}

// Audit is one user's transparency report.
type Audit struct {
	UserID      string       `json:"user_id"`
	GeneratedAt time.Time    `json:"generated_at"`
	Entries     []AuditEntry `json:"entries"`
	// Preferences counts the user's installed rules.
	Preferences int `json:"preferences"`
	// OverridePolicies lists safety-critical policies that can
	// override this user's choices: the override policies that govern
	// data flows.
	OverridePolicies []string `json:"override_policies,omitempty"`
	// RecentTraces are the latest retained decision traces naming
	// this user as subject: the enforcement decisions that actually
	// ran (with matched rules and stage timings), complementing the
	// what-if probes above.
	RecentTraces []DecisionTrace `json:"recent_traces,omitempty"`
}

// AuditUser probes the decision engine for every registered service's
// declared (kind, purpose) pairs against the subject, at the given
// evaluation time. Probes are dry runs: they do not count toward
// request statistics and deliver no notifications.
func (b *BMS) AuditUser(userID string, now time.Time) (Audit, error) {
	u, ok := b.cfg.Users.Lookup(userID)
	if !ok {
		return Audit{}, fmt.Errorf("core: unknown user %q", userID)
	}
	if now.IsZero() {
		now = b.clock()
	}
	report := Audit{
		UserID:       userID,
		GeneratedAt:  now,
		Preferences:  len(b.Preferences(userID)),
		RecentTraces: b.TracesForSubject(userID, 20),
	}
	for _, p := range b.Policies() {
		if p.Override && p.GovernsDataFlows() {
			report.OverridePolicies = append(report.OverridePolicies, p.ID)
		}
	}
	sort.Strings(report.OverridePolicies)

	for _, svc := range b.services.All() {
		seen := map[string]bool{}
		for _, decl := range svc.Declares {
			probeKey := string(decl.ObsKind) + "|" + string(decl.Purpose)
			if seen[probeKey] {
				continue
			}
			seen[probeKey] = true
			req := enforce.Request{
				ServiceID:   svc.ID,
				Purpose:     decl.Purpose,
				Kind:        decl.ObsKind,
				SubjectID:   userID,
				Granularity: decl.Granularity,
				Time:        now,
			}
			d := b.engine.Decide(req, u.Groups())
			entry := AuditEntry{
				ServiceID:          svc.ID,
				Kind:               decl.ObsKind,
				Purpose:            decl.Purpose,
				Allowed:            d.Allowed,
				StoredObservations: b.store.Count(b.filterFor(req)),
			}
			switch {
			case len(d.Overridden) > 0:
				entry.Why = fmt.Sprintf("building override beats %d preference(s)", len(d.Overridden))
			case !d.Allowed:
				entry.Why = d.DenyReason
			case len(d.MatchedPreferences) > 0:
				entry.Why = fmt.Sprintf("permitted by %d matching preference(s)", len(d.MatchedPreferences))
			default:
				entry.Why = "no preference set; building default applies"
			}
			if d.Allowed {
				entry.Granularity = d.Granularity
			}
			report.Entries = append(report.Entries, entry)
		}
	}
	sort.Slice(report.Entries, func(i, j int) bool {
		a, c := report.Entries[i], report.Entries[j]
		if a.ServiceID != c.ServiceID {
			return a.ServiceID < c.ServiceID
		}
		if a.Kind != c.Kind {
			return a.Kind < c.Kind
		}
		return a.Purpose < c.Purpose
	})
	return report, nil
}
