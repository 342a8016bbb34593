// Package privacy implements the enforcement mechanisms the paper's
// §V.C enumerates for "how" policies and preferences are enforced on
// user data: accept/deny data access, degrade granularity, add noise,
// aggregate, and pseudonymize identifiers.
//
// Every mechanism transforms a *copy* of the observation; the stored
// ground truth is never mutated, so the same data can be released at
// different precisions to differently-privileged requesters.
package privacy

import (
	"cmp"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/spatial"
)

// KindForGranularity maps a release granularity to the spatial kind
// locations are coarsened to.
func KindForGranularity(g policy.Granularity) (spatial.Kind, bool) {
	switch g {
	case policy.GranBuilding:
		return spatial.KindBuilding, true
	case policy.GranFloor:
		return spatial.KindFloor, true
	case policy.GranRoom:
		return spatial.KindRoom, true
	default:
		return 0, false
	}
}

// CoarsenLocation rewrites the observation's location to at most the
// given granularity using the spatial model's hierarchy:
// room → floor → building. It reports whether the observation may be
// released at all (GranNone means no).
//
// Coarsening is monotone: coarsening to g1 then to g2 equals
// coarsening to min(g1, g2).
func CoarsenLocation(o sensor.Observation, g policy.Granularity, spaces *spatial.Model) (sensor.Observation, bool) {
	id, ok := CoarsenSpace(o.SpaceID, g, spaces)
	if !ok {
		return sensor.Observation{}, false
	}
	if g == policy.GranExact || !g.Valid() {
		return o, true
	}
	out := o.Clone()
	out.SpaceID = id
	return out, true
}

// CoarsenSpace is CoarsenLocation's rule on the space ID alone, for
// callers that release only (space, subject) pairs: it allocates
// nothing. ok=false means g releases no location at all.
func CoarsenSpace(spaceID string, g policy.Granularity, spaces *spatial.Model) (string, bool) {
	if g == policy.GranNone {
		return "", false
	}
	kind, ok := KindForGranularity(g)
	if !ok || spaceID == "" || spaces == nil {
		// Exact or invalid granularity, or nothing to coarsen against.
		return spaceID, true
	}
	sp, found := spaces.Lookup(spaceID)
	if !found {
		// Unknown location: releasing it as-is could leak more than g
		// permits, so suppress the field.
		return "", true
	}
	if anc := sp.AncestorOfKind(kind); anc != nil {
		return anc.ID, true
	}
	// No ancestor of the exact kind (e.g. a zone directly under a
	// building): fall back to the nearest coarser ancestor, or the
	// root. A location already at or coarser than g is kept.
	for sp.Parent() != nil && sp.Kind > kind {
		sp = sp.Parent()
	}
	return sp.ID, true
}

// Laplace draws one Laplace(0, scale) sample from rng.
func Laplace(rng *rand.Rand, scale float64) float64 {
	// Inverse-CDF sampling: u uniform in (-0.5, 0.5).
	u := rng.Float64() - 0.5
	return -scale * sign(u) * math.Log(1-2*math.Abs(u))
}

func sign(f float64) float64 {
	if f < 0 {
		return -1
	}
	return 1
}

// Noiser adds Laplace noise to numeric observation values under a
// per-release epsilon (the standard Laplace mechanism with the given
// query sensitivity). It is safe for concurrent use.
type Noiser struct {
	mu          sync.Mutex
	rng         *rand.Rand
	sensitivity float64
}

// NewNoiser returns a Noiser with the given query sensitivity. seed
// fixes the random stream, keeping experiments reproducible.
func NewNoiser(sensitivity float64, seed int64) *Noiser {
	if sensitivity <= 0 {
		sensitivity = 1
	}
	return &Noiser{rng: rand.New(rand.NewSource(seed)), sensitivity: sensitivity}
}

// Noise returns value + Laplace(sensitivity/epsilon) noise.
// Non-positive epsilons release nothing useful: the method returns
// pure noise around zero, which is the safe failure mode.
func (n *Noiser) Noise(value, epsilon float64) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if epsilon <= 0 {
		return Laplace(n.rng, n.sensitivity)
	}
	return value + Laplace(n.rng, n.sensitivity/epsilon)
}

// NoiseObservation returns a copy of o with its numeric value noised.
func (n *Noiser) NoiseObservation(o sensor.Observation, epsilon float64) sensor.Observation {
	out := o.Clone()
	out.Value = n.Noise(o.Value, epsilon)
	return out
}

// Pseudonymizer replaces device identifiers with stable keyed
// pseudonyms (HMAC-SHA256), the mechanism behind the WiFi-AP
// "hash_mac" setting. The same MAC always maps to the same pseudonym
// under one key, preserving utility for per-device analytics while
// breaking linkage to the hardware identifier.
type Pseudonymizer struct {
	key []byte
}

// NewPseudonymizer returns a Pseudonymizer with the given secret key.
func NewPseudonymizer(key []byte) *Pseudonymizer {
	k := make([]byte, len(key))
	copy(k, key)
	return &Pseudonymizer{key: k}
}

// Pseudonym returns the keyed pseudonym for an identifier, prefixed
// so pseudonyms are recognizable and never collide with real MACs.
func (p *Pseudonymizer) Pseudonym(id string) string {
	mac := hmac.New(sha256.New, p.key)
	mac.Write([]byte(id))
	return "pseud-" + hex.EncodeToString(mac.Sum(nil))[:16]
}

// PseudonymizeObservation returns a copy of o with its DeviceMAC
// replaced by a pseudonym (and the attributed user cleared, since the
// point is unlinkability).
func (p *Pseudonymizer) PseudonymizeObservation(o sensor.Observation) sensor.Observation {
	out := o.Clone()
	if out.DeviceMAC != "" {
		out.DeviceMAC = p.Pseudonym(out.DeviceMAC)
	}
	out.UserID = ""
	return out
}

// AggregateCount is one k-anonymous bucket: at least K distinct
// subjects contributed.
type AggregateCount struct {
	Key   string // grouping key, e.g. a space ID
	Count int    // distinct subjects observed
}

// KAnonymousCounts groups observations by key and returns per-group
// distinct-subject counts, suppressing groups with fewer than k
// subjects. keyOf extracts the grouping key (e.g. the observation's
// space); subjectOf extracts the subject identity (user ID or device
// MAC). It implements "only aggregated or anonymized" release from
// the paper's Peppet-derived requirements (§IV.B).
func KAnonymousCounts(obs []sensor.Observation, k int, keyOf, subjectOf func(sensor.Observation) string) []AggregateCount {
	groups := map[string]map[string]bool{}
	for _, o := range obs {
		subject := subjectOf(o)
		if subject == "" { // an unattributed row
			continue
		}
		key := keyOf(o)
		if groups[key] == nil {
			groups[key] = make(map[string]bool)
		}
		groups[key][subject] = true
	}
	out := make([]AggregateCount, 0, len(groups))
	for key, subjects := range groups {
		out = append(out, AggregateCount{Key: key, Count: len(subjects)})
	}
	return suppressBelowK(out, k)
}

// SuppressBelowK returns the keys holding at least k distinct subjects
// (k < 1 means 1) with their subject counts, sorted by key, for a
// caller that already holds each key's distinct-subject count.
func SuppressBelowK(counts map[string]int, k int) []AggregateCount {
	out := make([]AggregateCount, 0, len(counts))
	for key, n := range counts {
		out = append(out, AggregateCount{Key: key, Count: n})
	}
	return suppressBelowK(out, k)
}

func suppressBelowK(all []AggregateCount, k int) []AggregateCount {
	out := slices.DeleteFunc(all, func(c AggregateCount) bool { return c.Count < max(k, 1) })
	slices.SortFunc(out, func(a, b AggregateCount) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// Transformer bundles the mechanisms and applies a policy rule to an
// observation, producing the released view.
type Transformer struct {
	Spaces *spatial.Model
	Noiser *Noiser
	Pseud  *Pseudonymizer
}

// NewTransformer wires a transformer over the given spatial model,
// with a unit-sensitivity noiser and a keyed pseudonymizer.
func NewTransformer(spaces *spatial.Model, noiseSeed int64, pseudKey []byte) *Transformer {
	return &Transformer{
		Spaces: spaces,
		Noiser: NewNoiser(1, noiseSeed),
		Pseud:  NewPseudonymizer(pseudKey),
	}
}

// Apply enforces rule on the observation: Allow passes it through,
// Deny suppresses it, Limit degrades it (granularity clamp, then
// noise). released reports whether anything may be returned to the
// requester.
func (t *Transformer) Apply(rule policy.Rule, o sensor.Observation) (out sensor.Observation, released bool, err error) {
	switch rule.Action {
	case policy.ActionAllow:
		return o, true, nil
	case policy.ActionDeny:
		return sensor.Observation{}, false, nil
	case policy.ActionLimit:
		out = o
		if rule.MaxGranularity.Valid() {
			var ok bool
			out, ok = CoarsenLocation(out, rule.MaxGranularity, t.Spaces)
			if !ok {
				return sensor.Observation{}, false, nil
			}
		}
		if rule.NoiseEpsilon > 0 {
			out = t.Noiser.NoiseObservation(out, rule.NoiseEpsilon)
		}
		return out, true, nil
	default:
		return sensor.Observation{}, false, fmt.Errorf("privacy: invalid action %d", int(rule.Action))
	}
}
