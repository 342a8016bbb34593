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
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"

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
	if g == policy.GranNone {
		return sensor.Observation{}, false
	}
	if g == policy.GranExact || !g.Valid() {
		return o, true
	}
	out := o.Clone()
	kind, ok := KindForGranularity(g)
	if !ok || o.SpaceID == "" || spaces == nil {
		return out, true // nothing to coarsen against
	}
	sp, found := spaces.Lookup(o.SpaceID)
	if !found {
		// Unknown location: releasing it as-is could leak more than g
		// permits, so suppress the field.
		out.SpaceID = ""
		return out, true
	}
	if anc := sp.AncestorOfKind(kind); anc != nil {
		out.SpaceID = anc.ID
		return out, true
	}
	// No ancestor of the exact kind (e.g. a zone directly under a
	// building): fall back to the nearest coarser ancestor, or the
	// root. A location already at or coarser than g is kept.
	for sp.Parent() != nil && sp.Kind > kind {
		sp = sp.Parent()
	}
	out.SpaceID = sp.ID
	return out, true
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

// Transformer bundles the data-path mechanisms: coarsening over the
// spatial model and keyed Laplace noise.
type Transformer struct {
	Spaces   *spatial.Model
	noiseKey []byte
}

// NewTransformer wires a transformer over the given spatial model whose
// noise is keyed by HMAC(key, "tippers/noise"). The seed is read by
// nothing: noise is keyed. bench/replay.go still passes one, and the
// parameter goes when that file does.
func NewTransformer(spaces *spatial.Model, _ int64, key []byte) *Transformer {
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte("tippers/noise"))
	return &Transformer{Spaces: spaces, noiseKey: mac.Sum(nil)}
}

// Noise returns o's value plus Laplace(1/epsilon) noise (the Laplace
// mechanism at sensitivity 1). The sample is a pure function of the
// transformer's key, the row (seq, sensor, capture instant) and
// epsilon, so every read path, every repeat and every restart under
// the same key releases one row at one epsilon alike: averaging
// repeated asks learns nothing. Epsilon is in the key because two
// releases of one draw at different epsilons would solve for the
// value. A non-positive epsilon releases pure noise around zero, the
// safe failure mode.
func (t *Transformer) Noise(o sensor.Observation, epsilon float64) float64 {
	var head [24]byte
	binary.BigEndian.PutUint64(head[0:], o.Seq)
	binary.BigEndian.PutUint64(head[8:], uint64(o.Time.UnixNano()))
	binary.BigEndian.PutUint64(head[16:], math.Float64bits(epsilon))
	mac := hmac.New(sha256.New, t.noiseKey)
	mac.Write(head[:])
	mac.Write([]byte(o.SensorID))
	code := binary.BigEndian.Uint64(mac.Sum(nil))
	if epsilon <= 0 {
		return laplace(code, 1)
	}
	return o.Value + laplace(code, epsilon)
}

// laplace maps a uniform 64-bit code to a Laplace(0, 1/epsilon) sample:
// the top bit is the sign, and the low 52 bits x give the magnitude by
// the inverse CDF, -ln((x+0.5)/2^52)/epsilon. (x+0.5)/2^52 lies in
// (0, 1) exactly at every code, so the sample is finite and at most
// ln(2^53)/epsilon < 37/epsilon in magnitude.
func laplace(code uint64, epsilon float64) float64 {
	x := code & (1<<52 - 1)
	mag := -math.Log((float64(x)+0.5)/(1<<52)) / epsilon
	if code>>63 == 1 {
		return -mag
	}
	return mag
}
