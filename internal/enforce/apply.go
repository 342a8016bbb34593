package enforce

import (
	"fmt"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/sensor"
)

// ApplyDecision runs the data path for an allowed decision:
// granularity clamping and noise on each observation. It returns nil
// (not an error) for a denied decision — callers use Decision.Allowed
// to distinguish "no data" from "empty data".
//
// Aggregation floors (MinAggregationK) are inherently cross-subject
// and are applied by the request manager over the union of released
// observations, not here.
func ApplyDecision(d Decision, obs []sensor.Observation, tr *privacy.Transformer) ([]sensor.Observation, error) {
	if !d.Allowed {
		return nil, nil
	}
	if tr == nil {
		return nil, fmt.Errorf("enforce: nil transformer")
	}
	out := make([]sensor.Observation, 0, len(obs))
	for _, o := range obs {
		coarse, ok, err := ApplyDecisionOne(d, o, tr)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		out = append(out, coarse)
	}
	return out, nil
}

// ApplyDecisionOne is the single-observation data path: granularity
// clamp, then noise. ok=false means the observation is suppressed —
// either the decision denies the flow or coarsening erased the
// location entirely. Row-at-a-time callers (the query executor's
// enforced scan) use this so a row is transformed the moment it is
// decided, without batching per subject.
func ApplyDecisionOne(d Decision, o sensor.Observation, tr *privacy.Transformer) (sensor.Observation, bool, error) {
	if !d.Allowed {
		return sensor.Observation{}, false, nil
	}
	if tr == nil {
		return sensor.Observation{}, false, fmt.Errorf("enforce: nil transformer")
	}
	g := d.Granularity
	if !g.Valid() {
		g = policy.GranExact
	}
	coarse, ok := privacy.CoarsenLocation(o, g, tr.Spaces)
	if !ok {
		return sensor.Observation{}, false, nil
	}
	if eps := d.Effective.NoiseEpsilon; eps > 0 {
		coarse.Value = tr.Noise(o, eps) // coarse is a copy: the stored row keeps its value
	}
	return coarse, true, nil
}
