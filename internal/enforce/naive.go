package enforce

import (
	"sync"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
)

// Naive is the baseline engine: every Decide scans every installed
// policy and every installed preference. It is the "unoptimized
// enforcement" arm of experiment E2 — correct, simple, and linear in
// the total rule count.
type Naive struct {
	eval evaluator

	mu       sync.RWMutex
	policies []policy.BuildingPolicy
	prefs    []policy.Preference
	prefIdx  map[string]int // preference ID -> slice position
	epoch    uint64         // rule mutations applied (Engine.Epoch)
}

var _ Engine = (*Naive)(nil)

// NewNaive returns an empty naive engine.
func NewNaive(cfg Config) *Naive {
	return &Naive{
		eval:    evaluator{cfg: cfg},
		prefIdx: make(map[string]int),
	}
}

// AddPolicy implements Engine.
func (n *Naive) AddPolicy(p policy.BuildingPolicy) error {
	if err := p.Check(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.policies = append(n.policies, p)
	n.epoch++
	return nil
}

// AddPreference implements Engine.
func (n *Naive) AddPreference(p policy.Preference) error {
	if err := p.Check(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.epoch++
	if i, ok := n.prefIdx[p.ID]; ok {
		n.prefs[i] = p // replace in place
		return nil
	}
	n.prefIdx[p.ID] = len(n.prefs)
	n.prefs = append(n.prefs, p)
	return nil
}

// RemovePreference implements Engine.
func (n *Naive) RemovePreference(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	i, ok := n.prefIdx[id]
	if !ok {
		return false
	}
	last := len(n.prefs) - 1
	n.prefs[i] = n.prefs[last]
	n.prefIdx[n.prefs[i].ID] = i
	n.prefs = n.prefs[:last]
	delete(n.prefIdx, id)
	n.epoch++
	return true
}

// Decide implements Engine by scanning everything.
func (n *Naive) Decide(req Request, subjectGroups []profile.Group) Decision {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.eval.decide(req, subjectGroups, n.policies, n.prefs)
}

// Counts implements Engine.
func (n *Naive) Counts() (int, int) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.policies), len(n.prefs)
}

// String identifies the engine in experiment output.
func (n *Naive) String() string { return "naive" }

// Epoch implements Engine.
func (n *Naive) Epoch() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.epoch
}
