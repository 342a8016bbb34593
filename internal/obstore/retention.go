package obstore

// Retention: one table, observation kind → TTL plus a default, and one
// predicate over it that every read applies (see the package comment).

import (
	"math"
	"time"

	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/sensor"
)

// RetentionRule binds a time-to-live to one observation kind; a rule
// with no kind sets the default TTL, which covers every kind no rule
// names. Of two rules on one kind the first installed wins.
type RetentionRule struct {
	Kind sensor.ObservationKind
	TTL  isodur.Duration
}

// retention is the installed table, replaced and never edited, so a
// Cutoffs can name the table it was evaluated from.
type retention struct {
	rules []RetentionRule // kind rules in installation order
	def   *isodur.Duration
}

// Cutoffs is the table evaluated at one instant: a row is expired iff
// its time is at or before its kind's cutoff. A nil *Cutoffs (no rule
// installed) expires nothing.
type Cutoffs struct {
	tab   *retention
	at    int64 // unix nanos
	kinds []kindCut
	// def is the cutoff of every kind no rule names (math.MinInt64
	// without a default); latest is the latest cutoff of any kind.
	def, latest int64
}

type kindCut struct {
	kind sensor.ObservationKind
	cut  int64
}

// evaluate subtracts each TTL from at in calendar arithmetic.
func (r *retention) evaluate(at time.Time) *Cutoffs {
	c := &Cutoffs{tab: r, at: at.UnixNano(), kinds: make([]kindCut, 0, len(r.rules)), def: math.MinInt64}
	cutoff := func(ttl isodur.Duration) int64 {
		ttl.Negative = !ttl.Negative
		return ttl.AddTo(at).UnixNano()
	}
	if r.def != nil {
		c.def = cutoff(*r.def)
	}
	c.latest = c.def
	for _, rule := range r.rules {
		if c.index(rule.Kind) < 0 {
			c.kinds = append(c.kinds, kindCut{rule.Kind, cutoff(rule.TTL)})
			c.latest = max(c.latest, c.kinds[len(c.kinds)-1].cut)
		}
	}
	return c
}

func (c *Cutoffs) index(kind sensor.ObservationKind) int {
	for i := range c.kinds {
		if c.kinds[i].kind == kind {
			return i
		}
	}
	return -1
}

// Of returns kind's cutoff in unix nanos: rows of the kind observed at
// or before it are expired.
func (c *Cutoffs) Of(kind sensor.ObservationKind) int64 {
	if c == nil {
		return math.MinInt64
	}
	if i := c.index(kind); i >= 0 {
		return c.kinds[i].cut
	}
	return c.def
}

// Expired reports whether retention has run out for o.
func (c *Cutoffs) Expired(o *sensor.Observation) bool {
	return c != nil && o.Time.UnixNano() <= c.Of(o.Kind)
}

// SetClock sets the clock reads evaluate retention by (time.Now until
// set): a node's own, never a requester's time. Set it before reads.
func (s *Store) SetClock(now func() time.Time) { s.clock = now }

// Cutoffs returns the table as reads evaluate it now: at the end of the
// clock's current minute, which expires a row up to a minute early,
// never late. Every read of that minute shares the result, so its
// identity versions what retention hides. Nil means no rule.
func (s *Store) Cutoffs() *Cutoffs {
	tab := s.ret.Load()
	if tab == nil {
		return nil
	}
	at := s.clock().Truncate(time.Minute).Add(time.Minute)
	if c := s.cuts.Load(); c != nil && c.tab == tab && c.at == at.UnixNano() {
		return c
	}
	c := tab.evaluate(at)
	s.cuts.Store(c)
	return c
}

// AddRetentionRule installs r; reads apply it at once.
func (s *Store) AddRetentionRule(r RetentionRule) {
	s.retMu.Lock()
	defer s.retMu.Unlock()
	next := &retention{}
	if cur := s.ret.Load(); cur != nil {
		*next = *cur
	}
	if r.Kind == "" {
		next.def = &r.TTL
	} else {
		next.rules = append(next.rules[:len(next.rules):len(next.rules)], r)
	}
	s.ret.Store(next)
}

// SetDefaultRetention installs the TTL of every kind no rule names.
func (s *Store) SetDefaultRetention(ttl isodur.Duration) { s.AddRetentionRule(RetentionRule{TTL: ttl}) }

// RetentionRules returns the installed kind rules.
func (s *Store) RetentionRules() []RetentionRule {
	if r := s.ret.Load(); r != nil {
		return append([]RetentionRule(nil), r.rules...)
	}
	return nil
}

// Sweep drops from the hot log every row expired at now and returns how
// many it dropped, freeing memory in a bare store: reads already skip
// them, and on a node compaction drops them (CompactOnce).
func (s *Store) Sweep(now time.Time) int {
	tab := s.ret.Load()
	if tab == nil {
		return 0
	}
	n, _, _ := s.rewrite(0, &doom{cut: tab.evaluate(now), kind: anyCode})
	if n > 0 {
		s.deletions.Add(1)
	}
	s.totalSwept.Add(uint64(n))
	return n
}
