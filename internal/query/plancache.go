package query

import (
	"sync"
	"time"
)

// planCacheMax bounds a PlanCache. Services send a few statement
// shapes from code, so a full cache means shapes are being made up;
// it is emptied and fills again with the shapes still sent.
const planCacheMax = 256

// A statement is cached only if its shape fits in maxShape bytes and
// it has at most maxLits literals: the shapes services send do, and
// they are lexed on the stack. A longer statement is compiled afresh
// after a lex that stops at the bound, so the cache also bounds what
// its entries hold.
const (
	maxShape = 256
	maxLits  = 16
)

// PlanCache compiles a statement's shape once. The shape is the
// statement's token stream, lowercased, with each literal — a string,
// a number, TRUE or FALSE — lifted out into a parameter vector and
// replaced by a placeholder of its kind. A shape maps to the template
// its first successful compile made, which holds no literal, no
// requester and no verdict, and every later statement of that shape is
// bound to it: its parameters are coerced, pushed down and checked, and
// its requester admitted, by the same bind Compile runs. A statement
// that does not lex, whose shape is new, or whose binding fails in any
// way is parsed and compiled afresh, so it fails exactly as Parse and
// Compile would fail it. The zero PlanCache is empty and ready; it is
// safe for concurrent use.
type PlanCache struct {
	mu     sync.Mutex
	shapes map[string]*template
}

// Compile returns sql's plan as requester over env. cached reports
// that the plan was bound to a cached template; parsed is when the
// statement's shape was known — lexed and looked up, or parsed on a
// miss — which splits a caller's parse and plan stages.
func (c *PlanCache) Compile(sql string, env Env, req Requester) (plan *Plan, cached bool, parsed time.Time, err error) {
	var shapeBuf [maxShape]byte
	var litBuf [maxLits]Literal
	shape, lits, ok := shapeOf(sql, shapeBuf[:0], litBuf[:0])
	var t *template
	if ok {
		c.mu.Lock()
		t = c.shapes[string(shape)]
		c.mu.Unlock()
	}
	if t != nil {
		parsed = time.Now()
		if plan := t.bindShape(lits, env, req); plan != nil {
			return plan, true, parsed, nil
		}
	}
	stmt, err := Parse(sql)
	parsed = time.Now()
	if err != nil {
		return nil, false, parsed, err
	}
	plan, t, tlits, err := compile(stmt, env, req)
	if err != nil {
		return nil, false, parsed, err
	}
	if ok && aligned(tlits, lits, t.hasLimit) {
		c.put(string(shape), t)
	}
	return plan, false, parsed, nil
}

// bindShape binds t to lits, the literals of a statement of t's shape
// in the order they are written, or returns nil when any of them does
// not bind: the caller then compiles the statement afresh for its
// error.
func (t *template) bindShape(lits []Literal, env Env, req Requester) *Plan {
	limit := -1
	if t.hasLimit {
		n, ok := limitValue(lits[len(lits)-1].Text)
		if !ok {
			return nil
		}
		limit, lits = n, lits[:len(lits)-1]
	}
	p, err := t.bind(lits, limit, env, req)
	if err != nil {
		return nil
	}
	return p
}

// aligned reports whether a template's slots, filled by the compiler
// with tlits, take a statement's literals as the lexer lists them,
// LIMIT's last. Both list them in the order they are written; a shape
// for which that ever failed would stay uncached.
func aligned(tlits, lits []Literal, hasLimit bool) bool {
	n := len(tlits)
	if hasLimit {
		n++
	}
	if len(lits) != n {
		return false
	}
	for i, lit := range tlits {
		if lit.Line != lits[i].Line || lit.Col != lits[i].Col {
			return false
		}
	}
	return true
}

func (c *PlanCache) put(shape string, t *template) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shapes == nil || len(c.shapes) >= planCacheMax {
		c.shapes = make(map[string]*template)
	}
	c.shapes[shape] = t
}

// shapeOf appends sql's shape to shape and its literals, in the order
// they are written, to lits, filling neither beyond its capacity. ok is
// false when sql does not lex or its shape or literals do not fit.
// Each token is followed by a space, which no token holds; a
// placeholder is '?', which no token holds either, and the literal's
// kind.
func shapeOf(sql string, shape []byte, lits []Literal) (_ []byte, _ []Literal, ok bool) {
	l := newLexer(sql)
	for {
		t, err := l.next()
		if err != nil {
			return shape, lits, false
		}
		if t.kind == tokEOF {
			return shape, lits, true
		}
		lit, isLit := literalOf(t)
		n := len(t.text)
		if isLit {
			n = 2
		}
		if len(shape)+n+1 > cap(shape) || isLit && len(lits) == cap(lits) {
			return shape, lits, false
		}
		if isLit {
			lits = append(lits, lit)
			shape = append(shape, '?', byte('0'+lit.Kind))
		} else {
			shape = append(shape, t.text...)
		}
		shape = append(shape, ' ')
	}
}
