package query

import (
	"fmt"
	"strings"
)

// AggKind identifies an aggregate function in a select list.
type AggKind int

// Aggregate kinds; AggNone marks a plain column reference.
const (
	AggNone AggKind = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (a AggKind) String() string {
	switch a {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return ""
	}
}

// SelectExpr is one select-list item: a column or an aggregate call.
type SelectExpr struct {
	Col      string  // column name; empty for COUNT(*)
	Agg      AggKind // AggNone for a plain column
	Distinct bool    // COUNT(DISTINCT col)
	Star     bool    // COUNT(*)
	Alias    string  // AS alias, if given
}

// Name is the output column header and the canonical handle HAVING and
// ORDER BY resolve against: the alias if present, else e.g. "count(*)"
// or "sum(value)" or the bare column.
func (s SelectExpr) Name() string {
	if s.Alias != "" {
		return s.Alias
	}
	return s.canonical()
}

func (s SelectExpr) canonical() string {
	if s.Agg == AggNone {
		return s.Col
	}
	if s.Star {
		return s.Agg.String() + "(*)"
	}
	if s.Distinct {
		return s.Agg.String() + "(distinct " + s.Col + ")"
	}
	return s.Agg.String() + "(" + s.Col + ")"
}

// OrderKey is one ORDER BY term.
type OrderKey struct {
	Col  string // column, alias, or canonical aggregate name
	Desc bool
}

// LitKind tags a parsed literal.
type LitKind int

// Literal kinds.
const (
	LitString LitKind = iota
	LitNumber
	LitBool
)

// Literal is an untyped literal as written; the planner coerces it
// against the column it is compared to.
type Literal struct {
	Kind      LitKind
	Text      string // string contents or number text
	Bool      bool
	Line, Col int
}

// Expr is a boolean predicate tree over one table's columns.
type Expr interface{ exprNode() }

// AndExpr is L AND R.
type AndExpr struct{ L, R Expr }

// OrExpr is L OR R.
type OrExpr struct{ L, R Expr }

// NotExpr negates E.
type NotExpr struct{ E Expr }

// CmpExpr compares a column (or aggregate handle, in HAVING) to a
// literal with one of = != < <= > >=.
type CmpExpr struct {
	Col string
	Op  string
	Lit Literal
}

// InExpr is col [NOT] IN (lit, ...).
type InExpr struct {
	Col  string
	Lits []Literal
	Neg  bool
}

// BetweenExpr is col [NOT] BETWEEN lo AND hi (inclusive both ends).
type BetweenExpr struct {
	Col    string
	Lo, Hi Literal
	Neg    bool
}

func (*AndExpr) exprNode()     {}
func (*OrExpr) exprNode()      {}
func (*NotExpr) exprNode()     {}
func (*CmpExpr) exprNode()     {}
func (*InExpr) exprNode()      {}
func (*BetweenExpr) exprNode() {}

// SelectStmt is the parsed statement.
type SelectStmt struct {
	Columns []SelectExpr
	Star    bool // SELECT *
	Table   string
	Where   Expr
	GroupBy []string
	Having  Expr
	OrderBy []OrderKey
	Limit   int // -1 when absent
}

var keywords = map[string]bool{
	"select": true, "from": true, "where": true, "group": true,
	"by": true, "having": true, "order": true, "limit": true,
	"and": true, "or": true, "not": true, "in": true, "between": true,
	"as": true, "asc": true, "desc": true, "distinct": true,
	"true": true, "false": true,
}

var aggKeywords = map[string]AggKind{
	"count": AggCount,
	"sum":   AggSum,
	"avg":   AggAvg,
	"min":   AggMin,
	"max":   AggMax,
}

// parser is a single-token-lookahead recursive-descent parser.
type parser struct {
	lex *lexer
	tok token // current lookahead
}

// Parse parses one SELECT statement. A trailing semicolon is allowed;
// anything after it is an error.
func Parse(sql string) (*SelectStmt, error) {
	p := &parser{lex: newLexer(sql)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokSemicolon {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokEOF {
		return nil, p.errHere("unexpected %s after statement", p.describe(p.tok))
	}
	return stmt, nil
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errHere(format string, args ...any) *ParseError {
	return &ParseError{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) describe(t token) string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// isKeyword reports whether the lookahead is the given keyword.
func (p *parser) isKeyword(kw string) bool {
	return p.tok.kind == tokIdent && p.tok.text == kw
}

func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errHere("expected %s, got %s", strings.ToUpper(kw), p.describe(p.tok))
	}
	return p.advance()
}

// expectIdent consumes a non-keyword identifier.
func (p *parser) expectIdent(what string) (string, error) {
	if p.tok.kind != tokIdent {
		return "", p.errHere("expected %s, got %s", what, p.describe(p.tok))
	}
	if keywords[p.tok.text] {
		return "", p.errHere("expected %s, got keyword %q", what, p.tok.text)
	}
	name := p.tok.text
	return name, p.advance()
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	if p.tok.kind == tokStar {
		stmt.Star = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, item)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	stmt.Table = table

	if p.isKeyword("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.isKeyword("group") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			col, err := p.expectIdent("GROUP BY column")
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, col)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.isKeyword("having") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if stmt.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.isKeyword("order") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			key, err := p.parseOrderKey()
			if err != nil {
				return nil, err
			}
			stmt.OrderBy = append(stmt.OrderBy, key)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.isKeyword("limit") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokNumber || strings.ContainsAny(p.tok.text, ".-") {
			return nil, p.errHere("expected non-negative integer after LIMIT, got %s", p.describe(p.tok))
		}
		n, ok := limitValue(p.tok.text)
		if !ok {
			return nil, p.errHere("LIMIT too large")
		}
		stmt.Limit = n
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

// limitValue reads LIMIT's number: ok is false unless it is a
// non-negative integer of at most 1<<30.
func limitValue(text string) (n int, ok bool) {
	if strings.ContainsAny(text, ".-") {
		return 0, false
	}
	for _, c := range text {
		if n = n*10 + int(c-'0'); n > 1<<30 {
			return 0, false
		}
	}
	return n, true
}

func (p *parser) parseSelectItem() (SelectExpr, error) {
	var item SelectExpr
	if p.tok.kind != tokIdent {
		return item, p.errHere("expected column or aggregate, got %s", p.describe(p.tok))
	}
	if agg, ok := aggKeywords[p.tok.text]; ok {
		name := p.tok.text
		if err := p.advance(); err != nil {
			return item, err
		}
		if p.tok.kind != tokLParen {
			// COUNT etc. used as a plain column name.
			item.Col = name
		} else {
			if err := p.advance(); err != nil {
				return item, err
			}
			item.Agg = agg
			switch {
			case p.tok.kind == tokStar:
				if agg != AggCount {
					return item, p.errHere("%s(*) is not valid; only COUNT(*)", strings.ToUpper(name))
				}
				item.Star = true
				if err := p.advance(); err != nil {
					return item, err
				}
			default:
				if p.isKeyword("distinct") {
					if agg != AggCount {
						return item, p.errHere("DISTINCT is only supported inside COUNT")
					}
					item.Distinct = true
					if err := p.advance(); err != nil {
						return item, err
					}
				}
				col, err := p.expectIdent("column inside aggregate")
				if err != nil {
					return item, err
				}
				item.Col = col
			}
			if p.tok.kind != tokRParen {
				return item, p.errHere("expected ')', got %s", p.describe(p.tok))
			}
			if err := p.advance(); err != nil {
				return item, err
			}
		}
	} else {
		col, err := p.expectIdent("column")
		if err != nil {
			return item, err
		}
		item.Col = col
	}
	// Optional alias: AS ident, or a bare trailing ident.
	if p.isKeyword("as") {
		if err := p.advance(); err != nil {
			return item, err
		}
		alias, err := p.expectIdent("alias")
		if err != nil {
			return item, err
		}
		item.Alias = alias
	} else if p.tok.kind == tokIdent && !keywords[p.tok.text] && aggKeywords[p.tok.text] == AggNone {
		item.Alias = p.tok.text
		if err := p.advance(); err != nil {
			return item, err
		}
	}
	return item, nil
}

func (p *parser) parseOrderKey() (OrderKey, error) {
	var key OrderKey
	col, err := p.parseColumnHandle("ORDER BY column")
	if err != nil {
		return key, err
	}
	key.Col = col
	if p.isKeyword("asc") {
		err = p.advance()
	} else if p.isKeyword("desc") {
		key.Desc = true
		err = p.advance()
	}
	return key, err
}

// parseColumnHandle parses either a bare column/alias or an aggregate
// call, returning the canonical handle string (e.g. "count(*)").
func (p *parser) parseColumnHandle(what string) (string, error) {
	if p.tok.kind != tokIdent {
		return "", p.errHere("expected %s, got %s", what, p.describe(p.tok))
	}
	if agg, ok := aggKeywords[p.tok.text]; ok {
		name := p.tok.text
		if err := p.advance(); err != nil {
			return "", err
		}
		if p.tok.kind != tokLParen {
			return name, nil // plain identifier that happens to be an agg name
		}
		if err := p.advance(); err != nil {
			return "", err
		}
		se := SelectExpr{Agg: agg}
		switch {
		case p.tok.kind == tokStar:
			if agg != AggCount {
				return "", p.errHere("%s(*) is not valid; only COUNT(*)", strings.ToUpper(name))
			}
			se.Star = true
			if err := p.advance(); err != nil {
				return "", err
			}
		default:
			if p.isKeyword("distinct") {
				if agg != AggCount {
					return "", p.errHere("DISTINCT is only supported inside COUNT")
				}
				se.Distinct = true
				if err := p.advance(); err != nil {
					return "", err
				}
			}
			col, err := p.expectIdent("column inside aggregate")
			if err != nil {
				return "", err
			}
			se.Col = col
		}
		if p.tok.kind != tokRParen {
			return "", p.errHere("expected ')', got %s", p.describe(p.tok))
		}
		if err := p.advance(); err != nil {
			return "", err
		}
		return se.canonical(), nil
	}
	return p.expectIdent(what)
}

// parseExpr parses an OR-precedence boolean expression.
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("or") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &OrExpr{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("and") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &AndExpr{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.isKeyword("not") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: inner}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	if p.tok.kind == tokLParen {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.errHere("expected ')', got %s", p.describe(p.tok))
		}
		return inner, p.advance()
	}
	name, err := p.parseColumnHandle("column")
	if err != nil {
		return nil, err
	}
	neg := false
	if p.isKeyword("not") {
		neg = true
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.isKeyword("in") && !p.isKeyword("between") {
			return nil, p.errHere("expected IN or BETWEEN after NOT, got %s", p.describe(p.tok))
		}
	}
	switch {
	case p.isKeyword("in"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokLParen {
			return nil, p.errHere("expected '(' after IN, got %s", p.describe(p.tok))
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		var lits []Literal
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			lits = append(lits, lit)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if p.tok.kind != tokRParen {
			return nil, p.errHere("expected ')', got %s", p.describe(p.tok))
		}
		return &InExpr{Col: name, Lits: lits, Neg: neg}, p.advance()
	case p.isKeyword("between"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		lo, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Col: name, Lo: lo, Hi: hi, Neg: neg}, nil
	case p.tok.kind == tokOp:
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return &CmpExpr{Col: name, Op: op, Lit: lit}, nil
	default:
		return nil, p.errHere("expected comparison, IN, or BETWEEN after %q, got %s", name, p.describe(p.tok))
	}
}

func (p *parser) parseLiteral() (Literal, error) {
	lit, ok := literalOf(p.tok)
	if !ok {
		return Literal{}, p.errHere("expected literal, got %s", p.describe(p.tok))
	}
	return lit, p.advance()
}

// literalOf is the literal t is, if it is one: a string, a number, or
// TRUE or FALSE.
func literalOf(t token) (Literal, bool) {
	switch {
	case t.kind == tokString:
		return Literal{Kind: LitString, Text: t.text, Line: t.line, Col: t.col}, true
	case t.kind == tokNumber:
		return Literal{Kind: LitNumber, Text: t.text, Line: t.line, Col: t.col}, true
	case t.kind == tokIdent && (t.text == "true" || t.text == "false"):
		return Literal{Kind: LitBool, Bool: t.text == "true", Text: t.text, Line: t.line, Col: t.col}, true
	}
	return Literal{}, false
}
