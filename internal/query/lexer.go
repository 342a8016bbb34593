package query

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString // single-quoted, '' escapes a quote
	tokNumber
	tokComma
	tokLParen
	tokRParen
	tokStar
	tokSemicolon
	tokOp // = != <> < <= > >=
)

// token is one lexeme with its 1-based source position.
type token struct {
	kind      tokenKind
	text      string // idents lowercased; strings unquoted; ops canonical
	line, col int
}

// lexer walks the statement byte-wise, tracking line/column so parse
// errors point at the offending character.
type lexer struct {
	src       string
	pos       int
	line, col int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errf(line, col int, format string, args ...any) *ParseError {
	return &ParseError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) advance(n int) {
	for i := 0; i < n; i++ {
		if l.pos < len(l.src) && l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

// next returns the next token or a ParseError.
func (l *lexer) next() (token, error) {
	// Skip whitespace and -- line comments.
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance(1)
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		default:
			goto scan
		}
	}
scan:
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line, col: l.col}, nil
	}
	line, col := l.line, l.col
	c := l.src[l.pos]
	switch {
	case c == ',':
		l.advance(1)
		return token{kind: tokComma, text: ",", line: line, col: col}, nil
	case c == '(':
		l.advance(1)
		return token{kind: tokLParen, text: "(", line: line, col: col}, nil
	case c == ')':
		l.advance(1)
		return token{kind: tokRParen, text: ")", line: line, col: col}, nil
	case c == '*':
		l.advance(1)
		return token{kind: tokStar, text: "*", line: line, col: col}, nil
	case c == ';':
		l.advance(1)
		return token{kind: tokSemicolon, text: ";", line: line, col: col}, nil
	case c == '=':
		l.advance(1)
		// Tolerate '==' as '='.
		if l.peekByte() == '=' {
			l.advance(1)
		}
		return token{kind: tokOp, text: "=", line: line, col: col}, nil
	case c == '!':
		l.advance(1)
		if l.peekByte() != '=' {
			return token{}, l.errf(line, col, "unexpected '!': did you mean '!='?")
		}
		l.advance(1)
		return token{kind: tokOp, text: "!=", line: line, col: col}, nil
	case c == '<':
		l.advance(1)
		switch l.peekByte() {
		case '=':
			l.advance(1)
			return token{kind: tokOp, text: "<=", line: line, col: col}, nil
		case '>':
			l.advance(1)
			return token{kind: tokOp, text: "!=", line: line, col: col}, nil
		}
		return token{kind: tokOp, text: "<", line: line, col: col}, nil
	case c == '>':
		l.advance(1)
		if l.peekByte() == '=' {
			l.advance(1)
			return token{kind: tokOp, text: ">=", line: line, col: col}, nil
		}
		return token{kind: tokOp, text: ">", line: line, col: col}, nil
	case c == '\'':
		return l.lexString(line, col)
	case c >= '0' && c <= '9':
		return l.lexNumber(line, col, false)
	case c == '-':
		// Unary minus introduces a negative number literal.
		if l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			l.advance(1)
			return l.lexNumber(line, col, true)
		}
		return token{}, l.errf(line, col, "unexpected '-'")
	case c == '_' || isLetterByte(c):
		return l.lexIdent(line, col)
	default:
		r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
		if unicode.IsLetter(r) {
			return l.lexIdent(line, col)
		}
		return token{}, l.errf(line, col, "unexpected character %q", r)
	}
}

func isLetterByte(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// lexString scans a string literal. Its text is a substring of the
// statement unless it holds a doubled quote, which only a copy can
// undouble.
func (l *lexer) lexString(line, col int) (token, error) {
	l.advance(1) // opening quote
	start, doubled := l.pos, false
	for {
		if l.pos >= len(l.src) {
			return token{}, l.errf(line, col, "unterminated string literal")
		}
		if l.src[l.pos] != '\'' {
			l.advance(1)
			continue
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
			doubled = true
			l.advance(2)
			continue
		}
		text := l.src[start:l.pos]
		if doubled {
			text = strings.ReplaceAll(text, "''", "'")
		}
		l.advance(1)
		return token{kind: tokString, text: text, line: line, col: col}, nil
	}
}

func (l *lexer) lexNumber(line, col int, neg bool) (token, error) {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.advance(1)
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.advance(1)
			continue
		}
		break
	}
	text := l.src[start:l.pos]
	if strings.HasSuffix(text, ".") {
		return token{}, l.errf(line, col, "malformed number %q", text)
	}
	if neg {
		text = l.src[start-1 : l.pos] // the minus sign is the byte before
	}
	return token{kind: tokNumber, text: text, line: line, col: col}, nil
}

func (l *lexer) lexIdent(line, col int) (token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '_' || isLetterByte(c) || (c >= '0' && c <= '9') {
			l.advance(1)
			continue
		}
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			l.advance(size)
			continue
		}
		break
	}
	return token{kind: tokIdent, text: lowerIdent(l.src[start:l.pos]), line: line, col: col}, nil
}

// lowerIdent lowercases an identifier, as keywords and names compare:
// one with no upper-case letter is returned as it is and a keyword as
// its own constant, so neither allocates.
func lowerIdent(s string) string {
	upper := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return strings.ToLower(s)
		}
		upper = upper || 'A' <= c && c <= 'Z'
	}
	if !upper {
		return s
	}
	var buf [16]byte
	if len(s) <= len(buf) {
		b := buf[:len(s)]
		for i := range b {
			c := s[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			b[i] = c
		}
		if kw, ok := lowerWords[string(b)]; ok {
			return kw
		}
	}
	return strings.ToLower(s)
}

// lowerWords maps each keyword and aggregate name to itself.
var lowerWords = func() map[string]string {
	m := make(map[string]string, len(keywords)+len(aggKeywords))
	for kw := range keywords {
		m[kw] = kw
	}
	for name := range aggKeywords {
		m[name] = name
	}
	return m
}()
