// Package sql implements the query language layer of the reproduction:
// a lexer and recursive-descent parser for the SQL subset the paper's
// experiments use, extended with the LexEQUAL syntax of Figures 3 and 5
// (LEXEQUAL ... THRESHOLD ... INLANGUAGES), and a planner that lowers
// queries onto the db executors, choosing among the three LexEQUAL
// physical strategies per the session setting.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokKind
	text string // keywords uppercased; idents as written; strings unquoted
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("'%s'", t.text)
	default:
		return t.text
	}
}

// keywords recognized by the parser (uppercase).
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "GROUP": true, "BY": true, "HAVING": true, "ORDER": true,
	"LIMIT": true, "ASC": true, "DESC": true, "AS": true,
	"CREATE": true, "TABLE": true, "INDEX": true, "ON": true, "DROP": true,
	"INSERT": true, "INTO": true, "VALUES": true, "SET": true, "SHOW": true,
	"DELETE": true,
	"BEGIN":  true, "COMMIT": true, "ROLLBACK": true, "TRANSACTION": true, "CHECKPOINT": true,
	"TABLES": true, "INDEXES": true, "LEXSTATS": true, "EXPLAIN": true, "NULL": true,
	"LEXEQUAL": true, "THRESHOLD": true, "INLANGUAGES": true, "LANG": true,
	"COUNT": true, "MIN": true, "MAX": true, "SUM": true, "DISTINCT": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case c == '\'':
			s, err := l.lexString()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{kind: tokString, text: s, pos: start})
		case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			l.toks = append(l.toks, token{kind: tokNumber, text: l.lexNumber(), pos: start})
		case isIdentStart(rune(c)) || c >= 0x80:
			word := l.lexWord()
			up := strings.ToUpper(word)
			if keywords[up] {
				l.toks = append(l.toks, token{kind: tokKeyword, text: up, pos: start})
			} else {
				l.toks = append(l.toks, token{kind: tokIdent, text: word, pos: start})
			}
		default:
			sym, err := l.lexSymbol()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{kind: tokSymbol, text: sym, pos: start})
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// Line comments.
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func (l *lexer) lexString() (string, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'') // escaped quote
				l.pos += 2
				continue
			}
			l.pos++
			return b.String(), nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return "", fmt.Errorf("sql: unterminated string at %d", l.pos)
}

func (l *lexer) lexNumber() string {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigit(c) {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	return l.src[start:l.pos]
}

func (l *lexer) lexWord() string {
	start := l.pos
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		if c < 0x80 && (isIdentStart(c) || isDigit(byte(c))) {
			l.pos++
			continue
		}
		if l.src[l.pos] >= 0x80 {
			// Multi-byte rune: part of a (multilingual) identifier.
			l.pos++
			continue
		}
		break
	}
	return l.src[start:l.pos]
}

func (l *lexer) lexSymbol() (string, error) {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<>", "<=", ">=", "!=":
		l.pos += 2
		if two == "!=" {
			return "<>", nil
		}
		return two, nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '*', '=', '<', '>', '+', '-', '/', ';', '.', '{', '}':
		l.pos++
		return string(c), nil
	}
	return "", fmt.Errorf("sql: unexpected character %q at %d", c, l.pos)
}
