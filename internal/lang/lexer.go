// Package lang implements the frontend for idc, the small imperative
// language the workload suite is written in (the repo's stand-in for the
// paper's C/C++ benchmark sources). It lexes, parses, type-checks and
// lowers idc programs to the ir package's load-store IR; the region
// construction then sees code with the same shape an LLVM frontend would
// produce — scalar locals in pseudoregisters, arrays and globals in
// memory, loops and calls.
//
//	global int hist[64];
//	global float scale = 2;
//
//	func update(int* buf, int n) int {
//	    int acc = 0;
//	    for (int i = 0; i < n; i = i + 1) {
//	        acc = acc + buf[i];
//	        hist[buf[i] % 64] = hist[buf[i] % 64] + 1;
//	    }
//	    return acc;
//	}
package lang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tInt
	tFloat
	tPunct // operators and delimiters, in tok.text
)

type token struct {
	kind tokKind
	text string
	i    int64
	f    float64
	line int
}

// Error is a frontend diagnostic with a source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) *Error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

var punctuation = []string{
	// Longest first.
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"+", "-", "*", "/", "%", "&", "|", "^", "<", ">", "=", "!",
	"(", ")", "{", "}", "[", "]", ",", ";",
}

func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			toks = append(toks, token{kind: tIdent, text: src[i:j], line: line})
			i = j
		case unicode.IsDigit(rune(c)):
			j := i
			isFloat := false
			for j < len(src) && (unicode.IsDigit(rune(src[j])) || src[j] == '.') {
				if src[j] == '.' {
					isFloat = true
				}
				j++
			}
			lit := src[i:j]
			if isFloat {
				f, err := strconv.ParseFloat(lit, 64)
				if err != nil {
					return nil, errf(line, "bad float literal %q", lit)
				}
				toks = append(toks, token{kind: tFloat, f: f, line: line})
			} else {
				n, err := strconv.ParseInt(lit, 10, 64)
				if err != nil {
					return nil, errf(line, "bad int literal %q", lit)
				}
				toks = append(toks, token{kind: tInt, i: n, line: line})
			}
			i = j
		default:
			matched := false
			for _, p := range punctuation {
				if strings.HasPrefix(src[i:], p) {
					toks = append(toks, token{kind: tPunct, text: p, line: line})
					i += len(p)
					matched = true
					break
				}
			}
			if !matched {
				return nil, errf(line, "unexpected character %q", c)
			}
		}
	}
	toks = append(toks, token{kind: tEOF, line: line})
	return toks, nil
}
