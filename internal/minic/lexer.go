// Package minic compiles the C subset CS 31 teaches down to the course's
// IA-32 assembly (package asm), completing the top of the vertical slice:
// C source -> assembly -> machine execution -> memory trace. The subset
// covers ints, chars, pointers, arrays, strings, functions with stack
// frames, control flow (if/else, while, for, break/continue), the full
// binary/unary operator set with short-circuit && and ||, globals, and the
// course's I/O builtins (print_int, print_str, read_int, malloc, exit).
package minic

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// TokKind classifies a lexical token.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokInt    // integer literal
	TokChar   // character literal
	TokString // string literal
	TokPunct  // operator or punctuation
	TokKeyword
)

var keywords = map[string]bool{
	"int": true, "char": true, "void": true, "if": true, "else": true,
	"while": true, "do": true, "struct": true, "for": true, "return": true, "break": true,
	"continue": true, "sizeof": true,
}

// Token is one lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string
	Int  int32 // value for TokInt and TokChar
	Str  string
	Line int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of file"
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// CompileError is a lexing, parsing, or semantic error with a line number.
type CompileError struct {
	Line int
	Msg  string
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("minic: line %d: %s", e.Line, e.Msg)
}

func cerrf(line int, format string, args ...interface{}) error {
	return &CompileError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// multi-character punctuation, longest first.
var puncts = []string{
	"<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "++", "--", "->",
	"+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
	"(", ")", "{", "}", "[", "]", ";", ",", "?", ":", ".",
}

// Lex tokenizes mini-C source, handling // and /* */ comments.
func Lex(src string) ([]Token, error) {
	var toks []Token
	line := 1
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return nil, cerrf(line, "unterminated block comment")
			}
			line += strings.Count(src[i:i+2+end+2], "\n")
			i += 2 + end + 2
		case isIdentStart(c):
			start := i
			for i < n && (isIdentChar(src[i])) {
				i++
			}
			text := src[start:i]
			kind := TokIdent
			if keywords[text] {
				kind = TokKeyword
			}
			toks = append(toks, Token{Kind: kind, Text: text, Line: line})
		case c >= '0' && c <= '9':
			start := i
			for i < n && (isIdentChar(src[i])) {
				i++
			}
			text := src[start:i]
			v, err := strconv.ParseInt(text, 0, 64)
			if err != nil || v > 1<<31-1 {
				return nil, cerrf(line, "bad integer literal %q", text)
			}
			toks = append(toks, Token{Kind: TokInt, Text: text, Int: int32(v), Line: line})
		case c == '\'':
			j := i + 1
			var v byte
			if j < n && src[j] == '\\' {
				if j+1 >= n {
					return nil, cerrf(line, "unterminated char literal")
				}
				e, ok := unescape(src[j+1])
				if !ok {
					return nil, cerrf(line, "bad escape '\\%c'", src[j+1])
				}
				v = e
				j += 2
			} else if j < n {
				v = src[j]
				j++
			}
			if j >= n || src[j] != '\'' {
				return nil, cerrf(line, "unterminated char literal")
			}
			toks = append(toks, Token{Kind: TokChar, Text: src[i : j+1], Int: int32(v), Line: line})
			i = j + 1
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < n && src[j] != '"' {
				if src[j] == '\\' {
					if j+1 >= n {
						return nil, cerrf(line, "unterminated string literal")
					}
					e, ok := unescape(src[j+1])
					if !ok {
						return nil, cerrf(line, "bad escape in string")
					}
					sb.WriteByte(e)
					j += 2
					continue
				}
				if src[j] == '\n' {
					return nil, cerrf(line, "newline in string literal")
				}
				sb.WriteByte(src[j])
				j++
			}
			if j >= n {
				return nil, cerrf(line, "unterminated string literal")
			}
			toks = append(toks, Token{Kind: TokString, Text: src[i : j+1], Str: sb.String(), Line: line})
			i = j + 1
		default:
			matched := false
			for _, p := range puncts {
				if strings.HasPrefix(src[i:], p) {
					toks = append(toks, Token{Kind: TokPunct, Text: p, Line: line})
					i += len(p)
					matched = true
					break
				}
			}
			if !matched {
				r, _ := utf8.DecodeRuneInString(src[i:])
				return nil, cerrf(line, "unexpected character %q", r)
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Line: line})
	return toks, nil
}

// isIdentStart reports whether c starts an identifier: '_' or an ASCII
// letter. A non-ASCII byte is never part of one, so it falls through to
// "unexpected character".
func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

func unescape(c byte) (byte, bool) {
	switch c {
	case 'n':
		return '\n', true
	case 't':
		return '\t', true
	case 'r':
		return '\r', true
	case '0':
		return 0, true
	case '\\':
		return '\\', true
	case '\'':
		return '\'', true
	case '"':
		return '"', true
	default:
		return 0, false
	}
}
