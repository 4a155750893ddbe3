// Package rql implements REX's query language (§3.1): SQL extended with
// recursion (`WITH R AS (base) UNION [ALL] UNTIL FIXPOINT BY key
// [USING handler] (recursive)`), embedded user-defined code, and the
// `Agg(args).{out1, out2}` projection syntax for table-valued delta
// handlers. The front end lexes, parses, binds against the catalog with
// strong typing (§3.3), and hands a logical plan to the optimizer.
package rql

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
	tokNumber
	tokString
	tokSymbol  // punctuation and operators
	tokKeyword // reserved words, upper-cased
	tokParam   // $N placeholder; text is the digits
)

type token struct {
	kind tokKind
	text string
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"AS": true, "WITH": true, "UNION": true, "ALL": true, "UNTIL": true,
	"FIXPOINT": true, "USING": true, "AND": true, "OR": true, "NOT": true,
	"TRUE": true, "FALSE": true, "NULL": true,
}

// IsIdent reports whether name lexes as one identifier, so a query can
// name it: not empty, not a keyword, no punctuation.
func IsIdent(name string) bool {
	toks, err := lex(name)
	return err == nil && len(toks) == 2 && toks[0].kind == tokIdent && toks[0].text == name
}

// lex tokenizes an RQL query.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < len(src) && (unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i])) || src[i] == '_') {
				i++
			}
			word := src[start:i]
			if keywords[strings.ToUpper(word)] {
				toks = append(toks, token{tokKeyword, strings.ToUpper(word), start})
			} else {
				toks = append(toks, token{tokIdent, word, start})
			}
		case unicode.IsDigit(rune(c)):
			start := i
			seenDot := false
			for i < len(src) && (unicode.IsDigit(rune(src[i])) || (src[i] == '.' && !seenDot)) {
				if src[i] == '.' {
					// "1." followed by identifier is qualified access, not a float.
					if i+1 >= len(src) || !unicode.IsDigit(rune(src[i+1])) {
						break
					}
					seenDot = true
				}
				i++
			}
			toks = append(toks, token{tokNumber, src[start:i], start})
		case c == '$':
			start := i
			i++
			ds := i
			for i < len(src) && unicode.IsDigit(rune(src[i])) {
				i++
			}
			if i == ds {
				return nil, fmt.Errorf("rql: expected digits after $ at %d", start)
			}
			toks = append(toks, token{tokParam, src[ds:i], start})
		case c == '\'':
			i++
			start := i
			var esc []byte // set only when the string contains '' escapes
			seg := start
			for {
				for i < len(src) && src[i] != '\'' {
					i++
				}
				if i >= len(src) {
					return nil, fmt.Errorf("rql: unterminated string at %d", start)
				}
				if i+1 < len(src) && src[i+1] == '\'' {
					// '' is an escaped quote inside the string.
					esc = append(esc, src[seg:i]...)
					esc = append(esc, '\'')
					i += 2
					seg = i
					continue
				}
				break
			}
			text := src[start:i]
			if esc != nil {
				text = string(append(esc, src[seg:i]...))
			}
			toks = append(toks, token{tokString, text, start})
			i++
		default:
			// multi-char operators
			for _, op := range []string{"<>", "<=", ">=", ".{"} {
				if strings.HasPrefix(src[i:], op) {
					toks = append(toks, token{tokSymbol, op, i})
					i += len(op)
					goto next
				}
			}
			if strings.ContainsRune("(),.*+-/%<>={}", rune(c)) {
				toks = append(toks, token{tokSymbol, string(c), i})
				i++
			} else {
				return nil, fmt.Errorf("rql: unexpected character %q at %d", c, i)
			}
		next:
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}
