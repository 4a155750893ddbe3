package rql

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/rex-data/rex/internal/types"
)

// BindText substitutes literal renderings of args for the $N placeholders
// in src, returning parameter-free RQL. It is the prepared-statement path
// for multi-process sessions, where plans cannot ship across the wire and
// every process recompiles the query text from the job spec: the driver
// binds values into the text once per execution and the daemons parse the
// same literals. Each literal is parenthesised, so it lexes apart from
// whatever surrounds the placeholder — a minus before a negative number
// does not become a comment, a keyword before TRUE does not merge into an
// identifier — and the bound text compiles to the plan in-process binding
// runs. Placeholders must be numbered contiguously from $1.
func BindText(src string, args []types.Value) (string, error) {
	toks, err := lex(src)
	if err != nil {
		return "", err
	}
	var params []token
	seen := map[int]bool{}
	maxN := 0
	for _, t := range toks {
		if t.kind != tokParam {
			continue
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return "", fmt.Errorf("rql: bad parameter $%s", t.text)
		}
		params = append(params, t)
		seen[n] = true
		if n > maxN {
			maxN = n
		}
	}
	if maxN != len(args) || len(seen) != maxN {
		return "", fmt.Errorf("rql: statement wants %d contiguous parameter(s), got %d value(s)", maxN, len(args))
	}
	lits := make([]string, maxN)
	for i, a := range args {
		lit, err := renderLiteral(a)
		if err != nil {
			return "", fmt.Errorf("rql: parameter $%d: %w", i+1, err)
		}
		lits[i] = "(" + lit + ")"
	}
	// Rewrite back to front so earlier token positions stay valid.
	sort.Slice(params, func(i, j int) bool { return params[i].pos > params[j].pos })
	out := src
	for _, t := range params {
		n, _ := strconv.Atoi(t.text)
		end := t.pos + 1 + len(t.text) // "$" + digits
		out = out[:t.pos] + lits[n-1] + out[end:]
	}
	return out, nil
}

// renderLiteral formats a value as RQL literal text that lexes back to the
// same value: a negative number lexes as a minus and a number, which the
// parser reads as one negative literal, -0.0 and math.MinInt64 included.
func renderLiteral(v types.Value) (string, error) {
	switch x := v.(type) {
	case int64:
		return strconv.FormatInt(x, 10), nil
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return "", fmt.Errorf("value %v has no RQL literal form", x)
		}
		s := strconv.FormatFloat(x, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0" // keep the float kind through the lexer
		}
		return s, nil
	case bool:
		if x {
			return "TRUE", nil
		}
		return "FALSE", nil
	case string:
		// '' is the lexer's escape for a quote inside a string literal.
		return "'" + strings.ReplaceAll(x, "'", "''") + "'", nil
	default:
		return "", fmt.Errorf("unsupported parameter type %T", v)
	}
}
