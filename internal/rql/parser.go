package rql

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses an RQL query.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, p.errf("trailing input %q", p.cur().text)
	}
	return q, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(k tokKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

func (p *parser) accept(k tokKind, text string) bool {
	if p.at(k, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(k tokKind, text string) (token, error) {
	if p.at(k, text) {
		return p.next(), nil
	}
	return token{}, p.errf("expected %q, got %q", text, p.cur().text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("rql: parse error at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseQuery() (*Query, error) {
	if p.accept(tokKeyword, "WITH") {
		return p.parseWith()
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &Query{Select: sel}, nil
}

// parseWith parses the recursive form of §3.1 / Listing 1.
func (p *parser) parseWith() (*Query, error) {
	w := &WithClause{}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	w.Name = name.text
	if p.accept(tokSymbol, "(") {
		for {
			col, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			w.Cols = append(w.Cols, col.text)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokKeyword, "AS"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	p.pos-- // parseSelect expects SELECT
	if w.Base, err = p.parseSelect(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "UNION"); err != nil {
		return nil, err
	}
	w.UnionAll = p.accept(tokKeyword, "ALL")
	if _, err := p.expect(tokKeyword, "UNTIL"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "FIXPOINT"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "BY"); err != nil {
		return nil, err
	}
	key, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	w.FixpointKey = key.text
	if p.accept(tokKeyword, "USING") {
		h, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		w.WhileHandler = h.text
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	if w.Recursive, err = p.parseSelect(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return &Query{With: w}, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, *item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		fi, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		s.From = append(s.From, *fi)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseQualifiedIdent()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, col)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	return s, nil
}

func (p *parser) parseSelectItem() (*SelectItem, error) {
	if p.accept(tokSymbol, "*") {
		return &SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr(0)
	if err != nil {
		return nil, err
	}
	item := &SelectItem{Expr: e}
	// Handler destructuring: Fn(args).{a, b}
	if p.accept(tokSymbol, ".{") {
		call, ok := e.(*CallExpr)
		if !ok {
			return nil, p.errf(".{…} requires a handler invocation")
		}
		_ = call
		for {
			out, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			item.HandlerOuts = append(item.HandlerOuts, out.text)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, "}"); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "AS") {
		alias, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		item.Alias = alias.text
	}
	return item, nil
}

func (p *parser) parseFromItem() (*FromItem, error) {
	if p.accept(tokSymbol, "(") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		fi := &FromItem{Sub: sub}
		if p.accept(tokKeyword, "AS") {
			alias, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			fi.Alias = alias.text
		}
		return fi, nil
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	fi := &FromItem{Table: name.text}
	if p.at(tokIdent, "") {
		fi.Alias = p.next().text
	} else if p.accept(tokKeyword, "AS") {
		alias, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		fi.Alias = alias.text
	}
	return fi, nil
}

// precedence table: higher binds tighter.
func prec(op string) int {
	switch op {
	case "OR":
		return 1
	case "AND":
		return 2
	case "=", "<>", "<", "<=", ">", ">=":
		return 3
	case "+", "-":
		return 4
	case "*", "/", "%":
		return 5
	}
	return 0
}

func (p *parser) parseExpr(minPrec int) (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		t := p.cur()
		if t.kind == tokSymbol && prec(t.text) > 0 {
			op = t.text
		} else if t.kind == tokKeyword && (t.text == "AND" || t.text == "OR") {
			op = t.text
		} else {
			break
		}
		if prec(op) < minPrec {
			break
		}
		p.next()
		right, err := p.parseExpr(prec(op) + 1)
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	switch {
	case p.accept(tokKeyword, "NOT"):
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	case p.accept(tokSymbol, "-"):
		if p.at(tokNumber, "") {
			// A minus right before a number is a negative literal, so
			// -9223372036854775808 and -0.0 keep their values.
			t := p.next()
			return &NumberLit{Text: "-" + t.text, IsInt: !strings.Contains(t.text, ".")}, nil
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: "-", L: &NumberLit{Text: "0", IsInt: true}, R: e}, nil
	case p.accept(tokSymbol, "("):
		e, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.at(tokNumber, ""):
		t := p.next()
		return &NumberLit{Text: t.text, IsInt: !strings.Contains(t.text, ".")}, nil
	case p.at(tokParam, ""):
		t := p.next()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return nil, p.errf("bad parameter $%s", t.text)
		}
		return &ParamRef{N: n}, nil
	case p.at(tokString, ""):
		return &StringLit{Val: p.next().text}, nil
	case p.accept(tokKeyword, "TRUE"):
		return &BoolLit{Val: true}, nil
	case p.accept(tokKeyword, "FALSE"):
		return &BoolLit{Val: false}, nil
	case p.at(tokIdent, ""):
		name, err := p.parseQualifiedIdent()
		if err != nil {
			return nil, err
		}
		if p.accept(tokSymbol, "(") {
			call := &CallExpr{Fn: name}
			if p.accept(tokSymbol, "*") {
				call.Star = true
			} else if !p.at(tokSymbol, ")") {
				for {
					arg, err := p.parseExpr(0)
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if !p.accept(tokSymbol, ",") {
						break
					}
				}
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		return &Ident{Name: name}, nil
	default:
		return nil, p.errf("unexpected token %q", p.cur().text)
	}
}

// parseQualifiedIdent parses ident(.ident)*.
func (p *parser) parseQualifiedIdent() (string, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return "", err
	}
	name := t.text
	for p.at(tokSymbol, ".") && p.toks[p.pos+1].kind == tokIdent {
		p.next()
		part := p.next()
		name += "." + part.text
	}
	return name, nil
}
