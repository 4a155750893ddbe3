// Package expr implements bound, typed scalar expressions: column
// references, literals, arithmetic, comparisons, boolean connectives, and
// calls to user-defined scalar functions. The RQL front-end binds names to
// column indexes at plan time so evaluation is a pure function of the tuple.
package expr

import (
	"fmt"
	"strings"

	"github.com/rex-data/rex/internal/types"
)

// Expr is a bound scalar expression evaluated against one tuple.
type Expr interface {
	Eval(t types.Tuple) (types.Value, error)
	Kind() types.Kind
	String() string
}

// Col references a column by bound index.
type Col struct {
	Idx  int
	K    types.Kind
	Name string
}

// NewCol builds a bound column reference.
func NewCol(idx int, k types.Kind, name string) *Col { return &Col{Idx: idx, K: k, Name: name} }

// Eval returns the referenced field.
func (c *Col) Eval(t types.Tuple) (types.Value, error) {
	if c.Idx < 0 || c.Idx >= len(t) {
		return nil, fmt.Errorf("expr: column %s index %d out of range for %d-tuple", c.Name, c.Idx, len(t))
	}
	return t[c.Idx], nil
}

// Kind reports the column's type.
func (c *Col) Kind() types.Kind { return c.K }

func (c *Col) String() string { return c.Name }

// Const is a literal value.
type Const struct {
	V types.Value
}

// NewConst builds a literal.
func NewConst(v types.Value) *Const { return &Const{V: v} }

// Eval returns the literal.
func (c *Const) Eval(types.Tuple) (types.Value, error) { return c.V, nil }

// Kind reports the literal's type.
func (c *Const) Kind() types.Kind { return types.KindOf(c.V) }

func (c *Const) String() string {
	if s, ok := c.V.(string); ok {
		return "'" + s + "'"
	}
	return types.AsString(c.V)
}

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (o ArithOp) String() string {
	return [...]string{"+", "-", "*", "/", "%"}[o]
}

// Arith is a binary arithmetic expression. If either operand is a float the
// result is a float; integer division by zero is an error.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// NewArith builds an arithmetic node.
func NewArith(op ArithOp, l, r Expr) *Arith { return &Arith{Op: op, L: l, R: r} }

// Kind reports Float if either side is Float, else Int.
func (a *Arith) Kind() types.Kind {
	if a.L.Kind() == types.KindFloat || a.R.Kind() == types.KindFloat {
		return types.KindFloat
	}
	return types.KindInt
}

// Eval computes the arithmetic result.
func (a *Arith) Eval(t types.Tuple) (types.Value, error) {
	lv, err := a.L.Eval(t)
	if err != nil {
		return nil, err
	}
	rv, err := a.R.Eval(t)
	if err != nil {
		return nil, err
	}
	if a.Kind() == types.KindFloat {
		lf, ok1 := types.AsFloat(lv)
		rf, ok2 := types.AsFloat(rv)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("expr: %s: non-numeric operand", a)
		}
		switch a.Op {
		case OpAdd:
			return lf + rf, nil
		case OpSub:
			return lf - rf, nil
		case OpMul:
			return lf * rf, nil
		case OpDiv:
			return lf / rf, nil
		case OpMod:
			return nil, fmt.Errorf("expr: %% not defined on Double")
		}
	}
	li, ok1 := types.AsInt(lv)
	ri, ok2 := types.AsInt(rv)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("expr: %s: non-numeric operand", a)
	}
	switch a.Op {
	case OpAdd:
		return li + ri, nil
	case OpSub:
		return li - ri, nil
	case OpMul:
		return li * ri, nil
	case OpDiv:
		if ri == 0 {
			return nil, fmt.Errorf("expr: integer division by zero")
		}
		return li / ri, nil
	case OpMod:
		if ri == 0 {
			return nil, fmt.Errorf("expr: modulo by zero")
		}
		return li % ri, nil
	}
	return nil, fmt.Errorf("expr: unknown arith op %v", a.Op)
}

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (o CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[o]
}

// Cmp is a comparison expression yielding Bool.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// NewCmp builds a comparison node.
func NewCmp(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

// Kind is always Bool.
func (c *Cmp) Kind() types.Kind { return types.KindBool }

// Eval computes the comparison.
func (c *Cmp) Eval(t types.Tuple) (types.Value, error) {
	lv, err := c.L.Eval(t)
	if err != nil {
		return nil, err
	}
	rv, err := c.R.Eval(t)
	if err != nil {
		return nil, err
	}
	cmp := types.ValueCompare(lv, rv)
	switch c.Op {
	case OpEq:
		return types.ValueEq(lv, rv), nil
	case OpNe:
		return !types.ValueEq(lv, rv), nil
	case OpLt:
		return cmp < 0, nil
	case OpLe:
		return cmp <= 0, nil
	case OpGt:
		return cmp > 0, nil
	case OpGe:
		return cmp >= 0, nil
	}
	return nil, fmt.Errorf("expr: unknown cmp op %v", c.Op)
}

func (c *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R)
}

// LogicOp is a boolean connective.
type LogicOp uint8

// Boolean connectives.
const (
	OpAnd LogicOp = iota
	OpOr
)

// Logic is AND/OR with short-circuit evaluation.
type Logic struct {
	Op   LogicOp
	L, R Expr
}

// NewLogic builds a boolean connective node.
func NewLogic(op LogicOp, l, r Expr) *Logic { return &Logic{Op: op, L: l, R: r} }

// Kind is always Bool.
func (l *Logic) Kind() types.Kind { return types.KindBool }

// Eval computes the connective with short-circuiting.
func (l *Logic) Eval(t types.Tuple) (types.Value, error) {
	lv, err := l.L.Eval(t)
	if err != nil {
		return nil, err
	}
	lb, ok := types.AsBool(lv)
	if !ok {
		return nil, fmt.Errorf("expr: %s: non-boolean operand", l)
	}
	if l.Op == OpAnd && !lb {
		return false, nil
	}
	if l.Op == OpOr && lb {
		return true, nil
	}
	rv, err := l.R.Eval(t)
	if err != nil {
		return nil, err
	}
	rb, ok := types.AsBool(rv)
	if !ok {
		return nil, fmt.Errorf("expr: %s: non-boolean operand", l)
	}
	return rb, nil
}

func (l *Logic) String() string {
	op := "AND"
	if l.Op == OpOr {
		op = "OR"
	}
	return fmt.Sprintf("(%s %s %s)", l.L, op, l.R)
}

// Not negates a boolean expression.
type Not struct {
	E Expr
}

// NewNot builds a negation node.
func NewNot(e Expr) *Not { return &Not{E: e} }

// Kind is always Bool.
func (n *Not) Kind() types.Kind { return types.KindBool }

// Eval negates the operand.
func (n *Not) Eval(t types.Tuple) (types.Value, error) {
	v, err := n.E.Eval(t)
	if err != nil {
		return nil, err
	}
	b, ok := types.AsBool(v)
	if !ok {
		return nil, fmt.Errorf("expr: NOT: non-boolean operand")
	}
	return !b, nil
}

func (n *Not) String() string { return "NOT " + n.E.String() }

// ScalarFn is the implementation of a user-defined scalar function. REX
// invokes UDFs through boxed values (the Go analogue of the paper's Java
// reflection calls); input batching amortizes the per-call overhead.
type ScalarFn func(args []types.Value) (types.Value, error)

// Call invokes a user-defined scalar function.
//
// Operators evaluate a batch an expression at a time (Kernel), not a row
// at a time. Within one expression a function sees the requested rows in
// order and stops at its first failing row; across the expressions of one
// operator — a projection's columns, an aggregate's arguments, a
// replace's old and new images — its calls do not interleave by row, and
// when one row fails, another expression may already have called it on
// later rows. Only the results and the reported error (the one the row
// interpreter meets first) are fixed: the number and order of calls are
// not, and a function must not rely on them.
type Call struct {
	FnName string
	Fn     ScalarFn
	Args   []Expr
	Ret    types.Kind

	// Deterministic functions are memoized by their argument values in
	// every kernel that interprets them (§5.1 "Caching").
	Deterministic bool
}

// NewCall builds a bound UDF call.
func NewCall(name string, fn ScalarFn, ret types.Kind, deterministic bool, args ...Expr) *Call {
	return &Call{FnName: name, Fn: fn, Args: args, Ret: ret, Deterministic: deterministic}
}

// Kind reports the declared return type.
func (c *Call) Kind() types.Kind { return c.Ret }

// Eval evaluates arguments and invokes the function.
func (c *Call) Eval(t types.Tuple) (types.Value, error) {
	args := make([]types.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := a.Eval(t)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return c.invoke(args)
}

// invoke calls the function on evaluated arguments.
func (c *Call) invoke(args []types.Value) (types.Value, error) {
	v, err := c.Fn(args)
	if err != nil {
		return nil, fmt.Errorf("expr: UDF %s: %w", c.FnName, err)
	}
	return v, nil
}

func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.FnName + "(" + strings.Join(parts, ", ") + ")"
}

// EvalBool evaluates e as a predicate. Predicates are strictly typed:
// anything but a bool result is an error.
func EvalBool(e Expr, t types.Tuple) (bool, error) {
	v, err := e.Eval(t)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("expr: predicate %s returned non-boolean %v", e, v)
	}
	return b, nil
}

// Columns reports the set of column indexes referenced by e.
func Columns(e Expr) []int {
	seen := map[int]bool{}
	var walk func(Expr)
	walk = func(x Expr) {
		switch v := x.(type) {
		case *Col:
			seen[v.Idx] = true
		case *Arith:
			walk(v.L)
			walk(v.R)
		case *Cmp:
			walk(v.L)
			walk(v.R)
		case *Logic:
			walk(v.L)
			walk(v.R)
		case *Not:
			walk(v.E)
		case *Call:
			for _, a := range v.Args {
				walk(a)
			}
		}
	}
	walk(e)
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	return out
}
