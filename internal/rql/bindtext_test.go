package rql

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/datagen"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
)

// bindCatalog holds lineitem and t(a Integer, b Double).
func bindCatalog(tb testing.TB) *catalog.Catalog {
	tb.Helper()
	cat := catalog.New()
	for _, tab := range []*catalog.Table{
		{Name: "lineitem", Schema: types.MustSchema(datagen.LineItemSchema...), PartitionKey: 0},
		{Name: "t", Schema: types.MustSchema("a:Integer", "b:Double")},
	} {
		if err := cat.AddTable(tab); err != nil {
			tb.Fatal(err)
		}
	}
	return cat
}

// valueKey renders a value with its kind and exact bits: -0.0, 0.0 and
// 0 all differ.
func valueKey(v types.Value) string {
	if f, ok := v.(float64); ok {
		return fmt.Sprintf("float64:%x", math.Float64bits(f))
	}
	return fmt.Sprintf("%T:%q", v, fmt.Sprint(v))
}

// exprKey renders an expression tree with a bound parameter as its value,
// so a plan from in-process binding and one compiled from bound text
// render alike exactly when they compute alike.
func exprKey(e expr.Expr) string {
	switch v := e.(type) {
	case nil:
		return "-"
	case *expr.Param:
		if v.Idx < len(v.Set.Values) {
			return valueKey(v.Set.Values[v.Idx])
		}
		return "unbound"
	case *expr.Const:
		return valueKey(v.V)
	case *expr.Col:
		return fmt.Sprintf("#%d:%v", v.Idx, v.K)
	case *expr.Arith:
		return fmt.Sprintf("(%s %v %s)", exprKey(v.L), v.Op, exprKey(v.R))
	case *expr.Cmp:
		return fmt.Sprintf("(%s %v %s)", exprKey(v.L), v.Op, exprKey(v.R))
	case *expr.Logic:
		return fmt.Sprintf("(%s %d %s)", exprKey(v.L), v.Op, exprKey(v.R))
	case *expr.Not:
		return "NOT " + exprKey(v.E)
	case *expr.Call:
		return v.FnName + exprsKey(v.Args)
	}
	return fmt.Sprintf("%T", e)
}

func exprsKey(es []expr.Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = exprKey(e)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// planKey renders every field of a plan, expressions through exprKey.
func planKey(p *exec.PlanSpec) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "root %d fixpoint %d max %d\n", p.RootID, p.FixpointID, p.MaxStrata)
	for _, op := range p.Ops {
		o := *op
		fmt.Fprintf(&sb, "key %s pred %s exprs %s", exprKey(o.KeyEq), exprKey(o.Pred), exprsKey(o.Exprs))
		if o.Out != nil {
			fmt.Fprintf(&sb, " out %v", *o.Out)
		}
		for _, a := range o.Aggs {
			fmt.Fprintf(&sb, " agg %s%s %s %v", a.Fn, exprsKey(a.Args), a.OutName, a.OutKind)
		}
		merge := make([]string, 0, len(o.CompactMerge))
		for c, fn := range o.CompactMerge {
			merge = append(merge, fmt.Sprintf("%d:%s", c, fn))
		}
		sort.Strings(merge)
		o.Out, o.KeyEq, o.Pred, o.Exprs, o.Aggs, o.CompactMerge = nil, nil, nil, nil, nil, nil
		fmt.Fprintf(&sb, " merge %v %+v\n", merge, o)
	}
	return sb.String()
}

// bindBothWays compiles src with args bound in-process and through
// BindText, as a multi-process session runs it: Check, BindText, then a
// fresh compile of the text. ok=false means the in-process path refuses,
// which the session does before it binds text; otherwise bound is the
// text and err the text path's refusal, if any.
func bindBothWays(cat *catalog.Catalog, src string, args []types.Value) (inproc, text, bound string, ok bool, err error) {
	p, prep, err := CompileStmt(src, cat, 3)
	if err != nil {
		return "", "", "", false, nil
	}
	vals, err := prep.Check(args)
	if err != nil {
		return "", "", "", false, nil
	}
	if err := prep.Bind(vals); err != nil {
		return "", "", "", false, nil
	}
	inproc = planKey(p)
	if bound, err = BindText(src, vals); err != nil {
		return inproc, "", bound, true, err
	}
	tp, err := Compile(bound, cat, 3)
	if err != nil {
		return inproc, "", bound, true, err
	}
	return inproc, planKey(tp), bound, true, nil
}

// Text binding must compile to the plan in-process binding runs: a
// negative value after a minus (once lexed as a comment), one after an
// operand, the int64 extremes, -0.0, floats far from 1, and strings with
// quotes and comment markers.
func TestBindTextMatchesInProcess(t *testing.T) {
	cat := bindCatalog(t)
	cases := []struct {
		src string
		arg types.Value
	}{
		{`SELECT a FROM t WHERE a = 10 -$1`, int64(-5)},
		{`SELECT a-$1 FROM t WHERE a > 0`, int64(-5)},
		{`SELECT a FROM t WHERE a = $1`, int64(math.MinInt64)},
		{`SELECT a FROM t WHERE a < $1`, int64(math.MaxInt64)},
		{`SELECT b * $1 FROM t WHERE b > 0.0`, math.Copysign(0, -1)},
		{`SELECT a FROM t WHERE b < $1`, 1e300},
		{`SELECT a FROM t WHERE b > 1.0 -$1`, 5e-324},
		{`SELECT a FROM t WHERE a > -$1`, int64(-5)},
		{`SELECT orderkey FROM lineitem WHERE returnflag = $1`, "it's"},
		{`SELECT orderkey FROM lineitem WHERE returnflag = $1`, "a -- b"},
		{`SELECT orderkey FROM lineitem WHERE returnflag=$1AND quantity > 1.0`, "--"},
		{`SELECT a FROM t WHERE a > 1 OR$1`, true},
		{`SELECT a FROM t WHERE$1 < a`, int64(3)},
	}
	for _, c := range cases {
		inproc, text, bound, ok, err := bindBothWays(cat, c.src, []types.Value{c.arg})
		if !ok {
			t.Fatalf("%s with $1 = %v: the in-process path refuses it", c.src, c.arg)
		}
		if err != nil {
			t.Errorf("%s with $1 = %v: bound text %q: %v", c.src, c.arg, bound, err)
		} else if text != inproc {
			t.Errorf("%s with $1 = %v: bound text %q compiles to\n%s\nin-process binding runs\n%s", c.src, c.arg, bound, text, inproc)
		}
	}
}

// FuzzRQLCompile feeds arbitrary text to the parser and the compiler,
// which must return an error or a plan, never panic. It then puts $1 at
// a fuzzed byte position and binds a fuzzed int, float or string to it
// both ways: whenever the in-process path takes the statement, the text
// path must compile it to the same plan. A float with no RQL literal
// (NaN, ±Inf) is the one value the text path may refuse. Seeds under
// testdata/fuzz run in every go test.
func FuzzRQLCompile(f *testing.F) {
	cat := bindCatalog(f)
	f.Fuzz(func(t *testing.T, src string, pos uint16, kind uint8, i int64, fl float64, s string) {
		if _, err := Parse(src); err == nil {
			_, _ = Compile(src, cat, 3)
		}
		at := int(pos) % (len(src) + 1)
		withParam := src[:at] + "$1" + src[at:]
		var arg types.Value
		switch kind % 3 {
		case 0:
			arg = i
		case 1:
			arg = fl
		default:
			arg = s
		}
		inproc, text, bound, ok, err := bindBothWays(cat, withParam, []types.Value{arg})
		switch {
		case !ok:
		case err != nil:
			if f, isFloat := arg.(float64); !isFloat || !math.IsNaN(f) && !math.IsInf(f, 0) {
				t.Fatalf("%q with $1 = %#v: the text path refuses %q: %v", withParam, arg, bound, err)
			}
		case text != inproc:
			t.Fatalf("%q with $1 = %#v: bound text %q compiles to\n%s\nin-process binding runs\n%s", withParam, arg, bound, text, inproc)
		}
	})
}
