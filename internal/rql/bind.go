package rql

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/plan"
	"github.com/rex-data/rex/internal/types"
)

// aggNames are the built-in aggregate functions.
var aggNames = map[string]bool{
	"sum": true, "count": true, "min": true, "max": true,
	"avg": true, "average": true, "argmin": true,
}

// Compile parses, binds, typechecks, and optimizes an RQL query into an
// executable physical plan. Queries with $N parameters must go through
// CompileStmt (the prepared-statement path) instead.
func Compile(src string, cat *catalog.Catalog, nodes int) (*exec.PlanSpec, error) {
	p, prep, err := CompileStmt(src, cat, nodes)
	if err != nil {
		return nil, err
	}
	if prep.NumParams() > 0 {
		return nil, fmt.Errorf("rql: query has %d parameter(s); prepare it and bind values", prep.NumParams())
	}
	return p, nil
}

// Prepared carries the parameter machinery of a compiled statement: the
// shared ParamSet the plan's Param expressions read from, and the kind
// inferred for each $N placeholder.
type Prepared struct {
	Set   *expr.ParamSet
	Kinds []types.Kind // 0-based; Kinds[0] is $1
	prs   []*expr.Param
}

// NumParams reports how many distinct $N placeholders the statement uses.
func (p *Prepared) NumParams() int { return len(p.prs) }

// Check typechecks args against the inferred parameter kinds and returns
// the coerced values (integers promoted to floats where a float was
// inferred) without installing them — the read-only half of Bind, used by
// the text-binding path of multi-process sessions so type errors surface
// driver-side before a job ships.
func (p *Prepared) Check(args []types.Value) ([]types.Value, error) {
	if len(args) != len(p.prs) {
		return nil, fmt.Errorf("rql: statement wants %d parameter(s), got %d", len(p.prs), len(args))
	}
	vals := make([]types.Value, len(args))
	for i, a := range args {
		want := p.Kinds[i]
		got := types.KindOf(a)
		if got == want {
			vals[i] = a
			continue
		}
		if want == types.KindFloat && got == types.KindInt {
			f, _ := types.AsFloat(a)
			vals[i] = f
			continue
		}
		return nil, fmt.Errorf("rql: parameter $%d: got %v, want %v", i+1, got, want)
	}
	return vals, nil
}

// Bind typechecks args against the inferred parameter kinds (coercing
// integers to floats where a float was inferred) and installs them for the
// next execution of the plan.
func (p *Prepared) Bind(args []types.Value) error {
	vals, err := p.Check(args)
	if err != nil {
		return err
	}
	p.Set.Bind(vals)
	return nil
}

// CompileStmt is Compile for prepared statements: $N placeholders compile
// into the plan as bound parameter expressions whose kinds are inferred
// from context, so the plan is built once and executed many times with
// fresh values bound through the returned Prepared.
func CompileStmt(src string, cat *catalog.Catalog, nodes int) (*exec.PlanSpec, *Prepared, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	prep := &Prepared{Set: &expr.ParamSet{}}
	b := &binder{cat: cat, model: plan.NewModel(nodes), prep: prep}
	p, err := b.bindQuery(q)
	if err != nil {
		return nil, nil, err
	}
	for i, pr := range prep.prs {
		if pr == nil {
			return nil, nil, fmt.Errorf("rql: parameter $%d is never used (parameters must be numbered contiguously from $1)", i+1)
		}
		if pr.K == types.KindNull {
			return nil, nil, fmt.Errorf("rql: cannot infer the type of parameter $%d; use it in a comparison, arithmetic, or function call", i+1)
		}
		prep.Kinds = append(prep.Kinds, pr.K)
	}
	return p, prep, nil
}

type binder struct {
	cat   *catalog.Catalog
	model *plan.Model
	prep  *Prepared
	// inRecursive marks the recursive case's aggregation. Its input is a
	// stream of δ() deltas, which the insert-only pre-aggregation operator
	// (§5.2) cannot fold; the partial aggregation happens in the shuffle
	// instead, through the δ-merge the binder declares on the rehash (see
	// compactMergeFor).
	inRecursive bool
}

// paramExpr returns (creating on first use) the shared placeholder
// expression for $n.
func (b *binder) paramExpr(n int) *expr.Param {
	for len(b.prep.prs) < n {
		b.prep.prs = append(b.prep.prs, nil)
	}
	if b.prep.prs[n-1] == nil {
		b.prep.prs[n-1] = expr.NewParam(b.prep.Set, n-1, types.KindNull)
	}
	return b.prep.prs[n-1]
}

// adoptParamKind assigns k to e when e is a parameter whose kind is still
// unknown, reporting whether e now has kind k.
func adoptParamKind(e expr.Expr, k types.Kind) {
	if pr, ok := e.(*expr.Param); ok && pr.K == types.KindNull && k != types.KindNull {
		pr.K = k
	}
}

func (b *binder) bindQuery(q *Query) (*exec.PlanSpec, error) {
	p := exec.NewPlanSpec()
	if q.With != nil {
		if err := b.bindRecursive(p, q.With); err != nil {
			return nil, err
		}
		return p, nil
	}
	root, _, err := b.bindSelect(p, q.Select)
	if err != nil {
		return nil, err
	}
	p.RootID = root
	return p, nil
}

// bindSelect compiles one non-recursive select block, returning the root
// op id and its output schema.
func (b *binder) bindSelect(p *exec.PlanSpec, s *SelectStmt) (int, *types.Schema, error) {
	if len(s.From) != 1 {
		return 0, nil, fmt.Errorf("rql: non-recursive selects support a single FROM item (got %d); use the recursive form for joins with delta handlers", len(s.From))
	}
	srcID, schema, err := b.bindFrom(p, &s.From[0])
	if err != nil {
		return 0, nil, err
	}

	// WHERE: conjuncts become filters, ordered by predicate-migration
	// rank (§5.1) using catalog cost metadata for UDF calls.
	cur := srcID
	if s.Where != nil {
		conjuncts := splitConjuncts(s.Where)
		infos := make([]plan.PredInfo, len(conjuncts))
		bound := make([]expr.Expr, len(conjuncts))
		for i, c := range conjuncts {
			e, err := b.bindExpr(c, schema)
			if err != nil {
				return 0, nil, err
			}
			adoptParamKind(e, types.KindBool) // WHERE $1 AND …: a lone parameter is a boolean
			if e.Kind() != types.KindBool {
				return 0, nil, fmt.Errorf("rql: WHERE conjunct %s is not boolean", e)
			}
			bound[i] = e
			infos[i] = b.predInfo(c)
		}
		if from := &s.From[0]; from.Sub == nil {
			tab, err := b.cat.Table(from.Table)
			if err != nil {
				return 0, nil, err
			}
			p.Op(srcID).KeyEq = keyEquality(bound, tab.PartitionKey)
		}
		for _, idx := range plan.OrderPredicates(infos) {
			f := p.Add(&exec.OpSpec{Kind: exec.OpFilter, Inputs: []int{cur}, Pred: bound[idx]})
			cur = f.ID
		}
	}

	if len(s.GroupBy) > 0 || hasAggregate(s) {
		return b.bindAggregate(p, s, cur, schema)
	}

	// Plain projection.
	exprs, outSchema, err := b.bindProjection(s.Items, schema)
	if err != nil {
		return 0, nil, err
	}
	proj := p.Add(&exec.OpSpec{Kind: exec.OpProject, Inputs: []int{cur}, Exprs: exprs, Out: outSchema})
	return proj.ID, outSchema, nil
}

func (b *binder) bindFrom(p *exec.PlanSpec, f *FromItem) (int, *types.Schema, error) {
	if f.Sub != nil {
		id, schema, err := b.bindSelect(p, f.Sub)
		if err != nil {
			return 0, nil, err
		}
		if f.Alias != "" {
			schema = schema.Rename(f.Alias)
		}
		return id, schema, nil
	}
	tab, err := b.cat.Table(f.Table)
	if err != nil {
		return 0, nil, err
	}
	scan := p.Add(&exec.OpSpec{Kind: exec.OpScan, Table: f.Table, Out: tab.Schema})
	schema := tab.Schema
	if f.Alias != "" {
		schema = schema.Rename(f.Alias)
	}
	return scan.ID, schema, nil
}

// bindAggregate compiles GROUP BY blocks: project grouping keys and agg
// arguments, optionally pre-aggregate (§5.2), rehash by key, aggregate,
// then project the final select expressions.
func (b *binder) bindAggregate(p *exec.PlanSpec, s *SelectStmt, cur int, schema *types.Schema) (int, *types.Schema, error) {
	// Collect aggregate calls from the select items, rewriting them to
	// placeholder column references over the group-by output.
	var aggSpecs []exec.AggSpec
	finalItems := make([]SelectItem, len(s.Items))
	copy(finalItems, s.Items)

	type aggRef struct{ idx int }
	aggCols := map[string]aggRef{}
	var collect func(e Expr) (Expr, error)
	collect = func(e Expr) (Expr, error) {
		switch v := e.(type) {
		case *CallExpr:
			if aggNames[strings.ToLower(v.Fn)] {
				key := exprString(v)
				if _, ok := aggCols[key]; !ok {
					var args []expr.Expr
					outKind := types.KindFloat
					if !v.Star {
						for _, a := range v.Args {
							be, err := b.bindExpr(a, schema)
							if err != nil {
								return nil, err
							}
							args = append(args, be)
						}
						if len(args) > 0 {
							outKind = args[0].Kind()
						}
					}
					fn := strings.ToLower(v.Fn)
					if fn == "count" {
						outKind = types.KindInt
						args = nil
					}
					aggCols[key] = aggRef{idx: len(aggSpecs)}
					aggSpecs = append(aggSpecs, exec.AggSpec{
						Fn: fn, Args: args,
						OutName: fmt.Sprintf("agg%d", len(aggSpecs)), OutKind: outKind,
					})
				}
				return &Ident{Name: fmt.Sprintf("#agg%d", aggCols[key].idx)}, nil
			}
			out := &CallExpr{Fn: v.Fn, Star: v.Star}
			for _, a := range v.Args {
				na, err := collect(a)
				if err != nil {
					return nil, err
				}
				out.Args = append(out.Args, na)
			}
			return out, nil
		case *BinExpr:
			l, err := collect(v.L)
			if err != nil {
				return nil, err
			}
			r, err := collect(v.R)
			if err != nil {
				return nil, err
			}
			return &BinExpr{Op: v.Op, L: l, R: r}, nil
		case *NotExpr:
			inner, err := collect(v.E)
			if err != nil {
				return nil, err
			}
			return &NotExpr{E: inner}, nil
		default:
			return e, nil
		}
	}
	for i := range finalItems {
		if finalItems[i].Expr == nil {
			continue
		}
		ne, err := collect(finalItems[i].Expr)
		if err != nil {
			return 0, nil, err
		}
		finalItems[i].Expr = ne
	}
	if len(aggSpecs) == 0 {
		return 0, nil, fmt.Errorf("rql: GROUP BY without aggregates is unsupported")
	}

	// Grouping keys: resolve in input schema. Grouping by a constant 0
	// (global aggregate) when no GROUP BY is given.
	groupExprs := []expr.Expr{}
	groupFields := []types.Field{}
	if len(s.GroupBy) == 0 {
		groupExprs = append(groupExprs, expr.NewConst(int64(0)))
		groupFields = append(groupFields, types.Field{Name: "#g", Kind: types.KindInt})
	}
	for _, g := range s.GroupBy {
		idx := schema.ColIndex(g)
		if idx < 0 {
			return 0, nil, fmt.Errorf("rql: unknown GROUP BY column %q", g)
		}
		groupExprs = append(groupExprs, expr.NewCol(idx, schema.Fields[idx].Kind, g))
		groupFields = append(groupFields, types.Field{Name: g, Kind: schema.Fields[idx].Kind})
	}

	// Pre-groupby projection: [groupKeys..., aggArgs...].
	preExprs := append([]expr.Expr{}, groupExprs...)
	preFields := append([]types.Field{}, groupFields...)
	reboundAggs := make([]exec.AggSpec, len(aggSpecs))
	for i, as := range aggSpecs {
		reboundAggs[i] = exec.AggSpec{Fn: as.Fn, OutName: as.OutName, OutKind: as.OutKind}
		for j, arg := range as.Args {
			col := len(preExprs)
			preExprs = append(preExprs, arg)
			preFields = append(preFields, types.Field{Name: fmt.Sprintf("#a%d_%d", i, j), Kind: arg.Kind()})
			reboundAggs[i].Args = append(reboundAggs[i].Args,
				expr.NewCol(col, arg.Kind(), preFields[col].Name))
		}
	}
	// An identity projection (Listing 1's `GROUP BY nbr … sum(prDiff)` over
	// (nbr, prDiff)) would only copy every row, so the input feeds the
	// group-by as is — when it declares its schema, which a pre-aggregate's
	// argument kernels compile against (a filter declares none).
	if !isIdentity(preExprs, schema.Len()) || p.Op(cur).Out == nil {
		proj := p.Add(&exec.OpSpec{
			Kind: exec.OpProject, Inputs: []int{cur},
			Exprs: preExprs, Out: &types.Schema{Fields: preFields},
		})
		cur = proj.ID
	}
	keyIdx := make([]int, len(groupExprs))
	for i := range keyIdx {
		keyIdx[i] = i
	}

	// Pre-aggregation pushdown (§5.2): composable built-ins only, when
	// the model predicts the data collapses. avg decomposes into
	// sum/count at the physical level, so it is excluded here.
	preAggOK := true
	for _, as := range reboundAggs {
		if as.Fn == "avg" || as.Fn == "average" || as.Fn == "argmin" {
			preAggOK = false
		}
	}
	tabRows := 1e6
	if preAggOK && !b.inRecursive && b.model.PreAggDecision(tabRows, 1000, true) {
		preOut := append([]types.Field{}, groupFields...)
		for _, as := range reboundAggs {
			preOut = append(preOut, types.Field{Name: as.OutName, Kind: as.OutKind})
		}
		pre := p.Add(&exec.OpSpec{
			Kind: exec.OpPreAgg, Inputs: []int{cur}, GroupKey: keyIdx, Aggs: reboundAggs,
			Out: &types.Schema{Fields: preOut},
		})
		cur = pre.ID
		// Downstream count must fold partial counts, which arrive as a
		// value column after the keys.
		rb := make([]exec.AggSpec, len(reboundAggs))
		copy(rb, reboundAggs)
		for i := range rb {
			col := len(keyIdx) + i
			kind := rb[i].OutKind
			rb[i].Args = []expr.Expr{expr.NewCol(col, kind, rb[i].OutName)}
		}
		reboundAggs = rb
	}

	// The rehash declares its input's schema so the group-by behind it
	// compiles its argument kernels.
	rehash := p.Add(&exec.OpSpec{Kind: exec.OpRehash, Inputs: []int{cur}, HashKey: keyIdx, Out: p.Op(cur).Out})
	if b.inRecursive {
		rehash.CompactMerge = compactMergeFor(aggSpecs, len(keyIdx))
	}
	gby := p.Add(&exec.OpSpec{
		Kind: exec.OpGroupBy, Inputs: []int{rehash.ID}, GroupKey: keyIdx, Aggs: reboundAggs,
	})

	// Final projection over [groupKeys..., aggResults...].
	gbyFields := append([]types.Field{}, groupFields...)
	for _, as := range reboundAggs {
		gbyFields = append(gbyFields, types.Field{Name: as.OutName, Kind: as.OutKind})
	}
	gbySchema := &types.Schema{Fields: gbyFields}
	// Make #aggN names resolvable.
	for i := range reboundAggs {
		gbySchema.Fields[len(groupFields)+i].Name = fmt.Sprintf("#agg%d", i)
	}
	exprs, outSchema, err := b.bindProjection(finalItems, gbySchema)
	if err != nil {
		return 0, nil, err
	}
	final := p.Add(&exec.OpSpec{Kind: exec.OpProject, Inputs: []int{gby.ID}, Exprs: exprs, Out: outSchema})
	return final.ID, outSchema, nil
}

// isIdentity reports whether exprs are exactly Col(0) … Col(width-1).
func isIdentity(exprs []expr.Expr, width int) bool {
	if len(exprs) != width {
		return false
	}
	for i, e := range exprs {
		if c, ok := e.(*expr.Col); !ok || c.Idx != i {
			return false
		}
	}
	return true
}

// compactMergeFor derives the δ-merge a recursive case's rehash may apply
// (exec.OpSpec.CompactMerge) from the group-by it feeds: when every
// aggregate is sum, min or max over a bare column, two same-key δ() deltas
// fold into one with the same function the group-by would apply to both —
// Listing 1's partial PageRank sums combine before the wire. Any other
// aggregate (count and avg need the row count, argmin its companion
// column) or an expression argument declares nothing. The pre-group-by
// projection lays agg i's argument at column nkeys+i.
func compactMergeFor(aggs []exec.AggSpec, nkeys int) map[int]string {
	merge := map[int]string{}
	for i, as := range aggs {
		if as.Fn != "sum" && as.Fn != "min" && as.Fn != "max" {
			return nil
		}
		if len(as.Args) != 1 {
			return nil
		}
		if _, bare := as.Args[0].(*expr.Col); !bare {
			return nil
		}
		merge[nkeys+i] = as.Fn
	}
	return merge
}

func (b *binder) bindProjection(items []SelectItem, schema *types.Schema) ([]expr.Expr, *types.Schema, error) {
	var exprs []expr.Expr
	out := &types.Schema{}
	for i, item := range items {
		if item.Star {
			for c, f := range schema.Fields {
				exprs = append(exprs, expr.NewCol(c, f.Kind, f.Name))
				out.Fields = append(out.Fields, f)
			}
			continue
		}
		e, err := b.bindExpr(item.Expr, schema)
		if err != nil {
			return nil, nil, err
		}
		name := item.Alias
		if name == "" {
			if id, ok := item.Expr.(*Ident); ok {
				name = id.Name
			} else {
				name = fmt.Sprintf("col%d", i)
			}
		}
		exprs = append(exprs, e)
		out.Fields = append(out.Fields, types.Field{Name: name, Kind: e.Kind()})
	}
	return exprs, out, nil
}

// bindExpr binds and typechecks an AST expression against a schema.
func (b *binder) bindExpr(e Expr, schema *types.Schema) (expr.Expr, error) {
	switch v := e.(type) {
	case *Ident:
		idx := schema.ColIndex(v.Name)
		if idx < 0 {
			return nil, fmt.Errorf("rql: unknown column %q in %s", v.Name, schema)
		}
		return expr.NewCol(idx, schema.Fields[idx].Kind, v.Name), nil
	case *NumberLit:
		if v.IsInt {
			n, err := strconv.ParseInt(v.Text, 10, 64)
			if err != nil {
				return nil, err
			}
			return expr.NewConst(n), nil
		}
		f, err := strconv.ParseFloat(v.Text, 64)
		if err != nil {
			return nil, err
		}
		return expr.NewConst(f), nil
	case *StringLit:
		return expr.NewConst(v.Val), nil
	case *BoolLit:
		return expr.NewConst(v.Val), nil
	case *ParamRef:
		return b.paramExpr(v.N), nil
	case *NotExpr:
		inner, err := b.bindExpr(v.E, schema)
		if err != nil {
			return nil, err
		}
		adoptParamKind(inner, types.KindBool)
		if inner.Kind() != types.KindBool {
			return nil, fmt.Errorf("rql: NOT requires a boolean, got %v", inner.Kind())
		}
		return expr.NewNot(inner), nil
	case *BinExpr:
		l, err := b.bindExpr(v.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(v.R, schema)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "+", "-", "*", "/", "%":
			// A parameter's kind is inferred from its partner operand;
			// two parameters (or a parameter alone, via unary minus
			// rewriting) default to float.
			adoptParamKind(l, r.Kind())
			adoptParamKind(r, l.Kind())
			adoptParamKind(l, types.KindFloat)
			adoptParamKind(r, types.KindFloat)
			for _, side := range []expr.Expr{l, r} {
				if k := side.Kind(); k != types.KindInt && k != types.KindFloat {
					return nil, fmt.Errorf("rql: arithmetic over non-numeric %v", k)
				}
			}
			ops := map[string]expr.ArithOp{"+": expr.OpAdd, "-": expr.OpSub, "*": expr.OpMul, "/": expr.OpDiv, "%": expr.OpMod}
			return expr.NewArith(ops[v.Op], l, r), nil
		case "=", "<>", "<", "<=", ">", ">=":
			adoptParamKind(l, r.Kind())
			adoptParamKind(r, l.Kind())
			adoptParamKind(l, types.KindFloat)
			adoptParamKind(r, types.KindFloat)
			lk, rk := l.Kind(), r.Kind()
			numeric := func(k types.Kind) bool { return k == types.KindInt || k == types.KindFloat }
			if lk != rk && !(numeric(lk) && numeric(rk)) {
				return nil, fmt.Errorf("rql: cannot compare %v with %v", lk, rk)
			}
			ops := map[string]expr.CmpOp{"=": expr.OpEq, "<>": expr.OpNe, "<": expr.OpLt, "<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe}
			return expr.NewCmp(ops[v.Op], l, r), nil
		case "AND", "OR":
			adoptParamKind(l, types.KindBool)
			adoptParamKind(r, types.KindBool)
			if l.Kind() != types.KindBool || r.Kind() != types.KindBool {
				return nil, fmt.Errorf("rql: %s requires booleans", v.Op)
			}
			op := expr.OpAnd
			if v.Op == "OR" {
				op = expr.OpOr
			}
			return expr.NewLogic(op, l, r), nil
		}
		return nil, fmt.Errorf("rql: unknown operator %q", v.Op)
	case *CallExpr:
		def, err := b.cat.Func(v.Fn)
		if err != nil {
			return nil, fmt.Errorf("rql: %w (aggregates are only valid in GROUP BY selects)", err)
		}
		if len(def.ArgKinds) > 0 && len(def.ArgKinds) != len(v.Args) {
			return nil, fmt.Errorf("rql: %s expects %d args, got %d", v.Fn, len(def.ArgKinds), len(v.Args))
		}
		var args []expr.Expr
		for i, a := range v.Args {
			ba, err := b.bindExpr(a, schema)
			if err != nil {
				return nil, err
			}
			if len(def.ArgKinds) > i {
				adoptParamKind(ba, def.ArgKinds[i])
			}
			if len(def.ArgKinds) > i && ba.Kind() != def.ArgKinds[i] && def.ArgKinds[i] != types.KindNull {
				return nil, fmt.Errorf("rql: %s arg %d: got %v, want %v", v.Fn, i, ba.Kind(), def.ArgKinds[i])
			}
			args = append(args, ba)
		}
		return expr.NewCall(def.Name, def.Fn, def.RetKind, def.Deterministic, args...), nil
	}
	return nil, fmt.Errorf("rql: cannot bind %T", e)
}

func (b *binder) predInfo(e Expr) plan.PredInfo {
	info := plan.PredInfo{CostPerTuple: 0.1, Selectivity: 0.33}
	var walk func(Expr)
	walk = func(x Expr) {
		switch v := x.(type) {
		case *CallExpr:
			if def, err := b.cat.Func(v.Fn); err == nil {
				info.Name = def.Name
				info.CostPerTuple = def.CostPerTuple
				info.Selectivity = def.Selectivity
			}
		case *BinExpr:
			walk(v.L)
			walk(v.R)
		case *NotExpr:
			walk(v.E)
		}
	}
	walk(e)
	return info
}

// keyEquality finds a conjunct of the shape `partition key = <row-free
// expression>` (either way round) and returns that expression, for the
// scan to look the key up instead of walking the table; nil when there is
// none. The operand must have exactly the key column's kind: the index is
// addressed by value hash, and values of different kinds can compare equal
// without hashing alike. The conjunct stays in the plan as a filter.
func keyEquality(conjuncts []expr.Expr, keyCol int) expr.Expr {
	for _, c := range conjuncts {
		cmp, ok := c.(*expr.Cmp)
		if !ok || cmp.Op != expr.OpEq {
			continue
		}
		for _, side := range [2][2]expr.Expr{{cmp.L, cmp.R}, {cmp.R, cmp.L}} {
			col, ok := side[0].(*expr.Col)
			if ok && col.Idx == keyCol && rowFree(side[1]) &&
				side[1].Kind() == col.K && col.K != types.KindNull {
				return side[1]
			}
		}
	}
	return nil
}

// rowFree reports whether e is built only from literals and parameters,
// so it has one value per execution (-(7) parses as 0 - 7).
func rowFree(e expr.Expr) bool {
	switch v := e.(type) {
	case *expr.Const, *expr.Param:
		return true
	case *expr.Arith:
		return rowFree(v.L) && rowFree(v.R)
	}
	return false
}

func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*BinExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

func hasAggregate(s *SelectStmt) bool {
	var found bool
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *CallExpr:
			if aggNames[strings.ToLower(v.Fn)] {
				found = true
			}
			for _, a := range v.Args {
				walk(a)
			}
		case *BinExpr:
			walk(v.L)
			walk(v.R)
		case *NotExpr:
			walk(v.E)
		}
	}
	for _, it := range s.Items {
		if it.Expr != nil {
			walk(it.Expr)
		}
	}
	return found
}

func exprString(e Expr) string {
	switch v := e.(type) {
	case *Ident:
		return v.Name
	case *NumberLit:
		return v.Text
	case *StringLit:
		return "'" + v.Val + "'"
	case *BoolLit:
		return fmt.Sprint(v.Val)
	case *BinExpr:
		return "(" + exprString(v.L) + v.Op + exprString(v.R) + ")"
	case *NotExpr:
		return "NOT " + exprString(v.E)
	case *ParamRef:
		return fmt.Sprintf("$%d", v.N)
	case *CallExpr:
		parts := make([]string, len(v.Args))
		for i, a := range v.Args {
			parts[i] = exprString(a)
		}
		if v.Star {
			parts = []string{"*"}
		}
		return v.Fn + "(" + strings.Join(parts, ",") + ")"
	}
	return "?"
}
