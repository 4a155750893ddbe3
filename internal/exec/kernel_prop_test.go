package exec

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
)

// Operator-level kernel property: filter, project, group-by and
// pre-aggregation, built once with compiled kernels and once with
// interpreter-only ones, must each emit exactly the deltas of a
// row-at-a-time model that puts every row through the interpreter — op
// for op, tuple for tuple, old image for old image — including the
// error, text and all, when a batch contains rows the expression
// rejects. The operators only read the input batch, so one batch feeds
// every side.

// kpSchema: 0 int, 1 float, 2 nullable int, 3 declared-int that may
// drift to boxed-any.
var kpSchema = []types.Kind{types.KindInt, types.KindFloat, types.KindInt, types.KindInt}

func kpValue(r *rand.Rand, col int) types.Value {
	switch col {
	case 0:
		return int64(r.Intn(6) - 2)
	case 1:
		return float64(r.Intn(8)) / 2
	case 2:
		if r.Intn(5) == 0 {
			return nil
		}
		return int64(r.Intn(4))
	default:
		if r.Intn(4) == 0 {
			return "drift"
		}
		return int64(r.Intn(4))
	}
}

func kpTuple(r *rand.Rand) types.Tuple {
	t := make(types.Tuple, len(kpSchema))
	for c := range t {
		t[c] = kpValue(r, c)
	}
	return t
}

// kpBatch mixes inserts, updates, deletes and replaces; one batch in
// eight carries its replaces without old images.
func kpBatch(r *rand.Rand, n int) *types.DeltaBatch {
	noOld := r.Intn(8) == 0
	ds := make([]types.Delta, n)
	for i := range ds {
		tup := kpTuple(r)
		switch r.Intn(5) {
		case 0:
			ds[i] = types.Insert(tup)
		case 1:
			ds[i] = types.Update(tup)
		case 2:
			ds[i] = types.Delete(tup)
		default:
			ds[i] = types.Replace(kpTuple(r), tup)
			if noOld {
				ds[i].Old = nil
			}
		}
	}
	b, ok := types.FromDeltas(ds)
	if !ok {
		panic("uniform-arity deltas must batch")
	}
	return b
}

func kpExpr(r *rand.Rand, depth int) expr.Expr {
	if depth <= 0 {
		if r.Intn(3) == 0 {
			if r.Intn(2) == 0 {
				return expr.NewConst(int64(r.Intn(4)))
			}
			return expr.NewConst(float64(r.Intn(4)))
		}
		c := r.Intn(len(kpSchema))
		return expr.NewCol(c, kpSchema[c], "c")
	}
	sub := func() expr.Expr { return kpExpr(r, depth-1) }
	switch r.Intn(3) {
	case 0:
		return expr.NewArith(expr.ArithOp(r.Intn(5)), sub(), sub())
	default:
		return expr.NewCmp(expr.CmpOp(r.Intn(6)), sub(), sub())
	}
}

func kpPred(r *rand.Rand, depth int) expr.Expr {
	p := kpExpr(r, 1+r.Intn(2))
	if p.Kind() != types.KindBool {
		p = expr.NewCmp(expr.OpGt, p, expr.NewConst(int64(1)))
	}
	if depth > 0 && r.Intn(3) == 0 {
		p = expr.NewLogic(expr.LogicOp(r.Intn(2)), p, kpPred(r, depth-1))
	}
	if r.Intn(5) == 0 {
		p = expr.NewNot(p)
	}
	return p
}

// kpTupEq is Tuple.Equal with NaN equal to itself: float aggregates can
// legitimately produce NaN on both paths, which must not read as a
// divergence.
func kpTupEq(a, b types.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if x, ok := a[i].(float64); ok {
			if y, ok := b[i].(float64); ok && math.IsNaN(x) && math.IsNaN(y) {
				continue
			}
		}
		if !types.ValueEq(a[i], b[i]) {
			return false
		}
	}
	return true
}

func kpSameDeltas(t *testing.T, label string, got, want []types.Delta) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: operator emitted %d deltas, model %d\noperator: %v\nmodel: %v",
			label, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Op != w.Op || !kpTupEq(g.Tup, w.Tup) ||
			(g.Old == nil) != (w.Old == nil) ||
			(g.Old != nil && !kpTupEq(g.Old, w.Old)) {
			t.Fatalf("%s: delta %d differs\noperator: %v\nmodel: %v", label, i, g, w)
		}
	}
}

func kpSameErr(t *testing.T, label string, kerr, berr error) {
	t.Helper()
	if (kerr == nil) != (berr == nil) {
		t.Fatalf("%s: operator err %v, model err %v", label, kerr, berr)
	}
	if kerr != nil && kerr.Error() != berr.Error() {
		t.Fatalf("%s: operator err %q, model err %q", label, kerr, berr)
	}
}

// modelFilter is the row-at-a-time filter: every row's predicate through
// expr.EvalBool, a replace's old image before its new one, stopping at
// the first error. A replace whose images fall on different sides
// degrades to a bare delete or insert; in a batch without old images a
// replace is judged on its new image alone.
func modelFilter(pred expr.Expr, b *types.DeltaBatch) ([]types.Delta, error) {
	var out []types.Delta
	for i := 0; i < b.Len(); i++ {
		d := b.Delta(i)
		if d.Op == types.OpReplace && b.HasOld() {
			oldOK, err := expr.EvalBool(pred, d.Old)
			if err != nil {
				return nil, err
			}
			newOK, err := expr.EvalBool(pred, d.Tup)
			if err != nil {
				return nil, err
			}
			switch {
			case oldOK && newOK:
				out = append(out, d)
			case oldOK:
				out = append(out, types.Delete(d.Old))
			case newOK:
				out = append(out, types.Insert(d.Tup))
			}
			continue
		}
		ok, err := expr.EvalBool(pred, d.Tup)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, d)
		}
	}
	return out, nil
}

// modelProject is the row-at-a-time projection: every row's expressions
// through Expr.Eval, in order, then a replace's over its old image (an
// empty tuple when the batch has none), stopping at the first error. A
// replace the projection makes a no-op is dropped.
func modelProject(exprs []expr.Expr, b *types.DeltaBatch) ([]types.Delta, error) {
	apply := func(t types.Tuple) (types.Tuple, error) {
		out := make(types.Tuple, len(exprs))
		for i, e := range exprs {
			v, err := e.Eval(t)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var out []types.Delta
	for i := 0; i < b.Len(); i++ {
		nt, err := apply(b.Row(i, nil))
		if err != nil {
			return nil, err
		}
		d := types.Delta{Op: b.Op(i), Tup: nt}
		if d.Op == types.OpReplace {
			ot, err := apply(b.OldRow(i, nil))
			if err != nil {
				return nil, err
			}
			if nt.Equal(ot) {
				continue
			}
			d.Old = ot
		}
		out = append(out, d)
	}
	return out, nil
}

// modelArgs is the row-at-a-time argument evaluation of group-by and
// pre-aggregation: row by row, aggregate by aggregate, each argument
// through Expr.Eval over the new image, then over a replacement's old
// image, stopping at the first error; the values are laid out as the
// vectors the fold reads.
func modelArgs(a *aggArgs, specs []AggSpec, b *types.DeltaBatch) error {
	n := b.Len()
	vals := make([][][]types.Value, len(specs))
	oldVals := make([][][]types.Value, len(specs))
	for i, as := range specs {
		vals[i], oldVals[i] = make([][]types.Value, len(as.Args)), make([][]types.Value, len(as.Args))
		for j := range as.Args {
			vals[i][j], oldVals[i][j] = make([]types.Value, n), make([]types.Value, n)
		}
	}
	for r := 0; r < n; r++ {
		tup := b.Row(r, nil)
		replace := b.Op(r) == types.OpReplace
		old := b.OldRow(r, nil)
		for i, as := range specs {
			for j, e := range as.Args {
				v, err := e.Eval(tup)
				if err != nil {
					return err
				}
				vals[i][j][r] = v
			}
			if !replace {
				continue
			}
			for j, e := range as.Args {
				v, err := e.Eval(old)
				if err != nil {
					return err
				}
				oldVals[i][j][r] = v
			}
		}
	}
	for i := range specs {
		for j := range specs[i].Args {
			a.argVecs[i][j] = new(types.Vec)
			a.argVecs[i][j].SetValues(vals[i][j])
			a.oldVecs[i][j].SetValues(oldVals[i][j])
		}
	}
	return nil
}

// kpModes runs check once with compiled kernels and once with
// interpreter-only ones.
func kpModes(check func(compile bool, mode string)) {
	check(true, "compiled")
	check(false, "interpreted")
}

func TestFilterKernelMatchesBridge(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	kernelled := 0
	for iter := 0; iter < 800; iter++ {
		pred := kpPred(r, 2)
		b := kpBatch(r, 1+r.Intn(20))
		want, merr := modelFilter(pred, b)
		kpModes(func(compile bool, mode string) {
			f := newFilterOp(pred, kpSchema, compile)
			if !f.ks.bridged {
				kernelled++
			}
			c := &collector{}
			f.outs = outputs{{op: c, port: 0}}
			err := f.Push(0, b)
			label := mode + " " + pred.String()
			kpSameErr(t, label, err, merr)
			if err == nil {
				kpSameDeltas(t, label, c.deltas, want)
			}
		})
	}
	if kernelled < 200 {
		t.Fatalf("only %d of 800 predicates compiled to kernels", kernelled)
	}
}

func TestProjectKernelMatchesBridge(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	kernelled := 0
	for iter := 0; iter < 800; iter++ {
		exprs := make([]expr.Expr, 1+r.Intn(3))
		for i := range exprs {
			exprs[i] = kpExpr(r, r.Intn(3))
		}
		b := kpBatch(r, 1+r.Intn(20))
		want, merr := modelProject(exprs, b)
		label := ""
		for _, e := range exprs {
			label += e.String() + "; "
		}
		kpModes(func(compile bool, mode string) {
			p := newProjectOp(exprs, nil, kpSchema, compile)
			if !p.ks.bridged {
				kernelled++
			}
			c := &collector{}
			p.outs = outputs{{op: c, port: 0}}
			err := p.Push(0, b)
			kpSameErr(t, mode+" "+label, err, merr)
			if err == nil {
				kpSameDeltas(t, mode+" "+label, c.deltas, want)
			}
		})
	}
	if kernelled < 200 {
		t.Fatalf("only %d of 800 projections compiled to kernels", kernelled)
	}
}

// kpFlush drives a stratum-0 punctuation and returns the flushed deltas
// in a canonical order (group flush iterates a map).
func kpFlush(t *testing.T, op Operator, c *collector) []types.Delta {
	t.Helper()
	if err := op.Punct(0, 0, true); err != nil {
		t.Fatal(err)
	}
	out := append([]types.Delta(nil), c.deltas...)
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func TestGroupByKernelMatchesBridge(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	kernelled := 0
	for iter := 0; iter < 300; iter++ {
		spec := &OpSpec{
			GroupKey: []int{r.Intn(2)},
			Aggs: []AggSpec{
				{Fn: []string{"sum", "count", "min", "max", "avg"}[r.Intn(5)],
					Args: []expr.Expr{kpExpr(r, r.Intn(2))}, OutName: "a"},
			},
		}
		if spec.Aggs[0].Fn == "count" && r.Intn(2) == 0 {
			spec.Aggs[0].Args = nil // count(*)
		}
		b := kpBatch(r, 1+r.Intn(20))
		mg, err := newGroupByOp(spec, 1, nil, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		mc := &collector{}
		mg.outs = outputs{{op: mc, port: 0}}
		merr := modelArgs(&mg.aggArgs, spec.Aggs, b)
		if merr == nil {
			mg.oldRows = b.AppendReplaceRows(nil)
			merr = mg.fold(b)
		}
		var want []types.Delta
		if merr == nil {
			want = kpFlush(t, mg, mc)
		}
		kpModes(func(compile bool, mode string) {
			g, err := newGroupByOp(spec, 1, nil, kpSchema, compile)
			if err != nil {
				t.Fatal(err)
			}
			if !g.ks.bridged {
				kernelled++
			}
			c := &collector{}
			g.outs = outputs{{op: c, port: 0}}
			err = g.Push(0, b)
			label := mode + " " + spec.Aggs[0].Fn
			kpSameErr(t, label, err, merr)
			if err == nil {
				kpSameDeltas(t, label, kpFlush(t, g, c), want)
			}
		})
	}
	if kernelled < 100 {
		t.Fatalf("only %d of 300 group-bys compiled arg kernels", kernelled)
	}
}

func TestPreAggKernelMatchesBridge(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	kernelled := 0
	for iter := 0; iter < 300; iter++ {
		spec := &OpSpec{
			GroupKey: []int{r.Intn(2)},
			Aggs: []AggSpec{
				{Fn: []string{"sum", "count", "min", "max"}[r.Intn(4)],
					Args: []expr.Expr{kpExpr(r, r.Intn(2))}, OutName: "a"},
			},
		}
		b := kpBatch(r, 1+r.Intn(20))
		mp, err := newPreAggOp(spec, 1, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		mc := &collector{}
		mp.outs = outputs{{op: mc, port: 0}}
		merr := mp.admit(b)
		if merr == nil {
			merr = modelArgs(&mp.aggArgs, spec.Aggs, b)
		}
		if merr == nil {
			merr = mp.fold(b)
		}
		var want []types.Delta
		if merr == nil {
			want = kpFlush(t, mp, mc)
		}
		kpModes(func(compile bool, mode string) {
			p, err := newPreAggOp(spec, 1, kpSchema, compile)
			if err != nil {
				t.Fatal(err)
			}
			if !p.ks.bridged {
				kernelled++
			}
			c := &collector{}
			p.outs = outputs{{op: c, port: 0}}
			err = p.Push(0, b)
			label := mode + " " + spec.Aggs[0].Fn
			kpSameErr(t, label, err, merr)
			if err == nil {
				kpSameDeltas(t, label, kpFlush(t, p, c), want)
			}
		})
	}
	if kernelled < 100 {
		t.Fatalf("only %d of 300 pre-aggs compiled arg kernels", kernelled)
	}
}

// kpChainBatch is a kpBatch, or one without replace rows (the batches a
// kernel filter hands on as a selection), with NaN and −0 mixed into the
// float column.
func kpChainBatch(r *rand.Rand, n int) *types.DeltaBatch {
	ds := kpBatch(r, n).Deltas()
	noReplace := r.Intn(2) == 0
	for i := range ds {
		if noReplace && ds[i].Op == types.OpReplace {
			ds[i] = types.Insert(ds[i].Tup)
		}
		for _, t := range []types.Tuple{ds[i].Tup, ds[i].Old} {
			if t == nil {
				continue
			}
			switch r.Intn(6) {
			case 0:
				t[1] = math.NaN()
			case 1:
				t[1] = math.Copysign(0, -1)
			}
		}
	}
	b, ok := types.FromDeltas(ds)
	if !ok {
		panic("uniform-arity deltas must batch")
	}
	return b
}

// kpChain builds filters → project over kpSchema, wired as a worker wires
// them but for a selCounter in front of the project, and returns its head
// and the counter.
func kpChain(preds, exprs []expr.Expr, compile bool, sink Operator) (Operator, *selCounter) {
	p := &selCounter{projectOp: newProjectOp(exprs, nil, kpSchema, compile)}
	p.outs = outputs{{op: sink, port: 0}}
	fs := make([]*filterOp, len(preds))
	for i, pred := range preds {
		fs[i] = newFilterOp(pred, kpSchema, compile)
	}
	for i, f := range fs {
		if i+1 < len(fs) {
			f.outs = outputs{{op: fs[i+1], port: 0}}
		} else {
			f.outs = outputs{{op: p, port: 0}}
		}
	}
	return fs[0], p
}

// selCounter is the project with its two entry points counted: a batch
// the last filter gathered (Push) or a selection it handed on (pushSel).
type selCounter struct {
	*projectOp
	pushes, sels int
}

func (c *selCounter) Push(port int, b *types.DeltaBatch) error {
	c.pushes++
	return c.projectOp.Push(port, b)
}

func (c *selCounter) pushSel(b *types.DeltaBatch, sel []int32) error {
	c.sels++
	return c.projectOp.pushSel(b, sel)
}

// modelChain runs the row-at-a-time models of the filters, then of the
// project, each over the previous stage's output batch.
func modelChain(preds, exprs []expr.Expr, b *types.DeltaBatch) ([]types.Delta, error) {
	for _, pred := range preds {
		ds, err := modelFilter(pred, b)
		if err != nil || len(ds) == 0 {
			return nil, err
		}
		var ok bool
		if b, ok = types.FromDeltas(ds); !ok {
			panic("a filter's output must batch")
		}
	}
	return modelProject(exprs, b)
}

// TestKernelChainMatchesBridge: a chain of 1–3 filters feeding a project,
// where each filter hands its survivors on as a selection, emits exactly
// the deltas — or the error — of the row-at-a-time models of the same
// stages, with compiled and with interpreter-only kernels. A later
// conjunct must never see a row an earlier one dropped: the guard pair
// c0 <> 0, 10 / c0 > 1 runs every fourth chain.
func TestKernelChainMatchesBridge(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	c0 := expr.NewCol(0, types.KindInt, "c0")
	handedOn := 0
	for iter := 0; iter < 1200; iter++ {
		var preds []expr.Expr
		if iter%4 == 0 {
			preds = []expr.Expr{
				expr.NewCmp(expr.OpNe, c0, expr.NewConst(int64(0))),
				expr.NewCmp(expr.OpGt, expr.NewArith(expr.OpDiv, expr.NewConst(int64(10)), c0), expr.NewConst(int64(1))),
			}
		} else {
			preds = make([]expr.Expr, 1+r.Intn(3))
			for i := range preds {
				preds[i] = kpPred(r, 1)
			}
		}
		exprs := make([]expr.Expr, 1+r.Intn(3))
		for i := range exprs {
			exprs[i] = kpExpr(r, r.Intn(2))
		}
		b := kpChainBatch(r, 1+r.Intn(24))
		want, merr := modelChain(preds, exprs, b)
		label := ""
		for _, p := range preds {
			label += p.String() + " → "
		}
		for _, e := range exprs {
			label += e.String() + "; "
		}
		kpModes(func(compile bool, mode string) {
			c := &collector{}
			head, p := kpChain(preds, exprs, compile, c)
			err := head.Push(0, b)
			kpSameErr(t, mode+" "+label, err, merr)
			if err == nil {
				kpSameDeltas(t, mode+" "+label, c.deltas, want)
			}
			// A batch without replace rows reaches the project only as
			// a selection.
			if p.pushes > 0 && len(b.AppendReplaceRows(nil)) == 0 {
				t.Fatalf("%s %s: the last filter gathered a batch without replace rows", mode, label)
			}
			if compile && p.sels > 0 {
				handedOn++
			}
		})
	}
	t.Logf("%d of 1200 chains handed a selection on to the project", handedOn)
	if handedOn < 100 {
		t.Fatalf("only %d of 1200 chains handed a selection on to the project", handedOn)
	}
}
