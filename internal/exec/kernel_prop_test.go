package exec

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
)

// Operator-level kernel property: a kernel-equipped filterOp/projectOp
// must emit exactly the deltas of its scratch-tuple bridge — op for op,
// tuple for tuple, old image for old image — including the error when a
// batch contains rows the expression rejects. Both operators only read
// the input batch, so one batch feeds both sides.

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

func kpBatch(r *rand.Rand, n int) *types.DeltaBatch {
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
		t.Fatalf("%s: kernel emitted %d deltas, bridge %d\nkernel: %v\nbridge: %v",
			label, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Op != w.Op || !kpTupEq(g.Tup, w.Tup) ||
			(g.Old == nil) != (w.Old == nil) ||
			(g.Old != nil && !kpTupEq(g.Old, w.Old)) {
			t.Fatalf("%s: delta %d differs\nkernel: %v\nbridge: %v", label, i, g, w)
		}
	}
}

func kpSameErr(t *testing.T, label string, kerr, berr error) {
	t.Helper()
	if (kerr == nil) != (berr == nil) {
		t.Fatalf("%s: kernel err %v, bridge err %v", label, kerr, berr)
	}
	if kerr != nil && kerr.Error() != berr.Error() {
		t.Fatalf("%s: kernel err %q, bridge err %q", label, kerr, berr)
	}
}

func TestFilterKernelMatchesBridge(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	kernelled := 0
	for iter := 0; iter < 800; iter++ {
		pred := kpPred(r, 2)
		kf := newFilterOp(pred, kpSchema, true)
		bf := &filterOp{pred: pred} // no kernel: pure bridge
		if kf.kern != nil {
			kernelled++
		}
		ck, cb := &collector{}, &collector{}
		kf.outs = outputs{{op: ck, port: 0}}
		bf.outs = outputs{{op: cb, port: 0}}
		b := kpBatch(r, 1+r.Intn(20))
		kerr := kf.Push(0, b)
		berr := bf.Push(0, b)
		kpSameErr(t, pred.String(), kerr, berr)
		if kerr == nil {
			kpSameDeltas(t, pred.String(), ck.deltas, cb.deltas)
		}
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
		kp := newProjectOp(exprs, nil, kpSchema, true)
		bp := newProjectOp(exprs, nil, nil, false) // interpreter only
		if kp.kerns != nil {
			kernelled++
		}
		ck, cb := &collector{}, &collector{}
		kp.outs = outputs{{op: ck, port: 0}}
		bp.outs = outputs{{op: cb, port: 0}}
		b := kpBatch(r, 1+r.Intn(20))
		kerr := kp.Push(0, b)
		berr := bp.Push(0, b)
		label := ""
		for _, e := range exprs {
			label += e.String() + "; "
		}
		kpSameErr(t, label, kerr, berr)
		if kerr == nil {
			kpSameDeltas(t, label, ck.deltas, cb.deltas)
		}
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
		kg, err := newGroupByOp(spec, 1, nil, kpSchema)
		if err != nil {
			t.Fatal(err)
		}
		bg, err := newGroupByOp(spec, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if kg.argKerns != nil {
			kernelled++
		}
		ck, cb := &collector{}, &collector{}
		kg.outs = outputs{{op: ck, port: 0}}
		bg.outs = outputs{{op: cb, port: 0}}
		b := kpBatch(r, 1+r.Intn(20))
		kerr := kg.Push(0, b)
		berr := bg.Push(0, b)
		kpSameErr(t, spec.Aggs[0].Fn, kerr, berr)
		if kerr != nil {
			continue
		}
		kpSameDeltas(t, spec.Aggs[0].Fn, kpFlush(t, kg, ck), kpFlush(t, bg, cb))
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
		kp, err := newPreAggOp(spec, 1, kpSchema)
		if err != nil {
			t.Fatal(err)
		}
		bp, err := newPreAggOp(spec, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if kp.argKerns != nil {
			kernelled++
		}
		ck, cb := &collector{}, &collector{}
		kp.outs = outputs{{op: ck, port: 0}}
		bp.outs = outputs{{op: cb, port: 0}}
		b := kpBatch(r, 1+r.Intn(20))
		kerr := kp.Push(0, b)
		berr := bp.Push(0, b)
		kpSameErr(t, spec.Aggs[0].Fn, kerr, berr)
		if kerr != nil {
			continue
		}
		kpSameDeltas(t, spec.Aggs[0].Fn, kpFlush(t, kp, ck), kpFlush(t, bp, cb))
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
// them (link runs once every edge is set), and returns its head.
func kpChain(preds, exprs []expr.Expr, kernels bool, sink Operator) (Operator, *projectOp, []*filterOp) {
	var schema []types.Kind
	if kernels {
		schema = kpSchema
	}
	p := newProjectOp(exprs, nil, schema, kernels)
	p.outs = outputs{{op: sink, port: 0}}
	fs := make([]*filterOp, len(preds))
	for i, pred := range preds {
		fs[i] = newFilterOp(pred, schema, kernels)
	}
	for i, f := range fs {
		if i+1 < len(fs) {
			f.outs = outputs{{op: fs[i+1], port: 0}}
		} else {
			f.outs = outputs{{op: p, port: 0}}
		}
	}
	for _, f := range fs {
		f.link()
	}
	return fs[0], p, fs
}

// TestKernelChainMatchesBridge: a chain of 1–3 kernel filters feeding a
// kernel project, where each filter hands its survivors on as a
// selection, emits exactly the deltas — or the error — of the same chain
// with kernels off. A later conjunct must never see a row an earlier one
// dropped: the guard pair c0 <> 0, 10 / c0 > 1 runs every fourth chain.
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
		ck, cb := &collector{}, &collector{}
		khead, kp, kfs := kpChain(preds, exprs, true, ck)
		bhead, _, _ := kpChain(preds, exprs, false, cb)
		b := kpChainBatch(r, 1+r.Intn(24))
		kerr := khead.Push(0, b)
		berr := bhead.Push(0, b)
		label := ""
		for _, p := range preds {
			label += p.String() + " → "
		}
		for _, e := range exprs {
			label += e.String() + "; "
		}
		kpSameErr(t, label, kerr, berr)
		if kerr == nil {
			kpSameDeltas(t, label, ck.deltas, cb.deltas)
		}
		if kfs[len(kfs)-1].next == kp && !b.HasOld() {
			handedOn++
		}
	}
	if handedOn < 100 {
		t.Fatalf("only %d of 1200 chains handed a selection on to the project", handedOn)
	}
}
