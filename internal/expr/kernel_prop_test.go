package expr

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/rex-data/rex/internal/types"
)

// The kernel property: over randomized expressions and batches, a
// compiled kernel either evaluates a batch to exactly the interpreter's
// per-row results, or declines it — and it must decline whenever the
// interpreter would error on any row. Generated batches cover NULLs,
// boxed-any (mixed-kind) columns, params (bound and unbound), and
// replace rows with old images.

// propSchema: 0 int, 1 float, 2 nullable int, 3 nullable float,
// 4 string, 5 bool, 6 declared-int that may drift to mixed at runtime.
var propSchema = []types.Kind{
	types.KindInt, types.KindFloat, types.KindInt, types.KindFloat,
	types.KindString, types.KindBool, types.KindInt,
}

func genPropValue(r *rand.Rand, col int) types.Value {
	switch col {
	case 0:
		return int64(r.Intn(7) - 3) // small ints: div/mod-by-zero coverage
	case 1:
		return float64(r.Intn(9)-4) / 2
	case 2:
		if r.Intn(4) == 0 {
			return nil
		}
		return int64(r.Intn(5))
	case 3:
		if r.Intn(4) == 0 {
			return nil
		}
		return float64(r.Intn(5))
	case 4:
		return []string{"a", "b", "cc"}[r.Intn(3)]
	case 5:
		return r.Intn(2) == 0
	default:
		if r.Intn(3) == 0 {
			return "drift" // demotes the column to boxed-any
		}
		return int64(r.Intn(4))
	}
}

func genPropTuple(r *rand.Rand) types.Tuple {
	t := make(types.Tuple, len(propSchema))
	for c := range t {
		t[c] = genPropValue(r, c)
	}
	return t
}

func genPropBatch(r *rand.Rand, n int) *types.DeltaBatch {
	ds := make([]types.Delta, n)
	for i := range ds {
		tup := genPropTuple(r)
		switch r.Intn(5) {
		case 0:
			ds[i] = types.Insert(tup)
		case 1:
			ds[i] = types.Update(tup)
		case 2:
			ds[i] = types.Delete(tup)
		default:
			ds[i] = types.Replace(genPropTuple(r), tup)
		}
	}
	b, ok := types.FromDeltas(ds)
	if !ok {
		panic("uniform-arity deltas must batch")
	}
	return b
}

func genPropExpr(r *rand.Rand, depth int, ps *ParamSet) Expr {
	if depth <= 0 {
		switch r.Intn(6) {
		case 0:
			return NewConst(int64(r.Intn(5) - 2))
		case 1:
			return NewConst(float64(r.Intn(5)) / 2)
		case 2:
			if r.Intn(8) == 0 {
				return NewConst(nil)
			}
			return NewConst(r.Intn(2) == 0)
		case 3:
			// $3 stays unbound: the kernel must decline to the row
			// path's "parameter not bound" error.
			idx := r.Intn(3)
			k := types.KindInt
			if idx == 1 {
				k = types.KindFloat
			}
			return NewParam(ps, idx, k)
		default:
			c := r.Intn(len(propSchema))
			return NewCol(c, propSchema[c], "c")
		}
	}
	sub := func() Expr { return genPropExpr(r, depth-1-r.Intn(depth), ps) }
	switch r.Intn(4) {
	case 0:
		return NewArith(ArithOp(r.Intn(5)), sub(), sub())
	case 1:
		return NewCmp(CmpOp(r.Intn(6)), sub(), sub())
	case 2:
		return NewLogic(LogicOp(r.Intn(2)), sub(), sub())
	default:
		return NewNot(sub())
	}
}

// samePropValue is strict equality: same dynamic kind, same value, with
// NaN equal to itself (float division can produce it on both paths).
func samePropValue(a, b types.Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if x, ok := a.(float64); ok {
		y, ok := b.(float64)
		if !ok {
			return false
		}
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	return a == b
}

// checkKernelImage compares one image group (new, or old over the
// replace rows) of a batch between the kernel and the interpreter.
func checkKernelImage(t *testing.T, e Expr, kern *Kernel, b *types.DeltaBatch, old bool, rows []int32) (declined bool) {
	t.Helper()
	if len(rows) == 0 {
		return false
	}
	row := func(i int32, scratch types.Tuple) types.Tuple {
		if old {
			return b.OldRow(int(i), scratch)
		}
		return b.Row(int(i), scratch)
	}
	var scratch types.Tuple
	vals := make(map[int32]types.Value, len(rows))
	rowErr := false
	for _, i := range rows {
		scratch = row(i, scratch)
		v, err := e.Eval(scratch)
		if err != nil {
			rowErr = true
			break
		}
		vals[i] = v
	}

	var dst types.Vec
	if !kern.EvalInto(b, old, rows, &dst) {
		return true // declining is always allowed
	}
	if rowErr {
		t.Fatalf("kernel evaluated a batch the interpreter rejects: %s", e)
	}
	for _, i := range rows {
		if got, want := dst.Value(int(i)), vals[i]; !samePropValue(got, want) {
			t.Fatalf("row %d of %s: kernel %#v, interpreter %#v (old=%v)", i, e, got, want, old)
		}
	}

	if e.Kind() == types.KindBool {
		verdicts := make(map[int32]bool, len(rows))
		boolErr := false
		for _, i := range rows {
			scratch = row(i, scratch)
			v, err := EvalBool(e, scratch)
			if err != nil {
				boolErr = true
				break
			}
			verdicts[i] = v
		}
		out := make([]bool, b.Len())
		if !kern.EvalBools(b, old, rows, out) {
			return true
		}
		if boolErr {
			t.Fatalf("EvalBools accepted a batch EvalBool rejects: %s", e)
		}
		for _, i := range rows {
			if out[i] != verdicts[i] {
				t.Fatalf("row %d of %s: kernel verdict %v, EvalBool %v", i, e, out[i], verdicts[i])
			}
		}
	}
	return false
}

// checkKernelSelect runs Select over rows, a subset of a batch's new
// images, behind a dst prefix: it must decline exactly when EvalBools
// does, and otherwise append exactly the rows where EvalBool is true,
// leaving the prefix as it was.
func checkKernelSelect(t *testing.T, e Expr, kern *Kernel, b *types.DeltaBatch, rows []int32) {
	t.Helper()
	took := kern.EvalBools(b, false, rows, make([]bool, b.Len()))
	prefix := []int32{-1, -2}
	sel, ok := kern.Select(b, rows, slices.Clone(prefix))
	if len(sel) < len(prefix) || !slices.Equal(sel[:len(prefix)], prefix) {
		t.Fatalf("%s: Select changed dst's prefix %v into %v", e, prefix, sel)
	}
	if ok != took {
		t.Fatalf("%s: Select ok=%v, EvalBools ok=%v", e, ok, took)
	}
	if !ok {
		return
	}
	var want []int32
	var scratch types.Tuple
	for _, i := range rows {
		scratch = b.Row(int(i), scratch)
		v, err := EvalBool(e, scratch)
		if err != nil {
			t.Fatalf("Select took a batch EvalBool rejects: %s: %v", e, err)
		}
		if v {
			want = append(want, i)
		}
	}
	if got := sel[len(prefix):]; !slices.Equal(got, want) {
		t.Fatalf("%s over rows %v: Select %v, EvalBool passes %v", e, rows, got, want)
	}
}

func TestKernelMatchesInterpreter(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ps := &ParamSet{}
	compiled, evaluated := 0, 0
	for iter := 0; iter < 3000; iter++ {
		e := genPropExpr(r, 1+r.Intn(3), ps)
		kern, ok := Compile(e, propSchema)
		if !ok {
			continue
		}
		compiled++
		ps.Bind([]types.Value{int64(r.Intn(5)), float64(r.Intn(5)) / 2})
		b := genPropBatch(r, 1+r.Intn(24))
		rows := kern.AllRows(b.Len())
		declined := checkKernelImage(t, e, kern, b, false, rows)
		if e.Kind() == types.KindBool {
			var sub []int32
			for i := 0; i < b.Len(); i++ {
				if r.Intn(2) == 0 {
					sub = append(sub, int32(i))
				}
			}
			checkKernelSelect(t, e, kern, b, sub)
		}
		oldRows := b.AppendReplaceRows(nil)
		if b.HasOld() {
			if checkKernelImage(t, e, kern, b, true, oldRows) {
				declined = true
			}
		}
		if !declined {
			evaluated++
		}
	}
	if compiled < 500 {
		t.Fatalf("generator produced only %d compilable expressions", compiled)
	}
	if evaluated < 100 {
		t.Fatalf("only %d batches took the kernel path end to end", evaluated)
	}
}
