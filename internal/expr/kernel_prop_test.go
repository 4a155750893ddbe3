package expr

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/rex-data/rex/internal/types"
)

// The kernel property: over randomized expressions and batches, a
// compiled kernel evaluates a batch to exactly the interpreter's per-row
// results, or to the interpreter's error at the same row — through its
// typed loops or, when they decline, through the interpreter. Generated
// batches cover NULLs, boxed-any (mixed-kind) columns, params (bound and
// unbound), and replace rows with old images.

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
			// $3 stays unbound: the kernel must decline to the
			// interpreter's "parameter not bound" error.
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

// interpretRows runs the interpreter over the selected rows of one image
// group, in order, up to the first error: the values by row, or the error
// and the row that raised it.
func interpretRows(e Expr, b *types.DeltaBatch, old bool, rows []int32, pred bool) (map[int32]types.Value, error, int32) {
	var scratch types.Tuple
	vals := make(map[int32]types.Value, len(rows))
	for _, i := range rows {
		if old {
			scratch = b.OldRow(int(i), scratch)
		} else {
			scratch = b.Row(int(i), scratch)
		}
		var v types.Value
		var err error
		if pred {
			v, err = EvalBool(e, scratch)
		} else {
			v, err = e.Eval(scratch)
		}
		if err != nil {
			return nil, err, i
		}
		vals[i] = v
	}
	return vals, nil, 0
}

// sameKernelErr requires the kernel's error to be the interpreter's: a
// RowError with the same text, raised at the same row.
func sameKernelErr(t *testing.T, e Expr, got, want error, wantRow int32) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: kernel error %v, interpreter error %v", e, got, want)
	}
	if got == nil {
		return
	}
	var re *RowError
	if !errors.As(got, &re) {
		t.Fatalf("%s: kernel error %q (%T) is not a RowError", e, got, got)
	}
	if got.Error() != want.Error() || re.Row != wantRow {
		t.Fatalf("%s: kernel error %q at row %d, interpreter %q at row %d", e, got, re.Row, want, wantRow)
	}
}

// checkKernelImage compares one image group (new, or old over the
// replace rows) of a batch between the kernel and the interpreter: the
// same value on every row, or the same error at the same row. It reports
// whether the compiled tree declined, handing the rows to the
// interpreter.
func checkKernelImage(t *testing.T, e Expr, kern *Kernel, b *types.DeltaBatch, old bool, rows []int32) (declined bool) {
	t.Helper()
	if len(rows) == 0 {
		return false
	}
	vals, rowErr, errRow := interpretRows(e, b, old, rows, false)
	var dst types.Vec
	err := kern.EvalInto(b, old, rows, &dst)
	declined = kern.Declined()
	sameKernelErr(t, e, err, rowErr, errRow)
	if err == nil {
		for _, i := range rows {
			if got, want := dst.Value(int(i)), vals[i]; !samePropValue(got, want) {
				t.Fatalf("row %d of %s: kernel %#v, interpreter %#v (old=%v)", i, e, got, want, old)
			}
		}
	}
	v, err := kern.EvalVec(b, old, rows)
	sameKernelErr(t, e, err, rowErr, errRow)
	if err == nil {
		for _, i := range rows {
			if got, want := v.Value(int(i)), vals[i]; !samePropValue(got, want) {
				t.Fatalf("row %d of %s: EvalVec %#v, interpreter %#v (old=%v)", i, e, got, want, old)
			}
		}
	}

	if e.Kind() == types.KindBool {
		verdicts, boolErr, errRow := interpretRows(e, b, old, rows, true)
		out := make([]bool, b.Len())
		err := kern.Verdicts(b, old, rows, out)
		declined = kern.Declined() || declined
		sameKernelErr(t, e, err, boolErr, errRow)
		if err == nil {
			for _, i := range rows {
				if out[i] != verdicts[i] {
					t.Fatalf("row %d of %s: kernel verdict %v, EvalBool %v", i, e, out[i], verdicts[i])
				}
			}
		}
	}
	return declined
}

// checkKernelSelect runs Select over rows, a subset of a batch's new
// images, behind a dst prefix: it must fail exactly when EvalBool does,
// with its error, and otherwise append exactly the rows where EvalBool is
// true, leaving the prefix as it was either way. Its compiled tree must
// decline exactly when Verdicts' does, and EvalBools must take the batch
// exactly when that tree does.
func checkKernelSelect(t *testing.T, e Expr, kern *Kernel, b *types.DeltaBatch, rows []int32) {
	t.Helper()
	verdicts, boolErr, errRow := interpretRows(e, b, false, rows, true)
	kern.Declined() // clear an earlier call's report
	took := kern.EvalBools(b, false, rows, make([]bool, b.Len()))
	if ed := kern.Declined(); took != (kern.root != nil && !ed) {
		t.Fatalf("%s: EvalBools took=%v, compiled=%v, declined=%v", e, took, kern.root != nil, ed)
	}
	kern.Verdicts(b, false, rows, make([]bool, b.Len()))
	vd := kern.Declined()
	prefix := []int32{-1, -2}
	sel, err := kern.Select(b, rows, slices.Clone(prefix))
	if sd := kern.Declined(); sd != vd {
		t.Fatalf("%s: Select declined=%v, Verdicts declined=%v", e, sd, vd)
	}
	if len(sel) < len(prefix) || !slices.Equal(sel[:len(prefix)], prefix) {
		t.Fatalf("%s: Select changed dst's prefix %v into %v", e, prefix, sel)
	}
	sameKernelErr(t, e, err, boolErr, errRow)
	if err != nil {
		return
	}
	var want []int32
	for _, i := range rows {
		if verdicts[i].(bool) {
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
