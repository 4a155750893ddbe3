package expr

// Kernel-vs-interpreter microbenchmarks at the expression layer: the
// same predicate and projection evaluated over one 4096-row batch by the
// compiled kernel (EvalBools/EvalInto) and by the row interpreter over
// scratch tuples, and Select on a compare with a constant. Run with
//
//	go test -run '^$' -bench 'Kernel|Select' -benchmem ./internal/expr

import (
	"math/rand"
	"testing"

	"github.com/rex-data/rex/internal/types"
)

var benchKinds = []types.Kind{types.KindInt, types.KindFloat}

func benchKernelBatch(b *testing.B) *types.DeltaBatch {
	ds := make([]types.Delta, 4096)
	for i := range ds {
		ds[i] = types.Insert(types.NewTuple(int64(i%997), float64(i%31)))
	}
	cb, ok := types.FromDeltas(ds)
	if !ok {
		b.Fatal("stream not batchable")
	}
	return cb
}

func benchPred() Expr {
	return NewLogic(OpAnd,
		NewCmp(OpLt, NewCol(1, types.KindFloat, "d"), NewConst(float64(25))),
		NewCmp(OpGe, NewCol(0, types.KindInt, "v"), NewConst(int64(10))))
}

func benchProj() Expr {
	return NewArith(OpAdd,
		NewArith(OpMul, NewCol(1, types.KindFloat, "d"), NewConst(float64(0.5))),
		NewConst(float64(1)))
}

func BenchmarkPredicateKernel(b *testing.B) {
	cb := benchKernelBatch(b)
	kern, ok := Compile(benchPred(), benchKinds)
	if !ok {
		b.Fatal("predicate must compile")
	}
	rows := kern.AllRows(cb.Len())
	out := make([]bool, cb.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !kern.EvalBools(cb, false, rows, out) {
			b.Fatal("kernel declined")
		}
	}
}

func BenchmarkPredicateInterpreter(b *testing.B) {
	cb := benchKernelBatch(b)
	pred := benchPred()
	out := make([]bool, cb.Len())
	var scratch types.Tuple
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < cb.Len(); r++ {
			scratch = cb.Row(r, scratch)
			v, err := EvalBool(pred, scratch)
			if err != nil {
				b.Fatal(err)
			}
			out[r] = v
		}
	}
}

func BenchmarkProjectionKernel(b *testing.B) {
	cb := benchKernelBatch(b)
	kern, ok := Compile(benchProj(), benchKinds)
	if !ok {
		b.Fatal("projection must compile")
	}
	rows := kern.AllRows(cb.Len())
	var dst types.Vec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !kern.EvalInto(cb, false, rows, &dst) {
			b.Fatal("kernel declined")
		}
	}
}

func BenchmarkProjectionInterpreter(b *testing.B) {
	cb := benchKernelBatch(b)
	proj := benchProj()
	out := make([]types.Value, cb.Len())
	var scratch types.Tuple
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < cb.Len(); r++ {
			scratch = cb.Row(r, scratch)
			v, err := proj.Eval(scratch)
			if err != nil {
				b.Fatal(err)
			}
			out[r] = v
		}
	}
}

// BenchmarkSelectConstHalf4k is serve-mixed's aggregate filter: a
// whole-valued float column in random order against a float literal
// that keeps about half of 4096 rows, so a branch on each verdict would
// mispredict about half the time.
func BenchmarkSelectConstHalf4k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ds := make([]types.Delta, 4096)
	for i := range ds {
		ds[i] = types.Insert(types.NewTuple(float64(1 + r.Intn(50))))
	}
	cb, ok := types.FromDeltas(ds)
	if !ok {
		b.Fatal("stream not batchable")
	}
	pred := NewCmp(OpLt, NewCol(0, types.KindFloat, "quantity"), NewConst(25.5))
	kern, ok := Compile(pred, []types.Kind{types.KindFloat})
	if !ok {
		b.Fatal("predicate must compile")
	}
	rows := kern.AllRows(cb.Len())
	sel := make([]int32, 0, cb.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sel, ok = kern.Select(cb, rows, sel[:0]); !ok {
			b.Fatal("kernel declined")
		}
	}
	if n := len(sel); n < cb.Len()*2/5 || n > cb.Len()*3/5 {
		b.Fatalf("kept %d of %d rows, want about half", n, cb.Len())
	}
}
