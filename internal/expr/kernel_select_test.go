package expr

import (
	"math"
	"slices"
	"testing"

	"github.com/rex-data/rex/internal/types"
)

// Select on a compare of a column with a constant writes the selection
// from selectConst's typed loop: the borrowed column is the only vector
// the kernel takes — no verdict vector, no converted copy of an int
// column — and with dst's capacity in place nothing is allocated.
func TestSelectConstWritesSelection(t *testing.T) {
	var ds []types.Delta
	for i, f := range []float64{3, math.NaN(), -1, 0, math.Copysign(0, -1), 7, 2.5, -4} {
		ds = append(ds, types.Insert(types.NewTuple(f, int64(i%5))))
	}
	b, ok := types.FromDeltas(ds)
	if !ok {
		t.Fatal("rows must batch")
	}
	schema := []types.Kind{types.KindFloat, types.KindInt}
	f, n := NewCol(0, types.KindFloat, "f"), NewCol(1, types.KindInt, "n")
	for _, e := range []Expr{
		NewCmp(OpLt, f, NewConst(float64(1))),
		NewCmp(OpGe, NewConst(float64(1)), f),
		NewCmp(OpLt, n, NewConst(float64(2.5))),
		NewCmp(OpGe, NewConst(int64(2)), n),
	} {
		kern, ok := Compile(e, schema)
		if !ok {
			t.Fatalf("%s does not compile", e)
		}
		rows := kern.AllRows(b.Len())
		var want []int32
		var scratch types.Tuple
		for _, i := range rows {
			scratch = b.Row(int(i), scratch)
			if v, err := EvalBool(e, scratch); err != nil {
				t.Fatal(err)
			} else if v {
				want = append(want, i)
			}
		}
		dst := make([]int32, 0, b.Len())
		sel, ok := kern.Select(b, rows, dst)
		if !ok {
			t.Fatalf("%s: Select declined", e)
		}
		if !slices.Equal(sel, want) {
			t.Fatalf("%s: Select = %v, want %v", e, sel, want)
		}
		if kern.used != 1 {
			t.Fatalf("%s: Select took %d vectors, want the borrowed column alone", e, kern.used)
		}
		if allocs := testing.AllocsPerRun(100, func() { kern.Select(b, rows, dst[:0]) }); allocs != 0 {
			t.Fatalf("%s: Select allocates %.1f times per call", e, allocs)
		}
	}
}
