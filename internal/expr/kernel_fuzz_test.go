package expr

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/rex-data/rex/internal/types"
)

// FuzzCmpKernel drives the compare fast path: a column against a literal
// or a bound parameter, int or float on either side, under all six
// operators, over NaN, ±0, ±Inf, NULL and the int64 extremes. On every
// row the kernel's verdict must equal EvalBool's, or the kernel must
// decline the batch; Select must pick exactly the rows EvalBools passes.
//
// form's bits: 1 float column, 2 float scalar, 4 parameter instead of a
// literal, 8 scalar on the left. data holds the rows, 9 bytes each: a
// flag byte (bit 0 NULL) and the value's 8 little-endian bytes.
// Seeds under testdata/fuzz/FuzzCmpKernel run in every go test.
func FuzzCmpKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, op, form uint8, ci int64, cf float64, data []byte) {
		kind := types.KindInt
		if form&1 != 0 {
			kind = types.KindFloat
		}
		var ds []types.Delta
		for ; len(data) >= 9 && len(ds) < 64; data = data[9:] {
			var v types.Value
			bits := binary.LittleEndian.Uint64(data[1:9])
			switch {
			case data[0]&1 != 0:
			case kind == types.KindFloat:
				v = math.Float64frombits(bits)
			default:
				v = int64(bits)
			}
			ds = append(ds, types.Insert(types.NewTuple(v)))
		}
		if len(ds) == 0 {
			return
		}
		b, ok := types.FromDeltas(ds)
		if !ok {
			t.Fatal("one-column rows must batch")
		}

		var c types.Value = ci
		if form&2 != 0 {
			c = cf
		}
		var s Expr = NewConst(c)
		if form&4 != 0 {
			s = NewParam(&ParamSet{Values: []types.Value{c}}, 0, types.KindOf(c))
		}
		var l, r Expr = NewCol(0, kind, "x"), s
		if form&8 != 0 {
			l, r = r, l
		}
		e := NewCmp(CmpOp(op%6), l, r)
		kern, ok := Compile(e, []types.Kind{kind})
		if !ok {
			t.Fatalf("%s does not compile", e)
		}

		rows := kern.AllRows(b.Len())
		out := make([]bool, b.Len())
		if !kern.EvalBools(b, false, rows, out) {
			return // declining is always allowed
		}
		sel, ok := kern.Select(b, rows, nil)
		if !ok {
			t.Fatalf("%s: Select declined a batch EvalBools took", e)
		}
		var scratch types.Tuple
		for i := range ds {
			scratch = b.Row(i, scratch)
			want, err := EvalBool(e, scratch)
			if err != nil {
				t.Fatalf("%s: kernel took row %v, EvalBool rejects it: %v", e, scratch, err)
			}
			if out[i] != want {
				t.Fatalf("%s on row %v: kernel %v, EvalBool %v", e, scratch, out[i], want)
			}
			if want {
				if len(sel) == 0 || sel[0] != int32(i) {
					t.Fatalf("%s: Select missed row %d", e, i)
				}
				sel = sel[1:]
			}
		}
		if len(sel) != 0 {
			t.Fatalf("%s: Select picked rows %v EvalBool rejects", e, sel)
		}
	})
}
