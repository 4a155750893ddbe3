package expr

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"github.com/rex-data/rex/internal/types"
)

// FuzzCmpKernel drives the compare fast path: a column against a literal
// or a bound parameter, int or float on either side, under all six
// operators, over NaN, ±0, ±Inf, NULL and the int64 extremes. EvalBools
// and Select run over a subset of the rows. On every row of it the
// kernel's verdict must equal EvalBool's, or the kernel must decline the
// batch; Select must decline exactly when EvalBools does, else append
// exactly the rows EvalBool passes behind dst's prefix, which it leaves
// as it was.
//
// form's bits: 1 float column, 2 float scalar, 4 parameter instead of a
// literal, 8 scalar on the left. data holds the rows, 9 bytes each: a
// flag byte (bit 0 NULL, bit 1 left out of the subset) and the value's 8
// little-endian bytes. Seeds under testdata/fuzz/FuzzCmpKernel run in
// every go test.
func FuzzCmpKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, op, form uint8, ci int64, cf float64, data []byte) {
		kind := types.KindInt
		if form&1 != 0 {
			kind = types.KindFloat
		}
		var ds []types.Delta
		var rows []int32
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
			if data[0]&2 == 0 {
				rows = append(rows, int32(len(ds)))
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

		out := make([]bool, b.Len())
		took := kern.EvalBools(b, false, rows, out)
		prefix := []int32{-1, -2, -3}
		sel, selOK := kern.Select(b, rows, slices.Clone(prefix))
		if len(sel) < len(prefix) || !slices.Equal(sel[:len(prefix)], prefix) {
			t.Fatalf("%s: Select changed dst's prefix %v into %v", e, prefix, sel)
		}
		sel = sel[len(prefix):]
		if selOK != took {
			t.Fatalf("%s: Select ok=%v, EvalBools ok=%v", e, selOK, took)
		}
		if !took {
			if len(sel) != 0 {
				t.Fatalf("%s: declining Select appended %v", e, sel)
			}
			return // declining is always allowed
		}
		var scratch types.Tuple
		for _, i := range rows {
			scratch = b.Row(int(i), scratch)
			want, err := EvalBool(e, scratch)
			if err != nil {
				t.Fatalf("%s: kernel took row %v, EvalBool rejects it: %v", e, scratch, err)
			}
			if out[i] != want {
				t.Fatalf("%s on row %v: kernel %v, EvalBool %v", e, scratch, out[i], want)
			}
			if want {
				if len(sel) == 0 || sel[0] != i {
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
