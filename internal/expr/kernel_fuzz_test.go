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
// operators, over NaN, ±0, ±Inf, NULL and the int64 extremes. Verdicts
// and Select run over a subset of the rows. On every row of it the
// kernel's verdict must equal EvalBool's, or both must fail with
// EvalBool's error on the first row it rejects; Select must fail exactly
// when Verdicts does, else append exactly the rows EvalBool passes behind
// dst's prefix, which it leaves as it was either way. Select's compiled
// loop must decline the batch exactly when Verdicts' does, and EvalBools
// must take it exactly when that loop does not decline.
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
		kern, compiled := Compile(e, []types.Kind{kind})
		if !compiled {
			t.Fatalf("%s does not compile", e)
		}

		took := kern.EvalBools(b, false, rows, make([]bool, b.Len()))
		if ed := kern.Declined(); took == ed {
			t.Fatalf("%s: EvalBools took=%v, declined=%v", e, took, ed)
		}
		out := make([]bool, b.Len())
		err := kern.Verdicts(b, false, rows, out)
		vd := kern.Declined()
		prefix := []int32{-1, -2, -3}
		sel, selErr := kern.Select(b, rows, slices.Clone(prefix))
		if sd := kern.Declined(); sd != vd {
			t.Fatalf("%s: Select declined=%v, Verdicts declined=%v", e, sd, vd)
		}
		if len(sel) < len(prefix) || !slices.Equal(sel[:len(prefix)], prefix) {
			t.Fatalf("%s: Select changed dst's prefix %v into %v", e, prefix, sel)
		}
		sel = sel[len(prefix):]
		if (selErr == nil) != (err == nil) {
			t.Fatalf("%s: Select error %v, Verdicts error %v", e, selErr, err)
		}
		var scratch types.Tuple
		for _, i := range rows {
			scratch = b.Row(int(i), scratch)
			want, wantErr := EvalBool(e, scratch)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() || selErr.Error() != wantErr.Error() {
					t.Fatalf("%s on row %v: kernel error %v / %v, EvalBool %v", e, scratch, err, selErr, wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("%s: kernel error %v on row %v, which EvalBool takes", e, err, scratch)
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
		if err != nil {
			t.Fatalf("%s: kernel error %v, EvalBool takes every row", e, err)
		}
		if len(sel) != 0 {
			t.Fatalf("%s: Select picked rows %v EvalBool rejects", e, sel)
		}
	})
}
