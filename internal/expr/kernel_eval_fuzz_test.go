package expr

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/rex-data/rex/internal/types"
)

// FuzzKernelEval holds every kernel — compiled, and interpreter-only —
// to the row interpreter over random expression trees: arithmetic,
// compares, AND/OR, NOT, a deterministic (memoized) two-argument call and
// a non-deterministic one-argument call, over columns, literals and a
// bound and an unbound parameter. The batches carry NULLs, NaN, ±0, ±Inf,
// the int64 extremes and zero divisors, a declared-int column that
// drifts to other kinds, and replace rows with or without old images.
// On the new images of a subset of the rows and on the old images of the
// replace rows, EvalVec and EvalInto must give Expr.Eval's value on every
// row, and Verdicts and Select EvalBool's — or the same error text at the
// first row the interpreter rejects.
//
// prog is read a byte at a time into the tree (fuzzGen); data's first
// byte's bit 0 drops the replace rows' old images, bits 1–4 pick $1's
// value, and each row is an op byte (low 2 bits insert, delete, update,
// replace; bit 7 leaves the row out of the subset) and one palette index
// per column, for the new image and then, for a replace with old images,
// the old one. Seeds under testdata/fuzz run in every go test.
func FuzzKernelEval(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog, data []byte) {
		if len(data) == 0 {
			return
		}
		flags := data[0]
		ps := &ParamSet{}
		ps.Bind([]types.Value{fuzzConsts[int(flags>>1)%len(fuzzConsts)]})
		g := &fuzzGen{prog: prog, ps: ps}
		e := g.expr(4)
		b, rows := fuzzBatch(data[1:], flags&1 != 0)
		if b == nil {
			return
		}
		kern, _ := Compile(e, fuzzSchema)
		for _, k := range []*Kernel{kern, Interpret(e)} {
			checkKernelImage(t, e, k, b, false, rows)
			if e.Kind() == types.KindBool {
				checkKernelSelect(t, e, k, b, rows)
			}
			checkKernelImage(t, e, k, b, true, b.AppendReplaceRows(nil))
		}
	})
}

// fuzzSchema: 0 int, 1 float, 2 declared int that drifts, 3 bool.
var fuzzSchema = []types.Kind{types.KindInt, types.KindFloat, types.KindInt, types.KindBool}

var fuzzPalettes = [][]types.Value{
	{nil, int64(0), int64(1), int64(-1), int64(2), int64(3), int64(-3), int64(math.MinInt64), int64(math.MaxInt64), int64(5)},
	{nil, 0.0, math.Copysign(0, -1), 1.5, -2.0, math.NaN(), math.Inf(1), math.Inf(-1), 3.0, 0.5},
	{nil, int64(0), int64(2), int64(-1), 1.5, "s", true, int64(math.MinInt64), int64(4), math.Copysign(0, -1)},
	{nil, true, false},
}

// fuzzConsts are the literals and $1's values.
var fuzzConsts = []types.Value{
	int64(0), int64(1), int64(-2), 2.5, math.Copysign(0, -1), math.NaN(), true, nil, "s",
	int64(math.MinInt64), int64(3), 0.0, false, math.Inf(1), int64(-1), 1.0,
}

// fuzzBatch decodes rows (see FuzzKernelEval) into a batch of at most 48
// rows and the subset of them to evaluate.
func fuzzBatch(data []byte, noOld bool) (*types.DeltaBatch, []int32) {
	image := func() types.Tuple {
		t := make(types.Tuple, len(fuzzPalettes))
		for c, pal := range fuzzPalettes {
			if len(data) > 0 {
				t[c] = pal[int(data[0])%len(pal)]
				data = data[1:]
			}
		}
		return t
	}
	var ds []types.Delta
	var rows []int32
	for len(data) > 0 && len(ds) < 48 {
		opb := data[0]
		data = data[1:]
		d := types.Delta{Op: []types.Op{types.OpInsert, types.OpDelete, types.OpUpdate, types.OpReplace}[opb&3], Tup: image()}
		if d.Op == types.OpReplace && !noOld {
			d.Old = image()
		}
		if opb&0x80 == 0 {
			rows = append(rows, int32(len(ds)))
		}
		ds = append(ds, d)
	}
	if len(ds) == 0 {
		return nil, nil
	}
	b, ok := types.FromDeltas(ds)
	if !ok {
		return nil, nil
	}
	return b, rows
}

// fuzzGen reads an expression tree from prog, a byte at a time; an
// exhausted prog reads as zeros, which end the tree in column 0.
type fuzzGen struct {
	prog []byte
	ps   *ParamSet
}

func (g *fuzzGen) next() byte {
	if len(g.prog) == 0 {
		return 0
	}
	c := g.prog[0]
	g.prog = g.prog[1:]
	return c
}

func (g *fuzzGen) expr(depth int) Expr {
	c := g.next()
	if depth == 0 || c%8 < 2 {
		return g.leaf(c / 8)
	}
	sub := func() Expr { return g.expr(depth - 1) }
	switch c % 8 {
	case 2:
		op := ArithOp(g.next() % 5)
		return NewArith(op, sub(), sub())
	case 3:
		op := CmpOp(g.next() % 6)
		return NewCmp(op, sub(), sub())
	case 4:
		op := LogicOp(g.next() % 2)
		return NewLogic(op, sub(), sub())
	case 5:
		return NewNot(sub())
	case 6:
		return NewCall("mix", fuzzMix, types.KindInt, true, sub(), sub())
	default:
		return NewCall("half", fuzzHalf, types.KindFloat, false, sub())
	}
}

func (g *fuzzGen) leaf(c byte) Expr {
	switch c % 8 {
	case 0, 1, 2, 3:
		return NewCol(int(c%8), fuzzSchema[c%8], "c")
	case 4:
		return NewConst(fuzzConsts[int(g.next())%len(fuzzConsts)])
	case 5:
		return NewParam(g.ps, 0, types.KindInt)
	case 6:
		return NewParam(g.ps, 1, types.KindInt) // unbound
	default:
		return NewConst(int64(2))
	}
}

// fuzzMix hashes both arguments' kinds and values — 1, 1.0, 0.0 and
// -0.0 all differ — so a call memoized on anything less than both exact
// arguments answers wrongly. A bool argument is an error.
func fuzzMix(args []types.Value) (types.Value, error) {
	h := fnv.New64a()
	for _, a := range args {
		if _, ok := a.(bool); ok {
			return nil, errors.New("bool argument")
		}
		if f, ok := a.(float64); ok && f == 0 && math.Signbit(f) {
			a = "-0"
		}
		fmt.Fprintf(h, "%T:%v;", a, a)
	}
	return int64(h.Sum64() % 1000), nil
}

// fuzzHalf halves a number; anything else is an error.
func fuzzHalf(args []types.Value) (types.Value, error) {
	f, ok := types.AsFloat(args[0])
	if !ok || args[0] == nil {
		return nil, errors.New("not a number")
	}
	return f / 2, nil
}
