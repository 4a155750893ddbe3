package types

import (
	"bytes"
	"math/rand"
	"testing"
)

// randVec builds an n-row kernel result vector in one of the shapes a
// kernel hands out: a column borrowed in place, values laid out by
// SetValues (NULLs, one kind or the mixed lane), or an owned lane reset
// over stale data with some rows marked NULL.
func randVec(r *rand.Rand, n int) *Vec {
	v := &Vec{}
	switch r.Intn(3) {
	case 0:
		src, _ := FromDeltas(randBatch(r, n, 1))
		if v.BorrowColumn(src.Col(0)) {
			return v
		}
		fallthrough
	case 1:
		k := r.Intn(4)
		vals := make([]Value, n)
		for i := range vals {
			switch {
			case r.Intn(5) == 0:
			case r.Intn(8) == 0:
				vals[i] = randValue(r) // may mix kinds
			case k == 0:
				vals[i] = int64(r.Intn(9) - 4)
			case k == 1:
				vals[i] = float64(r.Intn(9)) / 2
			case k == 2:
				vals[i] = []string{"", "a", "bb"}[r.Intn(3)]
			default:
				vals[i] = r.Intn(2) == 0
			}
		}
		v.SetValues(vals)
	default:
		kinds := []Kind{KindInt, KindFloat, KindString, KindBool}
		k := kinds[r.Intn(len(kinds))]
		v.Reset(k, n)
		for i := 0; i < n; i++ { // stale data the Reset below keeps
			switch k {
			case KindInt:
				v.Ints[i] = 77
			case KindFloat:
				v.Floats[i] = 7.5
			case KindString:
				v.Strs[i] = "stale"
			case KindBool:
				v.Bools[i] = true
			}
		}
		v.Reset(k, n)
		for i := 0; i < n; i++ {
			if r.Intn(4) == 0 {
				v.SetNull(i)
				continue
			}
			switch k {
			case KindInt:
				v.Ints[i] = int64(r.Intn(5))
			case KindFloat:
				v.Floats[i] = float64(r.Intn(5))
			case KindString:
				v.Strs[i] = "s"
			case KindBool:
				v.Bools[i] = r.Intn(2) == 0
			}
		}
	}
	return v
}

// TestGatherVecsMatchesAppendVecRow: GatherVecs is AppendVecRow row by
// row — same rows, the same lane shapes and the same wire bytes — over
// every vector shape, onto empty and partly filled destinations, with
// selections in any order.
func TestGatherVecsMatchesAppendVecRow(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 500; trial++ {
		n, arity := 1+r.Intn(30), 1+r.Intn(4)
		ds := make([]Delta, n)
		for i := range ds {
			ds[i] = Delta{Op: []Op{OpInsert, OpUpdate, OpDelete}[r.Intn(3)], Tup: NewTuple(int64(i))}
		}
		ops, _ := FromDeltas(ds)
		cols := make([]*Vec, arity)
		for j := range cols {
			cols[j] = randVec(r, n)
		}
		var sel []int32
		for i := 0; i < n; i++ {
			if r.Intn(3) > 0 {
				sel = append(sel, int32(i))
			}
		}
		if r.Intn(4) == 0 {
			r.Shuffle(len(sel), func(i, j int) { sel[i], sel[j] = sel[j], sel[i] })
		}
		got, want := &DeltaBatch{}, &DeltaBatch{}
		if r.Intn(2) == 0 {
			pre := make([]*Vec, arity)
			for j := range pre {
				pre[j] = randVec(r, 3)
			}
			for _, b := range []*DeltaBatch{got, want} {
				for i := 0; i < 3; i++ {
					b.AppendVecRow(OpInsert, pre, nil, i)
				}
			}
		}
		got.GatherVecs(ops, cols, sel)
		for _, i := range sel {
			want.AppendVecRow(ops.Op(int(i)), cols, nil, int(i))
		}
		if got.Len() != want.Len() || !deltasEqual(got.Deltas(), want.Deltas()) {
			t.Fatalf("trial %d: rows\n got %v\nwant %v", trial, got.Deltas(), want.Deltas())
		}
		if colShapes(got) != colShapes(want) {
			t.Fatalf("trial %d: lanes %q, row appends %q", trial, colShapes(got), colShapes(want))
		}
		if !bytes.Equal(AppendDeltaBatch(nil, got), AppendDeltaBatch(nil, want)) {
			t.Fatalf("trial %d: wire bytes differ", trial)
		}
	}
}
