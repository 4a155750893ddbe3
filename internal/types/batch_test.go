package types

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// randValue draws one scalar of a random kind, including NULL.
func randValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return nil
	case 1:
		return r.Int63() - r.Int63()
	case 2:
		if r.Intn(3) == 0 {
			return float64(r.Intn(100)) // integral float: exercises the hash fold
		}
		return r.NormFloat64()
	case 3:
		return fmt.Sprintf("s%d", r.Intn(1000))
	case 4:
		return r.Intn(2) == 0
	default:
		return int64(r.Intn(50)) // small ints: repeated values
	}
}

// randBatch builds a random schema-uniform row batch: mostly columns of a
// single kind (the typed-vector path), some deliberately mixed (the anys
// fallback), with NULLs sprinkled in and replace rows carrying old images.
func randBatch(r *rand.Rand, rows, arity int) []Delta {
	kinds := make([]int, arity)
	for j := range kinds {
		kinds[j] = r.Intn(7) // 0..5 = homogeneous kinds, 6 = mixed
	}
	tuple := func() Tuple {
		t := make(Tuple, arity)
		for j := range t {
			if r.Intn(10) == 0 {
				continue // NULL
			}
			switch kinds[j] {
			case 0:
				t[j] = r.Int63()
			case 1:
				t[j] = r.NormFloat64()
			case 2:
				t[j] = float64(r.Intn(100))
			case 3:
				t[j] = fmt.Sprintf("v%d", r.Intn(100))
			case 4:
				t[j] = r.Intn(2) == 0
			case 5:
				t[j] = int64(r.Intn(10))
			default:
				t[j] = randValue(r)
			}
		}
		return t
	}
	out := make([]Delta, rows)
	for i := range out {
		switch r.Intn(5) {
		case 0:
			out[i] = Delete(tuple())
		case 1:
			out[i] = Replace(tuple(), tuple())
		case 2:
			out[i] = Update(tuple())
		default:
			out[i] = Insert(tuple())
		}
	}
	return out
}

func deltasEqual(a, b []Delta) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Op != b[i].Op || !a[i].Tup.Equal(b[i].Tup) || !a[i].Old.Equal(b[i].Old) {
			return false
		}
	}
	return true
}

// TestBatchRowRoundTrip: columnar ↔ row conversion is exact for every
// value kind, NULLs included, with replace old/new groups preserved.
func TestBatchRowRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		rows := randBatch(r, r.Intn(40), 1+r.Intn(5))
		b, ok := FromDeltas(rows)
		if !ok {
			t.Fatalf("trial %d: uniform batch rejected", trial)
		}
		if got := b.Deltas(); !deltasEqual(got, rows) {
			t.Fatalf("trial %d: round trip mismatch:\n got %v\nwant %v", trial, got, rows)
		}
	}
}

// TestBatchWireRoundTrip: encode → decode (lazy) → materialize equals the
// original, and re-encoding a still-lazy decoded batch is byte-identical.
func TestBatchWireRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		rows := randBatch(r, r.Intn(40), 1+r.Intn(5))
		b, _ := FromDeltas(rows)
		enc := AppendDeltaBatch(nil, b)
		dec, used, err := DecodeDeltaBatch(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if used != len(enc) {
			t.Fatalf("trial %d: decode consumed %d of %d bytes", trial, used, len(enc))
		}
		// Re-encode before touching any column: the lazy raw spans must
		// reproduce the original bytes.
		re := AppendDeltaBatch(nil, dec)
		if !reflect.DeepEqual(re, enc) {
			t.Fatalf("trial %d: lazy re-encode differs", trial)
		}
		if got := dec.Deltas(); !deltasEqual(got, rows) {
			t.Fatalf("trial %d: wire round trip mismatch:\n got %v\nwant %v", trial, got, rows)
		}
	}
}

// TestAppendReplaceRows: the replace rows found through the ops lane are
// the rows whose Op is OpReplace, on built and on decoded batches, and
// they land behind dst's prefix.
func TestAppendReplaceRows(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		rows := randBatch(r, r.Intn(40), 1+r.Intn(3))
		built, _ := FromDeltas(rows)
		dec, _, err := DecodeDeltaBatch(AppendDeltaBatch(nil, built))
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		want := []int32{-1}
		for i, d := range rows {
			if d.Op == OpReplace {
				want = append(want, int32(i))
			}
		}
		for _, b := range []*DeltaBatch{built, dec} {
			if got := b.AppendReplaceRows([]int32{-1}); !slices.Equal(got, want) {
				t.Fatalf("trial %d: AppendReplaceRows = %v, want %v", trial, got, want)
			}
		}
	}
}

// TestBatchLazyVsEagerIdentical: reading a decoded batch lazily (column
// by column, via accessors) yields exactly what eager materialization
// does — the satellite's zero-copy vs materializing decode equivalence.
func TestBatchLazyVsEagerIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		rows := randBatch(r, 1+r.Intn(30), 1+r.Intn(4))
		b, _ := FromDeltas(rows)
		enc := AppendDeltaBatch(nil, b)

		lazy, _, err := DecodeDeltaBatch(enc)
		if err != nil {
			t.Fatal(err)
		}
		eager, _, err := DecodeDeltaBatch(enc)
		if err != nil {
			t.Fatal(err)
		}
		eagerRows := eager.Deltas() // materializes everything up front

		scratch := make(Tuple, 0, lazy.NumCols())
		for i := 0; i < lazy.Len(); i++ {
			if lazy.Op(i) != eagerRows[i].Op {
				t.Fatalf("trial %d row %d: op mismatch", trial, i)
			}
			got := lazy.Row(i, scratch)
			if !Tuple(got).Equal(eagerRows[i].Tup) {
				t.Fatalf("trial %d row %d: lazy %v != eager %v", trial, i, got, eagerRows[i].Tup)
			}
			d := lazy.Delta(i)
			if !d.Old.Equal(eagerRows[i].Old) {
				t.Fatalf("trial %d row %d: old mismatch", trial, i)
			}
		}
	}
}

// TestColumnHashAt locks hashAt to HashValue for every kind, so the
// boxing-free routing hash can never diverge from Tuple.HashKey.
func TestColumnHashAt(t *testing.T) {
	vals := []Value{
		nil, int64(0), int64(-1), int64(math.MaxInt64), int64(math.MinInt64),
		float64(3), float64(3.5), math.Inf(1), math.Inf(-1), -0.0,
		"", "x", "partition-key", true, false,
	}
	var c Column
	for _, v := range vals {
		c.AppendValue(v)
	}
	for i, v := range vals {
		if got, want := c.hashAt(i), HashValue(v); got != want {
			t.Errorf("hashAt(%v) = %#x, want %#x", v, got, want)
		}
	}
	// Mixed column (anys fallback) must agree too.
	var m Column
	m.AppendValue(int64(1))
	m.AppendValue("one")
	for i, v := range []Value{int64(1), "one"} {
		if got, want := m.hashAt(i), HashValue(v); got != want {
			t.Errorf("mixed hashAt(%v) = %#x, want %#x", v, got, want)
		}
	}
}

// TestBatchHashKeyAt: the columnar routing hash equals Tuple.HashKey for
// single- and multi-column keys.
func TestBatchHashKeyAt(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	rows := randBatch(r, 50, 3)
	b, _ := FromDeltas(rows)
	for _, key := range [][]int{{0}, {1}, {2}, {0, 2}, {2, 1, 0}} {
		hs := b.HashKeys(key, nil)
		for i, d := range rows {
			if got, want := hs[i], d.Tup.HashKey(key); got != want {
				t.Fatalf("key %v row %d: HashKeys %#x != HashKey %#x", key, i, got, want)
			}
		}
	}
}

// TestBatchAppendRowFrom: column-wise row copies preserve values, ops,
// and old groups across batches, including pooled destination reuse.
func TestBatchAppendRowFrom(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		rows := randBatch(r, 1+r.Intn(20), 1+r.Intn(4))
		src, _ := FromDeltas(rows)
		dst := GetBatch()
		for i := 0; i < src.Len(); i++ {
			dst.AppendRowFrom(src, i)
		}
		if got := dst.Deltas(); !deltasEqual(got, rows) {
			t.Fatalf("trial %d: AppendRowFrom mismatch", trial)
		}
		PutBatch(dst)
	}
}

// TestBatchFromDeltasRagged: ragged arities are reported, not mangled.
func TestBatchFromDeltasRagged(t *testing.T) {
	if _, ok := FromDeltas([]Delta{Insert(NewTuple(int64(1))), Insert(NewTuple(int64(1), int64(2)))}); ok {
		t.Fatal("ragged new arity accepted")
	}
	if _, ok := FromDeltas([]Delta{
		Replace(NewTuple(int64(1)), NewTuple(int64(2))),
		Replace(NewTuple(int64(1), int64(9)), NewTuple(int64(3))),
	}); ok {
		t.Fatal("ragged old arity accepted")
	}
}

// TestPutBatchRejectsBorrowed: pooled reuse of a decoded batch is a
// lifetime bug and must panic rather than scribble the frame buffer.
func TestPutBatchRejectsBorrowed(t *testing.T) {
	b, _ := FromDeltas([]Delta{Insert(NewTuple(int64(1)))})
	enc := AppendDeltaBatch(nil, b)
	dec, _, err := DecodeDeltaBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PutBatch accepted a borrowed batch")
		}
	}()
	PutBatch(dec)
}

// TestBatchQuickEncode drives random single-kind tuples through the full
// columnar wire cycle under testing/quick.
func TestBatchQuickEncode(t *testing.T) {
	f := func(ints []int64, f64s []float64, strs []string, seed int64) bool {
		var ds []Delta
		for _, v := range ints {
			ds = append(ds, Insert(NewTuple(v)))
		}
		b, ok := FromDeltas(ds)
		if !ok {
			return false
		}
		dec, _, err := DecodeDeltaBatch(AppendDeltaBatch(nil, b))
		if err != nil {
			return false
		}
		return deltasEqual(dec.Deltas(), ds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// colShapes renders each column's lane shape (kind, mixed) for comparing
// how two batches store equal values.
func colShapes(b *DeltaBatch) string {
	s := ""
	for j := 0; j < b.NumCols(); j++ {
		s += fmt.Sprintf("%v/%v ", b.Col(j).Kind(), b.Col(j).Mixed())
	}
	for j := 0; j < b.NumOldCols(); j++ {
		s += fmt.Sprintf("old %v/%v ", b.OldCol(j).Kind(), b.OldCol(j).Mixed())
	}
	return s
}

// TestGatherMatchesAppendRowFrom: a gather is AppendRowFrom row by row —
// same rows, ops and old images, and the same lane shapes — over random
// batches with NULLs, strings, mixed lanes and replace rows, onto empty
// and partly filled destinations, with selections in any order.
func TestGatherMatchesAppendRowFrom(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 500; trial++ {
		arity := 1 + r.Intn(4)
		src, _ := FromDeltas(randBatch(r, 1+r.Intn(40), arity))
		var pre *DeltaBatch
		if r.Intn(2) == 0 {
			pre, _ = FromDeltas(randBatch(r, 1+r.Intn(10), arity))
		}
		var sel []int32
		for i := 0; i < src.Len(); i++ {
			if r.Intn(3) > 0 {
				sel = append(sel, int32(i))
			}
		}
		if r.Intn(4) == 0 {
			r.Shuffle(len(sel), func(i, j int) { sel[i], sel[j] = sel[j], sel[i] })
		}
		got, want := &DeltaBatch{}, &DeltaBatch{}
		for _, b := range []*DeltaBatch{got, want} {
			if pre != nil {
				for i := 0; i < pre.Len(); i++ {
					b.AppendRowFrom(pre, i)
				}
			}
		}
		got.Gather(src, sel)
		for _, i := range sel {
			want.AppendRowFrom(src, int(i))
		}
		if got.Len() != want.Len() || !deltasEqual(got.Deltas(), want.Deltas()) {
			t.Fatalf("trial %d: gather rows\n got %v\nwant %v", trial, got.Deltas(), want.Deltas())
		}
		if got.HasOld() != want.HasOld() || colShapes(got) != colShapes(want) {
			t.Fatalf("trial %d: gather lanes %q (old %v), row copies %q (old %v)", trial, colShapes(got), got.HasOld(), colShapes(want), want.HasOld())
		}
	}
}

// TestSwapRemoveMatchesRowModel: CopyRowFrom, Truncate and RowEqual — the
// stored-chunk edits — keep an all-insert batch equal to a row list under
// random swap-removes, across NULLs, mixed lanes and kind changes.
func TestSwapRemoveMatchesRowModel(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 300; trial++ {
		arity := 1 + r.Intn(4)
		var rows []Tuple
		for _, d := range randBatch(r, 1+r.Intn(30), arity) {
			rows = append(rows, d.Tup)
		}
		b, other := &DeltaBatch{}, &DeltaBatch{}
		for _, row := range rows {
			b.AppendInsert(row)
		}
		for _, d := range randBatch(r, 1+r.Intn(5), arity) {
			other.AppendInsert(d.Tup) // a second chunk, whose rows move in
		}
		for len(rows) > 0 {
			i := r.Intn(len(rows))
			if !b.RowEqual(i, rows[i]) {
				t.Fatalf("trial %d: RowEqual(%d, %v) = false on %v", trial, i, rows[i], b.Delta(i).Tup)
			}
			if j := r.Intn(len(rows)); b.RowEqual(i, rows[j]) != rows[i].Equal(rows[j]) {
				t.Fatalf("trial %d: RowEqual(%d, %v) on %v disagrees with Tuple.Equal", trial, i, rows[j], rows[i])
			}
			if r.Intn(3) == 0 && other.Len() > 0 {
				j := other.Len() - 1
				b.CopyRowFrom(i, other, j)
				rows[i] = other.Delta(j).Tup
				other.Truncate(j)
			} else {
				last := len(rows) - 1
				b.CopyRowFrom(i, b, last)
				rows[i] = rows[last]
				rows = rows[:last]
				b.Truncate(last)
			}
			for k, row := range rows {
				if d := b.Delta(k); d.Op != OpInsert || !d.Tup.Equal(row) {
					t.Fatalf("trial %d: row %d = %v, model %v", trial, k, d, row)
				}
			}
			if b.Len() != len(rows) {
				t.Fatalf("trial %d: %d rows, model %d", trial, b.Len(), len(rows))
			}
		}
		regrown := make(Tuple, arity)
		for j := range regrown {
			regrown[j] = int64(j) // regrowth reads no stale NULL bits
		}
		b.AppendInsert(regrown)
		if d := b.Delta(0); !d.Tup.Equal(regrown) {
			t.Fatalf("trial %d: regrown row %v, want %v", trial, d.Tup, regrown)
		}
	}
}
