package types

import (
	"math/rand"
	"runtime"
	"testing"
)

// AppendDeltas yields exactly Deltas' rows of its range, after whatever
// dst held, for built and lazily decoded batches of every value kind.
func TestAppendDeltasMatchesDeltas(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	prefix := []Delta{Insert(NewTuple("kept"))}
	for trial := 0; trial < 200; trial++ {
		rows := randBatch(r, r.Intn(40), 1+r.Intn(5))
		b, _ := FromDeltas(rows)
		dec, _, err := DecodeDeltaBatch(AppendDeltaBatch(nil, b))
		if err != nil {
			t.Fatal(err)
		}
		lo := 0
		if len(rows) > 0 {
			lo = r.Intn(len(rows))
		}
		hi := lo + r.Intn(len(rows)-lo+1)
		for _, src := range []*DeltaBatch{b, dec} {
			got, _ := src.AppendDeltas(append([]Delta(nil), prefix...), nil, lo, hi)
			if !deltasEqual(got[:1], prefix) || !deltasEqual(got[1:], rows[lo:hi]) {
				t.Fatalf("trial %d: AppendDeltas(%d, %d) mismatch:\n got %v\nwant %v", trial, lo, hi, got[1:], rows[lo:hi])
			}
		}
	}
}

// The rows outlive the batch they came from, whose storage is then reused,
// and growing one row's tuple never writes into the next row.
func TestAppendDeltasRowsAreIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	want := randBatch(r, 300, 3)
	b := GetBatch()
	for _, d := range want {
		b.Append(d)
	}
	got, _ := b.AppendDeltas(nil, nil, 0, b.Len())
	PutBatch(b)
	for k := 0; k < 4; k++ { // churn the pool and the heap
		o := GetBatch()
		for _, d := range randBatch(r, 300, 3) {
			o.Append(d)
		}
		PutBatch(o)
		runtime.GC()
	}
	if !deltasEqual(got, want) {
		t.Fatal("rows changed after their batch was reused")
	}
	_ = append(got[0].Tup, "spill")
	if !got[1].Tup.Equal(want[1].Tup) {
		t.Fatal("appending to one row's tuple overwrote the next row")
	}
}

// A batch costs a handful of allocations whatever its length: one copy
// of each typed lane, once the caller reuses its row values.
func TestAppendDeltasAllocsPerBatch(t *testing.T) {
	b := GetBatch()
	for i := 0; i < 1024; i++ {
		b.Append(Update(NewTuple(int64(1000+i), float64(i)/7, "s")))
	}
	dst := make([]Delta, 0, b.Len())
	var vals []Value
	if n := testing.AllocsPerRun(20, func() { dst, vals = b.AppendDeltas(dst[:0], vals, 0, b.Len()) }); n > 3 {
		t.Errorf("AppendDeltas: %.0f allocations for a 1024-row batch, want ≤ 3", n)
	}
}

// Reused row values are overwritten, NULL columns included, so no row
// reads what the previous call left.
func TestAppendDeltasReusedValues(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var vals []Value
	for trial := 0; trial < 100; trial++ {
		rows := randBatch(r, 1+r.Intn(40), 1+r.Intn(4))
		if trial%3 == 0 {
			for i := range rows {
				rows[i].Tup[0] = nil
			}
		}
		b, _ := FromDeltas(rows)
		var got []Delta
		got, vals = b.AppendDeltas(nil, vals, 0, b.Len())
		if !deltasEqual(got, rows) {
			t.Fatalf("trial %d: reused values gave %v, want %v", trial, got, rows)
		}
	}
}
