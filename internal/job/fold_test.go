package job

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// foldByScan is the reference fold: each delete or replace scans the
// rows for the first equal one.
func foldByScan(rows []types.Tuple, log []types.Delta) []types.Tuple {
	remove := func(ts []types.Tuple, t types.Tuple) []types.Tuple {
		for i, x := range ts {
			if x.Equal(t) {
				return append(ts[:i], ts[i+1:]...)
			}
		}
		return ts
	}
	for _, d := range log {
		switch d.Op {
		case types.OpInsert, types.OpUpdate:
			rows = append(rows, d.Tup)
		case types.OpDelete:
			rows = remove(rows, d.Tup)
		case types.OpReplace:
			rows = append(remove(rows, d.Old), d.Tup)
		}
	}
	return rows
}

// TestFoldLogMatchesScan checks the one-pass fold against the scan on
// random logs over a small value domain, so duplicates, repeated
// deletes, deletes of absent rows and replace chains are all common; a NaN
// value equals nothing, itself included, so its deletes remove nothing.
// Every
// row and logged tuple is its own allocation, and the results must hold
// the same allocations in the same order: which copy of a duplicate
// survives, and where, is checked too.
func TestFoldLogMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	value := func() types.Tuple {
		k := rng.Int63n(5)
		switch rng.Intn(8) {
		case 0, 1:
			return types.NewTuple(float64(k), "x") // Equal to the int key
		case 2:
			return types.NewTuple(math.NaN(), "x")
		}
		return types.NewTuple(k, "x")
	}
	same := func(a, b types.Tuple) bool { return &a[0] == &b[0] }
	for trial := 0; trial < 3000; trial++ {
		var rows []types.Tuple
		for i := rng.Intn(12); i > 0; i-- {
			rows = append(rows, value())
		}
		var log []types.Delta
		for i := rng.Intn(16); i > 0; i-- {
			switch rng.Intn(5) {
			case 0:
				log = append(log, types.Insert(value()))
			case 1:
				log = append(log, types.Update(value()))
			case 2, 3:
				log = append(log, types.Delete(value()))
			case 4:
				log = append(log, types.Replace(value(), value()))
			}
		}
		want := foldByScan(slices.Clone(rows), log)
		got := foldLog(slices.Clone(rows), log)
		if !slices.EqualFunc(got, want, same) {
			t.Fatalf("trial %d: rows %v, log %v:\n fold %v\n scan %v", trial, rows, log, got, want)
		}
	}
}

// TestApplyIngestAcrossEntries folds two log entries for one table as one
// log, after the entries of another table.
func TestApplyIngestAcrossEntries(t *testing.T) {
	a, b, c := types.NewTuple(int64(1)), types.NewTuple(int64(2)), types.NewTuple(int64(3))
	s := &Spec{Ingest: []IngestedTable{
		{Table: "t", Deltas: cluster.EncodeDeltas([]types.Delta{types.Insert(c), types.Delete(a)})},
		{Table: "u", Deltas: cluster.EncodeDeltas([]types.Delta{types.Delete(b)})},
		{Table: "t", Deltas: cluster.EncodeDeltas([]types.Delta{types.Delete(a), types.Replace(b, a)})},
	}}
	tables, err := s.applyIngest([]Table{
		{Name: "t", Tuples: []types.Tuple{a, b, a}},
		{Name: "u", Tuples: []types.Tuple{b}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tables[0].Tuples, []types.Tuple{c, a}; !slices.EqualFunc(got, want, types.Tuple.Equal) {
		t.Errorf("table t: %v, want %v", got, want)
	}
	if got := tables[1].Tuples; len(got) != 0 {
		t.Errorf("table u: %v, want empty", got)
	}
	s.Ingest = append(s.Ingest, IngestedTable{Table: "v"})
	if _, err := s.applyIngest([]Table{{Name: "t"}, {Name: "u"}}); err == nil {
		t.Error("a log entry for a table outside the dataset was accepted")
	}
}
