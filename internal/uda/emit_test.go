package uda

import (
	"testing"

	"github.com/rex-data/rex/internal/types"
)

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func deltasEqual(a, b []types.Delta) bool {
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

// The typed path and Emit write the same rows Append would, NULLs and a
// replace's old image included.
func TestEmitterRows(t *testing.T) {
	out := NewEmitter(3)
	out.Begin(types.OpUpdate)
	out.Int(7)
	out.Float(0.5)
	out.Str("x")
	must(t, out.End())
	out.Begin(types.OpInsert)
	out.Value(nil)
	out.Value(1.5)
	out.Value("y")
	must(t, out.End())
	out.Begin(types.OpReplace)
	out.Int(8)
	out.Float(2)
	out.Value(nil)
	out.Int(8)
	out.Float(1)
	out.Str("old")
	must(t, out.End())
	must(t, out.Emit(types.Replace(types.NewTuple(int64(9), 3.0, nil), types.NewTuple(int64(9), 4.0, "new"))))
	want := []types.Delta{
		types.Update(types.NewTuple(int64(7), 0.5, "x")),
		types.Insert(types.NewTuple(nil, 1.5, "y")),
		types.Replace(types.NewTuple(int64(8), 1.0, "old"), types.NewTuple(int64(8), 2.0, nil)),
		types.Replace(types.NewTuple(int64(9), 3.0, nil), types.NewTuple(int64(9), 4.0, "new")),
	}
	if got := out.Batch().Deltas(); !deltasEqual(got, want) {
		t.Fatalf("emitted %v, want %v", got, want)
	}
	if k := out.Batch().Col(0).Kind(); k != types.KindInt {
		t.Errorf("column 0 is %v, want a typed Integer lane", k)
	}
}

// A row of the wrong width is an error and leaves the batch as it was.
func TestEmitterWrongColumnCount(t *testing.T) {
	out := NewEmitter(2)
	out.Begin(types.OpUpdate)
	out.Int(1)
	if err := out.End(); err == nil {
		t.Error("a 1-column row into a 2-column emitter was accepted")
	}
	out.Begin(types.OpUpdate)
	out.Int(1)
	out.Float(1)
	out.Float(1)
	if err := out.End(); err == nil {
		t.Error("a 3-column row into a 2-column emitter was accepted")
	}
	out.Begin(types.OpReplace)
	out.Int(1)
	out.Float(1)
	out.Int(1)
	if err := out.End(); err == nil {
		t.Error("a replace with a short old image was accepted")
	}
	if err := out.Emit(types.Insert(types.NewTuple(int64(1)))); err == nil {
		t.Error("Emit of a 1-column delta into a 2-column emitter was accepted")
	}
	if err := out.Emit(types.Replace(types.NewTuple(int64(1)), types.NewTuple(int64(1), 2.0))); err == nil {
		t.Error("Emit of a replace whose old image is narrower was accepted")
	}
	if err := out.End(); err == nil {
		t.Error("End without Begin was accepted")
	}
	if n := out.Batch().Len(); n != 0 {
		t.Fatalf("rejected rows left %d rows in the batch", n)
	}
	// Without a declared width, the first row sets it.
	free := NewEmitter(0)
	must(t, free.Emit(types.Insert(types.NewTuple(int64(1), "a"))))
	if err := free.Emit(types.Insert(types.NewTuple(int64(1)))); err == nil {
		t.Error("a row narrower than the first was accepted")
	}
	// A zero-column first row sets the width too.
	empty := NewEmitter(0)
	must(t, empty.Emit(types.Insert(types.NewTuple())))
	if err := empty.Emit(types.Insert(types.NewTuple(int64(1)))); err == nil {
		t.Error("a 1-column row after a 0-column one was accepted")
	}
}

// Kinds adopt and demote exactly as Column.AppendValue does.
func TestEmitterKindDemotion(t *testing.T) {
	vals := []types.Value{nil, int64(3), 2.5, "s", true, int64(4)}
	out := NewEmitter(1)
	ref := &types.Column{}
	for _, v := range vals {
		out.Begin(types.OpInsert)
		switch x := v.(type) {
		case int64:
			out.Int(x)
		case float64:
			out.Float(x)
		case string:
			out.Str(x)
		default:
			out.Value(x)
		}
		must(t, out.End())
		ref.AppendValue(v)
	}
	got := out.Batch().Col(0)
	if got.Kind() != ref.Kind() || got.Mixed() != ref.Mixed() {
		t.Fatalf("column kind %v (mixed %v), AppendValue gives %v (mixed %v)", got.Kind(), got.Mixed(), ref.Kind(), ref.Mixed())
	}
	for i, v := range vals {
		if g := got.Value(i); !types.ValueEq(g, v) || types.KindOf(g) != types.KindOf(v) {
			t.Errorf("row %d: %#v, want %#v", i, g, v)
		}
	}
}

// Mutating a delta after Emit changes nothing in the batch.
func TestEmitterDoesNotRetainInputs(t *testing.T) {
	out := NewEmitter(2)
	tup := types.NewTuple(int64(1), "a")
	old := types.NewTuple(int64(1), "z")
	must(t, out.Emit(types.Replace(old, tup)))
	row := types.NewTuple(int64(2), "b")
	out.Begin(types.OpInsert)
	out.Value(row[0])
	out.Value(row[1])
	must(t, out.End())
	tup[1], old[1], row[1] = "mutated", "mutated", "mutated"
	want := []types.Delta{
		types.Replace(types.NewTuple(int64(1), "z"), types.NewTuple(int64(1), "a")),
		types.Insert(types.NewTuple(int64(2), "b")),
	}
	if got := out.Batch().Deltas(); !deltasEqual(got, want) {
		t.Fatalf("batch holds %v after its inputs changed, want %v", got, want)
	}
}

// The batch goes to flush every n rows, mid-row-stream, and is empty and
// reused afterwards; rows emitted while flush runs land in a fresh batch.
func TestEmitterFlushEvery(t *testing.T) {
	var out *Emitter
	var sizes []int
	reentered := false
	out = NewEmitter(1)
	out.FlushEvery(3, func(b *types.DeltaBatch) error {
		sizes = append(sizes, b.Len())
		if !reentered {
			reentered = true
			must(t, out.Emit(types.Insert(types.NewTuple(int64(-1)))))
		}
		return nil
	})
	for i := 0; i < 7; i++ {
		must(t, out.Emit(types.Insert(types.NewTuple(int64(i)))))
	}
	must(t, out.Flush())
	if want := []int{3, 3, 2}; len(sizes) != len(want) || sizes[0] != 3 || sizes[1] != 3 || sizes[2] != 2 {
		t.Fatalf("flushed batches of %v rows, want %v", sizes, want)
	}
	if out.Batch().Len() != 0 {
		t.Fatalf("%d rows left after Flush", out.Batch().Len())
	}
}
