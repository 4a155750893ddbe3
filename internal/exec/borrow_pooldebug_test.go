//go:build pooldebug

package exec

import (
	"testing"

	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// Under pooldebug a handler that keeps its borrowed row past the call
// reads poison on the next one.
func TestBorrowedRowsPoisoned(t *testing.T) {
	var kept types.Tuple
	var seen types.Value
	h := &uda.FuncWhileHandler{HName: "keeper", Fn: func(rel *uda.TupleSet, d types.Delta, out *uda.Emitter) error {
		if kept != nil {
			seen = kept[1]
		}
		kept = d.Tup
		return nil
	}}
	f := newTestFixpoint(h)
	must(t, push(f, 0, []types.Delta{
		types.Insert(types.NewTuple(int64(1), "a")),
		types.Insert(types.NewTuple(int64(2), "b")),
	}))
	if seen != "«row-poison»" {
		t.Fatalf("a kept row read %#v after its handler returned, want poison", seen)
	}
}
