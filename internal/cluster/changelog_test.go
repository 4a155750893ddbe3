package cluster

import (
	"slices"
	"testing"

	"github.com/rex-data/rex/internal/types"
)

// Under churn the log folds every ChangeLogFoldEvery appends, so it
// retains at most one fold window beyond the net change, and Net is
// exactly the net change.
func TestChangeLogFoldsChurn(t *testing.T) {
	l := NewChangeLog(1)
	for i := 0; i < 500; i++ {
		e := types.NewTuple("edge", int64(i%7))
		l.Append([]types.Delta{types.Insert(e)})
		l.Append([]types.Delta{types.Delete(e)})
		if n := l.Len(); n >= 2*ChangeLogFoldEvery {
			t.Fatalf("after %d zero-net cycles the log retains %d deltas (fold threshold %d)", i+1, n, ChangeLogFoldEvery)
		}
	}
	if net := l.Net(); len(net) != 0 {
		t.Fatalf("zero-net churn left %v", net)
	}

	// Net keeps what survives: the last image of every live key.
	l.Append([]types.Delta{
		types.Insert(types.NewTuple("a", int64(1))),
		types.Insert(types.NewTuple("b", int64(2))),
		types.Replace(types.NewTuple("a", int64(1)), types.NewTuple("c", int64(1))),
		types.Delete(types.NewTuple("b", int64(2))),
		types.Insert(types.NewTuple("d", int64(3))),
	})
	var got []string
	for _, d := range l.Net() {
		got = append(got, d.Tup.String())
	}
	slices.Sort(got)
	want := []string{types.NewTuple("c", int64(1)).String(), types.NewTuple("d", int64(3)).String()}
	if !slices.Equal(got, want) {
		t.Fatalf("net change %v, want inserts of %v", l.Net(), want)
	}
	for _, d := range l.Net() {
		if d.Op != types.OpInsert {
			t.Fatalf("net change %v: want inserts only", l.Net())
		}
	}
	if l.Len() != 2 {
		t.Fatalf("retained %d deltas after Net, want 2", l.Len())
	}
}
