package exec

import (
	"testing"

	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
)

// fuzzGroupBySpec has one aggregate of every lane shape, so Restore
// parses every state layout.
func fuzzGroupBySpec() *OpSpec {
	v := expr.NewCol(1, types.KindFloat, "v")
	return &OpSpec{
		Kind: OpGroupBy, GroupKey: []int{0},
		Aggs: []AggSpec{
			{Fn: "sum", Args: []expr.Expr{v}},
			{Fn: "count"},
			{Fn: "avg", Args: []expr.Expr{v}},
			{Fn: "min", Args: []expr.Expr{v}},
			{Fn: "max", Args: []expr.Expr{v}},
			{Fn: "argmin", Args: []expr.Expr{expr.NewCol(0, types.KindInt, "k"), v}},
		},
	}
}

// fuzzEntries decodes data as a run of encoded checkpoint entries,
// stopping at the first undecodable byte.
func fuzzEntries(data []byte) []types.Tuple {
	var out []types.Tuple
	for len(data) > 0 {
		t, n, err := types.DecodeTuple(data)
		if err != nil || n <= 0 {
			break
		}
		out = append(out, t)
		data = data[n:]
	}
	return out
}

// Checkpoint entries arrive from peers and from disk, so Restore must
// turn any malformed entry into an error, never a panic; whatever it
// accepts must flush and checkpoint again.
func FuzzGroupByRestore(f *testing.F) {
	g, err := newGroupByOp(fuzzGroupBySpec(), 1, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	g.outs = outputs{{op: &collector{}, port: 0}}
	var rows []types.Delta
	for i := 0; i < 12; i++ {
		rows = append(rows, types.Insert(types.NewTuple(int64(i%4), float64(i)/2)))
	}
	rows = append(rows, types.Delete(types.NewTuple(int64(1), 0.5)))
	if err := push(g, 0, rows); err != nil {
		f.Fatal(err)
	}
	if err := g.Punct(0, 0, false); err != nil {
		f.Fatal(err)
	}
	var all []byte
	for _, e := range g.DirtyState() {
		one := types.AppendTuple(nil, e)
		f.Add(one)
		f.Add(one[:len(one)/2])
		all = append(all, one...)
	}
	f.Add(all)
	f.Add(types.AppendTuple(nil, types.NewTuple(int64(0), int64(1), int64(7), true, int64(7))))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := newGroupByOp(fuzzGroupBySpec(), 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		c := &collector{}
		g.outs = outputs{{op: c, port: 0}}
		if err := g.Restore([][]types.Tuple{fuzzEntries(data)}); err != nil {
			return
		}
		if err := push(g, 0, []types.Delta{types.Insert(types.NewTuple(int64(1), 2.0))}); err != nil {
			t.Fatal(err)
		}
		if err := g.Punct(0, 0, false); err != nil {
			t.Fatal(err)
		}
		g.DirtyState()
	})
}
