package exec

import (
	"testing"

	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// bucketSeeds are the checkpoints of a join and of a fixpoint under each
// kind of while rule, one encoded entry per seed plus each whole
// checkpoint.
func bucketSeeds(f *testing.F) [][]byte {
	var checkpoints [][]types.Tuple
	j := newHashJoinOp(joinSpec(-1), nil, 0)
	j.outs = outputs{{op: &collector{}, port: 0}}
	for i := 0; i < 6; i++ {
		if err := push(j, i%2, []types.Delta{types.Insert(types.NewTuple(int64(i%3), float64(i)))}); err != nil {
			f.Fatal(err)
		}
	}
	if err := push(j, 0, []types.Delta{types.Delete(types.NewTuple(int64(2), 4.0))}); err != nil {
		f.Fatal(err)
	}
	checkpoints = append(checkpoints, j.DirtyState())
	for _, h := range []uda.WhileHandler{nil, distinctWhile} {
		fx := newTestFixpoint(h)
		if err := push(fx, 0, []types.Delta{
			types.Insert(types.NewTuple(int64(1), "a")),
			types.Insert(types.NewTuple(int64(1), "b")),
			types.Insert(types.NewTuple(int64(2), "c")),
			types.Delete(types.NewTuple(int64(2), "c")),
		}); err != nil {
			f.Fatal(err)
		}
		checkpoints = append(checkpoints, fx.DirtyState())
	}
	var seeds [][]byte
	for _, entries := range checkpoints {
		var all []byte
		for _, e := range entries {
			one := types.AppendTuple(nil, e)
			seeds = append(seeds, one)
			all = append(all, one...)
		}
		seeds = append(seeds, all)
	}
	return seeds
}

// Checkpoint entries arrive from peers and from disk, so the join's and
// the fixpoint's Restore must turn any malformed entry into an error,
// never a panic; whatever they accept must checkpoint again and, for the
// fixpoint, finish.
func FuzzBucketRestore(f *testing.F) {
	for _, seed := range bucketSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries := fuzzEntries(data)

		j := newHashJoinOp(joinSpec(-1), nil, 0)
		j.outs = outputs{{op: &collector{}, port: 0}}
		if j.Restore([][]types.Tuple{entries}) == nil {
			// A restored bucket of another width may refuse the probe's
			// output row; only a panic fails.
			_ = push(j, 0, []types.Delta{types.Insert(types.NewTuple(int64(1), 2.0))})
			j.DirtyState()
		}

		for _, h := range []uda.WhileHandler{nil, distinctWhile} {
			fx := newTestFixpoint(h)
			if fx.Restore([][]types.Tuple{entries, entries}) != nil {
				continue
			}
			_ = push(fx, 1, []types.Delta{types.Insert(types.NewTuple(int64(1), 2.0))})
			fx.DirtyState()
			if err := fx.Finish(); err != nil {
				t.Fatalf("Finish after restore: %v", err)
			}
		}
	})
}
