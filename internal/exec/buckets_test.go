package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/storage"
	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// distinctWhile is a while handler whose buckets hold several tuples: it
// keeps every distinct tuple of a key, propagating arrivals and removals.
var distinctWhile = &uda.FuncWhileHandler{HName: "distinct", Fn: func(rel *uda.TupleSet, d types.Delta, out *uda.Emitter) error {
	for i := 0; i < rel.Len(); i++ {
		if rel.RowEqual(i, d.Tup) {
			if d.Op == types.OpDelete {
				rel.RemoveAt(i)
				return out.Emit(d)
			}
			return nil
		}
	}
	if d.Op == types.OpDelete {
		return nil
	}
	rel.Add(d.Tup)
	return out.Emit(types.Insert(d.Tup))
}}

func joinSpec(immutable int) *OpSpec {
	return &OpSpec{Kind: OpHashJoin, LeftKey: []int{0}, RightKey: []int{0}, ImmutablePort: immutable}
}

func fixpointSpec(handler string) *OpSpec {
	return &OpSpec{Kind: OpFixpoint, FixpointKey: []int{0}, RecursiveOut: 1, WhileHandlerName: handler}
}

func newTestFixpoint(handler uda.WhileHandler) *fixpointOp {
	name := ""
	if handler != nil {
		name = handler.Name()
	}
	f := newFixpointOp(fixpointSpec(name), &Context{}, handler)
	f.recursiveOuts = outputs{{op: &collector{}, port: 0}}
	f.finalOuts = outputs{{op: &collector{}, port: 0}}
	return f
}

// rendered is a delta list as a sorted multiset of strings.
func rendered(ds []types.Delta) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmt.Sprint(d)
	}
	slices.Sort(out)
	return out
}

// joinNext feeds j one left and two right deltas and returns what it
// emitted.
func joinNext(t *testing.T, j *hashJoinOp) []string {
	t.Helper()
	c := &collector{}
	j.outs = outputs{{op: c, port: 0}}
	must(t, push(j, 0, []types.Delta{types.Insert(types.NewTuple(int64(1), "l9"))}))
	must(t, push(j, 1, []types.Delta{types.Insert(types.NewTuple(int64(3), "r9"))}))
	must(t, push(j, 1, []types.Delta{types.Insert(types.NewTuple(int64(2), "r8"))}))
	return rendered(c.deltas)
}

// fixpointNext feeds f one stratum and returns its Δ set and final state.
func fixpointNext(t *testing.T, f *fixpointOp) (pending, final []string) {
	t.Helper()
	must(t, push(f, 1, []types.Delta{
		types.Insert(types.NewTuple(int64(1), "a")),
		types.Insert(types.NewTuple(int64(2), "z")),
		types.Delete(types.NewTuple(int64(3), "c")),
		types.Insert(types.NewTuple(int64(5), "e")),
	}))
	pending = rendered(f.pending.Batch().Deltas())
	fin := &collector{}
	f.finalOuts = outputs{{op: fin, port: 0}}
	must(t, f.Finish())
	return pending, rendered(fin.deltas)
}

func TestBucketCheckpointRoundTrip(t *testing.T) {
	t.Run("join", func(t *testing.T) {
		j := newHashJoinOp(joinSpec(-1), nil, 0)
		j.outs = outputs{{op: &collector{}, port: 0}}
		must(t, push(j, 0, []types.Delta{
			types.Insert(types.NewTuple(int64(1), "l1")),
			types.Insert(types.NewTuple(int64(1), "l2")),
			types.Insert(types.NewTuple(int64(2), "l3")),
		}))
		must(t, push(j, 1, []types.Delta{types.Insert(types.NewTuple(int64(1), "r1"))}))
		first := j.DirtyState()
		// Emptying left bucket 2 leaves a tombstone in the next stratum.
		must(t, push(j, 0, []types.Delta{types.Delete(types.NewTuple(int64(2), "l3"))}))
		second := j.DirtyState()
		tomb := types.NewTuple(int64(types.HashValue(int64(2))), int64(0), int64(2))
		if len(second) != 1 || !second[0].Equal(tomb) {
			t.Fatalf("emptied bucket checkpointed as %v, want the tombstone %v", second, tomb)
		}
		if len(first) != 4 {
			t.Fatalf("first stratum checkpointed %d entries, want 4: %v", len(first), first)
		}

		g := newHashJoinOp(joinSpec(-1), nil, 0)
		must(t, g.Restore([][]types.Tuple{first, second}))
		if want, got := joinNext(t, j), joinNext(t, g); !slices.Equal(want, got) {
			t.Fatalf("restored join emitted %v, original %v", got, want)
		}
	})

	t.Run("join immutable side skipped", func(t *testing.T) {
		j := newHashJoinOp(joinSpec(0), nil, 0)
		j.outs = outputs{{op: &collector{}, port: 0}}
		must(t, push(j, 0, []types.Delta{types.Insert(types.NewTuple(int64(1), "l1"))}))
		must(t, push(j, 1, []types.Delta{types.Insert(types.NewTuple(int64(1), "r1"))}))
		entries := j.DirtyState()
		if len(entries) != 1 || entries[0][1] != int64(1) {
			t.Fatalf("immutable side 0 checkpointed: %v", entries)
		}
		if again := j.DirtyState(); len(again) != 0 {
			t.Fatalf("a clean stratum checkpointed %v", again)
		}
	})

	t.Run("join golden", func(t *testing.T) {
		h := int64(types.HashValue(int64(1)))
		g := newHashJoinOp(joinSpec(-1), nil, 0)
		must(t, g.Restore([][]types.Tuple{
			{types.NewTuple(h, int64(0), int64(1), int64(1), "a"), types.NewTuple(h, int64(1), int64(1), int64(1), "x")},
			{types.NewTuple(h, int64(1), int64(1), int64(1), "y")}, // resets right bucket 1
		}))
		c := &collector{}
		g.outs = outputs{{op: c, port: 0}}
		must(t, push(g, 0, []types.Delta{types.Insert(types.NewTuple(int64(1), "b"))}))
		want := []string{fmt.Sprint(types.Insert(types.NewTuple(int64(1), "b", int64(1), "y")))}
		if got := rendered(c.deltas); !slices.Equal(got, want) {
			t.Fatalf("golden join restore emitted %v, want %v", got, want)
		}
	})

	for _, h := range []uda.WhileHandler{nil, distinctWhile} {
		name := "fixpoint set semantics"
		if h != nil {
			name = "fixpoint handler"
		}
		t.Run(name, func(t *testing.T) {
			f := newTestFixpoint(h)
			must(t, push(f, 0, []types.Delta{
				types.Insert(types.NewTuple(int64(1), "a")),
				types.Insert(types.NewTuple(int64(2), "b")),
				types.Insert(types.NewTuple(int64(2), "x")),
				types.Insert(types.NewTuple(int64(3), "c")),
				types.Insert(types.NewTuple(int64(4), "d")),
			}))
			first := f.DirtyState()
			must(t, f.Advance(1))
			must(t, push(f, 1, []types.Delta{types.Delete(types.NewTuple(int64(4), "d"))}))
			second := f.DirtyState()
			if !slices.ContainsFunc(second, func(e types.Tuple) bool { return len(e) == 3 && e[1] == "S" }) {
				t.Fatalf("deleted key left no tombstone: %v", second)
			}

			g := newTestFixpoint(h)
			must(t, g.Restore([][]types.Tuple{first, second}))
			wantP, wantF := fixpointNext(t, f)
			gotP, gotF := fixpointNext(t, g)
			if !slices.Equal(wantP, gotP) || !slices.Equal(wantF, gotF) {
				t.Fatalf("restored fixpoint: Δ %v final %v; original Δ %v final %v", gotP, gotF, wantP, wantF)
			}
		})
	}

	t.Run("fixpoint golden", func(t *testing.T) {
		h := int64(types.HashValue(int64(1)))
		g := newTestFixpoint(nil)
		must(t, g.Restore([][]types.Tuple{
			{types.NewTuple(h, "S", int64(1), int64(1), "a"), types.NewTuple(int64(types.HashValue(int64(2))), "S", int64(2), int64(2), "b")},
			{types.NewTuple(int64(types.HashValue(int64(2))), "S", int64(2))}, // tombstone
		}))
		must(t, push(g, 1, []types.Delta{
			types.Insert(types.NewTuple(int64(1), "a")), // duplicate
			types.Insert(types.NewTuple(int64(1), "b")),
			types.Delete(types.NewTuple(int64(2), "b")), // already gone
		}))
		want := []string{fmt.Sprint(types.Replace(types.NewTuple(int64(1), "a"), types.NewTuple(int64(1), "b")))}
		if got := rendered(g.pending.Batch().Deltas()); !slices.Equal(got, want) {
			t.Fatalf("golden fixpoint restore: Δ %v, want %v", got, want)
		}
	})
}

// Checkpoint entries arrive from peers and from disk: the join takes a
// side tag of int64 0 or 1 and nothing else.
func TestJoinRestoreRejectsMalformedEntries(t *testing.T) {
	for _, e := range []types.Tuple{
		types.NewTuple(int64(7), int64(0)),
		types.NewTuple(int64(7), int64(2), int64(1), int64(1), "a"),
		types.NewTuple(int64(7), int64(-1), int64(1)),
		types.NewTuple(int64(7), "x", int64(1)),
		types.NewTuple(int64(7), "1", int64(1)),
		types.NewTuple(int64(7), true, int64(1)),
		types.NewTuple(int64(7), 1.0, int64(1)),
	} {
		j := newHashJoinOp(joinSpec(-1), nil, 0)
		if err := j.Restore([][]types.Tuple{{e}}); err == nil {
			t.Errorf("Restore(%v) accepted a malformed entry", e)
		}
	}
}

// setModel is the fixpoint's handler-less rule as a map from key to the
// key's one tuple (§4.2), written independently of the bucket store.
type setModel map[types.Value]types.Tuple

func (m setModel) apply(d types.Delta) []types.Delta {
	key := d.Tup.Key([]int{0})
	cur, ok := m[key]
	if d.Op == types.OpDelete {
		if !ok {
			return nil
		}
		delete(m, key)
		return []types.Delta{types.Delete(cur)}
	}
	if ok && cur.Equal(d.Tup) {
		return nil
	}
	m[key] = d.Tup
	if ok {
		return []types.Delta{types.Replace(cur, d.Tup)}
	}
	return []types.Delta{types.Insert(d.Tup)}
}

func TestSetSemanticsMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tuple := func() types.Tuple {
			vals := []types.Value{int64(rng.Intn(3)), float64(rng.Intn(3)) / 2, "s", nil}
			return types.NewTuple(int64(rng.Intn(8)), vals[rng.Intn(len(vals))])
		}
		f := newTestFixpoint(nil)
		var votes []int
		f.onStratumEnd = func(_, n int) { votes = append(votes, n) }
		model := setModel{}
		for s := 0; s < 12; s++ {
			var in, want []types.Delta
			for i := rng.Intn(24); i > 0; i-- {
				var d types.Delta
				switch rng.Intn(4) {
				case 0:
					d = types.Insert(tuple())
				case 1:
					d = types.Update(tuple())
				case 2:
					d = types.Delete(tuple())
				default:
					d = types.Replace(tuple(), tuple())
				}
				in = append(in, d)
				want = append(want, model.apply(d)...)
			}
			port := min(s, 1)
			must(t, push(f, port, in))
			must(t, f.Punct(port, s, false))
			got := f.pending.Batch().Deltas()
			if votes[s] != len(want) || !slices.Equal(rendered(got), rendered(want)) {
				t.Fatalf("seed %d stratum %d: vote %d Δ %v; model %d %v", seed, s, votes[s], got, len(want), want)
			}
			must(t, f.Advance(s+1))
		}
		fin := &collector{}
		f.finalOuts = outputs{{op: fin, port: 0}}
		must(t, f.Finish())
		var state []types.Delta
		for _, tup := range model {
			state = append(state, types.Insert(tup))
		}
		if !slices.Equal(rendered(fin.deltas), rendered(state)) {
			t.Fatalf("seed %d: final state %v, model %v", seed, fin.deltas, state)
		}
	}
}

// TestDirtyKeysOnlyWhereRead checks a worker's keyed state records dirty
// keys only for a reader: the fixpoint's for its checkpoints or its
// stream changelog, the join's mutable side for its checkpoints. The
// join's immutable side never records them.
func TestDirtyKeysOnlyWhereRead(t *testing.T) {
	for _, c := range []struct {
		checkpoint, stream      bool
		fixpoint, mutable, base bool // tracking wanted
	}{
		{false, false, false, false, false},
		{false, true, true, false, false},
		{true, false, true, true, false},
	} {
		ring := cluster.NewRing(1, 8, 1)
		w := NewWorker(WorkerConfig{
			Node: 0, Transport: cluster.NewInProcTransport(1), Store: storage.NewStore(0),
			Checkpoints: storage.NewCheckpointStore(), Catalog: newTestCatalog(t),
			Ring: ring, Plan: ssspPlan(), QueryID: "q1",
			Options: Options{Checkpoint: c.checkpoint, Stream: c.stream},
		})
		must(t, w.build(cluster.NewSnapshot(ring, ring.Nodes())))
		var join *hashJoinOp
		for _, op := range w.ops {
			if j, ok := op.(*hashJoinOp); ok {
				join = j
			}
		}
		got := [3]bool{w.fixpoint.state.sides[0].dirty != nil, join.state.sides[1].dirty != nil, join.state.sides[0].dirty != nil}
		if want := [3]bool{c.fixpoint, c.mutable, c.base}; got != want {
			t.Errorf("checkpoint=%v stream=%v: fixpoint/mutable/immutable tracking %v, want %v", c.checkpoint, c.stream, got, want)
		}
	}
}

// Keys meet as Tuple.Key has them: an integral float and −0 meet the int,
// while a single-column NaN meets no earlier key (each NaN row gets a
// bucket of its own, as under a Go map keyed by the value). Stored fields
// keep their kinds, and a checkpoint entry's key field is the normalized
// Tuple.Key, whichever row created the key.
func TestKeyedStoreKeySemantics(t *testing.T) {
	nan := math.NaN()
	sameKind := func(a, b types.Value) bool { return fmt.Sprintf("%T %v", a, a) == fmt.Sprintf("%T %v", b, b) }
	checkEntries := func(t *testing.T, entries []types.Tuple, nanEntries int) {
		t.Helper()
		nans := 0
		for _, e := range entries {
			if e[1] == "P" {
				continue // the fixpoint's pending Δ
			}
			if f, ok := e[2].(float64); ok && f != f {
				nans++
				if len(e) < 4 {
					t.Errorf("a NaN key checkpointed the tombstone %v, not its tuple", e)
				}
				continue
			}
			if _, ok := e[2].(int64); !ok {
				t.Errorf("key field %#v is not the normalized int64 in %v", e[2], e)
			}
			if e[0] != int64(types.HashValue(e[2])) {
				t.Errorf("entry %v is placed by %v, want the key's hash", e, e[0])
			}
		}
		if nans != nanEntries {
			t.Errorf("%d NaN-key entries in %v, want %d", nans, entries, nanEntries)
		}
	}

	t.Run("join", func(t *testing.T) {
		j := newHashJoinOp(joinSpec(-1), nil, 0)
		c := &collector{}
		j.outs = outputs{{op: c, port: 0}}
		must(t, push(j, 0, []types.Delta{
			types.Insert(types.NewTuple(3.0, "a")),
			types.Insert(types.NewTuple(math.Copysign(0, -1), "z")),
			types.Insert(types.NewTuple(nan, "n")),
		}))
		must(t, push(j, 1, []types.Delta{
			types.Insert(types.NewTuple(int64(3), "b")),
			types.Insert(types.NewTuple(int64(0), "y")),
			types.Insert(types.NewTuple(nan, "m")),
		}))
		if len(c.deltas) != 2 {
			t.Fatalf("join emitted %v, want the 3 and the 0 rows only", c.deltas)
		}
		if got := c.deltas[0].Tup; !sameKind(got[0], 3.0) || !sameKind(got[2], int64(3)) {
			t.Errorf("joined row %#v lost a stored kind", got)
		}
		checkEntries(t, j.DirtyState(), 2)
	})

	t.Run("fixpoint", func(t *testing.T) {
		f := newTestFixpoint(nil)
		must(t, push(f, 0, []types.Delta{
			types.Insert(types.NewTuple(nan, "a")),
			types.Insert(types.NewTuple(nan, "a")),
			types.Insert(types.NewTuple(2.0, "x")),
			types.Insert(types.NewTuple(int64(2), "x")), // a duplicate of (2.0, x)
			types.Insert(types.NewTuple(int64(2), "y")),
		}))
		want := []string{
			fmt.Sprint(types.Insert(types.NewTuple(nan, "a"))),
			fmt.Sprint(types.Insert(types.NewTuple(nan, "a"))),
			fmt.Sprint(types.Insert(types.NewTuple(2.0, "x"))),
			fmt.Sprint(types.Replace(types.NewTuple(2.0, "x"), types.NewTuple(int64(2), "y"))),
		}
		slices.Sort(want)
		if got := rendered(f.pending.Batch().Deltas()); !slices.Equal(got, want) {
			t.Fatalf("Δ %v, want %v", got, want)
		}
		checkEntries(t, f.DirtyState(), 2)
		fin := &collector{}
		f.finalOuts = outputs{{op: fin, port: 0}}
		must(t, f.Finish())
		if len(fin.deltas) != 3 {
			t.Fatalf("final relation %v, want two NaN rows and (2, y)", fin.deltas)
		}
	})

	t.Run("composite key", func(t *testing.T) {
		spec := &OpSpec{Kind: OpHashJoin, LeftKey: []int{0, 1}, RightKey: []int{0, 1}, ImmutablePort: -1}
		j := newHashJoinOp(spec, nil, 0)
		j.outs = outputs{{op: &collector{}, port: 0}}
		must(t, push(j, 0, []types.Delta{types.Insert(types.NewTuple(int64(1), 2.0, "a"))}))
		entries := j.DirtyState()
		key := types.NewTuple(int64(1), int64(2)).Key([]int{0, 1})
		if len(entries) != 1 || entries[0][2] != key || entries[0][0] != int64(types.HashValue(key)) {
			t.Fatalf("composite key checkpointed as %v, want key %q", entries, key)
		}
		g := newHashJoinOp(spec, nil, 0)
		must(t, g.Restore([][]types.Tuple{entries}))
		c := &collector{}
		g.outs = outputs{{op: c, port: 0}}
		must(t, push(g, 1, []types.Delta{types.Insert(types.NewTuple(int64(1), int64(2), "b"))}))
		if len(c.deltas) != 1 || !c.deltas[0].Tup.Equal(types.NewTuple(int64(1), 2.0, "a", int64(1), int64(2), "b")) {
			t.Fatalf("restored composite key joined %v", c.deltas)
		}
	})
}
