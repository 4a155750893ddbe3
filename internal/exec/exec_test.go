package exec

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// collector is a terminal operator capturing everything pushed into it.
type collector struct {
	deltas []types.Delta
	puncts []struct {
		stratum int
		closed  bool
	}
}

func (c *collector) Push(port int, b *types.DeltaBatch) error {
	c.deltas = append(c.deltas, b.Deltas()...)
	return nil
}

// push feeds row deltas to op through the row adapter, as an upstream
// per-row operator would.
func push(op Operator, port int, ds []types.Delta) error {
	return outputs{{op: op, port: port}}.send(ds)
}

func (c *collector) Punct(port, stratum int, closed bool) error {
	c.puncts = append(c.puncts, struct {
		stratum int
		closed  bool
	}{stratum, closed})
	return nil
}

func TestFilterDeltaSemantics(t *testing.T) {
	c := &collector{}
	f := newFilterOp(expr.NewCmp(expr.OpGt, expr.NewCol(0, types.KindInt, "x"), expr.NewConst(int64(5))), nil, true)
	f.outs = outputs{{op: c, port: 0}}
	in := []types.Delta{
		types.Insert(types.NewTuple(int64(10))),                           // passes
		types.Insert(types.NewTuple(int64(1))),                            // dropped
		types.Replace(types.NewTuple(int64(7)), types.NewTuple(int64(9))), // both pass: replace
		types.Replace(types.NewTuple(int64(8)), types.NewTuple(int64(2))), // leaves: delete(8)
		types.Replace(types.NewTuple(int64(3)), types.NewTuple(int64(6))), // enters: insert(6)
		types.Replace(types.NewTuple(int64(1)), types.NewTuple(int64(2))), // invisible
	}
	if err := push(f, 0, in); err != nil {
		t.Fatal(err)
	}
	if len(c.deltas) != 4 {
		t.Fatalf("got %d deltas: %v", len(c.deltas), c.deltas)
	}
	if c.deltas[1].Op != types.OpReplace {
		t.Error("both-pass must stay replace")
	}
	if c.deltas[2].Op != types.OpDelete || c.deltas[2].Tup[0].(int64) != 8 {
		t.Error("leaving replacement must degrade to delete(old)")
	}
	if c.deltas[3].Op != types.OpInsert || c.deltas[3].Tup[0].(int64) != 6 {
		t.Error("entering replacement must degrade to insert(new)")
	}
	if err := f.Punct(0, 0, true); err != nil || len(c.puncts) != 1 || !c.puncts[0].closed {
		t.Error("punct must forward")
	}
}

func TestProjectReplaceCollapse(t *testing.T) {
	c := &collector{}
	// Project onto column 0 only: a replacement that changes only column 1
	// becomes invisible.
	p := newProjectOp([]expr.Expr{expr.NewCol(0, types.KindInt, "k")}, nil, nil, false)
	p.outs = outputs{{op: c, port: 0}}
	in := []types.Delta{
		types.Replace(types.NewTuple(int64(1), int64(10)), types.NewTuple(int64(1), int64(11))),
		types.Replace(types.NewTuple(int64(1), int64(10)), types.NewTuple(int64(2), int64(10))),
		types.Update(types.NewTuple(int64(3), int64(4))),
	}
	if err := push(p, 0, in); err != nil {
		t.Fatal(err)
	}
	if len(c.deltas) != 2 {
		t.Fatalf("got %v", c.deltas)
	}
	if c.deltas[0].Op != types.OpReplace || c.deltas[0].Tup[0].(int64) != 2 {
		t.Error("visible replacement must survive projection")
	}
	if c.deltas[1].Op != types.OpUpdate {
		t.Error("δ annotation must propagate through stateless project")
	}
}

func TestProjectMemoization(t *testing.T) {
	calls := 0
	fn := func(args []types.Value) (types.Value, error) {
		calls++
		v, _ := types.AsInt(args[0])
		return v * 2, nil
	}
	c := &collector{}
	p := newProjectOp([]expr.Expr{
		expr.NewCall("dbl", fn, types.KindInt, true, expr.NewCol(0, types.KindInt, "x")),
	}, nil, nil, true)
	p.outs = outputs{{op: c, port: 0}}
	batch := []types.Delta{
		types.Insert(types.NewTuple(int64(4))),
		types.Insert(types.NewTuple(int64(4))),
		types.Insert(types.NewTuple(int64(4))),
	}
	if err := push(p, 0, batch); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("deterministic UDF called %d times, want 1 (memoized)", calls)
	}
	if c.deltas[2].Tup[0].(int64) != 8 {
		t.Fatal("memoized result wrong")
	}
}

func TestJoinDefaultDeltaRules(t *testing.T) {
	c := &collector{}
	spec := &OpSpec{ID: 0, Kind: OpHashJoin, LeftKey: []int{0}, RightKey: []int{0}, ImmutablePort: -1}
	j := newHashJoinOp(spec, nil, 0)
	j.outs = outputs{{op: c, port: 0}}

	// Left insert with empty right: no output.
	must(t, push(j, 0, []types.Delta{types.Insert(types.NewTuple(int64(1), "a"))}))
	if len(c.deltas) != 0 {
		t.Fatal("no matches expected")
	}
	// Right insert matching: one joined insert.
	must(t, push(j, 1, []types.Delta{types.Insert(types.NewTuple(int64(1), "x"))}))
	if len(c.deltas) != 1 || !c.deltas[0].Tup.Equal(types.NewTuple(int64(1), "a", int64(1), "x")) {
		t.Fatalf("joined tuple wrong: %v", c.deltas)
	}
	// Right delete: emits delete of the joined tuple.
	must(t, push(j, 1, []types.Delta{types.Delete(types.NewTuple(int64(1), "x"))}))
	if c.deltas[1].Op != types.OpDelete {
		t.Fatal("delete propagation")
	}
	// Replacement on left with same key: replacement of joined tuples.
	must(t, push(j, 1, []types.Delta{types.Insert(types.NewTuple(int64(1), "y"))}))
	c.deltas = nil
	must(t, push(j, 0, []types.Delta{types.Replace(types.NewTuple(int64(1), "a"), types.NewTuple(int64(1), "b"))}))
	if len(c.deltas) != 1 || c.deltas[0].Op != types.OpReplace ||
		!c.deltas[0].Tup.Equal(types.NewTuple(int64(1), "b", int64(1), "y")) {
		t.Fatalf("replace propagation wrong: %v", c.deltas)
	}
	// Replacement that changes the key splits into delete + insert.
	c.deltas = nil
	must(t, push(j, 0, []types.Delta{types.Replace(types.NewTuple(int64(1), "b"), types.NewTuple(int64(2), "b"))}))
	if len(c.deltas) != 1 || c.deltas[0].Op != types.OpDelete {
		t.Fatalf("key-changing replace: %v", c.deltas)
	}
	// Punct alignment: one side only is not enough.
	must(t, j.Punct(0, 0, true))
	if len(c.puncts) != 0 {
		t.Fatal("join must align punctuation")
	}
	must(t, j.Punct(1, 0, false))
	if len(c.puncts) != 1 || c.puncts[0].closed {
		t.Fatal("aligned punct must forward, not closed while one port open")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupByDeltaFlush(t *testing.T) {
	c := &collector{}
	spec := &OpSpec{
		ID: 0, Kind: OpGroupBy, GroupKey: []int{0},
		Aggs: []AggSpec{{Fn: "sum", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "v")}, OutName: "s"}},
	}
	g, err := newGroupByOp(spec, 1, nil, nil, true)
	must(t, err)
	g.outs = outputs{{op: c, port: 0}}

	must(t, push(g, 0, []types.Delta{
		types.Insert(types.NewTuple(int64(1), 2.0)),
		types.Insert(types.NewTuple(int64(1), 3.0)),
		types.Insert(types.NewTuple(int64(2), 1.0)),
	}))
	must(t, g.Punct(0, 0, false))
	if len(c.deltas) != 2 {
		t.Fatalf("first flush: %v", c.deltas)
	}
	for _, d := range c.deltas {
		if d.Op != types.OpInsert {
			t.Fatal("first emission must be insert")
		}
	}
	// Second stratum: a δ adjustment to group 1 only → one replace.
	c.deltas = nil
	must(t, push(g, 0, []types.Delta{types.Update(types.NewTuple(int64(1), -1.0))}))
	must(t, g.Punct(0, 1, false))
	if len(c.deltas) != 1 || c.deltas[0].Op != types.OpReplace {
		t.Fatalf("second flush: %v", c.deltas)
	}
	if c.deltas[0].Old[1].(float64) != 5.0 || c.deltas[0].Tup[1].(float64) != 4.0 {
		t.Fatalf("replace values: %v", c.deltas[0])
	}
	// Idle stratum: nothing emitted.
	c.deltas = nil
	must(t, g.Punct(0, 2, false))
	if len(c.deltas) != 0 {
		t.Fatal("clean stratum must emit nothing")
	}
}

func TestGroupByCheckpointRoundTrip(t *testing.T) {
	spec := &OpSpec{
		ID: 0, Kind: OpGroupBy, GroupKey: []int{0},
		Aggs: []AggSpec{
			{Fn: "sum", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "v")}},
			{Fn: "min", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "v")}},
		},
	}
	g1, err := newGroupByOp(spec, 1, nil, nil, true)
	must(t, err)
	c1 := &collector{}
	g1.outs = outputs{{op: c1, port: 0}}
	must(t, push(g1, 0, []types.Delta{
		types.Insert(types.NewTuple(int64(1), 5.0)),
		types.Insert(types.NewTuple(int64(1), 3.0)),
	}))
	must(t, g1.Punct(0, 0, false))
	entries := g1.DirtyState()
	if len(entries) != 1 {
		t.Fatalf("dirty entries: %d", len(entries))
	}

	g2, err := newGroupByOp(spec, 1, nil, nil, true)
	must(t, err)
	c2 := &collector{}
	g2.outs = outputs{{op: c2, port: 0}}
	must(t, g2.Restore([][]types.Tuple{entries}))
	// After restore, a new delta must produce a replace against the
	// restored last-emitted value.
	must(t, push(g2, 0, []types.Delta{types.Insert(types.NewTuple(int64(1), 1.0))}))
	must(t, g2.Punct(0, 1, false))
	if len(c2.deltas) != 1 || c2.deltas[0].Op != types.OpReplace {
		t.Fatalf("restored flush: %v", c2.deltas)
	}
	if c2.deltas[0].Old[1].(float64) != 8.0 || c2.deltas[0].Tup[1].(float64) != 9.0 {
		t.Fatalf("restored sums wrong: %v", c2.deltas[0])
	}
	if c2.deltas[0].Tup[2].(float64) != 1.0 {
		t.Fatalf("restored min wrong: %v", c2.deltas[0])
	}
}

// Checkpoint entries arrive from peers and from the log on disk: a
// truncated or malformed one must be an error, never a panic.
func TestGroupByRestoreRejectsTruncatedEntries(t *testing.T) {
	spec := &OpSpec{
		ID: 0, Kind: OpGroupBy, GroupKey: []int{0},
		Aggs: []AggSpec{{Fn: "sum", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "v")}}},
	}
	h := int64(1)
	for _, c := range []struct {
		name  string
		entry types.Tuple
	}{
		{"key length past end", types.NewTuple(h, int64(5))},
		{"negative key length", types.NewTuple(h, int64(-1), int64(7))},
		{"missing last-result flag", types.NewTuple(h, int64(1), int64(7))},
		{"non-bool last-result flag", types.NewTuple(h, int64(1), int64(7), int64(1), nil, nil, int64(0))},
		{"last result shorter than output", types.NewTuple(h, int64(1), int64(7), true, int64(7))},
		{"missing state length", types.NewTuple(h, int64(1), int64(7), false, nil, nil)},
		{"negative state length", types.NewTuple(h, int64(1), int64(7), false, nil, nil, int64(-3))},
		{"state length past end", types.NewTuple(h, int64(1), int64(7), false, nil, nil, int64(3), 1.0)},
	} {
		g, err := newGroupByOp(spec, 1, nil, nil, true)
		must(t, err)
		if err := g.Restore([][]types.Tuple{{c.entry}}); err == nil {
			t.Errorf("%s: Restore(%v) accepted a malformed entry", c.name, c.entry)
		}
	}
}

// A checkpointed pending Δ set must come back exactly: a set-semantics
// fixpoint's pending replace carries the old image downstream operators
// index.
func TestFixpointRestorePendingRoundTrip(t *testing.T) {
	spec := &OpSpec{ID: 0, Kind: OpFixpoint, FixpointKey: []int{0}, RecursiveOut: 1}
	f := newFixpointOp(spec, &Context{}, nil)
	want := []types.Delta{
		types.Insert(types.NewTuple(int64(1), "a")),
		types.Delete(types.NewTuple(int64(2), "b")),
		types.Replace(types.NewTuple(int64(3), "c"), types.NewTuple(int64(3), "d")),
		types.Update(types.NewTuple(int64(4), 0.5)),
	}
	for _, d := range want {
		must(t, f.pending.Emit(d))
	}
	entries := f.DirtyState()

	g := newFixpointOp(spec, &Context{}, nil)
	must(t, g.Restore([][]types.Tuple{entries}))
	pending := g.pending.Batch().Deltas()
	if len(pending) != len(want) {
		t.Fatalf("restored %d pending deltas, want %d: %v", len(pending), len(want), pending)
	}
	for i, d := range pending {
		w := want[i]
		if d.Op != w.Op || !d.Tup.Equal(w.Tup) || !d.Old.Equal(w.Old) {
			t.Errorf("pending %d: restored %v, want %v", i, d, w)
		}
	}

	for _, bad := range []types.Tuple{
		types.NewTuple(int64(0), "P", int64(9), int64(1), int64(1)),         // unknown op
		types.NewTuple(int64(0), "P", int64(types.OpInsert)),                // missing length
		types.NewTuple(int64(0), "P", int64(types.OpInsert), int64(3), 1.0), // length past end
		types.NewTuple(int64(0), "P", int64(types.OpInsert), int64(-1)),     // negative length
		types.NewTuple(int64(0), "P", int64(types.OpDelete), int64(1), 1.0, 2.0),
	} {
		g := newFixpointOp(spec, &Context{}, nil)
		if err := g.Restore([][]types.Tuple{{bad}}); err == nil {
			t.Errorf("Restore(%v) accepted a malformed pending entry", bad)
		}
	}
}

func TestFixpointDefaultDedup(t *testing.T) {
	spec := &OpSpec{ID: 0, Kind: OpFixpoint, FixpointKey: []int{0}, RecursiveOut: 1}
	ctx := &Context{}
	f := newFixpointOp(spec, ctx, nil)
	votes := []int{}
	f.onStratumEnd = func(stratum, count int) { votes = append(votes, count) }

	must(t, push(f, 0, []types.Delta{
		types.Insert(types.NewTuple(int64(1), "a")),
		types.Insert(types.NewTuple(int64(1), "a")), // duplicate: dropped
		types.Insert(types.NewTuple(int64(2), "b")),
	}))
	must(t, f.Punct(0, 0, true))
	if len(votes) != 1 || votes[0] != 2 {
		t.Fatalf("votes = %v", votes)
	}
	rec := &collector{}
	f.recursiveOuts = outputs{{op: rec, port: 0}}
	must(t, f.Advance(1))
	if len(rec.deltas) != 2 {
		t.Fatalf("advance emitted %v", rec.deltas)
	}
	// Same-key different value propagates as replace.
	must(t, push(f, 1, []types.Delta{types.Insert(types.NewTuple(int64(1), "c"))}))
	must(t, f.Punct(1, 1, false))
	if votes[1] != 1 {
		t.Fatalf("votes = %v", votes)
	}
	fin := &collector{}
	f.finalOuts = outputs{{op: fin, port: 0}}
	must(t, f.Finish())
	if len(fin.deltas) != 2 {
		t.Fatalf("final state: %v", fin.deltas)
	}
}

// --- integration: full engine runs ------------------------------------

func newTestCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	must(t, cat.AddTable(&catalog.Table{
		Name:         "edges",
		Schema:       types.MustSchema("src:Integer", "dst:Integer"),
		PartitionKey: 0,
	}))
	must(t, cat.AddTable(&catalog.Table{
		Name:         "seed",
		Schema:       types.MustSchema("srcId:Integer", "dist:Double"),
		PartitionKey: 0,
	}))
	must(t, cat.AddTable(&catalog.Table{
		Name:         "items",
		Schema:       types.MustSchema("k:Integer", "v:Double"),
		PartitionKey: 0,
	}))
	// SSSP join handler: graph tuples accumulate on the left; distance
	// deltas fan out dist+1 to out-neighbors without being stored.
	must(t, cat.RegisterJoinHandler(&uda.FuncJoinHandler{
		HName: "sssp_join",
		Out:   types.MustSchema("nbr:Integer", "distOut:Double"),
		Fn: func(left, right *uda.TupleSet, d types.Delta, fromLeft bool, out *uda.Emitter) error {
			if fromLeft {
				left.Add(d.Tup)
				return nil
			}
			dist, _ := types.AsFloat(d.Tup[1])
			for i := 0; i < left.Len(); i++ {
				out.Begin(types.OpUpdate)
				out.Field(left, i, 1)
				out.Float(dist + 1)
				if err := out.End(); err != nil {
					return err
				}
			}
			return nil
		},
	}))
	// SSSP while handler: keep the minimum distance per node; emit the
	// improvement as the next Δ set.
	must(t, cat.RegisterWhileHandler(&uda.FuncWhileHandler{
		HName: "sssp_while",
		Fn: func(rel *uda.TupleSet, d types.Delta, out *uda.Emitter) error {
			nd, _ := types.AsFloat(d.Tup[1])
			if rel.Len() > 0 {
				cur, _ := rel.Float(0, 1)
				if nd >= cur {
					return nil
				}
				rel.Set(0, types.NewTuple(d.Tup[0], nd))
			} else {
				rel.Add(types.NewTuple(d.Tup[0], nd))
			}
			return out.Emit(types.Update(types.NewTuple(d.Tup[0], nd)))
		},
	}))
	return cat
}

// ssspPlan builds the recursive shortest-path plan of Listing 2 by hand.
func ssspPlan() *PlanSpec {
	p := NewPlanSpec()
	edges := p.Add(&OpSpec{Kind: OpScan, Table: "edges"})
	seedScan := p.Add(&OpSpec{Kind: OpScan, Table: "seed"})
	fix := p.Add(&OpSpec{
		Kind: OpFixpoint, FixpointKey: []int{0},
		WhileHandlerName: "sssp_while",
	})
	join := p.Add(&OpSpec{
		Kind: OpHashJoin, Inputs: []int{edges.ID, fix.ID},
		LeftKey: []int{0}, RightKey: []int{0},
		JoinHandlerName: "sssp_join", ImmutablePort: 0,
	})
	rehash := p.Add(&OpSpec{Kind: OpRehash, Inputs: []int{join.ID}, HashKey: []int{0}})
	gby := p.Add(&OpSpec{
		Kind: OpGroupBy, Inputs: []int{rehash.ID}, GroupKey: []int{0},
		Aggs: []AggSpec{{Fn: "min", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "d")}, OutName: "dist"}},
	})
	fix.Inputs = []int{seedScan.ID, gby.ID}
	fix.RecursiveOut = join.ID
	p.RootID = fix.ID
	return p
}

// randomGraph returns edges of a random sparse digraph with a path-rich
// structure, plus a BFS reference distance map from node 0.
func randomGraph(n, m int, seed int64) ([]types.Tuple, map[int64]float64) {
	r := rand.New(rand.NewSource(seed))
	adj := map[int64][]int64{}
	var edges []types.Tuple
	addEdge := func(a, b int64) {
		adj[a] = append(adj[a], b)
		edges = append(edges, types.NewTuple(a, b))
	}
	// Ring backbone guarantees reachability, plus random chords.
	for i := 0; i < n; i++ {
		addEdge(int64(i), int64((i+1)%n))
	}
	for i := 0; i < m; i++ {
		addEdge(int64(r.Intn(n)), int64(r.Intn(n)))
	}
	// BFS from 0.
	dist := map[int64]float64{0: 0}
	queue := []int64{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if _, seen := dist[v]; !seen {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return edges, dist
}

func runSSSP(t *testing.T, nodes int, opts Options, failAt int) (*Result, map[int64]float64) {
	t.Helper()
	cat := newTestCatalog(t)
	eng := NewEngine(nodes, 32, 3, cat)
	edges, want := randomGraph(200, 300, 42)
	must(t, eng.Load("edges", 0, edges))
	must(t, eng.Load("seed", 0, []types.Tuple{types.NewTuple(int64(0), 0.0)}))
	if failAt >= 0 {
		opts.OnStratum = func(stratum, newTuples int) {
			if stratum == failAt {
				eng.Transport.Kill(1)
			}
		}
	}
	res, err := eng.Run(ssspPlan(), opts)
	must(t, err)
	return res, want
}

func checkSSSP(t *testing.T, res *Result, want map[int64]float64) {
	t.Helper()
	got := map[int64]float64{}
	for _, tup := range res.Tuples {
		id, _ := types.AsInt(tup[0])
		d, _ := types.AsFloat(tup[1])
		got[id] = d
	}
	if len(got) != len(want) {
		t.Fatalf("reached %d nodes, want %d", len(got), len(want))
	}
	for id, d := range want {
		if math.Abs(got[id]-d) > 1e-9 {
			t.Fatalf("dist[%d] = %v, want %v", id, got[id], d)
		}
	}
}

func TestSSSPRecursiveMultiNode(t *testing.T) {
	res, want := runSSSP(t, 4, Options{BatchSize: 64}, -1)
	checkSSSP(t, res, want)
	if len(res.Strata) < 3 {
		t.Fatalf("expected several strata, got %d", len(res.Strata))
	}
	// Δ set must eventually shrink to zero.
	if res.Strata[len(res.Strata)-1].NewTuples != 0 {
		t.Fatal("final stratum must be empty (implicit termination)")
	}
}

func TestSSSPSingleNode(t *testing.T) {
	res, want := runSSSP(t, 1, Options{}, -1)
	checkSSSP(t, res, want)
}

func TestSSSPRecoveryRestart(t *testing.T) {
	res, want := runSSSP(t, 4, Options{Recovery: RecoveryRestart}, 2)
	checkSSSP(t, res, want)
	if res.Recoveries != 1 {
		t.Fatalf("recoveries = %d", res.Recoveries)
	}
}

func TestSSSPRecoveryIncremental(t *testing.T) {
	res, want := runSSSP(t, 4, Options{Recovery: RecoveryIncremental, Checkpoint: true}, 2)
	checkSSSP(t, res, want)
	if res.Recoveries != 1 {
		t.Fatalf("recoveries = %d", res.Recoveries)
	}
}

func TestSSSPRecoveryDisabledFails(t *testing.T) {
	cat := newTestCatalog(t)
	eng := NewEngine(3, 32, 2, cat)
	edges, _ := randomGraph(100, 100, 7)
	must(t, eng.Load("edges", 0, edges))
	must(t, eng.Load("seed", 0, []types.Tuple{types.NewTuple(int64(0), 0.0)}))
	opts := Options{Recovery: RecoveryNone, OnStratum: func(s, n int) {
		if s == 1 {
			eng.Transport.Kill(2)
		}
	}}
	if _, err := eng.Run(ssspPlan(), opts); err == nil {
		t.Fatal("failure with RecoveryNone must error")
	}
}

func TestNonRecursiveAggregation(t *testing.T) {
	cat := newTestCatalog(t)
	eng := NewEngine(3, 32, 2, cat)
	r := rand.New(rand.NewSource(3))
	var tuples []types.Tuple
	wantSum := 0.0
	wantCount := int64(0)
	for i := 0; i < 1000; i++ {
		v := r.Float64() * 10
		tuples = append(tuples, types.NewTuple(int64(i), v))
		if v > 5 {
			wantSum += v
			wantCount++
		}
	}
	must(t, eng.Load("items", 0, tuples))

	p := NewPlanSpec()
	scan := p.Add(&OpSpec{Kind: OpScan, Table: "items"})
	filter := p.Add(&OpSpec{
		Kind: OpFilter, Inputs: []int{scan.ID},
		Pred: expr.NewCmp(expr.OpGt, expr.NewCol(1, types.KindFloat, "v"), expr.NewConst(5.0)),
	})
	// Constant grouping key: global aggregate. Project a key column first.
	proj := p.Add(&OpSpec{
		Kind: OpProject, Inputs: []int{filter.ID},
		Exprs: []expr.Expr{expr.NewConst(int64(0)), expr.NewCol(1, types.KindFloat, "v")},
	})
	rehash := p.Add(&OpSpec{Kind: OpRehash, Inputs: []int{proj.ID}, HashKey: []int{0}})
	gby := p.Add(&OpSpec{
		Kind: OpGroupBy, Inputs: []int{rehash.ID}, GroupKey: []int{0},
		Aggs: []AggSpec{
			{Fn: "sum", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "v")}},
			{Fn: "count"},
		},
	})
	p.RootID = gby.ID

	res, err := eng.Run(p, Options{})
	must(t, err)
	if len(res.Tuples) != 1 {
		t.Fatalf("result rows = %d: %v", len(res.Tuples), res.Tuples)
	}
	gotSum, _ := types.AsFloat(res.Tuples[0][1])
	gotCount, _ := types.AsInt(res.Tuples[0][2])
	if math.Abs(gotSum-wantSum) > 1e-6 || gotCount != wantCount {
		t.Fatalf("sum=%v count=%v, want %v %v", gotSum, gotCount, wantSum, wantCount)
	}
	if res.BytesSent <= 0 {
		t.Fatal("rehash must ship bytes")
	}
}

func TestPreAggReducesTraffic(t *testing.T) {
	run := func(preAgg bool) (float64, int64) {
		cat := newTestCatalog(t)
		eng := NewEngine(4, 32, 2, cat)
		var tuples []types.Tuple
		for i := 0; i < 2000; i++ {
			tuples = append(tuples, types.NewTuple(int64(i), 1.0))
		}
		must(t, eng.Load("items", 0, tuples))
		p := NewPlanSpec()
		scan := p.Add(&OpSpec{Kind: OpScan, Table: "items"})
		proj := p.Add(&OpSpec{
			Kind: OpProject, Inputs: []int{scan.ID},
			Exprs: []expr.Expr{
				expr.NewArith(expr.OpMod, expr.NewCol(0, types.KindInt, "k"), expr.NewConst(int64(5))),
				expr.NewCol(1, types.KindFloat, "v"),
			},
		})
		upstream := proj.ID
		if preAgg {
			pre := p.Add(&OpSpec{
				Kind: OpPreAgg, Inputs: []int{proj.ID}, GroupKey: []int{0},
				Aggs: []AggSpec{{Fn: "sum", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "v")}}},
			})
			upstream = pre.ID
		}
		rehash := p.Add(&OpSpec{Kind: OpRehash, Inputs: []int{upstream}, HashKey: []int{0}})
		gby := p.Add(&OpSpec{
			Kind: OpGroupBy, Inputs: []int{rehash.ID}, GroupKey: []int{0},
			Aggs: []AggSpec{{Fn: "sum", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "v")}}},
		})
		p.RootID = gby.ID
		res, err := eng.Run(p, Options{})
		must(t, err)
		total := 0.0
		for _, tup := range res.Tuples {
			v, _ := types.AsFloat(tup[1])
			total += v
		}
		return total, res.BytesSent
	}
	sumPlain, bytesPlain := run(false)
	sumPre, bytesPre := run(true)
	if sumPlain != 2000 || sumPre != 2000 {
		t.Fatalf("sums: %v %v", sumPlain, sumPre)
	}
	if bytesPre >= bytesPlain {
		t.Fatalf("pre-aggregation must cut traffic: %d vs %d", bytesPre, bytesPlain)
	}
}

// A TVF may emit rows of several arities from one push; the row adapter
// splits them into uniform batches, and every row must reach the rehash
// and the output intact and in emission order.
func TestTVFRaggedOutputKeepsOrder(t *testing.T) {
	cat := newTestCatalog(t)
	must(t, cat.RegisterTVF(&catalog.TVFDef{
		Name: "ragged",
		Fn: func(d types.Delta) ([]types.Delta, error) {
			k := d.Tup[0]
			return []types.Delta{types.Insert(types.NewTuple(k)), types.Insert(types.NewTuple(k, "tail"))}, nil
		},
	}))
	eng := NewEngine(2, 32, 1, cat)
	const n = 300
	var tuples []types.Tuple
	for i := 0; i < n; i++ {
		tuples = append(tuples, types.NewTuple(int64(i), float64(i)))
	}
	must(t, eng.Load("items", 0, tuples))
	p := NewPlanSpec()
	scan := p.Add(&OpSpec{Kind: OpScan, Table: "items"})
	tvf := p.Add(&OpSpec{Kind: OpTVF, Inputs: []int{scan.ID}, TVFName: "ragged"})
	rehash := p.Add(&OpSpec{Kind: OpRehash, Inputs: []int{tvf.ID}, HashKey: []int{0}})
	p.RootID = rehash.ID
	res, err := eng.Run(p, Options{BatchSize: 16})
	must(t, err)

	// Each key's rows travel one sender→receiver link, so its short row
	// must still precede its long one.
	short, long := map[int64]int{}, map[int64]int{}
	for i, tup := range res.Tuples {
		k, _ := types.AsInt(tup[0])
		switch {
		case len(tup) == 1:
			short[k] = i
		case len(tup) == 2 && tup[1] == "tail":
			long[k] = i
		default:
			t.Fatalf("row %d mangled: %v", i, tup)
		}
	}
	if len(res.Tuples) != 2*n || len(short) != n || len(long) != n {
		t.Fatalf("got %d rows (%d short, %d long keys), want %d", len(res.Tuples), len(short), len(long), 2*n)
	}
	for k, i := range short {
		if long[k] < i {
			t.Fatalf("key %d: long row at %d precedes short row at %d", k, long[k], i)
		}
	}
}

func TestPlanValidation(t *testing.T) {
	p := NewPlanSpec()
	p.RootID = 5
	if err := p.Validate(); err == nil {
		t.Fatal("bad root must fail")
	}
	p = NewPlanSpec()
	p.Add(&OpSpec{Kind: OpScan}) // missing table
	p.RootID = 0
	if err := p.Validate(); err == nil {
		t.Fatal("scan without table must fail")
	}
	p = NewPlanSpec()
	scan := p.Add(&OpSpec{Kind: OpScan, Table: "t"})
	fix := p.Add(&OpSpec{Kind: OpFixpoint, FixpointKey: []int{0}, Inputs: []int{scan.ID}, RecursiveOut: -1})
	p.RootID = fix.ID
	if err := p.Validate(); err == nil {
		t.Fatal("fixpoint without recursive out must fail")
	}
}

// TestStreamDeltaClonesOnce gates the changelog's copies: a stratum's
// batch shares the emitted ledger's clones, so a stream or subscription
// round allocates one copy per changed tuple (plus the batch itself).
func TestStreamDeltaClonesOnce(t *testing.T) {
	const n = 512
	f := newTestFixpoint(nil)
	f.stream = true
	keys := make([]types.Value, n)
	images := make([][2]types.Tuple, n)
	var in []types.Delta
	for k := range keys {
		keys[k] = int64(k)
		images[k] = [2]types.Tuple{types.NewTuple(int64(k), int64(1)), types.NewTuple(int64(k), int64(2))}
		in = append(in, types.Insert(types.NewTuple(int64(k), int64(0))))
	}
	must(t, push(f, 0, in))
	if got := len(f.StreamDelta()); got != n {
		t.Fatalf("first changelog has %d deltas, want %d", got, n)
	}
	// Every run revises every key to the image it does not hold; the
	// keys stay dirty, so each run's changelog replaces all n tuples.
	sets := make([]*uda.TupleSet, n)
	for k, key := range keys {
		sets[k] = f.state.set(0, f.state.tab.Group(types.Tuple{key}))
	}
	round := 0
	allocs := testing.AllocsPerRun(20, func() {
		round++
		for k, set := range sets {
			set.Set(0, images[k][round%2])
		}
		if got := len(f.StreamDelta()); got != n {
			t.Fatalf("changelog has %d deltas, want %d", got, n)
		}
	})
	if allocs > n+1 {
		t.Fatalf("StreamDelta allocated %.0f times for %d changed tuples, want at most %d", allocs, n, n+1)
	}
}

// A replacement without its old image cannot net out of a partial
// aggregate: the pre-aggregation refuses the batch instead of reading old
// key columns that are not there.
func TestPreAggRefusesReplaceWithoutOld(t *testing.T) {
	p, err := newPreAggOp(&OpSpec{GroupKey: []int{0}, Aggs: []AggSpec{{Fn: "count", OutName: "n"}}}, 1, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	p.outs = outputs{{op: &collector{}, port: 0}}
	b, ok := types.FromDeltas([]types.Delta{{Op: types.OpReplace, Tup: types.NewTuple(int64(1))}})
	if !ok || b.HasOld() {
		t.Fatal("want a replace batch without old images")
	}
	if err := p.Push(0, b); err == nil || !strings.Contains(err.Error(), "without its old image") {
		t.Fatalf("Push = %v, want the missing old image refused", err)
	}
}
