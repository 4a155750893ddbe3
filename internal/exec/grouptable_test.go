package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// The group-by keeps its state in a types.GroupTable folded with typed
// rules. The reference is the boxed form it replaced: one map entry per
// Tuple.Key holding uda.ScalarAgg states, fed row by row through the
// interpreter, flushing dirty groups in first-revised order and
// checkpointing in the same entry layout.

// gmSchema: key columns 0 int, 1 float (integral values fold onto int
// keys), 2 string, 3 nullable int, 4 int-or-float (a mixed lane); value
// columns 5 int, 6 float, 7 int-or-float.
var gmSchema = []types.Kind{
	types.KindInt, types.KindFloat, types.KindString, types.KindInt,
	types.KindInt, types.KindInt, types.KindFloat, types.KindInt,
}

var gmKeys = [][]int{{0}, {1}, {2}, {3}, {4}, {0, 2}, {3, 1}, {2, 4, 0}}

func gmTuple(r *rand.Rand) types.Tuple {
	var k3, k4, v7 types.Value
	if r.Intn(3) > 0 {
		k3 = int64(r.Intn(3))
	}
	if x := r.Intn(4); r.Intn(2) == 0 {
		k4 = int64(x)
	} else {
		k4 = float64(x)
	}
	if x := r.Intn(6); r.Intn(2) == 0 {
		v7 = int64(x)
	} else {
		v7 = float64(x) + 0.5
	}
	return types.NewTuple(
		int64(r.Intn(5)), float64(r.Intn(6))/2, []string{"a", "b", "c", ""}[r.Intn(4)], k3, k4,
		int64(r.Intn(10)-3), float64(r.Intn(10))/4, v7,
	)
}

// gmBatch draws a batch of every delta kind. In one batch in forty the
// replacements carry no old image; rarely a row has an annotation no
// aggregate supports, or a NULL argument sum rejects.
func gmBatch(r *rand.Rand, n int) *types.DeltaBatch {
	noOld := r.Intn(40) == 0
	ds := make([]types.Delta, n)
	for i := range ds {
		tup := gmTuple(r)
		if r.Intn(3000) == 0 {
			tup[7] = nil
		}
		switch r.Intn(5) {
		case 0, 1:
			ds[i] = types.Insert(tup)
		case 2:
			ds[i] = types.Delete(tup)
		case 3:
			ds[i] = types.Update(tup)
		default:
			if noOld {
				ds[i] = types.Insert(tup)
			} else {
				ds[i] = types.Replace(gmTuple(r), tup)
			}
		}
	}
	b, ok := types.FromDeltas(ds)
	if !ok {
		panic("uniform deltas must batch")
	}
	for i := range ds {
		if noOld && r.Intn(5) == 0 {
			b.SetOp(i, types.OpReplace)
		}
		if r.Intn(3000) == 0 {
			b.SetOp(i, types.Op(4))
		}
	}
	return b
}

func gmAggs(r *rand.Rand) []AggSpec {
	col := func(c int) expr.Expr { return expr.NewCol(c, gmSchema[c], fmt.Sprintf("c%d", c)) }
	val := func() expr.Expr { return col(5 + r.Intn(3)) }
	// min, max and argmin ids skip column 4: its 3 and 3.0 tie under
	// ValueCompare, and which of them the boxed multiset returns is up to
	// sort order.
	any := func() expr.Expr {
		if c := r.Intn(7); c < 4 {
			return col(c)
		} else {
			return col(c + 1)
		}
	}
	out := make([]AggSpec, 1+r.Intn(3))
	for i := range out {
		switch fn := []string{"sum", "count", "count*", "min", "max", "avg", "argmin"}[r.Intn(7)]; fn {
		case "count*":
			out[i] = AggSpec{Fn: "count"}
		case "argmin":
			out[i] = AggSpec{Fn: fn, Args: []expr.Expr{any(), val()}}
		case "min", "max":
			out[i] = AggSpec{Fn: fn, Args: []expr.Expr{any()}}
		default:
			out[i] = AggSpec{Fn: fn, Args: []expr.Expr{val()}}
		}
		out[i].OutName = fmt.Sprintf("a%d", i)
	}
	return out
}

type gmGroup struct {
	key    types.Tuple
	states []uda.State
	last   types.Tuple
}

// groupModel is the boxed reference group-by.
type groupModel struct {
	spec   *OpSpec
	aggs   []uda.ScalarAgg
	groups map[types.Value]*gmGroup
	dirty  []types.Value
	ckpt   []types.Value
	seen   map[types.Value][2]bool // dirty, ckpt membership
}

func newGroupModel(t *testing.T, spec *OpSpec) *groupModel {
	m := &groupModel{spec: spec, groups: map[types.Value]*gmGroup{}, seen: map[types.Value][2]bool{}}
	for _, as := range spec.Aggs {
		a, err := uda.NewScalarAgg(as.Fn)
		if err != nil {
			t.Fatal(err)
		}
		m.aggs = append(m.aggs, a)
	}
	return m
}

func gmEval(es []expr.Expr, t types.Tuple) ([]types.Value, error) {
	out := make([]types.Value, len(es))
	for i, e := range es {
		v, err := e.Eval(t)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (m *groupModel) push(b *types.DeltaBatch) error {
	for i := 0; i < b.Len(); i++ {
		op := b.Op(i)
		tup := b.Row(i, nil)
		old := b.OldRow(i, nil) // empty when the batch has no old image
		key := tup.Key(m.spec.GroupKey)
		g, ok := m.groups[key]
		if !ok {
			g = &gmGroup{key: tup.Project(m.spec.GroupKey)}
			for _, a := range m.aggs {
				g.states = append(g.states, a.NewState())
			}
			m.groups[key] = g
		}
		for j, a := range m.aggs {
			args, err := gmEval(m.spec.Aggs[j].Args, tup)
			if err != nil {
				return err
			}
			var oldArgs []types.Value
			if op == types.OpReplace {
				if oldArgs, err = gmEval(m.spec.Aggs[j].Args, old); err != nil {
					return err
				}
			}
			if err := a.Update(g.states[j], op, args, oldArgs); err != nil {
				return err
			}
		}
		s := m.seen[key]
		if !s[0] {
			m.dirty = append(m.dirty, key)
		}
		if !s[1] {
			m.ckpt = append(m.ckpt, key)
		}
		m.seen[key] = [2]bool{true, true}
	}
	return nil
}

func (m *groupModel) flush() []types.Delta {
	var out []types.Delta
	for _, key := range m.dirty {
		g := m.groups[key]
		cur := append(types.Tuple{}, g.key...)
		for j, a := range m.aggs {
			cur = append(cur, a.Result(g.states[j]))
		}
		if g.last == nil {
			out = append(out, types.Insert(cur))
		} else if !g.last.Equal(cur) {
			out = append(out, types.Replace(g.last, cur))
		}
		g.last = cur
		s := m.seen[key]
		m.seen[key] = [2]bool{false, s[1]}
	}
	m.dirty = nil
	if m.spec.ResetPerStratum {
		m.groups = map[types.Value]*gmGroup{}
		m.ckpt = nil
		m.seen = map[types.Value][2]bool{}
	}
	return out
}

// dirtyState writes the revised groups in the checkpoint entry layout.
func (m *groupModel) dirtyState() []types.Tuple {
	outLen := len(m.spec.GroupKey) + len(m.aggs)
	var out []types.Tuple
	for _, key := range m.ckpt {
		g := m.groups[key]
		e := types.NewTuple(int64(types.HashValue(key)), int64(len(g.key)))
		e = append(e, g.key...)
		if g.last == nil {
			e = append(e, false)
			e = append(e, make(types.Tuple, outLen)...)
		} else {
			e = append(e, true)
			e = append(e, g.last...)
		}
		for j, a := range m.aggs {
			st := a.Save(g.states[j])
			e = append(e, int64(len(st)))
			e = append(e, st...)
		}
		out = append(out, e)
		s := m.seen[key]
		m.seen[key] = [2]bool{s[0], false}
	}
	m.ckpt = nil
	return out
}

// gmSame compares two delta sequences in order, value kinds included.
func gmSame(t *testing.T, label string, got, want []types.Delta) {
	t.Helper()
	same := func(a, b types.Tuple) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if types.KindOf(a[i]) != types.KindOf(b[i]) || !types.ValueEq(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	if len(got) != len(want) {
		t.Fatalf("%s: table emitted %d deltas, model %d\ntable: %v\nmodel: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Op != w.Op || !same(g.Tup, w.Tup) || !same(g.Old, w.Old) {
			t.Fatalf("%s: delta %d differs\ntable: %v\nmodel: %v", label, i, g, w)
		}
	}
}

// gmSameEntries compares checkpoint entries up to the aggregate states
// (whose multiset fields the boxed form writes in map order): key hash —
// what replicas are placed by — key, and last emitted result.
func gmSameEntries(t *testing.T, label string, got, want []types.Tuple, outLen int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d checkpoint entries, model %d", label, len(got), len(want))
	}
	for i := range got {
		nkey, _ := types.AsInt(want[i][1])
		n := 3 + int(nkey) + outLen
		if len(got[i]) < n || len(want[i]) < n || !types.Tuple(got[i][:n]).Equal(want[i][:n]) {
			t.Fatalf("%s: checkpoint entry %d\ntable: %v\nmodel: %v", label, i, got[i], want[i])
		}
	}
}

func TestGroupByTableMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	restored, errored := 0, 0
	for iter := 0; iter < 400; iter++ {
		spec := &OpSpec{
			Kind: OpGroupBy, GroupKey: gmKeys[r.Intn(len(gmKeys))], Aggs: gmAggs(r),
			ResetPerStratum: r.Intn(5) == 0,
		}
		var schema []types.Kind
		if r.Intn(2) == 0 {
			schema = gmSchema
		}
		label := fmt.Sprintf("iter %d key %v aggs %v reset %v kernels %v", iter, spec.GroupKey, spec.Aggs, spec.ResetPerStratum, schema != nil)
		op, err := newGroupByOp(spec, 1, nil, schema)
		if err != nil {
			t.Fatal(err)
		}
		c := &collector{}
		op.outs = outputs{{op: c, port: 0}}
		m := newGroupModel(t, spec)
		var opCkpt, modelCkpt [][]types.Tuple
		restoreAt := -1
		if !spec.ResetPerStratum {
			restoreAt = r.Intn(6)
		}
	stream:
		for stratum := 0; stratum < 6; stratum++ {
			for k := r.Intn(3); k >= 0; k-- {
				b := gmBatch(r, 1+r.Intn(40))
				gerr, merr := op.Push(0, b), m.push(b)
				if (gerr == nil) != (merr == nil) {
					t.Fatalf("%s: table err %v, model err %v", label, gerr, merr)
				}
				if gerr != nil {
					errored++
					break stream
				}
			}
			c.deltas = nil
			if err := op.Punct(0, stratum, false); err != nil {
				t.Fatal(err)
			}
			gmSame(t, fmt.Sprintf("%s stratum %d", label, stratum), c.deltas, m.flush())
			opCkpt = append(opCkpt, op.DirtyState())
			modelCkpt = append(modelCkpt, m.dirtyState())
			gmSameEntries(t, fmt.Sprintf("%s stratum %d", label, stratum), opCkpt[stratum], modelCkpt[stratum], len(spec.GroupKey)+len(spec.Aggs))
			if stratum != restoreAt {
				continue
			}
			// Replace the operator with one restored from the checkpoint
			// log — its own, or the reference's entries, which is the
			// layout checkpoints had before the table.
			from := opCkpt
			if r.Intn(2) == 0 {
				from = modelCkpt
			}
			if op, err = newGroupByOp(spec, 1, nil, schema); err != nil {
				t.Fatal(err)
			}
			op.outs = outputs{{op: c, port: 0}}
			if err := op.Restore(from); err != nil {
				t.Fatalf("%s: restore: %v", label, err)
			}
			restored++
		}
	}
	t.Logf("%d restored streams, %d erroring streams", restored, errored)
	if restored < 100 || errored == 0 {
		t.Fatalf("coverage: %d restored streams, %d erroring streams", restored, errored)
	}
}

// The flush order is the order groups were first revised, so the same
// input yields the same output batches — float sums included.
func TestGroupByFlushDeterministic(t *testing.T) {
	spec := &OpSpec{
		Kind: OpGroupBy, GroupKey: []int{0},
		Aggs: []AggSpec{
			{Fn: "sum", Args: []expr.Expr{expr.NewCol(6, types.KindFloat, "v")}},
			{Fn: "min", Args: []expr.Expr{expr.NewCol(7, types.KindInt, "w")}},
		},
	}
	run := func() []types.Delta {
		r := rand.New(rand.NewSource(5))
		op, err := newGroupByOp(spec, 1, nil, gmSchema)
		if err != nil {
			t.Fatal(err)
		}
		c := &collector{}
		op.outs = outputs{{op: c, port: 0}}
		for stratum := 0; stratum < 8; stratum++ {
			for k := 0; k < 3; k++ {
				b := types.GetBatch()
				for i := 0; i < 200; i++ {
					tup := gmTuple(r)
					tup[0] = int64(r.Intn(300))
					b.Append(types.Insert(tup))
				}
				must(t, op.Push(0, b))
				types.PutBatch(b)
			}
			must(t, op.Punct(0, stratum, false))
		}
		return c.deltas
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs emitted %d and %d deltas", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("delta %d: %v then %v", i, a[i], b[i])
		}
	}
}

// Folding a batch into groups that already exist allocates nothing: keys,
// arguments and accumulators all stay in lanes.
func TestGroupByFoldAllocs(t *testing.T) {
	spec := &OpSpec{
		Kind: OpGroupBy, GroupKey: []int{0},
		Aggs: []AggSpec{
			{Fn: "sum", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "v")}},
			{Fn: "count"},
			{Fn: "min", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "v")}},
		},
	}
	op, err := newGroupByOp(spec, 1, nil, []types.Kind{types.KindInt, types.KindFloat})
	if err != nil {
		t.Fatal(err)
	}
	op.outs = outputs{{op: &collector{}, port: 0}}
	b := &types.DeltaBatch{}
	for i := 0; i < 1024; i++ {
		b.Append(types.Insert(types.NewTuple(int64(i%300), float64(i%7))))
	}
	must(t, op.Push(0, b))
	must(t, op.Punct(0, 0, false))
	if allocs := testing.AllocsPerRun(20, func() {
		if err := op.Push(0, b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("folding 1024 rows into existing groups: %v allocations, want 0", allocs)
	}
}
