package uda

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/rex-data/rex/internal/types"
)

func upd(t *testing.T, a ScalarAgg, st State, op types.Op, args []types.Value, old []types.Value) {
	t.Helper()
	if err := a.Update(st, op, args, old); err != nil {
		t.Fatalf("%s update: %v", a.Name(), err)
	}
}

func TestSumDeltaRules(t *testing.T) {
	a, _ := NewScalarAgg("sum")
	st := a.NewState()
	upd(t, a, st, types.OpInsert, []types.Value{int64(10)}, nil)
	upd(t, a, st, types.OpInsert, []types.Value{int64(5)}, nil)
	if a.Result(st).(int64) != 15 {
		t.Fatalf("sum after inserts = %v", a.Result(st))
	}
	upd(t, a, st, types.OpDelete, []types.Value{int64(5)}, nil)
	if a.Result(st).(int64) != 10 {
		t.Fatalf("sum after delete = %v", a.Result(st))
	}
	upd(t, a, st, types.OpReplace, []types.Value{int64(7)}, []types.Value{int64(10)})
	if a.Result(st).(int64) != 7 {
		t.Fatalf("sum after replace = %v", a.Result(st))
	}
	// δ() adjusts arithmetically — the PageRank diff semantics.
	upd(t, a, st, types.OpUpdate, []types.Value{int64(-2)}, nil)
	if a.Result(st).(int64) != 5 {
		t.Fatalf("sum after δ = %v", a.Result(st))
	}
	// float promotion
	upd(t, a, st, types.OpInsert, []types.Value{0.5}, nil)
	if a.Result(st).(float64) != 5.5 {
		t.Fatalf("sum after float = %v", a.Result(st))
	}
	if err := a.Update(st, types.OpInsert, []types.Value{"x"}, nil); err == nil {
		t.Fatal("sum must reject non-numeric")
	}
}

func TestCountDeltaRules(t *testing.T) {
	a, _ := NewScalarAgg("count")
	st := a.NewState()
	upd(t, a, st, types.OpInsert, nil, nil)
	upd(t, a, st, types.OpInsert, nil, nil)
	upd(t, a, st, types.OpReplace, nil, nil) // replace keeps cardinality
	if a.Result(st).(int64) != 2 {
		t.Fatalf("count = %v", a.Result(st))
	}
	upd(t, a, st, types.OpDelete, nil, nil)
	if a.Result(st).(int64) != 1 {
		t.Fatalf("count after delete = %v", a.Result(st))
	}
	// δ with partial count merges it.
	upd(t, a, st, types.OpUpdate, []types.Value{int64(10)}, nil)
	if a.Result(st).(int64) != 11 {
		t.Fatalf("count after partial = %v", a.Result(st))
	}
}

func TestMinDeleteExposesNextSmallest(t *testing.T) {
	// The exact scenario of §3.3: deleting the minimum must surface the
	// next-smallest buffered value.
	a, _ := NewScalarAgg("min")
	st := a.NewState()
	for _, v := range []int64{5, 3, 9} {
		upd(t, a, st, types.OpInsert, []types.Value{v}, nil)
	}
	if a.Result(st).(int64) != 3 {
		t.Fatalf("min = %v", a.Result(st))
	}
	upd(t, a, st, types.OpDelete, []types.Value{int64(3)}, nil)
	if a.Result(st).(int64) != 5 {
		t.Fatalf("min after deleting minimum = %v", a.Result(st))
	}
	upd(t, a, st, types.OpReplace, []types.Value{int64(1)}, []types.Value{int64(9)})
	if a.Result(st).(int64) != 1 {
		t.Fatalf("min after replace = %v", a.Result(st))
	}
}

func TestMaxAndDuplicates(t *testing.T) {
	a, _ := NewScalarAgg("max")
	st := a.NewState()
	upd(t, a, st, types.OpInsert, []types.Value{int64(4)}, nil)
	upd(t, a, st, types.OpInsert, []types.Value{int64(4)}, nil)
	upd(t, a, st, types.OpDelete, []types.Value{int64(4)}, nil)
	if a.Result(st).(int64) != 4 {
		t.Fatalf("max with remaining duplicate = %v", a.Result(st))
	}
	upd(t, a, st, types.OpDelete, []types.Value{int64(4)}, nil)
	if a.Result(st) != nil {
		t.Fatalf("max of empty = %v", a.Result(st))
	}
}

func TestAvg(t *testing.T) {
	a, _ := NewScalarAgg("avg")
	st := a.NewState()
	upd(t, a, st, types.OpInsert, []types.Value{int64(2)}, nil)
	upd(t, a, st, types.OpInsert, []types.Value{int64(4)}, nil)
	if a.Result(st).(float64) != 3.0 {
		t.Fatalf("avg = %v", a.Result(st))
	}
	upd(t, a, st, types.OpDelete, []types.Value{int64(4)}, nil)
	if a.Result(st).(float64) != 2.0 {
		t.Fatalf("avg after delete = %v", a.Result(st))
	}
	empty := a.NewState()
	if a.Result(empty) != nil {
		t.Fatal("avg of empty must be nil")
	}
}

func TestArgMin(t *testing.T) {
	a, _ := NewScalarAgg("argmin")
	st := a.NewState()
	upd(t, a, st, types.OpInsert, []types.Value{int64(7), 2.5}, nil)
	upd(t, a, st, types.OpInsert, []types.Value{int64(9), 1.5}, nil)
	upd(t, a, st, types.OpInsert, []types.Value{int64(7), 9.0}, nil) // worse value for 7 ignored
	if a.Result(st).(int64) != 9 {
		t.Fatalf("argmin = %v", a.Result(st))
	}
	upd(t, a, st, types.OpDelete, []types.Value{int64(9), 1.5}, nil)
	if a.Result(st).(int64) != 7 {
		t.Fatalf("argmin after delete = %v", a.Result(st))
	}
}

func TestMergeComposability(t *testing.T) {
	for _, name := range []string{"sum", "count", "min", "max", "avg", "argmin"} {
		a, err := NewScalarAgg(name)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Composable() {
			t.Errorf("%s should be composable", name)
		}
	}
	a, _ := NewScalarAgg("sum")
	s1, s2 := a.NewState(), a.NewState()
	upd(t, a, s1, types.OpInsert, []types.Value{int64(3)}, nil)
	upd(t, a, s2, types.OpInsert, []types.Value{int64(4)}, nil)
	if err := a.Merge(s1, s2); err != nil {
		t.Fatal(err)
	}
	if a.Result(s1).(int64) != 7 {
		t.Fatalf("merged sum = %v", a.Result(s1))
	}
	m, _ := NewScalarAgg("min")
	m1, m2 := m.NewState(), m.NewState()
	upd(t, m, m1, types.OpInsert, []types.Value{int64(5)}, nil)
	upd(t, m, m2, types.OpInsert, []types.Value{int64(2)}, nil)
	if err := m.Merge(m1, m2); err != nil {
		t.Fatal(err)
	}
	if m.Result(m1).(int64) != 2 {
		t.Fatalf("merged min = %v", m.Result(m1))
	}
}

func TestUnknownAggregate(t *testing.T) {
	if _, err := NewScalarAgg("median"); err == nil {
		t.Fatal("median is not built in")
	}
}

func TestTupleSet(t *testing.T) {
	s := &TupleSet{}
	t1 := types.NewTuple(int64(1), 0.5)
	t2 := types.NewTuple(int64(2), 0.7)
	s.Add(t1)
	s.Add(t2)
	if s.Len() != 2 {
		t.Fatal("len")
	}
	if v, ok := s.Get(0, int64(2), 1); !ok || v.(float64) != 0.7 {
		t.Fatalf("Get = %v %v", v, ok)
	}
	s.Put(0, int64(2), 1, 0.9, nil)
	if v, _ := s.Get(0, int64(2), 1); v.(float64) != 0.9 {
		t.Fatal("Put update failed")
	}
	// Put must not alias the stored tuple it replaces.
	if t2[1].(float64) != 0.7 {
		t.Fatal("Put mutated caller's tuple")
	}
	s.Put(0, int64(3), 1, 1.1, func() types.Tuple { return types.NewTuple(int64(3), 0.0) })
	if v, ok := s.Get(0, int64(3), 1); !ok || v.(float64) != 1.1 {
		t.Fatal("Put insert failed")
	}
	if !s.Remove(t1) || s.Remove(t1) {
		t.Fatal("Remove semantics")
	}
	if !s.ReplaceFirst(types.NewTuple(int64(3), 1.1), types.NewTuple(int64(3), 2.2)) {
		t.Fatal("ReplaceFirst")
	}
	cl := s.Clone()
	cl.Set(0, types.NewTuple(int64(99), 0.0))
	if s.Value(0, 0).(int64) == 99 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestFuncHandlers(t *testing.T) {
	jh := &FuncJoinHandler{
		HName: "h",
		Out:   types.MustSchema("x:Integer"),
		Fn: func(l, r *TupleSet, d types.Delta, fromLeft bool, out *Emitter) error {
			return out.Emit(d)
		},
	}
	if jh.Name() != "h" || jh.OutSchema().Len() != 1 {
		t.Fatal("join handler metadata")
	}
	out := NewEmitter(1)
	err := jh.Update(nil, nil, types.Insert(types.NewTuple(int64(1))), true, out)
	if err != nil || out.Batch().Len() != 1 {
		t.Fatal("join handler update")
	}
	wh := &FuncWhileHandler{HName: "w", Fn: func(rel *TupleSet, d types.Delta, out *Emitter) error {
		rel.Add(d.Tup)
		return nil
	}}
	rel := &TupleSet{}
	if err := wh.Update(rel, types.Insert(types.NewTuple(int64(1))), NewEmitter(0)); err != nil || rel.Len() != 1 {
		t.Fatal("while handler update")
	}
	if wh.Name() != "w" {
		t.Fatal("while handler name")
	}
}

// Property: for any sequence of inserts followed by deleting a random
// subset, min/max equal the direct computation over the multiset.
func TestExtremeProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		vals := make([]int64, int(n)%40+1)
		for i := range vals {
			vals[i] = int64(r.Intn(20))
		}
		mn, _ := NewScalarAgg("min")
		mx, _ := NewScalarAgg("max")
		smn, smx := mn.NewState(), mx.NewState()
		remaining := map[int]bool{}
		for i, v := range vals {
			_ = mn.Update(smn, types.OpInsert, []types.Value{v}, nil)
			_ = mx.Update(smx, types.OpInsert, []types.Value{v}, nil)
			remaining[i] = true
		}
		for i, v := range vals {
			if r.Intn(2) == 0 && len(remaining) > 1 {
				_ = mn.Update(smn, types.OpDelete, []types.Value{v}, nil)
				_ = mx.Update(smx, types.OpDelete, []types.Value{v}, nil)
				delete(remaining, i)
			}
		}
		wantMin, wantMax := int64(1<<62), int64(-1<<62)
		for i := range remaining {
			if vals[i] < wantMin {
				wantMin = vals[i]
			}
			if vals[i] > wantMax {
				wantMax = vals[i]
			}
		}
		return mn.Result(smn).(int64) == wantMin && mx.Result(smx).(int64) == wantMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: sum over random insert/delete/replace sequences matches the
// directly computed total.
func TestSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := NewScalarAgg("sum")
		st := a.NewState()
		var live []int64
		total := int64(0)
		for i := 0; i < 60; i++ {
			switch {
			case len(live) == 0 || r.Intn(3) > 0:
				v := int64(r.Intn(100))
				_ = a.Update(st, types.OpInsert, []types.Value{v}, nil)
				live = append(live, v)
				total += v
			case r.Intn(2) == 0:
				idx := r.Intn(len(live))
				v := live[idx]
				_ = a.Update(st, types.OpDelete, []types.Value{v}, nil)
				live = append(live[:idx], live[idx+1:]...)
				total -= v
			default:
				idx := r.Intn(len(live))
				old := live[idx]
				nv := int64(r.Intn(100))
				_ = a.Update(st, types.OpReplace, []types.Value{nv}, []types.Value{old})
				live[idx] = nv
				total += nv - old
			}
		}
		return a.Result(st).(int64) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
