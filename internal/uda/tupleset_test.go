package uda

import (
	"fmt"
	"math"
	"testing"

	"github.com/rex-data/rex/internal/types"
)

// boxedSet is the boxed TupleSet the typed one replaced — a slice of
// tuples — kept as the model FuzzTupleSet checks against.
type boxedSet struct {
	tuples  []types.Tuple
	version int
}

func (s *boxedSet) add(t types.Tuple) {
	s.tuples = append(s.tuples, t.Clone())
	s.version++
}

func (s *boxedSet) removeAt(i int) {
	s.tuples = append(s.tuples[:i], s.tuples[i+1:]...)
	s.version++
}

func (s *boxedSet) set(i int, t types.Tuple) {
	s.tuples[i] = t.Clone()
	s.version++
}

func (s *boxedSet) remove(t types.Tuple) bool {
	for i, x := range s.tuples {
		if x.Equal(t) {
			s.removeAt(i)
			return true
		}
	}
	return false
}

func (s *boxedSet) replaceFirst(old, new types.Tuple) bool {
	for i, x := range s.tuples {
		if x.Equal(old) {
			s.set(i, new)
			return true
		}
	}
	return false
}

func (s *boxedSet) get(keyCol int, key types.Value, col int) (types.Value, bool) {
	for _, t := range s.tuples {
		if types.ValueEq(t[keyCol], key) {
			return t[col], true
		}
	}
	return nil, false
}

func (s *boxedSet) put(keyCol int, key types.Value, col int, v types.Value, build func() types.Tuple) {
	for i, t := range s.tuples {
		if types.ValueEq(t[keyCol], key) {
			nt := t.Clone()
			nt[col] = v
			s.tuples[i] = nt
			s.version++
			return
		}
	}
	nt := build()
	nt[col] = v
	s.tuples = append(s.tuples, nt)
	s.version++
}

// fuzzValues are the values FuzzTupleSet stores: ints small and large,
// the floats whose kind or bits a lane could lose (−0, NaN, integral),
// strings including "", bools, NULL, and a value of no engine kind.
var fuzzValues = []types.Value{
	int64(0), int64(3), int64(-7), int64(1) << 40, int64(math.MinInt64),
	0.0, math.Copysign(0, -1), math.NaN(), 3.0, 0.5, math.Inf(-1),
	"", "a", "3", "0.5",
	true, false, nil, int32(3),
}

// sameValue is kind-exact identity: the same dynamic type and, for
// floats, the same bits.
func sameValue(a, b types.Value) bool {
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return a == b
}

// checkSet compares s with the model m field by field, kind-exact,
// through every read accessor.
func checkSet(t *testing.T, step string, s *TupleSet, m *boxedSet) {
	t.Helper()
	if s.Len() != len(m.tuples) || s.Version() != m.version {
		t.Fatalf("%s: len %d version %d, model %d %d", step, s.Len(), s.Version(), len(m.tuples), m.version)
	}
	var sc []types.Scalar
	for i, want := range m.tuples {
		if s.Width(i) != len(want) || s.RowEqual(i, want) != want.Equal(want) {
			t.Fatalf("%s: row %d width %d equal %v, model %v", step, i, s.Width(i), s.RowEqual(i, want), want)
		}
		row := s.Row(i)
		sc = s.Scalars(i, sc[:0])
		for c, v := range want {
			wi, wiok := types.AsInt(v)
			wf, wfok := types.AsFloat(v)
			gi, giok := s.Int(i, c)
			gf, gfok := s.Float(i, c)
			switch {
			case !sameValue(row[c], v), !sameValue(s.Value(i, c), v):
				t.Fatalf("%s: row %d field %d reads %#v, model %#v", step, i, c, row[c], v)
			case gi != wi || giok != wiok:
				t.Fatalf("%s: Int(%d, %d) = %d %v, AsInt %d %v", step, i, c, gi, giok, wi, wiok)
			case math.Float64bits(gf) != math.Float64bits(wf) || gfok != wfok:
				t.Fatalf("%s: Float(%d, %d) = %v %v, AsFloat %v %v", step, i, c, gf, gfok, wf, wfok)
			}
			e := NewEmitter(1)
			e.Begin(types.OpInsert)
			e.Field(s, i, c)
			if err := e.End(); err != nil {
				t.Fatal(err)
			}
			if got := e.Batch().Col(0).Value(0); !sameValue(got, v) {
				t.Fatalf("%s: Field(%d, %d) emitted %#v, model %#v", step, i, c, got, v)
			}
		}
		if len(sc) != len(want) {
			t.Fatalf("%s: Scalars(%d) has %d fields, model %d", step, i, len(sc), len(want))
		}
		like := s.RowLike(i, want)
		for c := range want {
			if !sameValue(like[c], row[c]) {
				t.Fatalf("%s: RowLike(%d) = %v, Row %v", step, i, like, row)
			}
		}
	}
}

// FuzzTupleSet drives the typed TupleSet and the boxed model through one
// operation sequence and compares them after every operation.
func FuzzTupleSet(f *testing.F) {
	f.Add([]byte{0, 2, 0, 1, 0, 3, 5, 6, 7, 1, 0, 2, 9, 10, 2, 0, 1, 11, 3, 0})
	f.Add([]byte{0, 1, 7, 0, 3, 13, 14, 15, 4, 0, 0, 6, 0, 1, 1, 2, 7, 0, 1, 1})
	f.Add([]byte{0, 0, 0, 2, 18, 17, 1, 0, 3, 16, 12, 11, 5, 1, 0, 3, 4, 8, 9, 6, 0, 2, 1, 1, 0, 0})
	f.Add([]byte{0, 2, 1, 2, 0, 2, 1, 2, 6, 0, 1, 3, 7, 0, 1, 3, 2, 0, 1, 8, 5, 0, 0, 2, 3, 0, 3})
	f.Add([]byte{0, 2, 12, 1, 0, 2, 13, 2, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		value := func() types.Value { return fuzzValues[next()%len(fuzzValues)] }
		tuple := func() types.Tuple {
			tup := make(types.Tuple, next()%4)
			for c := range tup {
				tup[c] = value()
			}
			return tup
		}
		s, m := &TupleSet{}, &boxedSet{}
		// existing returns a copy of a stored row or, half the time, a
		// fresh tuple.
		existing := func() types.Tuple {
			if k := next(); k%2 == 0 && len(m.tuples) > 0 {
				return m.tuples[k/2%len(m.tuples)].Clone()
			}
			return tuple()
		}
		for step := 0; len(data) > 0 && step < 64; step++ {
			op := next() % 8
			name := fmt.Sprintf("step %d op %d", step, op)
			switch op {
			case 0:
				tup := tuple()
				s.Add(tup)
				m.add(tup)
			case 1, 2, 3:
				if len(m.tuples) == 0 {
					continue
				}
				i := next() % len(m.tuples)
				switch op {
				case 1:
					tup := tuple()
					s.Set(i, tup)
					m.set(i, tup)
				case 2:
					if len(m.tuples[i]) == 0 {
						continue
					}
					c := next() % len(m.tuples[i])
					v, _ := types.AsFloat(fuzzValues[next()%len(fuzzValues)])
					s.SetFloat(i, c, v)
					nt := m.tuples[i].Clone()
					nt[c] = v
					m.set(i, nt)
				case 3:
					s.RemoveAt(i)
					m.removeAt(i)
				}
			case 4:
				tup := existing()
				if got, want := s.Remove(tup), m.remove(tup); got != want {
					t.Fatalf("%s: Remove(%v) = %v, model %v", name, tup, got, want)
				}
			case 5:
				old, nt := existing(), tuple()
				if got, want := s.ReplaceFirst(old, nt), m.replaceFirst(old, nt); got != want {
					t.Fatalf("%s: ReplaceFirst(%v) = %v, model %v", name, old, got, want)
				}
			case 6, 7:
				// Both sets panic on a row narrower than the columns,
				// so the columns stay under every row's width.
				width := 3
				for _, tup := range m.tuples {
					width = min(width, len(tup))
				}
				if width == 0 {
					continue
				}
				keyCol, col, key := next()%width, next()%width, value()
				if op == 7 {
					gv, gok := s.Get(keyCol, key, col)
					wv, wok := m.get(keyCol, key, col)
					if gok != wok || !sameValue(gv, wv) {
						t.Fatalf("%s: Get = %#v %v, model %#v %v", name, gv, gok, wv, wok)
					}
					continue
				}
				v, fresh := value(), tuple()
				build := func() types.Tuple {
					return append(fresh.Clone(), make(types.Tuple, width)...)[:max(len(fresh), width)]
				}
				s.Put(keyCol, key, col, v, build)
				m.put(keyCol, key, col, v, build)
			}
			checkSet(t, name, s, m)
		}
		cl, snapshot := s.Clone(), &boxedSet{tuples: append([]types.Tuple(nil), m.tuples...), version: 0}
		checkSet(t, "clone", cl, snapshot)
		if cl.Len() > 0 {
			cl.Set(0, types.NewTuple("scribble"))
			checkSet(t, "original after clone write", s, m)
		}
	})
}

// Kinds survive a round trip, including through SetFloat, and a delta's
// borrowed row is copied on store.
func TestTupleSetKindsAndCopies(t *testing.T) {
	s := &TupleSet{}
	row := types.NewTuple(int64(3), 3.0, "x", nil, true)
	s.Add(row)
	row[0], row[1] = int64(9), 9.0
	if v, ok := s.Value(0, 0).(int64); !ok || v != 3 {
		t.Fatalf("int field reads %#v", s.Value(0, 0))
	}
	if v, ok := s.Value(0, 1).(float64); !ok || v != 3 {
		t.Fatalf("integral float field reads %#v", s.Value(0, 1))
	}
	s.SetFloat(0, 0, 2)
	if v, ok := s.Value(0, 0).(float64); !ok || v != 2 {
		t.Fatalf("SetFloat field reads %#v", s.Value(0, 0))
	}
	if got := s.Row(0); !got.Equal(types.NewTuple(2.0, 3.0, "x", nil, true)) {
		t.Fatalf("row reads %v", got)
	}
}
