package types

import (
	"math"
	"math/rand"
	"testing"
)

// foldLaneValues covers every lane shape FoldFrom meets: typed ints, typed
// floats (with NaN), NULLs, strings, bools.
func foldLaneValue(r *rand.Rand, lane int) Value {
	if r.Intn(7) == 0 {
		return nil
	}
	switch lane {
	case 0:
		return int64(r.Intn(20) - 10)
	case 1:
		if r.Intn(9) == 0 {
			return math.NaN()
		}
		return float64(r.Intn(40))/4 - 5
	case 2:
		return string(rune('a' + r.Intn(4)))
	case 3:
		return r.Intn(2) == 0
	default: // mixed-kind lane
		return foldLaneValue(r, r.Intn(4))
	}
}

func sameValue(a, b Value) bool {
	af, aok := a.(float64)
	bf, bok := b.(float64)
	if aok && bok && math.IsNaN(af) && math.IsNaN(bf) {
		return true
	}
	return a == b
}

// FoldFrom in the typed lanes is FoldValues over the boxed values: same
// verdict, same result, and a refused fold leaves the row untouched —
// folding within one batch, or from a second batch holding the source
// value in a lane of its own.
func TestFoldAtMirrorsFoldValues(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4000; trial++ {
		lane := r.Intn(5)
		b := &DeltaBatch{}
		rows := 2 + r.Intn(4)
		vals := make([]Value, rows)
		for i := range vals {
			vals[i] = foldLaneValue(r, lane)
			b.Append(Update(NewTuple(int64(i), vals[i])))
		}
		f := Fold(1 + r.Intn(3))
		dst, src := r.Intn(rows), r.Intn(rows)
		from, j := b, src
		if r.Intn(2) == 0 {
			from = &DeltaBatch{}
			from.Append(Update(NewTuple(int64(0), foldLaneValue(r, r.Intn(5)))))
			from.Append(Update(NewTuple(int64(src), vals[src])))
			j = 1
		}
		want, ok := FoldValues(f, vals[dst], vals[src])
		if can := b.CanFoldFrom(1, dst, from, j, f); can != ok {
			t.Fatalf("lane %d fold %d (%v, %v): CanFoldFrom = %v, FoldValues ok = %v", lane, f, vals[dst], vals[src], can, ok)
		}
		if got := b.FoldFrom(1, dst, from, j, f); got != ok {
			t.Fatalf("lane %d fold %d (%v, %v): FoldFrom = %v, FoldValues ok = %v", lane, f, vals[dst], vals[src], got, ok)
		}
		if !ok {
			want = vals[dst]
		}
		for i := range vals {
			exp := vals[i]
			if i == dst {
				exp = want
			}
			if got := b.Col(1).Value(i); !sameValue(got, exp) {
				t.Fatalf("lane %d fold %d (%v, %v): row %d = %v, want %v", lane, f, vals[dst], vals[src], i, got, exp)
			}
		}
	}
}

// randomFoldDelta draws deltas of all four ops over (int, mixed, string)
// tuples with NULLs.
func randomFoldDelta(r *rand.Rand) Delta {
	tup := func() Tuple {
		return NewTuple(int64(r.Intn(5)), foldLaneValue(r, 4), foldLaneValue(r, 2))
	}
	switch r.Intn(4) {
	case 0:
		return Insert(tup())
	case 1:
		return Delete(tup())
	case 2:
		return Replace(tup(), tup())
	default:
		return Update(tup())
	}
}

func deltasMatch(a, b Delta) bool {
	eq := func(x, y Tuple) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameValue(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	return a.Op == b.Op && eq(a.Tup, b.Tup) && (a.Op != OpReplace || eq(a.Old, b.Old))
}

// The in-place primitives against a row-slice model: after any mix of
// Append, Truncate, DropRows and CopyRow the batch materializes — and
// round-trips the wire — as exactly the model's rows. Catches validity
// bits surviving a Truncate into rows appended later.
func TestBatchInPlaceEditsMatchRowModel(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		b := &DeltaBatch{}
		var model []Delta
		for step := 0; step < 60; step++ {
			switch op := r.Intn(10); {
			case op < 5 || len(model) == 0:
				d := randomFoldDelta(r)
				b.Append(d)
				model = append(model, d)
			case op < 7:
				n := r.Intn(len(model) + 1)
				b.Truncate(n)
				model = model[:n]
			case op < 8:
				dead := make([]bool, len(model))
				var kept []Delta
				for i := range dead {
					if dead[i] = r.Intn(3) == 0; !dead[i] {
						kept = append(kept, model[i])
					}
				}
				b.DropRows(dead)
				model = kept
			default:
				dst, src := r.Intn(len(model)), r.Intn(len(model))
				b.CopyRow(dst, src)
				d := model[dst]
				d.Tup = model[src].Tup
				model[dst] = d
			}
			if b.Len() != len(model) {
				t.Fatalf("trial %d step %d: len %d, model %d", trial, step, b.Len(), len(model))
			}
		}
		dec, _, err := DecodeDeltaBatch(AppendDeltaBatch(nil, b))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range model {
			if got := b.Delta(i); !deltasMatch(got, want) {
				t.Fatalf("trial %d row %d: batch %v, model %v", trial, i, got, want)
			}
			if got := dec.Delta(i); !deltasMatch(got, want) {
				t.Fatalf("trial %d row %d: decoded %v, model %v", trial, i, got, want)
			}
			if h := b.HashRows(nil)[i]; h != want.Tup.Hash() {
				t.Fatalf("trial %d row %d: HashRows %x, Tuple.Hash %x", trial, i, h, want.Tup.Hash())
			}
		}
	}
}

// Row comparisons and the retraction rewrite agree with the Tuple
// definitions they stand in for.
func TestBatchRowComparisons(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		b := &DeltaBatch{}
		var model []Delta
		for i := 0; i < 12; i++ {
			d := randomFoldDelta(r)
			if i > 0 && r.Intn(3) == 0 { // plant equal images
				prev := model[r.Intn(i)]
				d.Tup = prev.Tup
				if d.Op == OpReplace && r.Intn(2) == 0 {
					d.Old, d.Tup = prev.Tup, d.Old
				}
			}
			b.Append(d)
			model = append(model, d)
		}
		for i := range model {
			for j := range model {
				if got, want := b.ColsEqual(i, j, nil), model[i].Tup.Equal(model[j].Tup); got != want {
					t.Fatalf("ColsEqual(%v, %v) = %v, Tuple.Equal = %v", model[i], model[j], got, want)
				}
				key := []int{0, 2}
				wantKey := ValueEq(model[i].Tup[0], model[j].Tup[0]) && ValueEq(model[i].Tup[2], model[j].Tup[2])
				if got := b.ColsEqual(i, j, key); got != wantKey {
					t.Fatalf("ColsEqual(%v, %v, %v) = %v, want %v", model[i], model[j], key, got, wantKey)
				}
				if model[j].Op == OpReplace {
					if got, want := b.NewEqualsOld(i, j), model[i].Tup.Equal(model[j].Old); got != want {
						t.Fatalf("NewEqualsOld(%v, %v) = %v, want %v", model[i], model[j], got, want)
					}
				}
			}
		}
		for i, d := range model {
			if d.Op != OpReplace {
				continue
			}
			b.RetractRow(i)
			if got := b.Delta(i); !deltasMatch(got, Delete(d.Old)) {
				t.Fatalf("RetractRow(%v) = %v, want −%v", d, got, d.Old)
			}
		}
	}
}
