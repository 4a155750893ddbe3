package uda

import (
	"fmt"
	"math"
	"slices"

	"github.com/rex-data/rex/internal/types"
)

// TupleSet is a mutable bucket of tuples sharing one key — the LEFTBUCKET /
// RIGHTBUCKET arguments of the paper's join-state handler and the
// WHILERELATION of the while-state handler. Handlers freely read and revise
// it; the owning operator persists it between strata.
//
// Rows are held unboxed: an int, float, bool or NULL field as its kind and
// 8 bytes, a string in a string lane, and only a value of any other type
// boxed. Rows may differ in width. Every method that stores a tuple copies
// it, so a handler may store the borrowed rows of its delta. A field reads
// back with the kind it was stored with: a float64(3) as a float64, an
// int64 as an int64.
type TupleSet struct {
	f     []field
	n     int
	width int     // fields per row while ends is nil
	ends  []int32 // per row: the end of its fields in f, once widths differ
	// strs and anys are per field, nil until the first string or the
	// first value of another type; then they stay as long as f.
	strs []string
	anys []types.Value
	// version increments on every mutation; the owning operator compares
	// versions around handler calls to track dirty state for incremental
	// checkpointing (§4.3).
	version int
}

// field is one stored value: its kind and its payload (an int64, the
// bits of a float64, or a bool as 0 or 1).
type field struct {
	w uint64
	k types.Kind
}

// kindBoxed marks a field of no engine kind, held boxed in anys.
const kindBoxed types.Kind = 255

// Version reports the mutation counter.
func (s *TupleSet) Version() int { return s.version }

// Len reports the number of tuples in the set.
func (s *TupleSet) Len() int { return s.n }

// Width reports the number of fields of tuple i.
func (s *TupleSet) Width(i int) int {
	lo, hi := s.span(i)
	return hi - lo
}

// Row returns tuple i as a fresh tuple.
func (s *TupleSet) Row(i int) types.Tuple {
	lo, hi := s.span(i)
	t := make(types.Tuple, hi-lo)
	for c := range t {
		t[c] = s.value(lo + c)
	}
	return t
}

// RowLike is Row reusing like's values where like holds the stored field
// exactly (same kind and bits), so a tuple that mostly repeats like boxes
// only the fields that changed.
func (s *TupleSet) RowLike(i int, like types.Tuple) types.Tuple {
	lo, hi := s.span(i)
	t := make(types.Tuple, hi-lo)
	for c := range t {
		if c < len(like) && s.same(lo+c, like[c]) {
			t[c] = like[c]
		} else {
			t[c] = s.value(lo + c)
		}
	}
	return t
}

// Scalars appends tuple i's fields to dst unboxed and returns it.
func (s *TupleSet) Scalars(i int, dst []types.Scalar) []types.Scalar {
	lo, hi := s.span(i)
	for p := lo; p < hi; p++ {
		dst = append(dst, s.scalar(p))
	}
	return dst
}

// Value returns field c of tuple i.
func (s *TupleSet) Value(i, c int) types.Value { return s.value(s.at(i, c)) }

// Int returns field c of tuple i converted as types.AsInt does.
func (s *TupleSet) Int(i, c int) (int64, bool) {
	p := s.at(i, c)
	switch x := s.f[p]; x.k {
	case types.KindInt, types.KindBool:
		return int64(x.w), true
	case types.KindFloat:
		return int64(math.Float64frombits(x.w)), true
	}
	return types.AsInt(s.value(p))
}

// Float returns field c of tuple i converted as types.AsFloat does.
func (s *TupleSet) Float(i, c int) (float64, bool) {
	p := s.at(i, c)
	switch x := s.f[p]; x.k {
	case types.KindFloat:
		return math.Float64frombits(x.w), true
	case types.KindInt:
		return float64(int64(x.w)), true
	case types.KindNull, types.KindBool:
		return 0, false
	}
	return types.AsFloat(s.value(p))
}

// SetFloat overwrites field c of tuple i with v.
func (s *TupleSet) SetFloat(i, c int, v float64) {
	p := s.at(i, c)
	s.clearLanes(p)
	s.f[p] = field{w: math.Float64bits(v), k: types.KindFloat}
	s.version++
}

// RowEqual reports whether tuple i equals t under types.ValueEq, field by
// field, as Tuple.Equal does.
func (s *TupleSet) RowEqual(i int, t types.Tuple) bool {
	lo, hi := s.span(i)
	if hi-lo != len(t) {
		return false
	}
	for c, v := range t {
		if !s.eq(lo+c, v) {
			return false
		}
	}
	return true
}

// Add appends a copy of t.
func (s *TupleSet) Add(t types.Tuple) {
	p := len(s.f)
	s.f = append(s.f, make([]field, len(t))...)
	if s.strs != nil {
		s.strs = append(s.strs, make([]string, len(t))...)
	}
	if s.anys != nil {
		s.anys = append(s.anys, make([]types.Value, len(t))...)
	}
	for c, v := range t {
		s.put(p+c, v)
	}
	switch {
	case s.n == 0 && s.ends == nil:
		s.width = len(t)
	case s.ends == nil && len(t) != s.width:
		s.ragged()
	}
	if s.ends != nil {
		s.ends = append(s.ends, int32(len(s.f)))
	}
	s.n++
	s.version++
}

// Remove deletes the first tuple equal to t, reporting whether one existed.
func (s *TupleSet) Remove(t types.Tuple) bool {
	for i := 0; i < s.n; i++ {
		if s.RowEqual(i, t) {
			s.RemoveAt(i)
			return true
		}
	}
	return false
}

// RemoveAt deletes tuple i.
func (s *TupleSet) RemoveAt(i int) {
	lo, hi := s.span(i)
	s.f = slices.Delete(s.f, lo, hi)
	if s.strs != nil {
		s.strs = slices.Delete(s.strs, lo, hi)
	}
	if s.anys != nil {
		s.anys = slices.Delete(s.anys, lo, hi)
	}
	if s.ends != nil {
		s.ends = slices.Delete(s.ends, i, i+1)
		for j := i; j < len(s.ends); j++ {
			s.ends[j] -= int32(hi - lo)
		}
	}
	s.n--
	if s.n == 0 {
		s.ends = nil
	}
	s.version++
}

// Set overwrites tuple i with a copy of t (bumping the mutation counter,
// so dirty-state tracking sees in-place revisions).
func (s *TupleSet) Set(i int, t types.Tuple) {
	lo, hi := s.span(i)
	if len(t) != hi-lo {
		s.resize(i, lo, hi, len(t))
	}
	for c, v := range t {
		s.put(lo+c, v)
	}
	s.version++
}

// ReplaceFirst overwrites the first tuple equal to old with a copy of new,
// reporting whether old existed.
func (s *TupleSet) ReplaceFirst(old, new types.Tuple) bool {
	for i := 0; i < s.n; i++ {
		if s.RowEqual(i, old) {
			s.Set(i, new)
			return true
		}
	}
	return false
}

// Get returns the value at column col of the first tuple whose column
// keyCol equals key, mirroring the bucket.get(id) idiom of the paper's
// PRAgg listing. ok is false when no tuple matches.
func (s *TupleSet) Get(keyCol int, key types.Value, col int) (types.Value, bool) {
	for i := 0; i < s.n; i++ {
		if s.eq(s.at(i, keyCol), key) {
			return s.Value(i, col), true
		}
	}
	return nil, false
}

// Put updates column col of the first tuple whose keyCol matches key, or
// appends a fresh tuple build(key) when absent (bucket.put of the paper).
func (s *TupleSet) Put(keyCol int, key types.Value, col int, v types.Value, build func() types.Tuple) {
	for i := 0; i < s.n; i++ {
		if s.eq(s.at(i, keyCol), key) {
			s.put(s.at(i, col), v)
			s.version++
			return
		}
	}
	nt := build()
	nt[col] = v
	s.Add(nt)
}

// Clone deep-copies the set (used when checkpointing state).
func (s *TupleSet) Clone() *TupleSet {
	return &TupleSet{
		f: slices.Clone(s.f), n: s.n, width: s.width, ends: slices.Clone(s.ends),
		strs: slices.Clone(s.strs), anys: slices.Clone(s.anys),
	}
}

// span returns the range of tuple i's fields in f.
func (s *TupleSet) span(i int) (lo, hi int) {
	if uint(i) >= uint(s.n) {
		panic(fmt.Sprintf("uda: TupleSet index %d out of range [0:%d]", i, s.n))
	}
	if s.ends == nil {
		return i * s.width, (i + 1) * s.width
	}
	if i > 0 {
		lo = int(s.ends[i-1])
	}
	return lo, int(s.ends[i])
}

// at returns the position in f of field c of tuple i.
func (s *TupleSet) at(i, c int) int {
	lo, hi := s.span(i)
	if uint(c) >= uint(hi-lo) {
		panic(fmt.Sprintf("uda: TupleSet field %d out of range [0:%d]", c, hi-lo))
	}
	return lo + c
}

// ragged switches from one width for every row to per-row ends.
func (s *TupleSet) ragged() {
	s.ends = make([]int32, s.n, s.n+1)
	for i := range s.ends {
		s.ends[i] = int32((i + 1) * s.width)
	}
}

// resize makes tuple i, at [lo, hi) of f, w fields wide.
func (s *TupleSet) resize(i, lo, hi, w int) {
	if s.ends == nil {
		if s.n == 1 {
			s.width = w
		} else {
			s.ragged()
		}
	}
	d := w - (hi - lo)
	if d > 0 {
		s.f = slices.Insert(s.f, hi, make([]field, d)...)
		if s.strs != nil {
			s.strs = slices.Insert(s.strs, hi, make([]string, d)...)
		}
		if s.anys != nil {
			s.anys = slices.Insert(s.anys, hi, make([]types.Value, d)...)
		}
	} else {
		s.f = slices.Delete(s.f, lo+w, hi)
		if s.strs != nil {
			s.strs = slices.Delete(s.strs, lo+w, hi)
		}
		if s.anys != nil {
			s.anys = slices.Delete(s.anys, lo+w, hi)
		}
	}
	for j := i; j < len(s.ends); j++ {
		s.ends[j] += int32(d)
	}
}

// put stores v at position p of f.
func (s *TupleSet) put(p int, v types.Value) {
	s.clearLanes(p)
	var x field
	switch v := v.(type) {
	case nil:
	case int64:
		x = field{w: uint64(v), k: types.KindInt}
	case float64:
		x = field{w: math.Float64bits(v), k: types.KindFloat}
	case bool:
		x.k = types.KindBool
		if v {
			x.w = 1
		}
	case string:
		x.k = types.KindString
		if s.strs == nil {
			s.strs = make([]string, len(s.f))
		}
		s.strs[p] = v
	default:
		x.k = kindBoxed
		if s.anys == nil {
			s.anys = make([]types.Value, len(s.f))
		}
		s.anys[p] = v
	}
	s.f[p] = x
}

// clearLanes drops position p's string or boxed value.
func (s *TupleSet) clearLanes(p int) {
	if s.strs != nil {
		s.strs[p] = ""
	}
	if s.anys != nil {
		s.anys[p] = nil
	}
}

// value boxes the field at p.
func (s *TupleSet) value(p int) types.Value {
	switch x := s.f[p]; x.k {
	case types.KindInt:
		return int64(x.w)
	case types.KindFloat:
		return math.Float64frombits(x.w)
	case types.KindString:
		return s.strs[p]
	case types.KindBool:
		return x.w != 0
	case kindBoxed:
		return s.anys[p]
	}
	return nil
}

// scalar renders the field at p unboxed.
func (s *TupleSet) scalar(p int) types.Scalar {
	switch x := s.f[p]; x.k {
	case types.KindInt:
		return types.Scalar{K: types.KindInt, I: int64(x.w)}
	case types.KindFloat:
		return types.Scalar{K: types.KindFloat, F: math.Float64frombits(x.w)}
	case types.KindString:
		return types.Scalar{K: types.KindString, S: s.strs[p]}
	case types.KindBool:
		return types.Scalar{K: types.KindBool, V: x.w != 0}
	case kindBoxed:
		return types.Scalar{V: s.anys[p]}
	}
	return types.Scalar{}
}

// eq reports types.ValueEq(the field at p, v), unboxed for the numeric,
// string and NULL cases.
func (s *TupleSet) eq(p int, v types.Value) bool {
	x := s.f[p]
	switch v := v.(type) {
	case nil:
		return x.k == types.KindNull
	case int64:
		switch x.k {
		case types.KindInt:
			return int64(x.w) == v
		case types.KindFloat:
			return math.Float64frombits(x.w) == float64(v)
		}
	case float64:
		switch x.k {
		case types.KindFloat:
			return math.Float64frombits(x.w) == v
		case types.KindInt:
			return float64(int64(x.w)) == v
		}
	case string:
		if x.k == types.KindString {
			return s.strs[p] == v
		}
	}
	return types.ValueEq(s.value(p), v)
}

// same reports whether the field at p holds v exactly: the same kind and
// the same bits.
func (s *TupleSet) same(p int, v types.Value) bool {
	x := s.f[p]
	switch v := v.(type) {
	case nil:
		return x.k == types.KindNull
	case int64:
		return x.k == types.KindInt && int64(x.w) == v
	case float64:
		return x.k == types.KindFloat && x.w == math.Float64bits(v)
	case string:
		return x.k == types.KindString && s.strs[p] == v
	case bool:
		return x.k == types.KindBool && (x.w != 0) == v
	}
	return false
}

// putField writes the field at p to column c of b's open row with the Put of
// its kind, reporting whether the lane took it.
func (s *TupleSet) putField(b *types.DeltaBatch, c, p int) bool {
	switch x := s.f[p]; x.k {
	case types.KindInt:
		return b.PutInt(c, int64(x.w))
	case types.KindFloat:
		return b.PutFloat(c, math.Float64frombits(x.w))
	case types.KindString:
		return b.PutStr(c, s.strs[p])
	case types.KindBool:
		return b.PutBool(c, x.w != 0)
	}
	return false
}
