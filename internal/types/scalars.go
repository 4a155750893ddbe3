package types

import (
	"cmp"
	"fmt"
	"math"
)

// scalars is a lane of scalar values held unboxed: a kind per row and
// the payload bits of ints, floats (IEEE bits) and bools beside it.
// Strings live in strs, which stays nil until the lane's first string
// and is row-aligned from then on, so an all-numeric lane carries no
// string header per row.
type scalars struct {
	k    []Kind
	w    []uint64
	strs []string
}

// push appends one scalar.
func (l *scalars) push(k Kind, w uint64, s string) {
	l.k = append(l.k, k)
	l.w = append(l.w, w)
	if l.strs != nil || k == KindString {
		l.strs = growTo(l.strs, len(l.k)-1)
		l.strs = append(l.strs, s)
	}
}

// set overwrites row i.
func (l *scalars) set(i int, k Kind, w uint64, s string) {
	l.k[i], l.w[i] = k, w
	if k == KindString && l.strs == nil {
		l.strs = make([]string, len(l.k))
	}
	if l.strs != nil {
		l.strs[i] = s
	}
}

// truncate keeps the first n rows, dropping string references past them.
func (l *scalars) truncate(n int) {
	if l.strs != nil {
		clear(l.strs[n:])
		l.strs = l.strs[:n]
	}
	l.k, l.w = l.k[:n], l.w[:n]
}

func (l *scalars) str(i int) string {
	if l.strs == nil {
		return ""
	}
	return l.strs[i]
}

// scalar renders row i as a Scalar.
func (l *scalars) scalar(i int, out *Scalar) {
	*out = bitsScalar(l.k[i], l.w[i], l.str(i))
}

// value renders row i boxed.
func (l *scalars) value(i int) Value {
	s := bitsScalar(l.k[i], l.w[i], l.str(i))
	return s.boxed()
}

// growTo pads s with zero values to length n.
func growTo[T any](s []T, n int) []T {
	var zero T
	for len(s) < n {
		s = append(s, zero)
	}
	return s
}

// bitsScalar is the Scalar of an unboxed (kind, bits, string) triple.
func bitsScalar(k Kind, w uint64, s string) Scalar {
	switch k {
	case KindInt:
		return Scalar{K: KindInt, I: int64(w)}
	case KindFloat:
		return Scalar{K: KindFloat, F: math.Float64frombits(w)}
	case KindString:
		return Scalar{K: KindString, S: s}
	case KindBool:
		return Scalar{K: KindBool, V: w != 0}
	}
	return Scalar{}
}

// scalarBits is bitsScalar's inverse.
func scalarBits(s *Scalar) (Kind, uint64, string) {
	switch s.K {
	case KindInt:
		return KindInt, uint64(s.I), ""
	case KindFloat:
		return KindFloat, math.Float64bits(s.F), ""
	case KindString:
		return KindString, 0, s.S
	}
	return valueBits(s.V)
}

// valueBits splits a boxed scalar into (kind, bits, string). A value of
// no engine kind renders as its printed string.
func valueBits(v Value) (Kind, uint64, string) {
	switch x := v.(type) {
	case nil:
		return KindNull, 0, ""
	case int64:
		return KindInt, uint64(x), ""
	case float64:
		return KindFloat, math.Float64bits(x), ""
	case string:
		return KindString, 0, x
	case bool:
		if x {
			return KindBool, 1, ""
		}
		return KindBool, 0, ""
	}
	return KindString, 0, fmt.Sprint(v)
}

// bitsAt splits row i of a column into (kind, bits, string) without
// boxing typed lanes.
func (c *Column) bitsAt(i int) (Kind, uint64, string) {
	c.mat()
	if c.IsNull(i) {
		return KindNull, 0, ""
	}
	if c.anys != nil {
		return valueBits(c.anys[i])
	}
	switch c.kind {
	case KindInt:
		return KindInt, uint64(c.ints[i]), ""
	case KindFloat:
		return KindFloat, math.Float64bits(c.floats[i]), ""
	case KindString:
		return KindString, 0, c.strs[i]
	case KindBool:
		if c.bools[i] {
			return KindBool, 1, ""
		}
		return KindBool, 0, ""
	}
	return KindNull, 0, ""
}

// bitsAt is Column.bitsAt for a kernel or interpreter result vector.
func (v *Vec) bitsAt(i int) (Kind, uint64, string) {
	if v.Null(i) {
		return KindNull, 0, ""
	}
	if v.Anys != nil {
		return valueBits(v.Anys[i])
	}
	switch v.K {
	case KindInt:
		return KindInt, uint64(v.Ints[i]), ""
	case KindFloat:
		return KindFloat, math.Float64bits(v.Floats[i]), ""
	case KindString:
		return KindString, 0, v.Strs[i]
	case KindBool:
		if v.Bools[i] {
			return KindBool, 1, ""
		}
		return KindBool, 0, ""
	}
	return KindNull, 0, ""
}

// normBits folds an integral float onto int64, as normKey does, so group
// keys 1 and 1.0 meet.
func normBits(k Kind, w uint64) (Kind, uint64) {
	if k == KindFloat {
		if f := math.Float64frombits(w); float64(int64(f)) == f {
			return KindInt, uint64(int64(f))
		}
	}
	return k, w
}

// keyEq reports whether row i and (k, w, s) are one group key: equal
// after normBits, floats by bits (as the composite key encoding compares
// them).
func (l *scalars) keyEq(i int, k Kind, w uint64, s string) bool {
	k1, w1 := normBits(l.k[i], l.w[i])
	k2, w2 := normBits(k, w)
	if k1 != k2 {
		return false
	}
	switch k1 {
	case KindNull:
		return true
	case KindString:
		return l.str(i) == s
	}
	return w1 == w2
}

// rawEq is value identity for the multiset rows of min/max and the ids
// of argmin — the identity a Go map keyed by the boxed value has: kinds
// must match (1 and 1.0 differ), floats compare with == (−0 meets 0, NaN
// meets nothing).
func rawEq(k1 Kind, w1 uint64, s1 string, k2 Kind, w2 uint64, s2 string) bool {
	if k1 != k2 {
		return false
	}
	switch k1 {
	case KindNull:
		return true
	case KindString:
		return s1 == s2
	case KindFloat:
		return math.Float64frombits(w1) == math.Float64frombits(w2)
	}
	return w1 == w2
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// compareBits is ValueCompare over unboxed scalars, with the numeric and
// same-kind cases unboxed.
func compareBits(k1 Kind, w1 uint64, s1 string, k2 Kind, w2 uint64, s2 string) int {
	switch {
	case k1 == KindInt && k2 == KindInt:
		return cmp.Compare(int64(w1), int64(w2))
	case k1 == KindFloat && k2 == KindFloat:
		return compareFloat(math.Float64frombits(w1), math.Float64frombits(w2))
	case k1 == KindString && k2 == KindString:
		return cmp.Compare(s1, s2)
	}
	a, b := bitsScalar(k1, w1, s1), bitsScalar(k2, w2, s2)
	return ValueCompare(a.boxed(), b.boxed())
}

// eqBits is ValueEq over unboxed scalars.
func eqBits(k1 Kind, w1 uint64, s1 string, k2 Kind, w2 uint64, s2 string) bool {
	switch {
	case k1 == KindInt && k2 == KindInt:
		return w1 == w2
	case k1 == KindFloat && k2 == KindFloat:
		return math.Float64frombits(w1) == math.Float64frombits(w2)
	case k1 == KindString && k2 == KindString:
		return s1 == s2
	case k1 == KindNull || k2 == KindNull:
		return k1 == k2
	}
	a, b := bitsScalar(k1, w1, s1), bitsScalar(k2, w2, s2)
	return ValueEq(a.boxed(), b.boxed())
}
