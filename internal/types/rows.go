package types

import "unsafe"

// AppendDeltas appends rows [lo, hi) of b to dst as row-form deltas and
// returns the extended slice, with vals. It is Deltas for operators that
// hand rows to user code (delta handlers): the tuples and old images are
// slices of vals, which is grown as needed and overwritten, so a caller
// that passes the vals of its previous call allocates no row storage; the
// rows are valid until the caller reuses vals. Each column's values are
// boxed over one private copy of its vector, so the values themselves
// stay valid, and a call costs a few allocations whatever its length.
func (b *DeltaBatch) AppendDeltas(dst []Delta, vals []Value, lo, hi int) ([]Delta, []Value) {
	n, w, ow := hi-lo, len(b.cols), len(b.old)
	if need := n * (w + ow); cap(vals) < need {
		vals = make([]Value, need)
	} else {
		vals = vals[:need]
	}
	news, olds := vals[:n*w], vals[n*w:]
	for j := range b.cols {
		b.cols[j].boxShared(news, w, j, lo, hi)
	}
	for j := range b.old {
		b.old[j].boxShared(olds, ow, j, lo, hi)
	}
	for i := 0; i < n; i++ {
		d := Delta{Op: b.Op(lo + i), Tup: news[i*w : (i+1)*w : (i+1)*w]}
		if d.Op == OpReplace && ow > 0 {
			d.Old = olds[i*ow : (i+1)*ow : (i+1)*ow]
		}
		dst = append(dst, d)
	}
	return dst, vals
}

// boxShared writes the value of row lo+i to vals[i*stride+off] for every
// row of [lo, hi).
func (c *Column) boxShared(vals []Value, stride, off, lo, hi int) {
	c.mat()
	switch {
	case c.anys != nil:
		for i, v := range c.anys[lo:hi] {
			vals[i*stride+off] = v
		}
	case c.kind == KindInt:
		boxLane(vals, stride, off, c.ints[lo:hi])
	case c.kind == KindFloat:
		boxLane(vals, stride, off, c.floats[lo:hi])
	case c.kind == KindString:
		boxLane(vals, stride, off, c.strs[lo:hi])
	case c.kind == KindBool:
		for i, v := range c.bools[lo:hi] {
			vals[i*stride+off] = v // boxing a bool allocates nothing
		}
	}
	for i := lo; i < hi && i>>3 < len(c.nulls); i++ {
		if c.IsNull(i) {
			vals[(i-lo)*stride+off] = nil
		}
	}
}

// eface is the runtime's layout of an interface value: a type word and a
// pointer to the value.
type eface struct {
	typ, data unsafe.Pointer
}

// boxLane sets vals[i*stride+off] to src[i] boxed, for every i. Rather
// than a heap box per value, each interface points into one copy of src.
// That is what boxing itself builds — a type word and a pointer to an
// immutable copy of the value — with the copies allocated together; the
// lane is never written after this, and the garbage collector keeps it
// alive while any value points into it.
func boxLane[T int64 | float64 | string](vals []Value, stride, off int, src []T) {
	if len(src) == 0 {
		return
	}
	lane := append([]T(nil), src...)
	var zero T
	proto := any(zero) // a zero scalar boxes without allocating
	typ := (*eface)(unsafe.Pointer(&proto)).typ
	for i := range lane {
		*(*eface)(unsafe.Pointer(&vals[i*stride+off])) = eface{typ: typ, data: unsafe.Pointer(&lane[i])}
	}
}
