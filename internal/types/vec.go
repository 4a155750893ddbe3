package types

// Vec is one kernel-computed column vector: a typed data slice selected
// by K plus a validity bitmap, indexed by absolute batch row number. It
// is the currency between compiled expression kernels (internal/expr)
// and columnar batch assembly — kernels fill Vecs with typed loops, and
// DeltaBatch.AppendVecRow copies rows back out without boxing.
//
// A Vec either owns its storage (grown by Reset) or borrows a column's
// vectors in place (BorrowColumn); borrowed slices are read-only and are
// dropped, never reused as output storage, on the next Reset.
type Vec struct {
	K      Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	// Anys is the mixed-kind lane the expression interpreter fills when
	// one expression's values differ in kind from row to row (SetValues).
	// Non-nil takes precedence over the typed lanes; K is then KindNull.
	Anys []Value

	// nulls is the validity bitmap (bit set = NULL), sized to cover n
	// rows on owned Vecs; on borrowed Vecs it aliases the column's lazy
	// bitmap, so bits beyond its length read as valid.
	nulls    []byte
	borrowed bool
}

// Reset re-types the vector to kind k with owned storage covering n rows
// (all valid). Kernels write only the rows they evaluate; unevaluated
// slots hold stale data the consumer never reads, so the int, float and
// bool lanes are not re-zeroed (the string lane is, so it pins no stale
// strings). The validity bitmap is always cleared.
func (v *Vec) Reset(k Kind, n int) {
	if v.borrowed {
		v.Ints, v.Floats, v.Strs, v.Bools, v.nulls = nil, nil, nil, nil, nil
		v.borrowed = false
	}
	v.K = k
	v.Anys = nil
	v.Ints, v.Floats, v.Strs, v.Bools = v.Ints[:0], v.Floats[:0], v.Strs[:0], v.Bools[:0]
	switch k {
	case KindInt:
		v.Ints = grow(v.Ints, n)
	case KindFloat:
		v.Floats = grow(v.Floats, n)
	case KindString:
		v.Strs = growZero(v.Strs, n)
	case KindBool:
		v.Bools = grow(v.Bools, n)
	}
	nb := (n + 7) / 8
	if cap(v.nulls) < nb {
		v.nulls = make([]byte, nb)
	} else {
		v.nulls = v.nulls[:nb]
		clear(v.nulls)
	}
}

// grow returns s with length n, keeping its contents where the capacity
// allows.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// BorrowColumn aliases v onto a typed column's storage without copying:
// the data vector and validity bitmap are shared, read-only. It reports
// false when the column has no typed vector to borrow (mixed-kind or
// empty/all-null), leaving v unchanged.
func (v *Vec) BorrowColumn(c *Column) bool {
	c.mat()
	if c.anys != nil || c.kind == KindNull {
		return false
	}
	v.K = c.kind
	v.Ints, v.Floats, v.Strs, v.Bools, v.Anys = nil, nil, nil, nil, nil
	switch c.kind {
	case KindInt:
		v.Ints = c.ints
	case KindFloat:
		v.Floats = c.floats
	case KindString:
		v.Strs = c.strs
	case KindBool:
		v.Bools = c.bools
	}
	v.nulls = c.nulls
	v.borrowed = true
	return true
}

// Null reports whether row i is NULL.
func (v *Vec) Null(i int) bool {
	if i>>3 >= len(v.nulls) {
		return false
	}
	return v.nulls[i>>3]&(1<<(i&7)) != 0
}

// SetNull marks row i NULL, growing the bitmap if needed.
func (v *Vec) SetNull(i int) {
	for i>>3 >= len(v.nulls) {
		v.nulls = append(v.nulls, 0)
	}
	v.nulls[i>>3] |= 1 << (i & 7)
}

// AnyNull reports whether the bitmap has any NULL bit set — the cheap
// pre-check before per-row validity scans.
func (v *Vec) AnyNull() bool {
	for _, b := range v.nulls {
		if b != 0 {
			return true
		}
	}
	return false
}

// Value returns row i as a boxed scalar (nil for NULL rows) — the slow
// generic read used by mixed-kind comparisons and row assembly fallbacks.
func (v *Vec) Value(i int) Value {
	if v.Null(i) {
		return nil
	}
	if v.Anys != nil {
		return v.Anys[i]
	}
	switch v.K {
	case KindInt:
		return v.Ints[i]
	case KindFloat:
		return v.Floats[i]
	case KindString:
		return v.Strs[i]
	case KindBool:
		return v.Bools[i]
	default:
		return nil
	}
}

// SetValues fills v with one boxed value per row, as the expression
// interpreter produces them: a typed lane when every non-NULL value has
// one kind, the mixed Anys lane otherwise.
func (v *Vec) SetValues(vals []Value) {
	k, mixed := KindNull, false
	for _, x := range vals {
		if x == nil {
			continue
		}
		xk := KindOf(x)
		if xk == KindNull || (k != KindNull && xk != k) {
			mixed = true
			break
		}
		k = xk
	}
	if mixed {
		v.Reset(KindNull, len(vals))
		v.Anys = append(make([]Value, 0, len(vals)), vals...)
		for i, x := range vals {
			if x == nil {
				v.SetNull(i)
			}
		}
		return
	}
	v.Reset(k, len(vals))
	for i, x := range vals {
		switch x := x.(type) {
		case nil:
			v.SetNull(i)
		case int64:
			v.Ints[i] = x
		case float64:
			v.Floats[i] = x
		case string:
			v.Strs[i] = x
		case bool:
			v.Bools[i] = x
		}
	}
}

// CopyRow copies row i of src into row i of v. The caller must have
// Reset v to src's kind and row capacity first.
func (v *Vec) CopyRow(src *Vec, i int) {
	if src.Null(i) {
		v.SetNull(i)
		return
	}
	switch src.K {
	case KindInt:
		v.Ints[i] = src.Ints[i]
	case KindFloat:
		v.Floats[i] = src.Floats[i]
	case KindString:
		v.Strs[i] = src.Strs[i]
	case KindBool:
		v.Bools[i] = src.Bools[i]
	}
}

// VecRowEq reports whether row i of two parallel Vec groups is equal
// under Tuple.Equal semantics: per-column ValueEq, with typed fast paths
// when the kinds agree.
func VecRowEq(a, b []*Vec, i int) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if !vecValueEq(a[j], b[j], i) {
			return false
		}
	}
	return true
}

func vecValueEq(x, y *Vec, i int) bool {
	xn, yn := x.Null(i), y.Null(i)
	if xn || yn {
		return xn && yn // ValueEq: nil == nil, one-sided nil differs
	}
	if x.K == y.K {
		switch x.K {
		case KindInt:
			return x.Ints[i] == y.Ints[i]
		case KindFloat:
			return x.Floats[i] == y.Floats[i]
		case KindString:
			return x.Strs[i] == y.Strs[i]
		case KindBool:
			return x.Bools[i] == y.Bools[i]
		}
	}
	return ValueEq(x.Value(i), y.Value(i))
}

// Mixed reports whether the column is in the boxed mixed-kind
// representation — the one representation expression kernels cannot read
// as a typed vector (they fall back to the row interpreter).
func (c *Column) Mixed() bool {
	c.mat()
	return c.anys != nil
}

// HasNulls reports whether any row of the column is NULL.
func (c *Column) HasNulls() bool {
	c.mat()
	for _, b := range c.nulls {
		if b != 0 {
			return true
		}
	}
	return false
}

// NumOldCols reports the old-image group's arity (0 when the batch has
// no replace rows).
func (b *DeltaBatch) NumOldCols() int { return len(b.old) }

// OldCol returns column j of the old-image group.
func (b *DeltaBatch) OldCol(j int) *Column { return &b.old[j] }

// appendVecAt appends row i of a kernel result vector, preserving the
// typed representation when the column can hold it.
func (c *Column) appendVecAt(v *Vec, i int) {
	c.mat()
	if v.Null(i) {
		c.setNull(c.n)
		c.appendZero()
		return
	}
	if c.anys == nil && c.adopt(v.K) {
		switch v.K {
		case KindInt:
			c.ints = append(c.ints, v.Ints[i])
			c.n++
			return
		case KindFloat:
			c.floats = append(c.floats, v.Floats[i])
			c.n++
			return
		case KindString:
			c.strs = append(c.strs, v.Strs[i])
			c.n++
			return
		case KindBool:
			c.bools = append(c.bools, v.Bools[i])
			c.n++
			return
		}
	}
	c.AppendValue(v.Value(i))
}

// gatherVec appends rows sel of a kernel result vector or a borrowed
// column (see DeltaBatch.GatherVecs and Gather): appendVecAt for each
// row, with one typed loop when the column can hold the vector's lane.
func (c *Column) gatherVec(v *Vec, sel []int32) {
	c.mat()
	typed := c.anys == nil && v.Anys == nil && v.K != KindNull &&
		(c.kind == KindNull || c.kind == v.K)
	nulls := v.AnyNull()
	if typed && nulls {
		// As for appendVecAt, the column adopts the lane's kind only once
		// a selected row is valid.
		typed = false
		for _, i := range sel {
			if !v.Null(int(i)) {
				typed = true
				break
			}
		}
	}
	if !typed {
		for _, i := range sel {
			c.appendVecAt(v, int(i))
		}
		return
	}
	base := c.n
	c.adopt(v.K)
	switch v.K {
	case KindInt:
		for _, i := range sel {
			c.ints = append(c.ints, v.Ints[i])
		}
	case KindFloat:
		for _, i := range sel {
			c.floats = append(c.floats, v.Floats[i])
		}
	case KindString:
		for _, i := range sel {
			c.strs = append(c.strs, v.Strs[i])
		}
	case KindBool:
		for _, i := range sel {
			c.bools = append(c.bools, v.Bools[i])
		}
	}
	c.n += len(sel)
	if nulls {
		// A NULL slot holds the lane's zero, as appendVecAt leaves it.
		for k, i := range sel {
			if v.Null(int(i)) {
				c.setNull(base + k)
				c.zeroAt(base + k)
			}
		}
	}
}

// zeroAt clears lane slot i of a typed column.
func (c *Column) zeroAt(i int) {
	switch c.kind {
	case KindInt:
		c.ints[i] = 0
	case KindFloat:
		c.floats[i] = 0
	case KindString:
		c.strs[i] = ""
	case KindBool:
		c.bools[i] = false
	}
}

// GatherVecs appends the rows of sel assembled from kernel result
// vectors: for each i of sel, src's op at row i and cols[j] row i as
// column j. It is AppendVecRow(src.Op(i), cols, nil, i) for each i of
// sel, built a column at a time. New images only: no row of sel may be a
// replace.
func (b *DeltaBatch) GatherVecs(src *DeltaBatch, cols []*Vec, sel []int32) {
	if len(sel) == 0 {
		return
	}
	if b.n == 0 {
		b.cols = ensureCols(b.cols, len(cols))
	} else if len(cols) != len(b.cols) {
		panic("types: DeltaBatch.GatherVecs: arity mismatch")
	}
	for _, i := range sel {
		b.ops = append(b.ops, src.ops[i])
	}
	for j := range b.cols {
		b.cols[j].gatherVec(cols[j], sel)
	}
	if b.old != nil {
		padCols(b.old, b.n+len(sel))
	}
	b.n += len(sel)
}

// AppendVecRow appends row i assembled from kernel result vectors: op
// plus one value per cols entry, and — for OpReplace rows — one old
// image value per oldCols entry. Like Append, arity is uniform across a
// batch and a mismatch panics.
func (b *DeltaBatch) AppendVecRow(op Op, cols []*Vec, oldCols []*Vec, i int) {
	if b.n == 0 {
		b.cols = ensureCols(b.cols, len(cols))
	} else if len(cols) != len(b.cols) {
		panic("types: DeltaBatch.AppendVecRow: arity mismatch")
	}
	b.ops = append(b.ops, byte(op))
	for j := range b.cols {
		b.cols[j].appendVecAt(cols[j], i)
	}
	if op == OpReplace && oldCols != nil {
		if b.old == nil {
			b.old = ensureCols(nil, len(oldCols))
			padCols(b.old, b.n)
		} else if len(oldCols) != len(b.old) {
			panic("types: DeltaBatch.AppendVecRow: old arity mismatch")
		}
		for j := range b.old {
			b.old[j].appendVecAt(oldCols[j], i)
		}
	} else if b.old != nil {
		padCols(b.old, b.n+1)
	}
	b.n++
}
