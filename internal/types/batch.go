package types

import (
	"bytes"
	"math"
)

// DeltaBatch is the columnar representation of a batch of deltas: one Op
// vector plus one Column per tuple attribute, with an optional parallel
// "old" column group carrying the replaced images of OpReplace rows. It
// is the unit the execution hot path moves — operators with vector paths
// consume and emit whole batches, and the wire codec ships the columnar
// layout directly so decode can alias column payloads out of the frame
// buffer instead of materializing row tuples.
//
// A batch is either builder-owned (grown with Append*) or decoded
// (produced by DecodeDeltaBatch, aliasing the wire buffer until a column
// is first touched). Only builder-owned batches may be pooled; see
// PutBatch.
type DeltaBatch struct {
	n   int
	ops []byte // one Op per row; aliases the frame buffer on decoded batches

	cols []Column
	old  []Column // old-image group; nil until the first OpReplace row

	// borrowed marks a decoded batch whose ops/columns alias a wire
	// buffer the batch does not own. Such batches must never be pooled:
	// poisoning or reusing them would scribble on a buffer shared with
	// the rest of the frame.
	borrowed bool
}

// Column is one attribute of a DeltaBatch: a typed vector (int64,
// float64, string, or bool), or a mixed-kind []Value fallback, plus a
// validity bitmap. Decoded columns start lazy — raw holds the encoded
// payload, aliased from the wire buffer — and materialize into a vector
// on first access.
type Column struct {
	n    int
	kind Kind // vector kind; KindNull when empty or all-null

	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	anys   []Value // mixed-kind fallback; non-nil takes precedence

	// nulls is the validity bitmap: bit i set means row i is NULL. It is
	// grown lazily — bits beyond len(nulls)*8 read as valid — so all-valid
	// columns carry no bitmap at all.
	nulls []byte

	// raw is the undecoded wire payload of a lazy column (repr in
	// rawRepr); mat() consumes it.
	raw     []byte
	rawRepr byte
}

// Column payload representations on the wire.
const (
	colNulls  byte = 0 // no payload: every row is NULL
	colInts   byte = 1 // one varint per row
	colFloats byte = 2 // 8 little-endian bytes per row
	colStrs   byte = 3 // uvarint length + bytes per row
	colBools  byte = 4 // bit-packed, one bit per row
	colAnys   byte = 5 // types codec AppendValue per row
)

// Len reports the column's row count.
func (c *Column) Len() int { return c.n }

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool {
	if i>>3 >= len(c.nulls) {
		return false
	}
	return c.nulls[i>>3]&(1<<(i&7)) != 0
}

func (c *Column) setNull(i int) {
	for i>>3 >= len(c.nulls) {
		c.nulls = append(c.nulls, 0)
	}
	c.nulls[i>>3] |= 1 << (i & 7)
}

// repr reports the wire representation of a materialized column.
func (c *Column) repr() byte {
	if c.anys != nil {
		return colAnys
	}
	switch c.kind {
	case KindInt:
		return colInts
	case KindFloat:
		return colFloats
	case KindString:
		return colStrs
	case KindBool:
		return colBools
	default:
		return colNulls
	}
}

// Value returns row i as a boxed scalar (nil for NULL rows). It
// materializes a lazy column on first call.
func (c *Column) Value(i int) Value {
	c.mat()
	if c.IsNull(i) {
		return nil
	}
	if c.anys != nil {
		return c.anys[i]
	}
	switch c.kind {
	case KindInt:
		return c.ints[i]
	case KindFloat:
		return c.floats[i]
	case KindString:
		return c.strs[i]
	case KindBool:
		return c.bools[i]
	default:
		return nil
	}
}

// Int returns row i of an int64 column along with a validity flag; ok is
// false for NULL rows and for columns that are not int64-typed. Vector
// paths use the typed accessors to read without boxing.
func (c *Column) Int(i int) (int64, bool) {
	c.mat()
	if c.kind != KindInt || c.anys != nil || c.IsNull(i) {
		return 0, false
	}
	return c.ints[i], true
}

// Float is the float64 counterpart of Int.
func (c *Column) Float(i int) (float64, bool) {
	c.mat()
	if c.kind != KindFloat || c.anys != nil || c.IsNull(i) {
		return 0, false
	}
	return c.floats[i], true
}

// Kind reports the column's vector kind (KindNull when empty, all-null,
// or mixed-kind).
func (c *Column) Kind() Kind {
	c.mat()
	if c.anys != nil {
		return KindNull
	}
	return c.kind
}

// AppendValue appends one boxed scalar (nil for NULL). A column adopts
// the kind of its first non-null value; appending a different kind later
// demotes it to the mixed []Value representation.
func (c *Column) AppendValue(v Value) {
	c.mat()
	i := c.n
	if v == nil {
		c.setNull(i)
		c.appendZero()
		return
	}
	if c.anys != nil {
		c.anys = append(c.anys, v)
		c.n++
		return
	}
	switch x := v.(type) {
	case int64:
		if c.adopt(KindInt) {
			c.ints = append(c.ints, x)
			c.n++
			return
		}
	case float64:
		if c.adopt(KindFloat) {
			c.floats = append(c.floats, x)
			c.n++
			return
		}
	case string:
		if c.adopt(KindString) {
			c.strs = append(c.strs, x)
			c.n++
			return
		}
	case bool:
		if c.adopt(KindBool) {
			c.bools = append(c.bools, x)
			c.n++
			return
		}
	}
	// Kind mismatch or a non-scalar value: demote to mixed.
	c.demote()
	c.anys = append(c.anys, v)
	c.n++
}

// adopt claims kind k for an untyped column (backfilling zero slots for
// any leading NULL rows) and reports whether the column now has kind k.
func (c *Column) adopt(k Kind) bool {
	if c.kind == k {
		return true
	}
	if c.kind != KindNull {
		return false
	}
	c.kind = k
	switch k {
	case KindInt:
		c.ints = growZero(c.ints, c.n)
	case KindFloat:
		c.floats = growZero(c.floats, c.n)
	case KindString:
		c.strs = growZero(c.strs, c.n)
	case KindBool:
		c.bools = growZero(c.bools, c.n)
	}
	return true
}

func growZero[T any](s []T, n int) []T {
	if cap(s) >= n {
		s = s[:n]
		var zero T
		for i := range s {
			s[i] = zero
		}
		return s
	}
	return make([]T, n)
}

// appendZero appends a placeholder slot to whatever vector is active so
// row indexes stay aligned (the slot is marked NULL by the caller).
func (c *Column) appendZero() {
	if c.anys != nil {
		c.anys = append(c.anys, nil)
		c.n++
		return
	}
	switch c.kind {
	case KindInt:
		c.ints = append(c.ints, 0)
	case KindFloat:
		c.floats = append(c.floats, 0)
	case KindString:
		c.strs = append(c.strs, "")
	case KindBool:
		c.bools = append(c.bools, false)
	}
	c.n++
}

// demote converts a typed column to the mixed []Value representation.
func (c *Column) demote() {
	if c.anys != nil {
		return
	}
	anys := make([]Value, c.n)
	for i := 0; i < c.n; i++ {
		if c.IsNull(i) {
			continue
		}
		switch c.kind {
		case KindInt:
			anys[i] = c.ints[i]
		case KindFloat:
			anys[i] = c.floats[i]
		case KindString:
			anys[i] = c.strs[i]
		case KindBool:
			anys[i] = c.bools[i]
		}
	}
	c.anys = anys
	c.ints, c.floats, c.strs, c.bools = nil, nil, nil, nil
	c.kind = KindNull
}

// appendFrom appends row i of src, preserving the typed representation
// when both columns agree on it (the vector-path copy: no boxing).
func (c *Column) appendFrom(src *Column, i int) {
	src.mat()
	c.mat()
	if src.IsNull(i) {
		c.setNull(c.n)
		c.appendZero()
		return
	}
	if src.anys == nil && c.anys == nil && c.adopt(src.kind) {
		switch src.kind {
		case KindInt:
			c.ints = append(c.ints, src.ints[i])
			c.n++
			return
		case KindFloat:
			c.floats = append(c.floats, src.floats[i])
			c.n++
			return
		case KindString:
			c.strs = append(c.strs, src.strs[i])
			c.n++
			return
		case KindBool:
			c.bools = append(c.bools, src.bools[i])
			c.n++
			return
		}
	}
	c.AppendValue(src.Value(i))
}

// hashAt returns HashValue(c.Value(i)) computed from the typed vector
// without boxing the value. The per-kind branches mirror HashValue
// byte for byte (including the integral-float fold); TestColumnHashAt
// locks the equivalence down.
func (c *Column) hashAt(i int) uint64 {
	c.mat()
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	if c.IsNull(i) || c.anys != nil {
		return HashValue(c.Value(i))
	}
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	mix8 := func(u uint64) {
		for k := 0; k < 8; k++ {
			mix(byte(u >> (8 * k)))
		}
	}
	switch c.kind {
	case KindInt:
		mix(1)
		mix8(uint64(c.ints[i]))
	case KindFloat:
		x := c.floats[i]
		if float64(int64(x)) == x && !math.IsInf(x, 0) {
			mix(1)
			mix8(uint64(int64(x)))
		} else {
			mix(2)
			mix8(math.Float64bits(x))
		}
	case KindString:
		mix(3)
		s := c.strs[i]
		for k := 0; k < len(s); k++ {
			mix(s[k])
		}
	case KindBool:
		mix(4)
		if c.bools[i] {
			mix(1)
		} else {
			mix(0)
		}
	default:
		mix(0) // unreachable: all-null columns return above
	}
	return h
}

// reset clears the column for reuse, keeping vector capacity.
func (c *Column) reset() {
	c.n = 0
	c.kind = KindNull
	c.ints = c.ints[:0]
	c.floats = c.floats[:0]
	c.strs = c.strs[:0]
	c.bools = c.bools[:0]
	c.anys = nil
	c.nulls = c.nulls[:0]
	c.raw = nil
	c.rawRepr = 0
}

// Len reports the batch's row count.
func (b *DeltaBatch) Len() int { return b.n }

// NumCols reports the batch's attribute count.
func (b *DeltaBatch) NumCols() int { return len(b.cols) }

// Op reports the annotation of row i.
func (b *DeltaBatch) Op(i int) Op { return Op(b.ops[i]) }

// AppendReplaceRows appends the indexes of the batch's OpReplace rows to
// dst, in order, jumping from one to the next with bytes.IndexByte over
// the ops lane instead of reading every row's op.
func (b *DeltaBatch) AppendReplaceRows(dst []int32) []int32 {
	ops := b.ops[:b.n]
	for i := 0; ; i++ {
		j := bytes.IndexByte(ops[i:], byte(OpReplace))
		if j < 0 {
			return dst
		}
		i += j
		dst = append(dst, int32(i))
	}
}

// Col returns column j (of the new-image group).
func (b *DeltaBatch) Col(j int) *Column { return &b.cols[j] }

// HasOld reports whether the batch carries an old-image column group
// (i.e. contains at least one OpReplace row).
func (b *DeltaBatch) HasOld() bool { return b.old != nil }

// ensureCols sizes a column group to arity k, reusing capacity.
func ensureCols(cols []Column, k int) []Column {
	if len(cols) == k {
		return cols
	}
	if cap(cols) >= k {
		old := len(cols)
		cols = cols[:k]
		for i := old; i < k; i++ {
			cols[i].reset()
		}
		return cols
	}
	out := make([]Column, k)
	copy(out, cols)
	return out
}

// padCols appends NULL rows to every column of the group until each has
// n rows (used to backfill the old group when the first replace arrives
// mid-batch, and to keep it aligned across non-replace rows).
func padCols(cols []Column, n int) {
	for j := range cols {
		c := &cols[j]
		for c.n < n {
			c.setNull(c.n)
			c.appendZero()
		}
	}
}

// Append appends one row delta. All rows of a batch must share the
// new-tuple arity (and replaces the old-tuple arity); operators emit
// schema-uniform batches, so a mismatch is a programming error and
// panics. Use FromDeltas to convert possibly-ragged row batches.
func (b *DeltaBatch) Append(d Delta) {
	if b.n == 0 {
		b.cols = ensureCols(b.cols, len(d.Tup))
	} else if len(d.Tup) != len(b.cols) {
		panic("types: DeltaBatch.Append: tuple arity mismatch")
	}
	b.ops = append(b.ops, byte(d.Op))
	for j := range b.cols {
		b.cols[j].AppendValue(d.Tup[j])
	}
	if d.Op == OpReplace {
		if b.old == nil {
			b.old = ensureCols(nil, len(d.Old))
			padCols(b.old, b.n)
		} else if len(d.Old) != len(b.old) {
			panic("types: DeltaBatch.Append: old-tuple arity mismatch")
		}
		for j := range b.old {
			b.old[j].AppendValue(d.Old[j])
		}
	} else if b.old != nil {
		padCols(b.old, b.n+1)
	}
	b.n++
}

// AppendInsert appends an insertion row without building a Delta.
func (b *DeltaBatch) AppendInsert(t Tuple) { b.Append(Delta{Op: OpInsert, Tup: t}) }

// AppendRowFrom appends row i of src, copying column-wise so typed
// vectors never round-trip through boxed values.
func (b *DeltaBatch) AppendRowFrom(src *DeltaBatch, i int) {
	if b.n == 0 {
		b.cols = ensureCols(b.cols, len(src.cols))
	} else if len(b.cols) != len(src.cols) {
		panic("types: DeltaBatch.AppendRowFrom: arity mismatch")
	}
	op := src.Op(i)
	b.ops = append(b.ops, byte(op))
	for j := range b.cols {
		b.cols[j].appendFrom(&src.cols[j], i)
	}
	if op == OpReplace && src.old != nil {
		if b.old == nil {
			b.old = ensureCols(nil, len(src.old))
			padCols(b.old, b.n)
		}
		for j := range b.old {
			b.old[j].appendFrom(&src.old[j], i)
		}
	} else if b.old != nil {
		padCols(b.old, b.n+1)
	}
	b.n++
}

// Gather appends the rows of src listed in sel, in order: the result is
// AppendRowFrom(src, i) for each i of sel, built a column at a time. Typed
// lanes copy with one loop per column; NULLs, mixed lanes and columns
// whose kinds disagree take the per-row copy.
func (b *DeltaBatch) Gather(src *DeltaBatch, sel []int32) {
	if len(sel) == 0 {
		return
	}
	if b.n == 0 {
		b.cols = ensureCols(b.cols, len(src.cols))
	} else if len(b.cols) != len(src.cols) {
		panic("types: DeltaBatch.Gather: arity mismatch")
	}
	for _, i := range sel {
		b.ops = append(b.ops, src.ops[i])
	}
	for j := range b.cols {
		b.cols[j].gather(&src.cols[j], sel)
	}
	if src.old != nil && b.old == nil {
		for _, i := range sel {
			if src.Op(int(i)) == OpReplace {
				b.old = ensureCols(nil, len(src.old))
				padCols(b.old, b.n)
				break
			}
		}
	}
	if b.old != nil {
		if src.old == nil {
			padCols(b.old, b.n+len(sel))
		} else {
			// A source batch's old group is NULL on its non-replace rows,
			// which is what AppendRowFrom pads them with.
			for j := range b.old {
				b.old[j].gather(&src.old[j], sel)
			}
		}
	}
	b.n += len(sel)
}

// gather appends rows sel of src (see DeltaBatch.Gather): a typed lane
// through gatherVec, a mixed or untyped one row by row.
func (c *Column) gather(src *Column, sel []int32) {
	var v Vec
	if !v.BorrowColumn(src) {
		for _, i := range sel {
			c.appendFrom(src, int(i))
		}
		return
	}
	c.gatherVec(&v, sel)
}

// CopyRowFrom overwrites row i of b with row j of src, op and new image.
// Both batches have the same arity and no old-image group: it is the
// in-place half of a swap-remove over stored chunks.
func (b *DeltaBatch) CopyRowFrom(i int, src *DeltaBatch, j int) {
	if len(b.cols) != len(src.cols) || b.old != nil || src.old != nil {
		panic("types: DeltaBatch.CopyRowFrom: shape mismatch")
	}
	b.ops[i] = src.ops[j]
	for k := range b.cols {
		b.cols[k].setFrom(i, &src.cols[k], j)
	}
}

// setFrom overwrites row i with row j of src, demoting to the mixed lane
// when the kinds disagree.
func (c *Column) setFrom(i int, src *Column, j int) {
	src.mat()
	c.mat()
	if src.IsNull(j) {
		c.setNull(i)
		return
	}
	c.clearNull(i)
	if c.anys == nil && src.anys == nil && c.adopt(src.kind) {
		switch src.kind {
		case KindInt:
			c.ints[i] = src.ints[j]
		case KindFloat:
			c.floats[i] = src.floats[j]
		case KindString:
			c.strs[i] = src.strs[j]
		case KindBool:
			c.bools[i] = src.bools[j]
		}
		return
	}
	v := src.Value(j)
	c.demote()
	c.anys[i] = v
}

// RowEqual reports whether the new image of row i equals t under
// Tuple.Equal, reading typed lanes without boxing them.
func (b *DeltaBatch) RowEqual(i int, t Tuple) bool {
	if len(t) != len(b.cols) {
		return false
	}
	for j := range b.cols {
		c := &b.cols[j]
		c.mat()
		if c.IsNull(i) {
			if t[j] != nil {
				return false
			}
			continue
		}
		if c.anys == nil {
			switch x := t[j].(type) {
			case int64:
				if c.kind == KindInt {
					if c.ints[i] != x {
						return false
					}
					continue
				}
			case float64:
				if c.kind == KindFloat {
					if c.floats[i] != x {
						return false
					}
					continue
				}
			case string:
				if c.kind == KindString {
					if c.strs[i] != x {
						return false
					}
					continue
				}
			}
		}
		if !ValueEq(c.Value(i), t[j]) {
			return false
		}
	}
	return true
}

// Scalar is a Value held unboxed so a row builder can stage it without
// allocating: K names the field that carries it (KindInt: I, KindFloat: F,
// KindString: S); for any other K the value travels boxed in V, nil for
// NULL.
type Scalar struct {
	K Kind
	I int64
	F float64
	S string
	V Value
}

// boxed returns the scalar as a Value.
func (s *Scalar) boxed() Value {
	switch s.K {
	case KindInt:
		return s.I
	case KindFloat:
		return s.F
	case KindString:
		return s.S
	}
	return s.V
}

// appendScalar appends s with AppendValue's kind rules, without boxing
// when the column already holds (or adopts) s's kind.
func (c *Column) appendScalar(s *Scalar) {
	c.mat()
	switch {
	case c.anys != nil:
		c.AppendValue(s.boxed())
		return
	case s.K == KindInt && c.adopt(KindInt):
		c.ints = append(c.ints, s.I)
	case s.K == KindFloat && c.adopt(KindFloat):
		c.floats = append(c.floats, s.F)
	case s.K == KindString && c.adopt(KindString):
		c.strs = append(c.strs, s.S)
	default:
		c.AppendValue(s.boxed())
		return
	}
	c.n++
}

// AppendScalars appends one row: annotation op, the new image row and,
// for OpReplace, the old image old. Like Append, arity is uniform across
// a batch and a mismatch panics.
func (b *DeltaBatch) AppendScalars(op Op, row, old []Scalar) {
	if b.n == 0 {
		b.cols = ensureCols(b.cols, len(row))
	} else if len(row) != len(b.cols) {
		panic("types: DeltaBatch.AppendScalars: arity mismatch")
	}
	b.ops = append(b.ops, byte(op))
	for j := range b.cols {
		b.cols[j].appendScalar(&row[j])
	}
	if op == OpReplace {
		if b.old == nil {
			b.old = ensureCols(nil, len(old))
			padCols(b.old, b.n)
		} else if len(old) != len(b.old) {
			panic("types: DeltaBatch.AppendScalars: old arity mismatch")
		}
		for j := range b.old {
			b.old[j].appendScalar(&old[j])
		}
	} else if b.old != nil {
		padCols(b.old, b.n+1)
	}
	b.n++
}

// The open row: a writer that knows a non-empty batch's width appends a
// row a column at a time, straight into the lanes, then commits it. The
// Put methods append v to column c of the open row (row Len) and report
// true when that column's lane already holds v's kind; otherwise they
// write nothing, and the writer stages the row for AppendScalars, which
// adopts and demotes. So an open row never changes a lane's kind, and
// DropOpen takes every lane back to what it was before the row.

// PutInt appends v to column c of the open row if the lane is int-typed.
func (b *DeltaBatch) PutInt(c int, v int64) bool {
	col := &b.cols[c]
	if col.kind != KindInt || col.anys != nil {
		return false
	}
	col.ints = append(col.ints, v)
	col.n++
	return true
}

// PutFloat appends v to column c of the open row if the lane is
// float-typed.
func (b *DeltaBatch) PutFloat(c int, v float64) bool {
	col := &b.cols[c]
	if col.kind != KindFloat || col.anys != nil {
		return false
	}
	col.floats = append(col.floats, v)
	col.n++
	return true
}

// PutStr appends v to column c of the open row if the lane is
// string-typed.
func (b *DeltaBatch) PutStr(c int, v string) bool {
	col := &b.cols[c]
	if col.kind != KindString || col.anys != nil {
		return false
	}
	col.strs = append(col.strs, v)
	col.n++
	return true
}

// PutBool appends v to column c of the open row if the lane is
// bool-typed.
func (b *DeltaBatch) PutBool(c int, v bool) bool {
	col := &b.cols[c]
	if col.kind != KindBool || col.anys != nil {
		return false
	}
	col.bools = append(col.bools, v)
	col.n++
	return true
}

// OpenScalar returns what a Put wrote to column c of the open row, as
// the scalar AppendScalars would store the same way.
func (b *DeltaBatch) OpenScalar(c int) Scalar {
	col := &b.cols[c]
	switch col.kind {
	case KindInt:
		return Scalar{K: KindInt, I: col.ints[b.n]}
	case KindFloat:
		return Scalar{K: KindFloat, F: col.floats[b.n]}
	case KindString:
		return Scalar{K: KindString, S: col.strs[b.n]}
	}
	return Scalar{K: KindBool, V: col.bools[b.n]}
}

// DropOpen discards what the open row holds.
func (b *DeltaBatch) DropOpen() {
	for k := range b.cols {
		if b.cols[k].n > b.n {
			b.cols[k].truncate(b.n)
		}
	}
}

// CommitRow closes the open row, which holds every column, with
// annotation op (not OpReplace: an open row has no old image).
func (b *DeltaBatch) CommitRow(op Op) {
	b.ops = append(b.ops, byte(op))
	if b.old != nil {
		padCols(b.old, b.n+1)
	}
	b.n++
}

// Row fills scratch with the new-image values of row i and returns it.
// The scratch tuple is reused by callers across rows; it must not be
// retained (clone before storing).
func (b *DeltaBatch) Row(i int, scratch Tuple) Tuple {
	scratch = scratch[:0]
	for j := range b.cols {
		scratch = append(scratch, b.cols[j].Value(i))
	}
	return scratch
}

// OldRow fills scratch with the old-image values of row i and returns it.
// Like Row, the scratch tuple must not be retained.
func (b *DeltaBatch) OldRow(i int, scratch Tuple) Tuple {
	scratch = scratch[:0]
	for j := range b.old {
		scratch = append(scratch, b.old[j].Value(i))
	}
	return scratch
}

// CanAppend reports whether Append(d) would preserve the batch's
// schema-uniformity invariant (always true on an empty batch). Callers
// that accumulate into a pending batch flush and retry when it is false
// instead of panicking.
func (b *DeltaBatch) CanAppend(d Delta) bool {
	if b.n == 0 {
		return true
	}
	if len(d.Tup) != len(b.cols) {
		return false
	}
	if d.Op == OpReplace && b.old != nil && len(d.Old) != len(b.old) {
		return false
	}
	return true
}

// CanAppendRowFrom is CanAppend for AppendRowFrom(src, i).
func (b *DeltaBatch) CanAppendRowFrom(src *DeltaBatch, i int) bool {
	if b.n == 0 {
		return true
	}
	if len(b.cols) != len(src.cols) {
		return false
	}
	if src.Op(i) == OpReplace && src.old != nil && b.old != nil && len(src.old) != len(b.old) {
		return false
	}
	return true
}

// Delta materializes row i as a row-form delta with freshly allocated
// tuples (safe to retain).
func (b *DeltaBatch) Delta(i int) Delta {
	d := Delta{Op: b.Op(i), Tup: rowTuple(b.cols, i)}
	if d.Op == OpReplace && b.old != nil {
		d.Old = rowTuple(b.old, i)
	}
	return d
}

func rowTuple(cols []Column, i int) Tuple {
	t := make(Tuple, len(cols))
	for j := range cols {
		t[j] = cols[j].Value(i)
	}
	return t
}

// Deltas materializes the whole batch as row-form deltas. Every tuple is
// freshly allocated, so the result is safe to retain even when the batch
// itself is pooled or aliases a frame buffer, and a retained row never
// pins the rest of its batch. Values are boxed a column at a time,
// straight off the lanes.
func (b *DeltaBatch) Deltas() []Delta {
	out := make([]Delta, b.n)
	for i := range out {
		out[i] = Delta{Op: b.Op(i), Tup: make(Tuple, len(b.cols))}
		if out[i].Op == OpReplace && b.old != nil {
			out[i].Old = rowTuple(b.old, i)
		}
	}
	for j := range b.cols {
		b.cols[j].boxInto(out, j)
	}
	return out
}

// boxInto writes row i's boxed value to rows[i].Tup[j] for every row. A
// lazy column is boxed straight off its payload and stays lazy.
func (c *Column) boxInto(rows []Delta, j int) {
	switch {
	case c.raw != nil:
		boxPayload(c.rawRepr, c.raw, rows, j)
	case c.anys != nil:
		for i, v := range c.anys[:c.n] {
			rows[i].Tup[j] = v
		}
	case c.kind == KindInt:
		for i, v := range c.ints[:c.n] {
			rows[i].Tup[j] = v
		}
	case c.kind == KindFloat:
		for i, v := range c.floats[:c.n] {
			rows[i].Tup[j] = v
		}
	case c.kind == KindString:
		for i, v := range c.strs[:c.n] {
			rows[i].Tup[j] = v
		}
	case c.kind == KindBool:
		for i, v := range c.bools[:c.n] {
			rows[i].Tup[j] = v
		}
	}
	for i := 0; i < c.n && i>>3 < len(c.nulls); i++ {
		if c.IsNull(i) {
			rows[i].Tup[j] = nil
		}
	}
}

// UniformRun reports the length of the longest prefix of ds that one
// DeltaBatch can hold: rows of one arity whose replaces share one old
// arity. The wire codec splits ragged row batches into such runs.
func UniformRun(ds []Delta) int {
	if len(ds) == 0 {
		return 0
	}
	arity := len(ds[0].Tup)
	oldArity := -1
	for i, d := range ds {
		if len(d.Tup) != arity {
			return i
		}
		if d.Op == OpReplace {
			if oldArity < 0 {
				oldArity = len(d.Old)
			} else if len(d.Old) != oldArity {
				return i
			}
		}
	}
	return len(ds)
}

// FromDeltas converts a row batch to columnar form. It reports ok=false
// (and returns nil) for ragged batches — rows with differing arities, or
// replaces whose old arities differ — which callers split with UniformRun.
func FromDeltas(ds []Delta) (*DeltaBatch, bool) {
	if UniformRun(ds) != len(ds) {
		return nil, false
	}
	b := &DeltaBatch{}
	for _, d := range ds {
		b.Append(d)
	}
	return b, true
}

// Reset clears the batch for reuse, keeping column and vector capacity.
// A decoded (borrowed) batch drops its aliased slices instead, so later
// appends can never scribble on the wire buffer it came from.
func (b *DeltaBatch) Reset() {
	b.n = 0
	if b.borrowed {
		b.ops = nil
		b.cols = nil
		b.old = nil
		b.borrowed = false
		return
	}
	b.ops = b.ops[:0]
	for i := range b.cols {
		b.cols[i].reset()
	}
	b.old = nil
}
