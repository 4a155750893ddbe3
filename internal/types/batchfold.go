package types

// In-place row primitives over a builder-owned DeltaBatch. They are the
// vocabulary the shuffle's combining store (cluster.DeltaStore) folds
// same-key deltas with: compare two rows, overwrite one row's image with
// another's, fold one value into another, drop rows — all directly in the
// typed lanes, boxing a value only when a lane is mixed-kind. None of
// them is valid on a decoded (borrowed) batch; the *From forms read their
// second row out of any batch, decoded ones included, so a row can fold
// into the store without being copied there first.

// Fold names how two same-key δ() values combine into one — the
// aggregate-delta merge ⊕ of §3.2.
type Fold uint8

const (
	FoldNone Fold = iota
	FoldSum
	FoldMin
	FoldMax
)

// ParseFold resolves an aggregate name ("sum", "min", "max") to its fold.
func ParseFold(name string) (Fold, bool) {
	switch name {
	case "sum":
		return FoldSum, true
	case "min":
		return FoldMin, true
	case "max":
		return FoldMax, true
	}
	return FoldNone, false
}

// FoldValues folds two boxed values: the reference semantics the typed
// lanes of FoldFrom reproduce. NULLs, non-numeric sums, and min/max across
// incomparable kinds do not fold.
func FoldValues(f Fold, a, b Value) (Value, bool) {
	ka, kb := KindOf(a), KindOf(b)
	if ka == KindNull || kb == KindNull {
		return nil, false
	}
	numeric := func(k Kind) bool { return k == KindInt || k == KindFloat }
	switch f {
	case FoldSum:
		if !numeric(ka) || !numeric(kb) {
			return nil, false
		}
		if ka == KindInt && kb == KindInt {
			return a.(int64) + b.(int64), true
		}
		af, _ := AsFloat(a)
		bf, _ := AsFloat(b)
		return af + bf, true
	case FoldMin, FoldMax:
		if ka != kb && !(numeric(ka) && numeric(kb)) {
			return nil, false
		}
		c := ValueCompare(a, b)
		if (f == FoldMin && c <= 0) || (f == FoldMax && c >= 0) {
			return a, true
		}
		return b, true
	}
	return nil, false
}

func (c *Column) clearNull(i int) {
	if i>>3 < len(c.nulls) {
		c.nulls[i>>3] &^= 1 << (i & 7)
	}
}

// typed reports whether row reads can go straight to a typed vector.
func (c *Column) typed() bool { return c.anys == nil && c.kind != KindNull }

// copyWithin overwrites row dst with row src of the same column.
func (c *Column) copyWithin(dst, src int) {
	if c.IsNull(src) {
		c.setNull(dst)
	} else {
		c.clearNull(dst)
	}
	if c.anys != nil {
		c.anys[dst] = c.anys[src]
		return
	}
	switch c.kind {
	case KindInt:
		c.ints[dst] = c.ints[src]
	case KindFloat:
		c.floats[dst] = c.floats[src]
	case KindString:
		c.strs[dst] = c.strs[src]
	case KindBool:
		c.bools[dst] = c.bools[src]
	}
}

// set overwrites row i with a boxed value, demoting the column to the
// mixed representation when v does not fit its typed vector.
func (c *Column) set(i int, v Value) {
	if v == nil {
		c.setNull(i)
		return
	}
	c.clearNull(i)
	if c.anys == nil {
		switch x := v.(type) {
		case int64:
			if c.kind == KindInt {
				c.ints[i] = x
				return
			}
		case float64:
			if c.kind == KindFloat {
				c.floats[i] = x
				return
			}
		case string:
			if c.kind == KindString {
				c.strs[i] = x
				return
			}
		case bool:
			if c.kind == KindBool {
				c.bools[i] = x
				return
			}
		}
		c.demote()
	}
	c.anys[i] = v
}

// colEq reports ValueEq(x.Value(i), y.Value(j)) without boxing when both
// lanes are typed alike.
func colEq(x *Column, i int, y *Column, j int) bool {
	xn, yn := x.IsNull(i), y.IsNull(j)
	if xn || yn {
		return xn && yn
	}
	if alike(x, y) {
		switch x.kind {
		case KindInt:
			return x.ints[i] == y.ints[j]
		case KindFloat:
			return x.floats[i] == y.floats[j]
		case KindString:
			return x.strs[i] == y.strs[j]
		case KindBool:
			return x.bools[i] == y.bools[j]
		}
	}
	return ValueEq(x.Value(i), y.Value(j))
}

// truncate drops rows n and beyond, clearing their validity bits so rows
// appended later do not read as NULL.
func (c *Column) truncate(n int) {
	for i := n; i < c.n; i++ {
		c.clearNull(i)
	}
	c.n = n
	if c.anys != nil {
		c.anys = c.anys[:n]
		return
	}
	switch c.kind {
	case KindInt:
		c.ints = c.ints[:n]
	case KindFloat:
		c.floats = c.floats[:n]
	case KindString:
		c.strs = c.strs[:n]
	case KindBool:
		c.bools = c.bools[:n]
	}
}

// SetOp overwrites the annotation of row i.
func (b *DeltaBatch) SetOp(i int, op Op) { b.ops[i] = byte(op) }

// ColsEqual reports whether rows i and j agree (ValueEq) on cols — on
// every column when cols is nil, which is Tuple.Equal.
func (b *DeltaBatch) ColsEqual(i, j int, cols []int) bool { return b.ColsEqualFrom(i, b, j, cols) }

// ColsEqualFrom is ColsEqual between row i of b and row j of src (which
// has b's arity).
func (b *DeltaBatch) ColsEqualFrom(i int, src *DeltaBatch, j int, cols []int) bool {
	if cols == nil {
		for k := range b.cols {
			if !colEq(&b.cols[k], i, &src.cols[k], j) {
				return false
			}
		}
		return true
	}
	for _, k := range cols {
		if !colEq(&b.cols[k], i, &src.cols[k], j) {
			return false
		}
	}
	return true
}

// KeepsLanes reports whether AppendRowFrom(src, j) would leave every
// lane of b as it is and hold row j's values as src's lanes read them:
// per column, src's row j is NULL, or b's lane is mixed, or both lanes
// are typed alike. Then comparing or folding row j straight out of src
// (ColsEqualFrom, CanFoldFrom, FoldFrom) answers exactly what appending
// it and comparing or folding in place would, and skipping the append
// changes nothing a drain or an encoder can see.
func (b *DeltaBatch) KeepsLanes(src *DeltaBatch, j int) bool {
	if len(b.cols) != len(src.cols) {
		return false
	}
	for k := range b.cols {
		c, s := &b.cols[k], &src.cols[k]
		s.mat()
		if s.IsNull(j) || c.anys != nil {
			continue
		}
		if !alike(c, s) {
			return false
		}
	}
	return true
}

// NewEqualsOld reports whether the new image of row i equals the old
// image of replace row j.
func (b *DeltaBatch) NewEqualsOld(i, j int) bool {
	if len(b.old) != len(b.cols) {
		return false
	}
	for k := range b.cols {
		if !colEq(&b.cols[k], i, &b.old[k], j) {
			return false
		}
	}
	return true
}

// CopyRow overwrites the new image of row dst with that of row src; the
// annotation and old image of dst are untouched.
func (b *DeltaBatch) CopyRow(dst, src int) {
	for k := range b.cols {
		b.cols[k].copyWithin(dst, src)
	}
}

// RetractRow turns replace row i, →(a⇒b), into −(a).
func (b *DeltaBatch) RetractRow(i int) {
	for k := range b.cols {
		b.cols[k].set(i, b.old[k].Value(i))
		b.old[k].setNull(i)
	}
	b.ops[i] = byte(OpDelete)
}

// CanFoldFrom reports whether FoldFrom(col, dst, src, j, f) would fold;
// it lets a multi-column merge decide before it mutates anything.
func (b *DeltaBatch) CanFoldFrom(col, dst int, src *DeltaBatch, j int, f Fold) bool {
	c, s := &b.cols[col], &src.cols[col]
	if c.IsNull(dst) || s.IsNull(j) {
		return false
	}
	if alike(c, s) && (c.kind == KindInt || c.kind == KindFloat) {
		return f != FoldNone
	}
	_, ok := FoldValues(f, c.Value(dst), s.Value(j))
	return ok
}

// FoldFrom folds row j of src (src may be b) into row dst of column col
// with f, in the typed lane when both lanes are numeric alike. It reports
// false, leaving dst untouched, exactly when FoldValues would.
func (b *DeltaBatch) FoldFrom(col, dst int, src *DeltaBatch, j int, f Fold) bool {
	c, s := &b.cols[col], &src.cols[col]
	if c.IsNull(dst) || s.IsNull(j) {
		return false
	}
	if alike(c, s) {
		switch c.kind {
		case KindInt:
			x, y := c.ints[dst], s.ints[j]
			switch f {
			case FoldSum:
				c.ints[dst] = x + y
			case FoldMin:
				c.ints[dst] = min(x, y)
			case FoldMax:
				c.ints[dst] = max(x, y)
			default:
				return false
			}
			return true
		case KindFloat:
			x, y := c.floats[dst], s.floats[j]
			switch f {
			case FoldSum:
				c.floats[dst] = x + y
			case FoldMin:
				if compareFloat(x, y) > 0 {
					c.floats[dst] = y
				}
			case FoldMax:
				if compareFloat(x, y) < 0 {
					c.floats[dst] = y
				}
			default:
				return false
			}
			return true
		}
	}
	v, ok := FoldValues(f, c.Value(dst), s.Value(j))
	if ok {
		c.set(dst, v)
	}
	return ok
}

// alike reports whether typed reads of s can stand in for c's lane.
func alike(c, s *Column) bool { return c.typed() && s.typed() && c.kind == s.kind }

// Truncate drops rows n and beyond.
func (b *DeltaBatch) Truncate(n int) {
	if n >= b.n {
		return
	}
	b.n = n
	b.ops = b.ops[:n]
	for k := range b.cols {
		b.cols[k].truncate(n)
	}
	for k := range b.old {
		b.old[k].truncate(n)
	}
}

// DropRows removes every row i with dead[i] set, keeping the order of the
// survivors. len(dead) must equal Len.
func (b *DeltaBatch) DropRows(dead []bool) {
	w := 0
	for r := 0; r < b.n; r++ {
		if dead[r] {
			continue
		}
		if w != r {
			b.ops[w] = b.ops[r]
			for k := range b.cols {
				b.cols[k].copyWithin(w, r)
			}
			for k := range b.old {
				b.old[k].copyWithin(w, r)
			}
		}
		w++
	}
	b.Truncate(w)
}

// LaneFold δ-merges the rows of a selection of src into a builder-owned
// batch b a row at a time, straight on typed lanes, for a caller that
// keeps its own key index over b (cluster.DeltaStore). Plan decides once
// per selection whether the lanes allow it; then, for rows of that
// selection, Key and KeyAt read the int key lane for a probe, Merge folds
// a row into a matched one, and Append copies a row lane to lane. Each
// answers what the row primitives above (ColsEqualFrom, CanFoldFrom,
// FoldFrom, AppendRowFrom) answer for the same rows, without their
// per-row, per-column decisions.
type LaneFold struct {
	b     *DeltaBatch
	key   int
	eq    []laneCol // undeclared non-key columns: equal, or no merge
	folds []laneCol // declared columns
}

// laneCol is one non-key column's part in a merge: its lane kind and its
// declared fold.
type laneCol struct {
	c    int
	kind Kind
	f    Fold
}

// Plan prepares f to fold rows sel of src into b, keyed by column key,
// with folds[c] declared per column (missing: FoldNone). It reports false
// when the lanes do not allow it: a selected row that is not δ(); b with
// an old-image group, or non-empty with another arity; a column of src
// or of b that holds a NULL or is not a typed lane of one kind alike
// between the two (an empty b may have untyped lanes yet); a key lane
// that is not int; a fold declared on a lane that is neither int nor
// float.
func (f *LaneFold) Plan(b, src *DeltaBatch, sel []int32, key int, folds []Fold) bool {
	if b.old != nil || b.n > 0 && len(b.cols) != len(src.cols) || key >= len(src.cols) {
		return false
	}
	for _, i := range sel {
		if src.ops[i] != byte(OpUpdate) {
			return false
		}
	}
	f.b, f.key, f.eq, f.folds = b, key, f.eq[:0], f.folds[:0]
	for c := range src.cols {
		s := &src.cols[c]
		if s.HasNulls() || !s.typed() {
			return false
		}
		if c < len(b.cols) {
			x := &b.cols[c]
			if x.anys != nil || x.HasNulls() || x.kind != s.kind && !(b.n == 0 && x.kind == KindNull) {
				return false
			}
		}
		fold := FoldNone
		if c < len(folds) {
			fold = folds[c]
		}
		switch l := (laneCol{c: c, kind: s.kind, f: fold}); {
		case c == key:
			if s.kind != KindInt {
				return false
			}
		case fold == FoldNone:
			f.eq = append(f.eq, l)
		case s.kind == KindInt || s.kind == KindFloat:
			f.folds = append(f.folds, l)
		default:
			return false
		}
	}
	return true
}

// Key returns the key of row j of src.
func (f *LaneFold) Key(src *DeltaBatch, j int) int64 { return src.cols[f.key].ints[j] }

// KeyAt returns the key of row r of b.
func (f *LaneFold) KeyAt(r int) int64 { return f.b.cols[f.key].ints[r] }

// Merge δ-merges row j of src into row r of b, both keyed alike: declared
// columns fold (sum, min, max; floats ordered as compareFloat orders
// them), and every other non-key column must already be equal. It
// reports false, changing nothing, when one is not.
func (f *LaneFold) Merge(r int, src *DeltaBatch, j int) bool {
	b := f.b
	for _, l := range f.eq {
		x, y := &b.cols[l.c], &src.cols[l.c]
		var eq bool
		switch l.kind {
		case KindInt:
			eq = x.ints[r] == y.ints[j]
		case KindFloat:
			eq = x.floats[r] == y.floats[j]
		case KindString:
			eq = x.strs[r] == y.strs[j]
		case KindBool:
			eq = x.bools[r] == y.bools[j]
		}
		if !eq {
			return false
		}
	}
	for _, l := range f.folds {
		x, y := &b.cols[l.c], &src.cols[l.c]
		if l.kind == KindInt {
			switch v := y.ints[j]; l.f {
			case FoldSum:
				x.ints[r] += v
			case FoldMin:
				x.ints[r] = min(x.ints[r], v)
			case FoldMax:
				x.ints[r] = max(x.ints[r], v)
			}
			continue
		}
		switch v := y.floats[j]; l.f {
		case FoldSum:
			x.floats[r] += v
		case FoldMin:
			if compareFloat(x.floats[r], v) > 0 {
				x.floats[r] = v
			}
		case FoldMax:
			if compareFloat(x.floats[r], v) < 0 {
				x.floats[r] = v
			}
		}
	}
	return true
}

// Append appends row j of src to b, lane to lane. The first row of an
// empty b goes through AppendRowFrom, which gives b src's lanes.
func (f *LaneFold) Append(src *DeltaBatch, j int) {
	b := f.b
	if b.n == 0 {
		b.AppendRowFrom(src, j)
		return
	}
	b.ops = append(b.ops, byte(OpUpdate))
	for c := range b.cols {
		x, y := &b.cols[c], &src.cols[c]
		switch x.kind {
		case KindInt:
			x.ints = append(x.ints, y.ints[j])
		case KindFloat:
			x.floats = append(x.floats, y.floats[j])
		case KindString:
			x.strs = append(x.strs, y.strs[j])
		case KindBool:
			x.bools = append(x.bools, y.bools[j])
		}
		x.n++
	}
	b.n++
}
