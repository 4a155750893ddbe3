// Expression kernels: a bound expression evaluated a whole DeltaBatch at
// a time. Compile turns it into a tree of typed vector evaluators that
// process the batch column-wise — typed loops over int64/float64 vectors
// with validity-bitmap handling — instead of interpreting the tree per row
// over boxed scratch tuples.
//
// The row interpreter (Expr.Eval) stays the ground truth, and a kernel is
// total: it never computes a different answer and never hands a batch
// back. An expression the compiler does not handle (a UDF call, float
// modulo, non-numeric arithmetic) gets an interpreter root, which runs
// Expr.Eval — EvalBool for a predicate — on each requested row and
// memoizes deterministic calls by their argument values. When a compiled
// tree meets a batch its typed loops cannot reproduce exactly — a
// mixed-kind (boxed-any) column, a column whose runtime kind drifted from
// its declared kind, a row the interpreter would reject (NULL arithmetic,
// integer division by zero, non-boolean logic operand), an unbound
// parameter — it declines, and the kernel interprets the same rows of the
// same image instead: the interpreter's values, or its exact error on the
// first row it rejects, as a RowError. Declining is therefore only ever a
// performance event, which Declined reports to the operator's counters.
package expr

import (
	"math"
	"slices"

	"github.com/rex-data/rex/internal/types"
)

// Kernel evaluates one bound expression over batches. A kernel is owned
// by a single operator instance on one worker goroutine: its scratch
// vectors are reused across batches without locking, and results are
// valid only until the next Eval* call.
type Kernel struct {
	e    Expr  // what the interpreter runs: the expression, deterministic calls memoized
	root knode // the compiled tree; nil interprets every batch
	k    types.Kind

	vecs []*types.Vec // scratch vector pool, reset per Eval* call
	used int
	all  []int32 // dense identity selection cache

	// kc is the current Eval* call's context, kept here so it does not
	// escape to the heap through the node interface on every call.
	kc kctx

	tup      types.Tuple   // the interpreter's row
	vals     []types.Value // the interpreter's results, by row
	declined bool
}

// RowError is the error of an Eval* call: the interpreter's error on Row,
// the first of the requested rows, in order, it rejects. Its text is the
// interpreter's, and it unwraps to the interpreter's error.
type RowError struct {
	Row int32
	Err error
}

func (e *RowError) Error() string { return e.Err.Error() }
func (e *RowError) Unwrap() error { return e.Err }

// begin sets up an Eval* call's context and scratch.
func (k *Kernel) begin(b *types.DeltaBatch, old bool) *kctx {
	k.kc = kctx{b: b, old: old, n: b.Len(), kern: k}
	k.used = 0
	return &k.kc
}

// Compile builds e's kernel against the input schema (column kinds; nil
// when the plan did not record one — column declarations are trusted
// then). It never fails: ok reports whether e compiled to typed loops.
// When it did not (a UDF call, a non-numeric arithmetic operand, float
// modulo) the kernel has an interpreter root, as Interpret builds.
func Compile(e Expr, schema []types.Kind) (*Kernel, bool) {
	k := Interpret(e)
	root, ok := compileNode(e, schema)
	if ok {
		k.root = root
	}
	return k, ok
}

// Interpret builds an interpreter-only kernel: every batch runs through
// Expr.Eval row by row, the reference compiled kernels are held to.
func Interpret(e Expr) *Kernel {
	return &Kernel{e: memoize(e), k: e.Kind()}
}

// Kind reports the expression's static result kind.
func (k *Kernel) Kind() types.Kind { return k.k }

// Declined reports whether the compiled tree declined a batch — which the
// kernel then interpreted — since the last call, and clears the report.
func (k *Kernel) Declined() bool {
	d := k.declined
	k.declined = false
	return d
}

// Verdicts evaluates a predicate kernel over the selected rows of b (new
// images, or old images of replace rows when old is true), writing each
// row's verdict into out (indexed by absolute row number, which must
// cover b.Len()). Like EvalBool, predicates are strict: a NULL or
// non-boolean result is the interpreter's error.
func (k *Kernel) Verdicts(b *types.DeltaBatch, old bool, rows []int32, out []bool) error {
	if v := k.verdicts(b, old, rows); v != nil {
		for _, i := range rows {
			out[i] = v.Bools[i]
		}
		return nil
	}
	return k.interpretBools(b, old, rows, out)
}

// EvalBools is Verdicts through the compiled tree alone: it reports false,
// leaving out undefined, when there is no tree or it declines the batch,
// and interprets nothing. It is kept for benchmark/layers.go, which times
// the compiled path with it and must see a batch it would not take.
func (k *Kernel) EvalBools(b *types.DeltaBatch, old bool, rows []int32, out []bool) bool {
	v := k.verdicts(b, old, rows)
	if v == nil {
		return false
	}
	for _, i := range rows {
		out[i] = v.Bools[i]
	}
	return true
}

// Select evaluates a predicate kernel over the selected rows of b's new
// images and appends the rows whose verdict is true to dst, in order;
// dst's prefix is left as it was, also on error. A compare of a numeric
// column with a literal or parameter writes the selection straight from
// its typed loop (selectConst); any other predicate computes its verdicts
// and compacts them, both without a branch per row.
func (k *Kernel) Select(b *types.DeltaBatch, rows []int32, dst []int32) ([]int32, error) {
	if n, ok := k.root.(*cmpNode); ok {
		if x, s, left := n.scalarSide(); s != nil {
			out, ok := n.selectScalar(k.begin(b, false), rows, x, s, left, dst)
			k.kc.b = nil
			if ok {
				return out, nil
			}
			k.declined = true
			return k.selectInterpreted(b, rows, dst)
		}
	}
	if v := k.verdicts(b, false, rows); v != nil {
		return appendWhere(dst, rows, v.Bools, true), nil
	}
	return k.selectInterpreted(b, rows, dst)
}

// selectInterpreted is Select through the interpreter.
func (k *Kernel) selectInterpreted(b *types.DeltaBatch, rows []int32, dst []int32) ([]int32, error) {
	k.used = 0
	v := k.getVec()
	v.Reset(types.KindBool, b.Len())
	if err := k.interpretBools(b, false, rows, v.Bools); err != nil {
		return dst, err
	}
	return appendWhere(dst, rows, v.Bools, true), nil
}

// appendWhere appends the rows whose verdict equals want to dst: each row
// is written and the length advances by the verdict, so the loop carries
// no branch a verdict could mispredict.
func appendWhere(dst, rows []int32, vb []bool, want bool) []int32 {
	n := len(dst)
	dst = slices.Grow(dst, len(rows))
	out := dst[n : n+len(rows)]
	m := 0
	for _, i := range rows {
		out[m] = i
		m += b2i(vb[i] == want)
	}
	return dst[:n+m]
}

// b2i compiles to a flag-to-register move, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// verdicts runs the compiled tree as a predicate. It returns nil when
// there is no tree or it declined, a NULL or non-boolean verdict
// included.
func (k *Kernel) verdicts(b *types.DeltaBatch, old bool, rows []int32) *types.Vec {
	if k.root == nil {
		return nil
	}
	if k.k == types.KindBool {
		if v := k.run(b, old, rows); v != nil && v.K == types.KindBool && !hasNullAt(v, rows) {
			return v
		}
	}
	k.declined = true
	return nil
}

// run evaluates the compiled tree. It returns nil when there is no tree
// or it declined — recording the decline — leaving the scratch vectors
// to the interpreter.
func (k *Kernel) run(b *types.DeltaBatch, old bool, rows []int32) *types.Vec {
	k.used = 0
	if k.root == nil {
		return nil
	}
	v, ok := k.root.eval(k.begin(b, old), rows)
	k.kc.b = nil
	if !ok {
		k.declined, k.used = true, 0
		return nil
	}
	return v
}

// EvalVec evaluates the kernel over the selected rows of b and returns its
// result vector, indexed by absolute row number. The vector is borrowed:
// it belongs to the kernel (or aliases a column of b) and is valid only
// until the kernel's next Eval* call.
func (k *Kernel) EvalVec(b *types.DeltaBatch, old bool, rows []int32) (*types.Vec, error) {
	if v := k.run(b, old, rows); v != nil {
		return v, nil
	}
	v := k.getVec()
	return v, k.interpret(b, old, rows, v)
}

// EvalInto evaluates a projection kernel over the selected rows of b
// into dst (indexed by absolute row number). dst is caller-owned, so two
// passes of one kernel (new images, then old images) can coexist.
func (k *Kernel) EvalInto(b *types.DeltaBatch, old bool, rows []int32, dst *types.Vec) error {
	v := k.run(b, old, rows)
	if v == nil {
		return k.interpret(b, old, rows, dst)
	}
	dst.Reset(v.K, b.Len())
	for _, i := range rows {
		dst.CopyRow(v, int(i))
	}
	return nil
}

// interpret evaluates the selected rows of one image with Expr.Eval into
// dst, stopping at the first error.
func (k *Kernel) interpret(b *types.DeltaBatch, old bool, rows []int32, dst *types.Vec) error {
	if n := b.Len(); cap(k.vals) < n {
		k.vals = make([]types.Value, n)
	} else {
		k.vals = k.vals[:n]
		clear(k.vals)
	}
	for _, i := range rows {
		v, err := k.e.Eval(k.row(b, old, i))
		if err != nil {
			return &RowError{Row: i, Err: err}
		}
		k.vals[i] = v
	}
	dst.SetValues(k.vals)
	return nil
}

// interpretBools evaluates the selected rows of one image with EvalBool
// into out, stopping at the first error.
func (k *Kernel) interpretBools(b *types.DeltaBatch, old bool, rows []int32, out []bool) error {
	for _, i := range rows {
		v, err := EvalBool(k.e, k.row(b, old, i))
		if err != nil {
			return &RowError{Row: i, Err: err}
		}
		out[i] = v
	}
	return nil
}

// row reads row i's new or old image into the interpreter's scratch
// tuple. A batch without old images gives an empty old image.
func (k *Kernel) row(b *types.DeltaBatch, old bool, i int32) types.Tuple {
	if old {
		k.tup = b.OldRow(int(i), k.tup)
	} else {
		k.tup = b.Row(int(i), k.tup)
	}
	return k.tup
}

// AllRows returns the dense identity selection [0, n) — the "evaluate
// the whole batch" selection vector, cached on the kernel.
func (k *Kernel) AllRows(n int) []int32 {
	if cap(k.all) < n {
		k.all = make([]int32, n)
		for i := range k.all {
			k.all[i] = int32(i)
		}
	}
	if len(k.all) < n {
		for i := len(k.all); i < n; i++ {
			k.all = append(k.all, int32(i))
		}
	}
	return k.all[:n]
}

// kctx is one Eval* call's context: the batch, which image group to
// read, the row count (vectors are sized to cover it), and the owning
// kernel (for scratch).
type kctx struct {
	b    *types.DeltaBatch
	old  bool
	n    int
	kern *Kernel
}

// knode is one compiled node. eval computes the node over the selected
// rows (absolute indexes into kc.b) and returns a vector indexed the
// same way. ok=false declines the whole batch, which the kernel then
// interprets — the decline in the package comment.
type knode interface {
	eval(kc *kctx, rows []int32) (*types.Vec, bool)
}

func (k *Kernel) getVec() *types.Vec {
	if k.used == len(k.vecs) {
		k.vecs = append(k.vecs, new(types.Vec))
	}
	v := k.vecs[k.used]
	k.used++
	return v
}

func compileNode(e Expr, schema []types.Kind) (knode, bool) {
	switch v := e.(type) {
	case *Col:
		if v.Idx < 0 {
			return nil, false
		}
		if schema != nil && v.Idx >= len(schema) {
			return nil, false
		}
		return &colNode{idx: v.Idx, k: v.K}, true
	case *Const:
		return &scalarNode{v: v.V}, true
	case *Param:
		return &paramNode{p: v}, true
	case *Arith:
		// Float modulo always errors in the row path; a statically
		// non-numeric operand would lean on AsInt/AsFloat string/bool
		// coercion, which the typed loops do not reproduce.
		if v.Kind() == types.KindFloat && v.Op == OpMod {
			return nil, false
		}
		if !numericKind(v.L.Kind()) || !numericKind(v.R.Kind()) {
			return nil, false
		}
		l, ok := compileNode(v.L, schema)
		if !ok {
			return nil, false
		}
		r, ok := compileNode(v.R, schema)
		if !ok {
			return nil, false
		}
		return &arithNode{op: v.Op, l: l, r: r, k: v.Kind()}, true
	case *Cmp:
		l, ok := compileNode(v.L, schema)
		if !ok {
			return nil, false
		}
		r, ok := compileNode(v.R, schema)
		if !ok {
			return nil, false
		}
		return &cmpNode{op: v.Op, l: l, r: r}, true
	case *Logic:
		l, ok := compileNode(v.L, schema)
		if !ok {
			return nil, false
		}
		r, ok := compileNode(v.R, schema)
		if !ok {
			return nil, false
		}
		return &logicNode{op: v.Op, l: l, r: r}, true
	case *Not:
		c, ok := compileNode(v.E, schema)
		if !ok {
			return nil, false
		}
		return &notNode{e: c}, true
	default:
		// *Call (UDFs run through boxed values by design) and anything
		// this compiler does not know.
		return nil, false
	}
}

func numericKind(k types.Kind) bool {
	return k == types.KindInt || k == types.KindFloat
}

// colNode reads one column of the batch as a borrowed typed vector.
type colNode struct {
	idx int
	k   types.Kind
}

func (n *colNode) eval(kc *kctx, rows []int32) (*types.Vec, bool) {
	var c *types.Column
	if kc.old {
		if n.idx >= kc.b.NumOldCols() {
			return nil, false
		}
		c = kc.b.OldCol(n.idx)
	} else {
		if n.idx >= kc.b.NumCols() {
			return nil, false
		}
		c = kc.b.Col(n.idx)
	}
	v := kc.kern.getVec()
	if v.BorrowColumn(c) {
		if n.k != types.KindNull && v.K != n.k {
			// Runtime kind drifted from the declared kind; the row
			// interpreter knows the coercion rules.
			return nil, false
		}
		return v, true
	}
	if c.Mixed() {
		return nil, false // boxed-any column: documented fallback
	}
	// Empty-kinded column: every row reads as NULL.
	v.Reset(n.k, kc.n)
	for _, i := range rows {
		v.SetNull(int(i))
	}
	return v, true
}

// scalarNode broadcasts a literal over the selection.
type scalarNode struct {
	v types.Value
}

func (n *scalarNode) eval(kc *kctx, rows []int32) (*types.Vec, bool) {
	return splat(kc, rows, n.v)
}

func (n *scalarNode) value() (types.Value, bool) { return n.v, true }

// paramNode broadcasts a bound parameter value. The value is read once
// per batch — the per-row resolution of the interpreter collapses to one
// splat, since parameters cannot change mid-batch.
type paramNode struct {
	p *Param
}

func (n *paramNode) eval(kc *kctx, rows []int32) (*types.Vec, bool) {
	v, ok := n.value()
	if !ok {
		return nil, false
	}
	return splat(kc, rows, v)
}

// value reads the bound value; an unbound parameter declines, so the row
// path raises the real error.
func (n *paramNode) value() (types.Value, bool) {
	if n.p.Set == nil || n.p.Idx < 0 || n.p.Idx >= len(n.p.Set.Values) {
		return nil, false
	}
	return n.p.Set.Values[n.p.Idx], true
}

// scalar is a node whose value is one constant for the whole batch: a
// literal or a parameter. value reports false when it has none.
type scalar interface {
	value() (types.Value, bool)
}

func splat(kc *kctx, rows []int32, val types.Value) (*types.Vec, bool) {
	v := kc.kern.getVec()
	switch x := val.(type) {
	case int64:
		v.Reset(types.KindInt, kc.n)
		for _, i := range rows {
			v.Ints[i] = x
		}
	case float64:
		v.Reset(types.KindFloat, kc.n)
		for _, i := range rows {
			v.Floats[i] = x
		}
	case string:
		v.Reset(types.KindString, kc.n)
		for _, i := range rows {
			v.Strs[i] = x
		}
	case bool:
		v.Reset(types.KindBool, kc.n)
		for _, i := range rows {
			v.Bools[i] = x
		}
	case nil:
		v.Reset(types.KindNull, kc.n)
		for _, i := range rows {
			v.SetNull(int(i))
		}
	default:
		return nil, false
	}
	return v, true
}

// hasNullAt reports whether any selected row is NULL (bitmap scan first,
// so all-valid vectors cost one slice-length check).
func hasNullAt(v *types.Vec, rows []int32) bool {
	if !v.AnyNull() {
		return false
	}
	for _, i := range rows {
		if v.Null(int(i)) {
			return true
		}
	}
	return false
}

// asFloats returns a float64 view of a numeric vector over the selected
// rows, converting int64 through kernel scratch exactly as AsFloat does.
// Validity must be checked against the original vector.
func asFloats(kc *kctx, v *types.Vec, rows []int32) ([]float64, bool) {
	switch v.K {
	case types.KindFloat:
		return v.Floats, true
	case types.KindInt:
		t := kc.kern.getVec()
		t.Reset(types.KindFloat, kc.n)
		src := v.Ints
		for _, i := range rows {
			t.Floats[i] = float64(src[i])
		}
		return t.Floats, true
	}
	return nil, false
}

// asBools returns a bool view of a logic operand over the selected rows.
// AsBool accepts bool and int64 (non-zero = true); anything else — and
// any NULL row — errors in the interpreter, so the caller declines.
func asBools(kc *kctx, v *types.Vec, rows []int32) ([]bool, bool) {
	if hasNullAt(v, rows) {
		return nil, false
	}
	switch v.K {
	case types.KindBool:
		return v.Bools, true
	case types.KindInt:
		t := kc.kern.getVec()
		t.Reset(types.KindBool, kc.n)
		src := v.Ints
		for _, i := range rows {
			t.Bools[i] = src[i] != 0
		}
		return t.Bools, true
	}
	return nil, false
}

// arithNode is +,-,*,/,% with the interpreter's mode rule baked in at
// compile time: float mode when either side is statically Float, else
// int mode. Any condition the interpreter would reject — a NULL operand,
// integer division or modulo by zero, an operand vector of the wrong
// kind — declines the batch.
type arithNode struct {
	op   ArithOp
	l, r knode
	k    types.Kind
}

func (n *arithNode) eval(kc *kctx, rows []int32) (*types.Vec, bool) {
	lv, ok := n.l.eval(kc, rows)
	if !ok {
		return nil, false
	}
	rv, ok := n.r.eval(kc, rows)
	if !ok {
		return nil, false
	}
	if hasNullAt(lv, rows) || hasNullAt(rv, rows) {
		return nil, false // "non-numeric operand" in the row path
	}
	out := kc.kern.getVec()
	if n.k == types.KindFloat {
		lf, ok := asFloats(kc, lv, rows)
		if !ok {
			return nil, false
		}
		rf, ok := asFloats(kc, rv, rows)
		if !ok {
			return nil, false
		}
		out.Reset(types.KindFloat, kc.n)
		o := out.Floats
		switch n.op {
		case OpAdd:
			for _, i := range rows {
				o[i] = lf[i] + rf[i]
			}
		case OpSub:
			for _, i := range rows {
				o[i] = lf[i] - rf[i]
			}
		case OpMul:
			for _, i := range rows {
				o[i] = lf[i] * rf[i]
			}
		case OpDiv:
			for _, i := range rows {
				o[i] = lf[i] / rf[i]
			}
		default:
			return nil, false // OpMod rejected at compile time
		}
		return out, true
	}
	if lv.K != types.KindInt || rv.K != types.KindInt {
		return nil, false
	}
	li, ri := lv.Ints, rv.Ints
	out.Reset(types.KindInt, kc.n)
	o := out.Ints
	switch n.op {
	case OpAdd:
		for _, i := range rows {
			o[i] = li[i] + ri[i]
		}
	case OpSub:
		for _, i := range rows {
			o[i] = li[i] - ri[i]
		}
	case OpMul:
		for _, i := range rows {
			o[i] = li[i] * ri[i]
		}
	case OpDiv:
		for _, i := range rows {
			if ri[i] == 0 {
				return nil, false // "integer division by zero"
			}
			o[i] = li[i] / ri[i]
		}
	case OpMod:
		for _, i := range rows {
			if ri[i] == 0 {
				return nil, false // "modulo by zero"
			}
			o[i] = li[i] % ri[i]
		}
	default:
		return nil, false
	}
	return out, true
}

// cmpNode yields Bool per row with ValueEq/ValueCompare semantics:
// NULL-tolerant (nil equals only nil and sorts before everything),
// mixed numeric kinds compare as floats, NaN sorts before non-NaN.
// Kind combinations outside the typed fast paths run a boxed generic
// loop — still exact, just slower — rather than declining. A side that
// is a literal or a parameter is read once, not broadcast (cmpConst).
type cmpNode struct {
	op   CmpOp
	l, r knode
}

func (n *cmpNode) eval(kc *kctx, rows []int32) (*types.Vec, bool) {
	if x, s, left := n.scalarSide(); s != nil {
		xv, c, ok := scalarOperands(kc, rows, x, s)
		if !ok {
			return nil, false
		}
		return n.cmpScalar(kc, rows, xv, c, left)
	}
	lv, ok := n.l.eval(kc, rows)
	if !ok {
		return nil, false
	}
	rv, ok := n.r.eval(kc, rows)
	if !ok {
		return nil, false
	}
	return n.cmpVecs(kc, rows, lv, rv), true
}

// scalarSide splits a compare with a literal or parameter side into the
// other operand x and the scalar s, which is on the left when left is
// set. s is nil when neither side is one.
func (n *cmpNode) scalarSide() (x knode, s scalar, left bool) {
	if s, ok := n.r.(scalar); ok {
		return n.l, s, false
	}
	if s, ok := n.l.(scalar); ok {
		return n.r, s, true
	}
	return nil, nil, false
}

// scalarOperands evaluates x and reads the scalar's value.
func scalarOperands(kc *kctx, rows []int32, x knode, s scalar) (*types.Vec, types.Value, bool) {
	xv, ok := x.eval(kc, rows)
	if !ok {
		return nil, nil, false
	}
	c, ok := s.value()
	if !ok {
		return nil, nil, false
	}
	return xv, c, true
}

// cmpScalar compares xv with the constant c (on the left when left is
// set): one typed loop when cmpConst takes the pair, else the constant is
// broadcast and the general loops decide.
func (n *cmpNode) cmpScalar(kc *kctx, rows []int32, xv *types.Vec, c types.Value, left bool) (*types.Vec, bool) {
	op := n.op
	if left {
		op = op.flip()
	}
	if out := cmpConst(kc, rows, op, xv, c); out != nil {
		return out, true
	}
	cv, ok := splat(kc, rows, c)
	if !ok {
		return nil, false
	}
	if left {
		return n.cmpVecs(kc, rows, cv, xv), true
	}
	return n.cmpVecs(kc, rows, xv, cv), true
}

// selectScalar appends to dst the selected rows where x compares true
// with s: straight from selectConst's loop when it takes the pair, else
// by compacting cmpScalar's verdicts.
func (n *cmpNode) selectScalar(kc *kctx, rows []int32, x knode, s scalar, left bool, dst []int32) ([]int32, bool) {
	xv, c, ok := scalarOperands(kc, rows, x, s)
	if !ok {
		return dst, false
	}
	op := n.op
	if left {
		op = op.flip()
	}
	if out, ok := selectConst(rows, op, xv, c, dst); ok {
		return out, true
	}
	v, ok := n.cmpScalar(kc, rows, xv, c, left)
	if !ok {
		return dst, false
	}
	return appendWhere(dst, rows, v.Bools, true), true
}

// flip mirrors the operator for swapped operands: c op x is x op.flip() c.
// ValueCompare is antisymmetric, NaN included.
func (o CmpOp) flip() CmpOp {
	switch o {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return o
}

// cmpConst compares a numeric vector with a numeric constant in one typed
// loop, the operator chosen outside it: int against int, float against
// float, an int vector against a float constant through AsFloat, a float
// vector against an int constant converted once. It returns nil, leaving
// the pair to the general loops, for a NULL among the rows, any other
// kind and a NaN constant. It writes a verdict per row, for EvalBools and
// projections; Select takes the same pairs through selectConst, which
// writes the selection instead.
func cmpConst(kc *kctx, rows []int32, op CmpOp, xv *types.Vec, c types.Value) *types.Vec {
	if xv.Anys != nil || hasNullAt(xv, rows) {
		return nil
	}
	var cf float64
	switch c := c.(type) {
	case int64:
		if xv.K == types.KindInt {
			out := kc.kern.getVec()
			out.Reset(types.KindBool, kc.n)
			cmpConstLoop(op, rows, xv.Ints, c, out.Bools)
			return out
		}
		cf = float64(c)
	case float64:
		if math.IsNaN(c) {
			return nil
		}
		cf = c
	default:
		return nil
	}
	xf, ok := asFloats(kc, xv, rows)
	if !ok {
		return nil
	}
	out := kc.kern.getVec()
	out.Reset(types.KindBool, kc.n)
	cmpConstLoop(op, rows, xf, cf, out.Bools)
	return out
}

// cmpConstLoop writes x op c for the selected rows, c not NaN. A NaN x
// sorts below every number (floatCmp), so it is < and <= c and unequal
// to it; x != x is false for every int.
func cmpConstLoop[T int64 | float64](op CmpOp, rows []int32, xs []T, c T, ob []bool) {
	switch op {
	case OpEq:
		for _, i := range rows {
			ob[i] = xs[i] == c
		}
	case OpNe:
		for _, i := range rows {
			ob[i] = xs[i] != c
		}
	case OpLt:
		for _, i := range rows {
			x := xs[i]
			ob[i] = x < c || x != x
		}
	case OpLe:
		for _, i := range rows {
			x := xs[i]
			ob[i] = x <= c || x != x
		}
	case OpGt:
		for _, i := range rows {
			ob[i] = xs[i] > c
		}
	case OpGe:
		for _, i := range rows {
			ob[i] = xs[i] >= c
		}
	}
}

// selectConst appends to dst the selected rows where x op c holds, in
// one typed loop per operator with no branch per row. It takes exactly
// the pairs cmpConst takes — an int vector against a float constant is
// converted per row, as AsFloat does — and returns false, dst untouched,
// for the rest.
func selectConst(rows []int32, op CmpOp, xv *types.Vec, c types.Value, dst []int32) ([]int32, bool) {
	if xv.Anys != nil || hasNullAt(xv, rows) {
		return dst, false
	}
	xk := xv.K
	if xk != types.KindInt && xk != types.KindFloat {
		return dst, false
	}
	ci, isInt := c.(int64)
	cf, isFloat := c.(float64)
	if !isInt && !isFloat || isFloat && math.IsNaN(cf) {
		return dst, false
	}
	n := len(dst)
	dst = slices.Grow(dst, len(rows))
	out := dst[n : n+len(rows)]
	var m int
	switch {
	case isInt && xk == types.KindInt:
		m = selectConstLoop(op, rows, xv.Ints, ci, out)
	case isInt:
		m = selectConstLoop(op, rows, xv.Floats, float64(ci), out)
	case xk == types.KindInt:
		m = selectConstLoop(op, rows, xv.Ints, cf, out)
	default:
		m = selectConstLoop(op, rows, xv.Floats, cf, out)
	}
	return dst[:n+m], true
}

// selectConstLoop writes each selected row into out and advances past it
// when C(x) op c holds, c not NaN, returning the count kept. A NaN x
// sorts below every number (floatCmp): < and <= are written as the
// negated >= and >, which hold for it; it is unequal to c.
func selectConstLoop[X, C int64 | float64](op CmpOp, rows []int32, xs []X, c C, out []int32) int {
	m := 0
	switch op {
	case OpEq:
		for _, i := range rows {
			out[m] = i
			m += b2i(C(xs[i]) == c)
		}
	case OpNe:
		for _, i := range rows {
			out[m] = i
			m += b2i(C(xs[i]) != c)
		}
	case OpLt:
		for _, i := range rows {
			out[m] = i
			m += b2i(!(C(xs[i]) >= c))
		}
	case OpLe:
		for _, i := range rows {
			out[m] = i
			m += b2i(!(C(xs[i]) > c))
		}
	case OpGt:
		for _, i := range rows {
			out[m] = i
			m += b2i(C(xs[i]) > c)
		}
	case OpGe:
		for _, i := range rows {
			out[m] = i
			m += b2i(C(xs[i]) >= c)
		}
	}
	return m
}

// cmpVecs compares two evaluated vectors row by row.
func (n *cmpNode) cmpVecs(kc *kctx, rows []int32, lv, rv *types.Vec) *types.Vec {
	out := kc.kern.getVec()
	out.Reset(types.KindBool, kc.n)
	ob := out.Bools
	nulls := lv.AnyNull() || rv.AnyNull()

	// Promote mixed numeric sides to float: ValueCompare(int64, f) is
	// compareFloat(float64(i), f) and ValueEq converts through AsFloat,
	// so the promoted loops are bit-exact.
	flv, frv := lv, rv
	var lf, rf []float64
	if lv.K != rv.K && numericKind(lv.K) && numericKind(rv.K) {
		lf, _ = asFloats(kc, lv, rows)
		rf, _ = asFloats(kc, rv, rows)
	} else if lv.K == types.KindFloat && rv.K == types.KindFloat {
		lf, rf = lv.Floats, rv.Floats
	}

	switch {
	case lf != nil:
		n.evalFloats(rows, ob, flv, frv, lf, rf, nulls)
	case lv.K == types.KindInt && rv.K == types.KindInt:
		n.evalInts(rows, ob, lv, rv, nulls)
	case lv.K == types.KindString && rv.K == types.KindString:
		n.evalStrings(rows, ob, lv, rv, nulls)
	case lv.K == types.KindBool && rv.K == types.KindBool:
		n.evalBools(rows, ob, lv, rv, nulls)
	default:
		// Generic boxed loop: exact by construction (it IS ValueEq /
		// ValueCompare), covering odd kind pairs and all-NULL vectors.
		for _, i := range rows {
			a, b := lv.Value(int(i)), rv.Value(int(i))
			switch n.op {
			case OpEq:
				ob[i] = types.ValueEq(a, b)
			case OpNe:
				ob[i] = !types.ValueEq(a, b)
			default:
				ob[i] = cmpHolds(n.op, types.ValueCompare(a, b))
			}
		}
	}
	return out
}

// nullCmp mirrors ValueCompare's nil ordering: nil == nil, nil < any.
func nullCmp(ln, rn bool) int {
	switch {
	case ln && rn:
		return 0
	case ln:
		return -1
	default:
		return 1
	}
}

func cmpHolds(op CmpOp, c int) bool {
	switch op {
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default: // OpGe
		return c >= 0
	}
}

func floatCmp(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case math.IsNaN(a) && !math.IsNaN(b):
		return -1
	case !math.IsNaN(a) && math.IsNaN(b):
		return 1
	}
	return 0
}

func (n *cmpNode) evalInts(rows []int32, ob []bool, lv, rv *types.Vec, nulls bool) {
	li, ri := lv.Ints, rv.Ints
	eqOp := n.op == OpEq || n.op == OpNe
	neq := n.op == OpNe
	for _, i := range rows {
		if nulls {
			if ln, rn := lv.Null(int(i)), rv.Null(int(i)); ln || rn {
				if eqOp {
					ob[i] = (ln && rn) != neq
				} else {
					ob[i] = cmpHolds(n.op, nullCmp(ln, rn))
				}
				continue
			}
		}
		if eqOp {
			ob[i] = (li[i] == ri[i]) != neq
			continue
		}
		var c int
		switch {
		case li[i] < ri[i]:
			c = -1
		case li[i] > ri[i]:
			c = 1
		}
		ob[i] = cmpHolds(n.op, c)
	}
}

func (n *cmpNode) evalFloats(rows []int32, ob []bool, lv, rv *types.Vec, lf, rf []float64, nulls bool) {
	eqOp := n.op == OpEq || n.op == OpNe
	neq := n.op == OpNe
	for _, i := range rows {
		if nulls {
			if ln, rn := lv.Null(int(i)), rv.Null(int(i)); ln || rn {
				if eqOp {
					ob[i] = (ln && rn) != neq
				} else {
					ob[i] = cmpHolds(n.op, nullCmp(ln, rn))
				}
				continue
			}
		}
		if eqOp {
			ob[i] = (lf[i] == rf[i]) != neq
			continue
		}
		ob[i] = cmpHolds(n.op, floatCmp(lf[i], rf[i]))
	}
}

func (n *cmpNode) evalStrings(rows []int32, ob []bool, lv, rv *types.Vec, nulls bool) {
	ls, rs := lv.Strs, rv.Strs
	eqOp := n.op == OpEq || n.op == OpNe
	neq := n.op == OpNe
	for _, i := range rows {
		if nulls {
			if ln, rn := lv.Null(int(i)), rv.Null(int(i)); ln || rn {
				if eqOp {
					ob[i] = (ln && rn) != neq
				} else {
					ob[i] = cmpHolds(n.op, nullCmp(ln, rn))
				}
				continue
			}
		}
		if eqOp {
			ob[i] = (ls[i] == rs[i]) != neq
			continue
		}
		var c int
		switch {
		case ls[i] < rs[i]:
			c = -1
		case ls[i] > rs[i]:
			c = 1
		}
		ob[i] = cmpHolds(n.op, c)
	}
}

func (n *cmpNode) evalBools(rows []int32, ob []bool, lv, rv *types.Vec, nulls bool) {
	lb, rb := lv.Bools, rv.Bools
	eqOp := n.op == OpEq || n.op == OpNe
	neq := n.op == OpNe
	for _, i := range rows {
		if nulls {
			if ln, rn := lv.Null(int(i)), rv.Null(int(i)); ln || rn {
				if eqOp {
					ob[i] = (ln && rn) != neq
				} else {
					ob[i] = cmpHolds(n.op, nullCmp(ln, rn))
				}
				continue
			}
		}
		if eqOp {
			ob[i] = (lb[i] == rb[i]) != neq
			continue
		}
		var c int
		switch {
		case !lb[i] && rb[i]:
			c = -1
		case lb[i] && !rb[i]:
			c = 1
		}
		ob[i] = cmpHolds(n.op, c)
	}
}

// logicNode is AND/OR with the interpreter's per-row short-circuit
// preserved through sub-selections: the right side is evaluated only
// over rows the left side did not decide, so a row-path expression like
// `x <> 0 AND 10/x > 1` never trips the division guard on rows the
// interpreter would have short-circuited past.
type logicNode struct {
	op   LogicOp
	l, r knode
	sub  []int32
}

func (n *logicNode) eval(kc *kctx, rows []int32) (*types.Vec, bool) {
	lv, ok := n.l.eval(kc, rows)
	if !ok {
		return nil, false
	}
	lb, ok := asBools(kc, lv, rows)
	if !ok {
		return nil, false // "non-boolean operand" in the row path
	}
	out := kc.kern.getVec()
	out.Reset(types.KindBool, kc.n)
	ob := out.Bools
	// The left side decides every row to false (AND) or true (OR) but
	// the ones in sub, whose verdicts the right side then overwrites.
	and := n.op == OpAnd
	for _, i := range rows {
		ob[i] = !and
	}
	n.sub = appendWhere(n.sub[:0], rows, lb, and)
	if len(n.sub) > 0 {
		rv, ok := n.r.eval(kc, n.sub)
		if !ok {
			return nil, false
		}
		rb, ok := asBools(kc, rv, n.sub)
		if !ok {
			return nil, false
		}
		for _, i := range n.sub {
			ob[i] = rb[i]
		}
	}
	return out, true
}

// notNode negates a bool-coercible operand; NULL or a non-boolean kind
// errors in the interpreter, so it declines here.
type notNode struct {
	e knode
}

func (n *notNode) eval(kc *kctx, rows []int32) (*types.Vec, bool) {
	v, ok := n.e.eval(kc, rows)
	if !ok {
		return nil, false
	}
	nb, ok := asBools(kc, v, rows)
	if !ok {
		return nil, false
	}
	out := kc.kern.getVec()
	out.Reset(types.KindBool, kc.n)
	for _, i := range rows {
		out.Bools[i] = !nb[i]
	}
	return out, true
}
