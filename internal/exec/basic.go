package exec

import (
	"fmt"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
)

// scanOp streams this node's primary partition of a base table, then emits
// a closed punctuation: base data never changes during a query, so scans
// participate only in stratum 0.
type scanOp struct {
	ctx   *Context
	id    int
	table string
	keyEq expr.Expr // OpSpec.KeyEq
	outs  outputs
	batch int
}

// Start sends this node's share of the table downstream, then closes the
// edge: the rows under one partition key when the plan pushed an equality
// into the scan, otherwise the whole owned partition, as the chunks the
// store holds it in. The pushed expression is evaluated here, after the
// statement's parameters are bound. A value that cannot address the index
// (evaluation failed, or its kind is not the key column's, so equal values
// need not hash alike) falls back to the full scan; the plan's filter
// gives the same answer either way.
func (s *scanOp) Start() error {
	if err := s.read(); err != nil {
		return err
	}
	return s.outs.punct(0, true)
}

func (s *scanOp) read() error {
	if s.keyEq != nil {
		if v, err := s.keyEq.Eval(nil); err == nil && types.KindOf(v) == s.keyEq.Kind() {
			b := types.GetBatch()
			defer types.PutBatch(b)
			if err := s.ctx.Store.LookupOwned(s.table, types.HashValue(v), s.ctx.Snap, b); err != nil {
				return err
			}
			return s.outs.sendBatch(b)
		}
	}
	return s.ctx.Store.ScanBatches(s.table, s.ctx.Snap, s.outs.sendBatch)
}

// Inject feeds a base-table delta batch through this scan's edge during a
// standing query's ingestion round: the deltas enter the dataflow exactly
// where a fresh scan of the revised table would have emitted them, so every
// downstream operator revises resident state instead of recomputing. The
// round's punctuation is sent separately (punctRound) once every scan on
// the node has injected, preserving the data-before-punctuation discipline
// across tables.
func (s *scanOp) Inject(batch []types.Delta) error {
	for len(batch) > 0 {
		n := min(s.batch, len(batch))
		if err := s.outs.send(batch[:n]); err != nil {
			return err
		}
		batch = batch[n:]
	}
	return nil
}

// punctRound closes this scan's contribution to an ingestion round's base
// stratum. Closed is per-round: standing consumers reopen their trackers at
// every round start.
func (s *scanOp) punctRound(stratum int) error {
	return s.outs.punct(stratum, true)
}

func (s *scanOp) Push(int, *types.DeltaBatch) error { return fmt.Errorf("exec: scan has no inputs") }
func (s *scanOp) Punct(int, int, bool) error        { return fmt.Errorf("exec: scan has no inputs") }

// filterOp applies a predicate with proper delta semantics: a replacement
// whose old and new tuples fall on different sides of the predicate
// degrades into a bare insertion or deletion. When the predicate compiles
// to a column kernel, whole batches are evaluated with typed loops into a
// selection of survivors. A kernel filter whose only consumer is another
// kernel stage (next) hands that selection on over the same batch, so a
// chain of kernel filters ending in a kernel filter or project copies
// its rows once, at the last stage; otherwise the survivors are gathered
// into one batch. Batches with replace rows, batches the kernel declines
// and predicates that never compiled take the row paths below.
type filterOp struct {
	pred expr.Expr
	kern *expr.Kernel
	outs outputs
	next selStage // see link

	// kernel scratch: per-row verdicts over new and old images, the
	// replace-row selection and the survivor selection, reused across
	// batches.
	selNew  []bool
	selOld  []bool
	oldRows []int32
	sel     []int32
}

// selStage is a kernel stage that takes a batch with a selection of its
// rows, none of them a replace: the filter ahead of it hands its
// survivors on this way instead of copying them. pushSel evaluates only
// the selected rows. done=false declines, having emitted nothing; the
// caller then gathers the selection and calls Push, where the
// interpreter decides.
type selStage interface {
	Operator
	pushSel(b *types.DeltaBatch, sel []int32) (done bool, err error)
}

// link points f.next at f's consumer when the consumer is f's only one,
// on port 0, and a kernel filter or a kernel project. The worker calls it
// once its edges are wired.
func (f *filterOp) link() {
	f.next = nil
	if f.kern == nil || len(f.outs) != 1 || f.outs[0].port != 0 {
		return
	}
	switch c := f.outs[0].op.(type) {
	case *filterOp:
		if c.kern != nil {
			f.next = c
		}
	case *projectOp:
		if c.kerns != nil {
			f.next = c
		}
	}
}

// newFilterOp builds the operator and, with kernels on, compiles the
// predicate kernel when the expression shape allows it (schema may be nil
// when the plan did not record the input schema).
func newFilterOp(pred expr.Expr, schema []types.Kind, kernels bool) *filterOp {
	f := &filterOp{pred: pred}
	if !kernels {
		return f
	}
	if k, ok := expr.Compile(pred, schema); ok {
		f.kern = k
		kernelCompiled.Add(1)
	}
	return f
}

// Push filters a batch. With a compiled kernel the predicate runs
// column-wise over the whole batch (one pass for new images, one over the
// old images of replace rows); without one — or when the kernel declines
// the batch — rows go through the scratch-tuple interpreter below, which
// is the semantic ground truth.
func (f *filterOp) Push(port int, b *types.DeltaBatch) error {
	if b.Len() > 0 {
		if f.kern != nil {
			if done, err := f.pushKernel(b); done {
				return err
			}
			kernelFallbackEvals.Add(1)
		} else {
			kernelBridgedBatches.Add(1)
		}
	}
	return f.pushBridged(b)
}

// pushKernel evaluates the predicate kernel over the batch: a batch
// without replace rows goes through pushSel over all its rows; one with
// them is copied row by row, with scratch tuples only for degraded
// replaces. done=false declines to the bridged path without having
// emitted anything.
func (f *filterOp) pushKernel(b *types.DeltaBatch) (bool, error) {
	n := b.Len()
	f.oldRows = b.AppendReplaceRows(f.oldRows[:0])
	if len(f.oldRows) == 0 {
		return f.pushSel(b, f.kern.AllRows(n))
	}
	if !b.HasOld() {
		return false, nil // replaces without old images: the interpreter arbitrates
	}
	f.selNew = growBools(f.selNew, n)
	if !f.kern.EvalBools(b, false, f.kern.AllRows(n), f.selNew) {
		return false, nil
	}
	f.selOld = growBools(f.selOld, n)
	if !f.kern.EvalBools(b, true, f.oldRows, f.selOld) {
		return false, nil
	}
	kernelVectorBatches.Add(1)
	out := types.GetBatch()
	defer types.PutBatch(out)
	var scratch types.Tuple
	for i := 0; i < n; i++ {
		if b.Op(i) == types.OpReplace {
			oldOK, newOK := f.selOld[i], f.selNew[i]
			switch {
			case oldOK && newOK:
				if !out.CanAppendRowFrom(b, i) {
					if err := f.flushVec(out); err != nil {
						return true, err
					}
				}
				out.AppendRowFrom(b, i)
			case oldOK:
				scratch = b.OldRow(i, scratch)
				d := types.Delete(scratch)
				if !out.CanAppend(d) {
					if err := f.flushVec(out); err != nil {
						return true, err
					}
				}
				out.Append(d)
			case newOK:
				scratch = b.Row(i, scratch)
				d := types.Insert(scratch)
				if !out.CanAppend(d) {
					if err := f.flushVec(out); err != nil {
						return true, err
					}
				}
				out.Append(d)
			}
			continue
		}
		if f.selNew[i] {
			if !out.CanAppendRowFrom(b, i) {
				if err := f.flushVec(out); err != nil {
					return true, err
				}
			}
			out.AppendRowFrom(b, i)
		}
	}
	return true, f.outs.sendBatch(out)
}

// pushSel evaluates the predicate kernel over the selected rows of b,
// which holds no replace among them, and hands the survivors on: as a
// selection to next, or gathered into one batch when there is no next or
// it declines.
func (f *filterOp) pushSel(b *types.DeltaBatch, rows []int32) (bool, error) {
	sel, ok := f.kern.Select(b, rows, f.sel[:0])
	f.sel = sel
	if !ok {
		return false, nil
	}
	kernelVectorBatches.Add(1)
	if len(sel) == 0 {
		return true, nil
	}
	if f.next != nil {
		if done, err := f.next.pushSel(b, sel); done {
			return true, err
		}
	}
	out := types.GetBatch()
	defer types.PutBatch(out)
	out.Gather(b, sel)
	return true, f.outs.sendBatch(out)
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// pushBridged is the scratch-tuple bridge: rows are evaluated against a
// reused scratch tuple (no per-row allocation) and survivors are copied
// column-wise into a pooled output batch, so typed vectors never round-
// trip through boxed deltas. A replace whose images fall on different
// sides of the predicate degrades to a bare delete or insert. This is a
// documented expr.EvalBool fallback site.
func (f *filterOp) pushBridged(b *types.DeltaBatch) error {
	out := types.GetBatch()
	defer types.PutBatch(out)
	var scratch, oldScratch types.Tuple
	for i := 0; i < b.Len(); i++ {
		if b.Op(i) == types.OpReplace && b.HasOld() {
			oldScratch = b.OldRow(i, oldScratch)
			scratch = b.Row(i, scratch)
			oldOK, err := expr.EvalBool(f.pred, oldScratch)
			if err != nil {
				return err
			}
			newOK, err := expr.EvalBool(f.pred, scratch)
			if err != nil {
				return err
			}
			switch {
			case oldOK && newOK:
				if !out.CanAppendRowFrom(b, i) {
					if err := f.flushVec(out); err != nil {
						return err
					}
				}
				out.AppendRowFrom(b, i)
			case oldOK:
				d := types.Delete(oldScratch)
				if !out.CanAppend(d) {
					if err := f.flushVec(out); err != nil {
						return err
					}
				}
				out.Append(d)
			case newOK:
				d := types.Insert(scratch)
				if !out.CanAppend(d) {
					if err := f.flushVec(out); err != nil {
						return err
					}
				}
				out.Append(d)
			}
			continue
		}
		scratch = b.Row(i, scratch)
		ok, err := expr.EvalBool(f.pred, scratch)
		if err != nil {
			return err
		}
		if ok {
			if !out.CanAppendRowFrom(b, i) {
				if err := f.flushVec(out); err != nil {
					return err
				}
			}
			out.AppendRowFrom(b, i)
		}
	}
	return f.outs.sendBatch(out)
}

func (f *filterOp) flushVec(out *types.DeltaBatch) error {
	if err := f.outs.sendBatch(out); err != nil {
		return err
	}
	out.Reset()
	return nil
}

func (f *filterOp) Punct(port, stratum int, closed bool) error {
	return f.outs.punct(stratum, closed)
}

// projectOp is applyFunction/projection: one expression per output column,
// annotations propagated unchanged (§3.3, stateless operators). Replacement
// deltas map both tuples; no-op replacements are dropped. Deterministic
// UDF calls are memoized (§5.1 "Caching"), and when UDFArgKinds is set the
// operator typechecks boxed arguments per batch — the Go stand-in for the
// paper's Java reflection overhead, amortized by input batching (§4.2).
type projectOp struct {
	exprs    []expr.Expr
	outs     outputs
	memo     map[string]types.Tuple
	memoable bool
	argKinds [][]types.Kind

	// kerns holds one compiled kernel per output expression; nil unless
	// every expression compiled and no per-batch UDF machinery (memo,
	// typecheck) needs the interpreter.
	kerns   []*expr.Kernel
	res     []*types.Vec // pushSel's borrowed kernel results
	newVecs []*types.Vec
	oldVecs []*types.Vec
	oldRows []int32
}

func newProjectOp(exprs []expr.Expr, argKinds [][]types.Kind, schema []types.Kind, kernels bool) *projectOp {
	p := &projectOp{exprs: exprs, argKinds: argKinds}
	p.memoable = true
	for _, e := range exprs {
		if c, ok := e.(*expr.Call); ok && !c.Deterministic {
			p.memoable = false
		}
	}
	hasCall := false
	for _, e := range exprs {
		if _, ok := e.(*expr.Call); ok {
			hasCall = true
		}
	}
	if hasCall && p.memoable {
		p.memo = map[string]types.Tuple{}
	}
	// Kernels apply only to pure column expressions: a UDF anywhere (it
	// would not compile, and memoization/typechecking live in the
	// interpreter path) keeps the whole operator bridged.
	if kernels && p.memo == nil && p.argKinds == nil && !hasCall {
		kerns := make([]*expr.Kernel, len(exprs))
		all := true
		for i, e := range exprs {
			k, ok := expr.Compile(e, schema)
			if !ok {
				all = false
				break
			}
			kerns[i] = k
		}
		if all && len(kerns) > 0 {
			p.kerns = kerns
			kernelCompiled.Add(int64(len(kerns)))
		}
	}
	return p
}

func (p *projectOp) apply(t types.Tuple) (types.Tuple, error) {
	if p.memo != nil {
		key := t.String()
		if out, ok := p.memo[key]; ok {
			return out, nil
		}
		out, err := p.eval(t)
		if err != nil {
			return nil, err
		}
		if len(p.memo) < 1<<16 { // bounded cache
			p.memo[key] = out
		}
		return out, nil
	}
	return p.eval(t)
}

func (p *projectOp) eval(t types.Tuple) (types.Tuple, error) {
	out := make(types.Tuple, len(p.exprs))
	for i, e := range p.exprs {
		v, err := e.Eval(t)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// typecheck simulates the reflection-driven argument validation REX
// performs when invoking user code; batching lets the engine do it once
// per batch rather than per tuple.
func (p *projectOp) typecheck(t types.Tuple) error {
	for i, kinds := range p.argKinds {
		if kinds == nil {
			continue
		}
		cols := expr.Columns(p.exprs[i])
		for j, c := range cols {
			if j >= len(kinds) {
				break
			}
			if c < len(t) && t[c] != nil && types.KindOf(t[c]) != kinds[j] {
				return fmt.Errorf("exec: UDF argument %d: got %v want %v", j, types.KindOf(t[c]), kinds[j])
			}
		}
	}
	return nil
}

// Push projects a batch. With compiled kernels, output batches are built
// from the kernel result vectors: a batch without replace rows one
// column at a time over its rows (pushSel), one with them row by row,
// new images in one pass and old images of replace rows in a second,
// with no-op replacements dropped by a typed row-equality check. Batches
// the kernels decline — and operators whose expressions never compiled —
// run the interpreter path, the semantic ground truth.
func (p *projectOp) Push(port int, b *types.DeltaBatch) error {
	if b.Len() > 0 {
		if p.kerns != nil {
			if done, err := p.pushKernel(b); done {
				return err
			}
			kernelFallbackEvals.Add(1)
		} else {
			kernelBridgedBatches.Add(1)
		}
	}
	return p.pushBridged(b)
}

// pushBridged interprets the expressions row by row against a reused
// scratch tuple and appends the projected deltas to a pooled output
// batch; UDF memoization and argument typechecking happen here. This is
// a documented expr fallback site.
func (p *projectOp) pushBridged(b *types.DeltaBatch) error {
	var scratch types.Tuple
	if p.argKinds != nil && b.Len() > 0 {
		if err := p.typecheck(b.Row(0, scratch)); err != nil {
			return err
		}
	}
	out := types.GetBatch()
	defer types.PutBatch(out)
	for i := 0; i < b.Len(); i++ {
		scratch = b.Row(i, scratch)
		nt, err := p.apply(scratch)
		if err != nil {
			return err
		}
		d := types.Delta{Op: b.Op(i), Tup: nt}
		if d.Op == types.OpReplace {
			var old types.Tuple
			if b.HasOld() {
				scratch = b.OldRow(i, scratch)
				old = scratch
			}
			ot, err := p.apply(old)
			if err != nil {
				return err
			}
			if nt.Equal(ot) {
				continue // replacement invisible after projection
			}
			d.Old = ot
		}
		if !out.CanAppend(d) {
			if err := p.outs.sendBatch(out); err != nil {
				return err
			}
			out.Reset()
		}
		out.Append(d)
	}
	return p.outs.sendBatch(out)
}

func (p *projectOp) pushKernel(b *types.DeltaBatch) (bool, error) {
	n := b.Len()
	p.oldRows = b.AppendReplaceRows(p.oldRows[:0])
	if len(p.oldRows) == 0 {
		return p.pushSel(b, p.kerns[0].AllRows(n))
	}
	if !b.HasOld() {
		return false, nil // degenerate replace without old images: the interpreter arbitrates
	}
	if p.newVecs == nil {
		p.newVecs = make([]*types.Vec, len(p.kerns))
		p.oldVecs = make([]*types.Vec, len(p.kerns))
		for j := range p.kerns {
			p.newVecs[j] = new(types.Vec)
			p.oldVecs[j] = new(types.Vec)
		}
	}
	rows := p.kerns[0].AllRows(n)
	for j, k := range p.kerns {
		if !k.EvalInto(b, false, rows, p.newVecs[j]) {
			return false, nil
		}
	}
	for j, k := range p.kerns {
		if !k.EvalInto(b, true, p.oldRows, p.oldVecs[j]) {
			return false, nil
		}
	}
	kernelVectorBatches.Add(1)
	out := types.GetBatch()
	defer types.PutBatch(out)
	for i := 0; i < n; i++ {
		op := b.Op(i)
		if op == types.OpReplace {
			if types.VecRowEq(p.newVecs, p.oldVecs, i) {
				continue // replacement invisible after projection
			}
			out.AppendVecRow(op, p.newVecs, p.oldVecs, i)
			continue
		}
		out.AppendVecRow(op, p.newVecs, nil, i)
	}
	return true, p.outs.sendBatch(out)
}

// pushSel projects the selected rows of b, none of them a replace: each
// kernel's borrowed result vector is written into the output batch with
// one loop per column.
func (p *projectOp) pushSel(b *types.DeltaBatch, rows []int32) (bool, error) {
	if p.res == nil {
		p.res = make([]*types.Vec, len(p.kerns))
	}
	for j, k := range p.kerns {
		v, ok := k.EvalVec(b, false, rows)
		if !ok {
			return false, nil
		}
		p.res[j] = v
	}
	kernelVectorBatches.Add(1)
	out := types.GetBatch()
	defer types.PutBatch(out)
	out.GatherVecs(b, p.res, rows)
	return true, p.outs.sendBatch(out)
}

func (p *projectOp) Punct(port, stratum int, closed bool) error {
	return p.outs.punct(stratum, closed)
}

// tvfOp is the dependent-join operator: each input delta is passed to a
// table-valued function whose results are emitted (§4.2). TVFs may create
// or manipulate annotations arbitrarily, like applyFunction.
type tvfOp struct {
	fn   *catalog.TVFDef
	outs outputs
}

func (o *tvfOp) Push(port int, b *types.DeltaBatch) error {
	var out []types.Delta
	for i := 0; i < b.Len(); i++ {
		res, err := o.fn.Fn(b.Delta(i))
		if err != nil {
			return fmt.Errorf("exec: TVF %s: %w", o.fn.Name, err)
		}
		out = append(out, res...)
	}
	return o.outs.send(out)
}

func (o *tvfOp) Punct(port, stratum int, closed bool) error {
	return o.outs.punct(stratum, closed)
}

// outputOp forwards result deltas to the query requestor and reports
// completion when its input closes. Result frames use the reserved edge.
type outputOp struct {
	ctx *Context
}

// resultEdge is the reserved transport edge for result traffic.
const resultEdge = -1

// Push ships a result batch in the columnar wire format. The payload
// buffer is freshly allocated, not pooled: requestor-bound messages are
// delivered by reference in-process, so the payload outlives this call.
func (o *outputOp) Push(port int, b *types.DeltaBatch) error {
	payload := cluster.EncodeDeltaBatch(nil, b)
	o.ctx.Transport.SendToRequestor(cluster.Message{
		From: o.ctx.Node, Kind: cluster.MsgData, Edge: resultEdge,
		Payload: payload, Count: b.Len(), Epoch: o.ctx.Epoch,
	})
	return nil
}

func (o *outputOp) Punct(port, stratum int, closed bool) error {
	if closed {
		o.ctx.Transport.SendToRequestor(cluster.Message{
			From: o.ctx.Node, Kind: cluster.MsgPunct, Edge: resultEdge,
			Stratum: stratum, Epoch: o.ctx.Epoch,
		})
	}
	return nil
}
