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
// degrades into a bare insertion or deletion. The predicate's kernel
// evaluates whole batches into a selection of survivors. A filter whose
// only consumer, on port 0, is a filter or a project hands that selection
// on over the same batch, so a chain of filters ending in a filter or
// project copies its rows once, at the last stage; otherwise the
// survivors are gathered into one batch. A batch with replace rows is
// copied row by row instead, with scratch tuples only for degraded
// replaces.
type filterOp struct {
	kern *expr.Kernel
	ks   kernelSet
	outs outputs

	// scratch: per-row verdicts over new and old images, the replace-row
	// selection and the survivor selection, reused across batches.
	selNew  []bool
	selOld  []bool
	oldRows []int32
	sel     []int32
}

// selStage is an operator that takes a batch with a selection of its
// rows, none of them a replace: the filter ahead of it hands its
// survivors on this way instead of copying them. pushSel evaluates only
// the selected rows.
type selStage interface {
	Operator
	pushSel(b *types.DeltaBatch, sel []int32) error
}

// newFilterOp builds the operator with the predicate's kernel: compiled
// against schema (nil trusts the declared column kinds), or
// interpreter-only when compile is off.
func newFilterOp(pred expr.Expr, schema []types.Kind, compile bool) *filterOp {
	f := &filterOp{ks: newKernelSet(compile)}
	f.kern = f.ks.add(pred, schema)
	return f
}

// next returns f's consumer when it is f's only one, on port 0, and
// takes a selection; nil otherwise.
func (f *filterOp) next() selStage {
	if len(f.outs) != 1 || f.outs[0].port != 0 {
		return nil
	}
	s, _ := f.outs[0].op.(selStage)
	return s
}

// Push filters a batch: one without replace rows through pushSel over all
// its rows, one with them through pushReplaces.
func (f *filterOp) Push(port int, b *types.DeltaBatch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	f.oldRows = b.AppendReplaceRows(f.oldRows[:0])
	switch {
	case len(f.oldRows) == 0:
		return f.pushSel(b, f.kern.AllRows(n))
	case !b.HasOld():
		// Replaces without old images are filtered on their new images,
		// as any other row, and gathered: a selStage takes no replace.
		return f.emit(b, f.kern.AllRows(n), nil)
	}
	return f.pushReplaces(b)
}

// pushSel evaluates the predicate over the selected rows of b, which
// holds no replace among them, and hands the survivors on.
func (f *filterOp) pushSel(b *types.DeltaBatch, rows []int32) error {
	return f.emit(b, rows, f.next())
}

// emit selects the rows of b the predicate passes and hands them to next
// as a selection, or gathers them into one batch when next is nil.
func (f *filterOp) emit(b *types.DeltaBatch, rows []int32, next selStage) error {
	sel, err := f.kern.Select(b, rows, f.sel[:0])
	f.sel = sel
	f.ks.count()
	if err != nil {
		var first firstErr
		first.note(err, 0)
		return first.err
	}
	if len(sel) == 0 {
		return nil
	}
	if next != nil {
		return next.pushSel(b, sel)
	}
	out := types.GetBatch()
	defer types.PutBatch(out)
	out.Gather(b, sel)
	return f.outs.sendBatch(out)
}

// pushReplaces filters a batch with replace rows and old images: the
// verdicts over both images, then a copy row by row.
func (f *filterOp) pushReplaces(b *types.DeltaBatch) error {
	n := b.Len()
	f.selNew = growBools(f.selNew, n)
	f.selOld = growBools(f.selOld, n)
	// The row interpreter judges a replace's old image before its new one.
	var first firstErr
	first.note(f.kern.Verdicts(b, true, f.oldRows, f.selOld), 0)
	first.note(f.kern.Verdicts(b, false, f.kern.AllRows(n), f.selNew), 1)
	f.ks.count()
	if first.err != nil {
		return first.err
	}
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
						return err
					}
				}
				out.AppendRowFrom(b, i)
			case oldOK:
				scratch = b.OldRow(i, scratch)
				d := types.Delete(scratch)
				if !out.CanAppend(d) {
					if err := f.flushVec(out); err != nil {
						return err
					}
				}
				out.Append(d)
			case newOK:
				scratch = b.Row(i, scratch)
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
		if f.selNew[i] {
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

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
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
// annotations propagated unchanged (§3.3, stateless operators). Each
// expression has a kernel, and output batches are built from their result
// vectors: a batch without replace rows one column at a time over its
// rows (pushSel), one with them row by row, new images in one pass and
// old images of replace rows in a second, with the replacements the
// projection makes no-ops dropped by a typed row-equality check. The
// kernels memoize deterministic UDF calls (§5.1 "Caching"), and when
// UDFArgKinds is set the operator typechecks boxed arguments once per
// batch — the Go stand-in for the paper's Java reflection overhead,
// amortized by input batching (§4.2).
type projectOp struct {
	exprs    []expr.Expr
	argKinds [][]types.Kind
	outs     outputs

	ks      kernelSet    // one kernel per output expression, in order
	rows    []int32      // dense selection cache
	res     []*types.Vec // pushSel's borrowed kernel results
	newVecs []*types.Vec
	oldVecs []*types.Vec
	oldRows []int32
	tup     types.Tuple // typecheck's row
}

// newProjectOp builds the operator with one kernel per expression, as
// newFilterOp builds its one.
func newProjectOp(exprs []expr.Expr, argKinds [][]types.Kind, schema []types.Kind, compile bool) *projectOp {
	p := &projectOp{exprs: exprs, argKinds: argKinds, ks: newKernelSet(compile)}
	p.res = make([]*types.Vec, len(exprs))
	p.newVecs, p.oldVecs = make([]*types.Vec, len(exprs)), make([]*types.Vec, len(exprs))
	for j, e := range exprs {
		p.ks.add(e, schema)
		p.newVecs[j], p.oldVecs[j] = new(types.Vec), new(types.Vec)
	}
	return p
}

// typecheck simulates the reflection-driven argument validation REX
// performs when invoking user code, on one row of b; batching lets the
// engine do it once per batch rather than per tuple.
func (p *projectOp) typecheck(b *types.DeltaBatch, row int32) error {
	if p.argKinds == nil {
		return nil
	}
	p.tup = b.Row(int(row), p.tup)
	t := p.tup
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

// Push projects a batch: one without replace rows through pushSel, one
// with them row by row from both images' result vectors.
func (p *projectOp) Push(port int, b *types.DeltaBatch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	p.rows = identityRows(p.rows, n)
	p.oldRows = b.AppendReplaceRows(p.oldRows[:0])
	if len(p.oldRows) == 0 {
		return p.pushSel(b, p.rows)
	}
	if err := p.typecheck(b, 0); err != nil {
		return err
	}
	// The row interpreter evaluates a row's new image, expression by
	// expression, then a replace's old image.
	var first firstErr
	kerns := p.ks.all
	for j, k := range kerns {
		first.note(k.EvalInto(b, false, p.rows, p.newVecs[j]), j)
	}
	for j, k := range kerns {
		first.note(k.EvalInto(b, true, p.oldRows, p.oldVecs[j]), len(kerns)+j)
	}
	p.ks.count()
	if first.err != nil {
		return first.err
	}
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
	return p.outs.sendBatch(out)
}

// pushSel projects the selected rows of b, none of them a replace: each
// kernel's borrowed result vector is written into the output batch with
// one loop per column.
func (p *projectOp) pushSel(b *types.DeltaBatch, rows []int32) error {
	if err := p.typecheck(b, rows[0]); err != nil {
		return err
	}
	var first firstErr
	for j, k := range p.ks.all {
		v, err := k.EvalVec(b, false, rows)
		first.note(err, j)
		p.res[j] = v
	}
	p.ks.count()
	if first.err != nil {
		return first.err
	}
	out := types.GetBatch()
	defer types.PutBatch(out)
	out.GatherVecs(b, p.res, rows)
	return p.outs.sendBatch(out)
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
