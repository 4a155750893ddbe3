package exec

import (
	"fmt"

	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// groupByOp is the delta-aware pipelined group-by of §3.3: per-key
// aggregate state is revised by each incoming delta; when the stratum's
// punctuation arrives, dirty groups emit insertion deltas (first result)
// or replacement deltas (revised result) downstream. Aggregate state is
// cumulative across strata — that is exactly what lets recursive queries
// refine aggregates instead of recomputing them.
//
// Two modes: scalar mode keeps built-in aggregates (sum, count, min, max,
// avg, argmin) in a types.GroupTable and folds each batch into it with
// the aggregates' typed delta rules; UDA mode delegates to a
// user-defined aggregator's AGGSTATE/AGGRESULT handlers and resets per
// stratum (the MapReduce-reduce semantics the wrappers need).
type groupByOp struct {
	spec *OpSpec
	outs outputs

	tracker *portTracker

	// scalar mode
	aggs []uda.TypedAgg
	aggArgs
	tab      *types.GroupTable
	gids     []int32
	flushing []int32        // the dirty groups being flushed
	row      []types.Scalar // flush scratch: key columns, then results
	old      []types.Scalar

	// UDA mode
	udaAgg    uda.Aggregator
	udaStates map[types.Value]uda.State
}

func newGroupByOp(spec *OpSpec, nin int, agg uda.Aggregator, schema []types.Kind) (*groupByOp, error) {
	g := &groupByOp{spec: spec, tracker: newPortTracker(nin)}
	if agg != nil {
		g.udaAgg = agg
		g.udaStates = map[types.Value]uda.State{}
		return g, nil
	}
	aggs, tab, err := newAggTable(spec)
	if err != nil {
		return nil, err
	}
	g.aggs, g.tab = aggs, tab
	g.aggArgs = newAggArgs(spec.Aggs, schema)
	width := len(spec.GroupKey) + len(aggs)
	g.row, g.old = make([]types.Scalar, width), make([]types.Scalar, width)
	return g, nil
}

// newAggTable resolves the typed aggregates of spec and builds their
// keyed state table.
func newAggTable(spec *OpSpec) ([]uda.TypedAgg, *types.GroupTable, error) {
	aggs := make([]uda.TypedAgg, len(spec.Aggs))
	lanes := make([]types.AccLanes, len(spec.Aggs))
	for i, as := range spec.Aggs {
		a, err := uda.NewTypedAgg(as.Fn)
		if err != nil {
			return nil, nil, err
		}
		aggs[i], lanes[i] = a, a.Lanes()
	}
	return aggs, types.NewGroupTable(len(spec.GroupKey), lanes), nil
}

// aggArgs evaluates every aggregate argument of a batch into one result
// vector per argument — new images for every row, old images for the
// replacement rows — either through compiled kernels or through the
// expression interpreter. The fold reads both the same way.
type aggArgs struct {
	exprs [][]expr.Expr
	nargs int
	// argKerns holds per-aggregate, per-argument compiled kernels; nil
	// unless the plan carried an input schema and every argument
	// compiled.
	argKerns [][]*expr.Kernel
	// argVecs and oldVecs are what the fold reads, per aggregate and
	// argument: the new images' and the replacement rows' old images'
	// values. An argVecs entry is the kernel's borrowed result, or the
	// interpreter's owned newVecs vector.
	argVecs [][]*types.Vec
	newVecs [][]*types.Vec
	oldVecs [][]*types.Vec
	rows    []int32
	oldRows []int32

	// interpreter scratch
	vals, oldVals [][][]types.Value
	tup, oldTup   types.Tuple
}

func newAggArgs(specs []AggSpec, schema []types.Kind) aggArgs {
	a := aggArgs{exprs: make([][]expr.Expr, len(specs))}
	for i, as := range specs {
		a.exprs[i] = as.Args
		a.nargs += len(as.Args)
	}
	a.argKerns = compileArgKernels(a.exprs, schema)
	a.newVecs, a.oldVecs = vecGrid(a.exprs), vecGrid(a.exprs)
	a.argVecs = make([][]*types.Vec, len(a.newVecs))
	for i, vs := range a.newVecs {
		a.argVecs[i] = append([]*types.Vec(nil), vs...)
	}
	return a
}

// compileArgKernels compiles every aggregate argument against the input
// schema, all-or-nothing: one uncompilable argument keeps the whole
// operator on the interpreter (mixing kernel and interpreted arguments
// per row would forfeit the win).
func compileArgKernels(argExprs [][]expr.Expr, schema []types.Kind) [][]*expr.Kernel {
	if schema == nil {
		return nil
	}
	kerns := make([][]*expr.Kernel, len(argExprs))
	total := 0
	for i, args := range argExprs {
		kerns[i] = make([]*expr.Kernel, len(args))
		for j, e := range args {
			k, ok := expr.Compile(e, schema)
			if !ok {
				return nil
			}
			kerns[i][j] = k
			total++
		}
	}
	kernelCompiled.Add(int64(total))
	return kerns
}

// vecGrid allocates result vectors shaped like the argument grid.
func vecGrid(exprs [][]expr.Expr) [][]*types.Vec {
	out := make([][]*types.Vec, len(exprs))
	for i, es := range exprs {
		out[i] = make([]*types.Vec, len(es))
		for j := range es {
			out[i][j] = new(types.Vec)
		}
	}
	return out
}

// kernels evaluates the argument grid through the compiled kernels,
// declining as a unit (false) — including for replacement rows without
// an old image, whose arguments only the interpreter defines. The old
// images are copied into oldVecs first; the new images' pass then leaves
// each kernel's result borrowed in argVecs (each argument has its own
// kernel, so no later evaluation overwrites it).
func (a *aggArgs) kernels(b *types.DeltaBatch) bool {
	if len(a.oldRows) > 0 && !b.HasOld() {
		return false
	}
	a.rows = identityRows(a.rows, b.Len())
	for i, ks := range a.argKerns {
		for j, k := range ks {
			if len(a.oldRows) > 0 && !k.EvalInto(b, true, a.oldRows, a.oldVecs[i][j]) {
				return false
			}
			v, ok := k.EvalVec(b, false, a.rows)
			if !ok {
				return false
			}
			a.argVecs[i][j] = v
		}
	}
	return true
}

// interpret evaluates the argument grid row by row through the
// expression interpreter, boxed, and lays the values out as vectors.
// This is the documented expr interpreter fallback site of the group-by
// and pre-aggregation.
func (a *aggArgs) interpret(b *types.DeltaBatch) error {
	if a.nargs == 0 {
		return nil // count(*) only: no row to evaluate against
	}
	n := b.Len()
	if a.vals == nil {
		a.vals, a.oldVals = make([][][]types.Value, len(a.exprs)), make([][][]types.Value, len(a.exprs))
		for i, es := range a.exprs {
			a.vals[i], a.oldVals[i] = make([][]types.Value, len(es)), make([][]types.Value, len(es))
		}
	}
	for i := range a.exprs {
		for j := range a.exprs[i] {
			a.vals[i][j] = resize(a.vals[i][j], n)
			a.oldVals[i][j] = resize(a.oldVals[i][j], n)
		}
	}
	for r := 0; r < n; r++ {
		a.tup = b.Row(r, a.tup)
		replace := b.Op(r) == types.OpReplace
		if replace {
			a.oldTup = b.OldRow(r, a.oldTup)
		}
		for i, es := range a.exprs {
			for j, e := range es {
				v, err := e.Eval(a.tup)
				if err != nil {
					return err
				}
				a.vals[i][j][r] = v
			}
			if !replace {
				continue
			}
			for j, e := range es {
				v, err := e.Eval(a.oldTup)
				if err != nil {
					return err
				}
				a.oldVals[i][j][r] = v
			}
		}
	}
	for i := range a.exprs {
		for j := range a.exprs[i] {
			a.argVecs[i][j] = a.newVecs[i][j]
			a.newVecs[i][j].SetValues(a.vals[i][j])
			a.oldVecs[i][j].SetValues(a.oldVals[i][j])
		}
	}
	return nil
}

// resize returns s cleared to length n, reusing its capacity.
func resize(s []types.Value, n int) []types.Value {
	if cap(s) < n {
		return make([]types.Value, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// identityRows returns the dense selection [0, n), reusing rows.
func identityRows(rows []int32, n int) []int32 {
	rows = rows[:0]
	for i := 0; i < n; i++ {
		rows = append(rows, int32(i))
	}
	return rows
}

// Push folds a batch into group state: arguments through the compiled
// kernels when they take the batch, else through the interpreter, then
// one fold into the table. UDA mode hands each row to the aggregator.
func (g *groupByOp) Push(port int, b *types.DeltaBatch) error {
	if g.udaAgg != nil {
		return g.pushUDA(b)
	}
	if b.Len() == 0 {
		return nil
	}
	g.oldRows = b.AppendReplaceRows(g.oldRows[:0])
	if g.argKerns != nil {
		if done, err := g.pushKernel(b); done {
			return err
		}
		kernelFallbackEvals.Add(1)
	} else {
		kernelBridgedBatches.Add(1)
	}
	if err := g.interpret(b); err != nil {
		return err
	}
	return g.fold(b)
}

// pushKernel folds the batch with its arguments from the compiled
// kernels. It declines (false) before touching group state, so the
// interpreter can evaluate the whole batch instead.
func (g *groupByOp) pushKernel(b *types.DeltaBatch) (bool, error) {
	if !g.kernels(b) {
		return false, nil
	}
	kernelVectorBatches.Add(1)
	return true, g.fold(b)
}

// fold applies the evaluated batch to the table: every row to the group
// of its new image's key, aggregate by aggregate.
func (g *groupByOp) fold(b *types.DeltaBatch) error {
	g.gids = g.tab.Groups(b, g.spec.GroupKey, false, nil, g.gids)
	for j, a := range g.aggs {
		if err := a.Fold(&g.tab.Accs[j], b, g.gids, nil, g.argVecs[j], g.oldVecs[j]); err != nil {
			return fmt.Errorf("exec: group-by %s: %w", a.Name(), err)
		}
	}
	g.tab.Touch(g.gids)
	return nil
}

// pushUDA feeds each row to the aggregator's AGGSTATE handler; rows are
// materialized fresh because handlers may retain them.
func (g *groupByOp) pushUDA(b *types.DeltaBatch) error {
	var out []types.Delta
	for i := 0; i < b.Len(); i++ {
		d := b.Delta(i)
		key := d.Tup.Key(g.spec.GroupKey)
		st, ok := g.udaStates[key]
		if !ok {
			st = g.udaAgg.NewState()
		}
		nst, intermediate, err := g.udaAgg.AggState(st, d)
		if err != nil {
			return fmt.Errorf("exec: UDA %s: %w", g.udaAgg.Name(), err)
		}
		g.udaStates[key] = nst
		out = append(out, intermediate...)
	}
	return g.outs.send(out)
}

// Punct flushes dirty groups once all inputs have punctuated the stratum.
func (g *groupByOp) Punct(port, stratum int, closed bool) error {
	done, err := g.tracker.mark(port, stratum, closed)
	if err != nil {
		return err
	}
	if !done {
		return nil
	}
	if g.udaAgg != nil {
		if err := g.flushUDA(); err != nil {
			return err
		}
	} else if err := g.flush(); err != nil {
		return err
	}
	return g.outs.punct(stratum, g.tracker.allClosed())
}

// flush emits the dirty groups, in the order they were first revised,
// written lane to lane into pooled batches of at most MaxPooledRows rows:
// an insertion for a group's first result, a replacement of the last
// emitted result when it moved, and nothing when it did not.
func (g *groupByOp) flush() error {
	// The dirty set is emptied before anything is sent, so a revision a
	// consumer causes while a batch is out is kept for the next flush.
	g.flushing = append(g.flushing[:0], g.tab.Dirty()...)
	g.tab.ClearDirty()
	out := types.GetBatch()
	defer types.PutBatch(out)
	nkey := len(g.spec.GroupKey)
	for _, gid := range g.flushing {
		if out.Len() == types.MaxPooledRows {
			if err := g.outs.sendBatch(out); err != nil {
				return err
			}
			out.Reset()
		}
		for k := 0; k < nkey; k++ {
			g.tab.Key(gid, k, &g.row[k])
		}
		emitted, moved := g.tab.Emitted(gid), false
		for j, a := range g.aggs {
			a.ResultAt(&g.tab.Accs[j], gid, &g.row[nkey+j])
			if emitted && !g.tab.LastEqual(gid, j, &g.row[nkey+j]) {
				moved = true
			}
		}
		switch {
		case !emitted:
			out.AppendScalars(types.OpInsert, g.row, nil)
		case moved:
			copy(g.old[:nkey], g.row[:nkey])
			for j := range g.aggs {
				g.tab.Last(gid, j, &g.old[nkey+j])
			}
			out.AppendScalars(types.OpReplace, g.row, g.old)
		}
		for j := range g.aggs {
			g.tab.SetLast(gid, j, &g.row[nkey+j])
		}
	}
	if g.spec.ResetPerStratum {
		g.tab.Reset()
	}
	return g.outs.sendBatch(out)
}

func (g *groupByOp) flushUDA() error {
	var out []types.Delta
	for key, st := range g.udaStates {
		res, err := g.udaAgg.AggResult(st)
		if err != nil {
			return fmt.Errorf("exec: UDA %s result: %w", g.udaAgg.Name(), err)
		}
		out = append(out, res...)
		delete(g.udaStates, key)
	}
	return g.outs.send(out)
}

// ReopenRound re-arms punctuation for a standing query's next ingestion
// round; group state stays resident so revisions emit replacements against
// the last flushed results.
func (g *groupByOp) ReopenRound() { g.tracker.reopen() }

func (g *groupByOp) Reset() {
	if g.udaAgg != nil {
		g.udaStates = map[types.Value]uda.State{}
	} else {
		g.tab.Reset()
	}
	g.tracker.reset()
}

// DirtyState checkpoints groups revised since the last checkpoint. Entry
// layout: [keyHash, nKey, key..., hasLast, last...(outLen), per-agg:
// stateLen, fields...], with each aggregate's fields in its ScalarAgg
// Save layout.
func (g *groupByOp) DirtyState() []types.Tuple {
	if g.udaAgg != nil {
		return nil // UDA groups reset per stratum; nothing to restore
	}
	nkey := len(g.spec.GroupKey)
	var out []types.Tuple
	for _, gid := range g.tab.CkptDirty() {
		e := types.NewTuple(int64(g.tab.KeyHash(gid)), int64(nkey))
		for k := 0; k < nkey; k++ {
			e = append(e, g.tab.KeyValue(gid, k))
		}
		emitted := g.tab.Emitted(gid)
		e = append(e, emitted)
		if emitted {
			e = append(e, e[2:2+nkey]...) // the last result's key columns
			for j := range g.aggs {
				e = append(e, g.tab.LastValue(gid, j))
			}
		} else {
			e = append(e, make(types.Tuple, nkey+len(g.aggs))...)
		}
		for j, a := range g.aggs {
			at := len(e)
			e = a.SaveAt(&g.tab.Accs[j], gid, append(e, nil))
			e[at] = int64(len(e) - at - 1)
		}
		out = append(out, e)
	}
	g.tab.ClearCkptDirty()
	return out
}

// Restore rebuilds group state from checkpointed entries in stratum order
// (later strata override earlier ones for the same key). Every field is
// bounds-checked before the entry touches the table.
func (g *groupByOp) Restore(strata [][]types.Tuple) error {
	nkey := len(g.spec.GroupKey)
	outLen := nkey + len(g.aggs)
	states := make([]types.Tuple, len(g.aggs))
	for _, entries := range strata {
		for _, e := range entries {
			bad := func(what string) error {
				return fmt.Errorf("exec: group-by restore: %s in entry %v", what, e)
			}
			if len(e) < 2 {
				return bad("missing key length")
			}
			n, ok := types.AsInt(e[1])
			key, inBounds := entrySpan(e, 2, n)
			if !ok || !inBounds || len(key) != nkey {
				return bad("bad key length")
			}
			pos := 2 + nkey
			if pos >= len(e) {
				return bad("missing last-result flag")
			}
			hasLast, ok := types.AsBool(e[pos])
			if !ok {
				return bad("bad last-result flag")
			}
			last, ok := entrySpan(e, pos+1, int64(outLen))
			if !ok {
				return bad("truncated last result")
			}
			pos += 1 + outLen
			for i := range g.aggs {
				if pos >= len(e) {
					return bad("missing aggregate state")
				}
				n, ok := types.AsInt(e[pos])
				st, inBounds := entrySpan(e, pos+1, n)
				if !ok || !inBounds {
					return bad("bad aggregate state length")
				}
				states[i] = st
				pos += 1 + len(st)
			}
			gid := g.tab.Group(key)
			g.tab.ClearLast(gid)
			if hasLast {
				for j := range g.aggs {
					g.tab.SetLastValue(gid, j, last[nkey+j])
				}
			}
			for i, a := range g.aggs {
				if err := a.LoadAt(&g.tab.Accs[i], gid, states[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// preAggOp is the combiner-style partial aggregation of §5.2: it
// accumulates per-key partial state within one stratum and, at punctuation,
// emits δ() partial-value deltas downstream (which the final aggregate
// folds in arithmetically), then resets. Insert streams are always
// eligible; deletions and replacements fold too when every aggregate is
// invertible (sum/count — the partial nets out and the final aggregate
// adds a possibly-negative adjustment), which is what lets standing
// queries push deletion churn through a combiner plan.
type preAggOp struct {
	spec *OpSpec
	outs outputs

	tracker    *portTracker
	aggs       []uda.TypedAgg
	invertible bool
	aggArgs
	tab           *types.GroupTable
	gids, oldGids []int32
	row           []types.Scalar
}

func newPreAggOp(spec *OpSpec, nin int, schema []types.Kind) (*preAggOp, error) {
	p := &preAggOp{spec: spec, tracker: newPortTracker(nin), invertible: true}
	for _, as := range spec.Aggs {
		if as.Fn == "avg" || as.Fn == "argmin" {
			return nil, fmt.Errorf("exec: pre-aggregation of %s must be decomposed by the optimizer", as.Fn)
		}
		if as.Fn != "sum" && as.Fn != "count" {
			p.invertible = false
		}
	}
	aggs, tab, err := newAggTable(spec)
	if err != nil {
		return nil, err
	}
	p.aggs, p.tab = aggs, tab
	p.aggArgs = newAggArgs(spec.Aggs, schema)
	p.row = make([]types.Scalar, len(spec.GroupKey)+len(aggs))
	return p, nil
}

// Push folds a batch into the stratum's partial state, with arguments
// from the compiled kernels or, when they decline, the interpreter.
func (p *preAggOp) Push(port int, b *types.DeltaBatch) error {
	if b.Len() == 0 {
		return nil
	}
	p.oldRows = p.oldRows[:0]
	for i := 0; i < b.Len(); i++ {
		switch op := b.Op(i); op {
		case types.OpInsert, types.OpUpdate:
		case types.OpDelete, types.OpReplace:
			if !p.invertible {
				return fmt.Errorf("exec: pre-aggregation over non-insert delta %v (aggregate is not invertible)", op)
			}
			if op == types.OpReplace {
				p.oldRows = append(p.oldRows, int32(i))
			}
		default:
			return fmt.Errorf("exec: pre-aggregation over delta %v", op)
		}
	}
	if p.argKerns != nil {
		if done, err := p.pushKernel(b); done {
			return err
		}
		kernelFallbackEvals.Add(1)
	} else {
		kernelBridgedBatches.Add(1)
	}
	if err := p.interpret(b); err != nil {
		return err
	}
	return p.fold(b)
}

// pushKernel folds the batch with its arguments from the compiled
// kernels, declining (false) before touching partial state.
func (p *preAggOp) pushKernel(b *types.DeltaBatch) (bool, error) {
	if !p.kernels(b) {
		return false, nil
	}
	kernelVectorBatches.Add(1)
	return true, p.fold(b)
}

// fold applies the evaluated batch: each row to its new image's group,
// except that a replacement nets its old image out of the old image's
// group first (the two may differ).
func (p *preAggOp) fold(b *types.DeltaBatch) error {
	p.gids = p.tab.Groups(b, p.spec.GroupKey, false, nil, p.gids)
	var oldGids []int32
	if len(p.oldRows) > 0 {
		p.oldGids = p.tab.Groups(b, p.spec.GroupKey, true, p.oldRows, p.oldGids)
		oldGids = p.oldGids
	}
	for j, a := range p.aggs {
		if err := a.Fold(&p.tab.Accs[j], b, p.gids, oldGids, p.argVecs[j], p.oldVecs[j]); err != nil {
			return err
		}
	}
	return nil
}

func (p *preAggOp) Punct(port, stratum int, closed bool) error {
	done, err := p.tracker.mark(port, stratum, closed)
	if err != nil {
		return err
	}
	if !done {
		return nil
	}
	out := types.GetBatch()
	defer types.PutBatch(out)
	nkey := len(p.spec.GroupKey)
	for gid := int32(0); int(gid) < p.tab.Len(); gid++ {
		if out.Len() == types.MaxPooledRows {
			if err := p.outs.sendBatch(out); err != nil {
				return err
			}
			out.Reset()
		}
		for k := 0; k < nkey; k++ {
			p.tab.Key(gid, k, &p.row[k])
		}
		for j, a := range p.aggs {
			a.ResultAt(&p.tab.Accs[j], gid, &p.row[nkey+j])
		}
		out.AppendScalars(types.OpUpdate, p.row, nil)
	}
	p.tab.Reset()
	if err := p.outs.sendBatch(out); err != nil {
		return err
	}
	return p.outs.punct(stratum, p.tracker.allClosed())
}

// ReopenRound re-arms punctuation for a standing query's next ingestion
// round (partial-aggregation state already resets per stratum).
func (p *preAggOp) ReopenRound() { p.tracker.reopen() }

func (p *preAggOp) Reset() {
	p.tab.Reset()
	p.tracker.reset()
}
