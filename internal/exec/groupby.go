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
// Two modes: scalar mode evaluates built-in aggregates (sum, count, min,
// max, avg, argmin) with automatic delta rules; UDA mode delegates to a
// user-defined aggregator's AGGSTATE/AGGRESULT handlers and resets per
// stratum (the MapReduce-reduce semantics the wrappers need).
type groupByOp struct {
	spec *OpSpec
	outs outputs

	tracker *portTracker

	// scalar mode
	aggs     []uda.ScalarAgg
	argExprs [][]expr.Expr
	groups   map[types.Value]*groupState
	// dirty marks groups revised since the last flush; ckptDirty marks
	// groups revised since the last checkpoint collection.
	dirty     map[types.Value]bool
	ckptDirty map[types.Value]bool

	// UDA mode
	udaAgg    uda.Aggregator
	udaStates map[types.Value]uda.State
	udaKeys   map[types.Value]types.Tuple

	// kernel path (scalar mode): per-agg, per-arg compiled kernels. nil
	// unless the plan carried an input schema and every argument
	// compiled; key extraction then runs columnar through KeyAt and the
	// scratch-tuple bridge is skipped entirely.
	argKerns [][]*expr.Kernel
	argVecs  [][]*types.Vec
	oldVecs  [][]*types.Vec
	rows     []int32
	oldRows  []int32
}

type groupState struct {
	keyTuple types.Tuple
	states   []uda.State
	last     types.Tuple // last emitted result; nil before first emission
}

func newGroupByOp(spec *OpSpec, nin int, agg uda.Aggregator, schema []types.Kind) (*groupByOp, error) {
	g := &groupByOp{
		spec:      spec,
		tracker:   newPortTracker(nin),
		groups:    map[types.Value]*groupState{},
		dirty:     map[types.Value]bool{},
		ckptDirty: map[types.Value]bool{},
	}
	if agg != nil {
		g.udaAgg = agg
		g.udaStates = map[types.Value]uda.State{}
		g.udaKeys = map[types.Value]types.Tuple{}
		return g, nil
	}
	for _, as := range spec.Aggs {
		a, err := uda.NewScalarAgg(as.Fn)
		if err != nil {
			return nil, err
		}
		g.aggs = append(g.aggs, a)
		g.argExprs = append(g.argExprs, as.Args)
	}
	g.argKerns = compileArgKernels(g.argExprs, schema)
	return g, nil
}

// compileArgKernels compiles every aggregate argument against the input
// schema, all-or-nothing: one uncompilable argument keeps the whole
// operator on the scratch-tuple bridge (mixing kernel and interpreted
// arguments per row would forfeit the win).
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

// vecGrid allocates caller-owned result vectors shaped like the kernel
// grid.
func vecGrid(kerns [][]*expr.Kernel) [][]*types.Vec {
	out := make([][]*types.Vec, len(kerns))
	for i, ks := range kerns {
		out[i] = make([]*types.Vec, len(ks))
		for j := range ks {
			out[i][j] = new(types.Vec)
		}
	}
	return out
}

// evalArgKernels evaluates a kernel grid over the batch — new images for
// every row, old images for the given replace rows — declining as a unit.
func evalArgKernels(kerns [][]*expr.Kernel, vecs, oldVecs [][]*types.Vec, b *types.DeltaBatch, rows, oldRows []int32) bool {
	for i, ks := range kerns {
		for j, k := range ks {
			if !k.EvalInto(b, false, rows, vecs[i][j]) {
				return false
			}
			if len(oldRows) > 0 && !k.EvalInto(b, true, oldRows, oldVecs[i][j]) {
				return false
			}
		}
	}
	return true
}

// identityRows returns the dense selection [0, n), reusing rows.
func identityRows(rows []int32, n int) []int32 {
	rows = rows[:0]
	for i := 0; i < n; i++ {
		rows = append(rows, int32(i))
	}
	return rows
}

// vecArgs boxes one row's evaluated arguments. The slice is freshly
// allocated per row because aggregate Update may retain it.
func vecArgs(vecs []*types.Vec, i int) []types.Value {
	if len(vecs) == 0 {
		return nil
	}
	out := make([]types.Value, len(vecs))
	for j, v := range vecs {
		out[j] = v.Value(i)
	}
	return out
}

// batchKeyTuple projects the group-key columns of row i (new or old
// image) into a fresh tuple — the retained keyTuple of a new group,
// matching Tuple.Project on the materialized row.
func batchKeyTuple(b *types.DeltaBatch, i int, key []int, old bool) types.Tuple {
	out := make(types.Tuple, len(key))
	for j, c := range key {
		if old {
			out[j] = b.OldCol(c).Value(i)
		} else {
			out[j] = b.Col(c).Value(i)
		}
	}
	return out
}

// Push folds a batch into group state. With compiled argument kernels,
// keys come columnar off KeyAt and arguments off typed result vectors —
// no scratch-tuple materialization at all; otherwise rows fold through
// reused scratch tuples. UDA mode hands each row to the aggregator.
func (g *groupByOp) Push(port int, b *types.DeltaBatch) error {
	if g.udaAgg != nil {
		return g.pushUDA(b)
	}
	if b.Len() > 0 {
		if g.argKerns != nil {
			if done, err := g.pushKernel(b); done {
				return err
			}
			kernelFallbackEvals.Add(1)
		} else {
			kernelBridgedBatches.Add(1)
		}
	}
	return g.pushBridged(b)
}

// pushKernel folds the batch through compiled argument kernels and
// columnar key extraction. It declines (false) before touching group
// state, so pushBridged can re-run the whole batch from scratch.
func (g *groupByOp) pushKernel(b *types.DeltaBatch) (bool, error) {
	n := b.Len()
	g.oldRows = g.oldRows[:0]
	for i := 0; i < n; i++ {
		if b.Op(i) == types.OpReplace {
			g.oldRows = append(g.oldRows, int32(i))
		}
	}
	if len(g.oldRows) > 0 && !b.HasOld() {
		// The interpreter's replace handling without an old image
		// differs per aggregate; let the bridge reproduce it.
		return false, nil
	}
	g.rows = identityRows(g.rows, n)
	if g.argVecs == nil {
		g.argVecs = vecGrid(g.argKerns)
		g.oldVecs = vecGrid(g.argKerns)
	}
	if !evalArgKernels(g.argKerns, g.argVecs, g.oldVecs, b, g.rows, g.oldRows) {
		return false, nil
	}
	kernelVectorBatches.Add(1)
	for i := 0; i < n; i++ {
		op := b.Op(i)
		key := b.KeyAt(i, g.spec.GroupKey)
		gs, ok := g.groups[key]
		if !ok {
			gs = &groupState{keyTuple: batchKeyTuple(b, i, g.spec.GroupKey, false)}
			gs.states = make([]uda.State, len(g.aggs))
			for j, a := range g.aggs {
				gs.states[j] = a.NewState()
			}
			g.groups[key] = gs
		}
		for j, a := range g.aggs {
			var oldArgs []types.Value
			if op == types.OpReplace {
				oldArgs = vecArgs(g.oldVecs[j], i)
			}
			if err := a.Update(gs.states[j], op, vecArgs(g.argVecs[j], i), oldArgs); err != nil {
				return true, fmt.Errorf("exec: group-by %s: %w", a.Name(), err)
			}
		}
		g.dirty[key] = true
		g.ckptDirty[key] = true
	}
	return true, nil
}

// pushBridged folds batch rows through reused scratch tuples —
// everything retained from a row (the map key, the projected key tuple,
// evaluated arguments) is freshly built by apply, so no per-row delta
// materialization is needed. This is a documented expr interpreter
// fallback site.
func (g *groupByOp) pushBridged(b *types.DeltaBatch) error {
	var scratch, oldScratch types.Tuple
	for i := 0; i < b.Len(); i++ {
		op := b.Op(i)
		scratch = b.Row(i, scratch)
		var old types.Tuple
		if op == types.OpReplace && b.HasOld() {
			oldScratch = b.OldRow(i, oldScratch)
			old = oldScratch
		}
		if err := g.apply(op, scratch, old); err != nil {
			return err
		}
	}
	return nil
}

// apply folds one delta into scalar aggregate state. It retains nothing
// from tup or old (Key and Project copy; evaluated args are fresh), so
// callers may pass reused scratch tuples.
func (g *groupByOp) apply(op types.Op, tup, old types.Tuple) error {
	key := tup.Key(g.spec.GroupKey)
	gs, ok := g.groups[key]
	if !ok {
		gs = &groupState{keyTuple: tup.Project(g.spec.GroupKey)}
		gs.states = make([]uda.State, len(g.aggs))
		for i, a := range g.aggs {
			gs.states[i] = a.NewState()
		}
		g.groups[key] = gs
	}
	for i, a := range g.aggs {
		args, err := evalArgs(g.argExprs[i], tup)
		if err != nil {
			return err
		}
		var oldArgs []types.Value
		if op == types.OpReplace {
			if oldArgs, err = evalArgs(g.argExprs[i], old); err != nil {
				return err
			}
		}
		if err := a.Update(gs.states[i], op, args, oldArgs); err != nil {
			return fmt.Errorf("exec: group-by %s: %w", a.Name(), err)
		}
	}
	g.dirty[key] = true
	g.ckptDirty[key] = true
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
			g.udaKeys[key] = d.Tup.Project(g.spec.GroupKey)
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

func evalArgs(exprs []expr.Expr, t types.Tuple) ([]types.Value, error) {
	if len(exprs) == 0 {
		return nil, nil
	}
	out := make([]types.Value, len(exprs))
	for i, e := range exprs {
		v, err := e.Eval(t)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
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
	} else if err := g.flushScalar(); err != nil {
		return err
	}
	return g.outs.punct(stratum, g.tracker.allClosed())
}

func (g *groupByOp) flushScalar() error {
	var out []types.Delta
	for key := range g.dirty {
		gs := g.groups[key]
		cur := make(types.Tuple, 0, len(gs.keyTuple)+len(g.aggs))
		cur = append(cur, gs.keyTuple...)
		for i, a := range g.aggs {
			cur = append(cur, a.Result(gs.states[i]))
		}
		if gs.last == nil {
			out = append(out, types.Insert(cur))
		} else if !gs.last.Equal(cur) {
			out = append(out, types.Replace(gs.last, cur))
		}
		gs.last = cur
	}
	g.dirty = map[types.Value]bool{}
	if g.spec.ResetPerStratum {
		g.groups = map[types.Value]*groupState{}
	}
	return g.outs.send(out)
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
		delete(g.udaKeys, key)
	}
	return g.outs.send(out)
}

// ReopenRound re-arms punctuation for a standing query's next ingestion
// round; group state stays resident so revisions emit replacements against
// the last flushed results.
func (g *groupByOp) ReopenRound() { g.tracker.reopen() }

func (g *groupByOp) Reset() {
	g.groups = map[types.Value]*groupState{}
	g.dirty = map[types.Value]bool{}
	g.ckptDirty = map[types.Value]bool{}
	if g.udaAgg != nil {
		g.udaStates = map[types.Value]uda.State{}
		g.udaKeys = map[types.Value]types.Tuple{}
	}
	g.tracker.reset()
}

// DirtyState checkpoints groups revised during the stratum. Entry layout:
// [keyHash, nKey, key..., hasLast, last...(outLen), per-agg: stateLen, fields...].
func (g *groupByOp) DirtyState() []types.Tuple {
	if g.udaAgg != nil {
		return nil // UDA groups reset per stratum; nothing to restore
	}
	outLen := len(g.spec.GroupKey) + len(g.aggs)
	var out []types.Tuple
	for key := range g.ckptDirty {
		gs := g.groups[key]
		e := types.NewTuple(int64(types.HashValue(key)), int64(len(gs.keyTuple)))
		e = append(e, gs.keyTuple...)
		if gs.last == nil {
			e = append(e, false)
			for i := 0; i < outLen; i++ {
				e = append(e, nil)
			}
		} else {
			e = append(e, true)
			e = append(e, gs.last...)
		}
		for i, a := range g.aggs {
			st := a.Save(gs.states[i])
			e = append(e, int64(len(st)))
			e = append(e, st...)
		}
		out = append(out, e)
	}
	g.ckptDirty = map[types.Value]bool{}
	return out
}

// Restore rebuilds group state from checkpointed entries in stratum order
// (later strata override earlier ones for the same key). Every field is
// bounds-checked.
func (g *groupByOp) Restore(strata [][]types.Tuple) error {
	outLen := len(g.spec.GroupKey) + len(g.aggs)
	for _, entries := range strata {
		for _, e := range entries {
			bad := func(what string) error {
				return fmt.Errorf("exec: group-by restore: %s in entry %v", what, e)
			}
			if len(e) < 2 {
				return bad("missing key length")
			}
			nKey, ok := types.AsInt(e[1])
			keyTuple, inBounds := entrySpan(e, 2, nKey)
			if !ok || !inBounds {
				return bad("bad key length")
			}
			pos := 2 + len(keyTuple)
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
			gs := &groupState{keyTuple: keyTuple.Clone(), states: make([]uda.State, len(g.aggs))}
			if hasLast {
				gs.last = last.Clone()
			}
			for i, a := range g.aggs {
				if pos >= len(e) {
					return bad("missing aggregate state")
				}
				n, ok := types.AsInt(e[pos])
				st, inBounds := entrySpan(e, pos+1, n)
				if !ok || !inBounds {
					return bad("bad aggregate state length")
				}
				state, err := a.Load(st)
				if err != nil {
					return err
				}
				gs.states[i] = state
				pos += 1 + len(st)
			}
			g.groups[keyIndex(gs.keyTuple)] = gs
		}
	}
	return nil
}

// keyIndex rebuilds the map key for a stored key tuple.
func keyIndex(keyTuple types.Tuple) types.Value {
	idx := make([]int, len(keyTuple))
	for i := range idx {
		idx[i] = i
	}
	return keyTuple.Key(idx)
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
	aggs       []uda.ScalarAgg
	argExprs   [][]expr.Expr
	groups     map[types.Value]*groupState
	invertible bool

	// kernel path: see groupByOp.argKerns.
	argKerns [][]*expr.Kernel
	argVecs  [][]*types.Vec
	oldVecs  [][]*types.Vec
	rows     []int32
	oldRows  []int32
}

func newPreAggOp(spec *OpSpec, nin int, schema []types.Kind) (*preAggOp, error) {
	p := &preAggOp{spec: spec, tracker: newPortTracker(nin), groups: map[types.Value]*groupState{}, invertible: true}
	for _, as := range spec.Aggs {
		if as.Fn == "avg" || as.Fn == "argmin" {
			return nil, fmt.Errorf("exec: pre-aggregation of %s must be decomposed by the optimizer", as.Fn)
		}
		if as.Fn != "sum" && as.Fn != "count" {
			p.invertible = false
		}
		a, err := uda.NewScalarAgg(as.Fn)
		if err != nil {
			return nil, err
		}
		p.aggs = append(p.aggs, a)
		p.argExprs = append(p.argExprs, as.Args)
	}
	p.argKerns = compileArgKernels(p.argExprs, schema)
	return p, nil
}

// Push folds a batch into the stratum's partial state. With compiled
// argument kernels, keys and arguments stay columnar; otherwise rows
// stream through reused scratch tuples (fold retains nothing from its
// tuple).
func (p *preAggOp) Push(port int, b *types.DeltaBatch) error {
	if b.Len() > 0 {
		if p.argKerns != nil {
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

// pushKernel folds the batch through compiled argument kernels. It
// declines (false) before touching group state — including for the
// non-invertible-delta error cases, where pushBridged reproduces the
// interpreter's fold-then-error ordering exactly.
func (p *preAggOp) pushKernel(b *types.DeltaBatch) (bool, error) {
	n := b.Len()
	p.oldRows = p.oldRows[:0]
	for i := 0; i < n; i++ {
		switch b.Op(i) {
		case types.OpInsert, types.OpUpdate:
		case types.OpDelete:
			if !p.invertible {
				return false, nil
			}
		case types.OpReplace:
			if !p.invertible {
				return false, nil
			}
			p.oldRows = append(p.oldRows, int32(i))
		default:
			return false, nil
		}
	}
	if len(p.oldRows) > 0 && !b.HasOld() {
		return false, nil
	}
	p.rows = identityRows(p.rows, n)
	if p.argVecs == nil {
		p.argVecs = vecGrid(p.argKerns)
		p.oldVecs = vecGrid(p.argKerns)
	}
	if !evalArgKernels(p.argKerns, p.argVecs, p.oldVecs, b, p.rows, p.oldRows) {
		return false, nil
	}
	kernelVectorBatches.Add(1)
	for i := 0; i < n; i++ {
		op := b.Op(i)
		if op == types.OpReplace {
			// Old and new may land in different groups: net them apart.
			if err := p.foldKeyed(types.OpDelete, b, i, true); err != nil {
				return true, err
			}
			if err := p.foldKeyed(types.OpInsert, b, i, false); err != nil {
				return true, err
			}
			continue
		}
		if err := p.foldKeyed(op, b, i, false); err != nil {
			return true, err
		}
	}
	return true, nil
}

// foldKeyed is fold over one image (old or new) of batch row i, with the
// key extracted columnar and arguments read off the kernel result grid.
func (p *preAggOp) foldKeyed(op types.Op, b *types.DeltaBatch, i int, old bool) error {
	var key types.Value
	if old {
		key = b.OldKeyAt(i, p.spec.GroupKey)
	} else {
		key = b.KeyAt(i, p.spec.GroupKey)
	}
	gs, ok := p.groups[key]
	if !ok {
		gs = &groupState{keyTuple: batchKeyTuple(b, i, p.spec.GroupKey, old)}
		gs.states = make([]uda.State, len(p.aggs))
		for j, a := range p.aggs {
			gs.states[j] = a.NewState()
		}
		p.groups[key] = gs
	}
	vecs := p.argVecs
	if old {
		vecs = p.oldVecs
	}
	for j, a := range p.aggs {
		if err := a.Update(gs.states[j], op, vecArgs(vecs[j], i), nil); err != nil {
			return err
		}
	}
	return nil
}

// pushBridged streams batch rows through reused scratch tuples. This is
// a documented expr interpreter fallback site.
func (p *preAggOp) pushBridged(b *types.DeltaBatch) error {
	var scratch, oldScratch types.Tuple
	for i := 0; i < b.Len(); i++ {
		op := b.Op(i)
		scratch = b.Row(i, scratch)
		switch op {
		case types.OpInsert, types.OpUpdate:
			if err := p.fold(op, scratch); err != nil {
				return err
			}
		case types.OpDelete:
			if !p.invertible {
				return fmt.Errorf("exec: pre-aggregation over non-insert delta %v (aggregate is not invertible)", op)
			}
			if err := p.fold(op, scratch); err != nil {
				return err
			}
		case types.OpReplace:
			if !p.invertible {
				return fmt.Errorf("exec: pre-aggregation over non-insert delta %v (aggregate is not invertible)", op)
			}
			oldScratch = b.OldRow(i, oldScratch)
			if err := p.fold(types.OpDelete, oldScratch); err != nil {
				return err
			}
			if err := p.fold(types.OpInsert, scratch); err != nil {
				return err
			}
		default:
			return fmt.Errorf("exec: pre-aggregation over delta %v", op)
		}
	}
	return nil
}

func (p *preAggOp) fold(op types.Op, t types.Tuple) error {
	key := t.Key(p.spec.GroupKey)
	gs, ok := p.groups[key]
	if !ok {
		gs = &groupState{keyTuple: t.Project(p.spec.GroupKey)}
		gs.states = make([]uda.State, len(p.aggs))
		for i, a := range p.aggs {
			gs.states[i] = a.NewState()
		}
		p.groups[key] = gs
	}
	for i, a := range p.aggs {
		args, err := evalArgs(p.argExprs[i], t)
		if err != nil {
			return err
		}
		if err := a.Update(gs.states[i], op, args, nil); err != nil {
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
	var out []types.Delta
	for key, gs := range p.groups {
		t := make(types.Tuple, 0, len(gs.keyTuple)+len(p.aggs))
		t = append(t, gs.keyTuple...)
		for i, a := range p.aggs {
			t = append(t, a.Result(gs.states[i]))
		}
		out = append(out, types.Update(t))
		delete(p.groups, key)
	}
	if err := p.outs.send(out); err != nil {
		return err
	}
	return p.outs.punct(stratum, p.tracker.allClosed())
}

// ReopenRound re-arms punctuation for a standing query's next ingestion
// round (partial-aggregation state already resets per stratum).
func (p *preAggOp) ReopenRound() { p.tracker.reopen() }

func (p *preAggOp) Reset() {
	p.groups = map[types.Value]*groupState{}
	p.tracker.reset()
}
