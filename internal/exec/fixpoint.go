package exec

import (
	"fmt"

	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// fixpointOp is the while/fixpoint operator of §3.2/§4.2: it maintains the
// recursive query's mutable relation keyed by the FIXPOINT BY columns and
// feeds each stratum's Δ set back into the recursive sub-plan. Each delta
// is handed, with the relation's bucket for its key, to the while-state
// handler (§3.3): the plan's own, which refines the state in place, or
// setSemantics, which removes duplicate derivations, when it names none.
//
// Port 0 receives the base case, port 1 the recursive case. At the end of
// each stratum the operator reports its new-tuple count to the worker,
// which relays the vote to the query requestor; the requestor's decision
// (advance or terminate) arrives via Advance/Finish.
type fixpointOp struct {
	spec *OpSpec
	ctx  *Context

	recursiveOuts outputs
	finalOuts     outputs

	handler uda.WhileHandler
	// state holds the mutable relation, one side keyed by the FIXPOINT BY
	// columns.
	state *keyedStore

	// pending is the next stratum's Δ set: the handler emits into its
	// builder-owned batch, and its row count is the stratum's vote.
	// Advance flushes it into the recursive sub-plan.
	pending *uda.Emitter
	// rows is eachRow's buffer.
	rows rowBuf

	// stream enables per-stratum state-change emission: StreamDelta
	// produces each stratum's changelog against emitted (by group id, the
	// tuples the stream has asserted so far), and Finish suppresses the
	// final full-state flush — the concatenated stratum batches already
	// fold to it.
	stream  bool
	emitted [][]types.Tuple

	// onStratumEnd is the worker callback: checkpoint then vote.
	onStratumEnd func(stratum, newCount int)
}

// newFixpointOp builds a fixpoint that runs handler, the plan's named
// while handler, or set semantics when the plan names none.
func newFixpointOp(spec *OpSpec, ctx *Context, handler uda.WhileHandler) *fixpointOp {
	if spec.WhileHandlerName == "" {
		handler = setSemantics{}
	}
	f := &fixpointOp{spec: spec, ctx: ctx, handler: handler, state: newKeyedStore(len(spec.FixpointKey), "S")}
	f.pending = uda.NewEmitter(0) // the relation's first row sets the width
	f.pending.FlushEvery(0, func(b *types.DeltaBatch) error { return f.recursiveOuts.sendBatch(b) })
	return f
}

// Push finds the batch's keys once, then folds its rows one by one into
// the mutable relation.
func (f *fixpointOp) Push(port int, b *types.DeltaBatch) error {
	gids, _ := f.state.groupsOf(b, f.spec.FixpointKey, false)
	err := eachRow(b, &f.rows, func(i int, d types.Delta) error {
		set := f.state.set(0, gids[i])
		v0 := f.state.version(0, set)
		if err := f.handler.Update(set, d, f.pending); err != nil {
			return fmt.Errorf("exec: while handler %s: %w", f.handler.Name(), err)
		}
		f.state.touched(0, gids[i], set, v0)
		return nil
	})
	f.state.release(gids, nil)
	return err
}

// setSemantics is the while-state handler of a plan that names none: the
// fixpoint "removes duplicate tuples according to a query-specified key,
// by maintaining a set of processed tuples" (§4.2). A key's bucket holds
// its one current tuple. A derivation equal to it is a duplicate and is
// dropped; a different one replaces it and propagates; a delete removes
// it, whatever its value.
type setSemantics struct{}

func (setSemantics) Name() string { return "set-semantics" }

func (setSemantics) Update(rel *uda.TupleSet, d types.Delta, out *uda.Emitter) error {
	if rel.Len() == 0 {
		if d.Op == types.OpDelete {
			return nil
		}
		rel.Add(d.Tup)
		return out.Emit(types.Insert(d.Tup))
	}
	if d.Op != types.OpDelete && rel.RowEqual(0, d.Tup) {
		return nil // duplicate derivation
	}
	cur := rel.Row(0)
	if d.Op == types.OpDelete {
		rel.RemoveAt(0)
		return out.Emit(types.Delete(cur))
	}
	rel.Set(0, d.Tup)
	return out.Emit(types.Replace(cur, d.Tup))
}

// Punct ends the stratum: base-case punctuation closes stratum 0, and the
// recursive case closes every later stratum.
func (f *fixpointOp) Punct(port, stratum int, closed bool) error {
	if port != 0 && port != 1 {
		return fmt.Errorf("exec: fixpoint punct port %d out of range", port)
	}
	if f.onStratumEnd != nil {
		f.onStratumEnd(stratum, f.PendingCount())
	}
	return nil
}

// Advance starts stratum next: the buffered Δ set flows into the recursive
// sub-plan followed by its punctuation. In NoDelta mode the entire mutable
// relation is re-fed instead — re-processing all mutable data each
// iteration, like the non-incremental systems of §6. The Δ batch is
// detached while it goes downstream and empty by the time the
// punctuation runs, which re-enters Push with the next stratum's Δ.
func (f *fixpointOp) Advance(next int) error {
	if f.spec.NoDelta {
		f.pending.Batch().Reset()
		for set := range f.state.all(0) {
			for i := 0; i < set.Len(); i++ {
				f.pending.Begin(types.OpUpdate)
				for c := 0; c < set.Width(i); c++ {
					f.pending.Field(set, i, c)
				}
				if err := f.pending.End(); err != nil {
					return err
				}
			}
		}
	}
	f.ctx.Stratum = next
	if err := f.pending.Flush(); err != nil {
		return err
	}
	return f.recursiveOuts.punct(next, false)
}

// Finish emits the final mutable relation and closes the output. In
// streaming mode the relation already reached the requestor as per-stratum
// changelogs, so only the closing punctuation is sent.
func (f *fixpointOp) Finish() error {
	if !f.stream {
		if err := f.sendRelation(); err != nil {
			return err
		}
	}
	return f.finalOuts.punct(f.ctx.Stratum, true)
}

// sendRelation sends the relation's tuples as insertions straight from
// the sets' lanes, in batches of at most flushChunk rows, each of one
// width.
func (f *fixpointOp) sendRelation() error {
	const flushChunk = 4096
	b := types.GetBatch()
	defer types.PutBatch(b)
	var row []types.Scalar
	for set := range f.state.all(0) {
		for i := 0; i < set.Len(); i++ {
			row = set.Scalars(i, row[:0])
			if b.Len() > 0 && (b.Len() == flushChunk || b.NumCols() != len(row)) {
				if err := f.finalOuts.sendBatch(b); err != nil {
					return err
				}
				b.Reset()
			}
			b.AppendScalars(types.OpInsert, row, nil)
		}
	}
	return f.finalOuts.sendBatch(b)
}

// PendingCount reports the buffered Δ set size (the restored vote count
// after incremental recovery).
func (f *fixpointOp) PendingCount() int { return f.pending.Batch().Len() }

// StreamDelta computes the stratum's state-change batch: for every key
// dirtied this stratum, the deltas that revise what the stream has emitted
// so far into the key's current state. It reads (never clears) the dirty
// set — checkpointing still needs it; the worker clears it afterwards via
// ClearDirty. The ledger keeps fresh tuples, which the batch shares: the
// ledger only ever replaces its tuples, and the worker encodes the batch
// before the next stratum.
func (f *fixpointOp) StreamDelta() []types.Delta {
	dirty := f.state.dirty(0)
	out := make([]types.Delta, 0, len(dirty))
	for _, g := range dirty {
		cur := f.state.set(0, g)
		if int(g) >= len(f.emitted) {
			f.emitted = append(f.emitted, make([][]types.Tuple, int(g)+1-len(f.emitted))...)
		}
		prev := f.emitted[g]
		if setEqual(cur, prev) {
			continue // dirtied but settled back to what was emitted
		}
		if len(prev) == 1 && cur.Len() == 1 {
			next := cur.RowLike(0, prev[0])
			out = append(out, types.Replace(prev[0], next))
			prev[0] = next // the ledger slice is reused in place
			continue
		}
		for _, t := range prev {
			out = append(out, types.Delete(t))
		}
		next := make([]types.Tuple, cur.Len())
		for i := range next {
			next[i] = cur.Row(i)
			out = append(out, types.Insert(next[i]))
		}
		f.emitted[g] = next
	}
	return out
}

// ClearDirty resets the per-stratum dirty-key set (streaming path; the
// checkpoint path clears it through DirtyState).
func (f *fixpointOp) ClearDirty() { f.state.clearDirty(0) }

// setEqual reports whether set holds exactly the tuples ts, in order.
func setEqual(set *uda.TupleSet, ts []types.Tuple) bool {
	if set.Len() != len(ts) {
		return false
	}
	for i, t := range ts {
		if !set.RowEqual(i, t) {
			return false
		}
	}
	return true
}

func (f *fixpointOp) Reset() {
	f.state.reset()
	f.pending.Batch().Reset()
	f.emitted = nil
}

// DirtyState checkpoints (a) the state entries revised this stratum and
// (b) the pending Δ set, which must survive a failure to resume the next
// stratum. Layouts:
//
//	state:   [keyHash, "S", key, fields...]   (tombstone: no fields)
//	pending: [keyHash, "P", op, len(fields), fields..., oldFields...]
//
// A pending replace carries its old image after the new one; downstream
// operators index it.
func (f *fixpointOp) DirtyState() []types.Tuple {
	out := f.state.appendDirty(0, nil)
	pb := f.pending.Batch()
	var row types.Tuple
	for i := 0; i < pb.Len(); i++ {
		row = pb.Row(i, row)
		h := int64(row.HashKey(f.spec.FixpointKey))
		e := append(types.NewTuple(h, "P", int64(pb.Op(i)), int64(len(row))), row...)
		if pb.Op(i) == types.OpReplace {
			e = append(e, pb.OldRow(i, row)...)
		}
		out = append(out, e)
	}
	return out
}

// Restore rebuilds state from checkpointed strata in order; pending deltas
// are taken from the final stratum only (earlier strata's Δ sets were
// already consumed by their next stratum).
func (f *fixpointOp) Restore(strata [][]types.Tuple) error {
	for si, entries := range strata {
		last := si == len(strata)-1
		fresh := map[int32]bool{}
		for _, e := range entries {
			if len(e) < 3 {
				return fmt.Errorf("exec: fixpoint restore: bad entry %v", e)
			}
			tag, _ := e[1].(string)
			switch tag {
			case "S":
				if err := f.state.restore(0, e, fresh); err != nil {
					return fmt.Errorf("exec: fixpoint restore: %w", err)
				}
			case "P":
				if !last {
					continue
				}
				d, err := pendingEntry(e, f.spec.FixpointKey)
				if err != nil {
					return err
				}
				if err := f.pending.Emit(d); err != nil {
					return fmt.Errorf("exec: fixpoint restore: %w", err)
				}
			default:
				return fmt.Errorf("exec: fixpoint restore: unknown tag %v", e[1])
			}
		}
	}
	return nil
}

// pendingEntry decodes a checkpointed pending delta (a "P" entry of at
// least three fields), checking every field and that the tuple holds the
// key columns. The delta aliases e.
func pendingEntry(e types.Tuple, key []int) (types.Delta, error) {
	op, ok := types.AsInt(e[2])
	if !ok || op < int64(types.OpInsert) || op > int64(types.OpUpdate) {
		return types.Delta{}, fmt.Errorf("exec: fixpoint restore: bad pending op in %v", e)
	}
	if len(e) < 4 {
		return types.Delta{}, fmt.Errorf("exec: fixpoint restore: missing pending length in %v", e)
	}
	n, ok := types.AsInt(e[3])
	tup, inBounds := entrySpan(e, 4, n)
	if !ok || !inBounds {
		return types.Delta{}, fmt.Errorf("exec: fixpoint restore: bad pending length in %v", e)
	}
	for _, c := range key {
		if c >= len(tup) {
			return types.Delta{}, fmt.Errorf("exec: fixpoint restore: pending tuple lacks key column %d in %v", c, e)
		}
	}
	d := types.Delta{Op: types.Op(op), Tup: tup}
	old := e[4+len(tup):]
	if d.Op == types.OpReplace {
		d.Old = old
	} else if len(old) > 0 {
		return types.Delta{}, fmt.Errorf("exec: fixpoint restore: old image on a %v delta in %v", d.Op, e)
	}
	return d, nil
}
