package exec

import (
	"fmt"

	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// fixpointOp is the while/fixpoint operator of §3.2/§4.2: it maintains the
// recursive query's mutable relation keyed by the FIXPOINT BY columns,
// feeds each stratum's Δ set back into the recursive sub-plan, removes
// duplicate derivations (set semantics), and — with a while-state delta
// handler installed — lets user code refine the state in place rather than
// accumulate it (§3.3).
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
	// buckets holds handler-managed state per key (handler mode).
	buckets map[types.Value]*uda.TupleSet
	// state holds the mutable relation in default set-semantics mode.
	state map[types.Value]types.Tuple

	// pending is the next stratum's Δ set: the while handler and the
	// set-semantics path both emit into its builder-owned batch, and its
	// row count is the stratum's vote. Advance flushes it into the
	// recursive sub-plan.
	pending *uda.Emitter
	// rows is eachRow's scratch.
	rows []types.Delta

	dirty map[types.Value]bool

	// stream enables per-stratum state-change emission: StreamDelta
	// produces each stratum's changelog against emitted (the per-key
	// tuples the stream has asserted so far), and Finish suppresses the
	// final full-state flush — the concatenated stratum batches already
	// fold to it.
	stream  bool
	emitted map[types.Value][]types.Tuple

	// onStratumEnd is the worker callback: checkpoint then vote.
	onStratumEnd func(stratum, newCount int)
}

func newFixpointOp(spec *OpSpec, ctx *Context, handler uda.WhileHandler) *fixpointOp {
	f := &fixpointOp{
		spec:    spec,
		ctx:     ctx,
		handler: handler,
		buckets: map[types.Value]*uda.TupleSet{},
		state:   map[types.Value]types.Tuple{},
		dirty:   map[types.Value]bool{},
	}
	f.pending = uda.NewEmitter(0) // the relation's first row sets the width
	f.pending.FlushEvery(0, func(b *types.DeltaBatch) error { return f.recursiveOuts.sendBatch(b) })
	return f
}

// Push folds the batch row by row into the mutable relation, which keeps
// the rows' tuples.
func (f *fixpointOp) Push(port int, b *types.DeltaBatch) error {
	return eachRow(b, &f.rows, f.update)
}

func (f *fixpointOp) update(d types.Delta) error {
	key := d.Tup.Key(f.spec.FixpointKey)
	if f.handler == nil {
		return f.defaultUpdate(key, d)
	}
	b, ok := f.buckets[key]
	if !ok {
		b = &uda.TupleSet{}
		f.buckets[key] = b
	}
	v0 := b.Version()
	if err := f.handler.Update(b, d, f.pending); err != nil {
		return fmt.Errorf("exec: while handler %s: %w", f.handler.Name(), err)
	}
	if b.Version() != v0 {
		f.dirty[key] = true
	}
	return nil
}

// defaultUpdate implements the handler-less semantics: the fixpoint
// "removes duplicate tuples according to a query-specified key, by
// maintaining a set of processed tuples" (§4.2). A tuple whose key exists
// with an identical value is a duplicate derivation and is dropped; a
// different value replaces the stored one and propagates.
func (f *fixpointOp) defaultUpdate(key types.Value, d types.Delta) error {
	existing, ok := f.state[key]
	switch d.Op {
	case types.OpInsert, types.OpUpdate:
		if ok && existing.Equal(d.Tup) {
			return nil // duplicate derivation
		}
		f.state[key] = d.Tup
		f.dirty[key] = true
		if ok {
			return f.pending.Emit(types.Replace(existing, d.Tup))
		}
		return f.pending.Emit(types.Insert(d.Tup))
	case types.OpDelete:
		if ok {
			delete(f.state, key)
			f.dirty[key] = true
			return f.pending.Emit(types.Delete(existing))
		}
	case types.OpReplace:
		if ok && existing.Equal(d.Tup) {
			return nil
		}
		f.state[key] = d.Tup
		f.dirty[key] = true
		if ok {
			return f.pending.Emit(types.Replace(existing, d.Tup))
		}
		return f.pending.Emit(types.Insert(d.Tup))
	}
	return nil
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
		if f.handler != nil {
			for _, b := range f.buckets {
				for _, t := range b.Tuples {
					if err := f.pending.Emit(types.Update(t)); err != nil {
						return err
					}
				}
			}
		} else {
			for _, t := range f.state {
				if err := f.pending.Emit(types.Update(t)); err != nil {
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
	if f.stream {
		return f.finalOuts.punct(f.ctx.Stratum, true)
	}
	var out []types.Delta
	if f.handler != nil {
		for _, b := range f.buckets {
			for _, t := range b.Tuples {
				out = append(out, types.Insert(t))
			}
		}
	} else {
		for _, t := range f.state {
			out = append(out, types.Insert(t))
		}
	}
	const flushChunk = 4096
	for len(out) > 0 {
		n := min(flushChunk, len(out))
		if err := f.finalOuts.send(out[:n]); err != nil {
			return err
		}
		out = out[n:]
	}
	return f.finalOuts.punct(f.ctx.Stratum, true)
}

// PendingCount reports the buffered Δ set size (the restored vote count
// after incremental recovery).
func (f *fixpointOp) PendingCount() int { return f.pending.Batch().Len() }

// StreamDelta computes the stratum's state-change batch: for every key
// dirtied this stratum, the deltas that revise what the stream has emitted
// so far into the key's current state. It reads (never clears) the dirty
// set — checkpointing still needs it; the worker clears it afterwards via
// ClearDirty. Tuples are cloned into the emitted ledger because handler
// buckets may revise them in place in later strata.
func (f *fixpointOp) StreamDelta() []types.Delta {
	if f.emitted == nil {
		f.emitted = map[types.Value][]types.Tuple{}
	}
	var out []types.Delta
	for key := range f.dirty {
		var cur []types.Tuple
		if f.handler != nil {
			if b := f.buckets[key]; b != nil {
				cur = b.Tuples
			}
		} else if t, ok := f.state[key]; ok {
			cur = []types.Tuple{t}
		}
		prev := f.emitted[key]
		if tuplesEqual(prev, cur) {
			continue // dirtied but settled back to what was emitted
		}
		switch {
		case len(prev) == 1 && len(cur) == 1:
			out = append(out, types.Replace(prev[0], cur[0].Clone()))
		default:
			for _, t := range prev {
				out = append(out, types.Delete(t))
			}
			for _, t := range cur {
				out = append(out, types.Insert(t.Clone()))
			}
		}
		if len(cur) == 0 {
			delete(f.emitted, key)
		} else {
			next := make([]types.Tuple, len(cur))
			for i, t := range cur {
				next[i] = t.Clone()
			}
			f.emitted[key] = next
		}
	}
	return out
}

// ClearDirty resets the per-stratum dirty-key set (streaming path; the
// checkpoint path clears it through DirtyState).
func (f *fixpointOp) ClearDirty() {
	if len(f.dirty) > 0 {
		f.dirty = map[types.Value]bool{}
	}
}

func tuplesEqual(a, b []types.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func (f *fixpointOp) Reset() {
	f.buckets = map[types.Value]*uda.TupleSet{}
	f.state = map[types.Value]types.Tuple{}
	f.pending.Batch().Reset()
	f.dirty = map[types.Value]bool{}
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
	var out []types.Tuple
	for key := range f.dirty {
		h := int64(types.HashValue(key))
		if f.handler != nil {
			b := f.buckets[key]
			if b == nil || b.Len() == 0 {
				out = append(out, types.NewTuple(h, "S", key))
				continue
			}
			for _, t := range b.Tuples {
				out = append(out, append(types.NewTuple(h, "S", key), t...))
			}
			continue
		}
		t, ok := f.state[key]
		if !ok {
			out = append(out, types.NewTuple(h, "S", key))
			continue
		}
		out = append(out, append(types.NewTuple(h, "S", key), t...))
	}
	f.dirty = map[types.Value]bool{}
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
		seen := map[types.Value]bool{}
		for _, e := range entries {
			if len(e) < 3 {
				return fmt.Errorf("exec: fixpoint restore: bad entry %v", e)
			}
			tag, _ := e[1].(string)
			switch tag {
			case "S":
				key := e[2]
				if f.handler != nil {
					if !seen[key] {
						seen[key] = true
						f.buckets[key] = &uda.TupleSet{}
					}
					if len(e) > 3 {
						f.buckets[key].Add(e[3:].Clone())
					}
				} else {
					if len(e) > 3 {
						f.state[key] = e[3:].Clone()
					} else {
						delete(f.state, key)
					}
				}
			case "P":
				if !last {
					continue
				}
				d, err := pendingEntry(e)
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
// least three fields), checking every field. The delta aliases e.
func pendingEntry(e types.Tuple) (types.Delta, error) {
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
	d := types.Delta{Op: types.Op(op), Tup: tup}
	old := e[4+len(tup):]
	if d.Op == types.OpReplace {
		d.Old = old
	} else if len(old) > 0 {
		return types.Delta{}, fmt.Errorf("exec: fixpoint restore: old image on a %v delta in %v", d.Op, e)
	}
	return d, nil
}
