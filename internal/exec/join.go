package exec

import (
	"fmt"

	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// hashJoinOp is REX's pipelined hash join extended with delta propagation
// (§3.3). Each input delta is handed, with the buckets for its join key, to
// the join-state handler — the paper's UPDATE(LEFTBUCKET, RIGHTBUCKET, D):
// the plan's own, or the Gupta-Mumick rules (guptaMumick) when it names
// none. The handler accumulates the delta into its side's bucket and
// probes the opposite one — the pipelined form of §3.2.
type hashJoinOp struct {
	spec *OpSpec
	outs outputs

	tracker *portTracker
	handler uda.JoinHandler

	// state holds the left (port 0, side 0) and right (port 1, side 1)
	// buckets under one key index; keys are each port's key columns.
	state *keyedStore
	keys  [2][]int

	// out is where the handler writes results: a pooled batch that goes
	// downstream every batchSize rows (0: once per input batch) —
	// mid-handler for a hub key — and at the end of each Push, so one
	// input batch (a whole stratum's Δ set on fixpointOp.Advance) never
	// materializes its entire join result. The batch is detached while it
	// goes downstream.
	out *uda.Emitter
	// rows is eachRow's buffer.
	rows rowBuf
}

// newHashJoinOp builds a join that runs handler, the plan's named join
// handler, or the Gupta-Mumick rules when the plan names none.
func newHashJoinOp(spec *OpSpec, handler uda.JoinHandler, batchSize int) *hashJoinOp {
	if spec.JoinHandlerName == "" {
		handler = guptaMumick{}
	}
	j := &hashJoinOp{
		spec: spec, tracker: newPortTracker(2), handler: handler,
		state: newKeyedStore(len(spec.LeftKey), int64(0), int64(1)),
		keys:  [2][]int{spec.LeftKey, spec.RightKey},
	}
	// DirtyState skips the immutable side, so only the other side records
	// dirty keys.
	if spec.ImmutablePort == 0 || spec.ImmutablePort == 1 {
		j.state.untrack(spec.ImmutablePort)
	}
	width := 0 // no schema: the first row sets the width
	if handler.OutSchema() != nil {
		width = handler.OutSchema().Len()
	}
	j.out = uda.NewEmitter(width)
	j.out.FlushEvery(batchSize, func(b *types.DeltaBatch) error { return j.outs.sendBatch(b) })
	return j
}

// Push finds the batch's keys once, then hands the handler its rows, one
// by one, with the key's buckets.
func (j *hashJoinOp) Push(port int, b *types.DeltaBatch) error {
	if port != 0 && port != 1 {
		return fmt.Errorf("exec: join port %d out of range", port)
	}
	gids, olds := j.state.groupsOf(b, j.keys[port], true)
	err := eachRow(b, &j.rows, func(i int, d types.Delta) error {
		if d.Op == types.OpReplace && olds != nil && olds[i] != gids[i] {
			// A replacement whose key changed is a deletion at the old
			// key and an insertion at the new key.
			if err := j.update(port, olds[i], types.Delete(d.Old)); err != nil {
				return err
			}
			return j.update(port, gids[i], types.Insert(d.Tup))
		}
		return j.update(port, gids[i], d)
	})
	j.state.release(gids, olds)
	if err != nil {
		return err
	}
	return j.out.Flush()
}

// update runs the handler on d with group g's buckets.
func (j *hashJoinOp) update(port int, g int32, d types.Delta) error {
	lb, rb := j.state.set(0, g), j.state.set(1, g)
	lv, rv := j.state.version(0, lb), j.state.version(1, rb)
	if err := j.handler.Update(lb, rb, d, port == 0, j.out); err != nil {
		return fmt.Errorf("exec: join handler %s: %w", j.handler.Name(), err)
	}
	j.state.touched(0, g, lb, lv)
	j.state.touched(1, g, rb, rv)
	return nil
}

// guptaMumick is the join-state handler of a plan that names none: the
// Gupta-Mumick delta rules. A delta revises its own side's bucket and
// joins with every opposite tuple under its annotation; a same-key
// replacement emits the replacement of every joined row. δ() has no
// special semantics: the annotation rides along as a hidden attribute
// (§3.3), so the tuple is an insertion for state purposes and the output
// keeps δ.
type guptaMumick struct{}

func (guptaMumick) Name() string { return "gupta-mumick" }

// OutSchema is nil: rows are the left fields then the right fields.
func (guptaMumick) OutSchema() *types.Schema { return nil }

func (guptaMumick) Update(left, right *uda.TupleSet, d types.Delta, fromLeft bool, out *uda.Emitter) error {
	mine, opp := left, right
	if !fromLeft {
		mine, opp = right, left
	}
	switch d.Op {
	case types.OpInsert, types.OpUpdate:
		mine.Add(d.Tup)
	case types.OpDelete:
		mine.Remove(d.Tup)
	case types.OpReplace:
		if !mine.ReplaceFirst(d.Old, d.Tup) {
			mine.Add(d.Tup)
		}
	}
	for i := 0; i < opp.Len(); i++ {
		out.Begin(d.Op)
		joined(out, fromLeft, d.Tup, opp, i)
		if d.Op == types.OpReplace {
			joined(out, fromLeft, d.Old, opp, i)
		}
		if err := out.End(); err != nil {
			return err
		}
	}
	return nil
}

// joined supplies the open output row's columns: left fields then right
// fields, whichever side the delta arrived on; the opposite side's are
// tuple i of opp.
func joined(out *uda.Emitter, fromLeft bool, mine types.Tuple, opp *uda.TupleSet, i int) {
	if !fromLeft {
		for c := 0; c < opp.Width(i); c++ {
			out.Field(opp, i, c)
		}
	}
	for _, v := range mine {
		out.Value(v)
	}
	if fromLeft {
		for c := 0; c < opp.Width(i); c++ {
			out.Field(opp, i, c)
		}
	}
}

func (j *hashJoinOp) Punct(port, stratum int, closed bool) error {
	done, err := j.tracker.mark(port, stratum, closed)
	if err != nil {
		return err
	}
	if !done {
		return nil
	}
	return j.outs.punct(stratum, j.tracker.allClosed())
}

// ReopenRound re-arms punctuation for a standing query's next ingestion
// round; buckets stay resident so base deltas probe accumulated state.
func (j *hashJoinOp) ReopenRound() { j.tracker.reopen() }

func (j *hashJoinOp) Reset() {
	j.state.reset()
	j.tracker.reset()
}

// untrack stops both sides recording dirty keys: with checkpointing off
// nothing calls DirtyState.
func (j *hashJoinOp) untrack() {
	j.state.untrack(0)
	j.state.untrack(1)
}

// DirtyState checkpoints the buckets mutated this stratum, tagged with
// their side (int64 0 or 1). Buckets on a purely immutable input (rebuilt
// from base scans during recovery) record no dirty keys, so they are
// skipped.
func (j *hashJoinOp) DirtyState() []types.Tuple {
	return j.state.appendDirty(1, j.state.appendDirty(0, nil))
}

// Restore rebuilds the mutable buckets from checkpoints, applying strata in
// order; within a stratum, the first entry for a (side, key) resets the
// bucket.
func (j *hashJoinOp) Restore(strata [][]types.Tuple) error {
	for _, entries := range strata {
		fresh := [2]map[int32]bool{{}, {}}
		for _, e := range entries {
			if len(e) < 3 {
				return fmt.Errorf("exec: join restore: short entry %v", e)
			}
			side, ok := e[1].(int64)
			if !ok || side < 0 || side > 1 {
				return fmt.Errorf("exec: join restore: bad side in %v", e)
			}
			if err := j.state.restore(int(side), e, fresh[side]); err != nil {
				return fmt.Errorf("exec: join restore: %w", err)
			}
		}
	}
	return nil
}
