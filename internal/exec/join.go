package exec

import (
	"fmt"

	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// hashJoinOp is REX's pipelined hash join extended with delta propagation
// (§3.3): insertions/deletions/replacements follow the Gupta-Mumick rules;
// δ() value-updates are interpreted by a user-supplied join-state handler
// when one is installed (the paper's UPDATE(LEFTBUCKET, RIGHTBUCKET, D)).
//
// Each input tuple is accumulated into its side's bucket and immediately
// probed against the opposite bucket — the pipelined form of §3.2.
type hashJoinOp struct {
	spec *OpSpec
	outs outputs

	tracker *portTracker
	handler uda.JoinHandler

	left, right map[types.Value]*uda.TupleSet
	// dirty records bucket keys mutated in the current stratum, per side.
	dirty [2]map[types.Value]bool

	// out is where the handler and the plain probe both write results: a
	// pooled batch that goes downstream every batchSize rows (0: once per
	// input batch) — mid-handler for a hub key — and at the end of each
	// Push, so one input batch (a whole stratum's Δ set on
	// fixpointOp.Advance) never materializes its entire join result. The
	// batch is detached while it goes downstream.
	out *uda.Emitter
	// rows is eachRow's scratch.
	rows []types.Delta
}

func newHashJoinOp(spec *OpSpec, handler uda.JoinHandler, batchSize int) *hashJoinOp {
	j := &hashJoinOp{
		spec:    spec,
		tracker: newPortTracker(2),
		handler: handler,
		left:    map[types.Value]*uda.TupleSet{},
		right:   map[types.Value]*uda.TupleSet{},
		dirty:   [2]map[types.Value]bool{{}, {}},
	}
	width := 0 // the plain probe's rows: left arity + right arity
	if handler != nil && handler.OutSchema() != nil {
		width = handler.OutSchema().Len()
	}
	j.out = uda.NewEmitter(width)
	j.out.FlushEvery(batchSize, func(b *types.DeltaBatch) error { return j.outs.sendBatch(b) })
	return j
}

func (j *hashJoinOp) bucket(side map[types.Value]*uda.TupleSet, key types.Value) *uda.TupleSet {
	b, ok := side[key]
	if !ok {
		b = &uda.TupleSet{}
		side[key] = b
	}
	return b
}

func (j *hashJoinOp) keyOf(port int, t types.Tuple) types.Value {
	if port == 0 {
		return t.Key(j.spec.LeftKey)
	}
	return t.Key(j.spec.RightKey)
}

// Push processes the batch row by row; bucket inserts and handlers retain
// the rows' tuples.
func (j *hashJoinOp) Push(port int, b *types.DeltaBatch) error {
	if port != 0 && port != 1 {
		return fmt.Errorf("exec: join port %d out of range", port)
	}
	if err := eachRow(b, &j.rows, func(d types.Delta) error { return j.processDelta(port, d) }); err != nil {
		return err
	}
	return j.out.Flush()
}

func (j *hashJoinOp) processDelta(port int, d types.Delta) error {
	key := j.keyOf(port, d.Tup)
	if d.Op == types.OpReplace {
		// A replacement whose key changed must be split into a deletion at
		// the old key and an insertion at the new key.
		oldKey := j.keyOf(port, d.Old)
		if !types.ValueEq(key, oldKey) {
			if err := j.processDelta(port, types.Delete(d.Old)); err != nil {
				return err
			}
			return j.processDelta(port, types.Insert(d.Tup))
		}
	}
	lb := j.bucket(j.left, key)
	rb := j.bucket(j.right, key)

	if j.handler != nil {
		lv, rv := lb.Version(), rb.Version()
		if err := j.handler.Update(lb, rb, d, port == 0, j.out); err != nil {
			return fmt.Errorf("exec: join handler %s: %w", j.handler.Name(), err)
		}
		if lb.Version() != lv {
			j.dirty[0][key] = true
		}
		if rb.Version() != rv {
			j.dirty[1][key] = true
		}
		return nil
	}

	mine, opp := lb, rb
	if port == 1 {
		mine, opp = rb, lb
	}
	switch d.Op {
	case types.OpInsert, types.OpUpdate:
		// Without a handler, δ() has no special semantics: the annotation
		// rides along as a hidden attribute (§3.3). The tuple behaves like
		// an insertion for state purposes and output deltas keep δ.
		mine.Add(d.Tup)
		j.dirty[port][key] = true
	case types.OpDelete:
		if mine.Remove(d.Tup) {
			j.dirty[port][key] = true
		}
	case types.OpReplace:
		// Same-key replacement: revise the bucket, emit replacements for
		// every matching opposite tuple.
		if !mine.ReplaceFirst(d.Old, d.Tup) {
			mine.Add(d.Tup)
		}
		j.dirty[port][key] = true
	}
	for _, o := range opp.Tuples {
		j.out.Begin(d.Op)
		j.joined(port, d.Tup, o)
		if d.Op == types.OpReplace {
			j.joined(port, d.Old, o)
		}
		if err := j.out.End(); err != nil {
			return err
		}
	}
	return nil
}

// joined supplies the open output row's columns: left fields then right
// fields, whichever side the delta arrived on.
func (j *hashJoinOp) joined(port int, mine, opposite types.Tuple) {
	left, right := mine, opposite
	if port == 1 {
		left, right = opposite, mine
	}
	for _, v := range left {
		j.out.Value(v)
	}
	for _, v := range right {
		j.out.Value(v)
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
	j.left = map[types.Value]*uda.TupleSet{}
	j.right = map[types.Value]*uda.TupleSet{}
	j.dirty = [2]map[types.Value]bool{{}, {}}
	j.tracker.reset()
}

// DirtyState checkpoints the buckets mutated this stratum. Buckets on a
// purely immutable input (rebuilt from base scans during recovery) are
// skipped. Entry layout: [keyHash, side, key, fields...], one entry per
// bucket tuple; an empty dirty bucket still emits a tombstone entry
// [keyHash, side, key] so recovery clears it.
func (j *hashJoinOp) DirtyState() []types.Tuple {
	var out []types.Tuple
	for side := 0; side < 2; side++ {
		if j.spec.ImmutablePort == side {
			j.dirty[side] = map[types.Value]bool{}
			continue
		}
		buckets := j.left
		if side == 1 {
			buckets = j.right
		}
		for key := range j.dirty[side] {
			h := int64(types.HashValue(key))
			b := buckets[key]
			if b == nil || b.Len() == 0 {
				out = append(out, types.NewTuple(h, int64(side), key))
				continue
			}
			for _, t := range b.Tuples {
				entry := types.NewTuple(h, int64(side), key)
				out = append(out, append(entry, t...))
			}
		}
		j.dirty[side] = map[types.Value]bool{}
	}
	return out
}

// Restore rebuilds the mutable buckets from checkpoints, applying strata in
// order; within a stratum, the first entry for a (side, key) resets the
// bucket.
func (j *hashJoinOp) Restore(strata [][]types.Tuple) error {
	for _, entries := range strata {
		type sk struct {
			side int64
			key  types.Value
		}
		seen := map[sk]bool{}
		for _, e := range entries {
			if len(e) < 3 {
				return fmt.Errorf("exec: join restore: bad entry %v", e)
			}
			side, _ := types.AsInt(e[1])
			key := e[2]
			buckets := j.left
			if side == 1 {
				buckets = j.right
			}
			id := sk{side, key}
			if !seen[id] {
				seen[id] = true
				buckets[key] = &uda.TupleSet{}
			}
			if len(e) > 3 {
				buckets[key].Add(e[3:].Clone())
			}
		}
	}
	return nil
}
