package types

import "fmt"

// Op is the annotation α of a delta (Definition 1 in the paper).
type Op uint8

const (
	// OpInsert is +(): the tuple is inserted into downstream operator state.
	OpInsert Op = iota
	// OpDelete is −(): the tuple is removed from downstream operator state.
	OpDelete
	// OpReplace is →(t'): Tuple replaces the existing tuple Old.
	OpReplace
	// OpUpdate is δ(E): a programmable value-update interpreted by
	// user-defined delta handlers in downstream stateful operators. The
	// "expression code E" of the paper is carried as ordinary attributes of
	// the tuple (exactly how the REX optimizer lowers annotations, §5
	// "Query plans for deltas").
	OpUpdate
)

// String renders the annotation in the paper's notation.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "+"
	case OpDelete:
		return "-"
	case OpReplace:
		return "->"
	case OpUpdate:
		return "δ"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Delta is an annotated tuple: the unit of data flowing between REX
// operators. For OpReplace, Old carries the tuple being replaced.
type Delta struct {
	Op  Op
	Tup Tuple
	Old Tuple // set only for OpReplace
}

// Insert builds a +() delta.
func Insert(t Tuple) Delta { return Delta{Op: OpInsert, Tup: t} }

// Delete builds a −() delta.
func Delete(t Tuple) Delta { return Delta{Op: OpDelete, Tup: t} }

// Replace builds a →(old) delta carrying the new tuple.
func Replace(old, new Tuple) Delta { return Delta{Op: OpReplace, Tup: new, Old: old} }

// Update builds a δ(E) delta; the update payload travels as tuple fields.
func Update(t Tuple) Delta { return Delta{Op: OpUpdate, Tup: t} }

// String renders the delta in paper notation, e.g. "+(1, 0.85)".
func (d Delta) String() string {
	if d.Op == OpReplace {
		return fmt.Sprintf("->%s=>%s", d.Old, d.Tup)
	}
	return d.Op.String() + d.Tup.String()
}

// Inserts wraps plain tuples as insertion deltas.
func Inserts(ts ...Tuple) []Delta {
	out := make([]Delta, len(ts))
	for i, t := range ts {
		out[i] = Insert(t)
	}
	return out
}

// RouteByKey calls fn(hash, d) for every delta with the hash of its
// partition-key column, splitting a replacement whose old and new keys
// hash apart into a deletion at the old home and an insertion at the new
// one. It is the single routing rule shared by bulk loading, base-table
// ingestion, and standing-query delta staging — one definition, so store
// placement and wire routing can never diverge.
func RouteByKey(deltas []Delta, keyCol int, fn func(h uint64, d Delta) error) error {
	for _, d := range deltas {
		if d.Op == OpReplace {
			oldH := HashValue(d.Old[keyCol])
			newH := HashValue(d.Tup[keyCol])
			if oldH != newH {
				if err := fn(oldH, Delete(d.Old)); err != nil {
					return err
				}
				if err := fn(newH, Insert(d.Tup)); err != nil {
					return err
				}
				continue
			}
		}
		if err := fn(HashValue(d.Tup[keyCol]), d); err != nil {
			return err
		}
	}
	return nil
}
