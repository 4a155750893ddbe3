// Package uda implements REX's user-defined aggregators and delta handlers
// (§3.3 of the paper): the four handler forms AGGSTATE, AGGRESULT, join-state
// UPDATE, and while-state UPDATE, plus the built-in aggregates
// (sum, count, min, max, average, argmin) with automatic insertion /
// deletion / replacement delta rules, and the pre-aggregation /
// composability / multiply-function machinery used by the optimizer (§5.2).
package uda

import (
	"fmt"

	"github.com/rex-data/rex/internal/types"
)

// State is opaque per-group aggregate state. Each aggregate owns its own
// representation (the paper: "each aggregate function needs to determine how
// to update its own intermediate state").
type State any

// Aggregator is the Go form of the paper's UDA: a pair of handlers
// AGGSTATE / AGGRESULT over per-group state.
//
// AggState is called by the group-by operator with the state for the delta's
// grouping key (NewState() if absent) and the delta itself; it revises the
// state and may return intermediate deltas (streamed partial aggregation).
// AggResult is called when the stratum finishes and returns the final deltas
// for the group.
type Aggregator interface {
	Name() string
	// InSchema declares the argument fields the aggregator consumes
	// (the paper's inTypes).
	InSchema() *types.Schema
	// OutSchema declares the fields of emitted deltas (outTypes).
	OutSchema() *types.Schema
	NewState() State
	AggState(st State, d types.Delta) (State, []types.Delta, error)
	AggResult(st State) ([]types.Delta, error)
}

// PreAggregator is implemented by UDAs that supply a combiner-style
// pre-aggregate (MapReduce's combiner); the optimizer pushes it below
// rehash and, when composable, below joins (§5.2).
type PreAggregator interface {
	PreAgg() Aggregator
}

// Composable marks UDAs computable in parts that can be unioned and
// finalized (sum, average — but not median). Composable UDAs may be
// pre-aggregated under arbitrary joins; non-composable only under
// key–foreign-key joins.
type Composable interface {
	Composable() bool
}

// Multiplier compensates pre-aggregation on both sides of a multiplicative
// (non key–foreign-key) join: the delta is scaled by the cardinality of the
// opposite join group (§5.2 "Composability and multiplicative joins").
type Multiplier interface {
	Multiply(d types.Delta, oppositeCard int) (types.Delta, error)
}

// TupleSet is a mutable bucket of tuples sharing one key — the LEFTBUCKET /
// RIGHTBUCKET arguments of the paper's join-state handler and the
// WHILERELATION of the while-state handler. Handlers freely read and revise
// it; the owning operator persists it between strata.
type TupleSet struct {
	Tuples []types.Tuple
	// version increments on every mutation; the owning operator compares
	// versions around handler calls to track dirty state for incremental
	// checkpointing (§4.3).
	version int
}

// Version reports the mutation counter.
func (s *TupleSet) Version() int { return s.version }

// Len reports the number of tuples in the set.
func (s *TupleSet) Len() int { return len(s.Tuples) }

// Add appends a tuple.
func (s *TupleSet) Add(t types.Tuple) {
	s.Tuples = append(s.Tuples, t)
	s.version++
}

// Remove deletes the first tuple equal to t, reporting whether one existed.
func (s *TupleSet) Remove(t types.Tuple) bool {
	for i, x := range s.Tuples {
		if x.Equal(t) {
			s.RemoveAt(i)
			return true
		}
	}
	return false
}

// RemoveAt deletes the tuple at index i.
func (s *TupleSet) RemoveAt(i int) {
	s.Tuples = append(s.Tuples[:i], s.Tuples[i+1:]...)
	s.version++
}

// Set overwrites the tuple at index i (bumping the mutation counter, so
// dirty-state tracking sees in-place revisions).
func (s *TupleSet) Set(i int, t types.Tuple) {
	s.Tuples[i] = t
	s.version++
}

// ReplaceFirst swaps old for new, reporting whether old existed.
func (s *TupleSet) ReplaceFirst(old, new types.Tuple) bool {
	for i, x := range s.Tuples {
		if x.Equal(old) {
			s.Tuples[i] = new
			s.version++
			return true
		}
	}
	return false
}

// Get returns the value at column col of the first tuple whose column
// keyCol equals key, mirroring the bucket.get(id) idiom of the paper's
// PRAgg listing. ok is false when no tuple matches.
func (s *TupleSet) Get(keyCol int, key types.Value, col int) (types.Value, bool) {
	for _, t := range s.Tuples {
		if types.ValueEq(t[keyCol], key) {
			return t[col], true
		}
	}
	return nil, false
}

// Put updates column col of the first tuple whose keyCol matches key, or
// appends a fresh tuple build(key) when absent (bucket.put of the paper).
func (s *TupleSet) Put(keyCol int, key types.Value, col int, v types.Value, build func() types.Tuple) {
	for i, t := range s.Tuples {
		if types.ValueEq(t[keyCol], key) {
			nt := t.Clone()
			nt[col] = v
			s.Tuples[i] = nt
			s.version++
			return
		}
	}
	nt := build()
	nt[col] = v
	s.Tuples = append(s.Tuples, nt)
	s.version++
}

// Clone deep-copies the set (used when checkpointing state).
func (s *TupleSet) Clone() *TupleSet {
	out := &TupleSet{Tuples: make([]types.Tuple, len(s.Tuples))}
	for i, t := range s.Tuples {
		out.Tuples[i] = t.Clone()
	}
	return out
}

// JoinHandler is the paper's join-state delta handler:
// DELTA[] UPDATE(TUPLESET LEFTBUCKET, TUPLESET RIGHTBUCKET, DELTA D).
// It is invoked by the join operator with the buckets for the delta's join
// key; fromLeft reports which input produced d. The handler may revise the
// buckets (d's tuples are its to keep) and writes the deltas to propagate,
// rows of OutSchema's width, to out.
type JoinHandler interface {
	Name() string
	// OutSchema declares the fields of emitted deltas.
	OutSchema() *types.Schema
	Update(left, right *TupleSet, d types.Delta, fromLeft bool, out *Emitter) error
}

// WhileHandler is the paper's while-state delta handler:
// DELTA[] UPDATE(TUPLESET WHILERELATION, DELTA D).
// It is invoked by the while/fixpoint operator with the state bucket for the
// delta's fixpoint key and writes the (possibly empty) set of new deltas to
// feed to the next stratum to out.
type WhileHandler interface {
	Name() string
	Update(rel *TupleSet, d types.Delta, out *Emitter) error
}

// FuncJoinHandler adapts a function to JoinHandler.
type FuncJoinHandler struct {
	HName string
	Out   *types.Schema
	Fn    func(left, right *TupleSet, d types.Delta, fromLeft bool, out *Emitter) error
}

// Name returns the handler name.
func (h *FuncJoinHandler) Name() string { return h.HName }

// OutSchema returns the emitted delta schema.
func (h *FuncJoinHandler) OutSchema() *types.Schema { return h.Out }

// Update invokes the wrapped function.
func (h *FuncJoinHandler) Update(l, r *TupleSet, d types.Delta, fromLeft bool, out *Emitter) error {
	return h.Fn(l, r, d, fromLeft, out)
}

// FuncWhileHandler adapts a function to WhileHandler.
type FuncWhileHandler struct {
	HName string
	Fn    func(rel *TupleSet, d types.Delta, out *Emitter) error
}

// Name returns the handler name.
func (h *FuncWhileHandler) Name() string { return h.HName }

// Update invokes the wrapped function.
func (h *FuncWhileHandler) Update(rel *TupleSet, d types.Delta, out *Emitter) error {
	return h.Fn(rel, d, out)
}

// ErrUnsupportedDelta is returned by built-in aggregates for annotations
// they have no rule for; without a user delta handler REX treats the
// annotation as a hidden attribute (§3.3), which the group-by operator
// implements by falling back to insert semantics.
var ErrUnsupportedDelta = fmt.Errorf("uda: unsupported delta annotation")
