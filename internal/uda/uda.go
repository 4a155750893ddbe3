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

// JoinHandler is the paper's join-state delta handler:
// DELTA[] UPDATE(TUPLESET LEFTBUCKET, TUPLESET RIGHTBUCKET, DELTA D).
// It is invoked by the join operator with the buckets for the delta's join
// key; fromLeft reports which input produced d. The handler may revise the
// buckets and writes the deltas to propagate, rows of OutSchema's width,
// to out. d is borrowed: the []Value behind d.Tup and d.Old is valid only
// during the call (the buckets and the emitter keep copies), while the
// values themselves stay valid.
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
// feed to the next stratum to out. d is borrowed, as for JoinHandler.
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
