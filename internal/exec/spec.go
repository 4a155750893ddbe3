// Package exec is the heart of REX: the delta-propagating, pipelined,
// distributed query executor of §3.3 and §4.2. It implements the physical
// operators (scan, filter, project/applyFunction, pipelined hash join,
// group-by, rehash, while/fixpoint), the punctuation protocol that closes
// strata, the query-requestor coordination of recursive termination, and
// the incremental recovery of §4.3.
//
// Worker nodes are single-threaded event loops: within a node operators are
// push-based synchronous calls, so operator state needs no locks; across
// nodes, data travels through the cluster.Transport interface as encoded
// batches — over in-process mailboxes or real TCP sockets, transparently
// to every operator.
package exec

import (
	"fmt"

	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
)

// OpKind enumerates physical operator kinds.
type OpKind uint8

// Physical operator kinds.
const (
	OpScan OpKind = iota
	OpFilter
	OpProject
	OpTVF
	OpHashJoin
	OpGroupBy
	OpPreAgg
	OpRehash
	OpBroadcast
	OpFixpoint
	OpOutput
)

// String names the operator kind for EXPLAIN output.
func (k OpKind) String() string {
	return [...]string{"Scan", "Filter", "Project", "ApplyTVF", "HashJoin",
		"GroupBy", "PreAgg", "Rehash", "Broadcast", "Fixpoint", "Output"}[k]
}

// AggSpec configures one aggregate column of a group-by.
type AggSpec struct {
	// Fn is the built-in aggregate name (sum, count, min, max, avg, argmin).
	Fn string
	// Args are expressions over the input schema producing the aggregate's
	// arguments (empty for count(*)).
	Args []expr.Expr
	// OutName names the output column.
	OutName string
	// OutKind is the result type.
	OutKind types.Kind
}

// OpSpec describes one operator instance of a physical plan. A single spec
// is instantiated on every worker node (data-partitioned parallelism).
type OpSpec struct {
	ID     int
	Kind   OpKind
	Inputs []int // producing op IDs, in port order

	// Out is the output schema of this operator.
	Out *types.Schema

	// Scan
	Table string
	// KeyEq, when set, is a row-free expression (a literal or $n) that the
	// scanned table's partition key must equal: the scan evaluates it once
	// and reads the key's rows through the store's keyed lookup instead of
	// walking the table. It narrows what the scan reads, never what the
	// query means — the plan keeps the equality as a filter, so rows that
	// merely share the key's hash, and deltas injected into a standing
	// query, are still filtered exactly.
	KeyEq expr.Expr

	// Filter
	Pred expr.Expr

	// Project / applyFunction: one expression per output column.
	Exprs []expr.Expr
	// UDFArgKinds enables per-call argument typechecking (the simulated
	// reflection overhead); nil disables it.
	UDFArgKinds [][]types.Kind

	// TVF: a registered table-valued function name.
	TVFName string

	// HashJoin
	LeftKey, RightKey []int // join key column indexes per side
	JoinHandlerName   string
	// ImmutablePort marks the join input fed only by base data (closed
	// after stratum 0); -1 when both sides are mutable.
	ImmutablePort int

	// GroupBy / PreAgg
	GroupKey []int
	Aggs     []AggSpec
	// UDAName selects a table-valued aggregator instead of scalar Aggs.
	UDAName string
	// ResetPerStratum clears group state after each flush, giving
	// per-iteration (rather than cumulative) aggregation — the semantics
	// non-incremental strategies need.
	ResetPerStratum bool

	// Rehash / Broadcast
	HashKey []int
	// CompactMerge declares, per non-key column index, how the shuffle's
	// compacting store may merge two same-key δ() deltas ("sum", "min",
	// "max"). Columns absent from the map must be value-equal for a merge
	// to apply. Declaring a function is only sound when the downstream
	// consumer folds that column with the same function (e.g. a rehash
	// feeding a group-by's sum) — the plan builder asserts that, not the
	// executor: the RQL binder derives it from the group-by (see
	// rql.compactMergeFor), hand-built plans state it. Ignored unless
	// Options.Compaction is on.
	CompactMerge map[int]string

	// Fixpoint
	FixpointKey      []int
	WhileHandlerName string
	// RecursiveOut is the op receiving the next stratum's Δ set.
	RecursiveOut int
	// FinalOut is the op receiving the final state at termination.
	FinalOut int
	// NoDelta makes the fixpoint feed its entire mutable relation (not
	// just the Δ set) into every stratum — the paper's "REX no-delta"
	// baseline strategy (§6 Configurations).
	NoDelta bool
}

// String describes the operator for plan listings. A scan with a pushed
// key equality reads `Scan lineitem [key = $1]`, "key" being the table's
// partition key.
func (o *OpSpec) String() string {
	switch {
	case o.Kind != OpScan:
		return o.Kind.String()
	case o.KeyEq != nil:
		return fmt.Sprintf("Scan %s [key = %s]", o.Table, o.KeyEq)
	}
	return "Scan " + o.Table
}

// PlanSpec is a complete physical plan: a DAG of OpSpecs (plus one cycle
// through the fixpoint operator for recursive queries).
type PlanSpec struct {
	Ops []*OpSpec
	// RootID is the op whose output is the query result (routed to Output).
	RootID int
	// FixpointID is the fixpoint op for recursive plans, else -1.
	FixpointID int
	// MaxStrata caps recursion (safety net for non-converging queries).
	MaxStrata int
}

// NewPlanSpec creates an empty plan.
func NewPlanSpec() *PlanSpec {
	return &PlanSpec{FixpointID: -1, RootID: -1, MaxStrata: 1000}
}

// Add appends an op, assigning its ID.
func (p *PlanSpec) Add(op *OpSpec) *OpSpec {
	op.ID = len(p.Ops)
	p.Ops = append(p.Ops, op)
	if op.Kind == OpFixpoint {
		p.FixpointID = op.ID
	}
	return op
}

// Op returns the spec with the given id.
func (p *PlanSpec) Op(id int) *OpSpec { return p.Ops[id] }

// Recursive reports whether the plan contains a fixpoint.
func (p *PlanSpec) Recursive() bool { return p.FixpointID >= 0 }

// Validate checks structural invariants before execution.
func (p *PlanSpec) Validate() error {
	if p.RootID < 0 || p.RootID >= len(p.Ops) {
		return fmt.Errorf("exec: plan root %d out of range", p.RootID)
	}
	fixpoints := 0
	for _, op := range p.Ops {
		for _, in := range op.Inputs {
			if in < 0 || in >= len(p.Ops) {
				return fmt.Errorf("exec: op %d input %d out of range", op.ID, in)
			}
		}
		switch op.Kind {
		case OpScan:
			if op.Table == "" {
				return fmt.Errorf("exec: scan op %d missing table", op.ID)
			}
			if len(op.Inputs) != 0 {
				return fmt.Errorf("exec: scan op %d must have no inputs", op.ID)
			}
		case OpFilter:
			if op.Pred == nil {
				return fmt.Errorf("exec: filter op %d missing predicate", op.ID)
			}
		case OpProject:
			if len(op.Exprs) == 0 {
				return fmt.Errorf("exec: project op %d has no expressions", op.ID)
			}
		case OpHashJoin:
			if len(op.Inputs) != 2 {
				return fmt.Errorf("exec: join op %d needs two inputs", op.ID)
			}
			if op.JoinHandlerName == "" && (len(op.LeftKey) == 0 || len(op.LeftKey) != len(op.RightKey)) {
				return fmt.Errorf("exec: join op %d has mismatched keys", op.ID)
			}
		case OpGroupBy, OpPreAgg:
			if len(op.Aggs) == 0 && op.UDAName == "" {
				return fmt.Errorf("exec: group-by op %d has no aggregates", op.ID)
			}
		case OpRehash, OpBroadcast:
			if op.Kind == OpRehash && len(op.HashKey) == 0 {
				return fmt.Errorf("exec: rehash op %d missing hash key", op.ID)
			}
		case OpFixpoint:
			fixpoints++
			if len(op.FixpointKey) == 0 {
				return fmt.Errorf("exec: fixpoint op %d missing key", op.ID)
			}
		}
	}
	if fixpoints > 1 {
		return fmt.Errorf("exec: at most one fixpoint per query (stratified recursion)")
	}
	if fixpoints == 1 {
		if p.Op(p.FixpointID).RecursiveOut < 0 {
			return fmt.Errorf("exec: fixpoint missing recursive output")
		}
		if p.RootID != p.FixpointID {
			return fmt.Errorf("exec: recursive plans must root at the fixpoint (its final state is the result)")
		}
	}
	return nil
}

// consumers derives, for every op, the list of (consumerID, port) pairs
// fed by its output. The fixpoint's recursive/final outs are explicit
// fields, not Inputs entries, to keep the DAG acyclic for this derivation.
func (p *PlanSpec) consumers() map[int][]portRef {
	out := map[int][]portRef{}
	for _, op := range p.Ops {
		for port, in := range op.Inputs {
			if p.FixpointID >= 0 && in == p.FixpointID {
				// The fixpoint's recursive feed is wired through
				// RecursiveOut below, not through Inputs, so the edge is
				// not added twice.
				continue
			}
			out[in] = append(out[in], portRef{op: op.ID, port: port})
		}
	}
	for _, op := range p.Ops {
		if op.Kind == OpFixpoint {
			if op.RecursiveOut >= 0 {
				out[op.ID] = append(out[op.ID], portRef{op: op.RecursiveOut, port: fixpointRecursivePort(p, op)})
			}
		}
	}
	return out
}

// fixpointRecursivePort finds which port of the recursive-out op the
// fixpoint feeds: the port whose Inputs entry names the fixpoint, else 0.
func fixpointRecursivePort(p *PlanSpec, fx *OpSpec) int {
	dst := p.Op(fx.RecursiveOut)
	for port, in := range dst.Inputs {
		if in == fx.ID {
			return port
		}
	}
	return 0
}

type portRef struct {
	op   int
	port int
}

// edgeID packs (destination op, port) into the transport Edge field.
func edgeID(op, port int) int { return op<<2 | port }

// splitEdge unpacks a transport Edge field.
func splitEdge(e int) (op, port int) { return e >> 2, e & 3 }
